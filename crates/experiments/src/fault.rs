//! Deterministic, seed-driven fault injection for the experiment engine.
//!
//! `repro --inject-faults <spec>` exercises the fault-tolerance layer end to
//! end: it forces job panics, artificially tiny run budgets, and corrupted
//! cache files, and the suite must still produce a correct final report with
//! the failures itemized. Every choice the injector makes derives from the
//! spec's seed, so a faulted run is exactly reproducible.
//!
//! The spec is a comma-separated list of `knob=value` pairs:
//!
//! ```text
//! panic=2,corrupt=3,budget=1,seed=7
//! ```
//!
//! * `panic=N` — N jobs panic on their first attempt (the bounded retry
//!   then succeeds, so final numbers match a clean run).
//! * `budget=N` — N jobs get a ~1000-event budget on their first attempt,
//!   forcing a budget-exceeded failure; the retry runs with the real
//!   budget.
//! * `corrupt=N` — N existing cache files are truncated or bit-flipped
//!   before the run (alternating), forcing quarantine-and-resimulate.
//! * `seed=S` — the seed driving every selection (default 0).

use std::fs;
use std::path::{Path, PathBuf};

use walksteal_sim_core::SimRng;

/// A fault the engine injects into one job's first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The job panics mid-simulation.
    Panic,
    /// The job runs under a ~1000-event budget and blows it.
    Budget,
}

/// Parsed `--inject-faults` spec. Counters are consumed as faults are
/// assigned, so a suite of several experiments injects exactly the
/// requested totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Jobs still to be given a first-attempt panic.
    pub panics: usize,
    /// Jobs still to be given a first-attempt budget blowout.
    pub budgets: usize,
    /// Cache files still to be corrupted up front.
    pub corrupt: usize,
    /// Seed for every injection decision.
    pub seed: u64,
    /// Fault-assignment rounds completed (decorrelates successive plans).
    rounds: u64,
}

impl FaultSpec {
    /// Parses a spec string like `panic=1,corrupt=2,budget=1,seed=7`.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending field.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{part}` is not knob=value"))?;
            let n: u64 = v
                .trim()
                .parse()
                .map_err(|_| format!("fault spec value `{v}` is not a number"))?;
            match k.trim() {
                "panic" => spec.panics = n as usize,
                "budget" => spec.budgets = n as usize,
                "corrupt" => spec.corrupt = n as usize,
                "seed" => spec.seed = n,
                other => return Err(format!("unknown fault spec knob `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Whether any fault remains to be injected.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.panics == 0 && self.budgets == 0 && self.corrupt == 0
    }

    /// Assigns pending panic/budget faults to positions among `n_jobs`
    /// planned jobs, consuming the counters. Deterministic in the seed and
    /// the number of prior calls.
    #[must_use]
    pub fn take_plan(&mut self, n_jobs: usize) -> Vec<Option<InjectedFault>> {
        let mut plan = vec![None; n_jobs];
        if n_jobs == 0 {
            return plan;
        }
        let mut rng = SimRng::new(self.seed).split(0x666A + self.rounds);
        self.rounds += 1;
        let mut place = |spec_count: &mut usize, fault: InjectedFault| {
            while *spec_count > 0 {
                if plan.iter().all(Option::is_some) {
                    return; // every job already faulted; keep the rest
                }
                let mut i = rng.next_below(n_jobs as u64) as usize;
                while plan[i].is_some() {
                    i = (i + 1) % n_jobs; // linear-probe to a free slot
                }
                plan[i] = Some(fault);
                *spec_count -= 1;
            }
        };
        place(&mut self.panics, InjectedFault::Panic);
        place(&mut self.budgets, InjectedFault::Budget);
        plan
    }

    /// Corrupts up to the spec's pending `corrupt` count of cache files
    /// under `dir` (truncation and bit-flips, alternating), consuming the
    /// counter. Returns the paths touched. Selection is deterministic:
    /// files are considered in sorted-name order.
    pub fn corrupt_cache(&mut self, dir: &Path) -> Vec<PathBuf> {
        if self.corrupt == 0 {
            return Vec::new();
        }
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        let mut rng = SimRng::new(self.seed).split(0xC0FF);
        let mut touched = Vec::new();
        while self.corrupt > 0 && !files.is_empty() {
            let pick = rng.next_below(files.len() as u64) as usize;
            let path = files.swap_remove(pick);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            // Alternate the two corruption shapes the store must survive.
            let mangled = if touched.len() % 2 == 0 {
                text[..text.len() / 2].to_string()
            } else {
                flip_one_digit(&text, &mut rng)
            };
            if fs::write(&path, mangled).is_ok() {
                eprintln!("fault: corrupted {}", path.display());
                touched.push(path);
                self.corrupt -= 1;
            }
        }
        touched
    }
}

/// Replaces one decimal digit of `text` with a different digit, keeping the
/// JSON well-formed but the payload wrong (caught by the envelope
/// checksum).
fn flip_one_digit(text: &str, rng: &mut SimRng) -> String {
    let digits: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    if digits.is_empty() {
        return String::new(); // no digits: degrade to an empty (truncated) file
    }
    let at = digits[rng.next_below(digits.len() as u64) as usize];
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = b'0' + (bytes[at] - b'0' + 1) % 10;
    String::from_utf8(bytes).expect("digit swap preserves UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let s = FaultSpec::parse("panic=2,corrupt=3,budget=1,seed=7").unwrap();
        assert_eq!(s.panics, 2);
        assert_eq!(s.corrupt, 3);
        assert_eq!(s.budgets, 1);
        assert_eq!(s.seed, 7);
        assert!(!s.exhausted());
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultSpec::parse("panic").is_err());
        assert!(FaultSpec::parse("panic=x").is_err());
        assert!(FaultSpec::parse("warp=1").is_err());
    }

    #[test]
    fn plan_is_deterministic_and_consumes_counters() {
        let mut a = FaultSpec::parse("panic=2,budget=1,seed=9").unwrap();
        let mut b = a.clone();
        let pa = a.take_plan(10);
        let pb = b.take_plan(10);
        assert_eq!(pa, pb);
        assert_eq!(
            pa.iter()
                .filter(|f| **f == Some(InjectedFault::Panic))
                .count(),
            2
        );
        assert_eq!(
            pa.iter()
                .filter(|f| **f == Some(InjectedFault::Budget))
                .count(),
            1
        );
        assert!(a.exhausted());
        // A second round injects nothing further.
        assert!(a.take_plan(10).iter().all(Option::is_none));
    }

    #[test]
    fn more_faults_than_jobs_saturates() {
        let mut s = FaultSpec::parse("panic=5,seed=1").unwrap();
        let plan = s.take_plan(2);
        assert!(plan.iter().all(Option::is_some));
        assert_eq!(s.panics, 3, "unplaced faults remain pending");
    }

    #[test]
    fn corrupts_requested_number_of_files() {
        let dir = std::env::temp_dir().join(format!("walksteal-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for i in 0..5 {
            fs::write(dir.join(format!("f{i}.json")), format!("{{\"v\":{i}00}}")).unwrap();
        }
        let mut s = FaultSpec::parse("corrupt=2,seed=3").unwrap();
        let touched = s.corrupt_cache(&dir);
        assert_eq!(touched.len(), 2);
        assert_eq!(s.corrupt, 0);
        // Deterministic: same seed picks the same files.
        let mut s2 = FaultSpec::parse("corrupt=2,seed=3").unwrap();
        let dir2 = std::env::temp_dir().join(format!("walksteal-fault2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir2);
        fs::create_dir_all(&dir2).unwrap();
        for i in 0..5 {
            fs::write(dir2.join(format!("f{i}.json")), format!("{{\"v\":{i}00}}")).unwrap();
        }
        let touched2 = s2.corrupt_cache(&dir2);
        let names = |v: &[PathBuf]| {
            v.iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&touched), names(&touched2));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn empty_dir_leaves_counter_pending() {
        let dir =
            std::env::temp_dir().join(format!("walksteal-fault-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut s = FaultSpec::parse("corrupt=2").unwrap();
        assert!(s.corrupt_cache(&dir).is_empty());
        assert_eq!(s.corrupt, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
