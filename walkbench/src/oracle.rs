//! The correctness oracle. A simulation fails when it panics or returns a
//! `SimError`, when its result digest differs from an earlier repetition of
//! the same simulation (with or without observability), or — at the pinned
//! seed — when it differs from the golden digest.

use crate::measure::{digest, Timed};

/// The seed whose digests are pinned in `golden/s42.txt`.
pub const GOLDEN_SEED: u64 = 42;

const GOLDEN: &str = include_str!("../golden/s42.txt");

/// Pinned digests of `workload` at `scale`, by simulation index, from a
/// golden file of `workload scale index digest` lines.
pub fn golden(text: Option<&str>, workload: &str, scale: &str) -> Vec<(usize, u64)> {
    text.unwrap_or(GOLDEN)
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, i, d] if *w == workload && *s == scale => {
                    Some((i.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

pub struct Oracle {
    /// The digest every run of each simulation must reproduce: the pinned
    /// one when there is one, else the first observed.
    expected: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    pub fn new(n_sims: usize, pinned: &[(usize, u64)]) -> Oracle {
        let mut expected = vec![None; n_sims];
        for &(i, d) in pinned {
            if let Some(slot) = expected.get_mut(i) {
                *slot = Some(d);
            }
        }
        Oracle {
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one simulation run; returns it when it passed.
    pub fn check<'a>(
        &mut self,
        sim: usize,
        what: &str,
        run: &'a Result<Timed, String>,
    ) -> Option<&'a Timed> {
        self.attempted += 1;
        let verdict = match run {
            Err(e) => Err(e.clone()),
            Ok(t) => {
                let got = digest(&t.result);
                match self.expected[sim] {
                    None => {
                        self.expected[sim] = Some(got);
                        Ok(t)
                    }
                    Some(want) if want == got => Ok(t),
                    Some(want) => Err(format!("digest {got:016x}, expected {want:016x}")),
                }
            }
        };
        verdict
            .map_err(|e| {
                self.failed += 1;
                eprintln!("walkbench: simulation {sim} ({what}) failed: {e}");
            })
            .ok()
    }

    /// The digest each simulation must reproduce (`None`: never ran).
    pub fn digests(&self) -> &[Option<u64>] {
        &self.expected
    }

    /// Counts a failure found outside the digest check.
    pub fn fail(&mut self, sim: usize, why: &str) {
        self.failed += 1;
        eprintln!("walkbench: simulation {sim} failed: {why}");
    }
}
