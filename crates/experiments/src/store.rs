//! A disk-backed, self-healing store of simulation results.
//!
//! Experiments share runs (Fig. 5, 6, 7, 10, and Tables V/VI all consume the
//! same Baseline/DWS/DWS++ simulations), and a from-scratch paper-scale
//! `repro --jobs 2 all ablation` takes 8 min 32 s of wall time (16 min 45 s
//! of CPU) on a 2-vCPU host — so every completed run is cached as a JSON
//! file keyed by its configuration. Re-running the suite simulates only
//! what is missing.
//!
//! In memory the cache is keyed on the typed [`ExpKey`]; the key is rendered
//! to its legacy string form only to name the file on disk, so caches written
//! by earlier versions remain readable.
//!
//! # Fault tolerance
//!
//! A result cache shared by a whole evaluation suite must not be able to
//! take the suite down:
//!
//! * **Atomic writes** — results are written to a temp file in the cache
//!   directory and renamed into place, so a crash mid-write can never leave
//!   a half-written file under a live key.
//! * **Integrity checksums** — new files carry an FNV-1a 64 checksum of the
//!   result payload in their JSON envelope (`Store::persist` format:
//!   `{"fnv64":"<hex>","result":{...}}`). Files written before the envelope
//!   existed load checksum-free, unchanged on disk.
//! * **Quarantine, don't panic** — an unreadable, unparseable, or
//!   checksum-failing file is moved to `<dir>/quarantine/` and logged; the
//!   lookup reports a miss so the key is simply resimulated. The
//!   [`Store::quarantined`] log lets the caller itemize what self-healed.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use walksteal_multitenant::SimResult;
use walksteal_sim_core::Json;

use crate::key::ExpKey;

/// Subdirectory (inside the cache dir) corrupt files are moved to.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Why a cache file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file exists but could not be read.
    Io {
        /// The offending file.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        msg: String,
    },
    /// The file is not valid JSON (truncated, bit-flipped, …).
    Parse {
        /// The offending file.
        path: PathBuf,
        /// The parser's complaint.
        msg: String,
    },
    /// The envelope checksum does not match the payload.
    Checksum {
        /// The offending file.
        path: PathBuf,
    },
    /// Valid JSON that does not decode to a [`SimResult`] (stale schema).
    Decode {
        /// The offending file.
        path: PathBuf,
    },
}

impl StoreError {
    /// The file the error is about.
    #[must_use]
    pub fn path(&self) -> &Path {
        match self {
            StoreError::Io { path, .. }
            | StoreError::Parse { path, .. }
            | StoreError::Checksum { path }
            | StoreError::Decode { path } => path,
        }
    }

    /// A short label for summary tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "unreadable",
            StoreError::Parse { .. } => "unparseable",
            StoreError::Checksum { .. } => "checksum mismatch",
            StoreError::Decode { .. } => "stale schema",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            StoreError::Parse { path, msg } => {
                write!(f, "{}: invalid JSON: {msg}", path.display())
            }
            StoreError::Checksum { path } => {
                write!(f, "{}: checksum mismatch", path.display())
            }
            StoreError::Decode { path } => {
                write!(f, "{}: not a result record", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One file the store moved out of the way instead of dying on.
#[derive(Debug, Clone)]
pub struct QuarantineEvent {
    /// The key whose lookup hit the bad file.
    pub key: ExpKey,
    /// Why the file was rejected.
    pub error: StoreError,
    /// Where the file was moved (`None` if even the move failed and the
    /// file was deleted instead).
    pub moved_to: Option<PathBuf>,
}

/// FNV-1a 64 over `bytes` (also used to suffix cache file names).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A cache of [`SimResult`]s, in memory and optionally on disk.
///
/// # Examples
///
/// ```
/// use walksteal_experiments::{key::ExpKey, Store};
/// use walksteal_multitenant::{PolicyPreset, SimResult};
/// use walksteal_workloads::{AppId, WorkloadPair};
///
/// let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
/// let key = ExpKey::pair(PolicyPreset::Dws, pair, "quick", 42);
/// let mut store = Store::in_memory();
/// assert!(store.lookup(&key).is_none());
/// let r = SimResult { tenants: vec![], cycles: 1, events: 0, timeline: vec![], churn: None };
/// store.insert(&key, r.clone());
/// assert_eq!(store.lookup(&key), Some(r)); // answered from the cache
/// assert_eq!(store.misses(), 1);
/// ```
#[derive(Debug)]
pub struct Store {
    dir: Option<PathBuf>,
    memory: HashMap<ExpKey, SimResult>,
    misses: u64,
    quarantined: Vec<QuarantineEvent>,
}

impl Store {
    /// A store that caches only in memory (tests, quick runs).
    #[must_use]
    pub fn in_memory() -> Self {
        Store {
            dir: None,
            memory: HashMap::new(),
            misses: 0,
            quarantined: Vec::new(),
        }
    }

    /// A store persisting results under `dir` (created on demand).
    #[must_use]
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Store {
            dir: Some(dir.into()),
            memory: HashMap::new(),
            misses: 0,
            quarantined: Vec::new(),
        }
    }

    /// Turns a rendered key into a safe file name.
    fn file_name(key: &str) -> String {
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        // Append a hash so that sanitization collisions cannot alias.
        format!("{safe}-{:016x}.json", fnv64(key.as_bytes()))
    }

    fn disk_path(&self, key: &ExpKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(Self::file_name(&key.to_string())))
    }

    /// Decodes one cache file's contents: the checksummed envelope written
    /// by [`persist`](Self::persist), or a bare legacy result.
    fn decode(path: &Path, text: &str) -> Result<SimResult, StoreError> {
        // Envelope layout is fixed by the writer, so the payload's exact
        // bytes can be recovered for checksumming without re-serializing
        // (float formatting round-trips are then irrelevant).
        const PREFIX: &str = "{\"fnv64\":\"";
        const SEP: &str = "\",\"result\":";
        let payload = if let Some(rest) = text.strip_prefix(PREFIX) {
            let (sum, rest) = rest.split_at_checked(16).ok_or_else(|| StoreError::Parse {
                path: path.to_path_buf(),
                msg: "truncated envelope".into(),
            })?;
            let payload = rest
                .strip_prefix(SEP)
                .and_then(|r| r.trim_end().strip_suffix('}'))
                .ok_or_else(|| StoreError::Parse {
                    path: path.to_path_buf(),
                    msg: "malformed envelope".into(),
                })?;
            if format!("{:016x}", fnv64(payload.as_bytes())) != sum {
                return Err(StoreError::Checksum {
                    path: path.to_path_buf(),
                });
            }
            payload
        } else {
            text
        };
        let json = Json::parse(payload).map_err(|msg| StoreError::Parse {
            path: path.to_path_buf(),
            msg,
        })?;
        SimResult::from_json(&json).ok_or_else(|| StoreError::Decode {
            path: path.to_path_buf(),
        })
    }

    /// Moves a rejected cache file to the quarantine directory (best
    /// effort) and records the event. The key's next lookup misses, so it
    /// is resimulated rather than the suite dying here.
    fn quarantine(&mut self, key: &ExpKey, path: &Path, error: StoreError) {
        let moved_to = self.dir.as_ref().and_then(|dir| {
            let qdir = dir.join(QUARANTINE_DIR);
            fs::create_dir_all(&qdir).ok()?;
            let dest = qdir.join(path.file_name()?);
            fs::rename(path, &dest).ok()?;
            Some(dest)
        });
        if moved_to.is_none() {
            // Could not move it aside; remove it so the resimulated result
            // can take the slot.
            let _ = fs::remove_file(path);
        }
        eprintln!(
            "store: quarantined {} ({}) -> {}",
            path.display(),
            error.kind(),
            moved_to
                .as_deref()
                .map_or_else(|| "deleted".to_string(), |p| p.display().to_string()),
        );
        self.quarantined.push(QuarantineEvent {
            key: key.clone(),
            error,
            moved_to,
        });
    }

    fn load_from_disk(&mut self, key: &ExpKey) -> Option<SimResult> {
        let path = self.disk_path(key)?;
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.quarantine(
                    key,
                    &path,
                    StoreError::Io {
                        path: path.clone(),
                        msg: e.to_string(),
                    },
                );
                return None;
            }
        };
        match Self::decode(&path, &text) {
            Ok(r) => {
                self.memory.insert(key.clone(), r.clone());
                Some(r)
            }
            Err(err) => {
                self.quarantine(key, &path, err);
                None
            }
        }
    }

    fn persist(&self, key: &ExpKey, r: &SimResult) {
        if let (Some(dir), Some(path)) = (&self.dir, self.disk_path(key)) {
            // Cache write failures are non-fatal: the result is still valid.
            let _ = fs::create_dir_all(dir);
            let payload = r.to_json().dump();
            let text = format!(
                "{{\"fnv64\":\"{:016x}\",\"result\":{payload}}}",
                fnv64(payload.as_bytes())
            );
            // Temp-file-then-rename so a crash mid-write cannot leave a
            // truncated file under a live key.
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if fs::write(&tmp, text).is_ok() && fs::rename(&tmp, &path).is_err() {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Returns the cached result for `key` (in memory or on disk) without
    /// running anything. A corrupt on-disk entry is quarantined (see the
    /// module docs) and reads as absent.
    pub fn lookup(&mut self, key: &ExpKey) -> Option<SimResult> {
        if let Some(r) = self.memory.get(key) {
            return Some(r.clone());
        }
        self.load_from_disk(key)
    }

    /// Records a freshly simulated result, counting it as a miss.
    ///
    /// This is the merge half of the experiment engine: workers simulate
    /// cache-missing jobs off-thread and the engine inserts the results in
    /// canonical job order.
    pub fn insert(&mut self, key: &ExpKey, r: SimResult) {
        self.misses += 1;
        self.persist(key, &r);
        self.memory.insert(key.clone(), r);
    }

    /// Cache misses (i.e. simulations actually run).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Every cache file quarantined (and so resimulated) this session.
    #[must_use]
    pub fn quarantined(&self) -> &[QuarantineEvent] {
        &self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walksteal_multitenant::PolicyPreset;
    use walksteal_workloads::{AppId, WorkloadPair};

    fn key(seed: u64) -> ExpKey {
        let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
        ExpKey::pair(PolicyPreset::Dws, pair, "quick", seed)
    }

    fn dummy(cycles: u64) -> SimResult {
        SimResult {
            tenants: vec![],
            cycles,
            events: 0,
            timeline: Vec::new(),
            churn: None,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("walksteal-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memoizes() {
        let mut s = Store::in_memory();
        s.insert(&key(1), dummy(7));
        assert_eq!(s.lookup(&key(1)), Some(dummy(7)));
        assert_eq!(s.lookup(&key(1)), Some(dummy(7)));
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let mut s = Store::in_memory();
        s.insert(&key(1), dummy(1));
        assert!(s.lookup(&key(2)).is_none());
        s.insert(&key(2), dummy(2));
        assert_eq!(s.lookup(&key(2)).map(|r| r.cycles), Some(2));
        assert_eq!(s.lookup(&key(1)).map(|r| r.cycles), Some(1));
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn lookup_misses_count_nothing() {
        let mut s = Store::in_memory();
        assert!(s.lookup(&key(1)).is_none());
        assert_eq!(s.misses(), 0);
    }

    #[test]
    fn disk_round_trip() {
        let dir = scratch_dir("roundtrip");
        {
            let mut s = Store::on_disk(&dir);
            s.insert(&key(42), dummy(42));
        }
        {
            let mut s = Store::on_disk(&dir);
            let r = s.lookup(&key(42)).expect("should load from disk");
            assert_eq!(r.cycles, 42);
            assert_eq!(s.misses(), 0);
            assert!(s.quarantined().is_empty());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_files_carry_a_verifiable_checksum_envelope() {
        let dir = scratch_dir("envelope");
        let mut s = Store::on_disk(&dir);
        s.insert(&key(1), dummy(5));
        let path = s.disk_path(&key(1)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\"fnv64\":\""),
            "envelope missing: {text}"
        );
        assert!(Store::decode(&path, &text).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_bare_files_still_load() {
        let dir = scratch_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(Store::file_name(&key(3).to_string()));
        fs::write(&path, dummy(3).to_json().dump()).unwrap();
        let mut s = Store::on_disk(&dir);
        let r = s.lookup(&key(3)).expect("legacy file should load");
        assert_eq!(r.cycles, 3);
        assert!(s.quarantined().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_quarantined_and_resimulated() {
        let dir = scratch_dir("truncated");
        let k = key(7);
        {
            let mut s = Store::on_disk(&dir);
            s.insert(&k, dummy(7));
        }
        let path = Store::on_disk(&dir).disk_path(&k).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        let mut s = Store::on_disk(&dir);
        assert!(s.lookup(&k).is_none(), "corrupt entry must read as absent");
        s.insert(&k, dummy(77));
        assert_eq!(s.quarantined().len(), 1);
        let q = &s.quarantined()[0];
        assert_eq!(q.key, k);
        let moved = q.moved_to.as_ref().expect("file moved aside");
        assert!(moved.starts_with(dir.join(QUARANTINE_DIR)));
        assert!(moved.exists());
        // The fresh result took the original slot, checksummed.
        assert!(fs::read_to_string(&path)
            .unwrap()
            .starts_with("{\"fnv64\":"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_payload_fails_the_checksum() {
        let dir = scratch_dir("bitflip");
        let k = key(9);
        {
            let mut s = Store::on_disk(&dir);
            s.insert(&k, dummy(1234));
        }
        let path = Store::on_disk(&dir).disk_path(&k).unwrap();
        // Flip one digit inside the payload (keeps the JSON valid).
        let text = fs::read_to_string(&path).unwrap().replace("1234", "1235");
        fs::write(&path, text).unwrap();

        let mut s = Store::on_disk(&dir);
        assert!(s.lookup(&k).is_none());
        assert!(matches!(
            s.quarantined()[0].error,
            StoreError::Checksum { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_is_quarantined() {
        let dir = scratch_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        let k = key(11);
        let path = dir.join(Store::file_name(&k.to_string()));
        fs::write(&path, r#"{"not_a_result": true}"#).unwrap();
        let mut s = Store::on_disk(&dir);
        assert!(s.lookup(&k).is_none());
        assert!(matches!(
            s.quarantined()[0].error,
            StoreError::Decode { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_files_left_behind() {
        let dir = scratch_dir("tmpfiles");
        let mut s = Store::on_disk(&dir);
        for i in 0..4 {
            s.insert(&key(i), dummy(i));
        }
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(name.ends_with(".json"), "leftover temp file {name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_distinguish_similar_keys() {
        // Sanitization maps both '|' and '/' to '_' — the hash suffix keeps
        // the file names distinct.
        assert_ne!(Store::file_name("a|b"), Store::file_name("a/b"));
    }
}
