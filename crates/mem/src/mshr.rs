//! A bounded miss-status-holding-register (MSHR) table.
//!
//! MSHRs track outstanding misses so that concurrent requests to the same
//! key (cache line, or virtual page for TLB misses) merge into a single
//! downstream request, and so that the hardware limit on outstanding misses
//! back-pressures the pipeline when exhausted.

use std::collections::HashMap;
use std::hash::Hash;

/// Error returned by [`Mshr::allocate`] when no new entry can be created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All MSHR entries are in use; the requester must stall and retry.
    Full,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrError::Full => write!(f, "all MSHR entries are in use"),
        }
    }
}

impl std::error::Error for MshrError {}

/// Outcome of [`Mshr::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// A new entry was created; the caller must issue the downstream request.
    Primary,
    /// Merged into an existing entry for the same key; no downstream request
    /// is needed — the waiter is released when the primary completes.
    Merged,
}

/// A bounded table of outstanding misses, keyed by `K`, holding waiters `W`.
///
/// # Examples
///
/// ```
/// use walksteal_mem::{Mshr, MshrError};
///
/// let mut mshr: Mshr<u64, &str> = Mshr::new(2);
/// assert!(mshr.allocate(10, "warp-a").unwrap().is_primary());
/// // Second miss on the same line merges instead of allocating.
/// assert!(!mshr.allocate(10, "warp-b").unwrap().is_primary());
/// assert!(mshr.allocate(20, "warp-c").unwrap().is_primary());
/// // Table is now full for *new* keys.
/// assert_eq!(mshr.allocate(30, "warp-d"), Err(MshrError::Full));
/// // Completion releases every merged waiter.
/// assert_eq!(mshr.complete(10), vec!["warp-a", "warp-b"]);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<K, W> {
    entries: HashMap<K, Vec<W>>,
    capacity: usize,
}

impl<K: Eq + Hash + Copy, W> Mshr<K, W> {
    /// Creates an MSHR table with room for `capacity` distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Registers a miss on `key` with an associated `waiter`.
    ///
    /// Merges into an existing entry when one is outstanding for `key`;
    /// otherwise allocates a new entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError::Full`] if a new entry is needed but the table is
    /// at capacity.
    pub fn allocate(&mut self, key: K, waiter: W) -> Result<Allocation, MshrError> {
        if let Some(waiters) = self.entries.get_mut(&key) {
            waiters.push(waiter);
            return Ok(Allocation::Merged);
        }
        if self.entries.len() >= self.capacity {
            return Err(MshrError::Full);
        }
        self.entries.insert(key, vec![waiter]);
        Ok(Allocation::Primary)
    }

    /// Completes the outstanding miss on `key`, freeing its entry and
    /// returning all waiters in registration order. Returns an empty vector
    /// if no entry was outstanding.
    pub fn complete(&mut self, key: K) -> Vec<W> {
        self.entries.remove(&key).unwrap_or_default()
    }

    /// Whether a miss on `key` is currently outstanding.
    #[must_use]
    pub fn is_outstanding(&self, key: K) -> bool {
        self.entries.contains_key(&key)
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no free entry for a *new* key.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Allocation {
    /// `true` for [`Allocation::Primary`], i.e. the caller owns the
    /// downstream request.
    #[must_use]
    pub fn is_primary(self) -> bool {
        matches!(self, Allocation::Primary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge() {
        let mut m: Mshr<u32, u32> = Mshr::new(4);
        assert_eq!(m.allocate(1, 100), Ok(Allocation::Primary));
        assert_eq!(m.allocate(1, 101), Ok(Allocation::Merged));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn full_rejects_new_keys_only() {
        let mut m: Mshr<u32, ()> = Mshr::new(1);
        m.allocate(1, ()).unwrap();
        assert_eq!(m.allocate(2, ()), Err(MshrError::Full));
        // Merging into the existing key still works at capacity.
        assert_eq!(m.allocate(1, ()), Ok(Allocation::Merged));
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m: Mshr<u32, u32> = Mshr::new(2);
        m.allocate(5, 1).unwrap();
        m.allocate(5, 2).unwrap();
        m.allocate(5, 3).unwrap();
        assert_eq!(m.complete(5), vec![1, 2, 3]);
        assert_eq!(m.occupancy(), 0);
        assert!(!m.is_outstanding(5));
    }

    #[test]
    fn complete_unknown_key_is_empty() {
        let mut m: Mshr<u32, u32> = Mshr::new(2);
        assert!(m.complete(9).is_empty());
    }

    #[test]
    fn frees_capacity_after_complete() {
        let mut m: Mshr<u32, ()> = Mshr::new(1);
        m.allocate(1, ()).unwrap();
        assert!(m.is_full());
        m.complete(1);
        assert!(!m.is_full());
        assert_eq!(m.allocate(2, ()), Ok(Allocation::Primary));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: Mshr<u32, ()> = Mshr::new(0);
    }

    #[test]
    fn error_display() {
        assert_eq!(MshrError::Full.to_string(), "all MSHR entries are in use");
    }
}
