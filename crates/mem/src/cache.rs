//! A set-associative, LRU-replacement cache model.
//!
//! The same structure serves as a private per-SM L1 data cache and as one
//! bank of the shared L2. It models *state* (which lines are resident) and
//! leaves *timing* to its caller ([`crate::MemSystem`] or the SM model):
//! callers probe, and on a miss decide whether to fill.

use walksteal_sim_core::LineAddr;

/// Geometry of a [`Cache`].
///
/// # Examples
///
/// ```
/// use walksteal_mem::CacheConfig;
///
/// // A 16 KB L1: 32 sets x 4 ways x 128-byte lines.
/// let cfg = CacheConfig { sets: 32, ways: 4 };
/// assert_eq!(cfg.lines(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Total line capacity of the cache.
    #[must_use]
    pub fn lines(self) -> usize {
        self.sets * self.ways
    }
}

/// Tag stored in never-filled ways. No modeled address reaches it (line
/// addresses derive from frame numbers far below 2^59), so a probe can
/// test residency with a single tag compare per way.
const INVALID_TAG: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement, indexed by
/// [`LineAddr`].
///
/// Physical address spaces of co-running tenants are disjoint in this
/// simulator, so a plain line address is a sufficient tag even when tenants
/// share the cache.
///
/// # Examples
///
/// ```
/// use walksteal_mem::{Cache, CacheConfig};
/// use walksteal_sim_core::LineAddr;
///
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2 });
/// assert!(!c.probe(LineAddr(7)));
/// c.fill(LineAddr(7));
/// assert!(c.probe(LineAddr(7)));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Resident line tags, struct-of-arrays: a set probe compares `ways`
    /// contiguous words. Validity is implicit — `last_use[i] > 0` — since
    /// the tick counter starts at 1 and every fill/touch stamps it. Both
    /// arrays stay empty until the first fill, so building a cache touches
    /// no line memory: a probe of an empty cache misses through the same
    /// bounds check that guards a filled one.
    tags: Vec<u64>,
    last_use: Vec<u64>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be positive");
        Cache {
            cfg,
            tags: Vec::new(),
            last_use: Vec::new(),
            tick: 0,
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.0 as usize) & (self.cfg.sets - 1);
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Index of `line` within its set, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        debug_assert!(line.0 != INVALID_TAG, "line address aliases INVALID_TAG");
        let range = self.set_range(line);
        let start = range.start;
        // One tag compare per way: invalid ways hold `INVALID_TAG`, which
        // no probed line can equal, so `last_use` stays untouched here.
        self.tags
            .get(range)?
            .iter()
            .position(|&t| t == line.0)
            .map(|i| start + i)
    }

    /// Looks up `line`, updating LRU state. Returns `true` on a hit.
    pub fn probe(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        if let Some(i) = self.find(line) {
            self.last_use[i] = self.tick;
            return true;
        }
        false
    }

    /// Checks residency without disturbing LRU state.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Inserts `line`, evicting the LRU way of its set if necessary.
    /// Returns the evicted line, if any. Filling an already-resident line
    /// just refreshes its LRU position.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.tick += 1;
        let tick = self.tick;

        // Already resident (e.g. two outstanding misses merged upstream):
        // refresh recency, nothing evicted.
        if let Some(i) = self.find(line) {
            self.last_use[i] = tick;
            return None;
        }

        if self.tags.is_empty() {
            self.tags = vec![INVALID_TAG; self.cfg.lines()];
            self.last_use = vec![0; self.cfg.lines()];
        }
        // First minimum of last_use; invalid ways carry 0, so they win
        // exactly as the old `min_by_key` with an explicit valid check did.
        let range = self.set_range(line);
        let mut victim = range.start;
        let mut best = self.last_use[victim];
        for i in range.start + 1..range.end {
            if self.last_use[i] < best {
                victim = i;
                best = self.last_use[i];
            }
        }
        let evicted = (self.last_use[victim] > 0).then(|| LineAddr(self.tags[victim]));
        self.tags[victim] = line.0;
        self.last_use[victim] = tick;
        evicted
    }

    /// Invalidates every line. Statistics are preserved.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.last_use.fill(0);
    }

    /// Number of currently valid lines.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.last_use.iter().filter(|&&u| u > 0).count()
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn cold_probe_misses() {
        let mut c = tiny();
        assert!(!c.probe(LineAddr(0)));
        assert!(!c.contains(LineAddr(0)), "a probe never fills");
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        c.fill(LineAddr(4));
        assert!(c.probe(LineAddr(4)));
        assert!(c.probe(LineAddr(4)), "a hit keeps the line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line addresses, 2 sets).
        c.fill(LineAddr(0));
        c.fill(LineAddr(2));
        assert!(c.probe(LineAddr(0))); // 0 is now MRU; 2 is LRU
        let evicted = c.fill(LineAddr(4));
        assert_eq!(evicted, Some(LineAddr(2)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn fill_resident_line_is_idempotent() {
        let mut c = tiny();
        c.fill(LineAddr(0));
        assert_eq!(c.fill(LineAddr(0)), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd lines map to set 1; filling set 1 must not evict set 0.
        c.fill(LineAddr(0));
        c.fill(LineAddr(1));
        c.fill(LineAddr(3));
        c.fill(LineAddr(5));
        assert!(c.contains(LineAddr(0)));
    }

    #[test]
    fn contains_does_not_touch_lru() {
        let mut c = tiny();
        c.fill(LineAddr(0));
        c.fill(LineAddr(2));
        // `contains` on 0 must NOT promote it...
        assert!(c.contains(LineAddr(0)));
        // ...so 0 is still LRU and gets evicted.
        assert_eq!(c.fill(LineAddr(4)), Some(LineAddr(0)));
    }

    #[test]
    fn flush_clears_lines() {
        let mut c = tiny();
        c.fill(LineAddr(1));
        assert!(c.probe(LineAddr(1)));
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(LineAddr(1)));
        assert!(!c.probe(LineAddr(1)));
    }

    #[test]
    fn occupancy_counts_valid_ways() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.fill(LineAddr(0));
        c.fill(LineAddr(1));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1 });
    }

    #[test]
    fn config_lines() {
        assert_eq!(CacheConfig { sets: 64, ways: 16 }.lines(), 1024);
    }
}
