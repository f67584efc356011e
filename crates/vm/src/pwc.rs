//! The page-walk cache (PWC): cached partial translations.
//!
//! Before a walker starts a walk, the PWC is probed for the longest prefix
//! of the virtual page number that has a cached upper-level page-table node.
//! A hit lets the walk skip the upper levels, reducing a four-level walk to
//! 1–3 memory accesses (Barr et al., ISCA '10; paper §II).
//!
//! The PWC is shared by all walkers, so under multi-tenancy it is itself a
//! (minor) contended resource: walks from one tenant can evict another's
//! partial translations.

use walksteal_sim_core::{FnvMap, PhysAddr, TenantId, Vpn};

/// Result of a PWC probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwcHit {
    /// The deepest level (0 = root) whose result was cached. The walk
    /// resumes *after* this level.
    pub level: usize,
    /// Physical address of the page-table node to continue from.
    pub node_addr: PhysAddr,
}

/// Valid bit in a packed [`PwCache::meta`] word; the remaining bits hold
/// the tenant id (bits 4..12) and level (bits 0..4).
const META_VALID: u16 = 0x8000;

/// Levels representable in a packed meta word.
const MAX_LEVELS: usize = 16;

#[inline]
fn pack_meta(tenant: TenantId, level: usize) -> u16 {
    debug_assert!(level < MAX_LEVELS, "page-table level {level} too deep");
    META_VALID | (u16::from(tenant.0) << 4) | level as u16
}

/// Index into the per-(tenant, level) live-entry counters.
#[inline]
fn live_slot(tenant: TenantId, level: usize) -> usize {
    usize::from(tenant.0) * MAX_LEVELS + level
}

/// Packs a (meta, prefix) lookup key into one word so the index map hashes
/// a single `u64`. Prefixes consume at most 9 bits per level over a 36-bit
/// VPN space, far below the 48-bit field.
#[inline]
fn index_key(meta: u16, prefix: u64) -> u64 {
    debug_assert!(prefix < 1 << 48, "PWC prefix overflows packed key");
    (u64::from(meta) << 48) | prefix
}

/// A fully-associative, LRU page-walk cache.
///
/// Entries are keyed by (tenant, level, VPN-prefix) and hold the physical
/// address of the page-table node a walk reaches after consuming that
/// prefix.
///
/// # Examples
///
/// ```
/// use walksteal_vm::PwCache;
/// use walksteal_sim_core::{PhysAddr, TenantId, Vpn};
///
/// let mut pwc = PwCache::new(4);
/// let vpn = Vpn(0x1 << 27); // level-0 prefix (top 9 bits of 36) is 0x1
/// assert!(pwc.probe(TenantId(0), vpn, 4).is_none());
/// // Cache the node reached after level 0 for this prefix.
/// pwc.fill(TenantId(0), 0, 0x1, PhysAddr(0x9000));
/// let hit = pwc.probe(TenantId(0), vpn, 4).unwrap();
/// assert_eq!(hit.level, 0);
/// assert_eq!(hit.node_addr, PhysAddr(0x9000));
/// ```
#[derive(Debug, Clone)]
pub struct PwCache {
    /// Hot probe tags, struct-of-arrays: a probe at one level compares
    /// `capacity` contiguous prefixes plus packed `valid|tenant|level`
    /// words instead of striding over 40-byte entries.
    prefixes: Vec<u64>,
    meta: Vec<u16>,
    /// Cold payload, touched only on hit/fill.
    node_addrs: Vec<PhysAddr>,
    /// Intrusive LRU list over slots: head = eviction victim, tail = most
    /// recently used. Equivalent to a first-minimum scan of use stamps:
    /// stamps are unique, and never-touched (invalid) slots keep their
    /// initial index order at the front.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    /// Valid entries per (tenant, level), so probes skip levels where this
    /// tenant has nothing cached without scanning.
    live: Vec<u32>,
    /// Exact lookup index `index_key(meta, prefix) -> slot`. Entries are
    /// unique per key (fills refresh in place), so the map answers the same
    /// entry a linear first-match scan would.
    index: FnvMap<u64, u32>,
}

impl PwCache {
    /// Creates a PWC with `capacity` entries (128 in the paper's baseline).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        PwCache {
            prefixes: vec![0; capacity],
            meta: vec![0; capacity],
            node_addrs: vec![PhysAddr(0); capacity],
            lru_prev: (0..capacity as u32)
                .map(|i| i.checked_sub(1).unwrap_or(u32::MAX))
                .collect(),
            lru_next: (1..=capacity as u32)
                .map(|i| if i == capacity as u32 { u32::MAX } else { i })
                .collect(),
            lru_head: 0,
            lru_tail: capacity as u32 - 1,
            live: vec![0; (usize::from(u8::MAX) + 1) * MAX_LEVELS],
            index: FnvMap::default(),
        }
    }

    /// Moves slot `i` to the most-recently-used end of the LRU list.
    fn lru_touch(&mut self, i: u32) {
        if self.lru_tail == i {
            return;
        }
        // Unlink.
        let (prev, next) = (self.lru_prev[i as usize], self.lru_next[i as usize]);
        if prev == u32::MAX {
            self.lru_head = next;
        } else {
            self.lru_next[prev as usize] = next;
        }
        if next != u32::MAX {
            self.lru_prev[next as usize] = prev;
        }
        // Append at tail.
        self.lru_prev[i as usize] = self.lru_tail;
        self.lru_next[i as usize] = u32::MAX;
        self.lru_next[self.lru_tail as usize] = i;
        self.lru_tail = i;
    }

    /// The VPN prefix consumed by levels `0..=level` for a table of
    /// `levels` levels with 9 index bits per level.
    fn prefix_of(vpn: Vpn, level: usize, levels: usize) -> u64 {
        let shift = 9 * (levels - 1 - level) as u64;
        vpn.0 >> shift
    }

    /// Finds the longest-prefix match for `vpn` in a `levels`-level table.
    ///
    /// Checks the deepest cacheable level first (`levels - 2`, i.e. the
    /// prefix that leaves only the leaf access) down to the root.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn, levels: usize) -> Option<PwcHit> {
        // Levels `0..levels-1` produce reusable node pointers; the final
        // level's result is the translation itself (that goes in the TLB).
        for level in (0..levels.saturating_sub(1)).rev() {
            if self.live[live_slot(tenant, level)] == 0 {
                continue;
            }
            let prefix = Self::prefix_of(vpn, level, levels);
            let want = pack_meta(tenant, level);
            if let Some(&i) = self.index.get(&index_key(want, prefix)) {
                self.lru_touch(i);
                return Some(PwcHit {
                    level,
                    node_addr: self.node_addrs[i as usize],
                });
            }
        }
        None
    }

    /// Inserts (or refreshes) a partial translation: after consuming
    /// `prefix` at `level`, the walk continues from `node_addr`.
    pub fn fill(&mut self, tenant: TenantId, level: usize, prefix: u64, node_addr: PhysAddr) {
        let want = pack_meta(tenant, level);
        if let Some(&i) = self.index.get(&index_key(want, prefix)) {
            self.node_addrs[i as usize] = node_addr;
            self.lru_touch(i);
            return;
        }
        let victim = self.lru_head as usize;
        let old = self.meta[victim];
        if old & META_VALID != 0 {
            let old_tenant = TenantId((old >> 4) as u8);
            let old_level = (old & 0xf) as usize;
            self.live[live_slot(old_tenant, old_level)] -= 1;
            self.index.remove(&index_key(old, self.prefixes[victim]));
        }
        self.prefixes[victim] = prefix;
        self.meta[victim] = want;
        self.node_addrs[victim] = node_addr;
        self.live[live_slot(tenant, level)] += 1;
        self.index.insert(index_key(want, prefix), victim as u32);
        self.lru_touch(victim as u32);
    }

    /// Convenience: fills all cacheable levels of a completed walk.
    ///
    /// `node_addrs[i]` is the node visited at level `i`; the entry for level
    /// `i` caches `node_addrs[i + 1]` (the node the prefix leads to).
    pub fn fill_walk(&mut self, tenant: TenantId, vpn: Vpn, node_addrs: &[PhysAddr]) {
        let levels = node_addrs.len();
        for level in 0..levels.saturating_sub(1) {
            let prefix = Self::prefix_of(vpn, level, levels);
            self.fill(tenant, level, prefix, node_addrs[level + 1]);
        }
    }

    /// Number of valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    #[test]
    fn cold_probe_misses() {
        let mut pwc = PwCache::new(8);
        assert!(pwc.probe(T0, Vpn(0), 4).is_none());
        assert_eq!(pwc.occupancy(), 0, "a probe never fills");
    }

    #[test]
    fn longest_prefix_wins() {
        let mut pwc = PwCache::new(8);
        let vpn = Vpn(0x12345); // 4-level: prefixes at L0 = vpn>>27, L1 = >>18, L2 = >>9
        pwc.fill(T0, 0, vpn.0 >> 27, PhysAddr(0x1000));
        pwc.fill(T0, 2, vpn.0 >> 9, PhysAddr(0x3000));
        let hit = pwc.probe(T0, vpn, 4).unwrap();
        assert_eq!(hit.level, 2);
        assert_eq!(hit.node_addr, PhysAddr(0x3000));
    }

    #[test]
    fn fill_walk_caches_all_upper_levels() {
        let mut pwc = PwCache::new(8);
        let nodes = [
            PhysAddr(0x1000),
            PhysAddr(0x2000),
            PhysAddr(0x3000),
            PhysAddr(0x4000),
        ];
        pwc.fill_walk(T0, Vpn(0x777), &nodes);
        // Deepest cached level is 2 -> continue at node_addrs[3].
        let hit = pwc.probe(T0, Vpn(0x777), 4).unwrap();
        assert_eq!(hit.level, 2);
        assert_eq!(hit.node_addr, PhysAddr(0x4000));
        assert_eq!(pwc.occupancy(), 3);
    }

    #[test]
    fn sibling_page_hits_shared_prefix() {
        let mut pwc = PwCache::new(8);
        let nodes = [
            PhysAddr(0x1000),
            PhysAddr(0x2000),
            PhysAddr(0x3000),
            PhysAddr(0x4000),
        ];
        pwc.fill_walk(T0, Vpn(0x200), &nodes);
        // VPN 0x201 shares all upper levels with 0x200.
        let hit = pwc.probe(T0, Vpn(0x201), 4).unwrap();
        assert_eq!(hit.level, 2);
    }

    #[test]
    fn tenants_are_isolated() {
        let mut pwc = PwCache::new(8);
        pwc.fill(T0, 2, 0x5, PhysAddr(0x1000));
        assert!(pwc.probe(T1, Vpn(0x5 << 9), 4).is_none());
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut pwc = PwCache::new(2);
        pwc.fill(T0, 0, 1, PhysAddr(0x1));
        pwc.fill(T0, 0, 2, PhysAddr(0x2));
        // Touch prefix 1 so prefix 2 is LRU.
        assert!(pwc.probe(T0, Vpn(1 << 27), 4).is_some());
        pwc.fill(T0, 0, 3, PhysAddr(0x3));
        assert!(pwc.probe(T0, Vpn(2 << 27), 4).is_none(), "prefix 2 evicted");
        assert!(pwc.probe(T0, Vpn(1 << 27), 4).is_some());
    }

    #[test]
    fn refill_updates_in_place() {
        let mut pwc = PwCache::new(2);
        pwc.fill(T0, 1, 7, PhysAddr(0x1));
        pwc.fill(T0, 1, 7, PhysAddr(0x9));
        assert_eq!(pwc.occupancy(), 1);
        let hit = pwc.probe(T0, Vpn(7 << 18), 4).unwrap();
        assert_eq!(hit.node_addr, PhysAddr(0x9));
    }

    #[test]
    fn three_level_tables_probe_two_levels() {
        let mut pwc = PwCache::new(4);
        // For 3 levels, cacheable levels are 0 and 1.
        pwc.fill(T0, 1, 0x3, PhysAddr(0x5000));
        let hit = pwc.probe(T0, Vpn(0x3 << 9), 3).unwrap();
        assert_eq!(hit.level, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = PwCache::new(0);
    }
}
