//! Set-associative, LRU TLBs tagged by (tenant, virtual page).
//!
//! The same structure serves as a private per-SM L1 TLB (32 entries) and as
//! the shared L2 TLB (1024 entries, 16-way in the paper's baseline). Under
//! multi-tenancy, the shared L2 TLB is one of the two contended
//! virtual-memory resources; the TLB therefore tracks per-tenant occupancy
//! over time so experiments can report each tenant's *TLB share* (Fig. 9).

use walksteal_sim_core::{Cycle, Ppn, ShareIntegral, SimRng, TenantId, Vpn};

/// Replacement policy of a [`Tlb`].
///
/// Small private L1 TLBs use true LRU; large shared L2 TLBs use random
/// replacement (as hardware TLBs and GPGPU-Sim's model do). The choice is
/// load-bearing for multi-tenancy: random replacement lets a
/// walk-intensive tenant's fill stream probabilistically evict another
/// tenant's actively-reused entries — the shared-TLB thrash of §IV — while
/// true LRU would shield them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict a uniformly random way (invalid ways first).
    #[default]
    Random,
}

/// Geometry of a [`Tlb`].
///
/// # Examples
///
/// ```
/// use walksteal_vm::{Replacement, TlbConfig};
///
/// // The paper's shared L2 TLB: 1024 entries, 16-way.
/// let cfg = TlbConfig { sets: 64, ways: 16, replacement: Replacement::Random };
/// assert_eq!(cfg.entries(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl TlbConfig {
    /// Total entry capacity.
    #[must_use]
    pub fn entries(self) -> usize {
        self.sets * self.ways
    }
}

/// Valid bit in a packed [`Tlb::meta`] word; the low byte is the tenant id.
const META_VALID: u16 = 0x100;

/// A set-associative, LRU TLB holding translations for multiple tenants.
///
/// # Examples
///
/// ```
/// use walksteal_vm::{Replacement, Tlb, TlbConfig};
/// use walksteal_sim_core::{Cycle, Ppn, TenantId, Vpn};
///
/// let mut tlb = Tlb::new(TlbConfig { sets: 8, ways: 4, replacement: Replacement::Lru }, 2);
/// assert_eq!(tlb.probe(TenantId(0), Vpn(9)), None);
/// tlb.fill(TenantId(0), Vpn(9), Ppn(77), Cycle(10));
/// assert_eq!(tlb.probe(TenantId(0), Vpn(9)), Some(Ppn(77)));
/// // Another tenant's identical VPN does not alias.
/// assert_eq!(tlb.probe(TenantId(1), Vpn(9)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Hot probe tags, struct-of-arrays: a set probe compares `ways`
    /// contiguous VPNs plus `ways` contiguous packed `valid|tenant` words
    /// instead of striding over 32-byte entries. All four entry arrays stay
    /// empty until the first fill, so building a TLB touches no entry
    /// memory: a probe of an empty TLB misses through the same bounds check
    /// that guards a filled one.
    keys: Vec<u64>,
    meta: Vec<u16>,
    /// Cold payload, touched only on hit/fill.
    ppns: Vec<Ppn>,
    last_use: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Valid entries per tenant, kept incrementally, and their integral
    /// over time for share reporting; `None` for an
    /// [`untracked`](Self::untracked) TLB.
    occupancy: Option<ShareIntegral>,
    rng: SimRng,
}

impl Tlb {
    /// Creates an empty TLB able to track `n_tenants` tenants' occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways` is zero, or
    /// `n_tenants` is zero.
    #[must_use]
    pub fn new(cfg: TlbConfig, n_tenants: usize) -> Self {
        assert!(n_tenants > 0, "need at least one tenant");
        Tlb {
            occupancy: Some(ShareIntegral::new(n_tenants, cfg.entries())),
            ..Tlb::untracked(cfg)
        }
    }

    /// Creates an empty TLB that integrates no occupancy: an SM's private
    /// L1, whose share nobody reads. Lookups, fills, replacement and
    /// statistics are exactly [`new`](Self::new)'s;
    /// [`share_of`](Self::share_of) reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn untracked(cfg: TlbConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be positive");
        Tlb {
            cfg,
            keys: Vec::new(),
            meta: Vec::new(),
            ppns: Vec::new(),
            last_use: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            occupancy: None,
            rng: SimRng::new(0x71b5_eed0 ^ (cfg.sets * 31 + cfg.ways) as u64),
        }
    }

    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.0 as usize) & (self.cfg.sets - 1);
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Index of `(tenant, vpn)` within its set, in entry order.
    #[inline]
    fn find(&self, tenant: TenantId, vpn: Vpn) -> Option<usize> {
        let range = self.set_range(vpn);
        let want = META_VALID | u16::from(tenant.0);
        // Manual scan with the VPN compare first: it rejects almost every
        // way on its own, and the indexed loop avoids the zip iterator's
        // per-way bounds state (this runs on every translation).
        let (Some(keys), Some(meta)) = (self.keys.get(range.clone()), self.meta.get(range.clone()))
        else {
            return None;
        };
        for i in 0..keys.len() {
            if keys[i] == vpn.0 && meta[i] == want {
                return Some(range.start + i);
            }
        }
        None
    }

    /// Looks up `(tenant, vpn)`, updating LRU and hit/miss statistics.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn) -> Option<Ppn> {
        self.tick += 1;
        if let Some(i) = self.find(tenant, vpn) {
            self.last_use[i] = self.tick;
            self.hits += 1;
            return Some(self.ppns[i]);
        }
        self.misses += 1;
        None
    }

    /// Resolves a single-tenant run of probes in one pass over the tag
    /// arrays, stopping after the first miss. Only the benchmark's L1-TLB
    /// replay calls it; the simulator probes one reference at a time
    /// through [`probe`](Self::probe). A caller that *fills* on a
    /// miss (so later probes could see different tags) batches the leading
    /// hit run and resumes after handling the miss. A probe never mutates
    /// tags, so a consecutive repeat of a hit VPN reuses the way its first
    /// lookup found. `out` is cleared; returns how many probes were
    /// consumed — every consumed probe, the trailing miss included, has its
    /// result in `out` and its bookkeeping (tick, LRU stamp, hit/miss
    /// counters) applied exactly as a scalar [`probe`](Self::probe).
    pub fn probe_run(
        &mut self,
        tenant: TenantId,
        vpns: &[Vpn],
        out: &mut Vec<Option<Ppn>>,
    ) -> usize {
        out.clear();
        let mut memo: Option<(Vpn, usize)> = None;
        for (n, &vpn) in vpns.iter().enumerate() {
            let way = match memo {
                Some((v, way)) if v == vpn => Some(way),
                _ => self.find(tenant, vpn),
            };
            self.tick += 1;
            if let Some(i) = way {
                memo = Some((vpn, i));
                self.last_use[i] = self.tick;
                self.hits += 1;
                out.push(Some(self.ppns[i]));
            } else {
                self.misses += 1;
                out.push(None);
                return n + 1;
            }
        }
        vpns.len()
    }

    /// Checks residency without disturbing LRU or statistics.
    #[must_use]
    pub fn contains(&self, tenant: TenantId, vpn: Vpn) -> bool {
        self.find(tenant, vpn).is_some()
    }

    /// Inserts a translation at time `now`, evicting the set's LRU victim if
    /// needed. Returns the evicted mapping, if any.
    pub fn fill(
        &mut self,
        tenant: TenantId,
        vpn: Vpn,
        ppn: Ppn,
        now: Cycle,
    ) -> Option<(TenantId, Vpn)> {
        if let Some(occ) = &mut self.occupancy {
            occ.advance(now);
        }
        self.tick += 1;
        let tick = self.tick;

        if let Some(i) = self.find(tenant, vpn) {
            self.last_use[i] = tick;
            self.ppns[i] = ppn;
            return None;
        }
        if self.keys.is_empty() {
            let n = self.cfg.entries();
            self.keys = vec![0; n];
            self.meta = vec![0; n];
            self.ppns = vec![Ppn(0); n];
            self.last_use = vec![0; n];
        }

        let range = self.set_range(vpn);
        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                // First minimum of last_use (invalid ways count as 0),
                // matching `min_by_key` over the old entry array.
                let mut best = range.start;
                let mut best_key = if self.meta[best] & META_VALID != 0 {
                    self.last_use[best]
                } else {
                    0
                };
                for i in range.start + 1..range.end {
                    let key = if self.meta[i] & META_VALID != 0 {
                        self.last_use[i]
                    } else {
                        0
                    };
                    if key < best_key {
                        best = i;
                        best_key = key;
                    }
                }
                best
            }
            Replacement::Random => {
                // Prefer an invalid way; otherwise evict a random one.
                let ways = self.cfg.ways;
                let start = range.start;
                match self.meta[range].iter().position(|&m| m & META_VALID == 0) {
                    Some(i) => start + i,
                    None => start + self.rng.next_below(ways as u64) as usize,
                }
            }
        };
        let evicted = (self.meta[victim] & META_VALID != 0)
            .then(|| (TenantId(self.meta[victim] as u8), Vpn(self.keys[victim])));
        self.keys[victim] = vpn.0;
        self.meta[victim] = META_VALID | u16::from(tenant.0);
        self.ppns[victim] = ppn;
        self.last_use[victim] = tick;
        if let Some(occ) = &mut self.occupancy {
            if let Some((t, _)) = evicted {
                occ.sub(t, 1);
            }
            occ.add(tenant, 1);
        }
        evicted
    }

    /// Invalidates the single entry for `(tenant, vpn)` at time `now`, if
    /// resident — used when a coalescing organization promotes a base
    /// translation into a large-page range and must not map it twice.
    /// Returns whether an entry was dropped.
    pub fn invalidate_one(&mut self, tenant: TenantId, vpn: Vpn, now: Cycle) -> bool {
        if let Some(i) = self.find(tenant, vpn) {
            self.meta[i] = 0;
            if let Some(occ) = &mut self.occupancy {
                occ.advance(now);
                occ.sub(tenant, 1);
            }
            true
        } else {
            false
        }
    }

    /// Invalidates every entry owned by `tenant` at time `now` — the TLB
    /// flush of a tenant departure. Occupancy integration runs up to `now`
    /// first, so share accounting credits the tenant for exactly the time
    /// its entries were resident. Returns how many entries were dropped.
    pub fn invalidate_tenant(&mut self, tenant: TenantId, now: Cycle) -> usize {
        let want = META_VALID | u16::from(tenant.0);
        let mut dropped = 0;
        for m in &mut self.meta {
            if *m == want {
                *m = 0;
                dropped += 1;
            }
        }
        if let Some(occ) = &mut self.occupancy {
            occ.advance(now);
            occ.sub(tenant, dropped);
        }
        dropped
    }

    /// Current number of valid entries owned by `tenant`.
    #[must_use]
    pub fn occupancy_of(&self, tenant: TenantId) -> usize {
        let want = META_VALID | u16::from(tenant.0);
        match &self.occupancy {
            Some(occ) => occ.count(tenant),
            None => self.meta.iter().filter(|&&m| m == want).count(),
        }
    }

    /// Time-averaged fraction of TLB capacity occupied by `tenant` over
    /// `[0, now]`; 0 for an [`untracked`](Self::untracked) TLB.
    #[must_use]
    pub fn share_of(&self, tenant: TenantId, now: Cycle) -> f64 {
        self.occupancy
            .as_ref()
            .map_or(0.0, |occ| occ.share(tenant, now))
    }

    /// Probe hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probe misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The TLB geometry.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(
            TlbConfig {
                sets: 2,
                ways: 2,
                replacement: Replacement::Lru,
            },
            2,
        )
    }

    #[test]
    fn random_replacement_fills_invalid_ways_first() {
        let mut t = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 4,
                replacement: Replacement::Random,
            },
            1,
        );
        for i in 0..4 {
            assert_eq!(t.fill(T0, Vpn(i), Ppn(i), Cycle(0)), None, "way {i}");
        }
        assert_eq!(t.occupancy_of(T0), 4);
        // Now full: the next fill evicts somebody.
        assert!(t.fill(T0, Vpn(9), Ppn(9), Cycle(0)).is_some());
    }

    #[test]
    fn random_replacement_eventually_evicts_active_entries() {
        // The property §IV depends on: under a fill stream, even an entry
        // that is probed constantly gets evicted with random replacement.
        let mut t = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 16,
                replacement: Replacement::Random,
            },
            2,
        );
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        let mut evicted = false;
        for i in 0..1000 {
            let _ = t.probe(T0, Vpn(0)); // keep it "hot"
            t.fill(T1, Vpn(100 + i), Ppn(1), Cycle(i));
            if !t.contains(T0, Vpn(0)) {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "random replacement should evict hot entries");
    }

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tiny();
        assert_eq!(t.probe(T0, Vpn(4)), None);
        t.fill(T0, Vpn(4), Ppn(9), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(4)), Some(Ppn(9)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn tenants_do_not_alias() {
        let mut t = tiny();
        t.fill(T0, Vpn(4), Ppn(9), Cycle(0));
        assert_eq!(t.probe(T1, Vpn(4)), None);
        t.fill(T1, Vpn(4), Ppn(10), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(4)), Some(Ppn(9)));
        assert_eq!(t.probe(T1, Vpn(4)), Some(Ppn(10)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny();
        // VPNs 0, 2, 4 map to set 0.
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        t.fill(T0, Vpn(2), Ppn(1), Cycle(0));
        t.probe(T0, Vpn(0)); // 2 becomes LRU
        let evicted = t.fill(T0, Vpn(4), Ppn(2), Cycle(0));
        assert_eq!(evicted, Some((T0, Vpn(2))));
    }

    #[test]
    fn cross_tenant_eviction_shifts_occupancy() {
        let mut t = tiny();
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        t.fill(T0, Vpn(2), Ppn(1), Cycle(0));
        assert_eq!(t.occupancy_of(T0), 2);
        // Tenant 1 fills the same set twice, evicting both of tenant 0's.
        t.fill(T1, Vpn(0), Ppn(5), Cycle(0));
        t.fill(T1, Vpn(2), Ppn(6), Cycle(0));
        assert_eq!(t.occupancy_of(T0), 0);
        assert_eq!(t.occupancy_of(T1), 2);
    }

    #[test]
    fn refill_same_vpn_updates_in_place() {
        let mut t = tiny();
        t.fill(T0, Vpn(4), Ppn(9), Cycle(0));
        assert_eq!(t.fill(T0, Vpn(4), Ppn(11), Cycle(0)), None);
        assert_eq!(t.probe(T0, Vpn(4)), Some(Ppn(11)));
        assert_eq!(t.occupancy_of(T0), 1);
    }

    #[test]
    fn share_integrates_over_time() {
        let mut t = tiny(); // 4 entries total
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        // From cycle 0 to 100, tenant 0 holds 1 of 4 entries.
        let share = t.share_of(T0, Cycle(100));
        assert!((share - 0.25).abs() < 1e-9, "share {share}");
        assert_eq!(t.share_of(T1, Cycle(100)), 0.0);
    }

    #[test]
    fn share_reflects_occupancy_changes() {
        let mut t = tiny();
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        t.fill(T0, Vpn(1), Ppn(1), Cycle(0));
        // At cycle 100, tenant1 takes over set 0 fully.
        t.fill(T1, Vpn(0), Ppn(2), Cycle(100));
        t.fill(T1, Vpn(2), Ppn(3), Cycle(100));
        // [0,100): T0 holds 2/4. [100,200): T0 holds 1/4 (vpn 1 in set 1).
        let share = t.share_of(T0, Cycle(200));
        assert!((share - 0.375).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn invalidate_tenant_flushes_only_that_tenant() {
        let mut t = tiny();
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        t.fill(T0, Vpn(1), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(0), Ppn(2), Cycle(0));
        assert_eq!(t.invalidate_tenant(T0, Cycle(100)), 2);
        assert_eq!(t.occupancy_of(T0), 0);
        assert!(!t.contains(T0, Vpn(0)));
        assert!(t.contains(T1, Vpn(0)), "other tenant untouched");
        // Share accounting stops at the flush: [0,100) holds 2/4 entries,
        // nothing after.
        let share = t.share_of(T0, Cycle(200));
        assert!((share - 0.25).abs() < 1e-9, "share {share}");
        // Flushing again is a no-op.
        assert_eq!(t.invalidate_tenant(T0, Cycle(200)), 0);
    }

    #[test]
    fn contains_is_pure() {
        let mut t = tiny();
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        let h = t.hits();
        assert!(t.contains(T0, Vpn(0)));
        assert!(!t.contains(T1, Vpn(0)));
        assert_eq!(t.hits(), h);
    }

    /// An untracked TLB returns, evicts and counts exactly as a tracked
    /// one; only its share reads 0.
    #[test]
    fn untracked_tlb_matches_tracked_but_reports_no_share() {
        let cfg = TlbConfig {
            sets: 2,
            ways: 2,
            replacement: Replacement::Random,
        };
        let (mut tracked, mut untracked) = (Tlb::new(cfg, 2), Tlb::untracked(cfg));
        let mut rng = SimRng::new(0x17);
        for i in 0..500 {
            let (t, vpn) = (TenantId(rng.next_below(2) as u8), Vpn(rng.next_below(12)));
            if rng.chance(0.5) {
                assert_eq!(tracked.probe(t, vpn), untracked.probe(t, vpn), "probe {i}");
            } else {
                let fill = |tlb: &mut Tlb| tlb.fill(t, vpn, Ppn(vpn.0 + 100), Cycle(i));
                assert_eq!(fill(&mut tracked), fill(&mut untracked), "fill {i}");
            }
            assert_eq!(
                tracked.occupancy_of(t),
                untracked.occupancy_of(t),
                "step {i}"
            );
        }
        assert_eq!(
            (tracked.hits(), tracked.misses()),
            (untracked.hits(), untracked.misses())
        );
        assert!(tracked.share_of(T0, Cycle(500)) > 0.0);
        assert_eq!(untracked.share_of(T0, Cycle(500)), 0.0);
    }

    #[test]
    fn share_zero_at_time_zero() {
        let t = tiny();
        assert_eq!(t.share_of(T0, Cycle(0)), 0.0);
    }

    #[test]
    fn probe_run_stops_after_first_miss() {
        let mut t = tiny();
        t.fill(T0, Vpn(0), Ppn(7), Cycle(0));
        let vpns = [Vpn(0), Vpn(0), Vpn(3), Vpn(0)];
        let mut out = Vec::new();
        let consumed = t.probe_run(T0, &vpns, &mut out);
        assert_eq!(consumed, 3);
        assert_eq!(out, vec![Some(Ppn(7)), Some(Ppn(7)), None]);
        assert_eq!(t.hits(), 2);
        assert_eq!(t.misses(), 1);
    }

    /// [`Tlb::probe_run`] consumes exactly up to (and including) the first
    /// miss, with every consumed probe's result and bookkeeping matching a
    /// scalar [`Tlb::probe`] replay — including the fill-and-resume loop
    /// its caller runs — across tenant counts and seeds.
    #[test]
    fn probe_run_matches_scalar() {
        for n_tenants in [2usize, 3, 4] {
            for seed in [0xB1u64, 0xB2, 0xB3] {
                // Tiny sets force evictions, so runs see misses, refills,
                // and LRU churn, not just a warm TLB.
                let cfg = TlbConfig {
                    sets: 4,
                    ways: 2,
                    replacement: Replacement::Lru,
                };
                let mut run = Tlb::new(cfg, n_tenants);
                let mut scalar = Tlb::new(cfg, n_tenants);
                let mut rng = SimRng::new(seed);
                let mut out = Vec::new();
                let mut now = Cycle::ZERO;
                for round in 0..400 {
                    now += 1;
                    let t = TenantId(rng.next_below(n_tenants as u64) as u8);
                    // Deliberate consecutive repeats (warp divergence), the
                    // runs the way memo targets.
                    let mut vpns: Vec<Vpn> = Vec::new();
                    for _ in 0..1 + rng.next_below(8) {
                        let prev = vpns.last().copied();
                        vpns.push(match prev {
                            Some(p) if rng.chance(0.35) => p,
                            _ => Vpn(rng.next_below(48)),
                        });
                    }
                    let mut start = 0;
                    while start < vpns.len() {
                        let used = run.probe_run(t, &vpns[start..], &mut out);
                        assert!(used >= 1, "probe_run must always consume");
                        for (i, &v) in vpns[start..start + used].iter().enumerate() {
                            let want = scalar.probe(t, v);
                            assert_eq!(out[i], want, "{n_tenants}t seed {seed:#x} round {round}");
                            if i + 1 < used {
                                assert!(want.is_some(), "probe_run ran past a miss");
                            }
                        }
                        if out[used - 1].is_none() {
                            let v = vpns[start + used - 1];
                            run.fill(t, v, Ppn(v.0), now);
                            scalar.fill(t, v, Ppn(v.0), now);
                        } else {
                            assert_eq!(used, vpns.len() - start, "stopped without a miss");
                        }
                        start += used;
                    }
                    assert_eq!(run.hits(), scalar.hits(), "hits @ round {round}");
                    assert_eq!(run.misses(), scalar.misses(), "misses @ round {round}");
                }
                assert!(run.hits() > 0 && run.misses() > 0, "vacuous traffic");
            }
        }
    }
}
