//! Per-SM state: private L1 TLB, private L1 data cache, issue timeline, and
//! the L1-TLB MSHR occupancy limit.

use walksteal_mem::{Cache, CacheConfig};
use walksteal_sim_core::{Cycle, LineAddr, Ppn, TenantId, Vpn};
use walksteal_vm::{Replacement, Tlb, TlbConfig};

use crate::issue::IssueServer;

/// Configuration of one SM's private resources (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Private L1 TLB geometry (baseline: 32 entries).
    pub l1_tlb: TlbConfig,
    /// Outstanding L1-TLB misses allowed (baseline: 12 MSHR entries).
    pub l1_tlb_mshrs: usize,
    /// Private L1 data cache geometry (baseline: 16 KB, 128-byte lines).
    pub l1_cache: CacheConfig,
    /// L1 data cache hit latency.
    pub l1_hit_latency: u64,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            l1_tlb: TlbConfig {
                sets: 8,
                ways: 4,
                replacement: Replacement::Lru,
            },
            l1_tlb_mshrs: 12,
            // 16 KB / 128 B = 128 lines: 32 sets x 4 ways.
            l1_cache: CacheConfig { sets: 32, ways: 4 },
            l1_hit_latency: 25,
        }
    }
}

/// One streaming multiprocessor's private state.
///
/// # Examples
///
/// ```
/// use walksteal_gpu::{SmConfig, SmState};
/// use walksteal_sim_core::{Cycle, Ppn, TenantId, Vpn};
///
/// let mut sm = SmState::new(SmConfig::default(), TenantId(0));
/// assert_eq!(sm.probe_l1_tlb(Vpn(3)), None);
/// sm.fill_l1_tlb(Vpn(3), Ppn(8), Cycle(10));
/// assert_eq!(sm.probe_l1_tlb(Vpn(3)), Some(Ppn(8)));
/// ```
#[derive(Debug)]
pub struct SmState {
    cfg: SmConfig,
    tenant: TenantId,
    issue: IssueServer,
    l1_tlb: Tlb,
    l1_cache: Cache,
    outstanding_tlb_misses: usize,
}

impl SmState {
    /// Creates an SM assigned to `tenant`.
    #[must_use]
    pub fn new(cfg: SmConfig, tenant: TenantId) -> Self {
        SmState {
            tenant,
            issue: IssueServer::new(),
            // Nothing reads an L1's occupancy share, so it integrates none.
            l1_tlb: Tlb::untracked(cfg.l1_tlb),
            l1_cache: Cache::new(cfg.l1_cache),
            outstanding_tlb_misses: 0,
            cfg,
        }
    }

    /// The tenant this SM is assigned to.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Reserves `n` issue slots starting at `now`; returns the completion
    /// cycle.
    pub fn issue_burst(&mut self, now: Cycle, n: u64) -> Cycle {
        self.issue.reserve(now, n)
    }

    /// Probes the private L1 TLB.
    pub fn probe_l1_tlb(&mut self, vpn: Vpn) -> Option<Ppn> {
        self.l1_tlb.probe(self.tenant, vpn)
    }

    /// Resolves a run of same-cycle L1 TLB probes in one pass, stopping
    /// after the first miss; returns how many probes were consumed (see
    /// [`Tlb::probe_run`]). Only the benchmark's L1-TLB replay calls it;
    /// the simulator probes one reference at a time through
    /// [`probe_l1_tlb`](Self::probe_l1_tlb).
    pub fn probe_l1_tlb_run(&mut self, vpns: &[Vpn], out: &mut Vec<Option<Ppn>>) -> usize {
        self.l1_tlb.probe_run(self.tenant, vpns, out)
    }

    /// Fills the private L1 TLB with a completed translation.
    pub fn fill_l1_tlb(&mut self, vpn: Vpn, ppn: Ppn, now: Cycle) {
        self.l1_tlb.fill(self.tenant, vpn, ppn, now);
    }

    /// Invalidates every L1 TLB entry (the tenant's shootdown when it
    /// departs mid-run); returns how many entries were dropped.
    pub fn flush_l1_tlb(&mut self, now: Cycle) -> usize {
        self.l1_tlb.invalidate_tenant(self.tenant, now)
    }

    /// Attempts to allocate an L1-TLB MSHR slot for a miss going downstream.
    /// Returns `false` when the SM must stall (all 12 in flight).
    pub fn try_take_tlb_mshr(&mut self) -> bool {
        if self.outstanding_tlb_misses >= self.cfg.l1_tlb_mshrs {
            return false;
        }
        self.outstanding_tlb_misses += 1;
        true
    }

    /// Releases an L1-TLB MSHR slot once the translation returned.
    ///
    /// # Panics
    ///
    /// Panics if no miss was outstanding.
    pub fn release_tlb_mshr(&mut self) {
        assert!(self.outstanding_tlb_misses > 0, "no TLB miss outstanding");
        self.outstanding_tlb_misses -= 1;
    }

    /// Outstanding L1-TLB misses.
    #[must_use]
    pub fn outstanding_tlb_misses(&self) -> usize {
        self.outstanding_tlb_misses
    }

    /// Probes the private L1 data cache, filling on miss; returns whether it
    /// hit, so the caller can decide to go to the shared L2.
    pub fn access_l1_cache(&mut self, line: LineAddr) -> bool {
        if self.l1_cache.probe(line) {
            true
        } else {
            self.l1_cache.fill(line);
            false
        }
    }

    /// L1 data cache hit latency.
    #[must_use]
    pub fn l1_hit_latency(&self) -> u64 {
        self.cfg.l1_hit_latency
    }

    /// L1 TLB statistics: (hits, misses).
    #[must_use]
    pub fn l1_tlb_stats(&self) -> (u64, u64) {
        (self.l1_tlb.hits(), self.l1_tlb.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> SmState {
        SmState::new(SmConfig::default(), TenantId(1))
    }

    #[test]
    fn tlb_miss_then_fill_then_hit() {
        let mut s = sm();
        assert_eq!(s.probe_l1_tlb(Vpn(9)), None);
        s.fill_l1_tlb(Vpn(9), Ppn(4), Cycle(5));
        assert_eq!(s.probe_l1_tlb(Vpn(9)), Some(Ppn(4)));
        let (h, m) = s.l1_tlb_stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn mshr_limit_backpressures() {
        let mut s = sm();
        for _ in 0..12 {
            assert!(s.try_take_tlb_mshr());
        }
        assert!(!s.try_take_tlb_mshr());
        s.release_tlb_mshr();
        assert!(s.try_take_tlb_mshr());
        assert_eq!(s.outstanding_tlb_misses(), 12);
    }

    #[test]
    #[should_panic(expected = "no TLB miss outstanding")]
    fn release_without_take_panics() {
        sm().release_tlb_mshr();
    }

    #[test]
    fn flush_drops_all_entries() {
        let mut s = sm();
        s.fill_l1_tlb(Vpn(1), Ppn(2), Cycle(1));
        s.fill_l1_tlb(Vpn(9), Ppn(4), Cycle(2));
        assert_eq!(s.flush_l1_tlb(Cycle(5)), 2);
        assert_eq!(s.probe_l1_tlb(Vpn(1)), None);
        assert_eq!(s.probe_l1_tlb(Vpn(9)), None);
        assert_eq!(s.flush_l1_tlb(Cycle(6)), 0, "idempotent");
    }

    #[test]
    fn issue_bursts_serialize() {
        let mut s = sm();
        assert_eq!(s.issue_burst(Cycle(0), 10), Cycle(10));
        assert_eq!(s.issue_burst(Cycle(0), 5), Cycle(15));
    }

    #[test]
    fn l1_cache_fills_on_miss() {
        let mut s = sm();
        assert!(!s.access_l1_cache(LineAddr(77)));
        assert!(s.access_l1_cache(LineAddr(77)));
    }

    #[test]
    fn tenant_is_recorded() {
        assert_eq!(sm().tenant(), TenantId(1));
    }
}
