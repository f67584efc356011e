//! Per-warp operation streams.
//!
//! A [`WarpStream`] deterministically generates one warp's alternation of
//! compute bursts and (already coalesced) memory references according to its
//! application's [`AppProfile`]. Streams are seeded per (tenant, warp), so a
//! whole simulation replays from a single seed.

use walksteal_gpu::MemRef;
use walksteal_sim_core::{SimRng, Vpn};

use crate::apps::{AppProfile, HotPattern};

/// Lines per 4 KB page with 128-byte lines.
const LINES_PER_PAGE: u32 = 32;

/// One warp operation: a compute burst followed by a memory instruction
/// touching `refs` (already coalesced; one translation per distinct page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpOp {
    /// Compute instructions to issue before the memory instruction.
    pub compute: u64,
    /// Coalesced accesses of the memory instruction.
    pub refs: Vec<MemRef>,
}

impl WarpOp {
    /// Total warp instructions this op retires (compute + 1 memory
    /// instruction).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.compute + 1
    }
}

/// What every warp of one tenant shares: the profile, the execution budget
/// (after the profile's `length_scale`), the storm phase and the
/// compute-burst constant. Each warp keeps only its [`WarpCursor`]; the
/// simulator holds one `TenantStream` per tenant and one cursor per warp,
/// and a [`WarpStream`] is one of each.
#[derive(Debug, Clone)]
pub struct TenantStream {
    profile: AppProfile,
    /// The tenant seed's generator, split once per warp.
    root: SimRng,
    budget: u64,
    /// Storm phase offset: warps of one tenant storm together, different
    /// tenants storm out of phase (derived from the tenant seed).
    storm_phase: u64,
    /// `(1 - p).ln()` for the compute-burst geometric draw, hoisted out of
    /// the per-op loop (`p = 1 / mean_compute`). NaN-free: `p < 1` here;
    /// `p >= 1` is handled by the `mean_compute <= 1` fast path.
    geom_ln: f64,
}

/// One warp's position in its tenant's [`TenantStream`].
#[derive(Debug, Clone)]
pub struct WarpCursor {
    rng: SimRng,
    /// First page of this warp's cold region.
    cold_base: u64,
    /// Sequential/strided cursor within the hot region (page units scaled
    /// by line cursor).
    hot_line_cursor: u64,
    /// Warp operations issued, for storm phase tracking.
    op_counter: u64,
    /// Remaining warp instructions in this execution.
    remaining: u64,
}

impl WarpCursor {
    /// Warp instructions still to issue this execution.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl TenantStream {
    /// The shared part of the streams of a tenant seeded with `seed`, with
    /// `budget` warp instructions per execution (before the profile's
    /// `length_scale`).
    #[must_use]
    pub fn new(profile: AppProfile, seed: u64, budget: u64) -> Self {
        let root = SimRng::new(seed);
        let storm_phase = if profile.storm_every_ops > 0 {
            // Same phase for every warp of a tenant (they share `seed`).
            root.clone().next_below(profile.storm_every_ops)
        } else {
            0
        };
        TenantStream {
            profile,
            root,
            budget: ((budget as f64 * profile.length_scale) as u64).max(1),
            storm_phase,
            geom_ln: (1.0 - 1.0 / profile.mean_compute.max(1.0)).ln(),
        }
    }

    /// The cursor of warp `warp_index` (globally unique within the tenant).
    ///
    /// The *hot* region is shared by every warp of the tenant (tiles and
    /// stencil neighborhoods really are shared data), so it stays resident
    /// in the L1s. The *cold* region is private per warp — co-scheduled
    /// warps with disjoint page working sets are exactly what thrashes the
    /// TLB (the paper's BLK observation).
    #[must_use]
    pub fn cursor(&self, warp_index: u64) -> WarpCursor {
        let p = &self.profile;
        let span = p.cold_pages + 1; // +1 guard page of slack
        WarpCursor {
            rng: self.root.split(warp_index),
            cold_base: p.hot_pages + p.warm_pages + warp_index * span,
            hot_line_cursor: warp_index * 7, // desynchronize hot phases
            op_counter: 0,
            remaining: self.budget,
        }
    }

    /// The warp-instruction budget of one execution (after scaling).
    #[must_use]
    pub fn execution_length(&self) -> u64 {
        self.budget
    }

    /// Restarts `cursor` for a fresh execution (the relaunch methodology).
    /// The random stream continues rather than repeating, as a relaunched
    /// application would traverse its data afresh.
    pub fn relaunch(&self, cursor: &mut WarpCursor) {
        cursor.remaining = self.budget;
    }

    /// The next operation of the warp at `cursor`: writes its coalesced
    /// references (distinct, in first-appearance order) to the front of
    /// `slots` and returns the compute burst and the reference count, or
    /// `None` once the execution's budget is spent. The sequence is exactly
    /// what a [`WarpStream`] of the same tenant seed and warp index emits.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is shorter than the profile's `divergence`.
    pub fn next_op(&self, cur: &mut WarpCursor, slots: &mut [MemRef]) -> Option<(u64, usize)> {
        if cur.remaining == 0 {
            return None;
        }
        cur.op_counter += 1;
        let p = &self.profile;
        let burst = if p.mean_compute <= 1.0 {
            1
        } else {
            cur.rng.next_geometric_ln(self.geom_ln)
        }
        .min(cur.remaining.saturating_sub(1).max(1));
        // Whether the warp is in a miss storm (phase change) this op.
        let in_storm = p.storm_every_ops > 0
            && (cur.op_counter + self.storm_phase) % p.storm_every_ops < p.storm_ops;
        let cold_prob = if in_storm {
            p.storm_cold_prob
        } else {
            p.cold_prob
        };
        // Order-preserving dedup without the O(divergence²) scan: a 64-bit
        // signature of the refs written so far. An unset bit proves the ref
        // is new; only a set bit (possible collision) falls back to the
        // exact linear check.
        let (mut sig, mut n) = (0u64, 0);
        for _ in 0..p.divergence {
            let r = next_ref(p, cur, cold_prob);
            let h =
                (r.vpn.0 ^ (u64::from(r.line_in_page) << 52)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let bit = 1u64 << (h >> 58);
            if sig & bit == 0 || !slots[..n].contains(&r) {
                slots[n] = r;
                n += 1;
                sig |= bit;
            }
        }
        cur.remaining = cur.remaining.saturating_sub(burst + 1);
        Some((burst, n))
    }
}

/// One reference of the warp at `cur`: cold, warm or hot by one draw
/// against `cold_prob` (the storm's or the steady one) and `warm_prob`.
#[inline]
fn next_ref(p: &AppProfile, cur: &mut WarpCursor, cold_prob: f64) -> MemRef {
    let lines = u64::from(LINES_PER_PAGE);
    let draw = cur.rng.next_f64();
    let cold = p.cold_pages > 0 && draw < cold_prob;
    let warm = !cold && p.warm_pages > 0 && draw < cold_prob + p.warm_prob;
    let (page, line) = if cold {
        (
            cur.cold_base + cur.rng.next_below(p.cold_pages),
            cur.rng.next_below(lines) as u32,
        )
    } else if warm {
        // The tenant-shared warm region starts right after the hot one.
        (
            p.hot_pages + cur.rng.next_below(p.warm_pages),
            cur.rng.next_below(lines) as u32,
        )
    } else {
        // The hot region starts at page 0.
        match p.hot_pattern {
            HotPattern::Sequential => {
                cur.hot_line_cursor += 1;
                (
                    (cur.hot_line_cursor / lines) % p.hot_pages,
                    (cur.hot_line_cursor % lines) as u32,
                )
            }
            HotPattern::Strided(stride) => {
                cur.hot_line_cursor += stride;
                (
                    (cur.hot_line_cursor / lines) % p.hot_pages,
                    (cur.hot_line_cursor % lines) as u32,
                )
            }
            HotPattern::Random => {
                let page = cur.rng.next_below(p.hot_pages);
                (page, cur.rng.next_below(lines) as u32)
            }
        }
    };
    MemRef {
        vpn: Vpn(page),
        line_in_page: line,
    }
}

/// A deterministic generator of one warp's operations for one execution:
/// a [`TenantStream`] and one [`WarpCursor`] of it.
///
/// # Examples
///
/// ```
/// use walksteal_workloads::{AppId, WarpStream};
///
/// let mut stream = WarpStream::new(AppId::Gups.profile(), 0, 7, 1_000);
/// let op = stream.next_op().expect("budget not exhausted");
/// assert!(!op.refs.is_empty());
/// // Same seed, same stream:
/// let mut again = WarpStream::new(AppId::Gups.profile(), 0, 7, 1_000);
/// assert_eq!(again.next_op().unwrap(), op);
/// ```
#[derive(Debug, Clone)]
pub struct WarpStream {
    shared: TenantStream,
    cursor: WarpCursor,
    seed: u64,
}

impl WarpStream {
    /// Creates the stream for warp `warp_index` (globally unique within the
    /// tenant) with `budget` warp instructions per execution (before the
    /// profile's `length_scale`); see [`TenantStream::cursor`] for the
    /// address layout.
    #[must_use]
    pub fn new(profile: AppProfile, seed: u64, warp_index: u64, budget: u64) -> Self {
        let shared = TenantStream::new(profile, seed, budget);
        let cursor = shared.cursor(warp_index);
        WarpStream {
            shared,
            cursor,
            seed,
        }
    }

    /// The warp-instruction budget of one execution (after scaling).
    #[must_use]
    pub fn execution_length(&self) -> u64 {
        self.shared.execution_length()
    }

    /// Warp instructions still to issue this execution.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.cursor.remaining
    }

    /// Restarts the stream for a fresh execution (the relaunch methodology).
    /// The random stream continues rather than repeating, as a relaunched
    /// application would traverse its data afresh.
    pub fn relaunch(&mut self) {
        self.shared.relaunch(&mut self.cursor);
    }

    /// The next warp operation, or `None` once the execution's instruction
    /// budget is spent (relaunch to continue).
    pub fn next_op(&mut self) -> Option<WarpOp> {
        let mut refs = Vec::with_capacity(self.shared.profile.divergence);
        let compute = self.next_op_into(&mut refs)?;
        Some(WarpOp { compute, refs })
    }

    /// Allocation-free variant of [`next_op`](Self::next_op): fills `refs`
    /// with the op's coalesced references (distinct, in first appearance
    /// order), returning the compute burst.
    pub fn next_op_into(&mut self, refs: &mut Vec<MemRef>) -> Option<u64> {
        let no_ref = MemRef {
            vpn: Vpn(0),
            line_in_page: 0,
        };
        refs.resize(self.shared.profile.divergence, no_ref);
        let (compute, n) = self.shared.next_op(&mut self.cursor, refs)?;
        refs.truncate(n);
        Some(compute)
    }

    /// The seed this stream derives from (for diagnostics).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;

    #[test]
    fn deterministic_replay() {
        let mut a = WarpStream::new(AppId::Sad.profile(), 42, 3, 5_000);
        let mut b = WarpStream::new(AppId::Sad.profile(), 42, 3, 5_000);
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn next_op_into_matches_next_op() {
        for app in [AppId::Gups, AppId::Mm, AppId::Sad] {
            let mut a = WarpStream::new(app.profile(), 9, 2, 4_000);
            let mut b = WarpStream::new(app.profile(), 9, 2, 4_000);
            let mut refs = Vec::new();
            loop {
                let op = a.next_op();
                let compute = b.next_op_into(&mut refs);
                assert_eq!(op.as_ref().map(|o| o.compute), compute);
                assert_eq!(
                    op.as_ref().map(|o| o.refs.as_slice()),
                    compute.map(|_| refs.as_slice())
                );
                assert_eq!(a.remaining(), b.remaining());
                if op.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn cold_regions_are_disjoint_but_hot_is_shared() {
        let p = AppId::Blk.profile();
        let span = p.cold_pages + 1;
        let mut w0 = WarpStream::new(p, 1, 0, 10_000);
        let mut w1 = WarpStream::new(p, 1, 1, 10_000);
        let hot = 0..p.hot_pages;
        let cold0 = p.hot_pages..p.hot_pages + span;
        let cold1 = p.hot_pages + span..p.hot_pages + 2 * span;
        for _ in 0..300 {
            for r in w0.next_op().unwrap().refs {
                assert!(
                    hot.contains(&r.vpn.0) || cold0.contains(&r.vpn.0),
                    "warp 0 escaped: {:?}",
                    r.vpn
                );
            }
            for r in w1.next_op().unwrap().refs {
                assert!(
                    hot.contains(&r.vpn.0) || cold1.contains(&r.vpn.0),
                    "warp 1 escaped: {:?}",
                    r.vpn
                );
            }
        }
    }

    #[test]
    fn budget_is_respected() {
        let mut s = WarpStream::new(AppId::Mm.profile(), 9, 0, 500);
        let mut total = 0;
        while let Some(op) = s.next_op() {
            total += op.instructions();
        }
        // length_scale for MM is 1.0; we may overshoot by at most one burst.
        assert!(total >= 500, "total {total}");
        assert!(total < 500 + 100, "total {total}");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn relaunch_restores_budget_and_advances_data() {
        let mut s = WarpStream::new(AppId::Gups.profile(), 5, 2, 400);
        let first: Vec<WarpOp> = std::iter::from_fn(|| s.next_op()).collect();
        s.relaunch();
        assert_eq!(s.remaining(), s.execution_length());
        let second: Vec<WarpOp> = std::iter::from_fn(|| s.next_op()).collect();
        // GUPS is random: a relaunch continues the random traversal.
        assert_ne!(first, second);
    }

    #[test]
    fn divergent_apps_emit_multiple_pages() {
        let mut s = WarpStream::new(AppId::Gups.profile(), 7, 0, 100_000);
        let mut max_refs = 0;
        for _ in 0..500 {
            max_refs = max_refs.max(s.next_op().unwrap().refs.len());
        }
        assert!(max_refs > 1, "GUPS should fan out, saw {max_refs}");
    }

    #[test]
    fn coalesced_apps_emit_single_ref() {
        let mut s = WarpStream::new(AppId::Hs.profile(), 7, 0, 100_000);
        for _ in 0..500 {
            assert_eq!(s.next_op().unwrap().refs.len(), 1);
        }
    }

    #[test]
    fn sequential_pattern_walks_lines_in_order() {
        let mut s = WarpStream::new(AppId::Hs.profile(), 3, 0, 1_000_000);
        // Collect hot-region refs; lines should mostly increment by 1.
        let mut last: Option<u32> = None;
        let mut in_order = 0;
        let mut total = 0;
        for _ in 0..1000 {
            let op = s.next_op().unwrap();
            let r = op.refs[0];
            if r.vpn.0 < AppId::Hs.profile().hot_pages {
                if let Some(prev) = last {
                    total += 1;
                    if r.line_in_page == (prev + 1) % 32 || r.line_in_page == prev {
                        in_order += 1;
                    }
                }
                last = Some(r.line_in_page);
            }
        }
        assert!(in_order as f64 > total as f64 * 0.9, "{in_order}/{total}");
    }

    #[test]
    fn execution_length_scales() {
        let s = WarpStream::new(AppId::Ray.profile(), 0, 0, 1000);
        assert_eq!(s.execution_length(), 1200); // RAY length_scale = 1.2
    }

    #[test]
    fn mean_compute_matches_profile() {
        let p = AppId::Lib.profile();
        let mut s = WarpStream::new(p, 11, 0, u64::MAX / 2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.next_op().unwrap().compute).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - p.mean_compute).abs() < p.mean_compute * 0.1,
            "mean {mean} vs {}",
            p.mean_compute
        );
    }
}
