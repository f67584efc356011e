//! Property-style tests on the core data structures and the invariants the
//! walk-stealing design guarantees.
//!
//! Each test replays one property over many randomized cases. Inputs come
//! from the repo's own deterministic [`SimRng`] (no external
//! property-testing crate), so failures reproduce exactly: the case index
//! in the assertion message pins down the failing input.

use walksteal::invariants;
use walksteal::mem::{AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig};
use walksteal::sim::{Cycle, EventQueue, LineAddr, Observer, Ppn, SimRng, TenantId, Vpn};
use walksteal::vm::walk::WalkContext;
use walksteal::vm::{
    DispatchedWalk, DwsPlusPlusParams, FrameAlloc, PageSize, PageTable, Replacement, SchedulerImpl,
    StealMode, Tlb, TlbConfig, WalkConfig, WalkPolicyKind, WalkRequest, WalkSubsystem,
};

/// Cases per property. Each case draws a fresh input of random size.
const CASES: u64 = 48;

/// A random vector of `len in 1..max_len` values below `bound`.
fn random_vec(rng: &mut SimRng, max_len: u64, bound: u64) -> Vec<u64> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Cycles drain in increasing order, each whole and FIFO within it.
#[test]
fn event_queue_total_order() {
    let mut rng = SimRng::new(0xE0);
    for case in 0..CASES {
        let times = random_vec(&mut rng, 200, 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut prev: Option<Cycle> = None;
        let mut batch = Vec::new();
        let mut drained = 0;
        while let Some(at) = q.drain_cycle_into(&mut batch) {
            assert!(
                prev.is_none_or(|p| at > p),
                "case {case}: cycles out of order or split"
            );
            assert!(
                batch.iter().all(|&id| Cycle(times[id]) == at),
                "case {case}: event drained off its cycle"
            );
            assert!(
                batch.windows(2).all(|w| w[0] < w[1]),
                "case {case}: FIFO violated within a cycle"
            );
            drained += batch.len();
            batch.clear();
            prev = Some(at);
        }
        assert_eq!(drained, times.len(), "case {case}: events lost");
    }
}

/// Walking any VPN yields a stable mapping, and re-walking agrees with
/// `translate`.
#[test]
fn page_table_round_trip() {
    let mut rng = SimRng::new(0xE1);
    for case in 0..CASES {
        let vpns = random_vec(&mut rng, 50, 1 << 30);
        let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut frames = FrameAlloc::new();
        for &v in &vpns {
            let first = pt.walk_path(Vpn(v), &mut frames);
            assert_eq!(pt.translate(Vpn(v)), Some(first.ppn), "case {case}");
            let again = pt.walk_path(Vpn(v), &mut frames);
            assert_eq!(first, again, "case {case}: unstable mapping");
        }
    }
}

/// Distinct pages of distinct tenants never share a frame.
#[test]
fn tenants_get_disjoint_frames() {
    let mut rng = SimRng::new(0xE2);
    for case in 0..CASES {
        let vpns = random_vec(&mut rng, 40, 1 << 20);
        let mut frames = FrameAlloc::new();
        let mut a = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut b = PageTable::new(TenantId(1), PageSize::Small4K);
        let mut seen = std::collections::HashSet::new();
        for &v in &vpns {
            let pa = a.walk_path(Vpn(v), &mut frames).ppn;
            let pb = b.walk_path(Vpn(v), &mut frames).ppn;
            assert_ne!(pa, pb, "case {case}: tenants share a frame");
            seen.insert(pa);
            seen.insert(pb);
        }
        // Every distinct page got a distinct frame.
        let distinct = vpns.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(seen.len(), 2 * distinct, "case {case}");
    }
}

/// A TLB probe never returns another tenant's mapping, under any
/// interleaving of fills from two tenants.
#[test]
fn tlb_never_leaks_across_tenants() {
    let mut rng = SimRng::new(0xE3);
    for case in 0..CASES {
        let n_ops = 1 + rng.next_below(299);
        let ops: Vec<(u8, u64)> = (0..n_ops)
            .map(|_| (rng.next_below(2) as u8, rng.next_below(64)))
            .collect();
        let replacement = if rng.chance(0.5) {
            Replacement::Lru
        } else {
            Replacement::Random
        };
        let mut tlb = Tlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement,
            },
            2,
        );
        let mut truth = std::collections::HashMap::new();
        for (i, &(t, v)) in ops.iter().enumerate() {
            let ppn = Ppn(i as u64 + 1000 * u64::from(t));
            tlb.fill(TenantId(t), Vpn(v), ppn, Cycle(i as u64));
            truth.insert((t, v), ppn);
        }
        for &(t, v) in &ops {
            if let Some(hit) = tlb.probe(TenantId(t), Vpn(v)) {
                assert_eq!(hit, truth[&(t, v)], "case {case}: stale or foreign mapping");
            }
        }
    }
}

/// Cache occupancy never exceeds capacity, and a probe immediately after a
/// fill hits.
#[test]
fn cache_capacity_respected() {
    let mut rng = SimRng::new(0xE4);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 300, 4096);
        let cfg = CacheConfig { sets: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        for &l in &lines {
            c.fill(LineAddr(l));
            assert!(c.contains(LineAddr(l)), "case {case}");
            assert!(c.occupancy() <= cfg.lines(), "case {case}: over capacity");
        }
    }
}

/// Memory-system latency is always at least the L2 hit latency.
#[test]
fn mem_latency_floor() {
    let mut rng = SimRng::new(0xE5);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 100, 512);
        let cfg = MemSystemConfig::default();
        let mut mem = MemSystem::new(cfg);
        for (i, &l) in lines.iter().enumerate() {
            let a = mem.access(LineAddr(l), Cycle(i as u64 * 3), AccessKind::Data);
            assert!(a.latency >= cfg.l2_hit_latency, "case {case}");
        }
    }
}

/// Conservation: every accepted walk completes exactly once, for every
/// policy, under arbitrary arrival patterns — and walks are never stolen
/// when stealing is off.
#[test]
fn walk_subsystem_conserves_walks() {
    fn drain_until(
        ws: &mut WalkSubsystem,
        scheduled: &mut Vec<DispatchedWalk>,
        ctx: &mut WalkContext<'_>,
        t: Cycle,
        completed: &mut u64,
        steal_off: bool,
    ) {
        loop {
            scheduled.sort_by_key(|d| d.done_at);
            let Some(first) = scheduled.first().copied() else {
                break;
            };
            if first.done_at > t {
                break;
            }
            scheduled.remove(0);
            let (done, next) = ws.on_walker_done(first.walker, first.done_at, ctx);
            assert!(!(steal_off && done.stolen), "stole with stealing off");
            *completed += 1;
            if let Some(n) = next {
                scheduled.push(n);
            }
        }
    }

    let mut rng = SimRng::new(0xE6);
    for case in 0..CASES {
        let n_arrivals = 1 + rng.next_below(119);
        let arrivals: Vec<(u8, u64, u64)> = (0..n_arrivals)
            .map(|_| {
                (
                    rng.next_below(2) as u8,
                    rng.next_below(64),
                    1 + rng.next_below(29),
                )
            })
            .collect();
        let policy = match rng.next_below(4) {
            0 => WalkPolicyKind::SharedQueue,
            1 => WalkPolicyKind::PrivatePools,
            2 => WalkPolicyKind::Partitioned(StealMode::None),
            _ => WalkPolicyKind::Partitioned(StealMode::Dws),
        };
        let steal_off = policy == WalkPolicyKind::Partitioned(StealMode::None);
        let mut ws = WalkSubsystem::new(WalkConfig {
            n_walkers: 4,
            queue_entries: 16,
            n_tenants: 2,
            policy: policy.clone(),
            pwc_entries: 16,
            pwc_latency: 2,
            dispatch_overhead: 2,
            strict_pend_check: true,
        });
        let mut pts = vec![
            PageTable::new(TenantId(0), PageSize::Small4K),
            PageTable::new(TenantId(1), PageSize::Small4K),
        ];
        let mut frames = FrameAlloc::new();
        let mut mem = MemSystem::new(MemSystemConfig::default());
        let mut scheduled: Vec<DispatchedWalk> = Vec::new();
        let mut obs = Observer::off();
        let mut accepted = 0u64;
        let mut completed = 0u64;
        let mut now = Cycle::ZERO;

        for &(t, v, dt) in &arrivals {
            now += dt;
            let mut ctx = WalkContext {
                page_tables: &mut pts,
                frames: &mut frames,
                mem: &mut mem,
                mask: None,
                obs: &mut obs,
            };
            drain_until(
                &mut ws,
                &mut scheduled,
                &mut ctx,
                now,
                &mut completed,
                steal_off,
            );
            let req = WalkRequest {
                tenant: TenantId(t),
                vpn: Vpn(u64::from(t) * 0x10_0000 + v),
            };
            if let Ok(d) = ws.try_enqueue(req, now, &mut ctx) {
                accepted += 1;
                if let Some(d) = d {
                    scheduled.push(d);
                }
            }
        }
        let mut ctx = WalkContext {
            page_tables: &mut pts,
            frames: &mut frames,
            mem: &mut mem,
            mask: None,
            obs: &mut obs,
        };
        drain_until(
            &mut ws,
            &mut scheduled,
            &mut ctx,
            Cycle(u64::MAX / 2),
            &mut completed,
            steal_off,
        );
        assert_eq!(
            accepted, completed,
            "case {case}: {policy:?} lost or duplicated walks"
        );
        assert_eq!(ws.queued_len(), 0, "case {case}");
        assert_eq!(ws.busy_walkers(), 0, "case {case}");
        let stats = ws.stats();
        assert_eq!(
            stats.completed.iter().sum::<u64>(),
            completed,
            "case {case}"
        );
    }
}

/// One partitioned-scheduler instance under invariant scrutiny: the
/// subsystem plus the deterministic machinery it dispatches against.
struct SchedSide {
    ws: WalkSubsystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
    /// Whether [`complete`](Self::complete) asserts the FWA
    /// no-consecutive-steal rule. The rule reads the per-walker stolen
    /// bits against walker ownership, so — like the ownership
    /// decomposition in `check_scheduler` — it does not survive a mid-run
    /// repartition; churn drivers turn it off.
    steal_rule: bool,
}

impl SchedSide {
    fn new(cfg: &WalkConfig, imp: SchedulerImpl) -> SchedSide {
        SchedSide {
            ws: WalkSubsystem::with_scheduler_impl(cfg.clone(), imp),
            page_tables: (0..cfg.n_tenants)
                .map(|t| PageTable::new(TenantId(t as u8), PageSize::Small4K))
                .collect(),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(MemSystemConfig::default()),
            obs: Observer::off(),
            steal_rule: true,
        }
    }

    fn enqueue(
        &mut self,
        req: WalkRequest,
        now: Cycle,
    ) -> Result<Option<DispatchedWalk>, walksteal::vm::WalkQueueFull> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.try_enqueue(req, now, &mut ctx)
    }

    fn complete(&mut self, d: DispatchedWalk) -> Option<DispatchedWalk> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        let pre_depths = self.ws.walker_queue_depths().expect("partitioned");
        let pre_stolen = self.ws.walker_stolen_bits().expect("partitioned");
        let (_, next) = self.ws.on_walker_done(d.walker, d.done_at, &mut ctx);
        if let Some(n) = next {
            if self.steal_rule {
                // The FWA no-consecutive-steals rule, shared with the
                // fuzzer through the library invariants module.
                invariants::check_no_consecutive_steal(
                    &self.ws,
                    &pre_depths,
                    &pre_stolen,
                    n.walker.index(),
                )
                .unwrap_or_else(|e| panic!("{e}"));
            }
        }
        next
    }

    /// Checks the conservation and occupancy invariants against the
    /// scheduler's own PEND_WALKS / queue-depth / ownership views, through
    /// the shared [`walksteal::invariants`] implementation.
    fn check_invariants(&self, attempts: u64, at: &str) {
        // This suite only constructs partitioned schedulers; make sure the
        // library checks are exercising the per-tenant views, not silently
        // taking the non-partitioned early-out.
        assert!(self.ws.pend_walks().is_some(), "{at}: expected partitioned");
        invariants::check_scheduler(&self.ws, attempts, at).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Drives both scheduler implementations through lockstep random N-tenant
/// traffic, one request at a time, checking the partitioned-scheduler
/// invariants on both sides at every step and that the two sides'
/// inspection views never diverge.
/// Returns total steals, so callers can assert the run exercised stealing.
fn drive_invariants(n_tenants: usize, mode: StealMode, seed: u64, steps: usize) -> u64 {
    let cfg = WalkConfig {
        n_walkers: 12, // divisible by 2, 3, and 4 tenants
        // Shallow queues: walks are slow (multi-level, memory-bound), so a
        // starved tenant must not sit on a deep backlog or it would never
        // reach PEND_WALKS == 0 — the only state DWS steals from — within
        // a solo phase.
        queue_entries: 24,
        n_tenants,
        policy: WalkPolicyKind::Partitioned(mode),
        pwc_entries: 128,
        pwc_latency: 2,
        dispatch_overhead: 2,
        strict_pend_check: true,
    };
    let mut a = SchedSide::new(&cfg, SchedulerImpl::Optimized);
    let mut b = SchedSide::new(&cfg, SchedulerImpl::Reference);
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    let mut attempts = 0u64;
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut burst: Vec<WalkRequest> = Vec::new();

    for step in 0..steps {
        now += 1 + rng.next_below(7);
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d);
            let nb = b.complete(d);
            assert_eq!(na, nb, "step {step}: follow-on dispatch diverged");
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Solo phases starve every tenant but one so PEND_WALKS of the
        // others reaches zero while queues elsewhere are loaded — the only
        // state DWS steals from.
        let solo_phase = (step / 400) % 2 == 1;
        burst.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(0)
            } else {
                TenantId(rng.next_below(n_tenants as u64) as u8)
            };
            // A small working set keeps the PWC hot so walks complete fast
            // enough for solo phases to actually drain the idle tenants.
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
            burst.push(WalkRequest { tenant: t, vpn });
        }
        attempts += burst.len() as u64;
        for (i, &req) in burst.iter().enumerate() {
            let ra = a.enqueue(req, now);
            let rb = b.enqueue(req, now);
            assert_eq!(ra, rb, "step {step}: enqueue decision {i} diverged");
            if let Ok(Some(d)) = ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        a.check_invariants(attempts, &format!("optimized step {step}"));
        b.check_invariants(attempts, &format!("reference step {step}"));
        invariants::check_views_agree(&a.ws, &b.ws, &format!("step {step}"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    // Drain, then the terminal state must conserve everything.
    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d);
        let nb = b.complete(d);
        assert_eq!(na, nb, "drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    for side in [&a, &b] {
        invariants::check_drained(&side.ws, attempts, "terminal").unwrap_or_else(|e| panic!("{e}"));
    }
    a.ws.stats().stolen.iter().sum()
}

/// The partitioned scheduler's core invariants (per-tenant walk
/// conservation through PEND_WALKS, attempt accounting, queue-occupancy
/// agreement, no consecutive steals from a backlogged walker) hold at every
/// step, for 2/3/4 tenants under every steal mode, on both the optimized
/// and the reference implementation in lockstep.
#[test]
fn scheduler_invariants_hold_for_n_tenants() {
    for n_tenants in [2usize, 3, 4] {
        for (mode, label) in [
            (StealMode::None, "static"),
            (StealMode::Dws, "dws"),
            (
                StealMode::DwsPlusPlus(DwsPlusPlusParams::paper_default()),
                "dws++",
            ),
        ] {
            let mut stolen = 0;
            for seed in [0xA1u64, 0xB2, 0xC3] {
                stolen += drive_invariants(n_tenants, mode.clone(), seed, 2_000);
            }
            if label == "static" {
                assert_eq!(stolen, 0, "static partitioning must never steal");
            } else {
                // The no-consecutive-steal check is vacuous unless the
                // traffic actually provoked steals.
                assert!(
                    stolen > 0,
                    "{label} at {n_tenants} tenants produced no steals"
                );
            }
        }
    }
}

/// Drives both scheduler implementations through lockstep traffic UNDER
/// CHURN: a random arrival/departure timeline repartitions the walkers and
/// cancels the departing tenant's queued walks mid-run, on both sides at
/// the same step. Per-tenant conservation is checked through the
/// attach/detach-safe [`invariants::check_accounting`] form (the ownership
/// decomposition is transiently void while a departed tenant's walks drain
/// from re-owned walkers), and the two sides' views must never diverge.
/// Returns (steals, cancelled walks) so callers can assert non-vacuity.
fn drive_churn(n_tenants: usize, mode: StealMode, seed: u64, steps: usize) -> (u64, u64) {
    let cfg = WalkConfig {
        n_walkers: 12, // divisible by every active-tenant count 1..=4
        queue_entries: 24,
        n_tenants,
        policy: WalkPolicyKind::Partitioned(mode),
        pwc_entries: 128,
        pwc_latency: 2,
        dispatch_overhead: 2,
        strict_pend_check: true,
    };
    let mut a = SchedSide::new(&cfg, SchedulerImpl::Optimized);
    let mut b = SchedSide::new(&cfg, SchedulerImpl::Reference);
    // The no-consecutive-steal rule reads stolen bits against ownership,
    // which repartitions invalidate; conservation and view agreement are
    // the churn-safe properties this driver asserts.
    a.steal_rule = false;
    b.steal_rule = false;
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    let mut attempts = 0u64;
    let mut cancelled = 0u64;
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut burst: Vec<WalkRequest> = Vec::new();
    // Tenant 0 is pinned resident (the partition must never go empty);
    // the rest arrive and depart on the timeline below.
    let mut active = vec![true; n_tenants];

    for step in 0..steps {
        now += 1 + rng.next_below(7);
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d);
            let nb = b.complete(d);
            assert_eq!(na, nb, "step {step}: follow-on dispatch diverged");
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Churn point: every ~250 steps one non-pinned tenant flips
        // between resident and departed. A departure cancels its queued
        // walks (the shootdown the simulator performs) and both events
        // repartition the walkers among the residents — on both sides.
        if step > 0 && step % 250 == 0 {
            let t = 1 + rng.next_below(n_tenants as u64 - 1) as usize;
            active[t] = !active[t];
            if !active[t] {
                let ca = a.ws.cancel_tenant(TenantId(t as u8));
                let cb = b.ws.cancel_tenant(TenantId(t as u8));
                assert_eq!(ca, cb, "step {step}: cancel count diverged");
                cancelled += ca;
            }
            a.ws.set_active_tenants(&active);
            b.ws.set_active_tenants(&active);
        }

        // Solo phases starve every resident but tenant 0 so the others'
        // PEND_WALKS reach zero — the only state DWS steals from.
        let solo_phase = (step / 400) % 2 == 1;
        burst.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(0)
            } else {
                // Residents only: the GPU never issues for a departed app.
                let residents: Vec<usize> = (0..n_tenants).filter(|&t| active[t]).collect();
                TenantId(residents[rng.next_below(residents.len() as u64) as usize] as u8)
            };
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
            burst.push(WalkRequest { tenant: t, vpn });
        }
        attempts += burst.len() as u64;
        for (i, &req) in burst.iter().enumerate() {
            let ra = a.enqueue(req, now);
            let rb = b.enqueue(req, now);
            assert_eq!(ra, rb, "step {step}: enqueue decision {i} diverged");
            if let Ok(Some(d)) = ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        for (side, ws) in [("optimized", &a.ws), ("reference", &b.ws)] {
            invariants::check_accounting(ws, attempts, &format!("{side} step {step}"))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        invariants::check_views_agree(&a.ws, &b.ws, &format!("step {step}"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d);
        let nb = b.complete(d);
        assert_eq!(na, nb, "drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    for side in [&a, &b] {
        invariants::check_drained(&side.ws, attempts, "terminal").unwrap_or_else(|e| panic!("{e}"));
    }
    (a.ws.stats().stolen.iter().sum(), cancelled)
}

/// The scheduler invariants survive tenant attach/detach: lockstep
/// optimized-vs-reference runs over random arrival/departure timelines,
/// for 3 and 4 tenants under DWS and DWS++, with both stealing and
/// mid-run cancellations provably exercised.
#[test]
fn scheduler_invariants_hold_under_churn() {
    for n_tenants in [3usize, 4] {
        for (mode, label) in [
            (StealMode::Dws, "dws"),
            (
                StealMode::DwsPlusPlus(DwsPlusPlusParams::paper_default()),
                "dws++",
            ),
        ] {
            let mut stolen = 0;
            let mut cancelled = 0;
            for seed in [0xD1u64, 0xD2, 0xD3] {
                let (s, c) = drive_churn(n_tenants, mode.clone(), seed, 2_000);
                stolen += s;
                cancelled += c;
            }
            assert!(
                stolen > 0,
                "{label} at {n_tenants} tenants churned without steals"
            );
            assert!(
                cancelled > 0,
                "{label} at {n_tenants} tenants churned without cancellations"
            );
        }
    }
}

/// Arrival-order property: permuting one tenant's same-cycle arrivals
/// leaves every steal decision unchanged — the same
/// walkers dispatch, with the same stolen bits, and the scheduler lands in
/// the same aggregate state (PEND_WALKS, queue depths, busy counts,
/// steal/reject statistics). Only the VPN↔walker pairing (and hence each
/// walk's latency) follows the permutation, because walker choice depends
/// on scheduler state alone. Cross-tenant order stays semantic: an earlier
/// arrival can take the queue slot or idle walker a later one would have
/// used.
#[test]
fn single_tenant_arrival_order_permutation_preserves_steal_decisions() {
    let modes = [
        StealMode::Dws,
        StealMode::DwsPlusPlus(DwsPlusPlusParams::paper_default()),
    ];
    for mode in modes {
        for seed in 0..6u64 {
            let walk = WalkConfig {
                n_walkers: 12,
                queue_entries: 24,
                n_tenants: 3,
                policy: WalkPolicyKind::Partitioned(mode.clone()),
                pwc_entries: 128,
                pwc_latency: 2,
                dispatch_overhead: 2,
                strict_pend_check: true,
            };
            let mut a = SchedSide::new(&walk, SchedulerImpl::Optimized);
            let mut b = SchedSide::new(&walk, SchedulerImpl::Optimized);

            // Warm both sides identically: same seed, same replayed
            // traffic, so they reach the same scheduler state — including
            // starvation phases that leave foreign walkers idle and
            // stealable.
            let mut rng = SimRng::new(0x5EED ^ seed);
            let mut now = Cycle::ZERO;
            let mut outstanding: Vec<DispatchedWalk> = Vec::new();
            for step in 0..600 {
                now += 1 + rng.next_below(7);
                while let Some(&d) = outstanding.first() {
                    if d.done_at > now {
                        break;
                    }
                    outstanding.remove(0);
                    let na = a.complete(d);
                    let nb = b.complete(d);
                    assert_eq!(na, nb, "warm-up diverged (must be deterministic)");
                    if let Some(n) = na {
                        let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                        outstanding.insert(pos, n);
                    }
                }
                let solo = (step / 150) % 2 == 1;
                for _ in 0..rng.next_below(5) {
                    let t = if solo {
                        TenantId(0)
                    } else {
                        TenantId(rng.next_below(3) as u8)
                    };
                    let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
                    let req = WalkRequest { tenant: t, vpn };
                    let ra = a.enqueue(req, now);
                    let rb = b.enqueue(req, now);
                    assert_eq!(ra, rb, "warm-up diverged");
                    if let Ok(Some(d)) = ra {
                        let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                        outstanding.insert(pos, d);
                    }
                }
            }

            // The probe: one cycle's arrivals from tenant 0, forward on
            // side A, a rotated permutation on side B.
            now += 1;
            let k = 3 + rng.next_below(4) as usize;
            let batch: Vec<WalkRequest> = (0..k)
                .map(|_| WalkRequest {
                    tenant: TenantId(0),
                    vpn: Vpn(rng.next_below(4_000)),
                })
                .collect();
            let rot = 1 + rng.next_below(k as u64 - 1) as usize;
            let mut permuted = batch.clone();
            permuted.rotate_left(rot);

            let decisions = |side: &mut SchedSide, reqs: &[WalkRequest], now: Cycle| {
                let mut seq = Vec::new();
                let mut accepted = 0u32;
                for &req in reqs {
                    let r = side.enqueue(req, now);
                    if let Ok(d) = r {
                        accepted += 1;
                        seq.push(d.map(|d| {
                            let w = d.walker.index();
                            let stolen = side.ws.walker_stolen_bits().expect("partitioned")[w];
                            (w, stolen)
                        }));
                    }
                }
                (seq, accepted)
            };
            let (seq_a, acc_a) = decisions(&mut a, &batch, now);
            let (seq_b, acc_b) = decisions(&mut b, &permuted, now);
            assert_eq!(acc_a, acc_b, "{mode:?} seed {seed}: accept count diverged");
            assert_eq!(
                seq_a, seq_b,
                "{mode:?} seed {seed}: walker/steal decision sequence diverged"
            );
            assert_eq!(a.ws.pend_walks(), b.ws.pend_walks(), "{mode:?} {seed}");
            assert_eq!(
                a.ws.walker_queue_depths(),
                b.ws.walker_queue_depths(),
                "{mode:?} {seed}"
            );
            assert_eq!(
                a.ws.walker_stolen_bits(),
                b.ws.walker_stolen_bits(),
                "{mode:?} {seed}"
            );
            assert_eq!(
                a.ws.busy_per_tenant(),
                b.ws.busy_per_tenant(),
                "{mode:?} {seed}"
            );
            let (sa, sb) = (a.ws.stats(), b.ws.stats());
            assert_eq!(sa.stolen, sb.stolen, "{mode:?} {seed}: steal counts");
            assert_eq!(sa.enqueued, sb.enqueued, "{mode:?} {seed}");
            assert_eq!(sa.rejected, sb.rejected, "{mode:?} {seed}");
        }
    }
}

/// The arena presets' walk configurations hold every scheduler invariant
/// in optimized-vs-reference lockstep — conservation and
/// [`invariants::check_scheduler`] through [`drive_invariants`] on static
/// traffic, and the attach/detach-safe [`invariants::check_accounting`]
/// through [`drive_churn`] on arrival/departure timelines — with the steal
/// behavior each design promises: SE-TLB's MIG-style static partitions
/// never steal, MOSAIC and DE-GUARD ride DWS and provably do.
#[test]
fn arena_preset_walk_configs_hold_invariants() {
    use walksteal::multitenant::{GpuConfig, PolicyPreset};

    for preset in PolicyPreset::ARENA {
        let cfg = GpuConfig::default()
            .with_walkers(12)
            .for_tenants(3)
            .with_preset(preset);
        let WalkPolicyKind::Partitioned(mode) = cfg.walk.policy.clone() else {
            panic!("{preset}: arena presets must partition their walkers");
        };
        let mut stolen = 0;
        for n_tenants in [2usize, 3, 4] {
            for seed in [0xA7u64, 0xB8] {
                stolen += drive_invariants(n_tenants, mode.clone(), seed, 2_000);
            }
        }
        let mut cancelled = 0;
        for seed in [0xD7u64, 0xD8] {
            let (s, c) = drive_churn(3, mode.clone(), seed, 2_000);
            stolen += s;
            cancelled += c;
        }
        assert!(cancelled > 0, "{preset}: churn never cancelled a walk");
        if preset == PolicyPreset::SubEntryTlb {
            assert_eq!(stolen, 0, "SE-TLB static partitions must never steal");
        } else {
            assert!(stolen > 0, "{preset}: traffic produced no steals");
        }
    }
}

/// Mosaic consistency property: under reservation-grouped frames a
/// [`MosaicTlb`](walksteal::vm::MosaicTlb) probe never contradicts the
/// page table — every hit, from a base entry or a coalesced large entry
/// (including pages of the group the TLB never saw filled), returns
/// exactly the frame the reservation allocator mapped. Coalescing and
/// splintering both provably fire, and the structural invariants (no
/// double mapping, a large array within capacity) hold after every
/// operation.
#[test]
fn mosaic_tlb_agrees_with_reserved_page_table() {
    use walksteal::vm::{MosaicTlb, MOSAIC_GROUP};

    let mut rng = SimRng::new(0xE8);
    let (mut coalesces, mut splinters, mut large_hits) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut tlb = MosaicTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            2,
            PageSize::Small4K,
        );
        let mut frames = FrameAlloc::new();
        let mut pts = [
            PageTable::with_reservation(TenantId(0), PageSize::Small4K, MOSAIC_GROUP),
            PageTable::with_reservation(TenantId(1), PageSize::Small4K, MOSAIC_GROUP),
        ];
        let n_ops = 60 + rng.next_below(140);
        let mut now = Cycle::ZERO;
        for op in 0..n_ops {
            now += 1;
            let t = rng.next_below(2) as usize;
            // Half the ops sweep a whole group page-by-page (the dense
            // touch pattern that trips the coalesce threshold; the wide
            // group range overflows the large array so victims splinter),
            // half probe a hot region served from earlier coalesces.
            let vpns: Vec<Vpn> = if rng.chance(0.5) {
                let group = rng.next_below(256) * MOSAIC_GROUP;
                (0..MOSAIC_GROUP).map(|i| Vpn(group + i)).collect()
            } else {
                vec![Vpn(rng.next_below(64))]
            };
            for v in vpns {
                let truth = pts[t].walk_path(v, &mut frames).ppn;
                match tlb.probe(TenantId(t as u8), v) {
                    Some(hit) => assert_eq!(
                        hit, truth,
                        "case {case} op {op}: wrong translation for {v:?}"
                    ),
                    None => tlb.fill(TenantId(t as u8), v, truth, now),
                }
            }
            if rng.chance(0.02) {
                tlb.invalidate_tenant(TenantId(t as u8), now);
            }
            tlb.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        coalesces += tlb.coalesces();
        splinters += tlb.splinters();
        large_hits += tlb.large_hits();
    }
    assert!(coalesces > 0, "no group ever coalesced");
    assert!(splinters > 0, "no large entry was ever splintered back");
    assert!(large_hits > 0, "no probe was ever served by a large entry");
}

/// Sub-entry isolation property: under random multi-tenant streams a
/// [`SubEntryTlb`](walksteal::vm::SubEntryTlb) probe never returns a
/// foreign or stale mapping, the sub-entries of one physical entry never
/// span tenants unless the entry is flagged shared (checked structurally
/// after every operation), and cross-tenant sharing provably occurs
/// somewhere in the suite.
#[test]
fn sub_entry_tlb_isolates_tenants() {
    use walksteal::vm::SubEntryTlb;

    let mut rng = SimRng::new(0xE9);
    let mut shared_fills = 0u64;
    for case in 0..CASES {
        let n_tenants = 2 + rng.next_below(3) as usize;
        let mut tlb = SubEntryTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            n_tenants,
        );
        let mut truth = std::collections::HashMap::new();
        let n_ops = 1 + rng.next_below(299);
        for op in 0..n_ops {
            let t = rng.next_below(n_tenants as u64) as u8;
            let v = rng.next_below(64);
            let now = Cycle(op);
            match tlb.probe(TenantId(t), Vpn(v)) {
                Some(hit) => assert_eq!(
                    Some(&hit),
                    truth.get(&(t, v)),
                    "case {case} op {op}: foreign or stale mapping"
                ),
                None => {
                    let ppn = Ppn(v + 1 + 1000 * u64::from(t));
                    tlb.fill(TenantId(t), Vpn(v), ppn, now);
                    truth.insert((t, v), ppn);
                }
            }
            if rng.chance(0.01) {
                tlb.invalidate_tenant(TenantId(t), now);
                truth.retain(|&(tt, _), _| tt != t);
            }
            tlb.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        shared_fills += tlb.shared_fills();
    }
    assert!(
        shared_fills > 0,
        "no cross-tenant sub-entry sharing occurred"
    );
}

/// Dead-entry-guard safety property: the predictor only ever *bypasses*
/// fills — a [`DeadGuardTlb`](walksteal::vm::DeadGuardTlb) probe hit is
/// always the correct mapping, never stale or foreign — its invariants
/// hold after every step, random departure flushes included, and under a
/// stream-plus-hot-set mix it provably both learns dead evictions and
/// bypasses fills.
#[test]
fn dead_guard_tlb_never_serves_stale_mappings() {
    use walksteal::vm::DeadGuardTlb;

    let mut rng = SimRng::new(0xEA);
    let (mut bypasses, mut dead) = (0u64, 0u64);
    for case in 0..CASES {
        let mut tlb = DeadGuardTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            2,
        );
        let mut stream_next = 1_000u64;
        let n_ops = 100 + rng.next_below(300);
        for op in 0..n_ops {
            let t = rng.next_below(2) as u8;
            // A small hot set that genuinely reuses, against a strided
            // stream that never does — the mix the dead-entry predictor
            // (arXiv 2606.00486) is built to separate.
            let v = if rng.chance(0.6) {
                rng.next_below(8)
            } else {
                stream_next += 1;
                stream_next
            };
            let now = Cycle(op);
            let want = Ppn(v + 1 + 1000 * u64::from(t));
            match tlb.probe(TenantId(t), Vpn(v)) {
                Some(hit) => assert_eq!(hit, want, "case {case} op {op}: stale or foreign"),
                None => tlb.fill(TenantId(t), Vpn(v), want, now),
            }
            // A departure flush must take the tenant's liveness records
            // with its entries.
            if rng.chance(0.02) {
                tlb.invalidate_tenant(TenantId(t), now);
            }
            tlb.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        bypasses += tlb.bypasses();
        dead += tlb.dead_evictions();
    }
    assert!(dead > 0, "the predictor never observed a dead eviction");
    assert!(bypasses > 0, "the predictor never bypassed a fill");
}

/// End-to-end churn: heavy arrival/departure timelines under a tight SLO
/// run to completion under DWS and DWS++, the controller provably evicts
/// and throttles somewhere in the suite, and every churn report is
/// internally consistent (departure after arrival, compliance from counted
/// checks, lifetime bounded by the run).
#[test]
fn churn_scenarios_evict_and_steal() {
    use walksteal::experiments::suite::walkers_for_tenants;
    use walksteal::experiments::{scenario_from_plan, ChurnKind, Scale};
    use walksteal::multitenant::{PolicyPreset, SimulationBuilder};

    let scale = Scale::Quick;
    let mut evictions = 0u64;
    let mut throttles = 0u64;
    let mut stolen = false;
    for preset in [PolicyPreset::Dws, PolicyPreset::DwsPlusPlus] {
        for seed in [42u64, 43, 44] {
            let plan = ChurnKind::Heavy.process().generate(seed);
            let spec = scenario_from_plan(&plan, Some(ChurnKind::Heavy.slo()));
            let n = plan.n_tenants();
            let cfg = scale
                .base_config()
                .with_n_sms(scale.sms_per_tenant(n) * n)
                .with_walkers(walkers_for_tenants(n))
                .for_tenants(n)
                .with_preset(preset);
            let r = SimulationBuilder::new()
                .config(cfg)
                .scenario(spec)
                .seed(seed)
                .build()
                .run();
            let report = r.churn.expect("scenario runs carry a churn report");
            evictions += report.evictions;
            throttles += report.throttles;
            stolen |= r.tenants.iter().any(|t| t.stolen_fraction > 0.0);
            for (t, ch) in report.tenants.iter().enumerate() {
                if let (Some(arr), Some(dep)) = (ch.arrived, ch.departed) {
                    assert!(dep > arr, "tenant {t} departed before arriving");
                }
                assert!(ch.slo_met <= ch.slo_checks, "tenant {t}");
                assert!(ch.lifetime_cycles <= r.cycles, "tenant {t}");
            }
        }
    }
    assert!(
        evictions > 0,
        "heavy churn under a 900-cycle p99 never evicted"
    );
    assert!(throttles > 0, "heavy churn never throttled an aggressor");
    assert!(stolen, "DWS under churn never stole a walk");
}

/// End-to-end: tiny random pairs complete under every policy, and every
/// tenant retires instructions at a positive rate.
#[test]
fn tiny_simulations_complete() {
    use walksteal::multitenant::{PolicyPreset, SimulationBuilder};
    use walksteal::workloads::AppId;

    let mut rng = SimRng::new(0xE7);
    for case in 0..16 {
        let seed = rng.next_below(50);
        let apps = [
            AppId::ALL[rng.next_below(13) as usize],
            AppId::ALL[rng.next_below(13) as usize],
        ];
        let r = SimulationBuilder::new()
            .n_sms(2)
            .warps_per_sm(2)
            .instructions_per_warp(150)
            .preset(PolicyPreset::Dws)
            .tenants(apps)
            .seed(seed)
            .build()
            .run();
        assert!(
            r.tenants.iter().all(|t| t.completed_executions >= 1),
            "case {case}: {apps:?} did not complete"
        );
        for t in &r.tenants {
            assert!(t.instructions > 0, "case {case}");
            assert!(t.ipc > 0.0, "case {case}");
        }
    }
}

/// The simulator's shared tenant streams — one `TenantStream` per tenant,
/// one cursor per warp, the warps interleaved — emit exactly the
/// `(compute, refs)` sequence of standalone `WarpStream`s, through two
/// relaunches, for every calibrated app and 20 synthetic profiles.
#[test]
fn shared_tenant_streams_match_standalone_warp_streams() {
    use walksteal::workloads::{synthetic_profile, AppId, MemRef, TenantStream, WarpStream};

    let mut rng = SimRng::new(0x57);
    let mut profiles: Vec<_> = AppId::ALL.iter().map(|a| a.profile()).collect();
    profiles.extend((0..20).map(|_| synthetic_profile(&mut rng)));
    const WARPS: u64 = 8;
    const BUDGET: u64 = 3_000;
    for (case, &p) in profiles.iter().enumerate() {
        let seed = rng.next_u64();
        let shared = TenantStream::new(p, seed, BUDGET);
        let mut cursors: Vec<_> = (0..WARPS).map(|w| shared.cursor(w)).collect();
        let mut alone: Vec<_> = (0..WARPS)
            .map(|w| WarpStream::new(p, seed, w, BUDGET))
            .collect();
        let mut slots = vec![
            MemRef {
                vpn: Vpn(0),
                line_in_page: 0
            };
            p.divergence
        ];
        let (mut refs, mut relaunches) = (Vec::new(), vec![0; WARPS as usize]);
        // Round-robin over the warps until each has finished three
        // executions.
        while relaunches.iter().any(|&r| r < 3) {
            for w in 0..WARPS as usize {
                if relaunches[w] == 3 {
                    continue;
                }
                let got = shared.next_op(&mut cursors[w], &mut slots);
                let want = alone[w].next_op_into(&mut refs);
                assert_eq!(got.map(|(c, _)| c), want, "case {case} warp {w}");
                match got {
                    Some((_, n)) => assert_eq!(&slots[..n], &refs[..], "case {case} warp {w}"),
                    None => {
                        relaunches[w] += 1;
                        shared.relaunch(&mut cursors[w]);
                        alone[w].relaunch();
                    }
                }
                assert_eq!(cursors[w].remaining(), alone[w].remaining(), "case {case}");
            }
        }
    }
}
