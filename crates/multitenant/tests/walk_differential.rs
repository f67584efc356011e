//! Differential stress test: the optimized partitioned walk scheduler
//! (bitmap FWA/TWM/WTM + arena queues) against the reference scan-based
//! implementation, across every policy preset.
//!
//! Both subsystems are driven in lockstep with identical randomized
//! multi-tenant traffic — bursty enqueues, queue overflow, completions in
//! event order, mid-run repartitions — and must agree on *everything*:
//! every accept/reject, every dispatch (walker, completion cycle), every
//! steal decision, every completed walk, and all externally visible queue
//! state after every step. This is the `BinaryHeapQueue` pattern from the
//! event-queue overhaul applied to the walk scheduler.

use walksteal_mem::{MemSystem, MemSystemConfig};
use walksteal_multitenant::{GpuConfig, PolicyPreset};
use walksteal_sim_core::{Cycle, Observer, SimRng, TenantId, Vpn};
use walksteal_vm::walk::WalkContext;
use walksteal_vm::{
    DispatchedWalk, FrameAlloc, PageSize, PageTable, SchedulerImpl, WalkRequest, WalkSubsystem,
};

/// One side of the lockstep pair: a subsystem plus the (deterministic)
/// machinery it dispatches against.
struct Side {
    ws: WalkSubsystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
}

impl Side {
    fn new(cfg: &GpuConfig, imp: SchedulerImpl) -> Side {
        Side {
            ws: WalkSubsystem::with_scheduler_impl(cfg.walk.clone(), imp),
            page_tables: (0..cfg.walk.n_tenants)
                .map(|t| PageTable::new(TenantId(t as u8), PageSize::Small4K))
                .collect(),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(MemSystemConfig::default()),
            obs: Observer::off(),
        }
    }

    fn enqueue(
        &mut self,
        req: WalkRequest,
        now: Cycle,
    ) -> Result<Option<DispatchedWalk>, walksteal_vm::WalkQueueFull> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.try_enqueue(req, now, &mut ctx)
    }

    fn complete(
        &mut self,
        d: DispatchedWalk,
    ) -> (walksteal_vm::CompletedWalk, Option<DispatchedWalk>) {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.on_walker_done(d.walker, d.done_at, &mut ctx)
    }
}

/// Asserts every externally visible piece of scheduler state matches.
fn assert_state_eq(a: &Side, b: &Side, preset: PolicyPreset, step: usize) {
    let at = format!("{preset} step {step}");
    assert_eq!(a.ws.queued_len(), b.ws.queued_len(), "queued_len @ {at}");
    assert_eq!(
        a.ws.busy_walkers(),
        b.ws.busy_walkers(),
        "busy_walkers @ {at}"
    );
    assert_eq!(
        a.ws.busy_per_tenant(),
        b.ws.busy_per_tenant(),
        "busy_per_tenant @ {at}"
    );
    assert_eq!(
        a.ws.walker_owners(),
        b.ws.walker_owners(),
        "walker_owners @ {at}"
    );
}

/// Asserts the accumulated per-tenant statistics match field by field.
fn assert_stats_eq(a: &Side, b: &Side, preset: PolicyPreset) {
    let (sa, sb) = (a.ws.stats(), b.ws.stats());
    assert_eq!(sa.enqueued, sb.enqueued, "{preset}: enqueued");
    assert_eq!(sa.completed, sb.completed, "{preset}: completed");
    assert_eq!(sa.stolen, sb.stolen, "{preset}: stolen (steal decisions)");
    assert_eq!(sa.total_latency, sb.total_latency, "{preset}: latency");
    assert_eq!(
        sa.total_queue_wait, sb.total_queue_wait,
        "{preset}: queue wait"
    );
    assert_eq!(
        sa.total_interleave, sb.total_interleave,
        "{preset}: interleave"
    );
    assert_eq!(sa.rejected, sb.rejected, "{preset}: rejected");
}

/// Drives both implementations through `steps` lockstep rounds of random
/// traffic. Each round advances time, completes every due walk on both
/// sides (asserting identical completions and follow-on dispatches), then
/// fires a random burst of enqueues (asserting identical accept/reject and
/// dispatch decisions). `repartition_at` optionally flips tenant 1 inactive
/// and back, exercising the WTM re-split path mid-traffic.
fn drive(
    cfg: &GpuConfig,
    preset: PolicyPreset,
    seed: u64,
    steps: usize,
    repartition: bool,
) -> (u64, u64) {
    let mut a = Side::new(cfg, SchedulerImpl::Optimized);
    let mut b = Side::new(cfg, SchedulerImpl::Reference);
    let n_tenants = cfg.walk.n_tenants;
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    // Outstanding dispatches, identical on both sides by induction; kept
    // sorted by completion cycle (stable, so ties complete in dispatch
    // order — matching the simulator's FIFO event queue).
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();

    for step in 0..steps {
        now += 1 + rng.next_below(7);

        // Complete everything due by `now`, in event order.
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let (ca, na) = a.complete(d);
            let (cb, nb) = b.complete(d);
            assert_eq!(ca, cb, "{preset}: completed walk diverged at step {step}");
            assert_eq!(
                na, nb,
                "{preset}: follow-on dispatch diverged at step {step}"
            );
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        if repartition && step == steps / 2 {
            let mut active = vec![true; n_tenants];
            active[n_tenants - 1] = false;
            a.ws.set_active_tenants(&active);
            b.ws.set_active_tenants(&active);
        }
        if repartition && step == steps / 2 + steps / 4 {
            a.ws.set_active_tenants(&vec![true; n_tenants]);
            b.ws.set_active_tenants(&vec![true; n_tenants]);
        }

        // A bursty trickle of requests: enough pressure to overflow the
        // 192-entry queue and trigger rejects, steals, and sibling pulls.
        // Traffic alternates between symmetric phases and solo phases where
        // only tenant 0 sends — steals require a tenant's PEND_WALKS
        // (including in-service walks) to reach zero while another tenant's
        // queues are loaded, which steady symmetric traffic never produces.
        let solo_phase = (step / 500) % 3 == 1;
        let burst = rng.next_below(5);
        for _ in 0..burst {
            let t = if solo_phase {
                TenantId(0)
            } else {
                TenantId(rng.next_below(n_tenants as u64) as u8)
            };
            // A smallish per-tenant working set so the PWC and page tables
            // see reuse as well as fresh subtrees.
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(50_000));
            let req = WalkRequest { tenant: t, vpn };
            let ra = a.enqueue(req, now);
            let rb = b.enqueue(req, now);
            assert_eq!(ra, rb, "{preset}: enqueue decision diverged at step {step}");
            if let Ok(Some(d)) = ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        assert_state_eq(&a, &b, preset, step);
    }

    // Drain every outstanding walk so the full lifecycle is compared.
    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let (ca, na) = a.complete(d);
        let (cb, nb) = b.complete(d);
        assert_eq!(ca, cb, "{preset}: completed walk diverged during drain");
        assert_eq!(na, nb, "{preset}: drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    assert_eq!(a.ws.busy_walkers(), 0, "{preset}: walks left in flight");
    assert_stats_eq(&a, &b, preset);
    let stats = a.ws.stats();
    (stats.stolen.iter().sum(), stats.rejected.iter().sum())
}

fn two_tenant_config(preset: PolicyPreset) -> GpuConfig {
    GpuConfig::default().for_tenants(2).with_preset(preset)
}

#[test]
fn all_presets_match_reference_two_tenants() {
    for preset in PolicyPreset::ALL {
        let cfg = two_tenant_config(preset);
        let (stolen, rejected) = drive(&cfg, preset, 0xD1FF, 4_000, false);
        // The comparison must cover the paths that matter: under DWS the
        // traffic has to provoke actual steals and queue-full rejects, or
        // the whole lockstep run proved nothing about them.
        if preset == PolicyPreset::Dws {
            assert!(stolen > 0, "traffic produced no steals under DWS");
            assert!(rejected > 0, "traffic produced no queue-full rejects");
        }
    }
}

#[test]
fn partitioned_presets_match_reference_four_tenants() {
    for preset in [
        PolicyPreset::StaticPartition,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlus,
        PolicyPreset::DwsPlusPlusConservative,
        PolicyPreset::DwsPlusPlusAggressive,
    ] {
        let cfg = GpuConfig::default()
            .with_n_sms(32)
            .for_tenants(4)
            .with_preset(preset);
        drive(&cfg, preset, 0xBEEF, 3_000, false);
    }
}

#[test]
fn repartition_mid_traffic_matches_reference() {
    for preset in [PolicyPreset::Dws, PolicyPreset::DwsPlusPlus] {
        let cfg = two_tenant_config(preset);
        drive(&cfg, preset, 0xACE5, 4_000, true);
    }
}

#[test]
fn relaxed_pend_check_matches_reference() {
    // The ablation flag flips the steal-eligibility test; cover both.
    for preset in [PolicyPreset::Dws, PolicyPreset::DwsPlusPlus] {
        let mut cfg = two_tenant_config(preset);
        cfg.walk.strict_pend_check = false;
        drive(&cfg, preset, 0xFADE, 4_000, false);
    }
}

#[test]
fn many_seeds_smoke_dws_plus_plus() {
    // Shorter runs over many seeds to vary the interleavings the epoch
    // logic sees (QUEUE_THRES, no-consecutive-steals, DIFF_THRES).
    for seed in 0..8u64 {
        let cfg = two_tenant_config(PolicyPreset::DwsPlusPlus);
        drive(&cfg, PolicyPreset::DwsPlusPlus, 1_000 + seed, 1_200, false);
    }
}

/// The three policy-arena presets match the reference across 2/3/4 tenants
/// with the steal behavior each design promises: SE-TLB is MIG-style
/// static partitioning and must never steal, while MOSAIC and DE-GUARD
/// ride DWS partitions and must provoke steals.
#[test]
fn arena_presets_match_reference_with_steal_nonvacuity() {
    for preset in PolicyPreset::ARENA {
        let mut stolen = 0;
        for n_tenants in [2usize, 3, 4] {
            // Table I's 16 walkers, rounded up to an even split.
            let cfg = GpuConfig::default()
                .with_n_sms(8 * n_tenants)
                .with_walkers(16usize.div_ceil(n_tenants) * n_tenants)
                .for_tenants(n_tenants)
                .with_preset(preset);
            for seed in [0xB1u64, 0xB2, 0xB3] {
                stolen += drive(&cfg, preset, seed, 4_000, false).0;
            }
        }
        if preset == PolicyPreset::SubEntryTlb {
            assert_eq!(stolen, 0, "SE-TLB static partitions must never steal");
        } else {
            assert!(stolen > 0, "{preset}: arena traffic produced no steals");
        }
    }
}
