//! The deterministic discrete-event simulation of N tenants on one GPU.
//!
//! Warps execute at memory-operation granularity: each warp alternates
//! compute bursts (served by its SM's issue timeline) with memory
//! instructions whose coalesced references traverse the full translation
//! path — private L1 TLB, shared (or per-tenant) L2 TLB, and on a miss the
//! page-walk subsystem — before the data access goes through the L1 cache
//! and the shared L2/DRAM. All contended resources (walk queues, walkers,
//! L2 banks, DRAM channels, MSHRs, merge entries) back-pressure the pipeline
//! exactly where the hardware would.

use walksteal_gpu::{MemRef, SmState};
use walksteal_mem::{AccessKind, MemSystem};
use walksteal_sim_core::metrics::{MetricsRegistry, SharedMetrics};
use walksteal_sim_core::trace::{Observer, TraceEvent, TraceKind};
use walksteal_sim_core::{
    BudgetKind, Cycle, EventQueue, FnvMap, LineAddr, Ppn, RunBudget, RunDiag, SimError, TenantId,
    Vpn, WalkerId,
};
use walksteal_vm::{
    walk::WalkContext, ArenaTlb, FrameAlloc, MaskState, PageTable, Tlb, WalkRequest, WalkSubsystem,
};
use walksteal_workloads::{AppId, AppProfile, TenantStream, WarpCursor, MAX_DIVERGENCE};

use crate::config::GpuConfig;
use crate::metrics::{Sample, SimResult, TenantResult};
use crate::scenario::{Action, ChurnReport, Tenancy, TenantChurn};

/// A translation waiting on an outstanding walk: (sm, warp, reference).
type Waiter = (usize, usize, MemRef);

/// The most SMs, and the most warps per SM, a simulation holds: an
/// [`Event`] carries both indices as `u16`.
/// [`GpuConfig::try_for_tenants`] rejects larger machines.
pub(crate) const MAX_SMS_OR_WARPS: usize = u16::MAX as usize;

/// Events between wall-clock budget samples (`Instant::now` is too costly
/// per event).
const WALL_SAMPLE_STRIDE: u64 = 1 << 16;

/// The first wall-clock sampling boundary strictly after `count` processed
/// events: 64 Ki, 128 Ki, ... — never 0, so a fresh (or resumed) count does
/// not sample before any work has run, and a batched count that jumps past a
/// boundary still triggers at the next comparison.
fn next_wall_boundary(count: u64) -> u64 {
    (count / WALL_SAMPLE_STRIDE + 1) * WALL_SAMPLE_STRIDE
}

/// Discrete events driving the simulation.
///
/// The payload is deliberately narrow (`u16` indices, `u8` walker id): the
/// calendar queue stores bare payloads (a bucket's cycle is implicit), so
/// eight bytes per event keep its buckets and the batch buffer dense; the
/// hot loop moves millions of these per second.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The warp begins its next operation (compute burst + memory op).
    WarpStart { sm: u16, warp: u16 },
    /// The warp's compute burst finished; its memory references issue.
    WarpMem { sm: u16, warp: u16 },
    /// A page-table walker finished its walk.
    WalkerDone { walker: WalkerId },
    /// One memory reference's data returned to the warp.
    RefDone { sm: u16, warp: u16 },
    /// Periodic timeline snapshot.
    TakeSample,
    /// Scenario-timeline actions (arrive/depart/repartition) are due.
    ScenarioStep,
    /// Periodic QoS-controller SLO check.
    SloCheck,
}

const _: () = assert!(
    std::mem::size_of::<Event>() <= 8,
    "Event payload grew past 8 bytes; keep the hot-loop event small"
);

/// Per-warp runtime state: only what every event of the warp touches. The
/// warp's stream position is its [`WarpCursor`] and its memory
/// instruction's references are its slots in [`Simulation::slots`].
#[derive(Debug, Clone, Copy, Default)]
struct Warp {
    /// References of the in-flight memory instruction still outstanding.
    outstanding: u8,
    /// References the memory instruction issues (its filled slots).
    refs: u8,
    /// Whether this warp exhausted its execution budget and is waiting for
    /// the rest of its tenant's warps.
    finished: bool,
}

/// Per-tenant runtime state: the tenant's progress, its residency, and
/// what the QoS controller keeps about it.
struct Tenant {
    app: AppId,
    /// Global warp count for this tenant.
    warps_total: usize,
    warps_finished: usize,
    launch_cycle: Cycle,
    /// Warp instructions issued during the current execution.
    instr_this_exec: u64,
    /// (instructions, completion cycle) of each completed execution.
    completed: Vec<(u64, Cycle)>,
    /// All warp instructions issued, including the in-progress execution.
    /// Frozen once the tenant departs: its warps issue nothing more.
    instr_total: u64,
    /// Demand (non-retry) L2 TLB misses.
    l2_demand_misses: u64,
    /// L2 TLB hits, retries included.
    l2_tlb_hits: u64,
    /// L2 TLB misses, retries included.
    l2_tlb_misses: u64,
    /// Resident right now (arrived, not departed or evicted).
    active: bool,
    arrived_at: Option<u64>,
    departed_at: Option<u64>,
    evicted: bool,
    /// Counted toward the stop condition (completed an execution, departed,
    /// or was evicted).
    resolved: bool,
    /// Excluded from the walker partition by the QoS controller.
    throttled: bool,
    /// Consecutive violating checks while this tenant is an SLO victim.
    violations: u32,
    slo_checks: u64,
    slo_met: u64,
    /// Checks during which the tenant sat throttled.
    throttled_checks: u64,
    /// Walk-latency histogram total at the last counted check.
    last_check_walks: u64,
    /// `WalkStats::enqueued` at the last check, for aggressor attribution.
    last_enqueued: u64,
    /// Declared p99 walk-latency SLO.
    slo_target: Option<u64>,
}

/// A deterministic simulation of co-running tenants (see crate docs).
pub struct Simulation {
    cfg: GpuConfig,
    events: EventQueue<Event>,
    now: Cycle,
    sms: Vec<SmState>,
    /// All warps, flattened as `sm * warps_per_sm + warp`; the hot loop
    /// indexes this constantly and a flat vector keeps it one bounds check
    /// and no pointer chase.
    warps: Vec<Warp>,
    /// Each warp's stream position, indexed like `warps`.
    cursors: Vec<WarpCursor>,
    /// What a tenant's warps share of their streams: one per tenant.
    streams: Vec<TenantStream>,
    /// The coalesced references of every warp's current memory
    /// instruction: warp `wi` owns `slots[wi * slot_stride..][..slot_stride]`.
    slots: Vec<MemRef>,
    /// Slots per warp: the largest tenant divergence.
    slot_stride: usize,
    /// Events due at the current cycle, in push order: the next batch of
    /// this cycle. Pushing them here skips the event ring; construction
    /// seeds it with every warp's first `WarpStart`.
    ready: Vec<Event>,
    tenants: Vec<Tenant>,
    /// The L2 TLB, in the organization the preset selected: shared,
    /// per-tenant private (S-TLB), or a policy-arena design.
    l2: ArenaTlb,
    walk: WalkSubsystem,
    mem: MemSystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mask: Option<MaskState>,
    /// Outstanding walks keyed by (tenant, vpn). FNV-hashed: the keys are
    /// small integers, iteration order is never observed, and the map sits
    /// on the L2-miss path.
    merge: FnvMap<(TenantId, Vpn), Vec<Waiter>>,
    /// Free list of waiter vectors for `merge`, so the walk-merge path
    /// recycles buffers instead of allocating one per walk.
    waiter_pool: Vec<Vec<Waiter>>,
    /// Translations blocked on a full resource (walk queue, merge table, or
    /// L1-TLB MSHRs), re-tried when a walker completion frees capacity.
    /// Parked per tenant and woken round-robin so a walk-intensive tenant's
    /// backlog cannot starve another tenant's rare misses.
    parked: Vec<std::collections::VecDeque<Waiter>>,
    parked_rr: usize,
    /// The next `events_processed` boundary (a 64 Ki multiple) at which the
    /// wall-clock budget is sampled; batched counting can jump past a
    /// boundary, so the check compares against this instead of testing
    /// divisibility.
    next_wall_check: u64,
    /// SMs assigned to each tenant (`n_sms / n_tenants`).
    sms_per_tenant: usize,
    events_processed: u64,
    /// Tenants with >= 1 completed execution.
    tenants_done: usize,
    stopped: bool,
    timeline: Vec<Sample>,
    /// Per-tenant instruction counts at the previous sample.
    last_sample_instr: Vec<u64>,
    /// Trace sink; [`Observer::off`] when tracing is off.
    obs: Observer,
    /// Filled with the run's final counters when the run ends.
    metrics: Option<SharedMetrics>,
    /// The workload seed, re-emitted in the trace header for replay.
    seed: u64,
    /// The scenario timeline, the QoS controller's policy and the churn
    /// counters; a tenant list runs the same path with an empty timeline.
    tenancy: Tenancy,
}

impl Simulation {
    /// Builds a simulation of `profiles` (one tenant per entry) on `cfg`,
    /// already checked and specialized for them, running `tenancy` with
    /// an explicit [`Observer`] and metrics handle attached: the one
    /// construction path, used by `SimulationBuilder` (the only public way
    /// to build a [`Simulation`]) for a tenant list and a scenario alike.
    /// Taking behavioral profiles rather than [`AppId`]s lets synthetic
    /// tenants — profiles outside the 13 calibrated apps, as drawn by the
    /// scenario fuzzer — run through the exact same path (an `AppId`'s
    /// profile embeds its own id).
    ///
    /// Every warp's first `WarpStart` is ready, and
    /// [`on_warp_start`](Self::on_warp_start) gates on residency, so a
    /// later arrival stays quiescent until its cycle; the walkers start
    /// split among the cycle-0 residents.
    pub(crate) fn new(
        cfg: GpuConfig,
        profiles: &[AppProfile],
        tenancy: Tenancy,
        seed: u64,
        obs: Observer,
        metrics: Option<SharedMetrics>,
    ) -> Self {
        let n_tenants = profiles.len();
        let sms_per_tenant = cfg.n_sms / n_tenants;
        let slot_stride = profiles.iter().map(|p| p.divergence).max().unwrap_or(1);
        // `check_profiles` bounds every divergence; the warp record counts
        // references in a `u8`.
        assert!(
            slot_stride <= MAX_DIVERGENCE,
            "divergence above a warp's {MAX_DIVERGENCE} threads"
        );

        let streams: Vec<TenantStream> = profiles
            .iter()
            .enumerate()
            .map(|(t, &p)| {
                let seed = seed ^ (0x9E37 * (t as u64 + 1));
                TenantStream::new(p, seed, cfg.instructions_per_warp)
            })
            .collect();
        let n_warps = cfg.n_sms * cfg.warps_per_sm;
        let mut sms = Vec::with_capacity(cfg.n_sms);
        let mut cursors = Vec::with_capacity(n_warps);
        let mut ready = Vec::with_capacity(n_warps);
        for sm in 0..cfg.n_sms {
            let tenant = TenantId((sm / sms_per_tenant) as u8);
            sms.push(SmState::new(cfg.sm, tenant));
            let local_sm = sm % sms_per_tenant;
            for w in 0..cfg.warps_per_sm {
                let warp_index = (local_sm * cfg.warps_per_sm + w) as u64;
                cursors.push(streams[tenant.index()].cursor(warp_index));
                ready.push(Event::WarpStart {
                    sm: sm as u16,
                    warp: w as u16,
                });
            }
        }
        let no_ref = MemRef {
            vpn: Vpn(0),
            line_in_page: 0,
        };

        let tenants = profiles
            .iter()
            .map(|p| Tenant {
                app: p.id,
                warps_total: sms_per_tenant * cfg.warps_per_sm,
                warps_finished: 0,
                launch_cycle: Cycle::ZERO,
                instr_this_exec: 0,
                completed: Vec::new(),
                instr_total: 0,
                l2_demand_misses: 0,
                l2_tlb_hits: 0,
                l2_tlb_misses: 0,
                active: false,
                arrived_at: None,
                departed_at: None,
                evicted: false,
                resolved: false,
                throttled: false,
                violations: 0,
                slo_checks: 0,
                slo_met: 0,
                throttled_checks: 0,
                last_check_walks: 0,
                last_enqueued: 0,
                slo_target: None,
            })
            .collect();

        let l2 = match (cfg.l2_arena, cfg.l2_tlb_private) {
            (Some(kind), _) => ArenaTlb::new(kind, cfg.l2_tlb, n_tenants, cfg.page_size),
            (None, true) => ArenaTlb::Private(vec![Tlb::new(cfg.l2_tlb, n_tenants); n_tenants]),
            (None, false) => ArenaTlb::Shared(Tlb::new(cfg.l2_tlb, n_tenants)),
        };

        // Mosaic relies on each aligned page group being physically
        // contiguous; its preset switches the tables to the
        // contiguity-reserving allocator.
        let page_tables = (0..n_tenants)
            .map(|t| {
                PageTable::with_reservation(TenantId(t as u8), cfg.page_size, cfg.reserve_pages())
            })
            .collect();

        let mut sim = Simulation {
            walk: WalkSubsystem::new(cfg.walk.clone()),
            mem: MemSystem::new(cfg.mem),
            mask: cfg.mask.map(|m| MaskState::new(m, n_tenants)),
            sms,
            warps: vec![Warp::default(); n_warps],
            cursors,
            streams,
            slots: vec![no_ref; n_warps * slot_stride],
            slot_stride,
            ready,
            tenants,
            l2,
            page_tables,
            frames: FrameAlloc::new(),
            // Sized to the merge-table limit so the L2-miss path never
            // rehashes mid-run.
            merge: FnvMap::with_capacity_and_hasher(cfg.merge_capacity, Default::default()),
            waiter_pool: Vec::new(),
            parked: (0..n_tenants)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            parked_rr: 0,
            next_wall_check: next_wall_boundary(0),
            sms_per_tenant,
            events: EventQueue::new(),
            now: Cycle::ZERO,
            events_processed: 0,
            tenants_done: 0,
            stopped: false,
            timeline: Vec::new(),
            last_sample_instr: vec![0; n_tenants],
            obs,
            metrics,
            seed,
            tenancy,
            cfg,
        };
        for tenant in &mut sim.tenants[..sim.tenancy.resident_at_start] {
            tenant.active = true;
            tenant.arrived_at = Some(0);
        }
        for &(t, cycles) in &sim.tenancy.slo_targets {
            sim.tenants[t].slo_target = Some(cycles);
        }
        // Apply what else is due at cycle 0 (an explicit repartition); the
        // initial walker split below is uncounted.
        sim.on_scenario_step();
        if sim.tenancy.resident_at_start < n_tenants {
            let walker_active = sim.walker_active();
            sim.walk.set_active_tenants(&walker_active);
        }
        if let Some(policy) = sim.tenancy.slo {
            sim.schedule(Cycle(policy.check_interval), Event::SloCheck);
        }
        sim
    }

    /// Applies every scenario-timeline action due at `now`, then schedules
    /// the next [`Event::ScenarioStep`].
    fn on_scenario_step(&mut self) {
        while let Some(&(cycle, _)) = self.tenancy.timeline.get(self.tenancy.next) {
            if cycle > self.now.0 {
                self.schedule(Cycle(cycle), Event::ScenarioStep);
                return;
            }
            let i = self.tenancy.next;
            self.tenancy.next += 1;
            match self.tenancy.timeline[i].1 {
                Action::Arrive(t) => self.on_tenant_arrive(t),
                Action::Depart(t) => self.on_tenant_depart(t, false),
                Action::Repartition(ref active) => {
                    self.walk.set_active_tenants(active);
                    self.tenancy.repartitions += 1;
                }
            }
        }
    }

    /// A tenant arrives after cycle 0: its warps launch and the walker
    /// partition re-splits to include it (paper §VI.C).
    fn on_tenant_arrive(&mut self, t: usize) {
        let now = self.now;
        let tenant = &mut self.tenants[t];
        debug_assert!(!tenant.active, "tenant {t} arrived twice");
        tenant.active = true;
        tenant.arrived_at = Some(now.0);
        tenant.launch_cycle = now;
        let sm_base = t * self.sms_per_tenant;
        for sm in sm_base..sm_base + self.sms_per_tenant {
            for warp in 0..self.cfg.warps_per_sm {
                self.ready.push(Event::WarpStart {
                    sm: sm as u16,
                    warp: warp as u16,
                });
            }
        }
        self.repartition_walkers();
    }

    /// A tenant leaves (voluntarily or evicted by the QoS controller):
    /// cancel its queued walks, shoot down its TLB entries, drop its merge
    /// waiters and parked translations, and re-split the walkers among the
    /// remaining residents. Warps freeze where they are — the residency
    /// gates in the warp handlers stop their progress.
    fn on_tenant_depart(&mut self, t: usize, evicted: bool) {
        let now = self.now;
        let tid = TenantId(t as u8);
        let tenant = &mut self.tenants[t];
        if !tenant.active {
            // Already gone (e.g. evicted before its scripted departure).
            return;
        }
        tenant.active = false;
        tenant.departed_at = Some(now.0);
        tenant.throttled = false;
        if evicted {
            tenant.evicted = true;
            self.tenancy.evictions += 1;
        }

        // Queued (not yet in-service) walks are cancelled; in-service walks
        // complete normally and find no waiters.
        self.walk.cancel_tenant(tid);

        // Release the L1-TLB MSHRs held by waiters merged onto the tenant's
        // outstanding walks, then drop the waiters. Keys are collected in
        // VPN order so the release sequence is deterministic regardless of
        // map iteration order.
        let mut keys: Vec<(TenantId, Vpn)> =
            self.merge.keys().filter(|k| k.0 == tid).copied().collect();
        keys.sort_by_key(|k| k.1 .0);
        for key in keys {
            let mut waiters = self.merge.remove(&key).expect("key just listed");
            for &(sm, _, _) in &waiters {
                self.sms[sm].release_tlb_mshr();
            }
            waiters.clear();
            self.waiter_pool.push(waiters);
        }
        self.parked[t].clear();

        // TLB shootdown: the departing tenant's translations are dead.
        self.l2.invalidate_tenant(tid, now);
        let sm_base = t * self.sms_per_tenant;
        for sm in sm_base..sm_base + self.sms_per_tenant {
            self.sms[sm].flush_l1_tlb(now);
        }

        self.repartition_walkers();
        self.resolve_tenant(t);
    }

    /// The walker-partition view: resident and not throttled. When the
    /// controller has throttled *every* resident tenant (e.g. the pinned
    /// last tenant was the aggressor and its peers have since departed),
    /// the throttles are moot — there is no victim left to protect — so
    /// the partition falls back to the full resident set rather than
    /// leaving the walkers ownerless.
    fn walker_active(&self) -> Vec<bool> {
        let masked: Vec<bool> = self
            .tenants
            .iter()
            .map(|t| t.active && !t.throttled)
            .collect();
        if masked.contains(&true) {
            masked
        } else {
            self.tenants.iter().map(|t| t.active).collect()
        }
    }

    /// Re-splits the walker partition to the current resident-and-not-
    /// throttled tenant set.
    fn repartition_walkers(&mut self) {
        let walker_active = self.walker_active();
        if !walker_active.contains(&true) {
            // Every tenant has departed (a timeline may empty the GPU);
            // there is no one to own the walkers and nothing left to walk.
            return;
        }
        self.tenancy.repartitions += 1;
        self.walk.set_active_tenants(&walker_active);
    }

    /// Marks tenant `t` as counted toward the stop condition (completed an
    /// execution, departed, or was evicted); the run stops once every
    /// tenant is.
    fn resolve_tenant(&mut self, t: usize) {
        let tenant = &mut self.tenants[t];
        if tenant.resolved {
            return;
        }
        tenant.resolved = true;
        self.tenants_done += 1;
        if self.tenants_done == self.tenants.len() {
            self.stopped = true;
        }
    }

    /// One periodic QoS-controller check (see [`SloPolicy`]): read each
    /// targeted tenant's cumulative p99 walk latency from the walk layer's
    /// latency histogram; on a violation throttle the aggressor (the other
    /// resident tenant that enqueued the most walks since the last check),
    /// and after `evict_after` consecutive violating checks evict it. When
    /// no victim is violating, throttles lift.
    fn on_slo_check(&mut self) {
        let Some(policy) = self.tenancy.slo else {
            return;
        };
        if !self.stopped {
            self.schedule(self.now + policy.check_interval, Event::SloCheck);
        }
        let n = self.tenants.len();

        // Walks enqueued per tenant since the last check — the aggressor
        // attribution signal.
        let stats = self.walk.stats();
        let delta_enq: Vec<u64> = (self.tenants.iter().zip(&stats.enqueued))
            .map(|(t, &enqueued)| enqueued - t.last_enqueued)
            .collect();

        // Read each targeted resident's p99, collecting verdicts before
        // acting on them. A tenant with no completed walk gives none.
        // `None` verdict: the victim completed too few walks since its last
        // counted check — no signal, the check is uncounted and the victim's
        // violation streak decays (a quiet victim is not a suffering one, and
        // must not pin a throttle forever).
        let mut verdicts: Vec<(usize, Option<bool>, u64)> = Vec::new();
        for (t, (tenant, latency)) in self.tenants.iter().zip(&stats.latency).enumerate() {
            let (Some(target), true) = (tenant.slo_target, tenant.active) else {
                continue;
            };
            let total = latency.total();
            if total == 0 {
                continue;
            }
            if total - tenant.last_check_walks < policy.min_samples {
                verdicts.push((t, None, total));
            } else {
                verdicts.push((t, Some(latency.percentile(0.99) <= target), total));
            }
        }

        let mut any_violation = false;
        for (victim, verdict, total) in verdicts {
            let v = &mut self.tenants[victim];
            let Some(met) = verdict else {
                v.violations = 0;
                continue;
            };
            v.slo_checks += 1;
            v.last_check_walks = total;
            if met {
                v.slo_met += 1;
                v.violations = 0;
                continue;
            }
            v.violations += 1;
            any_violation = true;
            let violations = v.violations;

            // Aggressor: the other resident tenant that enqueued the most
            // walks since the last check (ties break to the lowest index).
            let aggressor = (0..n)
                .filter(|&t| t != victim && self.tenants[t].active)
                .max_by_key(|&t| (delta_enq[t], std::cmp::Reverse(t)));
            let Some(aggr) = aggressor else { continue };
            if violations >= policy.evict_after {
                self.on_tenant_depart(aggr, true);
                self.tenants[victim].violations = 0;
            } else if !self.tenants[aggr].throttled {
                self.tenants[aggr].throttled = true;
                self.tenancy.throttles += 1;
                self.repartition_walkers();
            }
        }

        // Victims recovered: lift every throttle in one repartition.
        if !any_violation
            && self.tenants.iter().all(|t| t.violations == 0)
            && self.tenants.iter().any(|t| t.throttled)
        {
            self.tenants.iter_mut().for_each(|t| t.throttled = false);
            self.repartition_walkers();
        }

        for (t, delta) in self.tenants.iter_mut().zip(delta_enq) {
            if t.active && t.throttled {
                t.throttled_checks += 1;
            }
            t.last_enqueued += delta;
        }
    }

    /// Flat index of warp `warp` on SM `sm` (see the `warps` field).
    #[inline]
    fn wi(&self, sm: usize, warp: usize) -> usize {
        sm * self.cfg.warps_per_sm + warp
    }

    /// Schedules `ev` at cycle `at`: on the ready list when it is due at
    /// the current cycle, else in the event queue. Either way it runs after
    /// every event scheduled before it for the same cycle.
    #[inline]
    fn schedule(&mut self, at: Cycle, ev: Event) {
        if at == self.now {
            self.ready.push(ev);
        } else {
            self.events.push(at, ev);
        }
    }

    /// Runs to the stop condition (every tenant completed >= 1 execution)
    /// and returns the collected metrics.
    pub fn run(self) -> SimResult {
        self.run_budgeted(&RunBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Like [`run`](Self::run), but aborts with
    /// [`SimError::BudgetExceeded`] — carrying a partial-result
    /// [`RunDiag`] — if the run blows through `budget` before reaching its
    /// stop condition. The event/cycle/wall-clock behavior of the run
    /// itself is identical to `run`; an unlimited budget adds no checks to
    /// the hot loop beyond one branch per event.
    ///
    /// Wall-clock time is sampled when the processed-event count crosses a
    /// 64 Ki boundary (checked between same-cycle event batches), so a
    /// wall-clock abort can overshoot by the time those events take. Event
    /// and cycle budgets are exact and deterministic.
    pub fn run_budgeted(mut self, budget: &RunBudget) -> Result<SimResult, SimError> {
        let (n_tenants, n_walkers, seed) = (
            self.tenants.len() as u32,
            self.cfg.walk.n_walkers as u32,
            self.seed,
        );
        self.obs.trace(TraceKind::Meta, || TraceEvent::RunStart {
            cycle: 0,
            n_tenants,
            n_walkers,
            seed,
        });
        if let Some(interval) = self.cfg.sample_interval {
            self.schedule(Cycle(interval), Event::TakeSample);
        }
        let limited = !budget.is_unlimited();
        let started = std::time::Instant::now();
        // Cycle-batched drain: pull every same-cycle event in one queue
        // operation, then dispatch them in the exact order the scalar
        // per-event loop would have popped them. Events scheduled at the
        // current cycle while a batch runs collect on the ready list, which
        // becomes the next batch of the same cycle, preserving FIFO order
        // within the cycle.
        let max_cycles = self.cfg.max_cycles;
        let mut batch: Vec<Event> = Vec::with_capacity(256);
        'run: loop {
            if self.ready.is_empty() {
                let Some(at) = self.events.drain_cycle_into(&mut batch) else {
                    break;
                };
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                if at.0 > max_cycles {
                    break;
                }
            } else {
                std::mem::swap(&mut batch, &mut self.ready);
            }
            // Budget checks hoist out of the per-event loop: `now` is fixed
            // for the whole batch (the cycle budget can only trip before its
            // first event) and the event budget admits a computable prefix
            // of the batch, so the dispatch loop below carries no budget
            // branches at all. The trigger points — which event a violation
            // fires before, and the diagnostic it carries — are identical
            // to checking per event, in the scalar check order (events,
            // then cycles, then wall clock).
            let mut cut = batch.len();
            if limited {
                if let Some(limit) = budget.max_events {
                    let room = limit.saturating_sub(self.events_processed);
                    cut = cut.min(usize::try_from(room).unwrap_or(usize::MAX));
                    if cut == 0 && !batch.is_empty() {
                        return Err(self.budget_err(BudgetKind::Events, limit));
                    }
                }
                if let Some(limit) = budget.max_cycles {
                    if self.now.0 > limit {
                        return Err(self.budget_err(BudgetKind::Cycles, limit));
                    }
                }
            }
            for idx in 0..cut {
                match batch[idx] {
                    Event::WarpStart { sm, warp } => self.on_warp_start(sm.into(), warp.into()),
                    Event::WarpMem { sm, warp } => self.on_warp_mem(sm.into(), warp.into()),
                    Event::WalkerDone { walker } => self.on_walker_done(walker),
                    Event::RefDone { sm, warp } => self.on_ref_done(sm.into(), warp.into()),
                    Event::TakeSample => self.on_sample(),
                    Event::ScenarioStep => self.on_scenario_step(),
                    Event::SloCheck => self.on_slo_check(),
                }
                if self.stopped {
                    self.events_processed += idx as u64 + 1;
                    // Replicate the scalar loop's final `now`: it pops the
                    // next event (same cycle if the batch has remainder or
                    // the ready list holds one, else the queue's next cycle)
                    // before noticing the stop.
                    if idx + 1 == batch.len() && self.ready.is_empty() {
                        if let Some(c) = self.events.next_cycle() {
                            self.now = c;
                        }
                    }
                    break 'run;
                }
            }
            self.events_processed += cut as u64;
            if limited {
                if cut < batch.len() {
                    let limit = budget
                        .max_events
                        .expect("only the event budget shortens a batch");
                    return Err(self.budget_err(BudgetKind::Events, limit));
                }
                if let Some(limit) = budget.max_wall {
                    if self.events_processed >= self.next_wall_check {
                        self.next_wall_check = next_wall_boundary(self.events_processed);
                        if started.elapsed() > limit {
                            return Err(
                                self.budget_err(BudgetKind::WallClock, limit.as_millis() as u64)
                            );
                        }
                    }
                }
            }
            batch.clear();
        }
        Ok(self.collect())
    }

    fn diag(&self) -> RunDiag {
        RunDiag {
            events: self.events_processed,
            cycles: self.now.0,
            tenants_done: self.tenants_done,
            tenants_total: self.tenants.len(),
        }
    }

    /// The budget violation firing at this point of the run.
    fn budget_err(&self, kind: BudgetKind, limit: u64) -> SimError {
        SimError::BudgetExceeded {
            kind,
            limit,
            diag: self.diag(),
        }
    }

    fn on_sample(&mut self) {
        // One pass, one allocation (the sample's own delta vector, which
        // outlives this call inside the timeline): read each tenant's
        // running total, difference it against the previous sample, and
        // update the previous-sample slot in place.
        let mut delta: Vec<u64> = Vec::with_capacity(self.tenants.len());
        for (t, last) in self.last_sample_instr.iter_mut().enumerate() {
            let total = self.tenants[t].instr_total;
            delta.push(total - *last);
            *last = total;
        }
        let (queued, busy) = (self.walk.queued_len(), self.walk.busy_walkers());
        if !self.obs.is_off() {
            let (cycle, busy_per_tenant) = (self.now.0, self.walk.busy_per_tenant());
            self.obs
                .trace(TraceKind::Queue, || TraceEvent::QueueSample {
                    cycle,
                    queued: queued as u64,
                    busy: busy as u64,
                    busy_per_tenant: busy_per_tenant.iter().map(|&b| b as u32).collect(),
                });
        }
        self.timeline.push(Sample {
            cycle: self.now.0,
            queued_walks: queued,
            busy_walkers: busy,
            instructions_delta: delta,
        });
        let interval = self
            .cfg
            .sample_interval
            .expect("sample event only scheduled when sampling enabled");
        self.schedule(self.now + interval, Event::TakeSample);
    }

    fn on_warp_start(&mut self, sm: usize, warp: usize) {
        let tenant = self.sms[sm].tenant();
        if !self.tenants[tenant.index()].active {
            // Not resident (pre-arrival or departed): stay quiescent. An
            // arrival re-pushes this warp's `WarpStart`.
            return;
        }
        let wi = self.wi(sm, warp);
        // Generate the next op straight into the warp's slots: the stream
        // emits references already coalesced (distinct, in first-appearance
        // order), and the slots travel in the simulation to keep events
        // small.
        let base = wi * self.slot_stride;
        let slots = &mut self.slots[base..base + self.slot_stride];
        let Some((compute, n)) = self.streams[tenant.index()].next_op(&mut self.cursors[wi], slots)
        else {
            self.on_warp_finished(sm, warp, tenant);
            return;
        };
        let instructions = compute + 1;
        let end = self.sms[sm].issue_burst(self.now, instructions);
        let t = &mut self.tenants[tenant.index()];
        t.instr_this_exec += instructions;
        t.instr_total += instructions;

        debug_assert!(n > 0, "memory op with no references");
        let w = &mut self.warps[wi];
        w.outstanding = n as u8;
        w.refs = n as u8;
        self.schedule(
            end,
            Event::WarpMem {
                sm: sm as u16,
                warp: warp as u16,
            },
        );
    }

    fn on_warp_mem(&mut self, sm: usize, warp: usize) {
        if !self.tenants[self.sms[sm].tenant().index()].active {
            // The tenant departed between the compute burst's issue and its
            // memory phase; the references stay pending, frozen.
            return;
        }
        // Every coalesced reference of the instruction issues this cycle,
        // in slot order.
        let wi = self.wi(sm, warp);
        let base = wi * self.slot_stride;
        for k in 0..usize::from(self.warps[wi].refs) {
            let r = self.slots[base + k];
            self.begin_ref(sm, warp, r, false);
        }
    }

    /// Drives one coalesced reference through translation and then data.
    fn begin_ref(&mut self, sm: usize, warp: usize, r: MemRef, is_retry: bool) {
        // L1 TLB.
        if let Some(ppn) = self.sms[sm].probe_l1_tlb(r.vpn) {
            self.data_access(sm, warp, r, ppn, self.now);
            return;
        }
        self.after_l1_miss(sm, warp, r, is_retry);
    }

    /// The L1-TLB-miss tail of [`begin_ref`](Self::begin_ref): MSHR
    /// allocation, L2 TLB, and the walk-merge path.
    fn after_l1_miss(&mut self, sm: usize, warp: usize, r: MemRef, is_retry: bool) {
        let tenant = self.sms[sm].tenant();
        if !self.sms[sm].try_take_tlb_mshr() {
            self.parked[tenant.index()].push_back((sm, warp, r));
            return;
        }

        // L2 TLB (shared or per-tenant private).
        let now = self.now;
        let l2_lat = self.cfg.l2_tlb_latency;
        let hit = self.l2.probe(tenant, r.vpn);
        if let Some(mask) = &mut self.mask {
            mask.on_l2_tlb_probe(tenant, hit.is_some(), now);
        }
        let t = &mut self.tenants[tenant.index()];
        if hit.is_some() {
            t.l2_tlb_hits += 1;
        } else {
            t.l2_tlb_misses += 1;
            if !is_retry {
                t.l2_demand_misses += 1;
            }
        }
        if let Some(ppn) = hit {
            self.sms[sm].fill_l1_tlb(r.vpn, ppn, now + l2_lat);
            self.sms[sm].release_tlb_mshr();
            self.data_access(sm, warp, r, ppn, now + l2_lat);
            return;
        }

        // L2 TLB miss: merge with an outstanding walk or start a new one.
        let key = (tenant, r.vpn);
        if let Some(waiters) = self.merge.get_mut(&key) {
            waiters.push((sm, warp, r));
            return;
        }
        if self.merge.len() >= self.cfg.merge_capacity {
            self.sms[sm].release_tlb_mshr();
            self.parked[tenant.index()].push_back((sm, warp, r));
            return;
        }
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: self.mask.as_ref(),
            obs: &mut self.obs,
        };
        match self
            .walk
            .try_enqueue(WalkRequest { tenant, vpn: r.vpn }, now + l2_lat, &mut ctx)
        {
            Ok(dispatched) => {
                let mut waiters = self.waiter_pool.pop().unwrap_or_default();
                waiters.push((sm, warp, r));
                self.merge.insert(key, waiters);
                if let Some(d) = dispatched {
                    self.schedule(d.done_at, Event::WalkerDone { walker: d.walker });
                }
            }
            Err(_) => {
                self.sms[sm].release_tlb_mshr();
                self.parked[tenant.index()].push_back((sm, warp, r));
            }
        }
    }

    fn on_walker_done(&mut self, walker: WalkerId) {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: self.mask.as_ref(),
            obs: &mut self.obs,
        };
        let (done, next) = self.walk.on_walker_done(walker, self.now, &mut ctx);
        if let Some(d) = next {
            self.schedule(d.done_at, Event::WalkerDone { walker: d.walker });
        }

        // Fill the L2 TLB (MASK may veto the shared-TLB fill).
        let now = self.now;
        let may_fill = match &self.mask {
            Some(mask) => mask.try_take_fill_token(done.tenant),
            None => true,
        };
        if may_fill && self.tenants[done.tenant.index()].active {
            self.l2.fill(done.tenant, done.vpn, done.ppn, now);
        }

        // Wake every waiter merged onto this walk; their data accesses all
        // issue at `now`.
        if let Some(mut waiters) = self.merge.remove(&(done.tenant, done.vpn)) {
            for &(sm, warp, r) in &waiters {
                self.sms[sm].fill_l1_tlb(r.vpn, done.ppn, now);
                self.sms[sm].release_tlb_mshr();
                self.data_access(sm, warp, r, done.ppn, now);
            }
            waiters.clear();
            self.waiter_pool.push(waiters);
        }

        // The completion freed capacity (a queue slot, merge entry, and
        // MSHRs); wake a few parked translations, rotating across tenants so
        // one tenant's backlog cannot monopolize freed slots. Each retry
        // re-checks all resources and re-parks if still blocked.
        let n = self.parked.len();
        let mut woken = 0;
        let mut scanned = 0;
        while woken < 4 && scanned < 2 * n {
            let t = self.parked_rr % n;
            self.parked_rr = self.parked_rr.wrapping_add(1);
            scanned += 1;
            if let Some((sm, warp, r)) = self.parked[t].pop_front() {
                woken += 1;
                self.begin_ref(sm, warp, r, true);
            }
        }
    }

    /// The data phase of a reference: L1 cache, then shared L2/DRAM.
    fn data_access(&mut self, sm: usize, warp: usize, r: MemRef, ppn: Ppn, at: Cycle) {
        // `ppn` counts 4 KB frame granules (large pages reserve several),
        // so the page's base line is ppn * 32 regardless of page size.
        let line = LineAddr(ppn.0 * 32 + u64::from(r.line_in_page));
        let l1_lat = self.sms[sm].l1_hit_latency();
        let done_at = if self.sms[sm].access_l1_cache(line) {
            at + l1_lat
        } else {
            let access = self.mem.access(line, at + l1_lat, AccessKind::Data);
            at + l1_lat + access.latency
        };
        self.schedule(
            done_at,
            Event::RefDone {
                sm: sm as u16,
                warp: warp as u16,
            },
        );
    }

    fn on_ref_done(&mut self, sm: usize, warp: usize) {
        let wi = self.wi(sm, warp);
        let w = &mut self.warps[wi];
        debug_assert!(w.outstanding > 0, "ref completion without outstanding refs");
        w.outstanding -= 1;
        if w.outstanding == 0 {
            self.ready.push(Event::WarpStart {
                sm: sm as u16,
                warp: warp as u16,
            });
        }
    }

    /// A warp exhausted its execution budget.
    fn on_warp_finished(&mut self, sm: usize, warp: usize, tenant: TenantId) {
        let wi = self.wi(sm, warp);
        let w = &mut self.warps[wi];
        debug_assert!(!w.finished, "warp finished twice");
        w.finished = true;
        let t = &mut self.tenants[tenant.index()];
        t.warps_finished += 1;
        if t.warps_finished < t.warps_total {
            return;
        }

        // Execution complete for this tenant.
        let first_completion = t.completed.is_empty();
        t.completed.push((t.instr_this_exec, self.now));
        t.instr_this_exec = 0;
        t.warps_finished = 0;
        t.launch_cycle = self.now;
        debug_assert!(t.active, "finished while not resident");
        if first_completion {
            self.resolve_tenant(tenant.index());
            if self.stopped {
                return;
            }
        }

        // Relaunch (the methodology: keep contention alive until every
        // tenant completes at least once).
        let stream = &self.streams[tenant.index()];
        let sm_base = tenant.index() * self.sms_per_tenant;
        for s in sm_base..sm_base + self.sms_per_tenant {
            for w in 0..self.cfg.warps_per_sm {
                let wi = s * self.cfg.warps_per_sm + w;
                self.warps[wi].finished = false;
                stream.relaunch(&mut self.cursors[wi]);
                self.ready.push(Event::WarpStart {
                    sm: s as u16,
                    warp: w as u16,
                });
            }
        }
    }

    /// Fills the attached metrics handle with the run's final counters,
    /// replacing whatever it held.
    fn export_metrics(&self, handle: &SharedMetrics) {
        let stats = self.walk.stats();
        let mut reg = MetricsRegistry::new();
        let sms = self.sms.chunks(self.sms_per_tenant);
        for (t, (tenant, sms)) in self.tenants.iter().zip(sms).enumerate() {
            let id = Some(t as u8);
            let (l1_hits, l1_misses) = sms
                .iter()
                .map(SmState::l1_tlb_stats)
                .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm));
            reg.set_counter("l1_tlb_hits", id, l1_hits);
            reg.set_counter("l1_tlb_misses", id, l1_misses);
            reg.set_counter("l2_tlb_hits", id, tenant.l2_tlb_hits);
            reg.set_counter("l2_tlb_misses", id, tenant.l2_tlb_misses);
            reg.set_counter("walks_completed", id, stats.completed[t]);
            reg.set_counter("walks_stolen", id, stats.stolen[t]);
            reg.set_histogram("walk_latency", id, stats.latency[t].clone());
        }
        reg.set_counter("steal_success", None, stats.steals);
        reg.set_counter("steal_attempts", None, stats.steal_attempts);
        handle.replace(reg);
    }

    /// Gathers final metrics.
    fn collect(mut self) -> SimResult {
        let end = self.now;
        let events_processed = self.events_processed;
        self.obs.trace(TraceKind::Meta, || TraceEvent::RunEnd {
            cycle: end.0,
            events: events_processed,
        });
        self.obs.flush();
        if let Some(handle) = &self.metrics {
            self.export_metrics(handle);
        }
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let tid = TenantId(i as u8);
                let (instr, last_cycle) = t
                    .completed
                    .iter()
                    .fold((0u64, Cycle::ZERO), |(si, _), &(n, c)| (si + n, c));
                let ipc = if last_cycle.0 > 0 {
                    instr as f64 / last_cycle.0 as f64
                } else {
                    0.0
                };
                let thread_instr = t.instr_total as f64 * 32.0;
                let mpmi = if thread_instr > 0.0 {
                    t.l2_demand_misses as f64 / thread_instr * 1e6
                } else {
                    0.0
                };
                let stats = self.walk.stats();
                TenantResult {
                    app: t.app,
                    ipc,
                    instructions: instr,
                    completed_executions: t.completed.len() as u32,
                    mpmi,
                    l2_tlb_misses: t.l2_demand_misses,
                    mean_walk_latency: stats.mean_latency(tid),
                    mean_interleave: stats.mean_interleave(tid),
                    stolen_fraction: stats.stolen_fraction(tid),
                    pw_share: self.walk.walker_share_of(tid, end),
                    tlb_share: self.l2.share_of(tid, end),
                }
            })
            .collect();
        let churn = self.tenancy.reports_churn.then(|| {
            let stats = self.walk.stats();
            ChurnReport {
                tenants: (self.tenants.iter().zip(&stats.cancelled))
                    .map(|(t, &cancelled_walks)| TenantChurn {
                        arrived: t.arrived_at,
                        departed: t.departed_at,
                        evicted: t.evicted,
                        slo_target: t.slo_target,
                        slo_checks: t.slo_checks,
                        slo_met: t.slo_met,
                        throttled_checks: t.throttled_checks,
                        cancelled_walks,
                        lifetime_instructions: t.instr_total,
                        lifetime_cycles: match (t.arrived_at, t.departed_at) {
                            (Some(a), Some(d)) => d - a,
                            (Some(a), None) => end.0.saturating_sub(a),
                            _ => 0,
                        },
                    })
                    .collect(),
                evictions: self.tenancy.evictions,
                repartitions: self.tenancy.repartitions,
                throttles: self.tenancy.throttles,
            }
        });
        SimResult {
            tenants,
            cycles: end.0,
            events: self.events_processed,
            timeline: self.timeline,
            churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyPreset;

    /// Builds a simulation of calibrated apps through the supported
    /// profile-based construction path.
    fn sim(cfg: GpuConfig, apps: &[AppId], seed: u64) -> Simulation {
        let profiles: Vec<AppProfile> = apps.iter().map(|a| a.profile()).collect();
        let cfg = cfg.for_tenants(apps.len());
        let tenancy = Tenancy::all_resident(apps.len());
        Simulation::new(cfg, &profiles, tenancy, seed, Observer::off(), None)
    }

    fn small_cfg() -> GpuConfig {
        GpuConfig::default()
            .with_n_sms(4)
            .with_warps_per_sm(4)
            .with_instructions_per_warp(400)
    }

    #[test]
    fn single_tenant_completes() {
        let r = sim(small_cfg(), &[AppId::Mm], 1).run();
        assert_eq!(r.tenants.len(), 1);
        assert_eq!(r.tenants[0].completed_executions, 1);
        assert!(r.tenants[0].ipc > 0.0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn two_tenants_both_complete() {
        let r = sim(small_cfg(), &[AppId::Gups, AppId::Mm], 1).run();
        assert!(r.tenants.iter().all(|t| t.completed_executions >= 1));
    }

    #[test]
    fn deterministic_replay() {
        let a = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 7).run();
        let b = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 7).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 1).run();
        let b = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 2).run();
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn light_app_outruns_heavy_app_standalone() {
        let light = sim(small_cfg(), &[AppId::Mm], 3).run();
        let heavy = sim(small_cfg(), &[AppId::Gups], 3).run();
        assert!(
            light.tenants[0].ipc > heavy.tenants[0].ipc,
            "MM {} vs GUPS {}",
            light.tenants[0].ipc,
            heavy.tenants[0].ipc
        );
    }

    #[test]
    fn heavy_app_misses_more() {
        let light = sim(small_cfg(), &[AppId::Mm], 3).run();
        let heavy = sim(small_cfg(), &[AppId::Gups], 3).run();
        assert!(heavy.tenants[0].mpmi > light.tenants[0].mpmi * 10.0);
    }

    #[test]
    fn dws_steals_in_asymmetric_pair() {
        let cfg = small_cfg().with_preset(PolicyPreset::Dws);
        let r = sim(cfg, &[AppId::Gups, AppId::Mm], 1).run();
        // The heavy tenant's walks get stolen by the light tenant's walkers.
        assert!(
            r.tenants[0].stolen_fraction > 0.0,
            "no stealing observed: {:?}",
            r.tenants[0]
        );
    }

    #[test]
    fn relaunch_keeps_contention_alive() {
        // MM finishes long before GUPS; it must relaunch (>1 execution).
        // A longer budget makes GUPS's memory-bound tail dominate.
        let cfg = small_cfg().with_instructions_per_warp(2_000);
        let r = sim(cfg, &[AppId::Gups, AppId::Mm], 1).run();
        assert!(
            r.tenants[1].completed_executions > 1,
            "light tenant should relaunch: {:?}",
            r.tenants[1].completed_executions
        );
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let r = sim(small_cfg(), &[AppId::Gups, AppId::Blk], 5).run();
        let pw: f64 = r.tenants.iter().map(|t| t.pw_share).sum();
        let tlb: f64 = r.tenants.iter().map(|t| t.tlb_share).sum();
        assert!(pw <= 1.0 + 1e-9, "pw share sum {pw}");
        assert!(tlb <= 1.0 + 1e-9, "tlb share sum {tlb}");
        assert!(pw > 0.0);
        assert!(tlb > 0.0);
    }

    #[test]
    fn baseline_interleaving_asymmetric_pair() {
        let r = sim(small_cfg(), &[AppId::Gups, AppId::Hs], 1).run();
        // The light tenant's walks wait behind many heavy walks.
        assert!(
            r.tenants[1].mean_interleave > r.tenants[0].mean_interleave,
            "light should interleave more: {:?} vs {:?}",
            r.tenants[1].mean_interleave,
            r.tenants[0].mean_interleave
        );
    }

    #[test]
    fn timeline_sampling_records_snapshots() {
        let cfg = small_cfg().with_sample_interval(1_000);
        let r = sim(cfg, &[AppId::Sad, AppId::Mm], 1).run();
        assert!(!r.timeline.is_empty());
        // Samples are evenly spaced and cover the run.
        for (i, s) in r.timeline.iter().enumerate() {
            assert_eq!(s.cycle, 1_000 * (i as u64 + 1));
            assert_eq!(s.instructions_delta.len(), 2);
            assert!(s.busy_walkers <= 16);
        }
        let last = r.timeline.last().unwrap();
        assert!(r.cycles - last.cycle <= 1_000);
        // Instruction deltas sum to (at most) the total issued.
        let total: u64 = r.timeline.iter().map(|s| s.instructions_delta[1]).sum();
        assert!(total > 0);
    }

    #[test]
    fn sampling_off_means_empty_timeline() {
        let r = sim(small_cfg(), &[AppId::Mm], 1).run();
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn unlimited_budget_matches_plain_run() {
        let a = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 7).run();
        let b = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 7)
            .run_budgeted(&RunBudget::unlimited())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn event_budget_aborts_with_partial_diagnostic() {
        let budget = RunBudget::unlimited().with_max_events(500);
        let err = sim(small_cfg(), &[AppId::Gups, AppId::Mm], 1)
            .run_budgeted(&budget)
            .unwrap_err();
        let SimError::BudgetExceeded { kind, limit, diag } = err else {
            panic!("expected a budget abort, got {err}");
        };
        assert_eq!(kind, BudgetKind::Events);
        assert_eq!(limit, 500);
        assert_eq!(diag.events, 500);
        assert_eq!(diag.tenants_total, 2);
        assert!(diag.tenants_done < 2, "run should have been cut short");
    }

    /// An event budget that runs out inside a ready batch (here the eight
    /// `WarpStart`s of HS's relaunch at cycle 9692, events 922..930) aborts
    /// exactly where the event-queue-only loop did: the diagnostic is the
    /// one that loop reported.
    #[test]
    fn event_budget_inside_a_ready_batch_keeps_the_diagnostic() {
        let err = sim(small_cfg(), &[AppId::Sad, AppId::Hs], 7)
            .run_budgeted(&RunBudget::unlimited().with_max_events(926))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                kind: BudgetKind::Events,
                limit: 926,
                diag: RunDiag {
                    events: 926,
                    cycles: 9692,
                    tenants_done: 1,
                    tenants_total: 2,
                },
            }
        );
    }

    #[test]
    fn cycle_budget_aborts_deterministically() {
        let budget = RunBudget::unlimited().with_max_cycles(2_000);
        let run = || {
            sim(small_cfg(), &[AppId::Gups, AppId::Mm], 1)
                .run_budgeted(&budget)
                .unwrap_err()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "budget aborts must replay bit-identically");
        let SimError::BudgetExceeded { kind, diag, .. } = a else {
            panic!("expected a budget abort, got {a}");
        };
        assert_eq!(kind, BudgetKind::Cycles);
        assert!(diag.cycles > 2_000, "aborted at cycle {}", diag.cycles);
    }

    #[test]
    fn wall_sample_boundaries_are_64ki_multiples_and_skipproof() {
        // Trigger points: 64 Ki, 128 Ki, ... — never 0, so a fresh count
        // does not sample before any event has run.
        assert_eq!(next_wall_boundary(0), 65_536);
        assert_eq!(next_wall_boundary(1), 65_536);
        assert_eq!(next_wall_boundary(65_535), 65_536);
        assert_eq!(next_wall_boundary(65_536), 131_072);
        assert_eq!(next_wall_boundary(131_071), 131_072);
        assert_eq!(next_wall_boundary(131_072), 196_608);

        // Stepping one event at a time triggers exactly at the multiples.
        let mut next = next_wall_boundary(0);
        let mut triggers = Vec::new();
        for count in 1..=131_073u64 {
            if count >= next {
                triggers.push(count);
                next = next_wall_boundary(count);
            }
        }
        assert_eq!(triggers, vec![65_536, 131_072]);

        // Batch-granularity counting can jump past a boundary; the
        // comparison still catches every crossed window exactly once.
        let mut count = 0u64;
        let mut next = next_wall_boundary(count);
        let mut samples = 0u64;
        for step in [1u64, 65_535, 1, 70_000, 200_000, 3, 65_536] {
            count += step;
            if count >= next {
                samples += 1;
                next = next_wall_boundary(count);
                assert!(next > count, "boundary must be strictly ahead");
                assert_eq!(next % WALL_SAMPLE_STRIDE, 0);
            }
        }
        assert_eq!(
            samples, 4,
            "crossings at 65_536, 135_537, 335_537, and 401_076"
        );
    }

    #[test]
    fn generous_budget_does_not_perturb_the_run() {
        let plain = sim(small_cfg(), &[AppId::Gups, AppId::Mm], 3).run();
        let budgeted = sim(small_cfg(), &[AppId::Gups, AppId::Mm], 3)
            .run_budgeted(&RunBudget::unlimited().with_max_events(plain.events * 10))
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    // ---- dynamic-tenancy scenarios ------------------------------------

    use crate::build::SimulationBuilder;
    use crate::scenario::{ScenarioSpec, SloPolicy};

    fn churn_builder() -> SimulationBuilder {
        SimulationBuilder::new()
            .n_sms(4)
            .warps_per_sm(4)
            .instructions_per_warp(400)
            .preset(PolicyPreset::Dws)
            .seed(1)
    }

    #[test]
    fn late_arrival_launches_and_completes() {
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(5_000, AppId::Gups);
        let r = churn_builder().scenario(spec).build().run();
        assert!(r.tenants.iter().all(|t| t.completed_executions >= 1));
        let churn = r.churn.unwrap();
        assert_eq!(churn.tenants[0].arrived, Some(0));
        assert_eq!(churn.tenants[1].arrived, Some(5_000));
        assert!(churn.repartitions >= 1, "the arrival re-splits the walkers");
        assert!(churn.tenants[1].lifetime_cycles > 0);
        assert!(churn.tenants[1].lifetime_instructions > 0);
    }

    #[test]
    fn departure_cancels_and_resolves() {
        // GUPS departs mid-run without completing; MM finishes normally and
        // the run stops without waiting on the departed tenant.
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(0, AppId::Gups)
            .depart(3_000, 1);
        let r = churn_builder().scenario(spec).build().run();
        let churn = r.churn.as_ref().unwrap();
        assert_eq!(churn.tenants[1].departed, Some(3_000));
        assert!(!churn.tenants[1].evicted);
        assert_eq!(churn.tenants[1].lifetime_cycles, 3_000);
        assert!(churn.tenants[1].lifetime_instructions > 0);
        assert_eq!(
            r.tenants[1].completed_executions, 0,
            "left before finishing"
        );
        assert!(r.tenants[0].completed_executions >= 1);
    }

    #[test]
    fn scenario_replay_is_deterministic() {
        let spec = || {
            ScenarioSpec::new()
                .arrive(0, AppId::Mm)
                .arrive(2_000, AppId::Gups)
                .depart(30_000, 1)
                .slo_target(0, 600)
                .slo_policy(SloPolicy {
                    check_interval: 5_000,
                    evict_after: 3,
                    min_samples: 16,
                })
        };
        let run = || churn_builder().scenario(spec()).build().run();
        assert_eq!(run(), run());
    }

    #[test]
    fn slo_violation_throttles_then_evicts_the_aggressor() {
        // GUPS's p99 walk-latency target of 1 cycle is unmeetable, so every
        // counted check violates; the controller throttles the other
        // resident (MM) after the first and evicts it after the second.
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Gups)
            .arrive(0, AppId::Mm)
            .slo_target(0, 1)
            .slo_policy(SloPolicy {
                check_interval: 2_000,
                evict_after: 2,
                min_samples: 8,
            });
        let r = churn_builder().scenario(spec).build().run();
        let churn = r.churn.unwrap();
        assert_eq!(churn.evictions, 1);
        assert!(churn.tenants[1].evicted, "MM evicted: {churn:?}");
        assert!(churn.tenants[1].departed.is_some());
        assert!(churn.throttles >= 1, "a throttle precedes the eviction");
        assert!(churn.tenants[1].throttled_checks >= 1);
        assert!(churn.tenants[0].slo_checks >= 2);
        assert_eq!(churn.tenants[0].slo_met, 0, "1-cycle target unmeetable");
        assert!(churn.tenants[0].slo_compliance() == 0.0);
        assert!(r.tenants[0].completed_executions >= 1, "victim completes");
    }

    #[test]
    fn quiet_victim_cannot_pin_a_throttle() {
        // An SLO victim that stops walking produces no signal; its
        // violation streak must decay so the throttled aggressor resumes
        // and the run completes rather than spinning to max_cycles.
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(0, AppId::Gups)
            .slo_target(0, 1)
            .slo_policy(SloPolicy {
                check_interval: 2_000,
                evict_after: u32::MAX, // never evict: throttling only
                min_samples: 8,
            });
        let r = churn_builder().scenario(spec).build().run();
        assert!(
            r.tenants.iter().all(|t| t.completed_executions >= 1),
            "both tenants must finish: {:?}",
            r.churn
        );
        let churn = r.churn.unwrap();
        assert_eq!(churn.evictions, 0);
    }

    #[test]
    fn explicit_repartition_applies() {
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Gups)
            .arrive(0, AppId::Mm)
            .repartition(1_000, vec![true, false])
            .repartition(4_000, vec![true, true]);
        let r = churn_builder().scenario(spec).build().run();
        let churn = r.churn.unwrap();
        assert_eq!(churn.repartitions, 2);
        assert!(r.tenants.iter().all(|t| t.completed_executions >= 1));
    }

    #[test]
    fn four_tenants_run() {
        let cfg = GpuConfig::default()
            .with_n_sms(4)
            .with_warps_per_sm(2)
            .with_instructions_per_warp(300)
            .with_preset(PolicyPreset::Dws);
        let r = sim(cfg, &[AppId::Gups, AppId::Mm, AppId::Tds, AppId::Hs], 1).run();
        assert_eq!(r.tenants.len(), 4);
        assert!(r.tenants.iter().all(|t| t.completed_executions >= 1));
    }
}
