//! The traced pass: per-layer counts from the run itself, per-layer host
//! time from replays, and the cost of the program's own options.
//!
//! Each simulation runs four times: untraced with the shipped defaults,
//! with stream pipelining off, with a `SharedMetrics` registry attached, and
//! with the registry plus a benchmark-owned `Tracer`. All four must produce
//! the same result digest. The traced run's events and counters give the
//! exact per-layer counts; the replays (see [`crate::replay`]) give each
//! layer's host time per call, which times the run's own count is the
//! layer's self time. Whatever the replays do not cover — event dispatch,
//! the walk-merge table, parking, glue — is the residual.

use std::cell::RefCell;
use std::rc::Rc;

use walksteal_multitenant::{SharedMetrics, StreamPipelining, TraceEvent, TraceKind, Tracer};

use crate::measure::{run_sim, Spans};
use crate::oracle::Oracle;
use crate::replay::{self, DataPath, LayerTime, SimInputs};
use crate::workload::SimSpec;

/// One walk attempt: an accepted enqueue or a rejection.
pub struct Attempt {
    pub cycle: u64,
    pub vpn: u64,
    pub tenant: u8,
    pub accepted: bool,
}

/// One page-walk-cache probe at dispatch.
pub struct PwcRecord {
    pub cycle: u64,
    pub vpn: u64,
    pub tenant: u8,
    pub hit_levels: u8,
    pub levels: u8,
}

/// What the benchmark's tracer keeps from a run.
#[derive(Default)]
pub struct Capture {
    pub events: u64,
    pub attempts: Vec<Attempt>,
    pub assigns: u64,
    pub queue_wait: u64,
    pub steals: u64,
    pub pwc: Vec<PwcRecord>,
    pub pte_fetches: u64,
    pub pte_latency: u64,
    pub walk_latencies: Vec<u64>,
}

/// A tracer that shares its [`Capture`] with the benchmark.
#[derive(Clone, Default)]
struct CaptureTracer(Rc<RefCell<Capture>>);

impl Tracer for CaptureTracer {
    fn wants(&self, _: TraceKind) -> bool {
        true
    }

    fn record(&mut self, ev: &TraceEvent) {
        let mut c = self.0.borrow_mut();
        c.events += 1;
        match *ev {
            TraceEvent::WalkEnqueue { cycle, tenant, vpn } => c.attempts.push(Attempt {
                cycle,
                vpn,
                tenant,
                accepted: true,
            }),
            TraceEvent::WalkReject { cycle, tenant, vpn } => c.attempts.push(Attempt {
                cycle,
                vpn,
                tenant,
                accepted: false,
            }),
            TraceEvent::WalkAssign { queue_wait, .. } => {
                c.assigns += 1;
                c.queue_wait += queue_wait;
            }
            TraceEvent::Steal { .. } => c.steals += 1,
            TraceEvent::PwcProbe {
                cycle,
                tenant,
                vpn,
                hit_levels,
                levels,
            } => c.pwc.push(PwcRecord {
                cycle,
                vpn,
                tenant,
                hit_levels,
                levels,
            }),
            TraceEvent::PteFetch { latency, .. } => {
                c.pte_fetches += 1;
                c.pte_latency += latency;
            }
            TraceEvent::WalkComplete { latency, .. } => c.walk_latencies.push(latency),
            _ => {}
        }
    }
}

/// Everything the traced pass sums over a workload's simulations.
#[derive(Default)]
struct Totals {
    wall_auto: f64,
    setup_auto: f64,
    wall_off: f64,
    setup_off: f64,
    wall_metrics: f64,
    wall_traced: f64,
    events: u64,
    cycles: u64,
    trace_events: u64,
    // From the run's SharedMetrics.
    l1_tlb_hits: u64,
    l1_tlb_misses: u64,
    l2_tlb_hits: u64,
    l2_tlb_misses: u64,
    steal_success: u64,
    steal_attempts: u64,
    // From the run's trace.
    attempts: u64,
    rejects: u64,
    assigns: u64,
    steals: u64,
    queue_wait: u64,
    walk_latencies: Vec<u64>,
    pwc_probes: u64,
    pwc_levels_skipped: u64,
    pwc_levels: u64,
    pte_fetches: u64,
    pte_latency: u64,
    // From the run's ChurnReport.
    departures: u64,
    repartitions: u64,
    throttles: u64,
    evictions: u64,
    slo_checks: u64,
    cancelled_walks: u64,
    // From the replays.
    stream: LayerTime,
    stream_refs: u64,
    data: DataPath,
    walk: LayerTime,
    walk_attempts: u64,
    walk_matched: u64,
    pwc: LayerTime,
    pwc_matched: u64,
    pte: LayerTime,
    pte_replayed: u64,
}

pub struct Traced {
    /// Per-layer metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The module serving the L2 TLB, for the report.
    pub l2_organization: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums the run's counters over tenants.
fn counter(m: &SharedMetrics, name: &'static str, tenants: usize) -> u64 {
    (0..tenants).map(|t| m.counter(name, Some(t as u8))).sum()
}

pub fn run(sims: &[SimSpec], oracle: &mut Oracle, spans: &mut Spans) -> Traced {
    let root = spans.open("traced", None);
    let mut tot = Totals::default();
    for (i, spec) in sims.iter().enumerate() {
        let sim_span = spans.open("sim", Some(root));
        let timed_run = |spans: &mut Spans, name, builder| {
            let span = spans.open(name, Some(sim_span));
            let run = run_sim(builder);
            spans.close(span, run.as_ref().map_or(0, |t| t.result.events));
            run
        };
        let auto = timed_run(spans, "run.auto", spec.builder());
        let off = timed_run(
            spans,
            "run.off",
            spec.builder().stream_pipelining(StreamPipelining::Off),
        );
        let with_metrics = timed_run(
            spans,
            "run.metrics",
            spec.builder().metrics(SharedMetrics::new()),
        );
        let metrics = SharedMetrics::new();
        let tracer = CaptureTracer::default();
        let traced = timed_run(
            spans,
            "run.traced",
            spec.builder()
                .metrics(metrics.clone())
                .tracer(tracer.clone()),
        );
        let (Some(auto), Some(off), Some(with_metrics), Some(traced)) = (
            oracle.check(i, "untraced", &auto),
            oracle.check(i, "pipelining off", &off),
            oracle.check(i, "metrics on", &with_metrics),
            oracle.check(i, "traced", &traced),
        ) else {
            spans.close(sim_span, 0);
            continue;
        };
        let cap = tracer.0.borrow();
        let r = &traced.result;
        let n = r.tenants.len();

        tot.wall_auto += auto.wall;
        tot.setup_auto += auto.setup;
        tot.wall_off += off.wall;
        tot.setup_off += off.setup;
        tot.wall_metrics += with_metrics.wall;
        tot.wall_traced += traced.wall;
        tot.events += r.events;
        tot.cycles += r.cycles;
        tot.trace_events += cap.events;
        tot.l1_tlb_hits += counter(&metrics, "l1_tlb_hits", n);
        tot.l1_tlb_misses += counter(&metrics, "l1_tlb_misses", n);
        tot.l2_tlb_hits += counter(&metrics, "l2_tlb_hits", n);
        tot.l2_tlb_misses += counter(&metrics, "l2_tlb_misses", n);
        tot.steal_success += metrics.counter("steal_success", None);
        tot.steal_attempts += metrics.counter("steal_attempts", None);
        tot.attempts += cap.attempts.len() as u64;
        tot.rejects += cap.attempts.iter().filter(|a| !a.accepted).count() as u64;
        tot.assigns += cap.assigns;
        tot.steals += cap.steals;
        tot.queue_wait += cap.queue_wait;
        tot.walk_latencies.extend_from_slice(&cap.walk_latencies);
        tot.pwc_probes += cap.pwc.len() as u64;
        tot.pwc_levels_skipped += cap.pwc.iter().map(|p| u64::from(p.hit_levels)).sum::<u64>();
        tot.pwc_levels += cap.pwc.iter().map(|p| u64::from(p.levels)).sum::<u64>();
        tot.pte_fetches += cap.pte_fetches;
        tot.pte_latency += cap.pte_latency;
        if let Some(churn) = &r.churn {
            tot.departures += churn
                .tenants
                .iter()
                .filter(|t| t.departed.is_some())
                .count() as u64;
            tot.repartitions += churn.repartitions;
            tot.throttles += churn.throttles;
            tot.evictions += churn.evictions;
            tot.slo_checks += churn.tenants.iter().map(|t| t.slo_checks).sum::<u64>();
            tot.cancelled_walks += churn.tenants.iter().map(|t| t.cancelled_walks).sum::<u64>();
        }

        let inp = SimInputs {
            cfg: &spec.cfg,
            profiles: spec.apps.iter().map(|a| a.profile()).collect(),
            seed: spec.seed,
            result: r,
        };
        let replay_span = spans.open("replay", Some(sim_span));
        let stream = replay::stream(&inp, spans, replay_span);
        for (t, tenant) in r.tenants.iter().enumerate() {
            let (got, want) = (stream.instructions[t] as f64, tenant.instructions as f64);
            if (got - want).abs() > 0.01 * want {
                oracle.fail(
                    i,
                    &format!(
                        "stream replay of tenant {t} retired {got} instructions, the run {want}"
                    ),
                );
            }
        }
        tot.stream.add(stream.time);
        tot.stream_refs += stream.refs;
        replay::datapath(&inp, &stream, spans, replay_span, &mut tot.data);
        let walk = replay::walk(&inp, &cap, spans, replay_span);
        tot.walk.add(walk.time);
        tot.walk_attempts += walk.attempts;
        tot.walk_matched += walk.matched;
        let pt = replay::pwc_pte(&inp, &cap, spans, replay_span);
        tot.pwc.add(pt.pwc);
        tot.pwc_matched += pt.pwc_matched;
        tot.pte.add(pt.pte);
        tot.pte_replayed += pt.fetches;
        spans.close(replay_span, 0);
        spans.close(sim_span, r.events);
    }
    spans.close(root, tot.events);
    Traced {
        metrics: tot.metrics(),
        l2_organization: sims
            .first()
            .map_or_else(String::new, |s| replay::l2_organization(&s.cfg)),
    }
}

impl Totals {
    fn metrics(&mut self) -> Vec<(&'static str, f64)> {
        let ns_per = |t: LayerTime, per: u64| ratio(t.ns, per as f64);
        let walk_ns = ns_per(self.walk, self.walk_attempts);
        let pwc_ns = ns_per(self.pwc, self.pwc.calls);
        let pte_ns = ns_per(self.pte, self.pte_replayed);
        let l2_ns = ns_per(self.data.l2, self.data.l2_probes);
        let stream_ns = ns_per(self.stream, self.stream.calls);
        let l1_ns = ns_per(self.data.l1_tlb, self.data.l1_tlb_probes);
        let mem_accesses = self.data.mem.calls;
        let mem_ns = ns_per(self.data.mem, mem_accesses);
        let l1_probes = self.l1_tlb_hits + self.l1_tlb_misses;
        let l2_probes = self.l2_tlb_hits + self.l2_tlb_misses;

        // Self time: the replay's cost per call times the run's own count.
        let pwc_self = pwc_ns * self.pwc_probes as f64 * 1e-9;
        let pte_self = pte_ns * self.pte_fetches as f64 * 1e-9;
        // The walk replay includes its PWC probes and PTE chains.
        let walk_self = walk_ns * self.attempts as f64 * 1e-9 - pwc_self - pte_self;
        let l2_self = l2_ns * l2_probes as f64 * 1e-9;
        let stream_self = self.stream.ns * 1e-9;
        let l1_self = l1_ns * l1_probes as f64 * 1e-9;
        let cache_self = self.data.l1_cache.ns * 1e-9;
        let mem_self = self.data.mem.ns * 1e-9;
        let residual = self.wall_off
            - (stream_self
                + l1_self
                + cache_self
                + l2_self
                + walk_self
                + pwc_self
                + pte_self
                + mem_self);

        self.walk_latencies.sort_unstable();
        let p99 = self
            .walk_latencies
            .get(
                (self.walk_latencies.len() * 99)
                    .div_ceil(100)
                    .saturating_sub(1),
            )
            .copied()
            .unwrap_or(0);
        let (replayed_l2, run_l2) = (self.data.l2_probes as f64, l2_probes as f64);
        vec![
            ("walk.attempts", self.attempts as f64),
            (
                "walk.reject_rate",
                ratio(self.rejects as f64, self.attempts as f64),
            ),
            (
                "walk.stolen_frac",
                ratio(self.steals as f64, self.assigns as f64),
            ),
            (
                "walk.steal_success_rate",
                ratio(self.steal_success as f64, self.steal_attempts as f64),
            ),
            (
                "walk.queue_wait_mean_cycles",
                ratio(self.queue_wait as f64, self.assigns as f64),
            ),
            ("walk.latency_p99_cycles", p99 as f64),
            ("walk.ns_per_attempt", walk_ns),
            ("walk.self_s", walk_self),
            (
                "walk.replay_fidelity",
                ratio(self.walk_matched as f64, self.walk_attempts as f64),
            ),
            ("pwc.probes", self.pwc_probes as f64),
            (
                "pwc.levels_skipped_frac",
                ratio(self.pwc_levels_skipped as f64, self.pwc_levels as f64),
            ),
            ("pwc.ns_per_probe", pwc_ns),
            ("pwc.self_s", pwc_self),
            (
                "pwc.replay_fidelity",
                ratio(self.pwc_matched as f64, self.pwc.calls as f64),
            ),
            ("pte.fetches", self.pte_fetches as f64),
            (
                "pte.mean_latency_cycles",
                ratio(self.pte_latency as f64, self.pte_fetches as f64),
            ),
            ("pte.ns_per_fetch", pte_ns),
            ("pte.self_s", pte_self),
            ("l2_tlb.probes", run_l2),
            ("l2_tlb.hit_rate", ratio(self.l2_tlb_hits as f64, run_l2)),
            ("l2_tlb.ns_per_probe", l2_ns),
            ("l2_tlb.self_s", l2_self),
            (
                "l2_tlb.replay_fidelity",
                ratio(replayed_l2.min(run_l2), replayed_l2.max(run_l2)),
            ),
            ("stream.ops", self.stream.calls as f64),
            ("stream.refs", self.stream_refs as f64),
            ("stream.ns_per_op", stream_ns),
            ("stream.self_s", stream_self),
            ("l1_tlb.probes", l1_probes as f64),
            (
                "l1_tlb.hit_rate",
                ratio(self.l1_tlb_hits as f64, l1_probes as f64),
            ),
            ("l1_tlb.ns_per_probe", l1_ns),
            ("l1_tlb.self_s", l1_self),
            ("l1_cache.accesses", self.data.l1_cache.calls as f64),
            (
                "l1_cache.hit_rate",
                ratio(
                    self.data.l1_cache_hits as f64,
                    self.data.l1_cache.calls as f64,
                ),
            ),
            ("l1_cache.self_s", cache_self),
            ("mem.data_accesses", mem_accesses as f64),
            (
                "mem.l2_hit_rate",
                ratio(self.data.mem_l2_hits as f64, mem_accesses as f64),
            ),
            ("mem.ns_per_access", mem_ns),
            ("mem.self_s", mem_self),
            ("event.events", self.events as f64),
            (
                "event.events_per_cycle",
                ratio(self.events as f64, self.cycles as f64),
            ),
            (
                "event.events_per_s",
                ratio(self.events as f64, self.wall_auto),
            ),
            (
                "pipeline.off_wall_ratio",
                ratio(self.wall_off, self.wall_auto),
            ),
            (
                "pipeline.off_setup_ratio",
                ratio(self.setup_off, self.setup_auto),
            ),
            (
                "metrics.on_wall_ratio",
                ratio(self.wall_metrics, self.wall_auto),
            ),
            ("scenario.departures", self.departures as f64),
            ("scenario.repartitions", self.repartitions as f64),
            ("scenario.throttles", self.throttles as f64),
            ("scenario.evictions", self.evictions as f64),
            ("scenario.slo_checks", self.slo_checks as f64),
            ("scenario.cancelled_walks", self.cancelled_walks as f64),
            (
                "trace.on_wall_ratio",
                ratio(self.wall_traced, self.wall_auto),
            ),
            ("trace.events", self.trace_events as f64),
            ("sim.residual_s", residual),
            ("sim.residual_frac", ratio(residual, self.wall_off)),
        ]
    }
}
