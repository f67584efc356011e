//! Fairness-under-churn experiments: tenants arrive, run under an SLO, and
//! leave (or are evicted) mid-run.
//!
//! The static suite measures steady-state sharing; these tables measure the
//! regime the paper's motivation describes — a multi-tenant GPU whose
//! tenant set changes over time. Each suite draws seeded churn timelines
//! from the [`ArrivalProcess`] presets ([`churn_light`] / [`churn_heavy`]),
//! lowers them into [`ScenarioSpec`]s with a per-tenant p99 walk-latency
//! SLO, and runs them under the headline presets. The reported metrics are
//! the scenario engine's fairness-under-churn trio:
//!
//! * **SLO %** — mean per-tenant fraction of counted SLO checks whose p99
//!   walk latency met the target;
//! * **WSoL** — weighted speedup over lifetime, Σᵢ lifetime-IPCᵢ / IPCˢᴬᵢ
//!   (each tenant normalized by its stand-alone IPC over its own residency
//!   window);
//! * **Evict** — QoS evictions performed by the admission controller.
//!
//! [`sens_churn`] sweeps churn *intensity* (the mean inter-arrival gap,
//! with residency scaled in proportion) the same way the hardware axes
//! sweep walkers or TLB entries: WSoL normalized to the same point's
//! Baseline, gmean over the seeded timelines.

use walksteal_multitenant::{PolicyPreset, ScenarioSpec, SimResult, SloPolicy};
use walksteal_sim_core::gmean;
use walksteal_workloads::{ArrivalProcess, ChurnPlan};

use crate::report::Table;
use crate::suite::{ExpContext, SCENARIO_PRESETS};

/// Seeded timelines per churn table row set (each seed is one row).
pub const CHURN_ROWS: usize = 3;

/// Which churn suite a table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Light churn: staggered arrivals, rare departures, a lenient SLO.
    Light,
    /// Heavy churn: back-to-back arrivals, frequent departures, a tight
    /// SLO the controller has to enforce.
    Heavy,
}

impl ChurnKind {
    /// The suite label (`repro churn_<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChurnKind::Light => "light",
            ChurnKind::Heavy => "heavy",
        }
    }

    /// The arrival process this suite draws timelines from.
    #[must_use]
    pub fn process(self) -> ArrivalProcess {
        match self {
            ChurnKind::Light => ArrivalProcess::light(),
            ChurnKind::Heavy => ArrivalProcess::heavy(),
        }
    }

    /// The per-tenant p99 walk-latency target (cycles) and controller
    /// policy this suite applies to every tenant.
    #[must_use]
    pub fn slo(self) -> (u64, SloPolicy) {
        match self {
            ChurnKind::Light => (
                3_000,
                SloPolicy {
                    check_interval: 20_000,
                    evict_after: 8,
                    min_samples: 64,
                },
            ),
            // Heavy residencies last ~10k cycles, so checks must come fast
            // enough (and the eviction streak be short enough) for the
            // controller to act before the victim departs on its own.
            ChurnKind::Heavy => (
                1_200,
                SloPolicy {
                    check_interval: 5_000,
                    evict_after: 2,
                    min_samples: 32,
                },
            ),
        }
    }
}

/// Lowers a generated churn plan into a scenario: the plan's arrivals and
/// departures in timeline order, plus (when `slo` is set) one p99 target
/// per tenant and the controller policy.
#[must_use]
pub fn scenario_from_plan(plan: &ChurnPlan, slo: Option<(u64, SloPolicy)>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new();
    for &(cycle, app) in &plan.arrivals {
        spec = spec.arrive(cycle, app);
    }
    for &(cycle, tenant) in &plan.departures {
        spec = spec.depart(cycle, tenant);
    }
    if let Some((p99, policy)) = slo {
        for t in 0..plan.n_tenants() {
            spec = spec.slo_target(t, p99);
        }
        spec = spec.slo_policy(policy);
    }
    spec
}

/// One churn cell: the scenario for `(kind, seed)` under `preset` on the
/// canonical [`ExpContext::tenant_config`] machine (churn adds a timeline,
/// not a machine).
fn run_churn(
    ctx: &mut ExpContext,
    kind: ChurnKind,
    plan: &ChurnPlan,
    preset: PolicyPreset,
    seed: u64,
) -> SimResult {
    let spec = scenario_from_plan(plan, Some(kind.slo()));
    let cfg = ctx.tenant_config(plan.n_tenants(), preset);
    ctx.scenario_run(cfg, &spec, seed)
}

/// Mean per-tenant SLO compliance of a churn run, as a percentage.
fn slo_pct(r: &SimResult) -> f64 {
    let churn = r.churn.as_ref().expect("scenario runs report churn");
    let n = churn.tenants.len() as f64;
    100.0
        * churn
            .tenants
            .iter()
            .map(|t| t.slo_compliance())
            .sum::<f64>()
        / n
}

/// The fairness-under-churn table for one suite: a row per seeded
/// timeline, and per compared preset the SLO-compliance percentage,
/// weighted speedup over lifetime, and eviction count; arithmetic-mean
/// summary row (eviction counts are often zero, so gmean is unusable).
pub fn churn_table(ctx: &mut ExpContext, kind: ChurnKind) -> Table {
    let presets = ctx.presets(&SCENARIO_PRESETS);
    let columns: Vec<String> = presets
        .iter()
        .flat_map(|p| {
            [
                format!("SLO% {}", p.label()),
                format!("WSoL {}", p.label()),
                format!("Evict {}", p.label()),
            ]
        })
        .collect();
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "Fairness under churn ({}): SLO compliance, weighted speedup over lifetime, evictions",
            kind.name()
        ),
        &column_refs,
    );
    let process = kind.process();
    let mut all: Vec<Vec<f64>> = Vec::new();
    for row in 0..CHURN_ROWS {
        let seed = ctx.seed.wrapping_add(row as u64);
        let plan = process.generate(seed);
        let sa = ctx.standalone_ipcs_for(&plan.apps());
        let vals: Vec<f64> = presets
            .iter()
            .flat_map(|&preset| {
                let r = run_churn(ctx, kind, &plan, preset, seed);
                let churn = r.churn.as_ref().expect("scenario runs report churn");
                [
                    slo_pct(&r),
                    churn.weighted_speedup_over_lifetime(&sa),
                    churn.evictions as f64,
                ]
            })
            .collect();
        let label = format!(
            "s{seed} {} ({} dep)",
            plan.apps()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("."),
            plan.departures.len()
        );
        table.row(&label, &vals);
        all.push(vals);
    }
    let means: Vec<f64> = (0..columns.len())
        .map(|c| all.iter().map(|v| v[c]).sum::<f64>() / all.len() as f64)
        .collect();
    table.row("mean", &means);
    table
}

/// The light-churn suite table (`repro churn_light`).
pub fn churn_light(ctx: &mut ExpContext) -> Table {
    churn_table(ctx, ChurnKind::Light)
}

/// The heavy-churn suite table (`repro churn_heavy`).
pub fn churn_heavy(ctx: &mut ExpContext) -> Table {
    churn_table(ctx, ChurnKind::Heavy)
}

/// The churn-intensity points: mean inter-arrival gap in cycles, densest
/// last (see [`SweepAxis::Churn`](crate::SweepAxis)).
pub const CHURN_GAPS: [usize; 3] = [8_000, 4_000, 1_500];

/// The sensitivity table for churn intensity: one row per mean-gap point,
/// one column per compared preset, each cell the gmean over the seeded
/// timelines of weighted speedup over lifetime normalized to the *same
/// point's* Baseline.
pub fn sens_churn(ctx: &mut ExpContext) -> Table {
    let presets = ctx.presets(&SCENARIO_PRESETS);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Sensitivity: churn intensity (weighted speedup over lifetime, normalized per point)",
        &columns,
    );
    let (p99, policy) = ChurnKind::Heavy.slo();
    for &gap in &CHURN_GAPS {
        let process = ArrivalProcess {
            mean_gap: gap as u64,
            mean_residency: 5 * gap as u64,
            depart_chance: 0.6,
            ..ArrivalProcess::light()
        };
        let mut per_seed: Vec<Vec<f64>> = Vec::with_capacity(CHURN_ROWS);
        for row in 0..CHURN_ROWS {
            let seed = ctx.seed.wrapping_add(row as u64);
            let plan = process.generate(seed);
            let sa = ctx.standalone_ipcs_for(&plan.apps());
            let spec = scenario_from_plan(&plan, Some((p99, policy)));
            let wsol: Vec<f64> = presets
                .iter()
                .map(|&preset| {
                    let cfg = ctx.tenant_config(plan.n_tenants(), preset);
                    let r = ctx.scenario_run(cfg, &spec, seed);
                    r.churn
                        .as_ref()
                        .expect("scenario runs report churn")
                        .weighted_speedup_over_lifetime(&sa)
                })
                .collect();
            per_seed.push(wsol.iter().map(|&v| v / wsol[0]).collect());
        }
        let row: Vec<f64> = (0..presets.len())
            .map(|c| gmean(&per_seed.iter().map(|v| v[c]).collect::<Vec<_>>()))
            .collect();
        table.row(&format!("{gap}-cycle mean gap"), &row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::store::Store;

    fn quick_ctx() -> ExpContext {
        ExpContext::new(Scale::Quick, Store::in_memory())
    }

    #[test]
    fn plans_lower_to_valid_scenarios() {
        for kind in [ChurnKind::Light, ChurnKind::Heavy] {
            for seed in [42, 43, 44, 7] {
                let plan = kind.process().generate(seed);
                let spec = scenario_from_plan(&plan, Some(kind.slo()));
                assert_eq!(spec.validate(), Ok(()), "{kind:?} seed {seed}");
                assert_eq!(spec.n_tenants(), plan.n_tenants());
                assert!(spec.has_slo_targets());
                // Without an SLO the lowering is timeline-only.
                let bare = scenario_from_plan(&plan, None);
                assert_eq!(bare.validate(), Ok(()));
                assert!(!bare.has_slo_targets());
            }
        }
    }

    #[test]
    fn churn_cells_hit_the_cache_across_tables() {
        let mut ctx = quick_ctx();
        let first = churn_light(&mut ctx);
        let misses = ctx.store.misses();
        let again = churn_light(&mut ctx);
        assert_eq!(first.to_string(), again.to_string());
        assert_eq!(ctx.store.misses(), misses, "second render must be cached");
    }

    #[test]
    fn churn_table_shape_and_ranges() {
        let mut ctx = quick_ctx();
        let t = churn_table(&mut ctx, ChurnKind::Light);
        assert_eq!(t.rows.len(), CHURN_ROWS + 1);
        assert_eq!(t.rows[CHURN_ROWS].0, "mean");
        for (label, vals) in &t.rows {
            assert_eq!(vals.len(), 9, "{label}");
            for chunk in vals.chunks(3) {
                assert!((0.0..=100.0).contains(&chunk[0]), "{label}: SLO% {chunk:?}");
                assert!(chunk[1].is_finite() && chunk[1] >= 0.0, "{label}: WSoL");
                assert!(chunk[2] >= 0.0, "{label}: evictions");
            }
        }
    }

    #[test]
    fn parallel_churn_matches_serial_exactly() {
        let mut serial = quick_ctx();
        let expected = churn_heavy(&mut serial);
        let mut parallel = quick_ctx();
        parallel.jobs = 4;
        let got = parallel.run(churn_heavy);
        assert_eq!(expected.to_string(), got.to_string());
        assert_eq!(serial.store.misses(), parallel.store.misses());
    }

    #[test]
    fn sens_churn_normalizes_each_point_to_baseline() {
        let mut ctx = quick_ctx();
        let t = sens_churn(&mut ctx);
        assert_eq!(t.rows.len(), CHURN_GAPS.len());
        for (label, vals) in &t.rows {
            assert_eq!(vals.len(), 3, "{label}");
            assert!(
                (vals[0] - 1.0).abs() < 1e-12,
                "{label}: Baseline is the base"
            );
            assert!(vals.iter().all(|v| v.is_finite() && *v > 0.0), "{label}");
        }
    }
}
