//! Declarative hardware-sensitivity sweeps over the curated N-tenant mixes.
//!
//! The paper's scalability argument (§VII.E–F) is that DWS/DWS++ keep their
//! advantage as the machine's walk provisioning and the tenant count change.
//! A [`SweepAxis`] names one knob and its evaluation points; [`sens`]
//! expands an axis into jobs — a point that coincides with another
//! experiment's configuration (the canonical pair and Fig. 13 machines,
//! Fig. 12's L2-TLB sizes) is that experiment's job and shares its cache
//! entry — and renders one gmean-over-mixes table of total IPC under
//! Baseline / DWS / DWS++, each point normalized to its own same-resource
//! Baseline.

use std::fmt;
use std::str::FromStr;

use walksteal_multitenant::{GpuConfig, PolicyPreset, SimResult};
use walksteal_sim_core::gmean;
use walksteal_workloads::{mixes_for, WorkloadMix};

use crate::report::Table;
use crate::suite::{walkers_for_tenants, ExpContext, SCENARIO_PRESETS};

/// One hardware (or concurrency) knob the sensitivity study sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepAxis {
    /// Number of page-table walkers (per-walker queue depth held at the
    /// Table I ratio). Points are rounded up to split evenly among the
    /// tenants, mirroring the canonical configuration.
    Walkers,
    /// Total walk-queue entries across all walkers.
    Queue,
    /// Shared L2 TLB capacity in entries (16-way).
    L2Tlb,
    /// Co-running tenant count (each point runs its own curated mix set).
    Tenants,
    /// Churn intensity: the mean inter-arrival gap of seeded churn
    /// timelines (residency scales in proportion). Points are gap values
    /// in cycles, densest churn last; the table reports weighted speedup
    /// over lifetime (see [`churn::sens_churn`](crate::churn::sens_churn)).
    Churn,
}

impl SweepAxis {
    /// Every axis, in presentation order.
    pub const ALL: [SweepAxis; 5] = [
        SweepAxis::Walkers,
        SweepAxis::Queue,
        SweepAxis::L2Tlb,
        SweepAxis::Tenants,
        SweepAxis::Churn,
    ];

    /// The CLI name (`repro --sweep <name>`, experiment `sens_<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SweepAxis::Walkers => "walkers",
            SweepAxis::Queue => "queue",
            SweepAxis::L2Tlb => "l2tlb",
            SweepAxis::Tenants => "tenants",
            SweepAxis::Churn => "churn",
        }
    }

    /// The evaluation points along this axis.
    #[must_use]
    pub fn points(self) -> &'static [usize] {
        match self {
            SweepAxis::Walkers => &[8, 16, 32],
            SweepAxis::Queue => &[96, 192, 384],
            SweepAxis::L2Tlb => &[512, 1024, 2048],
            SweepAxis::Tenants => &[2, 3, 4],
            SweepAxis::Churn => &crate::churn::CHURN_GAPS,
        }
    }

    fn describe(self) -> &'static str {
        match self {
            SweepAxis::Walkers => "page-table walkers",
            SweepAxis::Queue => "walk-queue entries",
            SweepAxis::L2Tlb => "L2 TLB entries",
            SweepAxis::Tenants => "tenant count",
            SweepAxis::Churn => "churn intensity",
        }
    }
}

impl fmt::Display for SweepAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SweepAxis {
    type Err = String;

    /// Parses an axis from its [`name`](SweepAxis::name) or a CLI-friendly
    /// alias; round-trips with `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "walkers" | "ptw" | "ptws" | "n_walkers" => Ok(SweepAxis::Walkers),
            "queue" | "queues" | "queue_entries" => Ok(SweepAxis::Queue),
            "l2tlb" | "l2-tlb" | "tlb" | "l2_tlb" => Ok(SweepAxis::L2Tlb),
            "tenants" | "n_tenants" => Ok(SweepAxis::Tenants),
            "churn" => Ok(SweepAxis::Churn),
            _ => Err(format!(
                "unknown sweep axis {s:?} (expected one of: {})",
                SweepAxis::ALL.map(SweepAxis::name).join(", ")
            )),
        }
    }
}

/// The configuration for one sweep point at tenant count `n`, plus the
/// point's effective value (walkers round up to split evenly, so e.g. the
/// 8-walker point becomes 9 at three tenants).
fn point_config(
    ctx: &ExpContext,
    axis: SweepAxis,
    point: usize,
    n: usize,
    preset: PolicyPreset,
) -> (GpuConfig, usize) {
    let base = ctx
        .scale
        .base_config()
        .with_n_sms(ctx.scale.sms_per_tenant(n) * n);
    let (cfg, effective) = match axis {
        SweepAxis::Walkers => {
            let walkers = point.div_ceil(n) * n;
            (base.with_walkers(walkers), walkers)
        }
        SweepAxis::Queue => {
            let mut cfg = base.with_walkers(walkers_for_tenants(n));
            cfg.walk.queue_entries = point;
            (cfg, point)
        }
        SweepAxis::L2Tlb => (
            base.with_walkers(walkers_for_tenants(n))
                .with_l2_tlb_entries(point),
            point,
        ),
        SweepAxis::Tenants => (base.with_walkers(walkers_for_tenants(n)), n),
        // Churn sweeps the timeline, not the machine: every point runs the
        // canonical n-tenant hardware (sens() delegates the table itself).
        SweepAxis::Churn => (base.with_walkers(walkers_for_tenants(n)), point),
    };
    (cfg.for_tenants(n).with_preset(preset), effective)
}

/// Runs `mix` at one sweep point (the 16-walker, 192-entry, and
/// 1024-entry points at two tenants are exactly the published pair runs).
fn run_point(
    ctx: &mut ExpContext,
    axis: SweepAxis,
    point: usize,
    n: usize,
    preset: PolicyPreset,
    mix: &WorkloadMix,
) -> (SimResult, usize) {
    let (cfg, effective) = point_config(ctx, axis, point, n, preset);
    (ctx.co_run(cfg, mix.apps()), effective)
}

fn point_label(axis: SweepAxis, effective: usize) -> String {
    match axis {
        SweepAxis::Walkers => format!("{effective} walkers"),
        SweepAxis::Queue => format!("{effective}-entry queue"),
        SweepAxis::L2Tlb => format!("{effective}-entry L2 TLB"),
        SweepAxis::Tenants => format!("{effective} tenants"),
        SweepAxis::Churn => format!("{effective}-cycle mean gap"),
    }
}

/// The sensitivity table for `axis`: one row per evaluation point, one
/// column per compared preset, each cell the gmean over the curated mixes
/// of total IPC normalized to the *same point's* Baseline. `n_tenants`
/// fixes the mix set for the hardware axes and is ignored by
/// [`SweepAxis::Tenants`], which sweeps it.
pub fn sens(ctx: &mut ExpContext, axis: SweepAxis, n_tenants: usize) -> Table {
    if axis == SweepAxis::Churn {
        // Churn runs scenarios, not static mixes; its table lives with the
        // rest of the churn machinery.
        return crate::churn::sens_churn(ctx);
    }
    let presets = ctx.presets(&SCENARIO_PRESETS);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let title = match axis {
        SweepAxis::Tenants => format!(
            "Sensitivity: {} (total IPC, normalized per point)",
            axis.describe()
        ),
        _ => format!(
            "Sensitivity: {} at {n_tenants} tenants (total IPC, normalized per point)",
            axis.describe()
        ),
    };
    let mut table = Table::new(&title, &columns);
    for &point in axis.points() {
        let n = if axis == SweepAxis::Tenants {
            point
        } else {
            n_tenants
        };
        let mixes = mixes_for(n);
        let mut effective = point;
        let mut per_mix: Vec<Vec<f64>> = Vec::with_capacity(mixes.len());
        for mix in &mixes {
            let ipcs: Vec<f64> = presets
                .iter()
                .map(|&preset| {
                    let (r, eff) = run_point(ctx, axis, point, n, preset, mix);
                    effective = eff;
                    r.total_ipc()
                })
                .collect();
            per_mix.push(ipcs.iter().map(|&v| v / ipcs[0]).collect());
        }
        let row: Vec<f64> = (0..presets.len())
            .map(|c| gmean(&per_mix.iter().map(|v| v[c]).collect::<Vec<_>>()))
            .collect();
        table.row(&point_label(axis, effective), &row);
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
    fn axis_names_round_trip_and_aliases_parse() {
        for axis in SweepAxis::ALL {
            assert_eq!(axis.to_string().parse::<SweepAxis>(), Ok(axis), "{axis}");
        }
        assert_eq!("ptw".parse::<SweepAxis>(), Ok(SweepAxis::Walkers));
        assert_eq!("tlb".parse::<SweepAxis>(), Ok(SweepAxis::L2Tlb));
        assert_eq!("n_tenants".parse::<SweepAxis>(), Ok(SweepAxis::Tenants));
        assert!("bogus".parse::<SweepAxis>().is_err());
    }

    #[test]
    fn every_point_splits_cleanly_at_every_tenant_count() {
        // point_config must never hit the divide-evenly panics for any
        // (axis, point, tenants, preset) combination the engine can request.
        let ctx = quick_ctx();
        for axis in SweepAxis::ALL {
            for &point in axis.points() {
                let tenant_counts: &[usize] = if axis == SweepAxis::Tenants {
                    &[point]
                } else {
                    &[2, 3, 4]
                };
                for &n in tenant_counts {
                    for preset in SCENARIO_PRESETS {
                        let (cfg, effective) = point_config(&ctx, axis, point, n, preset);
                        assert_eq!(cfg.walk.n_tenants, n);
                        assert!(effective >= point, "{axis} {point} at {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn walker_points_round_up_per_tenant_count() {
        let ctx = quick_ctx();
        let (cfg, eff) = point_config(&ctx, SweepAxis::Walkers, 8, 3, PolicyPreset::Dws);
        assert_eq!((cfg.walk.n_walkers, eff), (9, 9));
        let (cfg, eff) = point_config(&ctx, SweepAxis::Walkers, 16, 2, PolicyPreset::Dws);
        assert_eq!((cfg.walk.n_walkers, eff), (16, 16));
    }

    #[test]
    fn canonical_points_reuse_published_cache_entries() {
        // At two tenants the 16-walker point IS the canonical pair config,
        // so those cells are the pair jobs and never re-simulate.
        let mut ctx = quick_ctx();
        for preset in SCENARIO_PRESETS {
            let (cfg, _) = point_config(&ctx, SweepAxis::Walkers, 16, 2, preset);
            assert_eq!(cfg, ctx.tenant_config(2, preset), "{preset}");
            let (cfg, _) = point_config(&ctx, SweepAxis::Queue, 192, 2, preset);
            assert_eq!(cfg, ctx.tenant_config(2, preset), "{preset}");
            let (cfg, _) = point_config(&ctx, SweepAxis::L2Tlb, 1024, 2, preset);
            assert_eq!(cfg, ctx.tenant_config(2, preset), "{preset}");
        }
        // And the tenants axis is canonical at every point.
        for &n in SweepAxis::Tenants.points() {
            let (cfg, _) = point_config(&ctx, SweepAxis::Tenants, n, n, PolicyPreset::Dws);
            assert_eq!(cfg, ctx.tenant_config(n, PolicyPreset::Dws), "{n} tenants");
        }
        // Off-canonical points are distinct jobs.
        let mix = walksteal_workloads::WorkloadMix::new([
            walksteal_workloads::AppId::Gups,
            walksteal_workloads::AppId::Mm,
        ]);
        let (a, _) = run_point(&mut ctx, SweepAxis::Walkers, 8, 2, PolicyPreset::Dws, &mix);
        let (b, _) = run_point(&mut ctx, SweepAxis::Walkers, 32, 2, PolicyPreset::Dws, &mix);
        assert_ne!(a, b, "different walker counts must be distinct runs");
    }

    #[test]
    fn sens_walkers_emits_one_row_per_point() {
        let mut ctx = quick_ctx();
        let t = sens(&mut ctx, SweepAxis::Walkers, 2);
        assert_eq!(t.rows.len(), 3);
        for (label, vals) in &t.rows {
            assert_eq!(vals.len(), 3, "{label}");
            assert!(
                (vals[0] - 1.0).abs() < 1e-12,
                "{label}: Baseline column is the per-point normalization base"
            );
            assert!(vals.iter().all(|v| v.is_finite() && *v > 0.0), "{label}");
        }
        assert_eq!(t.rows[1].0, "16 walkers");
    }
}
