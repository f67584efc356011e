//! The benchmark's workloads: which simulations one run of each consists of.
//!
//! Every workload follows the paper's co-run methodology (a heavy and a
//! light tenant, or a mix, sharing one GPU until each completes an
//! execution). They differ in which layers do the work:
//!
//! * `pair_hl` — GUPS+MM under DWS: translation-bound (walk scheduler, PWC,
//!   PTE chain, shared `Tlb`).
//! * `pair_ll` — 24 HS+MM pairs under DWS: translation-light, so stream
//!   generation, L1s, data memory, dispatch and per-simulation set-up do the
//!   work; the bypass workload for any walk-layer change.
//! * `arena4_mosaic` — GUPS+3DS+MM+HS under MOSAIC on the canonical
//!   4-tenant machine: walk-heavy, but the L2 TLB is the `ArenaTlb`
//!   coalescing path over reservation page tables.
//! * `churn_heavy` — 96 heavy-churn timelines under DWS++: the only
//!   workload that runs the scenario engine and the SLO controller.
//!   Single timelines differ in length by more than their mean, so the
//!   batch is large enough that its total work barely depends on the seed.

use walksteal_experiments::{scenario_from_plan, ChurnKind, ExpContext, Scale, Store};
use walksteal_multitenant::{GpuConfig, PolicyPreset, ScenarioSpec, SimulationBuilder};
use walksteal_workloads::AppId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PairHl,
    PairLl,
    Arena4Mosaic,
    ChurnHeavy,
}

/// One simulation of a workload run.
pub struct SimSpec {
    /// The machine, already specialized for the tenant count and preset.
    pub cfg: GpuConfig,
    /// The tenants in tenant order.
    pub apps: Vec<AppId>,
    /// The arrival/departure timeline, for churn workloads.
    pub scenario: Option<ScenarioSpec>,
    pub seed: u64,
}

impl SimSpec {
    /// The simulation with the shipped defaults and observability off.
    pub fn builder(&self) -> SimulationBuilder {
        let b = SimulationBuilder::new()
            .config(self.cfg.clone())
            .seed(self.seed);
        match &self.scenario {
            Some(spec) => b.scenario(spec.clone()),
            None => b.tenants(self.apps.iter().copied()),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PairHl,
        Workload::PairLl,
        Workload::Arena4Mosaic,
        Workload::ChurnHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PairHl => "pair_hl",
            Workload::PairLl => "pair_ll",
            Workload::Arena4Mosaic => "arena4_mosaic",
            Workload::ChurnHeavy => "churn_heavy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations one run of this workload consists of, generated from
    /// `seed` alone. Quick scale shrinks the machine and the batches.
    pub fn sims(self, seed: u64, scale: Scale) -> Vec<SimSpec> {
        let paper = scale == Scale::Paper;
        let ctx = ExpContext::new(scale, Store::in_memory());
        let pair = |apps: [AppId; 2], seed| SimSpec {
            cfg: scale
                .base_config()
                .for_tenants(2)
                .with_preset(PolicyPreset::Dws),
            apps: apps.to_vec(),
            scenario: None,
            seed,
        };
        match self {
            Workload::PairHl => vec![pair([AppId::Gups, AppId::Mm], seed)],
            Workload::PairLl => (0..if paper { 24 } else { 4 })
                .map(|i| pair([AppId::Hs, AppId::Mm], seed.wrapping_add(i)))
                .collect(),
            Workload::Arena4Mosaic => vec![SimSpec {
                cfg: ctx.tenant_config(4, PolicyPreset::MosaicPages),
                apps: vec![AppId::Gups, AppId::Tds, AppId::Mm, AppId::Hs],
                scenario: None,
                seed,
            }],
            Workload::ChurnHeavy => (0..if paper { 96 } else { 4 })
                .map(|i| {
                    let seed = seed.wrapping_add(i);
                    let plan = ChurnKind::Heavy.process().generate(seed);
                    SimSpec {
                        cfg: ctx.tenant_config(plan.n_tenants(), PolicyPreset::DwsPlusPlus),
                        apps: plan.apps(),
                        scenario: Some(scenario_from_plan(&plan, Some(ChurnKind::Heavy.slo()))),
                        seed,
                    }
                })
                .collect(),
        }
    }
}
