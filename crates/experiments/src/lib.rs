//! Experiment runners that regenerate every table and figure of the
//! paper's evaluation (§IV and §VII).
//!
//! Each `fig*` / `tab*` function in [`suite`] reproduces one result:
//!
//! | Function | Paper result |
//! | --- | --- |
//! | [`suite::fig2`] | Fig. 2 — total IPC: Baseline / S-TLB / S-(TLB+PTW) |
//! | [`suite::fig3`] | Fig. 3 — weighted IPC for the same configurations |
//! | [`suite::tab3`] | Table III — baseline page-walk interleaving |
//! | [`suite::doubling`] | §IV — 2× resources vs. S-(TLB+PTW) |
//! | [`suite::fig5`] | Fig. 5 — throughput: Baseline / DWS / DWS++ |
//! | [`suite::fig6`] | Fig. 6 — fairness: Baseline / DWS / DWS++ |
//! | [`suite::fig7`] | Fig. 7 — weighted IPC: Baseline / DWS / DWS++ |
//! | [`suite::tab5`] | Table V — interleaving under DWS / DWS++ |
//! | [`suite::tab6`] | Table VI — % of walks serviced by stealing |
//! | [`suite::fig8`] | Fig. 8 — normalized walk latency per class |
//! | [`suite::fig9`] | Fig. 9 — PW-share ↔ TLB-share coupling |
//! | [`suite::fig10`] | Fig. 10 — DWS++ fairness/throughput knob |
//! | [`suite::fig11`] | Fig. 11 — vs. Static / MASK / MASK+DWS |
//! | [`suite::fig12`] | Fig. 12 — TLB-size / walker-count sensitivity |
//! | [`suite::fig13`] | Fig. 13 — three and four tenants |
//! | [`suite::fig14`] | Fig. 14 — 64 KB large pages |
//! | [`suite::calibration`] | Table II — standalone MPMI per app |
//!
//! Beyond the paper's own tables, the scenario engine generalizes the
//! evaluation to N-tenant mixes and hardware sweeps: [`suite::tenants_n`]
//! tabulates the curated three- and four-tenant mixes (`tenants3` /
//! `tenants4`), and [`sweep::sens`] sweeps a [`sweep::SweepAxis`] (walkers,
//! queue depth, L2-TLB size, tenant count) as gmean-over-mixes tables
//! (`sens_*`, `repro --sweep`). The [`churn`] module takes the engine
//! dynamic: seeded arrival/departure timelines under per-tenant SLOs
//! ([`churn::churn_light`] / [`churn::churn_heavy`], `repro --suite`),
//! an arrival-intensity sweep ([`churn::sens_churn`]), and hand-written
//! scenario JSON via `repro --scenario FILE`. The [`arena`] module races
//! the related-work translation designs (sub-entry sharing, Mosaic-style
//! coalescing, dead-entry prediction) against DWS/DWS++ as a gmean
//! leaderboard ([`arena::arena_quick`] / [`arena::arena_full`],
//! `repro --suite`).
//!
//! Runs are cached on disk (see [`store::Store`]), so re-running the suite
//! re-simulates only what is missing, and separate experiments share the
//! same underlying simulations.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro all            # every experiment at paper scale
//! repro --quick fig5   # one experiment at smoke-test scale
//! ```

pub mod arena;
pub mod churn;
pub mod fault;
pub mod fuzz;
pub mod key;
pub mod parallel;
pub mod report;
pub mod scale;
pub mod store;
pub mod suite;
pub mod sweep;
pub mod timeline;

pub use arena::{arena_full, arena_quick, ARENA_PRESETS, ARENA_TENANT_COUNTS};
pub use churn::{scenario_from_plan, ChurnKind};
pub use fault::{FaultSpec, InjectedFault};
pub use fuzz::{
    load_repro, run_campaign, run_oracles, shrink, write_repro, CampaignOptions, CampaignOutcome,
    ChurnEvent, Coverage, Divergence, FuzzGen, FuzzScenario, OracleStats, Plant, RepartitionEvent,
    TenantSource,
};
pub use key::ExpKey;
pub use parallel::{Job, JobError, JobFailure, RunOptions, RunReport};
pub use report::Table;
pub use scale::Scale;
pub use store::{QuarantineEvent, Store, StoreError};
pub use suite::ExpContext;
pub use sweep::SweepAxis;
pub use timeline::{first_mismatch, parse_trace, render, replay, TenantReplay, TraceReplay};
