//! The composed multi-tenant GPU simulator and the paper's methodology.
//!
//! This crate wires the substrates together — SMs and warps
//! (`walksteal-gpu`), workload models (`walksteal-workloads`), TLBs / page
//! tables / the page-walk subsystem (`walksteal-vm`), and the shared L2 +
//! DRAM (`walksteal-mem`) — into a deterministic discrete-event
//! [`Simulation`] of N co-running tenants on one GPU.
//!
//! The evaluation methodology follows §III of the paper:
//!
//! * SMs are spatially partitioned evenly among tenants (as with NVIDIA
//!   MPS); the memory system is shared per the configured policy.
//! * Simulation continues until **every tenant completes at least one full
//!   execution**; tenants that finish early are relaunched so the others
//!   keep experiencing contention.
//! * Per-tenant IPC and all other statistics are measured over completed
//!   executions only.
//!
//! [`GpuConfig`] defaults to the paper's Table I baseline;
//! [`PolicyPreset`] switches among every configuration the evaluation
//! compares (baseline, S-TLB, S-(TLB+PTW), static partitioning, DWS, the
//! three DWS++ variants, MASK, and MASK+DWS).
//!
//! Simulations are constructed through the fluent [`SimulationBuilder`],
//! which also attaches observability sinks: a [`Tracer`] for walk-lifecycle
//! events, and a [`SharedMetrics`] registry that the run fills with its
//! final counters and histograms when it ends.
//!
//! Every run is a scenario underneath: a static tenant list compiles to the
//! degenerate all-arrive-at-cycle-0 timeline and runs the same path, and a
//! [`ScenarioSpec`] adds dynamic tenancy — arrivals, departures, walker
//! repartitions, and per-tenant SLO targets enforced by an online QoS
//! controller (see [`scenario`](mod@scenario)).
//!
//! # Examples
//!
//! ```
//! use walksteal_multitenant::{PolicyPreset, SimulationBuilder};
//! use walksteal_workloads::AppId;
//!
//! let result = SimulationBuilder::new()
//!     .tenants([AppId::Gups, AppId::Mm])
//!     .preset(PolicyPreset::Dws)
//!     .n_sms(4)
//!     .warps_per_sm(4)
//!     .instructions_per_warp(300)
//!     .build()
//!     .run();
//! assert_eq!(result.tenants.len(), 2);
//! assert!(result.tenants.iter().all(|t| t.completed_executions >= 1));
//! ```

pub mod build;
pub mod config;
pub mod metrics;
pub mod scenario;
pub mod sim;

pub use build::{SimulationBuilder, StreamPipelining, TenantSpec};
pub use config::{GpuConfig, PolicyPreset};
pub use metrics::{fairness, weighted_ipc, Sample, SimResult, TenantResult};
pub use scenario::{ChurnReport, ScenarioEvent, ScenarioSpec, SloPolicy, TenantChurn};
pub use sim::Simulation;

// Re-exported so downstream users can configure policies and observability
// without importing the substrate crates directly.
pub use walksteal_sim_core::{
    BudgetKind, ConfigError, JsonlTracer, MetricsRegistry, RingTracer, RunBudget, RunDiag,
    SharedMetrics, SimError, TraceEvent, TraceFilter, TraceKind, Tracer,
};
pub use walksteal_vm::{DwsPlusPlusParams, StealMode, WalkConfig, WalkPolicyKind};
