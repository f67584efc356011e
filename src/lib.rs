//! # walksteal
//!
//! A from-scratch Rust reproduction of *Improving GPU Multi-tenancy with Page
//! Walk Stealing* (B. Pratheek, Neha Jawalkar, Arkaprava Basu — HPCA 2021).
//!
//! GPUs share one L2 TLB and one pool of page-table walkers across all
//! streaming multiprocessors. Under spatial multi-tenancy (multiple
//! applications resident at once, as with NVIDIA MPS/MIG) walk requests from
//! independent tenants interleave in the shared walk queue, so a tenant with a
//! modest page-walk rate queues behind tens of walks from a walk-intensive
//! neighbor. The paper proposes **dynamic walk stealing (DWS)**: soft-partition
//! the walkers per tenant (per-walker queues + ownership) and let an idle
//! walker *steal* a pending walk from another tenant, bounding cross-tenant
//! interleaving to at most one walk. **DWS++** loosens the steal condition
//! with an epoch-adaptive imbalance threshold to trade throughput for
//! fairness.
//!
//! This crate is a facade that re-exports the whole workspace:
//!
//! * [`sim`] — discrete-event kernel, typed ids, RNG, statistics.
//! * [`mem`] — caches, MSHRs, DRAM channel model.
//! * [`vm`] — page tables, TLBs, page-walk cache, walkers, and the
//!   walk-scheduling policies (baseline shared queue, static partition,
//!   DWS, DWS++, MASK-style tokens).
//! * [`gpu`] — SMs, warps, GTO scheduling, coalescing.
//! * [`workloads`] — synthetic models of the 13 MAFIA benchmarks.
//! * [`multitenant`] — the composed multi-tenant GPU simulator, the paper's
//!   methodology, and its metrics (total IPC, weighted IPC, fairness, …).
//! * [`experiments`] — runners that regenerate every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use walksteal::prelude::*;
//!
//! // Two tenants: page-walk-heavy GUPS next to a light matrix multiply,
//! // at toy scale so the doctest runs in milliseconds.
//! let result = SimulationBuilder::new()
//!     .tenants([AppId::Gups, AppId::Mm])
//!     .preset(PolicyPreset::Dws)
//!     .n_sms(4)
//!     .warps_per_sm(4)
//!     .instructions_per_warp(300)
//!     .seed(1)
//!     .build()
//!     .run();
//! assert!(result.total_ipc() > 0.0);
//! ```
//!
//! To watch what the walk schedulers are doing, attach observability sinks
//! through the same builder:
//!
//! ```
//! use walksteal::prelude::*;
//!
//! let trace = RingTracer::unbounded();
//! let metrics = SharedMetrics::new();
//! let result = SimulationBuilder::new()
//!     .tenants([AppId::Gups, AppId::Mm])
//!     .preset(PolicyPreset::Dws)
//!     .n_sms(4)
//!     .warps_per_sm(4)
//!     .instructions_per_warp(300)
//!     .tracer(trace.clone())
//!     .metrics(metrics.clone())
//!     .build()
//!     .run();
//! // Every completed walk left a trace event, and the run exported its
//! // final counters into the handle when it ended.
//! let walks: u64 = metrics.counter("walks_completed", Some(0))
//!     + metrics.counter("walks_completed", Some(1));
//! assert!(walks > 0 && !trace.events().is_empty());
//! assert!(result.total_ipc() > 0.0);
//! ```

pub use walksteal_experiments as experiments;
pub use walksteal_gpu as gpu;
pub use walksteal_mem as mem;
pub use walksteal_multitenant as multitenant;
pub use walksteal_sim_core as sim;
pub use walksteal_vm as vm;
pub use walksteal_vm::invariants;
pub use walksteal_workloads as workloads;

/// The one-stop import for driving the simulator: builder, policy presets,
/// workloads, results, budgets, and the observability types.
///
/// ```
/// use walksteal::prelude::*;
///
/// let r = SimulationBuilder::new()
///     .tenant(AppId::Mm)
///     .n_sms(2)
///     .warps_per_sm(2)
///     .instructions_per_warp(200)
///     .build()
///     .run();
/// assert_eq!(r.tenants.len(), 1);
/// ```
pub mod prelude {
    pub use walksteal_multitenant::{
        fairness, weighted_ipc, ChurnReport, GpuConfig, PolicyPreset, ScenarioEvent, ScenarioSpec,
        SimResult, Simulation, SimulationBuilder, SloPolicy, TenantChurn, TenantResult, TenantSpec,
    };
    pub use walksteal_sim_core::{
        Json, JsonlTracer, MetricsRegistry, RingTracer, RunBudget, SharedMetrics, SimError,
        TraceEvent, TraceFilter, TraceKind, Tracer,
    };
    pub use walksteal_workloads::{named_pairs, paper_pairs, AppId, WorkloadPair};
}
