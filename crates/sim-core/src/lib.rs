//! Discrete-event simulation kernel for the `walksteal` GPU simulator.
//!
//! This crate provides the building blocks shared by every other crate in the
//! workspace:
//!
//! * [`ids`] — strongly-typed identifiers and addresses ([`Cycle`],
//!   [`TenantId`], [`VirtAddr`], …) so that, e.g., a virtual address can never
//!   be passed where a physical one is expected.
//! * [`event`] — a deterministic discrete-event queue ([`EventQueue`]) with
//!   FIFO tie-breaking for events scheduled at the same cycle.
//! * [`rng`] — a small, fast, seedable random-number generator ([`SimRng`])
//!   so simulations replay bit-identically from a seed.
//! * [`stats`] — histograms, the per-tenant [`ShareIntegral`] behind the
//!   paper's TLB and walker shares, and the geometric / arithmetic mean
//!   helpers used throughout the paper's evaluation.
//! * [`json`] — a dependency-free JSON reader/writer ([`Json`]) for the
//!   experiment cache and CLI output, so the workspace builds offline.
//! * [`error`] — structured run failures ([`SimError`]) and watchdog
//!   budgets ([`RunBudget`]) so a runaway simulation aborts with a partial
//!   diagnostic instead of hanging its caller.
//! * [`trace`] — zero-cost-when-off walk-lifecycle tracing ([`Tracer`],
//!   [`TraceEvent`], [`Observer`]) with JSONL and ring-buffer sinks.
//! * [`metrics`] — a registry of named counters and histograms
//!   ([`MetricsRegistry`]) that a run fills from its own counters when it
//!   ends.
//!
//! # Examples
//!
//! ```
//! use walksteal_sim_core::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "ten");
//! q.push(Cycle(5), "five");
//! q.push(Cycle(10), "ten again");
//!
//! let mut batch = Vec::new();
//! assert_eq!(q.drain_cycle_into(&mut batch), Some(Cycle(5)));
//! assert_eq!(batch, ["five"]);
//! // A cycle drains whole, its events in insertion order.
//! batch.clear();
//! assert_eq!(q.drain_cycle_into(&mut batch), Some(Cycle(10)));
//! assert_eq!(batch, ["ten", "ten again"]);
//! assert_eq!(q.drain_cycle_into(&mut batch), None);
//! ```

pub mod error;
pub mod event;
pub mod hash;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod trace;

pub use error::{BudgetKind, ConfigError, RunBudget, RunDiag, SimError};
pub use event::EventQueue;
pub use hash::{FnvBuildHasher, FnvHasher, FnvMap};
pub use ids::{Cycle, LineAddr, PhysAddr, Ppn, SmId, TenantId, VirtAddr, Vpn, WalkerId, WarpId};
pub use json::Json;
pub use metrics::{MetricsRegistry, SharedMetrics};
pub use rng::SimRng;
pub use stats::{amean, gmean, Histogram, ShareIntegral};
pub use trace::{JsonlTracer, Observer, RingTracer, TraceEvent, TraceFilter, TraceKind, Tracer};
