//! Synthetic workload models of the paper's 13 MAFIA benchmarks.
//!
//! The paper drives its simulator with CUDA applications from the MAFIA
//! framework, classified Light / Medium / Heavy by their L2-TLB misses per
//! million instructions (MPMI; Table II). We cannot execute CUDA binaries,
//! so each application is modeled as a parameterized statistical stream of
//! warp operations ([`WarpStream`]) that reproduces the three properties the
//! paper's results depend on (DESIGN.md, substitution 1):
//!
//! 1. **Standalone MPMI class** — Light (< 25), Medium (25–80), or
//!    Heavy (> 80), via the size of per-warp *hot* and *cold* page regions
//!    and the probability of touching the cold region.
//! 2. **Access pattern** — sequential / strided / random page selection and
//!    per-instruction divergence (distinct pages per memory instruction;
//!    GUPS and SAD coalesce poorly).
//! 3. **Compute intensity** — mean compute-burst length between memory
//!    instructions, which converts walk latency into IPC loss.
//!
//! Calibration targets live in integration tests (`tests/calibration.rs` at
//! the workspace root) that run each app standalone and assert its MPMI
//! band.

pub mod apps;
pub mod arrival;
pub mod mixes;
pub mod pairs;
pub mod stream;
pub mod synth;

pub use apps::{AppId, AppProfile, HotPattern, MpmiClass};
pub use arrival::{ArrivalProcess, ChurnPlan};
pub use mixes::{mixes_for, paper_mixes3, paper_mixes4, WorkloadMix, MAX_MIX_TENANTS};
pub use pairs::{named_pairs, paper_pairs, WorkloadPair};
pub use stream::{TenantStream, WarpCursor, WarpOp, WarpStream};
pub use synth::{synthetic_profile, MAX_DIVERGENCE, MAX_STRIDE_LINES};
/// Re-exported so callers naming [`WarpOp::refs`]'s element type need not
/// depend on `walksteal-gpu` directly.
pub use walksteal_gpu::MemRef;
