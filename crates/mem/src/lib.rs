//! Memory-hierarchy substrate for the `walksteal` GPU simulator.
//!
//! Provides the timing and state model for everything below the SMs:
//!
//! * [`cache::Cache`] — a set-associative, LRU cache usable as a private L1
//!   data cache or as one bank of the shared L2.
//! * [`dram::Dram`] — a multi-channel device-memory model with fixed access
//!   latency and bandwidth-limited channel occupancy.
//! * [`system::MemSystem`] — the shared L2 + DRAM composition every access
//!   below the SM goes through, including page-table walks (the paper's
//!   baseline caches page-table entries in the L2).
//!
//! Every request goes through the scalar [`system::MemSystem::access`];
//! [`system::MemSystem::access_chain`] is its loop form for a walker's serial
//! PTE chain.
//!
//! # Examples
//!
//! ```
//! use walksteal_mem::{MemSystem, MemSystemConfig, AccessKind};
//! use walksteal_sim_core::{Cycle, LineAddr};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::default());
//! // A cold access misses the L2 and pays DRAM latency...
//! let miss = mem.access(LineAddr(42), Cycle(0), AccessKind::Data);
//! // ...and a subsequent access to the same line hits the L2.
//! let hit = mem.access(LineAddr(42), Cycle(1_000), AccessKind::Data);
//! assert!(hit.latency < miss.latency);
//! ```

pub mod cache;
pub mod dram;
pub mod system;

pub use cache::{Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use system::{Access, AccessKind, HitLevel, MemSystem, MemSystemConfig};
