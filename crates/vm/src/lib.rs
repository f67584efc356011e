//! GPU virtual-memory substrate — and the paper's contribution.
//!
//! This crate models the full address-translation path of a multi-tenant
//! GPU:
//!
//! * [`page::PageSize`] — 4 KB base pages and 64 KB large pages.
//! * [`frame::FrameAlloc`] — physical-frame allocation (tenants get disjoint
//!   physical address spaces).
//! * [`page_table::PageTable`] — a real multi-level radix page table,
//!   populated on first touch; walks read per-level entry addresses that are
//!   cacheable in the shared L2.
//! * [`tlb::Tlb`] — set-associative, LRU TLBs tagged by (tenant, vpn); used
//!   for both the private per-SM L1 TLBs and the L2 TLB.
//! * [`pwc::PwCache`] — the page-walk cache: longest-prefix match over
//!   upper page-table levels, reducing a walk to 1–3 memory accesses.
//! * [`walk`] — the page-walk subsystem: a pool of page-table walkers fed by
//!   walk queues under a pluggable scheduling policy. This is where the
//!   paper's **dynamic walk stealing (DWS)** and **DWS++** live, alongside
//!   the baseline shared queue, static partitioning, and private pools, and
//!   the FWA / TWM / WTM hardware tables that implement stealing.
//! * [`mask`] — a MASK-style token mechanism (TLB-fill throttling + PTE L2
//!   bypass) used as a comparison point (paper Fig. 11).
//! * [`arena`] — the L2 TLB as one type, [`ArenaTlb`], for all five
//!   organizations: the paper's shared [`Tlb`] and per-tenant private
//!   `Tlb`s (S-TLB), and the related-work designs raced against DWS/DWS++
//!   — sub-entry sharing ([`SubEntryTlb`]), Mosaic-style transparent
//!   large-page coalescing ([`MosaicTlb`]), and dead-entry fill prediction
//!   ([`DeadGuardTlb`]).
//!
//! # Examples
//!
//! ```
//! use walksteal_vm::{FrameAlloc, PageSize, PageTable};
//! use walksteal_sim_core::{TenantId, Vpn};
//!
//! let mut frames = FrameAlloc::new();
//! let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
//! let path = pt.walk_path(Vpn(0x1234), &mut frames);
//! // A 4-level table needs four entry reads on a cold walk.
//! assert_eq!(path.entry_addrs.len(), 4);
//! // The mapping is stable: walking again yields the same frame.
//! assert_eq!(pt.walk_path(Vpn(0x1234), &mut frames).ppn, path.ppn);
//! ```

pub mod arena;
pub mod frame;
pub mod invariants;
pub mod mask;
pub mod page;
pub mod page_table;
pub mod pwc;
pub mod tlb;
pub mod walk;

pub use arena::{
    ArenaTlb, ArenaTlbKind, DeadGuardTlb, MosaicTlb, SubEntryTlb, MOSAIC_COALESCE_THRESHOLD,
    MOSAIC_GROUP, MOSAIC_LARGE_ENTRIES, SUB_ENTRIES,
};
pub use frame::FrameAlloc;
pub use mask::{MaskConfig, MaskState};
pub use page::PageSize;
pub use page_table::{PageTable, WalkPath, MAX_FRAMES};
pub use pwc::{PwCache, PwcHit};
pub use tlb::{Replacement, Tlb, TlbConfig};
pub use walk::{
    CompletedWalk, DispatchedWalk, DwsPlusPlusParams, SchedulerImpl, StealMode, WalkConfig,
    WalkPolicyKind, WalkQueueFull, WalkRequest, WalkStats, WalkSubsystem, MAX_PARTITIONED_WALKERS,
    MAX_WALKERS,
};
