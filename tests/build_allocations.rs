//! Pins the host work of one simulation build: the allocations a
//! paper-scale pair build (GUPS + MM under DWS, 30 SMs x 24 warps, seed 42)
//! makes and the bytes it requests, counted by a global allocator that
//! counts only while the test thread builds. A build touches every byte it
//! allocates, and a build that follows a long run finds none of that memory
//! or code in cache, so these counts are what `SimulationBuilder::try_build`
//! costs cold. The simulation used to make 331 allocations requesting
//! 744,512 bytes here (before TLB, cache and event-ring storage moved to
//! first use and the warp streams shared one record per tenant). A change
//! that adds set-up work changes the pins; update them deliberately.
//!
//! The binary holds one test so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use walksteal::experiments::Scale;
use walksteal::multitenant::{PolicyPreset, SimulationBuilder};
use walksteal::workloads::AppId;

thread_local! {
    /// Set while the test thread builds the simulation.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting each allocation (a reallocation counts
/// once, with its new size) made by a thread that is counting.
struct Counting;

impl Counting {
    fn count(size: usize) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only atomics and a const-initialized thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn paper_scale_pair_build_allocations_are_pinned() {
    let cfg = Scale::Paper
        .base_config()
        .for_tenants(2)
        .with_preset(PolicyPreset::Dws);
    let builder = SimulationBuilder::new()
        .config(cfg)
        .seed(42)
        .tenants([AppId::Gups, AppId::Mm]);
    COUNTING.with(|c| c.set(true));
    let sim = builder.try_build();
    COUNTING.with(|c| c.set(false));
    assert!(sim.is_ok(), "the paper-scale pair must build");
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    assert_eq!(
        (allocations, bytes),
        (49, 166_904),
        "set-up work changed: {allocations} allocations requesting {bytes} bytes"
    );
}
