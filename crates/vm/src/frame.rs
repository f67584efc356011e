//! Physical-frame allocation.
//!
//! A single bump allocator hands out device-memory frames to every tenant's
//! page tables and data pages. Tenants therefore occupy *disjoint* physical
//! addresses (as real per-process GPU allocations do), while their frames
//! still interleave across cache sets and DRAM channels — which is exactly
//! what makes the shared L2 and DRAM contended resources.

use walksteal_sim_core::Ppn;

/// A bump allocator over physical page frames.
///
/// # Examples
///
/// ```
/// use walksteal_vm::FrameAlloc;
///
/// let mut frames = FrameAlloc::new();
/// let a = frames.alloc();
/// let b = frames.alloc();
/// assert_ne!(a, b);
/// assert_eq!(frames.allocated(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameAlloc {
    next: u64,
}

impl FrameAlloc {
    /// Creates an allocator with no frames handed out.
    #[must_use]
    pub fn new() -> Self {
        FrameAlloc::default()
    }

    /// An allocator whose next frame is `next`, to exercise frame numbers
    /// near the page table's [`MAX_FRAMES`](crate::page_table::MAX_FRAMES)
    /// without allocating billions of frames first.
    #[cfg(test)]
    pub(crate) fn starting_at(next: u64) -> Self {
        FrameAlloc { next }
    }

    /// Allocates the next free frame.
    pub fn alloc(&mut self) -> Ppn {
        let ppn = Ppn(self.next);
        self.next += 1;
        ppn
    }

    /// Allocates `n` consecutive frames, returning the first. Large data
    /// pages span multiple 4 KB frame granules; reserving all of them keeps
    /// their cache-line ranges disjoint from every other allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn alloc_contiguous(&mut self, n: u64) -> Ppn {
        assert!(n > 0, "must allocate at least one frame");
        let ppn = Ppn(self.next);
        self.next += n;
        ppn
    }

    /// Total frames allocated so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique_and_sequential() {
        let mut f = FrameAlloc::new();
        assert_eq!(f.alloc(), Ppn(0));
        assert_eq!(f.alloc(), Ppn(1));
        assert_eq!(f.alloc(), Ppn(2));
        assert_eq!(f.allocated(), 3);
    }
}
