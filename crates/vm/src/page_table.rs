//! A multi-level radix page table, populated on first touch.
//!
//! Each tenant owns one [`PageTable`]. A walk over a [`Vpn`] yields the
//! physical addresses of the page-table entries read at each level (these
//! are what the walkers fetch through the L2/DRAM) plus the final frame
//! number. Interior nodes and leaf frames are allocated lazily from a shared
//! [`FrameAlloc`] the first time a page is touched — mirroring first-touch
//! demand allocation.

use walksteal_sim_core::{FnvMap, PhysAddr, Ppn, TenantId, Vpn};

use crate::frame::FrameAlloc;
use crate::page::PageSize;

/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;

/// Packs an interior-node map key into one word (single-`u64` FNV hash).
/// Prefixes stay far below 2^60: a level-`L` prefix is the VPN shifted
/// right by at least one 9-bit radix step.
#[inline]
fn node_key(level: usize, prefix: u64) -> u64 {
    debug_assert!(level < 16 && prefix < 1 << 60, "node key fields overflow");
    ((level as u64) << 60) | prefix
}

/// The result of resolving a [`Vpn`] through the radix tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical address of the entry read at each level, root first.
    /// A walker that hits the page-walk cache skips a prefix of these.
    pub entry_addrs: Vec<PhysAddr>,
    /// Physical address of each *node* visited, root first. Entry `i` of
    /// `entry_addrs` lies within node `i`. Used to fill the page-walk cache.
    pub node_addrs: Vec<PhysAddr>,
    /// The translated frame.
    pub ppn: Ppn,
}

/// One tenant's multi-level page table.
///
/// # Examples
///
/// ```
/// use walksteal_vm::{FrameAlloc, PageSize, PageTable};
/// use walksteal_sim_core::{TenantId, Vpn};
///
/// let mut frames = FrameAlloc::new();
/// let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
/// let first = pt.walk_path(Vpn(7), &mut frames);
/// let again = pt.walk_path(Vpn(7), &mut frames);
/// assert_eq!(first, again); // mappings are stable
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    tenant: TenantId,
    page_size: PageSize,
    root: Ppn,
    root_allocated: bool,
    /// Interior nodes, keyed by [`node_key`] (level packed with the
    /// index-prefix). Level 0 is the root's children, i.e. the node
    /// *reached from* the root at a given prefix. FNV-hashed: probed per
    /// walk level on the hot path, never iterated.
    nodes: FnvMap<u64, Ppn>,
    /// Leaf mappings (FNV-hashed likewise).
    leaves: FnvMap<Vpn, Ppn>,
    /// Last `(packed key, node)` resolved per interior level. Consecutive
    /// walks nearly always repeat the upper-level prefixes, and interior
    /// nodes are never remapped once allocated, so a key match answers the
    /// map probe exactly (and implies no allocation would have happened).
    node_memo: [(u64, Ppn); 4],
    touched_pages: u64,
    /// First touch of any page maps its whole aligned group of this many
    /// pages contiguously (1 = plain first-touch allocation). The
    /// contiguity guarantee behind Mosaic-style coalescing: page `i` of a
    /// group always lands `i * granules` frames past the group's base.
    reserve_pages: u64,
}

/// Sentinel memo key that can never equal a real [`node_key`] (real keys
/// keep bit 63 clear: levels stay below 8).
const MEMO_EMPTY: u64 = u64::MAX;

impl PageTable {
    /// Creates an empty page table for `tenant`.
    #[must_use]
    pub fn new(tenant: TenantId, page_size: PageSize) -> Self {
        PageTable {
            tenant,
            page_size,
            root: Ppn(0),
            root_allocated: false,
            // Pre-sized so steady-state walks never pay a rehash; both maps
            // grow past default capacity within the first simulated epoch.
            nodes: FnvMap::with_capacity_and_hasher(1 << 12, Default::default()),
            leaves: FnvMap::with_capacity_and_hasher(1 << 14, Default::default()),
            node_memo: [(MEMO_EMPTY, Ppn(0)); 4],
            touched_pages: 0,
            reserve_pages: 1,
        }
    }

    /// As [`new`](Self::new), but the first touch of any page eagerly maps
    /// its whole aligned group of `reserve_pages` pages to contiguous
    /// frames (Mosaic-style contiguity reservation).
    ///
    /// # Panics
    ///
    /// Panics if `reserve_pages` is not a power of two.
    #[must_use]
    pub fn with_reservation(tenant: TenantId, page_size: PageSize, reserve_pages: u64) -> Self {
        assert!(
            reserve_pages.is_power_of_two(),
            "reservation group must be a power of two"
        );
        let mut pt = PageTable::new(tenant, page_size);
        pt.reserve_pages = reserve_pages;
        pt
    }

    /// The tenant owning this table.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The page size this table maps.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of distinct pages touched (and thus mapped) so far.
    #[must_use]
    pub fn touched_pages(&self) -> u64 {
        self.touched_pages
    }

    /// Looks up the mapping for `vpn` without allocating.
    #[must_use]
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        self.leaves.get(&vpn).copied()
    }

    /// The index-prefix consumed by levels `0..=level` of `vpn`.
    ///
    /// Two VPNs share the page-table node *entered after* `level` iff their
    /// prefixes at `level` are equal — this is the page-walk-cache key.
    #[must_use]
    pub fn prefix_at(&self, vpn: Vpn, level: usize) -> u64 {
        let bits = u64::from(self.page_size.bits_per_level());
        let levels = self.page_size.levels() as u64;
        let shift = bits * (levels - 1 - level as u64);
        vpn.0 >> shift
    }

    /// Resolves `vpn` through the tree, allocating any missing interior
    /// nodes and the leaf frame from `frames` (first touch).
    ///
    /// Returns the per-level entry addresses the walker must read, the node
    /// addresses (for page-walk-cache fills), and the final frame.
    pub fn walk_path(&mut self, vpn: Vpn, frames: &mut FrameAlloc) -> WalkPath {
        let mut out = WalkPath::default();
        self.walk_path_into(vpn, frames, &mut out);
        out
    }

    /// As [`walk_path`](Self::walk_path), but writes into `out`, reusing its
    /// buffers. The walker dispatch path calls this once per walk, so it
    /// must not allocate in steady state.
    pub fn walk_path_into(&mut self, vpn: Vpn, frames: &mut FrameAlloc, out: &mut WalkPath) {
        if !self.root_allocated {
            self.root = frames.alloc();
            self.root_allocated = true;
        }
        let levels = self.page_size.levels();
        let bits = u64::from(self.page_size.bits_per_level());
        out.entry_addrs.clear();
        out.node_addrs.clear();
        let mut node = self.root;
        for level in 0..levels {
            let shift = bits * (levels - 1 - level) as u64;
            let index = (vpn.0 >> shift) & ((1 << bits) - 1);
            // One 4 KB frame holds a 512-entry node regardless of data page
            // size; entries are PTE_BYTES each.
            let node_base = PhysAddr(node.0 << 12);
            out.node_addrs.push(node_base);
            out.entry_addrs.push(PhysAddr(node_base.0 + index * PTE_BYTES));
            if level + 1 < levels {
                let key = node_key(level, vpn.0 >> shift);
                let memo = &mut self.node_memo[level];
                node = if memo.0 == key {
                    memo.1
                } else {
                    let n = *self.nodes.entry(key).or_insert_with(|| frames.alloc());
                    *memo = (key, n);
                    n
                };
            }
        }
        // Leaf frames are allocated in 4 KB granules; a large data page
        // reserves all of its granules so its cache lines never alias
        // another allocation's.
        let granules = self.page_size.bytes() / 4096;
        if self.reserve_pages > 1 {
            out.ppn = match self.leaves.get(&vpn) {
                Some(&ppn) => ppn,
                None => {
                    // Map the whole aligned group contiguously, so every
                    // page of the group gets a frame offset equal to its
                    // page offset — the contiguity Mosaic coalescing needs.
                    let group_base = vpn.0 & !(self.reserve_pages - 1);
                    let frame_base = frames.alloc_contiguous(granules * self.reserve_pages);
                    for i in 0..self.reserve_pages {
                        self.leaves
                            .insert(Vpn(group_base + i), Ppn(frame_base.0 + i * granules));
                    }
                    self.touched_pages += self.reserve_pages;
                    Ppn(frame_base.0 + (vpn.0 - group_base) * granules)
                }
            };
            return;
        }
        let touched = &mut self.touched_pages;
        out.ppn = *self.leaves.entry(vpn).or_insert_with(|| {
            *touched += 1;
            frames.alloc_contiguous(granules)
        });
    }

    /// The node physical address a walk would continue from after consuming
    /// levels `0..=level` — i.e. what a page-walk-cache hit at `level`
    /// provides. Returns `None` if that subtree has not been allocated yet.
    #[must_use]
    pub fn node_after(&self, vpn: Vpn, level: usize) -> Option<PhysAddr> {
        let prefix = self.prefix_at(vpn, level);
        self.nodes
            .get(&node_key(level, prefix))
            .map(|ppn| PhysAddr(ppn.0 << 12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> (PageTable, FrameAlloc) {
        (
            PageTable::new(TenantId(0), PageSize::Small4K),
            FrameAlloc::new(),
        )
    }

    #[test]
    fn walk_has_one_entry_per_level() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0xABCDE), &mut f);
        assert_eq!(p.entry_addrs.len(), 4);
        assert_eq!(p.node_addrs.len(), 4);
    }

    #[test]
    fn large_pages_walk_three_levels() {
        let mut pt = PageTable::new(TenantId(0), PageSize::Large64K);
        let mut f = FrameAlloc::new();
        let p = pt.walk_path(Vpn(0x123), &mut f);
        assert_eq!(p.entry_addrs.len(), 3);
    }

    #[test]
    fn mapping_is_stable() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(42), &mut f);
        let b = pt.walk_path(Vpn(42), &mut f);
        assert_eq!(a, b);
        assert_eq!(pt.touched_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(1), &mut f).ppn;
        let b = pt.walk_path(Vpn(2), &mut f).ppn;
        assert_ne!(a, b);
        assert_eq!(pt.touched_pages(), 2);
    }

    #[test]
    fn neighboring_pages_share_upper_nodes() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(0x100), &mut f);
        let b = pt.walk_path(Vpn(0x101), &mut f);
        // Same leaf-level node, different entry within it.
        assert_eq!(a.node_addrs[3], b.node_addrs[3]);
        assert_ne!(a.entry_addrs[3], b.entry_addrs[3]);
        // And the same root.
        assert_eq!(a.node_addrs[0], b.node_addrs[0]);
    }

    #[test]
    fn far_pages_diverge_at_the_root() {
        let (mut pt, mut f) = pt();
        // Differ in the top 9 bits of a 36-bit VPN.
        let a = pt.walk_path(Vpn(0), &mut f);
        let b = pt.walk_path(Vpn(1 << 27), &mut f);
        assert_eq!(a.node_addrs[0], b.node_addrs[0]); // shared root node
        assert_ne!(a.entry_addrs[0], b.entry_addrs[0]); // different root entry
        assert_ne!(a.node_addrs[1], b.node_addrs[1]);
    }

    #[test]
    fn translate_is_non_allocating() {
        let (mut pt, mut f) = pt();
        assert_eq!(pt.translate(Vpn(5)), None);
        let p = pt.walk_path(Vpn(5), &mut f);
        assert_eq!(pt.translate(Vpn(5)), Some(p.ppn));
    }

    #[test]
    fn node_after_matches_walk() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0x2_0000), &mut f);
        // A PWC hit at level 2 yields the node read at level 3.
        assert_eq!(pt.node_after(Vpn(0x2_0000), 2), Some(p.node_addrs[3]));
        // An unwalked subtree has no node.
        assert_eq!(pt.node_after(Vpn(0x7777_0000), 2), None);
    }

    #[test]
    fn entry_addrs_lie_within_their_node_frame() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0x1FF), &mut f);
        for (e, n) in p.entry_addrs.iter().zip(&p.node_addrs) {
            assert!(e.0 >= n.0 && e.0 < n.0 + 4096, "entry outside node frame");
        }
    }

    #[test]
    fn reservation_maps_aligned_groups_contiguously() {
        let mut pt = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 8);
        let mut f = FrameAlloc::new();
        let base = pt.walk_path(Vpn(11), &mut f).ppn;
        // First touch of vpn 11 mapped its whole group 8..16; page i of the
        // group sits i frames past the group base.
        assert_eq!(pt.touched_pages(), 8);
        let group_base = Ppn(base.0 - 3);
        for i in 0..8u64 {
            assert_eq!(
                pt.translate(Vpn(8 + i)),
                Some(Ppn(group_base.0 + i)),
                "page {i}"
            );
        }
        // Touching another page of the same group allocates nothing new.
        assert_eq!(pt.walk_path(Vpn(8), &mut f).ppn, group_base);
        assert_eq!(pt.touched_pages(), 8);
    }

    #[test]
    fn reservation_of_one_matches_plain_first_touch() {
        let (mut plain, mut f1) = pt();
        let mut res = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 1);
        let mut f2 = FrameAlloc::new();
        for v in [7u64, 3, 900, 7] {
            assert_eq!(
                plain.walk_path(Vpn(v), &mut f1),
                res.walk_path(Vpn(v), &mut f2)
            );
        }
        assert_eq!(plain.touched_pages(), res.touched_pages());
    }
}
