//! A multi-level radix page table, populated on first touch.
//!
//! Each tenant owns one [`PageTable`]. A walk over a [`Vpn`] yields the
//! physical addresses of the page-table entries read at each level (these
//! are what the walkers fetch through the L2/DRAM) plus the final frame
//! number. Interior nodes and leaf frames are allocated lazily from a shared
//! [`FrameAlloc`] the first time a page is touched — mirroring first-touch
//! demand allocation.
//!
//! The host layout follows the modeled one: each allocated node is one
//! 4 KB page-table page, held as its frame plus its 512 entries, and a walk
//! indexes one node per level. There is no hashing and no lookup cache.
//! The host keeps each modeled 8-byte entry in 32 bits, so a node costs
//! 2 KiB and every frame a table maps must lie below [`MAX_FRAMES`].

use walksteal_sim_core::{PhysAddr, Ppn, TenantId, Vpn};

use crate::frame::FrameAlloc;
use crate::page::PageSize;

/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;

/// Entries per node: one 4 KB page-table page of [`PTE_BYTES`]-byte entries.
const FANOUT: usize = 512;

/// Frames a page table can map: a last-level entry holds its frame plus
/// one in 32 bits, so only frames `0..MAX_FRAMES` fit. Simulation set-up
/// rejects any tenant set that could allocate more
/// ([`frames_to_map`](PageTable::frames_to_map)).
pub const MAX_FRAMES: u64 = u32::MAX as u64;

/// The value of a slot that maps nothing yet.
const EMPTY: u32 = 0;

/// One page-table page: the frame it occupies and its 512 entries. An
/// interior node's slot holds the index (in [`PageTable`]'s node list) of
/// the child it points to; a last-level node's slot holds the mapped frame
/// plus one. [`EMPTY`] is free in both encodings: the root, index 0, is
/// nobody's child.
#[derive(Debug, Clone)]
struct Node {
    frame: Ppn,
    slots: Box<[u32; FANOUT]>,
}

impl Node {
    fn new(frame: Ppn) -> Self {
        Node {
            frame,
            slots: Box::new([EMPTY; FANOUT]),
        }
    }
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

/// One tenant's multi-level page table: a radix tree of 512-entry nodes,
/// [`levels`](PageSize::levels) deep, covering
/// [`table_reach`](PageSize::table_reach) pages.
///
/// Nodes are allocated on first touch, top-down: the root at the first
/// walk, then each missing interior node on the walk's path, then the data
/// frame (or the whole reservation group). Each node takes one frame from
/// the shared [`FrameAlloc`], so frame numbers follow touch order.
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
    /// Every allocated node in allocation order; the root, once allocated,
    /// is index 0.
    nodes: Vec<Node>,
    touched_pages: u64,
    /// First touch of any page maps its whole aligned group of this many
    /// pages contiguously (1 = plain first-touch allocation). The
    /// contiguity guarantee behind Mosaic-style coalescing: page `i` of a
    /// group always lands `i * granules` frames past the group's base. A
    /// group never spans two leaf nodes.
    reserve_pages: u64,
}

impl PageTable {
    /// Creates an empty page table for `tenant`.
    #[must_use]
    pub fn new(tenant: TenantId, page_size: PageSize) -> Self {
        PageTable {
            tenant,
            page_size,
            nodes: Vec::new(),
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
    /// Panics if `reserve_pages` is not a power of two that fits one leaf
    /// node (at most 512 pages; Mosaic uses 8).
    #[must_use]
    pub fn with_reservation(tenant: TenantId, page_size: PageSize, reserve_pages: u64) -> Self {
        assert!(
            reserve_pages.is_power_of_two() && reserve_pages <= FANOUT as u64,
            "reservation group must be a power of two that fits one leaf node"
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
        let last = self.page_size.levels() - 1;
        let leaf = self.find(vpn, last)?;
        match self.nodes[leaf].slots[self.index_at(vpn, last)] {
            EMPTY => None,
            slot => Some(Ppn(u64::from(slot) - 1)),
        }
    }

    /// The most frames a table of `page_size` with reservation groups of
    /// `reserve_pages` allocates while mapping pages below `pages`: the
    /// data frames of every group, rounded up to whole groups, plus every
    /// node on their paths. Touching every page below `pages` allocates
    /// exactly this many; `None` if the count overflows a `u64`.
    #[must_use]
    pub fn frames_to_map(page_size: PageSize, reserve_pages: u64, pages: u64) -> Option<u64> {
        let granules = page_size.bytes() / 4096;
        let data = pages
            .checked_next_multiple_of(reserve_pages)?
            .checked_mul(granules)?;
        // A node at depth `levels - k` spans 512^k pages.
        let nodes: u64 = (1..=page_size.levels() as u32)
            .map(|k| pages.div_ceil(1 << (page_size.bits_per_level() * k)))
            .sum();
        data.checked_add(nodes)
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

    /// The slot `vpn` selects in the node read at `level`.
    #[inline]
    fn index_at(&self, vpn: Vpn, level: usize) -> usize {
        (self.prefix_at(vpn, level) & (FANOUT as u64 - 1)) as usize
    }

    /// The node a walk of `vpn` reads at level `depth` (the root is depth
    /// 0), or `None` if that path is not allocated or `vpn` is out of reach.
    fn find(&self, vpn: Vpn, depth: usize) -> Option<usize> {
        if vpn.0 >= self.page_size.table_reach() || self.nodes.is_empty() {
            return None;
        }
        let mut node = 0;
        for level in 0..depth {
            match self.nodes[node].slots[self.index_at(vpn, level)] {
                EMPTY => return None,
                child => node = child as usize,
            }
        }
        Some(node)
    }

    /// Resolves `vpn` through the tree, allocating any missing interior
    /// nodes and the leaf frame from `frames` (first touch).
    ///
    /// Returns the per-level entry addresses the walker must read, the node
    /// addresses (for page-walk-cache fills), and the final frame.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is at or past the table's
    /// [`table_reach`](PageSize::table_reach), or if its data frame is at
    /// or past [`MAX_FRAMES`]. Simulation set-up rejects any tenant whose
    /// address layout could reach that far, and any tenant set that could
    /// allocate that many frames.
    pub fn walk_path(&mut self, vpn: Vpn, frames: &mut FrameAlloc) -> WalkPath {
        let mut out = WalkPath::default();
        self.walk_path_into(vpn, frames, &mut out);
        out
    }

    /// As [`walk_path`](Self::walk_path), but writes into `out`, reusing its
    /// buffers. The walker dispatch path calls this once per walk, so it
    /// must not allocate in steady state.
    ///
    /// # Panics
    ///
    /// As [`walk_path`](Self::walk_path).
    pub fn walk_path_into(&mut self, vpn: Vpn, frames: &mut FrameAlloc, out: &mut WalkPath) {
        let reach = self.page_size.table_reach();
        assert!(
            vpn.0 < reach,
            "vpn {:#x} is past the page table's reach of {reach:#x} pages",
            vpn.0
        );
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(frames.alloc()));
        }
        let levels = self.page_size.levels();
        out.entry_addrs.clear();
        out.node_addrs.clear();
        let (mut node, mut index) = (0, 0);
        for level in 0..levels {
            index = self.index_at(vpn, level);
            // One 4 KB frame holds a 512-entry node regardless of data page
            // size; entries are PTE_BYTES each.
            let node_base = PhysAddr(self.nodes[node].frame.0 << 12);
            out.node_addrs.push(node_base);
            out.entry_addrs
                .push(PhysAddr(node_base.0 + index as u64 * PTE_BYTES));
            if level + 1 < levels {
                node = match self.nodes[node].slots[index] {
                    EMPTY => {
                        let child = self.nodes.len();
                        self.nodes.push(Node::new(frames.alloc()));
                        // Every node holds a frame, so its index fits
                        // wherever the frames do.
                        self.nodes[node].slots[index] =
                            u32::try_from(child).expect("node index fits an entry");
                        child
                    }
                    child => child as usize,
                };
            }
        }
        // `node` is now the last-level node and `index` its slot for `vpn`.
        let slots = &mut self.nodes[node].slots;
        if slots[index] == EMPTY {
            // Leaf frames are allocated in 4 KB granules; a large data page
            // reserves all of its granules so its cache lines never alias
            // another allocation's. The whole aligned group is mapped
            // contiguously, so every page of the group gets a frame offset
            // equal to its page offset — the contiguity Mosaic coalescing
            // needs.
            let granules = self.page_size.bytes() / 4096;
            let group = self.reserve_pages as usize;
            let first = index & !(group - 1);
            let base = frames.alloc_contiguous(granules * self.reserve_pages);
            for (i, slot) in slots[first..first + group].iter_mut().enumerate() {
                *slot = leaf_entry(base.0 + i as u64 * granules);
            }
            self.touched_pages += self.reserve_pages;
        }
        out.ppn = Ppn(u64::from(slots[index]) - 1);
    }

    /// The node physical address a walk would continue from after consuming
    /// levels `0..=level` — i.e. what a page-walk-cache hit at `level`
    /// provides. Returns `None` if that subtree has not been allocated yet,
    /// or if `level` is the last level (a leaf entry names a data frame).
    #[must_use]
    pub fn node_after(&self, vpn: Vpn, level: usize) -> Option<PhysAddr> {
        if level + 1 >= self.page_size.levels() {
            return None;
        }
        self.find(vpn, level + 1)
            .map(|n| PhysAddr(self.nodes[n].frame.0 << 12))
    }
}

/// The last-level entry mapping `frame`: the frame plus one, so that
/// [`EMPTY`] stays free.
///
/// # Panics
///
/// Panics if `frame` is at or past [`MAX_FRAMES`], rather than wrapping to
/// another frame or to an empty entry.
fn leaf_entry(frame: u64) -> u32 {
    match u32::try_from(frame + 1) {
        Ok(entry) => entry,
        Err(_) => panic!(
            "frame {frame:#x} is past the {MAX_FRAMES:#x} frames a 32-bit page-table entry can hold"
        ),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use walksteal_sim_core::SimRng;

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

    #[test]
    #[should_panic(expected = "fits one leaf node")]
    fn reservation_wider_than_a_leaf_node_panics() {
        let _ = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 1024);
    }

    #[test]
    fn last_page_in_reach_walks() {
        for size in [PageSize::Small4K, PageSize::Large64K] {
            let mut pt = PageTable::new(TenantId(0), size);
            let mut f = FrameAlloc::new();
            let last = Vpn(size.table_reach() - 1);
            let p = pt.walk_path(last, &mut f);
            assert_eq!(pt.translate(last), Some(p.ppn), "{size}");
            assert_eq!(pt.translate(Vpn(size.table_reach())), None, "{size}");
            assert_eq!(pt.node_after(Vpn(size.table_reach()), 0), None, "{size}");
        }
    }

    #[test]
    #[should_panic(expected = "past the page table's reach")]
    fn walk_at_the_4k_reach_bound_panics() {
        let (mut pt, mut f) = pt();
        let _ = pt.walk_path(Vpn(1 << 36), &mut f);
    }

    #[test]
    #[should_panic(expected = "past the page table's reach")]
    fn walk_at_the_64k_reach_bound_panics() {
        let mut pt = PageTable::new(TenantId(0), PageSize::Large64K);
        let _ = pt.walk_path(Vpn(1 << 27), &mut FrameAlloc::new());
    }

    #[test]
    fn last_frame_an_entry_holds_maps() {
        // Root and three interior nodes take the four frames below the
        // data frame, which is the last one an entry can hold.
        let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut f = FrameAlloc::starting_at(MAX_FRAMES - 5);
        let p = pt.walk_path(Vpn(0), &mut f);
        assert_eq!(p.ppn, Ppn(MAX_FRAMES - 1));
        assert_eq!(pt.translate(Vpn(0)), Some(Ppn(MAX_FRAMES - 1)));
        assert_eq!(pt.walk_path(Vpn(0), &mut f), p);
    }

    #[test]
    #[should_panic(expected = "32-bit page-table entry")]
    fn first_frame_past_an_entry_is_refused() {
        let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut f = FrameAlloc::starting_at(MAX_FRAMES - 5);
        let _ = pt.walk_path(Vpn(0), &mut f);
        // Same leaf node, so the next frame allocated is the data frame.
        let _ = pt.walk_path(Vpn(1), &mut f);
    }

    #[test]
    fn frames_to_map_counts_what_touching_every_page_allocates() {
        for size in [PageSize::Small4K, PageSize::Large64K] {
            for reserve in [1, 8] {
                for pages in [0, 1, 7, 8, 9, 511, 512, 513, 4096, 300_000] {
                    let mut pt = PageTable::with_reservation(TenantId(0), size, reserve);
                    let mut f = FrameAlloc::new();
                    for v in 0..pages {
                        let _ = pt.walk_path(Vpn(v), &mut f);
                    }
                    assert_eq!(
                        PageTable::frames_to_map(size, reserve, pages),
                        Some(f.allocated()),
                        "{size}, groups of {reserve}, {pages} pages"
                    );
                }
            }
        }
        let reach = PageSize::Small4K.table_reach();
        assert_eq!(
            PageTable::frames_to_map(PageSize::Small4K, 1, reach),
            Some(reach + (1 << 27) + (1 << 18) + (1 << 9) + 1)
        );
        assert_eq!(
            PageTable::frames_to_map(PageSize::Large64K, 8, u64::MAX / 2),
            None
        );
    }

    /// The page table as it was first written: interior nodes in a map
    /// keyed by (level, index-prefix), leaf frames in a map keyed by VPN.
    /// The radix layout must answer every call exactly as it does,
    /// allocating the same frames in the same order.
    struct MapTable {
        page_size: PageSize,
        root: Option<Ppn>,
        nodes: HashMap<(usize, u64), Ppn>,
        leaves: HashMap<Vpn, Ppn>,
        touched_pages: u64,
        reserve_pages: u64,
    }

    impl MapTable {
        fn new(page_size: PageSize, reserve_pages: u64) -> Self {
            MapTable {
                page_size,
                root: None,
                nodes: HashMap::new(),
                leaves: HashMap::new(),
                touched_pages: 0,
                reserve_pages,
            }
        }

        fn prefix_at(&self, vpn: Vpn, level: usize) -> u64 {
            let levels = self.page_size.levels();
            vpn.0 >> (u64::from(self.page_size.bits_per_level()) * (levels - 1 - level) as u64)
        }

        fn walk_path(&mut self, vpn: Vpn, frames: &mut FrameAlloc) -> WalkPath {
            let mut node = *self.root.get_or_insert_with(|| frames.alloc());
            let levels = self.page_size.levels();
            let mut out = WalkPath::default();
            for level in 0..levels {
                let prefix = self.prefix_at(vpn, level);
                let node_base = PhysAddr(node.0 << 12);
                out.node_addrs.push(node_base);
                out.entry_addrs
                    .push(PhysAddr(node_base.0 + (prefix & 511) * PTE_BYTES));
                if level + 1 < levels {
                    node = *self
                        .nodes
                        .entry((level, prefix))
                        .or_insert_with(|| frames.alloc());
                }
            }
            out.ppn = match self.leaves.get(&vpn) {
                Some(&ppn) => ppn,
                None => {
                    let granules = self.page_size.bytes() / 4096;
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
            out
        }

        fn translate(&self, vpn: Vpn) -> Option<Ppn> {
            self.leaves.get(&vpn).copied()
        }

        fn node_after(&self, vpn: Vpn, level: usize) -> Option<PhysAddr> {
            self.nodes
                .get(&(level, self.prefix_at(vpn, level)))
                .map(|ppn| PhysAddr(ppn.0 << 12))
        }
    }

    /// Two radix tables sharing one allocator, and their map-based twins
    /// sharing another, driven through the same calls.
    struct Rig {
        radix: [PageTable; 2],
        maps: [MapTable; 2],
        radix_frames: FrameAlloc,
        map_frames: FrameAlloc,
        path: WalkPath,
    }

    impl Rig {
        /// Both allocators hand out `first_frame` first.
        fn new(page_size: PageSize, reserve: u64, first_frame: u64) -> Self {
            Rig {
                radix: [0, 1].map(|t| PageTable::with_reservation(TenantId(t), page_size, reserve)),
                maps: [0, 1].map(|_| MapTable::new(page_size, reserve)),
                radix_frames: FrameAlloc::starting_at(first_frame),
                map_frames: FrameAlloc::starting_at(first_frame),
                path: WalkPath::default(),
            }
        }

        fn walk(&mut self, t: usize, vpn: Vpn) {
            self.radix[t].walk_path_into(vpn, &mut self.radix_frames, &mut self.path);
            let want = self.maps[t].walk_path(vpn, &mut self.map_frames);
            assert_eq!(self.path, want, "walk of {vpn:?} by table {t}");
            assert_eq!(self.radix_frames.allocated(), self.map_frames.allocated());
            self.check(t, vpn);
        }

        fn check(&self, t: usize, vpn: Vpn) {
            let (radix, map) = (&self.radix[t], &self.maps[t]);
            assert_eq!(
                radix.translate(vpn),
                map.translate(vpn),
                "translate {vpn:?}"
            );
            for level in 0..radix.page_size().levels() {
                assert_eq!(
                    radix.node_after(vpn, level),
                    map.node_after(vpn, level),
                    "node_after({vpn:?}, {level})"
                );
            }
            assert_eq!(radix.touched_pages(), map.touched_pages);
        }
    }

    /// A tenant's address layout as `WarpStream` lays it out: a shared hot
    /// region, a shared warm region, then one private cold region per warp,
    /// each followed by a guard page.
    struct Layout {
        hot: u64,
        warm: u64,
        cold: u64,
        warps: u64,
    }

    impl Layout {
        fn random(rng: &mut SimRng) -> Self {
            Layout {
                hot: 1 + rng.next_below(64),
                warm: rng.next_below(1000),
                cold: 1 + rng.next_below(4096),
                warps: 1 + rng.next_below(48),
            }
        }

        fn draw(&self, rng: &mut SimRng) -> u64 {
            match rng.next_below(3) {
                0 => rng.next_below(self.hot),
                1 if self.warm > 0 => self.hot + rng.next_below(self.warm),
                _ => {
                    let warp = rng.next_below(self.warps);
                    self.hot + self.warm + warp * (self.cold + 1) + rng.next_below(self.cold)
                }
            }
        }
    }

    #[test]
    fn radix_table_matches_map_reference() {
        const WALKS: u64 = 1500;
        let mut rng = SimRng::new(0x9AD1);
        for case in 0..32 {
            let page_size = if case % 2 == 0 {
                PageSize::Small4K
            } else {
                PageSize::Large64K
            };
            let reserve = if case % 4 < 2 { 1 } else { 8 };
            // Half the cases allocate from just below the 32-bit entry
            // limit. A walk takes at most one node per level plus its
            // group's data frames, so every frame lies within `most` of
            // MAX_FRAMES and none reaches it.
            let most = WALKS * (page_size.levels() as u64 + reserve * page_size.bytes() / 4096);
            let first_frame = if case % 8 < 4 { 0 } else { MAX_FRAMES - most };
            let reach = page_size.table_reach();
            let sparse = reach.min(1 << 30);
            let layouts = [Layout::random(&mut rng), Layout::random(&mut rng)];
            let mut rig = Rig::new(page_size, reserve, first_frame);
            for _ in 0..WALKS {
                let t = rng.next_below(2) as usize;
                let vpn = if rng.chance(0.8) {
                    layouts[t].draw(&mut rng)
                } else {
                    rng.next_below(sparse)
                };
                rig.walk(t, Vpn(vpn));
                // Lookups of pages that may be unmapped or out of reach.
                let probe = match rng.next_below(3) {
                    0 => layouts[t].draw(&mut rng),
                    1 => rng.next_below(sparse),
                    _ => reach + rng.next_below(reach),
                };
                rig.check(t, Vpn(probe));
            }
        }
    }
}
