//! The L2 TLB: one type, [`ArenaTlb`], for all five organizations the
//! presets select.
//!
//! Two are the paper's: one [`Tlb`] shared by every tenant, and one
//! private [`Tlb`] per tenant (S-TLB). The other three are related-work
//! designs raced against DWS/DWS++ (the "policy arena"), each modeled
//! beside the paper's own presets and selectable per
//! [`PolicyPreset`](../../walksteal_multitenant/config/enum.PolicyPreset.html):
//!
//! * [`SubEntryTlb`] — MIG-style sub-entry sharing (arXiv 2404.18361): each
//!   physical L2 TLB entry covers a 4-page aligned virtual region and holds
//!   one sub-entry per page; sub-entries from *different tenants* may share
//!   one physical entry when their region tags coincide, and replacement is
//!   sharing-aware (shared entries are evicted last).
//! * [`MosaicTlb`] — Mosaic-style transparent large pages
//!   (arXiv 1804.11265): a contiguity-reserving allocator keeps each
//!   8-page-aligned group physically contiguous, so once enough base pages
//!   of a group are filled the range *coalesces* into a fully-associative
//!   large-page array; evicting a coalesced range *splinters* it back into
//!   base entries.
//! * [`DeadGuardTlb`] — dead-entry prediction (arXiv 2606.00486): a small
//!   table of saturating counters learns which fill signatures produce
//!   entries that die without reuse, and bypasses those fills so live
//!   entries keep their ways.
//!
//! All five share the probe / fill / invalidate / share surface of the SoA
//! [`Tlb`], so the simulation holds one `ArenaTlb` and calls it without an
//! L2 branch of its own. Every TLB share comes from one
//! [`ShareIntegral`] (inside [`Tlb`] and [`SubEntryTlb`]), the type that
//! also computes the walkers' share.

use walksteal_sim_core::{Cycle, FnvMap, Ppn, ShareIntegral, TenantId, Vpn};

use crate::page::PageSize;
use crate::tlb::{Tlb, TlbConfig};

/// Which arena organization a preset selects (stored in `GpuConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArenaTlbKind {
    /// [`SubEntryTlb`]: sub-entry sharing for MIG-style partitioning.
    SubEntry,
    /// [`MosaicTlb`]: transparent large-page coalescing.
    Mosaic,
    /// [`DeadGuardTlb`]: dead-entry fill prediction.
    DeadGuard,
}

/// Valid bit in a packed sub-entry meta word; the low byte is the tenant id.
const META_VALID: u16 = 0x100;

/// Sub-entries per physical [`SubEntryTlb`] entry (a 4-page region).
pub const SUB_ENTRIES: usize = 4;

/// Pages per Mosaic coalescing group; the reservation allocator keeps each
/// aligned group of this many base pages physically contiguous.
pub const MOSAIC_GROUP: u64 = 8;

/// Distinct base-page fills of one group required before it coalesces.
pub const MOSAIC_COALESCE_THRESHOLD: u32 = 4;

/// Entries in the fully-associative large-page array of a [`MosaicTlb`].
pub const MOSAIC_LARGE_ENTRIES: usize = 64;

/// Consecutive groups whose 8-bit popmasks share one [`MosaicTlb`]
/// directory word.
const DIR_GROUPS: u64 = 8;
const _: () = assert!(
    MOSAIC_GROUP <= 8,
    "a group's popmask must fit one directory byte"
);

/// An L2 TLB whose entries are split into per-page sub-entries with
/// sharing-aware replacement.
///
/// Geometry: `cfg.entries()` *physical* entries, each tagged by a 4-page
/// aligned region (`vpn >> 2`) and holding [`SUB_ENTRIES`] sub-entries, one
/// per page of the region (`vpn & 3`). Capacity in translations is thus 4×
/// the same-geometry [`Tlb`] when spatial locality cooperates. A sub-entry
/// belongs to one tenant; an entry whose sub-entries span tenants is
/// *shared* and protected by replacement (victim order: invalid entries,
/// then unshared LRU, then shared LRU).
///
/// # Examples
///
/// ```
/// use walksteal_vm::{Replacement, SubEntryTlb, TlbConfig};
/// use walksteal_sim_core::{Cycle, Ppn, TenantId, Vpn};
///
/// let cfg = TlbConfig { sets: 8, ways: 4, replacement: Replacement::Random };
/// let mut t = SubEntryTlb::new(cfg, 2);
/// t.fill(TenantId(0), Vpn(8), Ppn(1), Cycle(0));
/// t.fill(TenantId(0), Vpn(9), Ppn(2), Cycle(0)); // same region, same entry
/// assert_eq!(t.probe(TenantId(0), Vpn(9)), Some(Ppn(2)));
/// // A second tenant in the same region shares the physical entry.
/// t.fill(TenantId(1), Vpn(10), Ppn(3), Cycle(0));
/// assert_eq!(t.shared_fills(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SubEntryTlb {
    cfg: TlbConfig,
    /// Region tag per physical entry (`vpn >> 2`).
    tags: Vec<u64>,
    /// Packed `valid|tenant` word per sub-entry (`entries * SUB_ENTRIES`).
    sub_meta: Vec<u16>,
    sub_ppn: Vec<Ppn>,
    /// Cross-tenant flag per physical entry, kept in sync by fills and
    /// invalidations: set iff the entry's valid sub-entries span > 1 tenant.
    shared: Vec<bool>,
    last_use: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Fills that joined a tenant's sub-entry to an entry already holding
    /// another tenant's — the design's capacity win.
    shared_fills: u64,
    /// Valid sub-entries per tenant, kept incrementally, and their
    /// integral over time for share reporting.
    occupancy: ShareIntegral,
}

impl SubEntryTlb {
    /// Creates an empty sub-entry TLB able to track `n_tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways` is zero, or
    /// `n_tenants` is zero.
    #[must_use]
    pub fn new(cfg: TlbConfig, n_tenants: usize) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be positive");
        assert!(n_tenants > 0, "need at least one tenant");
        let entries = cfg.entries();
        SubEntryTlb {
            cfg,
            tags: vec![0; entries],
            sub_meta: vec![0; entries * SUB_ENTRIES],
            sub_ppn: vec![Ppn(0); entries * SUB_ENTRIES],
            shared: vec![false; entries],
            last_use: vec![0; entries],
            tick: 0,
            hits: 0,
            misses: 0,
            shared_fills: 0,
            occupancy: ShareIntegral::new(n_tenants, entries * SUB_ENTRIES),
        }
    }

    fn entry_range(&self, region: u64) -> std::ops::Range<usize> {
        let set = (region as usize) & (self.cfg.sets - 1);
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    fn entry_valid(&self, e: usize) -> bool {
        self.sub_meta[e * SUB_ENTRIES..(e + 1) * SUB_ENTRIES]
            .iter()
            .any(|&m| m & META_VALID != 0)
    }

    /// Recomputes the cross-tenant flag of entry `e` from its sub-entries.
    fn refresh_shared(&mut self, e: usize) {
        let mut first: Option<u8> = None;
        let mut spans = false;
        for &m in &self.sub_meta[e * SUB_ENTRIES..(e + 1) * SUB_ENTRIES] {
            if m & META_VALID != 0 {
                let t = m as u8;
                match first {
                    None => first = Some(t),
                    Some(f) if f != t => spans = true,
                    Some(_) => {}
                }
            }
        }
        self.shared[e] = spans;
    }

    /// Sub-entry index of `(tenant, vpn)`, if resident.
    fn find(&self, tenant: TenantId, vpn: Vpn) -> Option<usize> {
        let region = vpn.0 >> 2;
        let slot = (vpn.0 & 3) as usize;
        let want = META_VALID | u16::from(tenant.0);
        for e in self.entry_range(region) {
            if self.tags[e] == region
                && self.entry_valid(e)
                && self.sub_meta[e * SUB_ENTRIES + slot] == want
            {
                return Some(e * SUB_ENTRIES + slot);
            }
        }
        None
    }

    /// Looks up `(tenant, vpn)`, updating LRU and hit/miss statistics.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn) -> Option<Ppn> {
        self.tick += 1;
        if let Some(i) = self.find(tenant, vpn) {
            self.last_use[i / SUB_ENTRIES] = self.tick;
            self.hits += 1;
            return Some(self.sub_ppn[i]);
        }
        self.misses += 1;
        None
    }

    /// Inserts a translation at time `now`. A fill first tries the tenant's
    /// own sub-entry (in-place update), then a free sub-entry of any entry
    /// tagged with the region — joining a foreign tenant's entry marks it
    /// shared — and only then allocates a fresh physical entry, preferring
    /// to evict unshared entries.
    pub fn fill(&mut self, tenant: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) {
        self.occupancy.advance(now);
        self.tick += 1;
        let tick = self.tick;
        let region = vpn.0 >> 2;
        let slot = (vpn.0 & 3) as usize;
        let want = META_VALID | u16::from(tenant.0);

        if let Some(i) = self.find(tenant, vpn) {
            self.sub_ppn[i] = ppn;
            self.last_use[i / SUB_ENTRIES] = tick;
            return;
        }
        // Join an existing entry for this region whose slot is free.
        for e in self.entry_range(region) {
            if self.tags[e] == region
                && self.entry_valid(e)
                && self.sub_meta[e * SUB_ENTRIES + slot] & META_VALID == 0
            {
                let foreign = self.sub_meta[e * SUB_ENTRIES..(e + 1) * SUB_ENTRIES]
                    .iter()
                    .any(|&m| m & META_VALID != 0 && m != want);
                self.sub_meta[e * SUB_ENTRIES + slot] = want;
                self.sub_ppn[e * SUB_ENTRIES + slot] = ppn;
                self.last_use[e] = tick;
                self.occupancy.add(tenant, 1);
                if foreign {
                    self.shared_fills += 1;
                    self.shared[e] = true;
                }
                return;
            }
        }
        // Allocate a physical entry: invalid first, then unshared LRU, then
        // shared LRU (sharing-aware protection).
        let range = self.entry_range(region);
        let mut victim = None;
        for e in range.clone() {
            if !self.entry_valid(e) {
                victim = Some(e);
                break;
            }
        }
        if victim.is_none() {
            for protect_shared in [true, false] {
                let mut best: Option<(u64, usize)> = None;
                for e in range.clone() {
                    if protect_shared && self.shared[e] {
                        continue;
                    }
                    if best.is_none_or(|(key, _)| self.last_use[e] < key) {
                        best = Some((self.last_use[e], e));
                    }
                }
                if let Some((_, e)) = best {
                    victim = Some(e);
                    break;
                }
            }
        }
        let e = victim.expect("a set always yields a victim");
        for s in 0..SUB_ENTRIES {
            let m = self.sub_meta[e * SUB_ENTRIES + s];
            if m & META_VALID != 0 {
                self.occupancy.sub(TenantId(m as u8), 1);
                self.sub_meta[e * SUB_ENTRIES + s] = 0;
            }
        }
        self.tags[e] = region;
        self.shared[e] = false;
        self.sub_meta[e * SUB_ENTRIES + slot] = want;
        self.sub_ppn[e * SUB_ENTRIES + slot] = ppn;
        self.last_use[e] = tick;
        self.occupancy.add(tenant, 1);
    }

    /// Invalidates every sub-entry owned by `tenant` at time `now`. Returns
    /// how many sub-entries were dropped.
    pub fn invalidate_tenant(&mut self, tenant: TenantId, now: Cycle) -> usize {
        self.occupancy.advance(now);
        let want = META_VALID | u16::from(tenant.0);
        let mut dropped = 0;
        for e in 0..self.cfg.entries() {
            let mut touched = false;
            for s in 0..SUB_ENTRIES {
                if self.sub_meta[e * SUB_ENTRIES + s] == want {
                    self.sub_meta[e * SUB_ENTRIES + s] = 0;
                    dropped += 1;
                    touched = true;
                }
            }
            if touched {
                self.refresh_shared(e);
            }
        }
        self.occupancy.sub(tenant, dropped);
        dropped
    }

    /// Current number of valid sub-entries owned by `tenant`.
    #[must_use]
    pub fn occupancy_of(&self, tenant: TenantId) -> usize {
        self.occupancy.count(tenant)
    }

    /// Time-averaged fraction of sub-entry capacity occupied by `tenant`
    /// over `[0, now]`.
    #[must_use]
    pub fn share_of(&self, tenant: TenantId, now: Cycle) -> f64 {
        self.occupancy.share(tenant, now)
    }

    /// Probe hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probe misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fills that joined a foreign tenant's physical entry.
    #[must_use]
    pub fn shared_fills(&self) -> u64 {
        self.shared_fills
    }

    /// Current number of entries whose sub-entries span tenants.
    #[must_use]
    pub fn shared_entries(&self) -> usize {
        self.shared.iter().filter(|&&s| s).count()
    }

    /// Structural invariants: every tracked `shared` flag matches the
    /// tenant span of its entry's valid sub-entries, and the incremental
    /// occupancy counters match a recount.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut recount = vec![0usize; self.occupancy.counts().len()];
        for e in 0..self.cfg.entries() {
            let mut tenants = Vec::new();
            for s in 0..SUB_ENTRIES {
                let m = self.sub_meta[e * SUB_ENTRIES + s];
                if m & META_VALID != 0 {
                    let t = m as u8;
                    recount[TenantId(t).index()] += 1;
                    if !tenants.contains(&t) {
                        tenants.push(t);
                    }
                }
            }
            let spans = tenants.len() > 1;
            if spans != self.shared[e] {
                return Err(format!(
                    "entry {e}: sub-entries span {} tenant(s) but shared flag is {}",
                    tenants.len(),
                    self.shared[e]
                ));
            }
        }
        if recount != self.occupancy.counts() {
            return Err(format!(
                "occupancy drift: counted {recount:?}, tracked {:?}",
                self.occupancy.counts()
            ));
        }
        Ok(())
    }
}

/// One coalesced range in the fully-associative large-page array, keyed
/// by `tenant_key(tenant, group)`.
#[derive(Debug, Clone, Copy)]
struct LargeEntry {
    /// Frame of the group's first base page; page `i` of the group lives at
    /// `base + i * granules` thanks to the reservation allocator.
    base: Ppn,
    /// Tick of the last probe or fill that touched the range. Each tick
    /// stamps at most one entry, so stamps are unique and the LRU victim
    /// never depends on map order.
    last_use: u64,
}

/// Packs a Mosaic directory / dead-guard liveness key into one word.
#[inline]
fn tenant_key(tenant: TenantId, v: u64) -> u64 {
    debug_assert!(v < 1 << 56, "vpn/group overflows packed key");
    (u64::from(tenant.0) << 56) | v
}

/// Splits a [`tenant_key`] back into its tenant and vpn/group.
#[inline]
fn split_key(key: u64) -> (TenantId, u64) {
    (TenantId((key >> 56) as u8), key & ((1 << 56) - 1))
}

/// A multi-page-size L2 TLB path: 4 KB base entries in a standard [`Tlb`]
/// plus a fully-associative array of transparently coalesced
/// [`MOSAIC_GROUP`]-page ranges.
///
/// The large array holds up to [`MOSAIC_LARGE_ENTRIES`] ranges. Being fully
/// associative, it is looked up by content, which the model does with one
/// keyed lookup in a map from `(tenant, group)` to the range; replacement
/// is LRU over the ranges' last-use stamps.
///
/// A directory counts distinct base-page fills per aligned group; at
/// [`MOSAIC_COALESCE_THRESHOLD`] fills the group coalesces into one large
/// entry (its base entries are invalidated — a translation is never mapped
/// twice). The directory packs the 8-bit popmasks of eight consecutive
/// groups into one `u64` word, keyed by `tenant_key(tenant, group / 8)`,
/// with group `g`'s mask in byte `g % 8`. A coalesce clears its group's
/// byte, and a word is dropped once all of its bytes are zero, so only
/// words with a partly filled group are stored.
///
/// Evicting a large entry *splinters* it: all of its base translations
/// are re-filled into the base TLB, so no reach is silently lost.
/// Contiguity is guaranteed by
/// [`PageTable::with_reservation`](crate::PageTable::with_reservation),
/// which maps each aligned group contiguously on first touch.
#[derive(Debug, Clone)]
pub struct MosaicTlb {
    base: Tlb,
    /// The large-page array, at most [`MOSAIC_LARGE_ENTRIES`] ranges.
    large: FnvMap<u64, LargeEntry>,
    /// Distinct-fill popmasks of groups not yet coalesced, eight groups
    /// to a word (see [`dir_slot`](Self::dir_slot)); no stored word is 0.
    dir: FnvMap<u64, u64>,
    /// 4 KB frames per base page (1 for 4 KB pages).
    granules: u64,
    tick: u64,
    large_hits: u64,
    coalesces: u64,
    splinters: u64,
}

impl MosaicTlb {
    /// Creates an empty Mosaic TLB; `page_size` fixes the frame granularity
    /// of one base page.
    #[must_use]
    pub fn new(cfg: TlbConfig, n_tenants: usize, page_size: PageSize) -> Self {
        MosaicTlb {
            base: Tlb::new(cfg, n_tenants),
            large: FnvMap::with_capacity_and_hasher(MOSAIC_LARGE_ENTRIES, Default::default()),
            dir: FnvMap::default(),
            granules: page_size.bytes() / 4096,
            tick: 0,
            large_hits: 0,
            coalesces: 0,
            splinters: 0,
        }
    }

    /// The directory word holding `group`'s popmask, and the shift of
    /// that mask's byte within the word.
    #[inline]
    fn dir_slot(tenant: TenantId, group: u64) -> (u64, u32) {
        let shift = (group % DIR_GROUPS) as u32 * 8;
        (tenant_key(tenant, group / DIR_GROUPS), shift)
    }

    /// Looks up `(tenant, vpn)`: the large array first, then base entries.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn) -> Option<Ppn> {
        self.tick += 1;
        let group = vpn.0 / MOSAIC_GROUP;
        if let Some(e) = self.large.get_mut(&tenant_key(tenant, group)) {
            e.last_use = self.tick;
            self.large_hits += 1;
            let offset = vpn.0 % MOSAIC_GROUP;
            return Some(Ppn(e.base.0 + offset * self.granules));
        }
        self.base.probe(tenant, vpn)
    }

    /// Inserts a base translation at time `now`, coalescing its group into
    /// the large array once enough distinct base pages have been filled.
    pub fn fill(&mut self, tenant: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) {
        self.tick += 1;
        let group = vpn.0 / MOSAIC_GROUP;
        let key = tenant_key(tenant, group);
        if let Some(e) = self.large.get_mut(&key) {
            // Already coalesced: the range covers this page.
            e.last_use = self.tick;
            return;
        }
        let (word_key, shift) = Self::dir_slot(tenant, group);
        let word = self.dir.entry(word_key).or_insert(0);
        *word |= 1 << (shift as u64 + vpn.0 % MOSAIC_GROUP);
        let fills = ((*word >> shift) as u8).count_ones();
        if fills < MOSAIC_COALESCE_THRESHOLD.min(MOSAIC_GROUP as u32) {
            self.base.fill(tenant, vpn, ppn, now);
            return;
        }
        // Coalesce: the reservation allocator placed page `i` of the group
        // at `base + i * granules`, so the triggering fill pins the base.
        *word &= !(0xFF << shift);
        if *word == 0 {
            self.dir.remove(&word_key);
        }
        let base = Ppn(ppn.0 - (vpn.0 % MOSAIC_GROUP) * self.granules);
        if self.large.len() == MOSAIC_LARGE_ENTRIES {
            let (&victim, _) = self
                .large
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .expect("a full large array is non-empty");
            let evicted = self.large.remove(&victim).expect("victim is resident");
            self.splinter(victim, evicted, now);
        }
        self.large.insert(
            key,
            LargeEntry {
                base,
                last_use: self.tick,
            },
        );
        self.coalesces += 1;
        // A translation is never mapped twice: drop the group's base
        // entries now that the large entry covers them.
        for page in 0..MOSAIC_GROUP {
            self.base
                .invalidate_one(tenant, Vpn(group * MOSAIC_GROUP + page), now);
        }
    }

    /// Re-fills every base translation of the large entry evicted from
    /// `key`.
    fn splinter(&mut self, key: u64, victim: LargeEntry, now: Cycle) {
        let (tenant, group) = split_key(key);
        for page in 0..MOSAIC_GROUP {
            self.base.fill(
                tenant,
                Vpn(group * MOSAIC_GROUP + page),
                Ppn(victim.base.0 + page * self.granules),
                now,
            );
        }
        self.splinters += 1;
    }

    /// Invalidates everything `tenant` owns — base entries, coalesced
    /// ranges (dropped, not splintered: the tenant is gone), and directory
    /// state. Returns how many base-page translations were dropped.
    pub fn invalidate_tenant(&mut self, tenant: TenantId, now: Cycle) -> usize {
        let mut dropped = self.base.invalidate_tenant(tenant, now);
        let before = self.large.len();
        self.large.retain(|&k, _| split_key(k).0 != tenant);
        dropped += (before - self.large.len()) * MOSAIC_GROUP as usize;
        self.dir.retain(|&k, _| split_key(k).0 != tenant);
        dropped
    }

    /// Time-averaged share of base-TLB capacity (approximation: coalesced
    /// ranges live outside the share integral, documented in EXPERIMENTS).
    #[must_use]
    pub fn share_of(&self, tenant: TenantId, now: Cycle) -> f64 {
        self.base.share_of(tenant, now)
    }

    /// Probe hits since construction (base + large-array hits).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.base.hits() + self.large_hits
    }

    /// Probe misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.base.misses()
    }

    /// Coalesce events since construction.
    #[must_use]
    pub fn coalesces(&self) -> u64 {
        self.coalesces
    }

    /// Splinter events (large-entry evictions) since construction.
    #[must_use]
    pub fn splinters(&self) -> u64 {
        self.splinters
    }

    /// Hits served by the large-page array.
    #[must_use]
    pub fn large_hits(&self) -> u64 {
        self.large_hits
    }

    /// Structural invariants: the large array holds at most
    /// [`MOSAIC_LARGE_ENTRIES`] ranges, no base page covered by a live
    /// large entry is also resident in the base TLB, a group with a large
    /// entry has a zero directory byte, and no stored directory word is
    /// zero.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.large.len() > MOSAIC_LARGE_ENTRIES {
            return Err(format!(
                "large array holds {} ranges, capacity {MOSAIC_LARGE_ENTRIES}",
                self.large.len()
            ));
        }
        for &key in self.large.keys() {
            let (tenant, group) = split_key(key);
            for page in 0..MOSAIC_GROUP {
                let vpn = Vpn(group * MOSAIC_GROUP + page);
                if self.base.contains(tenant, vpn) {
                    return Err(format!(
                        "tenant {} vpn {} mapped both coalesced and in the base TLB",
                        tenant.0, vpn.0
                    ));
                }
            }
            let (word_key, shift) = Self::dir_slot(tenant, group);
            if self
                .dir
                .get(&word_key)
                .is_some_and(|w| (w >> shift) as u8 != 0)
            {
                return Err(format!(
                    "tenant {} group {group} has both a large entry and a directory mask",
                    tenant.0
                ));
            }
        }
        if let Some(&key) = self.dir.iter().find_map(|(k, &w)| (w == 0).then_some(k)) {
            let (tenant, word) = split_key(key);
            return Err(format!(
                "tenant {} keeps an empty directory word for groups {}..{}",
                tenant.0,
                word * DIR_GROUPS,
                (word + 1) * DIR_GROUPS
            ));
        }
        Ok(())
    }
}

/// Dead-entry counter table size of a [`DeadGuardTlb`].
const DEAD_GUARD_SIGNATURES: usize = 1024;

/// A shared L2 TLB guarded by a dead-entry fill predictor.
///
/// Every fill carries a signature (hashed from its VPN and tenant); a table
/// of 2-bit saturating counters, trained by evictions, predicts whether the
/// filled entry would die without a single reuse. Predicted-dead fills are
/// bypassed — the walk result still returns to the warp, but no way is
/// spent on it — which protects live entries from one tenant's streaming
/// fill storm. Every 8th bypass decrements the deciding counter so a
/// signature can win back fill rights when its behavior changes.
#[derive(Debug, Clone)]
pub struct DeadGuardTlb {
    base: Tlb,
    counters: Vec<u8>,
    /// Reused-since-fill flag per resident `(tenant, vpn)` (packed key).
    live: FnvMap<u64, bool>,
    bypasses: u64,
    dead_evictions: u64,
}

impl DeadGuardTlb {
    /// Creates an empty dead-guard TLB.
    #[must_use]
    pub fn new(cfg: TlbConfig, n_tenants: usize) -> Self {
        DeadGuardTlb {
            base: Tlb::new(cfg, n_tenants),
            counters: vec![0; DEAD_GUARD_SIGNATURES],
            live: FnvMap::default(),
            bypasses: 0,
            dead_evictions: 0,
        }
    }

    fn signature(tenant: TenantId, vpn: Vpn) -> usize {
        let h = vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 54) as usize ^ usize::from(tenant.0)) % DEAD_GUARD_SIGNATURES
    }

    /// Looks up `(tenant, vpn)`; a hit marks the entry live.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn) -> Option<Ppn> {
        let hit = self.base.probe(tenant, vpn);
        if hit.is_some() {
            self.live.insert(tenant_key(tenant, vpn.0), true);
        }
        hit
    }

    /// Inserts a translation at time `now` unless the predictor says the
    /// entry would die unreferenced, in which case the fill is bypassed.
    pub fn fill(&mut self, tenant: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) {
        let sig = Self::signature(tenant, vpn);
        if self.counters[sig] >= 2 {
            self.bypasses += 1;
            if self.bypasses.is_multiple_of(8) {
                self.counters[sig] -= 1;
            }
            return;
        }
        if let Some((t, v)) = self.base.fill(tenant, vpn, ppn, now) {
            let reused = self.live.remove(&tenant_key(t, v.0)).unwrap_or(false);
            let s = Self::signature(t, v);
            if reused {
                self.counters[s] = self.counters[s].saturating_sub(1);
            } else {
                self.counters[s] = (self.counters[s] + 1).min(3);
                self.dead_evictions += 1;
            }
        }
        self.live.insert(tenant_key(tenant, vpn.0), false);
    }

    /// Invalidates every entry owned by `tenant` (no predictor training:
    /// a departure flush says nothing about entry liveness).
    pub fn invalidate_tenant(&mut self, tenant: TenantId, now: Cycle) -> usize {
        let dropped = self.base.invalidate_tenant(tenant, now);
        self.live.retain(|&k, _| split_key(k).0 != tenant);
        dropped
    }

    /// Time-averaged fraction of TLB capacity occupied by `tenant`.
    #[must_use]
    pub fn share_of(&self, tenant: TenantId, now: Cycle) -> f64 {
        self.base.share_of(tenant, now)
    }

    /// Probe hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.base.hits()
    }

    /// Probe misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.base.misses()
    }

    /// Fills suppressed by the predictor.
    #[must_use]
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Evictions of entries that were never reused after their fill.
    #[must_use]
    pub fn dead_evictions(&self) -> u64 {
        self.dead_evictions
    }

    /// Structural invariants: predictor counters stay within their 2-bit
    /// range and every liveness record names an entry resident in the base
    /// TLB, so none outlives an evicted entry or a departed tenant's.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(&c) = self.counters.iter().find(|&&c| c > 3) {
            return Err(format!("dead-entry counter {c} escaped its 2-bit range"));
        }
        for &key in self.live.keys() {
            let (tenant, vpn) = split_key(key);
            if !self.base.contains(tenant, Vpn(vpn)) {
                return Err(format!(
                    "liveness record for tenant {} vpn {vpn} outlives its entry",
                    tenant.0
                ));
            }
        }
        Ok(())
    }
}

/// The L2 TLB: one type for all five organizations the presets select,
/// with the probe / fill / invalidate / share surface of the SoA [`Tlb`].
///
/// The paper's presets use [`Shared`](Self::Shared) (one TLB for every
/// tenant) or, under S-TLB, [`Private`](Self::Private) (one TLB per
/// tenant). The policy arena's related-work presets use the other three,
/// built by [`ArenaTlb::new`] from an [`ArenaTlbKind`].
#[derive(Debug, Clone)]
pub enum ArenaTlb {
    /// One TLB shared by every tenant.
    Shared(Tlb),
    /// One TLB per tenant, indexed by tenant; each tenant holds all of its
    /// own TLB, so its share is 1.
    Private(Vec<Tlb>),
    /// Sub-entry sharing (arXiv 2404.18361).
    SubEntry(SubEntryTlb),
    /// Transparent large-page coalescing (arXiv 1804.11265).
    Mosaic(MosaicTlb),
    /// Dead-entry fill prediction (arXiv 2606.00486).
    DeadGuard(DeadGuardTlb),
}

impl ArenaTlb {
    /// Builds the related-work organization `kind` selects over the same
    /// geometry the shared L2 TLB would use.
    #[must_use]
    pub fn new(kind: ArenaTlbKind, cfg: TlbConfig, n_tenants: usize, page_size: PageSize) -> Self {
        match kind {
            ArenaTlbKind::SubEntry => ArenaTlb::SubEntry(SubEntryTlb::new(cfg, n_tenants)),
            ArenaTlbKind::Mosaic => ArenaTlb::Mosaic(MosaicTlb::new(cfg, n_tenants, page_size)),
            ArenaTlbKind::DeadGuard => ArenaTlb::DeadGuard(DeadGuardTlb::new(cfg, n_tenants)),
        }
    }

    /// Looks up `(tenant, vpn)`, updating replacement state and statistics.
    pub fn probe(&mut self, tenant: TenantId, vpn: Vpn) -> Option<Ppn> {
        match self {
            ArenaTlb::Shared(t) => t.probe(tenant, vpn),
            ArenaTlb::Private(ts) => ts[tenant.index()].probe(tenant, vpn),
            ArenaTlb::SubEntry(t) => t.probe(tenant, vpn),
            ArenaTlb::Mosaic(t) => t.probe(tenant, vpn),
            ArenaTlb::DeadGuard(t) => t.probe(tenant, vpn),
        }
    }

    /// Inserts a translation at time `now` under the organization's fill
    /// policy (which may bypass or coalesce it).
    pub fn fill(&mut self, tenant: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) {
        match self {
            ArenaTlb::Shared(t) => {
                t.fill(tenant, vpn, ppn, now);
            }
            ArenaTlb::Private(ts) => {
                ts[tenant.index()].fill(tenant, vpn, ppn, now);
            }
            ArenaTlb::SubEntry(t) => t.fill(tenant, vpn, ppn, now),
            ArenaTlb::Mosaic(t) => t.fill(tenant, vpn, ppn, now),
            ArenaTlb::DeadGuard(t) => t.fill(tenant, vpn, ppn, now),
        }
    }

    /// Flushes everything `tenant` owns (tenant departure). Returns how
    /// many translations were dropped.
    pub fn invalidate_tenant(&mut self, tenant: TenantId, now: Cycle) -> usize {
        match self {
            ArenaTlb::Shared(t) => t.invalidate_tenant(tenant, now),
            ArenaTlb::Private(ts) => ts[tenant.index()].invalidate_tenant(tenant, now),
            ArenaTlb::SubEntry(t) => t.invalidate_tenant(tenant, now),
            ArenaTlb::Mosaic(t) => t.invalidate_tenant(tenant, now),
            ArenaTlb::DeadGuard(t) => t.invalidate_tenant(tenant, now),
        }
    }

    /// Time-averaged fraction of capacity occupied by `tenant` over
    /// `[0, now]` (the paper's *TLB share*, Fig. 9).
    #[must_use]
    pub fn share_of(&self, tenant: TenantId, now: Cycle) -> f64 {
        match self {
            ArenaTlb::Shared(t) => t.share_of(tenant, now),
            ArenaTlb::Private(_) => 1.0,
            ArenaTlb::SubEntry(t) => t.share_of(tenant, now),
            ArenaTlb::Mosaic(t) => t.share_of(tenant, now),
            ArenaTlb::DeadGuard(t) => t.share_of(tenant, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::Replacement;

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    fn lru(sets: usize, ways: usize) -> TlbConfig {
        TlbConfig {
            sets,
            ways,
            replacement: Replacement::Lru,
        }
    }

    fn sub(sets: usize, ways: usize) -> SubEntryTlb {
        SubEntryTlb::new(lru(sets, ways), 2)
    }

    #[test]
    fn sub_entry_miss_fill_hit() {
        let mut t = sub(2, 2);
        assert_eq!(t.probe(T0, Vpn(5)), None);
        t.fill(T0, Vpn(5), Ppn(9), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(5)), Some(Ppn(9)));
        assert_eq!((t.hits(), t.misses()), (1, 1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_same_region_shares_one_physical_entry() {
        let mut t = sub(2, 2);
        // VPNs 8..12 form one region.
        for v in 8..12 {
            t.fill(T0, Vpn(v), Ppn(v), Cycle(0));
        }
        assert_eq!(t.occupancy_of(T0), 4);
        for v in 8..12 {
            assert_eq!(t.probe(T0, Vpn(v)), Some(Ppn(v)), "vpn {v}");
        }
        assert_eq!(t.shared_entries(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_cross_tenant_sharing_sets_flag() {
        let mut t = sub(2, 2);
        t.fill(T0, Vpn(8), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(9), Ppn(2), Cycle(0));
        assert_eq!(t.shared_fills(), 1);
        assert_eq!(t.shared_entries(), 1);
        assert_eq!(t.probe(T0, Vpn(8)), Some(Ppn(1)));
        assert_eq!(t.probe(T1, Vpn(9)), Some(Ppn(2)));
        // Same page, different tenant: no aliasing through the shared entry.
        assert_eq!(t.probe(T1, Vpn(8)), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_same_vpn_two_tenants_use_distinct_entries() {
        let mut t = sub(2, 2);
        t.fill(T0, Vpn(8), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(8), Ppn(2), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(8)), Some(Ppn(1)));
        assert_eq!(t.probe(T1, Vpn(8)), Some(Ppn(2)));
        // The slot collides, so the second fill allocated a fresh entry.
        assert_eq!(t.shared_entries(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_replacement_protects_shared_entries() {
        // One set, two ways. Way A becomes shared, way B unshared; a
        // conflicting fill must evict the unshared way even though the
        // shared one is older.
        let mut t = sub(1, 2);
        t.fill(T0, Vpn(0), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(1), Ppn(2), Cycle(0)); // region 0 now shared
        t.fill(T0, Vpn(4), Ppn(3), Cycle(0)); // region 1, unshared
        t.fill(T0, Vpn(8), Ppn(4), Cycle(0)); // region 2: needs a victim
        assert_eq!(t.probe(T0, Vpn(0)), Some(Ppn(1)), "shared entry survives");
        assert_eq!(t.probe(T0, Vpn(4)), None, "unshared entry evicted");
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_in_place_refill_updates_ppn() {
        let mut t = sub(2, 2);
        t.fill(T0, Vpn(5), Ppn(9), Cycle(0));
        t.fill(T0, Vpn(5), Ppn(11), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(5)), Some(Ppn(11)));
        assert_eq!(t.occupancy_of(T0), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_invalidate_tenant_clears_only_that_tenant() {
        let mut t = sub(2, 2);
        t.fill(T0, Vpn(8), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(9), Ppn(2), Cycle(0));
        assert_eq!(t.invalidate_tenant(T0, Cycle(10)), 1);
        assert_eq!(t.occupancy_of(T0), 0);
        assert_eq!(t.probe(T1, Vpn(9)), Some(Ppn(2)));
        // The entry no longer spans tenants.
        assert_eq!(t.shared_entries(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sub_entry_share_integrates_over_time() {
        let mut t = sub(1, 1); // 1 entry, 4 sub-entries
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        let share = t.share_of(T0, Cycle(100));
        assert!((share - 0.25).abs() < 1e-9, "share {share}");
    }

    fn mosaic() -> MosaicTlb {
        MosaicTlb::new(lru(4, 4), 2, PageSize::Small4K)
    }

    /// Fills the first `pages` pages of `group`, frames contiguous from
    /// `base`.
    fn fill_group(t: &mut MosaicTlb, tenant: TenantId, group: u64, pages: u64, base: u64) {
        for page in 0..pages {
            t.fill(
                tenant,
                Vpn(group * MOSAIC_GROUP + page),
                Ppn(base + page),
                Cycle(0),
            );
        }
    }

    /// Fills `group` with contiguous frames at `base`, triggering coalesce.
    fn coalesce_group(t: &mut MosaicTlb, tenant: TenantId, group: u64, base: u64) {
        fill_group(t, tenant, group, u64::from(MOSAIC_COALESCE_THRESHOLD), base);
    }

    #[test]
    fn mosaic_miss_fill_hit() {
        let mut t = mosaic();
        assert_eq!(t.probe(T0, Vpn(5)), None);
        t.fill(T0, Vpn(5), Ppn(9), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(5)), Some(Ppn(9)));
        assert_eq!((t.hits(), t.misses()), (1, 1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_hits_count_large_array_hits() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 0, 100);
        t.fill(T0, Vpn(MOSAIC_GROUP), Ppn(500), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(7)), Some(Ppn(107)), "never-filled page");
        assert_eq!(t.probe(T0, Vpn(MOSAIC_GROUP)), Some(Ppn(500)));
        assert_eq!(t.probe(T0, Vpn(MOSAIC_GROUP + 1)), None);
        assert_eq!((t.large_hits(), t.hits(), t.misses()), (1, 2, 1));
    }

    #[test]
    fn mosaic_coalesces_after_threshold_fills() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 0, 100);
        assert_eq!(t.coalesces(), 1);
        // Every page of the group now hits — even never-filled ones
        // (contiguity makes the translation exact).
        for page in 0..MOSAIC_GROUP {
            assert_eq!(t.probe(T0, Vpn(page)), Some(Ppn(100 + page)), "page {page}");
        }
        assert!(t.large_hits() >= MOSAIC_GROUP);
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_coalesce_drops_base_entries() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 0, 100);
        // The invariant checker verifies no double mapping directly.
        t.check_invariants().unwrap();
        assert_eq!(t.probe(T0, Vpn(2)), Some(Ppn(102)));
    }

    #[test]
    fn mosaic_splinter_restores_base_pages() {
        let mut t = mosaic();
        // Fill the whole large array plus one more group.
        for g in 0..=MOSAIC_LARGE_ENTRIES as u64 {
            coalesce_group(&mut t, T0, g, 1000 + g * MOSAIC_GROUP);
        }
        assert_eq!(t.splinters(), 1);
        // Group 0 was the LRU victim; its base translations are restored.
        for page in 0..MOSAIC_GROUP {
            assert_eq!(
                t.probe(T0, Vpn(page)),
                Some(Ppn(1000 + page)),
                "splintered page {page}"
            );
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_probe_hit_refreshes_lru_order() {
        let mut t = mosaic();
        for g in 0..MOSAIC_LARGE_ENTRIES as u64 {
            coalesce_group(&mut t, T0, g, 1000 + g * MOSAIC_GROUP);
        }
        // Touch the oldest range; the next-oldest becomes the victim.
        assert_eq!(t.probe(T0, Vpn(3)), Some(Ppn(1003)));
        let g = MOSAIC_LARGE_ENTRIES as u64;
        coalesce_group(&mut t, T0, g, 1000 + g * MOSAIC_GROUP);
        assert_eq!(t.splinters(), 1);
        let hits = t.large_hits();
        assert_eq!(t.probe(T0, Vpn(0)), Some(Ppn(1000)));
        assert_eq!(t.large_hits(), hits + 1, "group 0 is still coalesced");
        let page = MOSAIC_GROUP + 5;
        assert_eq!(t.probe(T0, Vpn(page)), Some(Ppn(1000 + page)));
        assert_eq!(t.large_hits(), hits + 1, "group 1 was splintered");
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_invalidate_tenant_frees_large_capacity() {
        let mut t = mosaic();
        let n = MOSAIC_LARGE_ENTRIES as u64;
        for g in 0..n {
            let tenant = if g % 2 == 0 { T0 } else { T1 };
            coalesce_group(&mut t, tenant, g, 1000 + g * MOSAIC_GROUP);
        }
        t.invalidate_tenant(T1, Cycle(10));
        t.check_invariants().unwrap();
        // Tenant 1's ranges left half the array free: refilling it
        // splinters nothing, and only the next coalesce evicts.
        for g in n..n + n / 2 {
            coalesce_group(&mut t, T0, g, 1000 + g * MOSAIC_GROUP);
        }
        assert_eq!(t.splinters(), 0);
        coalesce_group(&mut t, T0, 2 * n, 5000);
        assert_eq!(t.splinters(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_groups_are_per_tenant() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 0, 100);
        assert_eq!(t.probe(T1, Vpn(0)), None, "no cross-tenant aliasing");
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_invalidate_tenant_drops_large_and_dir_state() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 0, 100);
        t.fill(T0, Vpn(64), Ppn(500), Cycle(0)); // partial group in dir
        coalesce_group(&mut t, T1, 2, 200);
        assert!(t.invalidate_tenant(T0, Cycle(10)) > 0);
        assert_eq!(t.probe(T0, Vpn(0)), None);
        assert_eq!(t.probe(T1, Vpn(16)), Some(Ppn(200)), "other tenant intact");
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_groups_sharing_a_directory_word_coalesce_independently() {
        let mut t = mosaic();
        let threshold = u64::from(MOSAIC_COALESCE_THRESHOLD);
        // Groups 8..16 share one directory word. Fill them round-robin,
        // one new page per group per round, each page twice: a repeat is
        // not a distinct fill. Each group coalesces at exactly its
        // threshold-th distinct fill, which also shows that the coalesces
        // before it in the last round left its count intact.
        for round in 0..threshold {
            for g in 8..16 {
                let (vpn, ppn) = (
                    Vpn(g * MOSAIC_GROUP + round),
                    Ppn(100 + g * MOSAIC_GROUP + round),
                );
                t.fill(T0, vpn, ppn, Cycle(0));
                if round + 1 < threshold {
                    t.fill(T0, vpn, ppn, Cycle(0));
                }
                let coalesced = if round + 1 == threshold { g - 7 } else { 0 };
                assert_eq!(t.coalesces(), coalesced, "group {g}, {} fills", round + 1);
                t.check_invariants().unwrap();
            }
        }
        assert!(
            t.dir.is_empty(),
            "every group coalesced, so no word is left"
        );
    }

    #[test]
    fn mosaic_invalidate_tenant_clears_only_its_directory_words() {
        let mut t = mosaic();
        let short = u64::from(MOSAIC_COALESCE_THRESHOLD) - 1;
        fill_group(&mut t, T0, 3, short, 100);
        fill_group(&mut t, T1, 3, short, 200);
        t.invalidate_tenant(T0, Cycle(1));
        t.check_invariants().unwrap();
        // Tenant 1's count survived: one more fill coalesces its group,
        // while tenant 0's group starts over.
        let page = 3 * MOSAIC_GROUP + short;
        t.fill(T0, Vpn(page), Ppn(100 + short), Cycle(2));
        assert_eq!(t.coalesces(), 0);
        t.fill(T1, Vpn(page), Ppn(200 + short), Cycle(2));
        assert_eq!(t.coalesces(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn mosaic_invariants_check_the_packed_directory() {
        let mut t = mosaic();
        coalesce_group(&mut t, T0, 9, 100);
        t.check_invariants().unwrap();
        let (word, shift) = MosaicTlb::dir_slot(T0, 9);
        t.dir.insert(word, 1 << shift);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("directory mask"), "{err}");
        t.dir.insert(word, 0);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("empty directory word"), "{err}");
    }

    #[test]
    fn dead_guard_invariants_catch_stale_liveness_records() {
        let mut t = DeadGuardTlb::new(lru(2, 2), 2);
        t.fill(T0, Vpn(1), Ppn(1), Cycle(0));
        t.fill(T1, Vpn(2), Ppn(2), Cycle(0));
        t.invalidate_tenant(T0, Cycle(1));
        t.check_invariants().unwrap();
        t.live.insert(tenant_key(T0, 1), false);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("outlives"), "{err}");
    }

    #[test]
    fn dead_guard_miss_fill_hit() {
        let mut t = DeadGuardTlb::new(lru(2, 2), 2);
        assert_eq!(t.probe(T0, Vpn(5)), None);
        t.fill(T0, Vpn(5), Ppn(9), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(5)), Some(Ppn(9)));
        assert_eq!((t.hits(), t.misses()), (1, 1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn dead_guard_learns_to_bypass_dead_fills() {
        let mut t = DeadGuardTlb::new(lru(1, 2), 1);
        // A streaming fill pattern: every entry dies without reuse. The
        // predictor must start bypassing some fills.
        for v in 0..4000u64 {
            t.fill(T0, Vpn(v), Ppn(v), Cycle(v));
        }
        assert!(t.dead_evictions() > 0);
        assert!(t.bypasses() > 0, "predictor never engaged");
        t.check_invariants().unwrap();
    }

    #[test]
    fn dead_guard_reuse_trains_counters_down() {
        let mut t = DeadGuardTlb::new(lru(1, 2), 1);
        // Fill, reuse, then evict: the eviction must not count as dead.
        t.fill(T0, Vpn(0), Ppn(0), Cycle(0));
        assert_eq!(t.probe(T0, Vpn(0)), Some(Ppn(0)));
        t.fill(T0, Vpn(1), Ppn(1), Cycle(1));
        t.fill(T0, Vpn(2), Ppn(2), Cycle(2)); // evicts vpn 0 (reused)
        assert_eq!(t.dead_evictions(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn dead_guard_bypass_reprieve_decrements() {
        let mut t = DeadGuardTlb::new(lru(1, 1), 1);
        for v in 0..20_000u64 {
            t.fill(T0, Vpn(v), Ppn(v), Cycle(v));
        }
        // With the reprieve, bypassed signatures keep re-earning fills, so
        // both counters stay bounded and fills keep landing.
        assert!(t.hits() == 0 && t.bypasses() > 0 && t.dead_evictions() > 1000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn facade_dispatches_all_kinds() {
        let cfg = TlbConfig {
            sets: 4,
            ways: 4,
            replacement: Replacement::Random,
        };
        let arena = |kind| ArenaTlb::new(kind, cfg, 2, PageSize::Small4K);
        let orgs = [
            ("Shared", ArenaTlb::Shared(Tlb::new(cfg, 2))),
            ("Private", ArenaTlb::Private(vec![Tlb::new(cfg, 2); 2])),
            ("SubEntry", arena(ArenaTlbKind::SubEntry)),
            ("Mosaic", arena(ArenaTlbKind::Mosaic)),
            ("DeadGuard", arena(ArenaTlbKind::DeadGuard)),
        ];
        for (org, mut t) in orgs {
            assert_eq!(t.probe(T0, Vpn(3)), None, "{org}");
            t.fill(T0, Vpn(3), Ppn(7), Cycle(0));
            assert_eq!(t.probe(T0, Vpn(3)), Some(Ppn(7)), "{org}");
            assert_eq!(
                t.probe(T1, Vpn(3)),
                None,
                "{org}: tenant 1 sees tenant 0's fill"
            );
            t.fill(T1, Vpn(3), Ppn(9), Cycle(0));
            assert!(t.share_of(T0, Cycle(100)) > 0.0, "{org}");
            assert_eq!(t.invalidate_tenant(T0, Cycle(10)), 1, "{org}");
            assert_eq!(t.probe(T0, Vpn(3)), None, "{org}");
            assert_eq!(
                t.probe(T1, Vpn(3)),
                Some(Ppn(9)),
                "{org}: tenant 1's entry flushed"
            );
        }
        // A private TLB is all its tenant's, whatever the tenant filled.
        let private = ArenaTlb::Private(vec![Tlb::new(cfg, 2); 2]);
        assert_eq!(private.share_of(T1, Cycle(100)), 1.0);
    }
}
