//! Simulator configuration: the paper's Table I baseline plus the policy
//! presets its evaluation compares.

use walksteal_gpu::SmConfig;
use walksteal_mem::MemSystemConfig;
use walksteal_sim_core::{ConfigError, TenantId};
use walksteal_vm::{
    ArenaTlbKind, DwsPlusPlusParams, MaskConfig, PageSize, PageTable, Replacement, StealMode,
    TlbConfig, WalkConfig, WalkPolicyKind, MAX_FRAMES, MAX_PARTITIONED_WALKERS, MAX_WALKERS,
    MOSAIC_GROUP,
};
use walksteal_workloads::{synth, AppProfile};

/// The configurations compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyPreset {
    /// Today's design: shared L2 TLB, one shared walk queue (Table I).
    Baseline,
    /// Baseline with doubled virtual-memory resources (2048-entry TLB, 32
    /// walkers) but still uncontrolled sharing (§IV "does increasing ...").
    DoubledBaseline,
    /// Exclusive full-size L2 TLB per tenant; walkers still shared (§IV).
    STlb,
    /// Exclusive L2 TLB *and* walkers per tenant (§IV upper bound).
    STlbPtw,
    /// Walkers statically partitioned, no stealing (Fig. 11 "Static").
    StaticPartition,
    /// Dynamic walk stealing.
    Dws,
    /// DWS++ with the paper's default parameters (Table IV).
    DwsPlusPlus,
    /// DWS++ steal-conservative variant (Table VII).
    DwsPlusPlusConservative,
    /// DWS++ steal-aggressive variant (Table VII).
    DwsPlusPlusAggressive,
    /// MASK-style TLB-fill tokens + PTE bypass over the baseline walkers.
    Mask,
    /// MASK combined with DWS (the two are orthogonal; Fig. 11).
    MaskDws,
    /// Sub-entry-sharing L2 TLB for MIG-style partitioning
    /// (arXiv 2404.18361): statically partitioned walkers, shared L2 TLB
    /// whose entries hold per-tenant sub-entries with sharing-aware
    /// replacement.
    SubEntryTlb,
    /// Mosaic-style transparent large pages (arXiv 1804.11265): a
    /// contiguity-reserving allocator plus a multi-page-size L2 TLB path
    /// that coalesces/splinters at allocation-group boundaries, over DWS
    /// walkers.
    MosaicPages,
    /// Dead-entry TLB-miss prediction (arXiv 2606.00486) layered onto the
    /// shared L2 TLB, over DWS walkers.
    DeadEntryGuard,
}

impl PolicyPreset {
    /// All presets, in evaluation order (paper presets first, then the
    /// policy-arena competitors from related work).
    pub const ALL: [PolicyPreset; 14] = [
        PolicyPreset::Baseline,
        PolicyPreset::DoubledBaseline,
        PolicyPreset::STlb,
        PolicyPreset::STlbPtw,
        PolicyPreset::StaticPartition,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlus,
        PolicyPreset::DwsPlusPlusConservative,
        PolicyPreset::DwsPlusPlusAggressive,
        PolicyPreset::Mask,
        PolicyPreset::MaskDws,
        PolicyPreset::SubEntryTlb,
        PolicyPreset::MosaicPages,
        PolicyPreset::DeadEntryGuard,
    ];

    /// The policy-arena competitors (suffix of [`ALL`](Self::ALL)): the
    /// related-work designs raced against DWS/DWS++ in the arena suites.
    pub const ARENA: [PolicyPreset; 3] = [
        PolicyPreset::SubEntryTlb,
        PolicyPreset::MosaicPages,
        PolicyPreset::DeadEntryGuard,
    ];

    /// A short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PolicyPreset::Baseline => "Baseline",
            PolicyPreset::DoubledBaseline => "Baseline-2x",
            PolicyPreset::STlb => "S-TLB",
            PolicyPreset::STlbPtw => "S-(TLB+PTW)",
            PolicyPreset::StaticPartition => "Static",
            PolicyPreset::Dws => "DWS",
            PolicyPreset::DwsPlusPlus => "DWS++",
            PolicyPreset::DwsPlusPlusConservative => "DWS++cons",
            PolicyPreset::DwsPlusPlusAggressive => "DWS++aggr",
            PolicyPreset::Mask => "MASK",
            PolicyPreset::MaskDws => "MASK+DWS",
            PolicyPreset::SubEntryTlb => "SE-TLB",
            PolicyPreset::MosaicPages => "MOSAIC",
            PolicyPreset::DeadEntryGuard => "DE-GUARD",
        }
    }
}

impl std::fmt::Display for PolicyPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl std::str::FromStr for PolicyPreset {
    type Err = String;

    /// Parses a preset from its [`label`](PolicyPreset::label)
    /// (case-insensitive) or a CLI-friendly alias (`stlb`, `stlbptw`,
    /// `dwspp`, `maskdws`, ...). Round-trips with `Display`:
    /// `p.to_string().parse() == Ok(p)` for every preset.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        if let Some(p) = PolicyPreset::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(&norm))
        {
            return Ok(p);
        }
        // Squeeze out separators so "s-(tlb+ptw)", "S-TLB-PTW", and
        // "stlb+ptw" all land on the same key ('+' is kept: it is
        // significant in "dws++").
        let compact: String = norm
            .chars()
            .filter(|c| !matches!(c, ' ' | '-' | '_' | '(' | ')'))
            .collect();
        match compact.as_str() {
            "baseline" => Ok(PolicyPreset::Baseline),
            "baseline2x" | "doubledbaseline" | "doubled" => Ok(PolicyPreset::DoubledBaseline),
            "stlb" => Ok(PolicyPreset::STlb),
            "stlb+ptw" | "stlbptw" => Ok(PolicyPreset::STlbPtw),
            "static" | "staticpartition" => Ok(PolicyPreset::StaticPartition),
            "dws" => Ok(PolicyPreset::Dws),
            "dws++" | "dwspp" => Ok(PolicyPreset::DwsPlusPlus),
            "dws++cons" | "dws++conservative" | "dwsppcons" => {
                Ok(PolicyPreset::DwsPlusPlusConservative)
            }
            "dws++aggr" | "dws++aggressive" | "dwsppaggr" => {
                Ok(PolicyPreset::DwsPlusPlusAggressive)
            }
            "mask" => Ok(PolicyPreset::Mask),
            "mask+dws" | "maskdws" => Ok(PolicyPreset::MaskDws),
            "setlb" | "subentry" | "subentrytlb" => Ok(PolicyPreset::SubEntryTlb),
            "mosaic" | "mosaicpages" => Ok(PolicyPreset::MosaicPages),
            "deguard" | "deadguard" | "deadentryguard" => Ok(PolicyPreset::DeadEntryGuard),
            _ => Err(format!(
                "unknown policy preset {s:?} (expected one of: {})",
                PolicyPreset::ALL.map(PolicyPreset::label).join(", ")
            )),
        }
    }
}

/// Full configuration of one simulated GPU (defaults = paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors (baseline: 30), split evenly among tenants.
    pub n_sms: usize,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Per-SM private resources (L1 TLB, L1 cache, MSHRs).
    pub sm: SmConfig,
    /// Shared L2 TLB geometry (baseline: 1024 entries, 16-way).
    pub l2_tlb: TlbConfig,
    /// L2 TLB lookup latency (interconnect + access).
    pub l2_tlb_latency: u64,
    /// S-TLB mode: each tenant gets an exclusive full-size L2 TLB.
    pub l2_tlb_private: bool,
    /// Page-walk subsystem configuration (policy lives here).
    pub walk: WalkConfig,
    /// Shared L2 cache + DRAM.
    pub mem: MemSystemConfig,
    /// MASK-style token mechanism, when enabled.
    pub mask: Option<MaskConfig>,
    /// Policy-arena L2 TLB organization replacing the shared SoA TLB, when
    /// a related-work preset selects one.
    pub l2_arena: Option<ArenaTlbKind>,
    /// Page size (Fig. 14 uses 64 KB).
    pub page_size: PageSize,
    /// Base warp-instruction budget per execution (scaled per app).
    pub instructions_per_warp: u64,
    /// Outstanding-walk merge entries at the L2 TLB (walk MSHRs). Sized so
    /// the walk queue, not the merge table, is the binding resource (as in
    /// the paper, where the 192-entry walk queue is the named limit).
    pub merge_capacity: usize,
    /// Safety stop: abort the run at this cycle.
    pub max_cycles: u64,
    /// Take a timeline [`Sample`](crate::metrics::Sample) every this many
    /// cycles (`None` disables sampling).
    pub sample_interval: Option<u64>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_sms: 30,
            warps_per_sm: 24,
            sm: SmConfig::default(),
            l2_tlb: TlbConfig {
                sets: 64,
                ways: 16,
                replacement: Replacement::Random,
            },
            l2_tlb_latency: 20,
            l2_tlb_private: false,
            walk: WalkConfig::default(),
            mem: MemSystemConfig::default(),
            mask: None,
            l2_arena: None,
            page_size: PageSize::Small4K,
            instructions_per_warp: 6_000,
            merge_capacity: 512,
            max_cycles: 200_000_000,
            sample_interval: None,
        }
    }
}

impl GpuConfig {
    /// Applies a [`PolicyPreset`], adjusting TLB privacy, walker policy, and
    /// resource counts as the paper's corresponding configuration does.
    ///
    /// # Panics
    ///
    /// Panics if the resulting walker count is 0 or above [`MAX_WALKERS`],
    /// the walk queue has no entry, or a partitioned policy cannot split
    /// the walkers evenly among the already-set tenant count; use
    /// [`try_with_preset`](Self::try_with_preset) to get a [`ConfigError`]
    /// instead.
    #[must_use]
    pub fn with_preset(self, preset: PolicyPreset) -> Self {
        self.try_with_preset(preset)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_preset`](Self::with_preset): re-checks the
    /// walker split after the preset lands, because the canonical build
    /// order is `for_tenants(n)` *then* `with_preset(p)` — a preset that
    /// switches to a partitioned policy can invalidate a walker count that
    /// was fine under the shared queue.
    pub fn try_with_preset(mut self, preset: PolicyPreset) -> Result<Self, ConfigError> {
        // Reset the preset-controlled knobs to baseline first.
        self.l2_tlb_private = false;
        self.mask = None;
        self.l2_arena = None;
        self.walk.policy = WalkPolicyKind::SharedQueue;
        match preset {
            PolicyPreset::Baseline => {}
            PolicyPreset::DoubledBaseline => {
                self.l2_tlb = TlbConfig {
                    sets: self.l2_tlb.sets * 2,
                    ..self.l2_tlb
                };
                self.walk.n_walkers *= 2;
                self.walk.queue_entries *= 2;
            }
            PolicyPreset::STlb => {
                self.l2_tlb_private = true;
            }
            PolicyPreset::STlbPtw => {
                self.l2_tlb_private = true;
                self.walk.policy = WalkPolicyKind::PrivatePools;
                self.walk.n_walkers *= self.walk.n_tenants.max(1);
                self.walk.queue_entries *= self.walk.n_tenants.max(1);
            }
            PolicyPreset::StaticPartition => {
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::None);
            }
            PolicyPreset::Dws => {
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::Dws);
            }
            PolicyPreset::DwsPlusPlus => {
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::DwsPlusPlus(
                    DwsPlusPlusParams::paper_default(),
                ));
            }
            PolicyPreset::DwsPlusPlusConservative => {
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::DwsPlusPlus(
                    DwsPlusPlusParams::conservative(),
                ));
            }
            PolicyPreset::DwsPlusPlusAggressive => {
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::DwsPlusPlus(
                    DwsPlusPlusParams::aggressive(),
                ));
            }
            PolicyPreset::Mask => {
                self.mask = Some(MaskConfig::default());
            }
            PolicyPreset::MaskDws => {
                self.mask = Some(MaskConfig::default());
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::Dws);
            }
            PolicyPreset::SubEntryTlb => {
                // MIG-faithful: hard walker partitions (no stealing), with
                // the sub-entry TLB recovering shared-capacity efficiency.
                self.l2_arena = Some(ArenaTlbKind::SubEntry);
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::None);
            }
            PolicyPreset::MosaicPages => {
                self.l2_arena = Some(ArenaTlbKind::Mosaic);
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::Dws);
            }
            PolicyPreset::DeadEntryGuard => {
                self.l2_arena = Some(ArenaTlbKind::DeadGuard);
                self.walk.policy = WalkPolicyKind::Partitioned(StealMode::Dws);
            }
        }
        self.check_walker_split(self.walk.n_tenants)?;
        Ok(self)
    }

    /// Every policy needs 1 to [`MAX_WALKERS`] walkers and a walk queue.
    /// Partitioned policies also hand each tenant a fixed walker share, so
    /// the walker count must divide evenly and fit the scheduler's
    /// [`MAX_PARTITIONED_WALKERS`]; other organizations don't care.
    fn check_walker_split(&self, n_tenants: usize) -> Result<(), ConfigError> {
        let (count, queue_entries) = (self.walk.n_walkers, self.walk.queue_entries);
        if count == 0 || count > MAX_WALKERS || queue_entries == 0 {
            return Err(ConfigError::Walkers {
                count,
                queue_entries,
                max: MAX_WALKERS,
            });
        }
        if !matches!(self.walk.policy, WalkPolicyKind::Partitioned(_)) {
            return Ok(());
        }
        if self.walk.n_walkers > MAX_PARTITIONED_WALKERS {
            return Err(ConfigError::TooManyWalkers {
                count: self.walk.n_walkers,
                max: MAX_PARTITIONED_WALKERS,
            });
        }
        if n_tenants > 1 && !self.walk.n_walkers.is_multiple_of(n_tenants) {
            return Err(ConfigError::UnevenSplit {
                resource: "walkers",
                count: self.walk.n_walkers,
                n_tenants,
            });
        }
        Ok(())
    }

    /// Sets the number of SMs.
    #[must_use]
    pub fn with_n_sms(mut self, n: usize) -> Self {
        self.n_sms = n;
        self
    }

    /// Sets resident warps per SM.
    #[must_use]
    pub fn with_warps_per_sm(mut self, n: usize) -> Self {
        self.warps_per_sm = n;
        self
    }

    /// Sets the base per-warp instruction budget per execution.
    #[must_use]
    pub fn with_instructions_per_warp(mut self, n: u64) -> Self {
        self.instructions_per_warp = n;
        self
    }

    /// Sets the L2 TLB to `entries` total entries, keeping 16-way
    /// associativity (Fig. 12 sweeps 512 / 1024 / 2048). `entries / 16`
    /// must be a power of two; [`try_for_tenants`](Self::try_for_tenants)
    /// rejects any other count.
    #[must_use]
    pub fn with_l2_tlb_entries(mut self, entries: usize) -> Self {
        self.l2_tlb = TlbConfig {
            sets: entries / 16,
            ways: 16,
            replacement: self.l2_tlb.replacement,
        };
        self
    }

    /// Sets the number of page-table walkers, keeping the per-walker queue
    /// depth of the Table I baseline (12 entries each; Fig. 12 sweeps
    /// 12 / 16 / 24 walkers).
    #[must_use]
    pub fn with_walkers(mut self, n: usize) -> Self {
        self.walk.queue_entries = n * 12;
        self.walk.n_walkers = n;
        self
    }

    /// Sets the page size (Fig. 14 uses [`PageSize::Large64K`]).
    #[must_use]
    pub fn with_page_size(mut self, page_size: PageSize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Enables periodic timeline sampling every `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    #[must_use]
    pub fn with_sample_interval(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "sample interval must be positive");
        self.sample_interval = Some(cycles);
        self
    }

    /// Validates and specializes the configuration for `n_tenants`.
    ///
    /// # Panics
    ///
    /// Panics if `n_tenants` is zero or more than [`TenantId::COUNT`],
    /// `n_sms` is not divisible by it, the L2 TLB's set count is not a
    /// power of two, the walk subsystem has no walker, more than
    /// [`MAX_WALKERS`] or no queue entry, or walkers cannot be split evenly
    /// under a partitioned policy; use
    /// [`try_for_tenants`](Self::try_for_tenants) to get a [`ConfigError`]
    /// instead.
    #[must_use]
    pub fn for_tenants(self, n_tenants: usize) -> Self {
        self.try_for_tenants(n_tenants)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`for_tenants`](Self::for_tenants), so a
    /// CLI-supplied tenant count surfaces as a diagnostic instead of a
    /// panic. Every simulation build passes through here, so this is where
    /// the tenant count is bounded by what a [`TenantId`] can name.
    pub fn try_for_tenants(mut self, n_tenants: usize) -> Result<Self, ConfigError> {
        if n_tenants == 0 {
            return Err(ConfigError::NoTenants);
        }
        if n_tenants > TenantId::COUNT {
            return Err(ConfigError::TooManyTenants {
                count: n_tenants,
                max: TenantId::COUNT,
            });
        }
        if !self.n_sms.is_multiple_of(n_tenants) {
            return Err(ConfigError::UnevenSplit {
                resource: "SMs",
                count: self.n_sms,
                n_tenants,
            });
        }
        let TlbConfig { sets, ways, .. } = self.l2_tlb;
        if !sets.is_power_of_two() || ways == 0 {
            return Err(ConfigError::TlbGeometry {
                what: "L2 TLB",
                sets,
                ways,
            });
        }
        self.check_walker_split(n_tenants)?;
        self.walk.n_tenants = n_tenants;
        Ok(self)
    }

    /// Pages each page table maps on a page's first touch: Mosaic's
    /// contiguity reservation maps the page's whole aligned group of
    /// [`MOSAIC_GROUP`] pages, every other preset just the page.
    #[must_use]
    pub fn reserve_pages(&self) -> u64 {
        if self.l2_arena == Some(ArenaTlbKind::Mosaic) {
            MOSAIC_GROUP
        } else {
            1
        }
    }

    /// Checks each tenant's profile against this configuration, already
    /// specialized for `profiles.len()` tenants: the structural constraints
    /// the warp streams assume ([`synth::sanity`]), an address layout
    /// inside the page table's [`table_reach`](PageSize::table_reach), and
    /// a frame space the 32-bit page-table entries can number. A tenant's
    /// warps share a hot and a warm region, then each takes a private cold
    /// region plus a guard page (`WarpStream::new`), so no page number
    /// reaches hot + warm + warps × (cold + 1); that bound must lie below
    /// the reach. Mapping every page below it takes at most
    /// [`PageTable::frames_to_map`] frames, and since one frame allocator
    /// serves every tenant, the sum over tenants must not pass
    /// [`MAX_FRAMES`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Profile`] for the first tenant that fails:
    /// its profile, its layout's reach, or the frame sum up to and
    /// including it, checked in that order.
    pub fn check_profiles(&self, profiles: &[AppProfile]) -> Result<(), ConfigError> {
        let warps = (self.n_sms / profiles.len().max(1) * self.warps_per_sm) as u64;
        let reach = self.page_size.table_reach();
        let mut frames = 0u64;
        for (tenant, p) in profiles.iter().enumerate() {
            synth::sanity(p).map_err(|reason| ConfigError::Profile { tenant, reason })?;
            let end = p
                .cold_pages
                .checked_add(1)
                .and_then(|span| span.checked_mul(warps))
                .and_then(|cold| cold.checked_add(p.hot_pages))
                .and_then(|end| end.checked_add(p.warm_pages))
                .filter(|&end| end < reach)
                .ok_or_else(|| ConfigError::Profile {
                    tenant,
                    reason: format!(
                        "profile {}: hot + warm + {warps} warps × (cold_pages + 1) pages \
                         exceed the 2^{}-page reach of {} page tables",
                        p.id,
                        reach.trailing_zeros(),
                        self.page_size
                    ),
                })?;
            frames = PageTable::frames_to_map(self.page_size, self.reserve_pages(), end)
                .and_then(|f| f.checked_add(frames))
                .filter(|&f| f <= MAX_FRAMES)
                .ok_or_else(|| ConfigError::Profile {
                    tenant,
                    reason: format!(
                        "profile {}: tenants 0..={tenant} could map more than the \
                         {MAX_FRAMES} frames a 32-bit page-table entry can hold",
                        p.id
                    ),
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_one() {
        let c = GpuConfig::default();
        assert_eq!(c.n_sms, 30);
        assert_eq!(c.l2_tlb.entries(), 1024);
        assert_eq!(c.walk.n_walkers, 16);
        assert_eq!(c.walk.queue_entries, 192);
        assert_eq!(c.walk.pwc_entries, 128);
        assert_eq!(c.mem.l2_banks, 16);
        assert_eq!(c.mem.dram.channels, 16);
    }

    #[test]
    fn presets_set_policies() {
        let dws = GpuConfig::default().with_preset(PolicyPreset::Dws);
        assert_eq!(dws.walk.policy, WalkPolicyKind::Partitioned(StealMode::Dws));
        let stlb = GpuConfig::default().with_preset(PolicyPreset::STlb);
        assert!(stlb.l2_tlb_private);
        assert_eq!(stlb.walk.policy, WalkPolicyKind::SharedQueue);
    }

    #[test]
    fn stlb_ptw_doubles_walkers_for_two_tenants() {
        let c = GpuConfig::default()
            .for_tenants(2)
            .with_preset(PolicyPreset::STlbPtw);
        assert_eq!(c.walk.n_walkers, 32);
        assert_eq!(c.walk.queue_entries, 384);
        assert!(c.l2_tlb_private);
        assert_eq!(c.walk.policy, WalkPolicyKind::PrivatePools);
    }

    #[test]
    fn doubled_baseline_doubles_resources_without_partitioning() {
        let c = GpuConfig::default().with_preset(PolicyPreset::DoubledBaseline);
        assert_eq!(c.l2_tlb.entries(), 2048);
        assert_eq!(c.walk.n_walkers, 32);
        assert_eq!(c.walk.policy, WalkPolicyKind::SharedQueue);
        assert!(!c.l2_tlb_private);
    }

    #[test]
    fn presets_reset_previous_preset_state() {
        let c = GpuConfig::default()
            .with_preset(PolicyPreset::MaskDws)
            .with_preset(PolicyPreset::Baseline);
        assert!(c.mask.is_none());
        assert_eq!(c.walk.policy, WalkPolicyKind::SharedQueue);
    }

    #[test]
    fn mask_dws_combines_both() {
        let c = GpuConfig::default().with_preset(PolicyPreset::MaskDws);
        assert!(c.mask.is_some());
        assert_eq!(c.walk.policy, WalkPolicyKind::Partitioned(StealMode::Dws));
    }

    #[test]
    fn arena_presets_select_their_organization() {
        let se = GpuConfig::default().with_preset(PolicyPreset::SubEntryTlb);
        assert_eq!(se.l2_arena, Some(ArenaTlbKind::SubEntry));
        assert_eq!(
            se.walk.policy,
            WalkPolicyKind::Partitioned(StealMode::None),
            "MIG-style: hard walker partitions"
        );
        let mosaic = GpuConfig::default().with_preset(PolicyPreset::MosaicPages);
        assert_eq!(mosaic.l2_arena, Some(ArenaTlbKind::Mosaic));
        assert_eq!(
            mosaic.walk.policy,
            WalkPolicyKind::Partitioned(StealMode::Dws)
        );
        let guard = GpuConfig::default().with_preset(PolicyPreset::DeadEntryGuard);
        assert_eq!(guard.l2_arena, Some(ArenaTlbKind::DeadGuard));
        assert_eq!(
            guard.walk.policy,
            WalkPolicyKind::Partitioned(StealMode::Dws)
        );
        // None of them flips the S-TLB or MASK knobs.
        for c in [&se, &mosaic, &guard] {
            assert!(!c.l2_tlb_private && c.mask.is_none());
        }
    }

    #[test]
    fn presets_reset_arena_organization() {
        let c = GpuConfig::default()
            .with_preset(PolicyPreset::MosaicPages)
            .with_preset(PolicyPreset::Baseline);
        assert_eq!(c.l2_arena, None);
        assert_eq!(c.walk.policy, WalkPolicyKind::SharedQueue);
    }

    #[test]
    fn arena_contains_exactly_the_non_paper_presets() {
        assert_eq!(&PolicyPreset::ALL[11..], &PolicyPreset::ARENA);
        for p in PolicyPreset::ARENA {
            assert!(
                GpuConfig::default().with_preset(p).l2_arena.is_some(),
                "{p}"
            );
        }
    }

    #[test]
    fn tlb_and_walker_sweeps() {
        let c = GpuConfig::default().with_l2_tlb_entries(512);
        assert_eq!(c.l2_tlb.entries(), 512);
        let c = GpuConfig::default().with_walkers(24);
        assert_eq!(c.walk.n_walkers, 24);
        assert_eq!(c.walk.queue_entries, 288);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn odd_sm_split_panics() {
        let _ = GpuConfig::default().with_n_sms(31).for_tenants(2);
    }

    #[test]
    fn try_for_tenants_rejects_zero_tenants() {
        assert_eq!(
            GpuConfig::default().try_for_tenants(0),
            Err(ConfigError::NoTenants)
        );
    }

    #[test]
    fn try_for_tenants_rejects_uneven_sms() {
        let err = GpuConfig::default()
            .with_n_sms(31)
            .try_for_tenants(2)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnevenSplit {
                resource: "SMs",
                count: 31,
                n_tenants: 2,
            }
        );
        assert!(err.to_string().contains("divide evenly"), "{err}");
    }

    #[test]
    fn try_for_tenants_rejects_a_tlb_that_cannot_be_built() {
        // 100 entries are 6 sets of 16 ways; the setter stores them and
        // the check turns them into an error instead of a panic.
        let err = GpuConfig::default()
            .with_l2_tlb_entries(100)
            .try_for_tenants(2)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TlbGeometry {
                what: "L2 TLB",
                sets: 6,
                ways: 16,
            }
        );
        assert!(err.to_string().contains("TLB"), "{err}");
        assert!(GpuConfig::default()
            .with_l2_tlb_entries(2048)
            .try_for_tenants(2)
            .is_ok());
    }

    #[test]
    fn try_for_tenants_rejects_walker_counts_the_walk_layer_cannot_hold() {
        for walkers in [0, MAX_WALKERS + 1] {
            let err = GpuConfig::default()
                .with_walkers(walkers)
                .try_for_tenants(1)
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::Walkers {
                    count: walkers,
                    queue_entries: walkers * 12,
                    max: MAX_WALKERS,
                }
            );
            assert!(err.to_string().contains("walkers"), "{err}");
        }
    }

    #[test]
    fn try_for_tenants_rejects_uneven_walkers_when_partitioned() {
        let err = GpuConfig::default()
            .with_preset(PolicyPreset::Dws)
            .try_for_tenants(3)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnevenSplit {
                resource: "walkers",
                count: 16,
                n_tenants: 3,
            }
        );
    }

    #[test]
    fn try_with_preset_rechecks_walker_split_after_preset() {
        // Canonical build order: tenants first, preset second. The shared
        // queue accepts any walker count, so the split must be re-validated
        // when the preset switches to a partitioned policy.
        let err = GpuConfig::default()
            .with_n_sms(30)
            .try_for_tenants(3)
            .unwrap()
            .try_with_preset(PolicyPreset::Dws)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnevenSplit {
                resource: "walkers",
                count: 16,
                n_tenants: 3,
            }
        );
        // Rounding the walkers up to a multiple of the tenant count fixes it.
        assert!(GpuConfig::default()
            .with_n_sms(30)
            .with_walkers(18)
            .try_for_tenants(3)
            .unwrap()
            .try_with_preset(PolicyPreset::Dws)
            .is_ok());
    }

    #[test]
    fn partitioned_policies_reject_more_walkers_than_the_scheduler_holds() {
        // 66 splits evenly between two tenants, so only the scheduler's
        // walker limit can reject it: through the tenant split when the
        // policy is already partitioned, and through the preset otherwise.
        let too_many = ConfigError::TooManyWalkers {
            count: 66,
            max: MAX_PARTITIONED_WALKERS,
        };
        let wide = GpuConfig::default().with_walkers(66);
        let mut dws = wide.clone();
        dws.walk.policy = WalkPolicyKind::Partitioned(StealMode::Dws);
        assert_eq!(dws.try_for_tenants(2).unwrap_err(), too_many);
        for preset in [PolicyPreset::Dws, PolicyPreset::StaticPartition] {
            let err = wide
                .clone()
                .try_for_tenants(2)
                .unwrap()
                .try_with_preset(preset)
                .unwrap_err();
            assert_eq!(err, too_many, "{preset}");
        }
        // The shared queue keeps the wider walker limit.
        assert!(wide
            .clone()
            .try_for_tenants(2)
            .unwrap()
            .try_with_preset(PolicyPreset::Baseline)
            .is_ok());
        // The limit itself is accepted.
        assert!(GpuConfig::default()
            .with_walkers(MAX_PARTITIONED_WALKERS)
            .try_for_tenants(2)
            .unwrap()
            .try_with_preset(PolicyPreset::Dws)
            .is_ok());
    }

    #[test]
    fn try_with_preset_accepts_non_partitioned_uneven_walkers() {
        // Shared-queue organizations never split walkers per tenant.
        assert!(GpuConfig::default()
            .with_n_sms(30)
            .try_for_tenants(3)
            .unwrap()
            .try_with_preset(PolicyPreset::Baseline)
            .is_ok());
    }

    #[test]
    fn preset_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            PolicyPreset::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PolicyPreset::ALL.len());
    }

    #[test]
    fn preset_display_from_str_round_trips() {
        for p in PolicyPreset::ALL {
            assert_eq!(p.to_string().parse::<PolicyPreset>(), Ok(p), "{p}");
            assert_eq!(
                p.to_string().to_lowercase().parse::<PolicyPreset>(),
                Ok(p),
                "case-insensitive {p}"
            );
        }
    }

    #[test]
    fn preset_cli_aliases_parse() {
        for (alias, expect) in [
            ("baseline", PolicyPreset::Baseline),
            ("baseline2x", PolicyPreset::DoubledBaseline),
            ("stlb", PolicyPreset::STlb),
            ("stlbptw", PolicyPreset::STlbPtw),
            ("s-tlb-ptw", PolicyPreset::STlbPtw),
            ("static", PolicyPreset::StaticPartition),
            ("dws", PolicyPreset::Dws),
            ("dwspp", PolicyPreset::DwsPlusPlus),
            ("dws++conservative", PolicyPreset::DwsPlusPlusConservative),
            ("dws++aggressive", PolicyPreset::DwsPlusPlusAggressive),
            ("mask", PolicyPreset::Mask),
            ("maskdws", PolicyPreset::MaskDws),
            ("setlb", PolicyPreset::SubEntryTlb),
            ("sub-entry", PolicyPreset::SubEntryTlb),
            ("mosaic", PolicyPreset::MosaicPages),
            ("mosaic-pages", PolicyPreset::MosaicPages),
            ("deguard", PolicyPreset::DeadEntryGuard),
            ("dead-entry-guard", PolicyPreset::DeadEntryGuard),
        ] {
            assert_eq!(alias.parse::<PolicyPreset>(), Ok(expect), "{alias}");
        }
        assert!("bogus".parse::<PolicyPreset>().is_err());
    }
}
