//! The shared memory system below the SMs: banked L2 cache + DRAM.
//!
//! Every request that misses a private L1 — data accesses and page-table
//! walk accesses alike — goes through [`MemSystem::access`]. Page-table
//! entries are cacheable in the L2 (as in the paper's baseline), and the
//! MASK-style policy can selectively bypass the L2 for them.
//!
//! Serial page-walk PTE chains go through [`MemSystem::access_chain`], a
//! loop over `access` that crosses into the memory system once per walk.

use walksteal_sim_core::{Cycle, LineAddr};

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};

/// What kind of request is accessing the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An ordinary data access on behalf of a warp.
    Data,
    /// A page-table access on behalf of a walker.
    PageTable,
    /// A page-table access that must bypass the L2 (MASK's PTE bypassing).
    PageTableBypass,
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the shared L2 cache.
    L2,
    /// Served by device memory.
    Dram,
}

/// Result of one [`MemSystem::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycles from issue until data returns.
    pub latency: u64,
    /// Which level served the request.
    pub level: HitLevel,
}

/// Configuration of the shared L2 + DRAM composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// Number of L2 banks; must be a power of two. Lines interleave across
    /// banks by address.
    pub l2_banks: usize,
    /// Geometry of each L2 bank.
    pub l2_bank: CacheConfig,
    /// Latency of an L2 hit (interconnect traversal + bank access).
    pub l2_hit_latency: u64,
    /// Cycles one access occupies its L2 bank.
    pub l2_bank_occupancy: u64,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl Default for MemSystemConfig {
    /// The paper's baseline: 2 MB, 16-way, 16-bank L2 (128-byte lines) over
    /// 16 DRAM channels.
    fn default() -> Self {
        MemSystemConfig {
            l2_banks: 16,
            // 2 MB / 128 B = 16384 lines; /16 banks = 1024 lines; 16-way => 64 sets.
            l2_bank: CacheConfig { sets: 64, ways: 16 },
            l2_hit_latency: 130,
            l2_bank_occupancy: 2,
            dram: DramConfig::default(),
        }
    }
}

/// The shared L2 cache (banked) plus DRAM.
///
/// # Examples
///
/// ```
/// use walksteal_mem::{MemSystem, MemSystemConfig, AccessKind, HitLevel};
/// use walksteal_sim_core::{Cycle, LineAddr};
///
/// let mut mem = MemSystem::new(MemSystemConfig::default());
/// let a = mem.access(LineAddr(1), Cycle(0), AccessKind::PageTable);
/// assert_eq!(a.level, HitLevel::Dram);
/// let b = mem.access(LineAddr(1), Cycle(500), AccessKind::PageTable);
/// assert_eq!(b.level, HitLevel::L2); // PTEs are cacheable in L2
/// ```
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    banks: Vec<Cache>,
    bank_free: Vec<Cycle>,
    dram: Dram,
}

impl MemSystem {
    /// Creates an idle, empty memory system.
    ///
    /// # Panics
    ///
    /// Panics if `l2_banks` is not a power of two.
    #[must_use]
    pub fn new(cfg: MemSystemConfig) -> Self {
        assert!(
            cfg.l2_banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        MemSystem {
            cfg,
            banks: (0..cfg.l2_banks).map(|_| Cache::new(cfg.l2_bank)).collect(),
            bank_free: vec![Cycle::ZERO; cfg.l2_banks],
            dram: Dram::new(cfg.dram),
        }
    }

    fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.cfg.l2_banks - 1)
    }

    /// Index of the L2 set/bank residue used by the bank to cache `line`.
    /// Banked caches index on the address above the bank bits so that
    /// consecutive lines spread across banks without aliasing within one.
    fn bank_line(&self, line: LineAddr) -> LineAddr {
        LineAddr(line.0 >> self.cfg.l2_banks.trailing_zeros())
    }

    /// Issues an access to `line` at cycle `now`.
    ///
    /// Models L2 bank contention, L2 lookup, DRAM on a miss, and the L2 fill.
    /// [`AccessKind::PageTableBypass`] skips the L2 entirely (MASK-style PTE
    /// bypassing).
    pub fn access(&mut self, line: LineAddr, now: Cycle, kind: AccessKind) -> Access {
        let bank = self.bank_of(line);
        let start = self.bank_free[bank].max(now);
        let bank_wait = start - now;
        self.bank_free[bank] = start + self.cfg.l2_bank_occupancy;

        if kind == AccessKind::PageTableBypass {
            let dram_latency = self.dram.access(line, start + self.cfg.l2_hit_latency);
            return Access {
                latency: bank_wait + self.cfg.l2_hit_latency + dram_latency,
                level: HitLevel::Dram,
            };
        }

        let bline = self.bank_line(line);
        if self.banks[bank].probe(bline) {
            return Access {
                latency: bank_wait + self.cfg.l2_hit_latency,
                level: HitLevel::L2,
            };
        }

        let dram_latency = self.dram.access(line, start + self.cfg.l2_hit_latency);
        self.banks[bank].fill(bline);
        Access {
            latency: bank_wait + self.cfg.l2_hit_latency + dram_latency,
            level: HitLevel::Dram,
        }
    }

    /// Issues a serial chain of dependent accesses — access `i + 1` starts
    /// the cycle access `i`'s data returns — appending each [`Access`] to
    /// `out` and returning the chain's completion cycle. Equivalent to
    /// calling [`MemSystem::access`] per line with `at += latency`; this is
    /// the page-table walker's PTE fetch pattern, batched so the walker
    /// dispatch loop crosses into the memory system once per walk.
    pub fn access_chain(
        &mut self,
        lines: &[LineAddr],
        start: Cycle,
        kind: AccessKind,
        out: &mut Vec<Access>,
    ) -> Cycle {
        let mut at = start;
        out.reserve(lines.len());
        for &line in lines {
            let a = self.access(line, at, kind);
            at += a.latency;
            out.push(a);
        }
        at
    }

    /// Whether `line` is currently resident in the L2.
    #[must_use]
    pub fn l2_contains(&self, line: LineAddr) -> bool {
        let bank = self.bank_of(line);
        self.banks[bank].contains(self.bank_line(line))
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> MemSystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemSystem {
        MemSystem::new(MemSystemConfig {
            l2_banks: 2,
            l2_bank: CacheConfig { sets: 2, ways: 2 },
            l2_hit_latency: 10,
            l2_bank_occupancy: 2,
            dram: DramConfig {
                channels: 2,
                access_latency: 100,
                occupancy_cycles: 5,
            },
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut m = small();
        let a = m.access(LineAddr(0), Cycle(0), AccessKind::Data);
        assert_eq!(a.level, HitLevel::Dram);
        assert_eq!(a.latency, 110);
        let b = m.access(LineAddr(0), Cycle(1000), AccessKind::Data);
        assert_eq!(b.level, HitLevel::L2);
        assert_eq!(b.latency, 10);
    }

    #[test]
    fn bank_contention_adds_wait() {
        let mut m = small();
        m.access(LineAddr(0), Cycle(0), AccessKind::Data);
        m.access(LineAddr(0), Cycle(1000), AccessKind::Data);
        // Immediately after, the bank is busy for occupancy cycles.
        let c = m.access(LineAddr(0), Cycle(1000), AccessKind::Data);
        assert_eq!(c.latency, 2 + 10);
    }

    #[test]
    fn pte_bypass_always_goes_to_dram() {
        let mut m = small();
        m.access(LineAddr(4), Cycle(0), AccessKind::PageTable);
        assert!(m.l2_contains(LineAddr(4)));
        let a = m.access(LineAddr(4), Cycle(1000), AccessKind::PageTableBypass);
        assert_eq!(a.level, HitLevel::Dram);
        // Bypass must not have disturbed residency either way.
        assert!(m.l2_contains(LineAddr(4)));
    }

    #[test]
    fn pt_accesses_cacheable() {
        let mut m = small();
        let a = m.access(LineAddr(8), Cycle(0), AccessKind::PageTable);
        assert_eq!(a.level, HitLevel::Dram);
        let b = m.access(LineAddr(8), Cycle(1000), AccessKind::PageTable);
        assert_eq!(b.level, HitLevel::L2);
    }

    #[test]
    fn banks_index_above_bank_bits() {
        let mut m = small();
        // Lines 0 and 2 both live in bank 0 but must occupy *different* sets
        // (bank-internal index is line >> bank_bits: 0 -> set 0, 2 -> set 1).
        m.access(LineAddr(0), Cycle(0), AccessKind::Data);
        m.access(LineAddr(2), Cycle(0), AccessKind::Data);
        assert!(m.l2_contains(LineAddr(0)));
        assert!(m.l2_contains(LineAddr(2)));
    }

    #[test]
    fn data_and_pt_share_the_l2() {
        let mut m = small();
        let level =
            |m: &mut MemSystem, line, at, kind| m.access(LineAddr(line), Cycle(at), kind).level;
        assert_eq!(level(&mut m, 0, 0, AccessKind::Data), HitLevel::Dram);
        assert_eq!(level(&mut m, 0, 500, AccessKind::Data), HitLevel::L2);
        assert_eq!(level(&mut m, 1, 0, AccessKind::PageTable), HitLevel::Dram);
        assert_eq!(level(&mut m, 0, 900, AccessKind::PageTable), HitLevel::L2);
    }

    #[test]
    fn chain_matches_sequential_dependent_accesses() {
        let mut chained = small();
        let mut scalar = small();
        let lines = [LineAddr(0), LineAddr(5), LineAddr(2), LineAddr(7)];
        let mut out = Vec::new();
        let end = chained.access_chain(&lines, Cycle(40), AccessKind::PageTable, &mut out);
        let mut at = Cycle(40);
        for (i, &line) in lines.iter().enumerate() {
            let want = scalar.access(line, at, AccessKind::PageTable);
            at += want.latency;
            assert_eq!(out[i], want);
        }
        assert_eq!(end, at);
        assert_eq!(chained.bank_free, scalar.bank_free);
        // Same L2 and DRAM state: the next access sees the same contention.
        for line in [LineAddr(0), LineAddr(9)] {
            assert_eq!(
                chained.access(line, end, AccessKind::Data),
                scalar.access(line, at, AccessKind::Data)
            );
        }
    }
}
