//! Strongly-typed identifiers and addresses.
//!
//! Every quantity that flows between subsystems gets its own newtype
//! ([`Cycle`], [`TenantId`], [`VirtAddr`], [`PhysAddr`], …) so the type
//! system statically rules out, e.g., indexing a TLB with a physical address
//! or mixing up a walker id with a tenant id.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in GPU core clock cycles.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::Cycle;
///
/// let start = Cycle(100);
/// let finish = start + 250;
/// assert_eq!(finish, Cycle(350));
/// assert_eq!(finish - start, 250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle, i.e. the start of simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Saturating difference: cycles elapsed from `earlier` to `self`,
    /// clamped at zero if `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("cycle subtraction underflow")
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// Identifier of a co-running tenant (application / virtual address space).
///
/// The paper tags every translation request with a tenant id; for two tenants
/// this is a single bit of hardware state.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::TenantId;
///
/// let t = TenantId(1);
/// assert_eq!(t.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u8);

impl TenantId {
    /// How many distinct tenant ids there are (one per `u8` value): the
    /// most tenants one simulation can hold.
    pub const COUNT: usize = 1 << u8::BITS;

    /// The tenant id as a `usize`, for indexing per-tenant tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// A virtual (guest) byte address within one tenant's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page number for a page of `page_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    ///
    /// # Examples
    ///
    /// ```
    /// use walksteal_sim_core::{VirtAddr, Vpn};
    ///
    /// assert_eq!(VirtAddr(0x5042).vpn(4096), Vpn(0x5));
    /// ```
    #[must_use]
    pub fn vpn(self, page_bytes: u64) -> Vpn {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Vpn(self.0 >> page_bytes.trailing_zeros())
    }

    /// The byte offset within a page of `page_bytes` bytes.
    #[must_use]
    pub fn page_offset(self, page_bytes: u64) -> u64 {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        self.0 & (page_bytes - 1)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va {:#x}", self.0)
    }
}

/// A physical (device-memory) byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The cache-line address for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[must_use]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa {:#x}", self.0)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The base virtual address of this page for pages of `page_bytes` bytes.
    #[must_use]
    pub fn base_addr(self, page_bytes: u64) -> VirtAddr {
        VirtAddr(self.0 << page_bytes.trailing_zeros())
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn {:#x}", self.0)
    }
}

/// A physical page (frame) number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl Ppn {
    /// The base physical address of this frame for pages of `page_bytes` bytes.
    #[must_use]
    pub fn base_addr(self, page_bytes: u64) -> PhysAddr {
        PhysAddr(self.0 << page_bytes.trailing_zeros())
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn {:#x}", self.0)
    }
}

/// A cache-line-granularity physical address (physical address divided by the
/// line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

/// Identifier of a streaming multiprocessor (SM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmId(pub u16);

impl SmId {
    /// The SM id as a `usize`, for indexing per-SM tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sm {}", self.0)
    }
}

/// Identifier of a warp within one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WarpId(pub u16);

impl WarpId {
    /// The warp id as a `usize`, for indexing per-warp tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warp {}", self.0)
    }
}

/// Identifier of a page-table walker in the shared walker pool.
///
/// Indexes the FWA and WTM hardware tables of the DWS design (4 bits for the
/// paper's default 16 walkers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WalkerId(pub u8);

impl WalkerId {
    /// The walker id as a `usize`, for indexing the FWA / WTM tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WalkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "walker {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(10);
        assert_eq!(c + 5, Cycle(15));
        assert_eq!(Cycle(15) - c, 5);
        let mut d = Cycle(1);
        d += 2;
        assert_eq!(d, Cycle(3));
        assert_eq!(Cycle(7).max(Cycle(4)), Cycle(7));
        assert_eq!(Cycle(4).max(Cycle(7)), Cycle(7));
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), 6);
        assert_eq!(Cycle(4).saturating_since(Cycle(10)), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_sub_underflow_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn vpn_and_offset_4k() {
        let va = VirtAddr(0x1234_5678);
        assert_eq!(va.vpn(4096), Vpn(0x12345));
        assert_eq!(va.page_offset(4096), 0x678);
    }

    #[test]
    fn vpn_and_offset_64k() {
        let va = VirtAddr(0x1234_5678);
        assert_eq!(va.vpn(65536), Vpn(0x1234));
        assert_eq!(va.page_offset(65536), 0x5678);
    }

    #[test]
    fn vpn_round_trip() {
        let va = VirtAddr(0xdead_b000);
        let vpn = va.vpn(4096);
        assert_eq!(vpn.base_addr(4096), VirtAddr(0xdead_b000));
    }

    #[test]
    fn ppn_base_addr() {
        assert_eq!(Ppn(3).base_addr(4096), PhysAddr(3 * 4096));
    }

    #[test]
    fn line_addr() {
        assert_eq!(PhysAddr(0x100).line(128), LineAddr(2));
        assert_eq!(PhysAddr(0x17f).line(128), LineAddr(2));
        assert_eq!(PhysAddr(0x180).line(128), LineAddr(3));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_panics() {
        let _ = VirtAddr(0).vpn(1000);
    }

    #[test]
    fn display_impls_are_nonempty() {
        // C-DEBUG-NONEMPTY: even trivial values render something useful.
        assert_eq!(Cycle(0).to_string(), "cycle 0");
        assert_eq!(TenantId(0).to_string(), "tenant 0");
        assert_eq!(VirtAddr(0).to_string(), "va 0x0");
        assert_eq!(WalkerId(9).to_string(), "walker 9");
        assert_eq!(SmId(2).to_string(), "sm 2");
        assert_eq!(WarpId(5).to_string(), "warp 5");
    }

    #[test]
    fn indices() {
        assert_eq!(TenantId(3).index(), 3);
        assert_eq!(WalkerId(15).index(), 15);
        assert_eq!(SmId(29).index(), 29);
        assert_eq!(WarpId(31).index(), 31);
    }
}
