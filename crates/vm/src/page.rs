//! Page geometry: base (4 KB) and large (64 KB) pages.

/// Supported page sizes.
///
/// GPUs support large pages (the paper evaluates 64 KB pages in Fig. 14);
/// large pages widen TLB reach and shorten walks by one level.
///
/// # Examples
///
/// ```
/// use walksteal_vm::PageSize;
///
/// assert_eq!(PageSize::Small4K.bytes(), 4096);
/// assert_eq!(PageSize::Large64K.bytes(), 65536);
/// assert_eq!(PageSize::Small4K.levels(), 4);
/// assert_eq!(PageSize::Large64K.levels(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KB base pages: 12-bit offset, 4 radix levels of 9 bits.
    #[default]
    Small4K,
    /// 64 KB large pages: 16-bit offset, 3 radix levels of 9 bits.
    Large64K,
}

impl PageSize {
    /// Bytes per page.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Small4K => 4096,
            PageSize::Large64K => 65536,
        }
    }

    /// Number of radix levels in the page table for this page size.
    #[must_use]
    pub fn levels(self) -> usize {
        match self {
            PageSize::Small4K => 4,
            PageSize::Large64K => 3,
        }
    }

    /// Index bits consumed per radix level.
    #[must_use]
    pub fn bits_per_level(self) -> u32 {
        9
    }

    /// Pages a page table of this size can map: 2^(9 × levels), that is
    /// 2^36 pages for 4 KB pages and 2^27 for 64 KB pages. Every VPN a
    /// table walks must lie below it.
    #[must_use]
    pub fn table_reach(self) -> u64 {
        1 << (self.bits_per_level() * self.levels() as u32)
    }

    /// Cache lines per page for `line_bytes`-byte lines.
    #[must_use]
    pub fn lines(self, line_bytes: u64) -> u64 {
        self.bytes() / line_bytes
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSize::Small4K => write!(f, "4KB"),
            PageSize::Large64K => write!(f, "64KB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(PageSize::Small4K.bytes(), 4096);
        assert_eq!(PageSize::Large64K.bytes(), 65536);
        assert_eq!(PageSize::Small4K.levels(), 4);
        assert_eq!(PageSize::Large64K.levels(), 3);
        assert_eq!(PageSize::Small4K.bits_per_level(), 9);
        assert_eq!(PageSize::Small4K.table_reach(), 1 << 36);
        assert_eq!(PageSize::Large64K.table_reach(), 1 << 27);
    }

    #[test]
    fn lines_per_page() {
        assert_eq!(PageSize::Small4K.lines(128), 32);
        assert_eq!(PageSize::Large64K.lines(128), 512);
    }

    #[test]
    fn display() {
        assert_eq!(PageSize::Small4K.to_string(), "4KB");
        assert_eq!(PageSize::Large64K.to_string(), "64KB");
    }
}
