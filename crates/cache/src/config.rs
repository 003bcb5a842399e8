//! Cache geometry configuration.

use std::fmt;

/// Geometry of one set-associative cache.
///
/// All three dimensions must be powers of two; [`CacheConfig::new`]
/// validates this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or not a power of two.
    #[must_use]
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> CacheConfig {
        assert!(
            sets.is_power_of_two(),
            "sets must be a power of two, got {sets}"
        );
        assert!(
            ways.is_power_of_two(),
            "ways must be a power of two, got {ways}"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        CacheConfig {
            sets,
            ways,
            line_bytes,
        }
    }

    /// Derives a configuration from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into power-of-two sets.
    #[must_use]
    pub fn with_capacity(total_bytes: u64, ways: usize, line_bytes: u64) -> CacheConfig {
        let sets = (total_bytes / (ways as u64 * line_bytes)) as usize;
        CacheConfig::new(sets, ways, line_bytes)
    }

    /// The 4 KB, 4-way supporting instruction cache used beside the trace
    /// cache (paper §3). 64-byte lines hold 16 four-byte instructions.
    #[must_use]
    pub fn paper_support_icache() -> CacheConfig {
        CacheConfig::with_capacity(4 * 1024, 4, 64)
    }

    /// The large 128 KB dual-ported instruction cache of the reference
    /// icache-only front end (paper §3).
    #[must_use]
    pub fn paper_big_icache() -> CacheConfig {
        CacheConfig::with_capacity(128 * 1024, 4, 64)
    }

    /// The 64 KB L1 data cache (paper §3).
    #[must_use]
    pub fn paper_dcache() -> CacheConfig {
        CacheConfig::with_capacity(64 * 1024, 4, 64)
    }

    /// The 1 MB unified second-level cache (paper §3).
    #[must_use]
    pub fn paper_l2() -> CacheConfig {
        CacheConfig::with_capacity(1024 * 1024, 8, 64)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// The line-aligned base address containing `addr`.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// The set index for `addr`.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        (addr >> self.line_bytes.trailing_zeros()) as usize & (self.sets - 1)
    }

    /// The tag for `addr` (line address with set bits removed).
    #[must_use]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.line_bytes.trailing_zeros() + self.sets.trailing_zeros())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-line",
            self.capacity_bytes() / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_round_trips() {
        let c = CacheConfig::with_capacity(4 * 1024, 4, 64);
        assert_eq!(c.sets, 16);
        assert_eq!(c.capacity_bytes(), 4 * 1024);
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(
            CacheConfig::paper_support_icache().capacity_bytes(),
            4 * 1024
        );
        assert_eq!(CacheConfig::paper_big_icache().capacity_bytes(), 128 * 1024);
        assert_eq!(CacheConfig::paper_dcache().capacity_bytes(), 64 * 1024);
        assert_eq!(CacheConfig::paper_l2().capacity_bytes(), 1024 * 1024);
    }

    #[test]
    fn addr_decomposition_is_consistent() {
        let c = CacheConfig::new(16, 4, 64);
        let addr = 0x1_2345;
        let line = c.line_of(addr);
        assert_eq!(line % 64, 0);
        assert!(addr - line < 64);
        // Same line → same set and tag.
        assert_eq!(c.set_of(addr), c.set_of(line));
        assert_eq!(c.tag_of(addr), c.tag_of(line));
        // tag||set reconstructs the line address.
        let rebuilt = (c.tag_of(addr) * c.sets as u64 + c.set_of(addr) as u64) * c.line_bytes;
        assert_eq!(rebuilt, line);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = CacheConfig::new(3, 4, 64);
    }

    #[test]
    fn display_shows_geometry() {
        assert_eq!(
            CacheConfig::paper_dcache().to_string(),
            "64KB 4-way 64B-line"
        );
    }
}
