//! The two-level memory hierarchy of the simulated machine.

use crate::config::CacheConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;

/// Latency parameters and geometries for the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles (pipelined into fetch/execute; 1 in the
    /// paper's model).
    pub l1_latency: u32,
    /// Additional latency of an L2 hit (6 cycles in the paper).
    pub l2_latency: u32,
    /// Additional latency of an L2 miss serviced by memory (50 cycles
    /// minimum in the paper).
    pub memory_latency: u32,
}

impl HierarchyConfig {
    /// The paper's §3 hierarchy with the small 4 KB supporting i-cache
    /// (for trace-cache front ends).
    #[must_use]
    pub fn paper_trace_cache() -> HierarchyConfig {
        HierarchyConfig {
            icache: CacheConfig::paper_support_icache(),
            dcache: CacheConfig::paper_dcache(),
            l2: CacheConfig::paper_l2(),
            l1_latency: 1,
            l2_latency: 6,
            memory_latency: 50,
        }
    }

    /// The paper's §3 hierarchy with the large 128 KB instruction cache
    /// (for the icache-only reference front end).
    #[must_use]
    pub fn paper_icache_only() -> HierarchyConfig {
        HierarchyConfig {
            icache: CacheConfig::paper_big_icache(),
            ..Self::paper_trace_cache()
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig::paper_trace_cache()
    }
}

/// The latency outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessLatency {
    /// Total cycles until the data is available.
    pub cycles: u32,
    /// Whether the L1 (i- or d-) cache hit.
    pub l1_hit: bool,
    /// Whether the L2 hit (only meaningful when `l1_hit` is false).
    pub l2_hit: bool,
}

/// A two-level hierarchy: split L1 instruction/data caches over a unified
/// L2 over fixed-latency memory.
///
/// # Example
///
/// ```
/// use tc_cache::{HierarchyConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
/// let cold = mem.instruction_fetch(0x1000);
/// assert_eq!(cold.cycles, 1 + 6 + 50); // L1 miss, L2 miss, memory
/// let warm = mem.instruction_fetch(0x1000);
/// assert_eq!(warm.cycles, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    icache: SetAssocCache,
    dcache: SetAssocCache,
    l2: SetAssocCache,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            config,
            icache: SetAssocCache::new(config.icache),
            dcache: SetAssocCache::new(config.dcache),
            l2: SetAssocCache::new(config.l2),
        }
    }

    /// The hierarchy configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    #[inline]
    fn access_through(&mut self, l1_is_icache: bool, addr: u64) -> AccessLatency {
        let l1 = if l1_is_icache {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        if l1.access(addr).hit {
            return AccessLatency {
                cycles: self.config.l1_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2_hit = self.l2.access(addr).hit;
        let cycles = if l2_hit {
            self.config.l1_latency + self.config.l2_latency
        } else {
            self.config.l1_latency + self.config.l2_latency + self.config.memory_latency
        };
        AccessLatency {
            cycles,
            l1_hit: false,
            l2_hit,
        }
    }

    /// Fetches the instruction line containing byte address `addr`.
    pub fn instruction_fetch(&mut self, addr: u64) -> AccessLatency {
        self.access_through(true, addr)
    }

    /// Checks whether the instruction line containing `addr` is resident
    /// in the L1 i-cache without side effects.
    #[must_use]
    pub fn instruction_resident(&self, addr: u64) -> bool {
        self.icache.probe(addr)
    }

    /// Performs a data access (load or store; the tag-store model treats
    /// them identically).
    #[inline]
    pub fn data_access(&mut self, addr: u64) -> AccessLatency {
        self.access_through(false, addr)
    }

    /// L1 i-cache statistics.
    #[must_use]
    pub fn icache_stats(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// L1 d-cache statistics.
    #[must_use]
    pub fn dcache_stats(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Resets all statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_costs_full_memory_latency() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        let r = m.data_access(0x2000);
        assert_eq!(r.cycles, 57);
        assert!(!r.l1_hit && !r.l2_hit);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let cfg = HierarchyConfig {
            icache: CacheConfig::new(1, 1, 64), // 1-line icache
            ..HierarchyConfig::paper_trace_cache()
        };
        let mut m = MemoryHierarchy::new(cfg);
        m.instruction_fetch(0x0);
        m.instruction_fetch(0x40); // evicts 0x0 from L1, L2 keeps it
        let r = m.instruction_fetch(0x0);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.cycles, 1 + 6);
    }

    #[test]
    fn icache_and_dcache_are_split() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        m.instruction_fetch(0x3000);
        // Same address on the data side still misses L1 but hits L2.
        let r = m.data_access(0x3000);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        m.instruction_fetch(0);
        m.instruction_fetch(0);
        m.data_access(64);
        assert_eq!(m.icache_stats().accesses(), 2);
        assert_eq!(m.icache_stats().hits, 1);
        assert_eq!(m.dcache_stats().misses, 1);
        assert_eq!(m.l2_stats().accesses(), 2); // one per L1 miss
        m.reset_stats();
        assert_eq!(m.icache_stats().accesses(), 0);
    }

    #[test]
    fn instruction_resident_probe_is_pure() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        assert!(!m.instruction_resident(0x80));
        m.instruction_fetch(0x80);
        assert!(m.instruction_resident(0x80));
        assert_eq!(m.icache_stats().accesses(), 1);
    }
}
