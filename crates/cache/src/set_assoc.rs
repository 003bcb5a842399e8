//! The set-associative tag-store cache.

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// On a miss that evicted a valid line, the evicted line's base
    /// address (useful for inclusive-hierarchy modeling and tests).
    pub evicted: Option<u64>,
}

/// A set-associative cache with true-LRU replacement, modeling only the
/// tag store (no data).
///
/// Tags live in one flat `sets × ways` array; each set's resident tags
/// are the first `lens[set]` of its `ways` slots, most recently used
/// first. Set and tag come from shifts and a mask precomputed from the
/// (power-of-two) geometry.
///
/// # Example
///
/// ```
/// use tc_cache::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(2, 2, 64));
/// assert!(!c.access(0).hit);
/// assert!(c.access(0).hit);
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(line_bytes)`: strips the line offset.
    line_shift: u32,
    /// `log2(line_bytes * sets)`: strips the offset and the set bits.
    tag_shift: u32,
    /// `ways` tag slots per set, set-major.
    tags: Vec<u64>,
    /// Resident lines per set.
    lens: Vec<u32>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let line_shift = config.line_bytes.trailing_zeros();
        SetAssocCache {
            config,
            line_shift,
            tag_shift: line_shift + config.sets.trailing_zeros(),
            tags: vec![0; config.sets * config.ways],
            lens: vec![0; config.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics without disturbing contents (used to exclude
    /// warm-up from measurement).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set index and tag of `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let set = (addr >> self.line_shift) as usize & (self.config.sets - 1);
        (set, addr >> self.tag_shift)
    }

    /// The tag slots of set `si`, and how many of them are resident.
    #[inline]
    fn set_mut(&mut self, si: usize) -> (&mut [u64], usize) {
        let ways = self.config.ways;
        let len = self.lens[si] as usize;
        (&mut self.tags[si * ways..(si + 1) * ways], len)
    }

    /// Accesses the line containing `addr`, allocating it on a miss and
    /// updating LRU state and statistics.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessResult {
        let (si, tag) = self.locate(addr);
        let (line_shift, tag_shift) = (self.line_shift, self.tag_shift);
        let (set, len) = self.set_mut(si);
        if let Some(pos) = set[..len].iter().position(|&t| t == tag) {
            set.copy_within(..pos, 1);
            set[0] = tag;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }
        let full = len == set.len();
        let evicted = full.then(|| (set[len - 1] << tag_shift) | ((si as u64) << line_shift));
        let kept = if full { len - 1 } else { len };
        set.copy_within(..kept, 1);
        set[0] = tag;
        self.stats.misses += 1;
        if full {
            self.stats.evictions += 1;
        } else {
            self.lens[si] += 1;
        }
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Checks residency without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (si, tag) = self.locate(addr);
        let base = si * self.config.ways;
        self.tags[base..base + self.lens[si] as usize].contains(&tag)
    }

    /// Invalidates the line containing `addr` if resident; returns whether
    /// a line was removed.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (si, tag) = self.locate(addr);
        let (set, len) = self.set_mut(si);
        let Some(pos) = set[..len].iter().position(|&t| t == tag) else {
            return false;
        };
        set.copy_within(pos + 1..len, pos);
        self.lens[si] -= 1;
        true
    }

    /// Empties the cache, keeping statistics.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines.
        SetAssocCache::new(CacheConfig::new(2, 2, 64))
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = small();
        assert!(!c.access(0x10).hit);
        assert!(c.access(0x3f).hit); // same 64B line
        assert!(!c.access(0x40).hit); // next line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 lines: line addresses with set bits = 0: 0x000, 0x080, 0x100 (2 sets * 64B stride).
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // 0x080 is now LRU
        let r = c.access(0x100);
        assert_eq!(r.evicted, Some(0x080));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut c = small();
        c.access(0x000);
        c.access(0x080);
        let _ = c.probe(0x000); // no LRU update: 0x000 stays LRU
        let r = c.access(0x100);
        assert_eq!(r.evicted, Some(0x000));
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x0);
        assert!(c.invalidate(0x0));
        assert!(!c.probe(0x0));
        assert!(!c.invalidate(0x0));
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = small();
        c.access(0x0);
        c.access(0x40);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn eviction_address_reconstruction() {
        let cfg = CacheConfig::new(16, 2, 64);
        let mut c = SetAssocCache::new(cfg);
        let a = 0x1000;
        let b = a + cfg.sets as u64 * cfg.line_bytes;
        let d = b + cfg.sets as u64 * cfg.line_bytes;
        c.access(a);
        c.access(b);
        let r = c.access(d);
        assert_eq!(r.evicted, Some(a));
    }
}
