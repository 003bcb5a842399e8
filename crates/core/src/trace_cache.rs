//! The trace cache proper: segment storage.

use tc_isa::Addr;

use crate::sanitize::{CheckSite, Sanitizer, ViolationKind};
use crate::segment::{SegEndReason, SegmentInst, TraceSegment};

/// Trace cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheConfig {
    /// Total entries (lines); the paper uses 2K (~128 KB of instruction
    /// storage at 16 4-byte instructions per line).
    pub entries: usize,
    /// Associativity; the paper uses 4.
    pub ways: usize,
    /// Path associativity: allow several segments with the same start
    /// address but different paths to coexist (`ABC` and `ABD`). The
    /// paper's machine does *not* use it (§3, citing the companion
    /// technical report); it is provided for ablation.
    pub path_assoc: bool,
}

impl TraceCacheConfig {
    /// The paper's 2K-entry, 4-way configuration (no path
    /// associativity).
    #[must_use]
    pub fn paper() -> TraceCacheConfig {
        TraceCacheConfig {
            entries: 2048,
            ways: 4,
            path_assoc: false,
        }
    }

    /// A scaled configuration with the same associativity (for the size
    /// ablation; `entries` must be a multiple of `ways` and the set count
    /// must be a power of two).
    #[must_use]
    pub fn with_entries(entries: usize) -> TraceCacheConfig {
        TraceCacheConfig {
            entries,
            ..TraceCacheConfig::paper()
        }
    }

    /// Enables path associativity.
    #[must_use]
    pub fn with_path_assoc(mut self) -> TraceCacheConfig {
        self.path_assoc = true;
        self
    }

    fn sets(&self) -> usize {
        self.entries / self.ways
    }

    fn validate(&self) {
        assert!(self.ways > 0 && self.entries >= self.ways);
        assert!(
            self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }

    /// Approximate instruction storage in bytes (16 instructions × 4
    /// bytes per line).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.entries * crate::segment::MAX_SEGMENT_INSTS * 4
    }
}

/// Hit/miss counters for the trace cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found a segment starting at the fetch address.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Segments written by the fill unit.
    pub fills: u64,
    /// Fills that displaced a valid segment.
    pub evictions: u64,
    /// Fills dropped because an identical segment was already resident.
    pub duplicate_fills: u64,
}

impl TraceCacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }
}

/// What a [`TraceCache::fill`] did to the resident contents — what a
/// tracer wants to know. Callers that only write may ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// A valid segment was displaced (LRU eviction, or a same-start
    /// replacement in the non-path-associative cache).
    pub evicted: bool,
    /// An identical resident segment absorbed the write (its recency
    /// was refreshed; nothing was rewritten).
    pub duplicate: bool,
}

impl FillOutcome {
    const DUPLICATE: FillOutcome = FillOutcome {
        evicted: false,
        duplicate: true,
    };
    const REPLACED: FillOutcome = FillOutcome {
        evicted: true,
        duplicate: false,
    };
}

/// One way's tag: the start address of the line it holds and the
/// line's slot in [`TraceCache::lines`].
#[derive(Debug, Clone, Copy)]
struct WayTag {
    start: Addr,
    line: u32,
}

/// [`WayTag::line`] of a way that has never held a line.
const NO_LINE: u32 = u32::MAX;

/// The trace cache: set-associative storage of [`TraceSegment`]s indexed
/// by start address.
///
/// Per the paper (§3) the cache has **no path associativity**: at most
/// one segment starting at a given address is resident at a time (`ABC`
/// and `ABD` cannot coexist). Fills that duplicate a resident segment
/// refresh its recency instead of writing a copy.
///
/// A line stays in its slot until a fill overwrites it. Each set keeps
/// its recency order in a small tag array (start address plus line slot,
/// eight bytes a way), so a hit or fill reorders tags, not 336-byte
/// segments, and a lookup scans the tags without touching the lines.
#[derive(Debug, Clone)]
pub struct TraceCache {
    config: TraceCacheConfig,
    /// `sets - 1` (the set count is a power of two).
    set_mask: usize,
    /// `ways` tags per set, set-major. Within a set, positions
    /// `..lens[set]` are the resident lines, most recently used first;
    /// the remaining positions keep the slots of lines the set has
    /// dropped (for reuse) or have [`NO_LINE`].
    tags: Vec<WayTag>,
    /// Resident lines per set.
    lens: Vec<u32>,
    /// Line storage, addressed by [`WayTag::line`]. A slot is appended
    /// the first time a set fills a way and is then overwritten in place,
    /// so the storage grows only to the lines ever filled (at most
    /// `entries`).
    lines: Vec<TraceSegment>,
    stats: TraceCacheStats,
}

impl TraceCache {
    /// Creates an empty trace cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`TraceCacheConfig`]).
    #[must_use]
    pub fn new(config: TraceCacheConfig) -> TraceCache {
        config.validate();
        TraceCache {
            config,
            set_mask: config.sets() - 1,
            tags: vec![
                WayTag {
                    start: Addr::new(0),
                    line: NO_LINE,
                };
                config.entries
            ],
            lens: vec![0; config.sets()],
            lines: Vec::new(),
            stats: TraceCacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &TraceCacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TraceCacheStats {
        &self.stats
    }

    fn set_index(&self, start: Addr) -> usize {
        start.index() & self.set_mask
    }

    /// The resident tags of set `si`, most recently used first.
    fn resident_tags(&self, si: usize) -> &[WayTag] {
        let base = si * self.config.ways;
        &self.tags[base..base + self.lens[si] as usize]
    }

    /// MRU-first position of the resident segment starting at `start`
    /// within its set, with no LRU or stats effects.
    fn position(&self, start: Addr) -> Option<usize> {
        self.resident_tags(self.set_index(start))
            .iter()
            .position(|t| t.start == start)
    }

    /// MRU-first position of the best-scoring segment starting at
    /// `start`. Only a *strictly* greater score displaces the running
    /// best, so ties keep the first — most recently used — candidate.
    fn best_position_by<F>(&self, start: Addr, mut score: F) -> Option<usize>
    where
        F: FnMut(&TraceSegment) -> (bool, usize),
    {
        let mut best: Option<(usize, (bool, usize))> = None;
        for (i, t) in self.resident_tags(self.set_index(start)).iter().enumerate() {
            if t.start != start {
                continue;
            }
            let s = score(&self.lines[t.line as usize]);
            match best {
                Some((_, b)) if s <= b => {}
                _ => best = Some((i, s)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Moves the tag at MRU position `pos` of set `si` to the front,
    /// shifting the more recently used ones down one, and returns its
    /// line slot.
    fn promote(&mut self, si: usize, pos: usize) -> usize {
        let base = si * self.config.ways;
        let tag = self.tags[base + pos];
        self.tags.copy_within(base..base + pos, base + 1);
        self.tags[base] = tag;
        tag.line as usize
    }

    /// Drops the resident line at MRU position `pos` of set `si`. Its
    /// slot moves just past the resident tags, for the set's next fill.
    fn remove_at(&mut self, si: usize, pos: usize) -> Addr {
        let base = si * self.config.ways;
        let len = self.lens[si] as usize;
        let tag = self.tags[base + pos];
        self.tags
            .copy_within(base + pos + 1..base + len, base + pos);
        self.tags[base + len - 1] = tag;
        self.lens[si] -= 1;
        tag.start
    }

    /// Writes the segment `insts`/`reason` into the line at MRU
    /// position `pos` of set `si` (resident or just past the resident
    /// tags) and makes it the most recently used. A slot the set held
    /// before is overwritten in place.
    fn write_at(&mut self, si: usize, pos: usize, insts: &[SegmentInst], reason: SegEndReason) {
        let slot = si * self.config.ways + pos;
        let line = self.tags[slot].line;
        let line = if line == NO_LINE {
            self.lines.push(TraceSegment::new(insts, reason));
            (self.lines.len() - 1) as u32
        } else {
            self.lines[line as usize].assign(insts, reason);
            line
        };
        self.tags[slot] = WayTag {
            start: insts[0].pc,
            line,
        };
        self.promote(si, pos);
    }

    /// Promotes the way at `pos` (from [`TraceCache::position`] or
    /// [`TraceCache::best_position_by`]) to most recently used, counts
    /// the hit, and returns the segment by reference — the second half
    /// of the find-index / LRU-touch pair the front end borrows its
    /// fetch slice from.
    fn touch(&mut self, start: Addr, pos: usize) -> &TraceSegment {
        let line = self.promote(self.set_index(start), pos);
        self.stats.hits += 1;
        &self.lines[line]
    }

    /// Looks up a segment starting at `start`, updating LRU and stats.
    /// Without path associativity at most one candidate exists; with it,
    /// the most recently used matching segment is returned (prefer
    /// [`TraceCache::lookup_best`] when predictions are available).
    pub fn lookup(&mut self, start: Addr) -> Option<&TraceSegment> {
        match self.position(start) {
            Some(pos) => Some(self.touch(start, pos)),
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up the segment starting at `start` whose embedded path best
    /// matches the supplied predictions (the selection logic of a
    /// path-associative trace cache). Ties go to the longer active
    /// match, then to the most recently used segment; LRU and stats
    /// update as in [`TraceCache::lookup`].
    pub fn lookup_best(&mut self, start: Addr, preds: &[bool]) -> Option<&TraceSegment> {
        self.lookup_best_by(start, |seg| {
            let (active, _, full) = seg.match_predictions(preds);
            (full, active)
        })
    }

    /// Like [`TraceCache::lookup_best`], but with a caller-supplied
    /// score (`(full_match, active_len)`, larger is better). Lets the
    /// front end rate each candidate path with predictor state it can
    /// only evaluate per-segment (e.g. the hybrid predictor's
    /// per-branch predictions), without materializing the candidates.
    pub fn lookup_best_by<F>(&mut self, start: Addr, score: F) -> Option<&TraceSegment>
    where
        F: FnMut(&TraceSegment) -> (bool, usize),
    {
        match self.best_position_by(start, score) {
            Some(pos) => Some(self.touch(start, pos)),
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for a resident segment without LRU or stats effects.
    #[must_use]
    pub fn probe(&self, start: Addr) -> Option<&TraceSegment> {
        self.resident_tags(self.set_index(start))
            .iter()
            .find(|t| t.start == start)
            .map(|t| &self.lines[t.line as usize])
    }

    /// Writes the segment the fill unit built from `insts`, finalized
    /// for `reason`.
    ///
    /// Without path associativity, any resident segment with the same
    /// start address is replaced (at most one path per start address);
    /// with it, distinct paths from the same start coexist. An
    /// *identical* resident segment is refreshed rather than rewritten
    /// in both modes: the resident lines are compared against `insts`
    /// before anything is written, so only a real fill copies the
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics, as [`TraceSegment::new`] does, when a written segment is
    /// empty, longer than 16 instructions, or carries more than three
    /// non-promoted conditional branches.
    pub fn fill(&mut self, insts: &[SegmentInst], reason: SegEndReason) -> FillOutcome {
        let start = insts.first().expect("trace segment cannot be empty").pc;
        let si = self.set_index(start);
        let len = self.lens[si] as usize;
        let base = si * self.config.ways;
        // Identical segments share a start, so the duplicate search only
        // visits same-start ways: all of them with path associativity;
        // without it, the first (most recently used), which a different
        // path then replaces.
        let mut same_start = None;
        for pos in 0..len {
            let tag = self.tags[base + pos];
            if tag.start != start {
                continue;
            }
            let line = &self.lines[tag.line as usize];
            if line.end_reason() == reason && line.insts() == insts {
                self.promote(si, pos);
                self.stats.duplicate_fills += 1;
                return FillOutcome::DUPLICATE;
            }
            if !self.config.path_assoc {
                same_start = Some(pos);
                break;
            }
        }
        if let Some(pos) = same_start {
            self.write_at(si, pos, insts, reason);
            self.stats.fills += 1;
            return FillOutcome::REPLACED;
        }
        let evicted = len == self.config.ways;
        if evicted {
            self.stats.evictions += 1;
            self.write_at(si, len - 1, insts, reason);
        } else {
            self.lens[si] += 1;
            self.write_at(si, len, insts, reason);
        }
        self.stats.fills += 1;
        FillOutcome {
            evicted,
            duplicate: false,
        }
    }

    /// Audits every resident segment against the structural invariants,
    /// recording violations into `sanitizer`. Without path
    /// associativity, also verifies that no two segments in a set share
    /// a start address (the storage invariant [`TraceCache::fill`]
    /// maintains).
    pub fn audit(&self, sanitizer: &mut Sanitizer) {
        if !sanitizer.enabled() {
            return;
        }
        for si in 0..self.lens.len() {
            let set = self.resident_tags(si);
            if !self.config.path_assoc {
                for (i, t) in set.iter().enumerate() {
                    let start = self.lines[t.line as usize].start();
                    if set[..i]
                        .iter()
                        .any(|x| self.lines[x.line as usize].start() == start)
                    {
                        sanitizer.record(
                            CheckSite::Audit,
                            Some(start),
                            ViolationKind::DuplicateStartAddress { start },
                        );
                    }
                }
            }
            for t in set {
                sanitizer.check_resident(&self.lines[t.line as usize]);
            }
        }
    }

    /// Number of resident segments.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Total instructions stored across resident segments — with the
    /// capacity, a measure of fragmentation (packing raises this).
    #[must_use]
    pub fn stored_instructions(&self) -> usize {
        (0..self.lens.len())
            .flat_map(|si| self.resident_tags(si))
            .map(|t| self.lines[t.line as usize].len())
            .sum()
    }

    /// Invalidates the resident line(s) starting at `start` — the
    /// quarantine action: a corrupted segment is removed so the next
    /// fetch at `start` misses to the instruction cache. Touches no
    /// statistics (quarantine is accounted separately).
    pub fn invalidate(&mut self, start: Addr) -> bool {
        let si = self.set_index(start);
        let mut removed = false;
        while let Some(pos) = self.position(start) {
            self.remove_at(si, pos);
            removed = true;
        }
        removed
    }

    /// Picks the `entropy`-th resident way, if any (deterministic given
    /// the cache contents and `entropy`), as a set and MRU position.
    fn pick_resident(&self, entropy: u64) -> Option<(usize, usize)> {
        let resident = self.resident();
        if resident == 0 {
            return None;
        }
        let mut nth = (entropy % resident as u64) as usize;
        for (si, &len) in self.lens.iter().enumerate() {
            let len = len as usize;
            if nth < len {
                return Some((si, nth));
            }
            nth -= len;
        }
        None
    }

    /// Corrupts one resident segment in place (fault-injection hook):
    /// flips an embedded branch direction, a promoted flag, or an
    /// instruction address, chosen by `entropy`. Returns the corrupted
    /// segment's start address, or `None` when the cache is empty. The
    /// sanitizer's hit/fill/audit checks are the intended detector.
    pub fn fault_corrupt(&mut self, entropy: u64) -> Option<Addr> {
        let (si, pos) = self.pick_resident(entropy)?;
        let slot = si * self.config.ways + pos;
        let segment = &mut self.lines[self.tags[slot].line as usize];
        let start = segment.start();
        corrupt(segment, entropy);
        // The tag follows the line: a rewritten first PC re-tags it, in
        // the set it already occupies.
        self.tags[slot].start = segment.start();
        Some(start)
    }

    /// Silently drops one resident line (fault-injection hook): models
    /// state loss without corruption. Architecturally invisible — the
    /// next fetch simply misses. Returns the evicted start address.
    /// Touches no statistics.
    pub fn fault_evict(&mut self, entropy: u64) -> Option<Addr> {
        let (si, pos) = self.pick_resident(entropy)?;
        Some(self.remove_at(si, pos))
    }
}

/// Flips one embedded branch direction, promoted flag or instruction
/// address of `segment`, chosen by `entropy` (see
/// [`TraceCache::fault_corrupt`]); the segment predecodes its masks
/// again after the edit.
fn corrupt(segment: &mut TraceSegment, entropy: u64) {
    segment.edit(|insts| {
        let i = ((entropy >> 8) % insts.len() as u64) as usize;
        match (entropy >> 16) % 3 {
            0 => insts[i].taken = !insts[i].taken,
            1 => {
                insts[i].promoted = match insts[i].promoted {
                    Some(dir) => Some(!dir),
                    None => Some(true),
                };
            }
            _ => insts[i].pc = Addr::new(insts[i].pc.raw() ^ 1 ^ ((entropy >> 24) as u32 & 0xff)),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegEndReason, SegmentInst, SlotMasks};
    use tc_isa::{Cond, Instr, Reg};

    fn seg(start: u32, len: usize) -> TraceSegment {
        let insts: Vec<SegmentInst> = (0..len)
            .map(|i| SegmentInst {
                pc: Addr::new(start + i as u32),
                instr: Instr::Nop,
                taken: false,
                promoted: None,
            })
            .collect();
        TraceSegment::new(&insts, SegEndReason::AtomicBlock)
    }

    /// Fills `tc` with a copy of `seg`'s instructions.
    pub(super) fn fill(tc: &mut TraceCache, seg: &TraceSegment) -> FillOutcome {
        tc.fill(seg.insts(), seg.end_reason())
    }

    fn small_cache() -> TraceCache {
        TraceCache::new(TraceCacheConfig {
            entries: 8,
            ways: 2,
            path_assoc: false,
        })
    }

    #[test]
    fn paper_geometry() {
        let c = TraceCacheConfig::paper();
        assert_eq!(c.entries, 2048);
        assert_eq!(c.storage_bytes(), 128 * 1024);
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut tc = small_cache();
        fill(&mut tc, &seg(0x40, 5));
        assert!(tc.lookup(Addr::new(0x40)).is_some());
        assert!(tc.lookup(Addr::new(0x44)).is_none());
        assert_eq!(tc.stats().hits, 1);
        assert_eq!(tc.stats().misses, 1);
    }

    #[test]
    fn no_path_associativity() {
        let mut tc = small_cache();
        fill(&mut tc, &seg(0x10, 4));
        fill(&mut tc, &seg(0x10, 7)); // different path from the same start
        assert_eq!(tc.resident(), 1, "one segment per start address");
        assert_eq!(tc.probe(Addr::new(0x10)).unwrap().len(), 7);
    }

    #[test]
    fn duplicate_fill_refreshes_instead_of_writing() {
        let mut tc = small_cache();
        fill(&mut tc, &seg(0x10, 4));
        fill(&mut tc, &seg(0x10, 4));
        assert_eq!(tc.stats().fills, 1);
        assert_eq!(tc.stats().duplicate_fills, 1);
    }

    /// A duplicate is the same instructions finalized for the same
    /// reason; the same instructions ended differently are a new path.
    #[test]
    fn duplicate_fill_needs_the_same_end_reason() {
        let mut tc = small_cache();
        let s = seg(0x10, 4);
        tc.fill(s.insts(), SegEndReason::AtomicBlock);
        let outcome = tc.fill(s.insts(), SegEndReason::Packed);
        assert!(!outcome.duplicate && outcome.evicted, "same start replaced");
        assert_eq!(tc.stats().duplicate_fills, 0);
        assert_eq!(
            tc.probe(Addr::new(0x10)).unwrap().end_reason(),
            SegEndReason::Packed
        );
    }

    /// A fill writes only well-formed segments, as `TraceSegment::new`
    /// builds only well-formed ones.
    #[test]
    #[should_panic(expected = "trace segment over 16 instructions")]
    fn fill_refuses_an_oversized_segment() {
        let long = seg(0, 16);
        let mut insts = long.insts().to_vec();
        insts.push(insts[15]);
        small_cache().fill(&insts, SegEndReason::MaxSize);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tc = small_cache(); // 4 sets, 2 ways
                                    // Three segments mapping to set 0 (addresses multiple of 4).
        fill(&mut tc, &seg(0, 3));
        fill(&mut tc, &seg(4, 3));
        tc.lookup(Addr::new(0)); // refresh 0
        fill(&mut tc, &seg(8, 3)); // evicts 4
        assert!(tc.probe(Addr::new(0)).is_some());
        assert!(tc.probe(Addr::new(4)).is_none());
        assert!(tc.probe(Addr::new(8)).is_some());
        assert_eq!(tc.stats().evictions, 1);
    }

    /// The masks recounted from the instructions, slot by slot.
    fn recount(seg: &TraceSegment) -> SlotMasks {
        let bits = |pick: &dyn Fn(&SegmentInst) -> bool| {
            let picked = seg.insts().iter().enumerate().filter(|(_, si)| pick(si));
            picked.fold(0u16, |m, (i, _)| m | 1 << i)
        };
        SlotMasks {
            cond: bits(&|si| si.instr.is_cond_branch()),
            dynamic: bits(&|si| si.instr.is_cond_branch() && si.promoted.is_none()),
            taken: bits(&|si| si.taken),
            promoted: bits(&|si| si.promoted.is_some()),
            promoted_taken: bits(&|si| si.promoted == Some(true)),
            call: bits(&|si| matches!(si.instr, Instr::Call { .. } | Instr::CallInd { .. })),
        }
    }

    /// Every control kind, taken and not, promoted both ways.
    fn mixed_insts() -> Vec<SegmentInst> {
        let branch = Instr::Branch {
            cond: Cond::Ne,
            rs1: Reg::T0,
            rs2: Reg::T1,
            target: Addr::new(40),
        };
        let kinds = [
            (Instr::Nop, false, None),
            (branch, true, None),
            (branch, false, Some(false)),
            (
                Instr::Call {
                    target: Addr::new(7),
                },
                false,
                None,
            ),
            (branch, true, Some(true)),
            (
                Instr::Jump {
                    target: Addr::new(9),
                },
                false,
                None,
            ),
            (branch, false, None),
            (Instr::CallInd { base: Reg::T2 }, false, None),
        ];
        (0..)
            .zip(kinds)
            .map(|(pc, (instr, taken, promoted))| SegmentInst {
                pc: Addr::new(pc),
                instr,
                taken,
                promoted,
            })
            .collect()
    }

    /// The predecoded masks agree with a recount after `new`, `assign`
    /// and each of `corrupt`'s three edits at every slot.
    #[test]
    fn masks_match_a_recount() {
        let insts = mixed_insts();
        let mut seg = TraceSegment::new(&insts, SegEndReason::MaxBranches);
        assert_eq!(seg.masks(), recount(&seg));
        assert_eq!(seg.masks().dynamic.count_ones(), 2);
        seg.assign(&insts[1..5], SegEndReason::Packed);
        assert_eq!(seg.masks(), recount(&seg));
        seg.assign(&insts, SegEndReason::MaxBranches);
        for mode in 0..3u64 {
            for slot in 0..insts.len() as u64 {
                let mut edited = seg.clone();
                corrupt(&mut edited, mode << 16 | slot << 8 | 0x5a << 24);
                assert_ne!(edited.insts(), seg.insts(), "mode {mode} slot {slot}");
                assert_eq!(edited.masks(), recount(&edited), "mode {mode} slot {slot}");
            }
        }
    }

    #[test]
    fn stored_instructions_tracks_fragmentation() {
        let mut tc = small_cache();
        fill(&mut tc, &seg(0, 16));
        fill(&mut tc, &seg(1, 8));
        assert_eq!(tc.stored_instructions(), 24);
    }
}

#[cfg(test)]
mod path_assoc_tests {
    use super::tests::fill;
    use super::*;
    use crate::segment::{SegEndReason, SegmentInst};
    use tc_isa::{Cond, Instr, Reg};

    /// A 3-instruction segment starting at `start` whose branch at
    /// `start+1` embeds direction `taken`.
    fn seg_with_branch(start: u32, taken: bool) -> TraceSegment {
        seg_with_branch_promoted(start, taken, None)
    }

    /// Like [`seg_with_branch`], with control over the branch's
    /// promotion bit.
    fn seg_with_branch_promoted(start: u32, taken: bool, promoted: Option<bool>) -> TraceSegment {
        let insts = [
            SegmentInst {
                pc: Addr::new(start),
                instr: Instr::Nop,
                taken: false,
                promoted: None,
            },
            SegmentInst {
                pc: Addr::new(start + 1),
                instr: Instr::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(start + 10),
                },
                taken,
                promoted,
            },
            SegmentInst {
                pc: Addr::new(if taken { start + 10 } else { start + 2 }),
                instr: Instr::Nop,
                taken: false,
                promoted: None,
            },
        ];
        TraceSegment::new(&insts, SegEndReason::MaxBranches)
    }

    #[test]
    fn path_associativity_keeps_both_paths() {
        let cfg = TraceCacheConfig {
            entries: 8,
            ways: 4,
            path_assoc: true,
        };
        let mut tc = TraceCache::new(cfg);
        fill(&mut tc, &seg_with_branch(0x10, true));
        fill(&mut tc, &seg_with_branch(0x10, false));
        assert_eq!(tc.resident(), 2, "both paths coexist");
        // lookup_best selects by prediction.
        let taken_hit = tc.lookup_best(Addr::new(0x10), &[true]).expect("hit");
        assert!(taken_hit.insts()[1].taken);
        let nt_hit = tc.lookup_best(Addr::new(0x10), &[false]).expect("hit");
        assert!(!nt_hit.insts()[1].taken);
    }

    #[test]
    fn without_path_assoc_second_path_replaces_first() {
        let mut tc = TraceCache::new(TraceCacheConfig {
            entries: 8,
            ways: 4,
            path_assoc: false,
        });
        fill(&mut tc, &seg_with_branch(0x10, true));
        fill(&mut tc, &seg_with_branch(0x10, false));
        assert_eq!(tc.resident(), 1);
        assert!(!tc.probe(Addr::new(0x10)).unwrap().insts()[1].taken);
    }

    /// When two resident paths score identically, `lookup_best` must
    /// return the most recently used one (as its doc promises) — the
    /// first maximum in MRU-first order, not the last.
    #[test]
    fn lookup_best_breaks_score_ties_toward_mru() {
        let cfg = TraceCacheConfig {
            entries: 8,
            ways: 4,
            path_assoc: true,
        };
        let mut tc = TraceCache::new(cfg);
        // Both branches promoted: match_predictions consumes nothing, so
        // both candidates score (full=true, active=3) for any preds.
        fill(&mut tc, &seg_with_branch_promoted(0x10, true, Some(true)));
        fill(&mut tc, &seg_with_branch_promoted(0x10, false, Some(false)));
        assert_eq!(tc.resident(), 2, "distinct paths coexist");
        // The second fill is the more recently used.
        let hit = tc.lookup_best(Addr::new(0x10), &[true]).expect("hit");
        assert!(
            !hit.insts()[1].taken,
            "tie must resolve to the MRU segment (the second fill)"
        );
    }

    #[test]
    fn path_assoc_duplicate_fill_refreshes() {
        let cfg = TraceCacheConfig {
            entries: 8,
            ways: 4,
            path_assoc: true,
        };
        let mut tc = TraceCache::new(cfg);
        fill(&mut tc, &seg_with_branch(0x10, true));
        fill(&mut tc, &seg_with_branch(0x10, false));
        fill(&mut tc, &seg_with_branch(0x10, true)); // identical to the first
        assert_eq!(tc.resident(), 2);
        assert_eq!(tc.stats().duplicate_fills, 1);
    }
}
