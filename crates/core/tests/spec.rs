//! A specification model of the paper's fetch mechanism, written from
//! PAPER.md §1 and DESIGN.md §5 with plain `Vec`s: the bias table, the
//! fill unit, one LRU set store, the trace cache, and the trace-cache
//! fetch body. `FrontEnd::retire` is driven against it on the retire
//! streams of every workload, `FrontEnd::fetch` and `fetch_next` at the
//! lines those streams leave resident, and `TraceCache` and
//! `SetAssocCache` on seeded operation sequences. Where the paper leaves
//! a choice open, the model makes the one that DESIGN.md §5 pins; one
//! departs from the paper (`Bias::update`).

use std::collections::BTreeMap;
use std::mem::take;

use tc_cache::{
    AccessResult, CacheConfig, CacheStats, HierarchyConfig, MemoryHierarchy, SetAssocCache,
};
use tc_core::{
    FetchBundle, FetchOrigin, FetchStep, FillOutcome, FillStats, FrontEnd, FrontEndConfig, NextPc,
    PackingPolicy, PredictorChoice, SegEndReason, SegmentInst, StaticPromotionTable,
    TerminationReason, TraceCache, TraceCacheConfig, TraceCacheStats, TraceSegment,
};
use tc_isa::{Addr, Cond, ControlKind, ExecRecord, Instr, Reg};
use tc_predict::{
    BiasConfig, GlobalHistory, HybridPrediction, HybridPredictor, IndirectPredictor,
    MultiPredictor, ReturnStack, SplitMultiPredictor,
};
use tc_trace::{DemotionCause, FaultLocus, PackVerdict as V, RingTracer, TraceEvent};
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::{Workload, WorkloadId};
use PackingPolicy::{Atomic, Chunk, CostRegulated, Unregulated};

type Segment = (Vec<SegmentInst>, SegEndReason);

/// Set-associative storage with true LRU: each set a list of lines,
/// most recently used first.
struct Sets<T> {
    ways: usize,
    sets: Vec<Vec<T>>,
}

impl<T: Clone> Sets<T> {
    fn new(sets: usize, ways: usize) -> Sets<T> {
        let sets = vec![Vec::new(); sets];
        Sets { ways, sets }
    }

    /// Makes `line` the most recently used of its set, evicting the
    /// least recently used line of a full set.
    fn insert(&mut self, set: usize, line: T) -> Option<T> {
        let lines = &mut self.sets[set];
        let victim = (lines.len() == self.ways).then(|| lines.pop()).flatten();
        lines.insert(0, line);
        victim
    }

    /// Drops the lines of `set` that `dead` picks; true if there were.
    fn drop_where(&mut self, set: usize, dead: impl Fn(&T) -> bool) -> bool {
        let before = self.sets[set].len();
        self.sets[set].retain(|l| !dead(l));
        self.sets[set].len() < before
    }

    /// The `entropy % resident`-th line, counting sets in index order
    /// and each set MRU first (the fault pick order).
    fn pick(&self, entropy: u64) -> Option<(usize, usize)> {
        let n = entropy % self.resident().max(1) as u64;
        let sets = self.sets.iter().enumerate();
        let mut lines = sets.flat_map(|(s, l)| (0..l.len()).map(move |p| (s, p)));
        lines.nth(n as usize)
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Clone, Copy, Default)]
struct BiasEntry {
    tag: u64,
    dir: bool,
    count: u32,
    promoted: Option<bool>,
}

/// The branch bias table (§4, Figure 5) and its configuration.
struct Bias(BiasConfig, Vec<Option<BiasEntry>>);

impl Bias {
    /// Trains the entry of the branch at `pc` with one outcome and
    /// returns its promoted direction afterwards.
    fn update(&mut self, pc: Addr, taken: bool, events: &mut Vec<TraceEvent>) -> Option<bool> {
        // Indexed and tagged by byte address (CHANGES.md, FOUND: "the bias table
        // uses a quarter of its entries").
        let Bias(config, entries) = self;
        let n = config.entries as u64;
        let (index, tag) = (pc.byte_addr() % n, pc.byte_addr() / n);
        let tag = if config.tagged { tag } else { 0 };
        let slot = &mut entries[index as usize];
        if !slot.is_some_and(|e| e.tag == tag) {
            // A miss demotes the entry it displaces, which is not
            // counted as a demotion, and the new entry does not promote.
            if let Some(old) = slot.filter(|e| e.promoted.is_some()) {
                let pc = Addr::new(((old.tag * n + index) / Addr::INSTR_BYTES) as u32);
                let cause = DemotionCause::Evicted;
                events.push(TraceEvent::Demotion { pc, cause });
            }
            let e = slot.insert(BiasEntry::default());
            (e.tag, e.dir, e.count) = (tag, taken, 1);
            return None;
        }
        let e = slot.as_mut()?;
        e.count = if e.dir == taken { e.count + 1 } else { 1 };
        e.count = e.count.min((1 << config.counter_bits) - 1);
        e.dir = taken;
        if e.promoted.is_some_and(|p| p != taken) && e.count >= 2 {
            e.promoted = None;
            let cause = DemotionCause::ConsecutiveOpposite;
            events.push(TraceEvent::Demotion { pc, cause });
        }
        // The demoting outcome itself may re-promote.
        if e.promoted.is_none() && e.count >= config.threshold {
            e.promoted = Some(taken);
            events.push(TraceEvent::Promotion { pc, dir: taken });
        }
        e.promoted
    }
}

/// The fill unit (§3–§5): blocks of the retired stream merged into
/// segments of at most 16 instructions and 3 non-promoted branches.
#[derive(Default)]
struct Fill {
    /// The promotion source: a bias table, a static table or neither.
    bias: Option<Bias>,
    table: Option<StaticPromotionTable>,
    pending: Vec<SegmentInst>,
    block: Vec<SegmentInst>,
    finalized: Vec<Segment>,
    stats: FillStats,
    /// Bias-table transitions, packing verdicts and finalizes.
    events: Vec<TraceEvent>,
}

impl Fill {
    fn retire(&mut self, rec: &ExecRecord, policy: PackingPolicy) {
        let (ends_segment, cond) = (rec.control_kind().ends_segment(), rec.is_cond_branch());
        let dir = match (&mut self.bias, &self.table) {
            (Some(bias), _) if cond => bias.update(rec.pc, rec.taken, &mut self.events),
            (_, Some(table)) if cond => table.decision(rec.pc),
            _ => None,
        };
        // Only an instance that follows its promoted direction is promoted.
        let mut si = SegmentInst::default();
        (si.pc, si.instr, si.taken) = (rec.pc, rec.instr, rec.taken);
        si.promoted = dir.filter(|&d| d == rec.taken);
        self.block.push(si);
        // A block reaching 16 instructions closes as if it ended there.
        if ends_segment || (cond && si.promoted.is_none()) || self.block.len() == 16 {
            self.merge(ends_segment, policy);
        }
    }

    /// How many instructions of a block that overflows the pending
    /// segment's `space` the policy packs into it (§5), and why.
    fn split(&self, space: usize, policy: PackingPolicy) -> (usize, V) {
        // A tight loop: a branch 1–32 instructions after its target.
        let tight = |si: &SegmentInst| match si.instr {
            Instr::Branch { target, .. } => (1..=32).contains(&si.pc.distance_from(target)),
            _ => false,
        };
        match policy {
            Atomic => (0, V::AtomicPolicy),
            Unregulated => (space, V::Unregulated),
            Chunk(n) if space < n => (0, V::ChunkTooSmall),
            Chunk(n) => (space / n * n, V::ChunkFit),
            CostRegulated if 2 * space >= self.pending.len() => (space, V::SpareCapacity),
            CostRegulated if self.pending.iter().any(tight) => (space, V::TightLoop),
            CostRegulated => (0, V::CostRefused),
        }
    }

    fn merge(&mut self, ends_segment: bool, policy: PackingPolicy) {
        let mut block = take(&mut self.block);
        let (space, len) = (16 - self.pending.len(), block.len() as u8);
        if block.len() > space {
            // A refused split closes the segment atomic; a performed one full or packed.
            let (head, verdict) = self.split(space, policy);
            self.events.push(match head as u8 {
                0 => TraceEvent::PackRefused {
                    pending: self.pending.len() as u8,
                    block: len,
                    verdict,
                },
                head => TraceEvent::PackPerformed {
                    head,
                    tail: len - head,
                    verdict,
                },
            });
            self.stats.splits_refused += u64::from(head == 0);
            self.stats.blocks_split += u64::from(head > 0);
            self.pending.extend(block.drain(..head));
            self.finalize(match (head, self.pending.len()) {
                (0, _) => SegEndReason::AtomicBlock,
                (_, 16) => SegEndReason::MaxSize,
                _ => SegEndReason::Packed,
            });
        }
        self.pending.extend(block);
        if ends_segment {
            self.finalize(SegEndReason::RetIndTrap);
        } else if self.pending.len() == 16 {
            self.finalize(SegEndReason::MaxSize);
        } else if self.pending.iter().filter(|i| i.needs_prediction()).count() == 3 {
            self.finalize(SegEndReason::MaxBranches);
        }
    }

    fn finalize(&mut self, reason: SegEndReason) {
        let insts = take(&mut self.pending);
        let (start, len) = (insts[0].pc, insts.len() as u8);
        let promoted = insts.iter().filter(|i| i.promoted.is_some()).count() as u8;
        let dynamic_branches = insts.iter().filter(|i| i.needs_prediction()).count() as u8;
        self.events.push(TraceEvent::FillFinalize {
            start,
            len,
            dynamic_branches,
            promoted,
            reason,
        });
        let s = &mut self.stats;
        s.segments += 1;
        s.segment_insts += u64::from(len);
        s.promoted_embedded += u64::from(promoted);
        s.dynamic_embedded += u64::from(dynamic_branches);
        self.finalized.push((insts, reason));
    }

    /// The stalled-fill fault: the pending segment and open block go.
    fn drop_pending(&mut self) -> bool {
        take(&mut self.pending).len() + take(&mut self.block).len() > 0
    }
}

fn start(seg: &Segment) -> Addr {
    seg.0[0].pc
}

/// The trace cache (§3): segments in sets indexed by start address.
struct Tc {
    path_assoc: bool,
    lines: Sets<Segment>,
    stats: TraceCacheStats,
}

impl Tc {
    fn new(config: TraceCacheConfig) -> Tc {
        Tc {
            path_assoc: config.path_assoc,
            lines: Sets::new(config.entries / config.ways, config.ways),
            stats: TraceCacheStats::default(),
        }
    }

    fn set(&self, start: Addr) -> usize {
        start.index() % self.lines.sets.len()
    }

    fn probe(&self, pc: Addr) -> Option<&Segment> {
        let lines = &self.lines.sets[self.set(pc)];
        lines.iter().find(|s| start(s) == pc)
    }

    /// A lookup; with predictions, of the line whose path best matches
    /// them (a full match, then the longest active prefix, then the MRU).
    /// Each non-promoted branch takes the next prediction, not-taken once
    /// they run out; the active prefix ends at the first mispredicted one.
    fn lookup(&mut self, pc: Addr, preds: Option<&[bool]>) -> Option<Segment> {
        let set = self.set(pc);
        let score = |s: &Segment| {
            let Some(preds) = preds else { return (true, 0) };
            let mut preds = preds.iter().copied().chain(std::iter::repeat(false));
            match (s.0.iter()).position(|i| i.needs_prediction() && preds.next() != Some(i.taken)) {
                Some(i) => (false, i + 1),
                None => (true, s.0.len()),
            }
        };
        // Of equal scores `max_by_key` keeps the last: reversed, the MRU.
        let lines = self.lines.sets[set].iter().enumerate().rev();
        let best = lines.filter(|(_, s)| start(s) == pc);
        let Some((pos, _)) = best.max_by_key(|(_, s)| score(s)) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let seg = self.lines.sets[set].remove(pos);
        self.lines.insert(set, seg.clone());
        Some(seg)
    }

    /// A fill identical to a resident line (instructions and end
    /// reason) only refreshes it. Without path associativity a new path
    /// from a resident start replaces that line; with it, the new path
    /// takes the LRU way. The filled line becomes the most recently used.
    fn fill(&mut self, seg: Segment) -> FillOutcome {
        let (set, path_assoc) = (self.set(start(&seg)), self.path_assoc);
        let same = |s: &Segment| *s == seg || (!path_assoc && start(s) == start(&seg));
        let lines = &mut self.lines.sets[set];
        let old = lines.iter().position(same).map(|pos| lines.remove(pos));
        let duplicate = old.as_ref() == Some(&seg);
        let victim = self.lines.insert(set, seg).is_some();
        self.stats.duplicate_fills += u64::from(duplicate);
        self.stats.fills += u64::from(!duplicate);
        self.stats.evictions += u64::from(victim);
        let evicted = victim || (old.is_some() && !duplicate);
        FillOutcome { evicted, duplicate }
    }

    /// Drops every line starting at `pc`.
    fn invalidate(&mut self, pc: Addr) -> bool {
        self.lines.drop_where(self.set(pc), |s| start(s) == pc)
    }

    /// Flips one embedded direction, promoted flag or address. The line
    /// keeps its way and is tagged with its new first PC.
    fn corrupt(&mut self, entropy: u64) -> Option<Addr> {
        let (set, pos) = self.lines.pick(entropy)?;
        let insts = &mut self.lines.sets[set][pos].0;
        let (was, len) = (insts[0].pc, insts.len() as u64);
        let i = &mut insts[((entropy >> 8) % len) as usize];
        match (entropy >> 16) % 3 {
            0 => i.taken = !i.taken,
            1 => i.promoted = Some(!i.promoted.unwrap_or(false)),
            _ => i.pc = Addr::new(i.pc.raw() ^ 1 ^ ((entropy >> 24) as u32 & 0xff)),
        }
        Some(was)
    }

    fn evict(&mut self, entropy: u64) -> Option<Addr> {
        let (set, pos) = self.lines.pick(entropy)?;
        Some(start(&self.lines.sets[set].remove(pos)))
    }
}

/// What the streams exercised, by event kind (demotions by cause).
type Coverage = BTreeMap<&'static str, u64>;

/// `FrontEnd::retire` with a 64-entry trace cache against the model, on
/// `stream` under `policy`, with no promotion, a small bias table or a
/// static table (by `seed % 3`) and stalled-fill faults at seeded steps.
/// After every retire the events, segments and statistics must agree.
fn check(name: &str, stream: &[ExecRecord], seed: u64, policy: PackingPolicy, cov: &mut Coverage) {
    let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
    // Small tables with low thresholds promote, demote and evict often.
    let bias = (seed % 3 == 1).then(|| BiasConfig {
        entries: [16, 64, 256][r.gen_range(0usize..3)],
        threshold: r.gen_range(2u32..9),
        counter_bits: 4,
        tagged: r.gen_bool(0.5),
    });
    // A static table: each branch of the first half as it last went.
    let table = (seed % 3 == 2).then(|| {
        let mut table = StaticPromotionTable::new();
        let first_half = &stream[..stream.len() / 2];
        for rec in first_half.iter().filter(|r| r.is_cond_branch()) {
            table.insert(rec.pc, rec.taken);
        }
        table
    });
    let drop_rate = [0.0, 0.002, 0.02][r.gen_range(0usize..3)];
    let tc_config = TraceCacheConfig::with_entries(64);
    let config = FrontEndConfig {
        trace_cache: Some(tc_config),
        packing: policy,
        promotion: bias,
        sanitize: true,
        ..FrontEndConfig::baseline()
    };
    let tracer = RingTracer::new(4 * stream.len());
    let mut fe = match table.clone() {
        Some(table) => FrontEnd::with_static_promotion_and_tracer(config, table, tracer),
        None => FrontEnd::with_tracer(config, tracer),
    };
    let mut fill = Fill {
        bias: bias.map(|config| Bias(config, vec![None; config.entries])),
        table,
        ..Fill::default()
    };
    let (mut tc, mut seen) = (Tc::new(tc_config), Coverage::new());
    let at = format!("{name}, seed {seed:#x}, {policy}");
    for (step, rec) in stream.iter().enumerate() {
        let before = fe.tracer().records().len();
        fe.retire(rec);
        fill.retire(rec, policy);
        let mut want = vec![TraceEvent::Retire { pc: rec.pc }];
        want.append(&mut fill.events);
        let finalized = take(&mut fill.finalized);
        for seg in finalized.iter().cloned() {
            let (start, len) = (start(&seg), seg.0.len() as u8);
            let FillOutcome { evicted, duplicate } = tc.fill(seg);
            want.push(TraceEvent::TcFill {
                start,
                len,
                evicted,
                duplicate,
            });
        }
        if r.gen_bool(drop_rate) {
            let landed = fe.inject(FaultLocus::FillStall, 0);
            assert_eq!(landed, fill.drop_pending(), "{at}, step {step}");
            let (locus, pc) = (FaultLocus::FillStall, Addr::new(0));
            want.extend(landed.then_some(TraceEvent::FaultInjected { locus, pc }));
        }
        let records = &fe.tracer().records()[before..];
        let got: Vec<_> = records.iter().map(|r| r.event).collect();
        assert_eq!(got, want, "{at}, step {step}");
        let unit = fe.fill_unit().expect("configured");
        let segments: Vec<Segment> = unit.finalized().map(|(i, r)| (i.to_vec(), r)).collect();
        let tc_stats = *fe.trace_cache().expect("configured").stats();
        let got = (segments, *unit.stats(), unit.pending_len(), tc_stats);
        // Demotions by cause: a displaced promoted entry is no demotion.
        for e in &want {
            let key = match e {
                TraceEvent::Demotion { cause, .. } => cause.label(),
                e => e.kind().name(),
            };
            *seen.entry(key).or_default() += 1;
        }
        let pending = fill.pending.len() + fill.block.len();
        let want = (finalized, fill.stats, pending, tc.stats);
        assert_eq!(got, want, "{at}, step {step}");
    }
    assert_eq!(fe.tracer().dropped(), 0, "{at}");
    assert_eq!(fe.sanitizer().stats().errors, 0, "{at}");
    let count = |key| seen.get(key).copied().unwrap_or(0);
    if let Some(bias) = fe.fill_unit().and_then(|f| f.bias_table()) {
        let want = (count("promotion"), count("consecutive_opposite"));
        assert_eq!((bias.promotions(), bias.demotions()), want, "{at}");
    }
    let real = fe.trace_cache().expect("configured");
    for rec in stream {
        let got = real.probe(rec.pc).map(owned);
        assert_eq!(got.as_ref(), tc.probe(rec.pc), "{at}: line {:?}", rec.pc);
    }
    assert_eq!(real.resident(), tc.lines.resident(), "{at}");
    seen.insert("promoted", fill.stats.promoted_embedded);
    seen.insert("tc evictions", tc.stats.evictions);
    for (key, n) in seen {
        *cov.entry(key).or_default() += n;
    }
}

/// 6,000 retired instructions of every workload under every packing
/// policy and promotion source.
#[test]
fn front_end_fill_path_follows_the_spec() {
    assert_eq!(WorkloadId::all().len(), 25);
    let mut cov = Coverage::new();
    for (wi, workload) in WorkloadId::all()
        .into_iter()
        .map(WorkloadId::build)
        .enumerate()
    {
        for src in 0..3 {
            let seed = 0xF11D_0000 + ((wi as u64) << 8) + src;
            let skip = Xoshiro256PlusPlus::seed_from_u64(seed).gen_range(0usize..20_000);
            let stream: Vec<_> = workload.interpreter().skip(skip).take(6_000).collect();
            for policy in [Atomic, Unregulated, Chunk(2), Chunk(4), CostRegulated] {
                check(workload.name(), &stream, seed, policy, &mut cov);
            }
        }
    }
    // The streams exercise every rule, not just the empty paths.
    for (key, floor) in [
        ("fill_finalize", 10_000),
        ("promoted", 1_000),
        ("pack_performed", 1_000),
        ("pack_refused", 100),
        ("fault_injected", 20),
        ("consecutive_opposite", 0),
        ("evicted", 0),
        ("tc evictions", 0),
    ] {
        assert!(cov[key] > floor, "{cov:?}");
    }
}

fn owned(seg: &TraceSegment) -> Segment {
    (seg.insts().to_vec(), seg.end_reason())
}

/// A segment from a small alphabet, so fills repeat, share starts and
/// conflict in sets: 1–4 instructions from one of 24 starts, the second
/// a conditional branch, maybe promoted, and one of two end reasons.
fn arb_segment(r: &mut Xoshiro256PlusPlus) -> Segment {
    let start = r.gen_range(0u32..24);
    let mut insts = vec![SegmentInst::default(); r.gen_range(1..5)];
    for (pc, inst) in (start..).zip(&mut insts) {
        inst.pc = Addr::new(pc);
    }
    if let Some(branch) = insts.get_mut(1) {
        branch.instr = Instr::Branch {
            cond: Cond::Eq,
            rs1: Reg::T0,
            rs2: Reg::T1,
            target: Addr::new(start + 10),
        };
        branch.taken = r.gen_bool(0.5);
        branch.promoted = r.gen_bool(0.3).then(|| r.gen_bool(0.5));
    }
    use SegEndReason::{MaxBranches, Packed};
    (insts, if r.gen_bool(0.8) { MaxBranches } else { Packed })
}

/// One seeded operation sequence on the trace cache and the model;
/// returns the evictions and the fills that displaced a line.
fn run_trace_cache(config: TraceCacheConfig, seed: u64) -> (u64, u64) {
    let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
    let (mut tc, mut spec, mut displaced) = (TraceCache::new(config), Tc::new(config), 0);
    for step in 0..400 {
        let pc = Addr::new(r.gen_range(0..26));
        let (entropy, op) = (r.next_u64(), r.gen_range(0..100));
        let at = format!("{config:?} seed {seed:#x} step {step} op {op}");
        match op {
            0..=39 => {
                let seg = arb_segment(&mut r);
                let got = tc.fill(&seg.0, seg.1);
                assert_eq!(got, spec.fill(seg), "{at}");
                displaced += u64::from(got.evicted);
            }
            40..=59 => assert_eq!(tc.lookup(pc).map(owned), spec.lookup(pc, None), "{at}"),
            60..=74 => {
                let preds: Vec<bool> = (0..r.gen_range(0..4)).map(|_| r.gen_bool(0.5)).collect();
                let got = tc.lookup_best(pc, &preds).map(owned);
                assert_eq!(got, spec.lookup(pc, Some(&preds)), "{at}");
            }
            75..=84 => assert_eq!(tc.invalidate(pc), spec.invalidate(pc), "{at}"),
            85..=92 => assert_eq!(tc.fault_corrupt(entropy), spec.corrupt(entropy), "{at}"),
            _ => assert_eq!(tc.fault_evict(entropy), spec.evict(entropy), "{at}"),
        }
        assert_eq!(*tc.stats(), spec.stats, "{at}");
        for pc in (0..256).map(Addr::new) {
            assert_eq!(tc.probe(pc).map(owned).as_ref(), spec.probe(pc), "{at}");
        }
        let stored: usize = spec.lines.sets.iter().flatten().map(|s| s.0.len()).sum();
        assert_eq!(tc.stored_instructions(), stored, "{at}");
    }
    (spec.stats.evictions, displaced)
}

#[test]
fn trace_cache_operations_follow_the_spec() {
    let (mut evictions, mut displaced) = (0, 0);
    for (ways, path_assoc) in [1, 2, 4].into_iter().flat_map(|w| [(w, false), (w, true)]) {
        let mut config = TraceCacheConfig::with_entries(4 * ways);
        (config.ways, config.path_assoc) = (ways, path_assoc);
        for seed in 0..40 {
            let (e, d) = run_trace_cache(config, 0x7CAC_0000 + seed);
            (evictions, displaced) = (evictions + e, displaced + d);
        }
    }
    // Both LRU evictions and same-start replacements happen.
    assert!(evictions > 0 && displaced > evictions);
}

/// One seeded operation sequence on the set-associative cache and the
/// model: each set a list of line base addresses, true LRU.
fn run_cache(config: CacheConfig, seed: u64) {
    let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut c = SetAssocCache::new(config);
    let (mut spec, mut stats) = (Sets::new(config.sets, config.ways), CacheStats::default());
    // Three lines per way, so sets conflict often.
    let span = 3 * config.capacity_bytes();
    for step in 0..500 {
        let addr = r.gen_range(0..span);
        let line = addr / config.line_bytes * config.line_bytes;
        let set = (line / config.line_bytes % config.sets as u64) as usize;
        let at = format!("{config:?} seed {seed:#x} step {step} addr {addr:#x}");
        match r.gen_range(0..100) {
            0..=69 => {
                // A hit moves the line to the front; a miss may evict.
                let hit = spec.drop_where(set, |&l| l == line);
                let evicted = spec.insert(set, line);
                stats.hits += u64::from(hit);
                stats.misses += u64::from(!hit);
                stats.evictions += u64::from(evicted.is_some());
                assert_eq!(c.access(addr), AccessResult { hit, evicted }, "{at}");
            }
            70..=84 => assert_eq!(c.probe(addr), spec.sets[set].contains(&line), "{at}"),
            85..=97 => assert_eq!(c.invalidate(addr), spec.drop_where(set, |&l| l == line)),
            _ => {
                c.flush();
                spec.sets.iter_mut().for_each(Vec::clear);
            }
        }
        assert_eq!(*c.stats(), stats, "{at}");
        assert_eq!(c.resident_lines(), spec.resident(), "{at}");
    }
}

#[test]
fn set_associative_cache_follows_the_spec() {
    // Ways 1, 2, 4 × sets 1, 2, 8 × 16- and 64-byte lines × 10 seeds.
    for i in 0..180 {
        let config = CacheConfig::new([1, 2, 8][i / 3 % 3], [1, 2, 4][i % 3], [16, 64][i / 9 % 2]);
        run_cache(config, 0x5E7A_0000 + i as u64);
    }
}

/// A direction predictor of the fetch model.
enum Direction {
    Multi(MultiPredictor),
    Split(SplitMultiPredictor),
    Hybrid(HybridPredictor),
}

/// A delivered instruction: address, instruction, assumed direction,
/// promoted flag and whether it issued actively.
type Delivery = (Addr, Instr, Option<bool>, bool, bool);

/// What one trace-cache fetch delivers and decides.
#[derive(Debug, PartialEq)]
struct Delivered {
    insts: Vec<Delivery>,
    active_len: usize,
    next_pc: NextPc,
    base_reason: TerminationReason,
    predictions_used: usize,
    /// The prediction context: history, tree entry and hybrid prediction.
    history: u64,
    mbp_entry: usize,
    hybrid: Option<(Addr, HybridPrediction)>,
}

fn delivered(b: &FetchBundle) -> Delivered {
    let insts = b.insts.iter();
    Delivered {
        insts: insts
            .map(|i| (i.pc, i.instr, i.pred_taken, i.promoted, i.active))
            .collect(),
        active_len: b.active_len,
        next_pc: b.next_pc,
        base_reason: b.base_reason,
        predictions_used: b.predictions_used,
        history: b.pred.history.snapshot(),
        mbp_entry: b.pred.mbp_entry,
        hybrid: b.pred.hybrid,
    }
}

/// The trace-cache fetch body (§3): the predictions, partial matching,
/// inactive issue and the speculative history and return stack, walking
/// the line one instruction at a time.
struct FetchModel {
    direction: Direction,
    history: GlobalHistory,
    /// The ideal return stack, top last.
    ras: Vec<u64>,
    indirect: IndirectPredictor,
    partial_matching: bool,
    inactive_issue: bool,
}

impl FetchModel {
    fn new(config: &FrontEndConfig) -> FetchModel {
        FetchModel {
            direction: match config.predictor {
                PredictorChoice::PaperMulti => Direction::Multi(MultiPredictor::paper()),
                PredictorChoice::SplitMulti => Direction::Split(SplitMultiPredictor::paper()),
                PredictorChoice::Hybrid => Direction::Hybrid(HybridPredictor::paper()),
            },
            history: GlobalHistory::new(),
            ras: Vec::new(),
            indirect: IndirectPredictor::default_size(),
            partial_matching: config.partial_matching,
            inactive_issue: config.inactive_issue,
        }
    }

    /// A fetch at `pc` from `line`, resident and finalized for `end`.
    fn fetch(&mut self, pc: Addr, line: &[SegmentInst], end: SegEndReason) -> Delivered {
        let history = self.history;
        let (dirs, mbp_entry, bandwidth) = match &self.direction {
            Direction::Multi(p) => {
                let m = p.predict(pc.byte_addr(), history);
                (m.dirs, m.entry, 3)
            }
            Direction::Split(p) => {
                let m = p.predict(pc.byte_addr(), history);
                (m.dirs, m.entry, 3)
            }
            Direction::Hybrid(_) => ([false; 3], 0, 1),
        };
        // One prediction per non-promoted branch, in line order, while
        // the predictor's bandwidth lasts; the hybrid predicts the
        // branch at its own address.
        let mut hybrid = None;
        let mut preds = Vec::new();
        for si in line.iter().filter(|si| si.needs_prediction()) {
            if preds.len() == bandwidth {
                break;
            }
            preds.push(match &self.direction {
                Direction::Hybrid(h) => {
                    let hp = h.predict(si.pc.byte_addr(), history);
                    hybrid = Some((si.pc, hp));
                    hp.dir
                }
                _ => dirs[preds.len()],
            });
        }
        // The active prefix ends after the first branch predicted against
        // its embedded direction, or before the first branch left without
        // a prediction.
        let (mut active, mut used, mut cut, mut full) = (line.len(), 0, false, true);
        for (i, si) in line.iter().enumerate() {
            if !si.needs_prediction() {
                continue;
            }
            let Some(&p) = preds.get(used) else {
                (active, cut, full) = (i, true, false);
                break;
            };
            used += 1;
            if p != si.taken {
                (active, full) = (i + 1, false);
                break;
            }
        }
        // Without partial matching a diverging line gives its first block.
        if !full && !cut && !self.partial_matching {
            let first = line.iter().position(SegmentInst::needs_prediction);
            let first = first.map_or(line.len(), |i| i + 1);
            if active > first {
                (active, used) = (first, 1);
            }
        }
        // The active prefix pushes the history (promoted branches too)
        // and the return stack; the rest issues inactively along the
        // embedded path.
        let mut insts = Vec::new();
        let mut next_pred = preds.iter().copied();
        let mut last = None;
        for si in &line[..active] {
            let cond = si.instr.is_cond_branch();
            let dir = cond.then(|| {
                si.promoted
                    .unwrap_or_else(|| next_pred.next().unwrap_or(false))
            });
            if let Some(d) = dir {
                self.history.push(d);
            }
            let kind = si.instr.control_kind();
            if matches!(kind, ControlKind::Call | ControlKind::IndirectCall) {
                self.ras.push(u64::from(si.pc.next()));
            }
            insts.push((si.pc, si.instr, dir, si.promoted.is_some(), true));
            last = dir;
        }
        if self.inactive_issue {
            for si in &line[active..] {
                let dir = si.instr.is_cond_branch().then_some(si.taken);
                insts.push((si.pc, si.instr, dir, si.promoted.is_some(), false));
            }
        }
        let tail = &line[active - 1];
        let next_pc = if cut {
            NextPc::Known(tail.embedded_next())
        } else if !full {
            match tail.instr {
                Instr::Branch { target, .. } if last == Some(true) => NextPc::Known(target),
                _ => NextPc::Known(tail.pc.next()),
            }
        } else {
            match tail.instr.control_kind() {
                ControlKind::Return => NextPc::Return {
                    predicted: self.ras.pop().map(|a| Addr::new(a as u32)),
                },
                ControlKind::IndirectJump | ControlKind::IndirectCall => NextPc::Indirect {
                    pc: tail.pc,
                    predicted: (self.indirect.predict(tail.pc.byte_addr()))
                        .map(|t| Addr::new(t as u32)),
                },
                _ => NextPc::Known(tail.embedded_next()),
            }
        };
        let base_reason = match (cut, full) {
            (true, _) => TerminationReason::MaximumBrs,
            (_, true) => TerminationReason::from(end),
            _ => TerminationReason::PartialMatch,
        };
        Delivered {
            insts,
            active_len: active,
            next_pc,
            base_reason,
            predictions_used: used,
            history: history.snapshot(),
            mbp_entry,
            hybrid,
        }
    }

    /// Trains the direction predictor with the outcomes of fetch `d` at
    /// `pc`, as `FrontEnd::train` does.
    fn train(&mut self, pc: Addr, d: &Delivered, outcomes: &[bool]) {
        let mut history = GlobalHistory::new();
        history.restore(d.history);
        match &mut self.direction {
            _ if outcomes.is_empty() => {}
            Direction::Multi(p) => p.update(d.mbp_entry, outcomes),
            Direction::Split(p) => p.update(pc.byte_addr(), history, outcomes),
            Direction::Hybrid(p) => {
                if let Some((at, hp)) = d.hybrid {
                    p.update(at.byte_addr(), history, hp, outcomes[0]);
                }
            }
        }
    }
}

/// The return stack's contents, top last.
fn stack(ras: &ReturnStack) -> Vec<u64> {
    let mut ras = ras.clone();
    let mut contents: Vec<u64> = std::iter::from_fn(|| ras.pop()).collect();
    contents.reverse();
    contents
}

/// The `candidates` that start a resident line.
fn resident_starts<T: tc_trace::Tracer>(fe: &FrontEnd<T>, candidates: &[Addr]) -> Vec<Addr> {
    let tc = fe.trace_cache().expect("configured");
    let resident = candidates.iter().filter(|&&pc| tc.probe(pc).is_some());
    resident.copied().collect()
}

/// 300 fetches against the model at the lines a 4,000-instruction retire
/// stream of `workload` leaves resident, some of them corrupted first.
fn check_fetch(workload: &Workload, seed: u64, config: FrontEndConfig, cov: &mut Coverage) {
    let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
    let at = format!("{}, seed {seed:#x}, {config:?}", workload.name());
    let mut fe = FrontEnd::new(config);
    let skip = r.gen_range(0usize..20_000);
    let stream: Vec<_> = workload.interpreter().skip(skip).take(4_000).collect();
    for rec in &stream {
        fe.retire(rec);
    }
    let mut candidates: Vec<Addr> = stream.iter().map(|rec| rec.pc).collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut starts = resident_starts(&fe, &candidates);
    assert!(!starts.is_empty(), "{at}");
    let (program, mut model) = (workload.program(), FetchModel::new(&config));
    let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
    for step in 0..300 {
        let at = format!("{at}, step {step}");
        if r.gen_bool(0.1) {
            let entropy = r.next_u64();
            assert!(fe.inject(FaultLocus::TcSegment, entropy), "{at}");
            // A line whose first address was rewritten is tagged with it.
            let tc = fe.trace_cache().expect("configured");
            let moved = starts.iter().filter(|&&pc| tc.probe(pc).is_none());
            let moved: Vec<Addr> = moved.copied().collect();
            for old in moved {
                candidates.push(Addr::new(old.raw() ^ 1 ^ ((entropy >> 24) as u32 & 0xff)));
            }
            starts = resident_starts(&fe, &candidates);
            *cov.entry("corrupted").or_default() += 1;
        }
        if r.gen_bool(0.2) {
            // A repair rewinds the history.
            let h = r.next_u64();
            fe.restore_history(h);
            model.history.restore(h);
        }
        let pc = starts[r.gen_range(0..starts.len())];
        let line = fe.trace_cache().and_then(|tc| tc.probe(pc)).map(owned);
        let (line, end) = line.expect("resident");
        let want = model.fetch(pc, &line, end);
        if r.gen_bool(0.3) {
            let got = fe.fetch_next(pc, program, &mut mem);
            let next_pc = want.next_pc;
            assert_eq!(
                got,
                FetchStep {
                    next_pc,
                    icache_latency: 0
                },
                "{at}"
            );
            *cov.entry("fetch_next").or_default() += 1;
        } else {
            let bundle = fe.fetch(pc, program, &mut mem);
            assert_eq!(bundle.source, FetchOrigin::TraceCache, "{at}");
            assert_eq!(delivered(&bundle), want, "{at}");
            let outcomes: Vec<bool> = (0..want.predictions_used)
                .map(|_| r.gen_bool(0.5))
                .collect();
            fe.train(&bundle.pred, &outcomes);
            model.train(pc, &want, &outcomes);
        }
        if let NextPc::Indirect { pc, .. } = want.next_pc {
            let target = Addr::new(r.gen_range(0u32..4096));
            fe.train_indirect(pc, target);
            model.indirect.update(pc.byte_addr(), u64::from(target));
        }
        assert_eq!(fe.history_snapshot(), model.history.snapshot(), "{at}");
        assert_eq!(stack(&fe.ras_snapshot()), model.ras, "{at}");
        let key = match want.base_reason {
            TerminationReason::PartialMatch => "partial_match",
            TerminationReason::MaximumBrs => "maximum_brs",
            _ => "full_match",
        };
        *cov.entry(key).or_default() += 1;
        let promoted = want.insts.iter().filter(|i| i.3 && i.4).count();
        *cov.entry("promoted_active").or_default() += promoted as u64;
        let inactive = want.insts.iter().filter(|i| !i.4).count();
        *cov.entry("inactive").or_default() += inactive as u64;
        if let NextPc::Return { predicted: Some(_) } = want.next_pc {
            *cov.entry("return_predicted").or_default() += 1;
        }
    }
}

/// `FrontEnd::fetch` and `fetch_next` against the model at resident
/// lines of every workload, under every direction predictor with partial
/// matching and inactive issue each on and off, promotion on, and lines
/// corrupted through the fault hook (the sanitizer off, so the corrupted
/// lines are fetched).
#[test]
fn trace_cache_fetch_follows_the_spec() {
    let mut combos = Vec::new();
    for predictor in [
        PredictorChoice::PaperMulti,
        PredictorChoice::SplitMulti,
        PredictorChoice::Hybrid,
    ] {
        for (partial_matching, inactive_issue) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            combos.push((predictor, partial_matching, inactive_issue));
        }
    }
    let mut cov = Coverage::new();
    for (wi, workload) in WorkloadId::all()
        .into_iter()
        .map(WorkloadId::build)
        .enumerate()
    {
        for k in 0..4 {
            let (predictor, partial_matching, inactive_issue) = combos[(wi * 4 + k) % combos.len()];
            let config = FrontEndConfig {
                packing: [Atomic, CostRegulated][k % 2],
                promotion: Some(BiasConfig::paper(8)),
                predictor,
                partial_matching,
                inactive_issue,
                sanitize: false,
                ..FrontEndConfig::baseline()
            };
            let seed = 0xFE7C_0000 + ((wi as u64) << 8) + k as u64;
            check_fetch(&workload, seed, config, &mut cov);
        }
    }
    // Every outcome of the match occurs, on promoted and corrupted lines.
    for key in [
        "full_match",
        "partial_match",
        "maximum_brs",
        "promoted_active",
        "inactive",
        "corrupted",
        "fetch_next",
        "return_predicted",
    ] {
        assert!(cov.get(key).copied().unwrap_or(0) > 50, "{key}: {cov:?}");
    }
}
