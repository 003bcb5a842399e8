//! The dataflow execution window.

use tc_cache::MemoryHierarchy;
use tc_isa::{ExecRecord, Reg};

use crate::calendar::FuCalendar;
use crate::config::EngineConfig;
use crate::memdep::MemDepTracker;
use crate::ring::Ring;

/// Entries the in-flight ring holds past the window before it grows:
/// the caller checks for room before a fetch, so the last fetch into a
/// nearly full window overruns it by up to one fetch less one.
const WINDOW_OVERRUN: usize = 16;

/// Timestamps computed for one issued instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueTimes {
    /// Cycle execution begins (FU allocated).
    pub exec_start: u64,
    /// Cycle the result is available; for branches this is the
    /// *resolution time* source.
    pub done: u64,
    /// Cycle the instruction retires (in order).
    pub retire: u64,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions issued into the window.
    pub issued: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Total cycles instructions spent waiting between readiness and
    /// execution (scheduling + FU contention + memory ordering).
    pub wait_cycles: u64,
}

/// The out-of-order core: issues the validated correct-path instruction
/// stream and computes per-instruction timing under dataflow, functional
/// unit, memory-ordering, window, and retirement constraints.
///
/// # Example
///
/// ```
/// use tc_engine::{EngineConfig, ExecutionEngine};
/// use tc_cache::{HierarchyConfig, MemoryHierarchy};
/// use tc_isa::{Addr, ExecRecord, Instr, Reg, AluOp};
///
/// let mut engine = ExecutionEngine::new(EngineConfig::paper_realistic());
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
/// let rec = ExecRecord {
///     pc: Addr::new(0),
///     instr: Instr::Li { rd: Reg::T0, imm: 5 },
///     next_pc: Addr::new(1),
///     taken: false,
///     mem_addr: None,
/// };
/// let t = engine.issue(&rec, 0, &mut mem);
/// assert!(t.done > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    config: EngineConfig,
    /// Cycle at which each architectural register's latest value is
    /// available.
    reg_ready: [u64; Reg::COUNT],
    fus: FuCalendar,
    memdep: MemDepTracker,
    /// Retire timestamps of in-flight instructions (nondecreasing),
    /// sized for the window and the fetch that may overrun it.
    in_flight: Ring<u64>,
    last_retire_cycle: u64,
    retired_this_cycle: usize,
    stats: EngineStats,
    prune_clock: u64,
}

impl ExecutionEngine {
    /// Creates an empty engine.
    ///
    /// # Panics
    ///
    /// If `config.window` is 0: the window must hold an instruction.
    #[must_use]
    pub fn new(config: EngineConfig) -> ExecutionEngine {
        assert!(config.window > 0, "the window needs an entry");
        ExecutionEngine {
            config,
            reg_ready: [0; Reg::COUNT],
            fus: FuCalendar::new(config.fus as u32),
            memdep: MemDepTracker::new(),
            in_flight: Ring::new(config.window + WINDOW_OVERRUN, 0),
            last_retire_cycle: 0,
            retired_this_cycle: 0,
            stats: EngineStats::default(),
            prune_clock: 0,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of instructions in flight (issued, not yet drained).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the window has room for another instruction.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.in_flight.len() < self.config.window
    }

    /// The retire time of the oldest in-flight instruction, if any —
    /// the earliest cycle at which window space frees up.
    #[must_use]
    pub fn earliest_retire(&self) -> Option<u64> {
        self.in_flight.front().copied()
    }

    /// Drains instructions that have retired by `cycle`; returns how
    /// many retired.
    pub fn drain_retired(&mut self, cycle: u64) -> usize {
        let mut n = 0;
        while self.in_flight.get(n).is_some_and(|&t| t <= cycle) {
            n += 1;
        }
        self.in_flight.drop_front(n);
        self.fus.advance(cycle.saturating_sub(64));
        if cycle > self.prune_clock.saturating_add(4096) {
            self.memdep.prune(cycle.saturating_sub(256));
            self.prune_clock = cycle;
        }
        n
    }

    /// Issues one validated instruction fetched at `fetch_cycle` and
    /// computes its timestamps.
    ///
    /// The caller is responsible for window-capacity checks
    /// ([`ExecutionEngine::has_room`]) before fetching more.
    ///
    /// Always inlined: the simulator calls it once per issued
    /// instruction, and inlined its result stays in registers instead
    /// of going through memory.
    #[inline(always)]
    pub fn issue(
        &mut self,
        rec: &ExecRecord,
        fetch_cycle: u64,
        mem: &mut MemoryHierarchy,
    ) -> IssueTimes {
        self.stats.issued += 1;
        // Earliest schedule: fetch + issue stages, one cycle each.
        let pipeline_ready = fetch_cycle + u64::from(self.config.frontend_stages);
        // Dataflow: operand availability.
        let mut ready = pipeline_ready;
        // An absent source reads `Reg::ZERO`, whose entry stays 0: no
        // instruction names it as a destination.
        for src in rec.instr.source_pair() {
            ready = ready.max(self.reg_ready[src.index()]);
        }
        // Memory ordering for loads.
        if rec.instr.is_load() {
            let addr = rec.mem_addr.expect("loads carry addresses");
            ready = self
                .memdep
                .load_start(addr, ready, self.config.perfect_disambiguation);
            self.stats.loads += 1;
        }
        // Functional-unit allocation.
        let exec_start = self.fus.allocate(ready);
        self.stats.wait_cycles += exec_start - pipeline_ready.min(exec_start);
        // Completion.
        let done = if rec.instr.is_load() {
            let addr = rec.mem_addr.expect("loads carry addresses");
            let lat = mem.data_access(addr * 8); // word -> byte address
            exec_start + u64::from(lat.cycles)
        } else if rec.instr.is_store() {
            let addr = rec.mem_addr.expect("stores carry addresses");
            let lat = mem.data_access(addr * 8);
            let done = exec_start + u64::from(lat.cycles);
            self.memdep.store(addr, exec_start, done);
            self.stats.stores += 1;
            done
        } else {
            exec_start + u64::from(rec.instr.latency())
        };
        // Destination availability.
        if let Some(rd) = rec.instr.dest() {
            self.reg_ready[rd.index()] = done;
        }
        // In-order retirement, `retire_width` per cycle.
        let mut retire = done.max(self.last_retire_cycle);
        if retire == self.last_retire_cycle && self.retired_this_cycle >= self.config.retire_width {
            retire += 1;
        }
        if retire > self.last_retire_cycle {
            self.last_retire_cycle = retire;
            self.retired_this_cycle = 1;
        } else {
            self.retired_this_cycle += 1;
        }
        self.in_flight.push_back(retire);
        IssueTimes {
            exec_start,
            done,
            retire,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_cache::HierarchyConfig;
    use tc_isa::{Addr, AluOp, Instr};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_trace_cache())
    }

    fn alu(rd: Reg, rs1: Reg, rs2: Reg) -> ExecRecord {
        ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Alu {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            },
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: None,
        }
    }

    fn load(rd: Reg, addr: u64) -> ExecRecord {
        ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Load {
                rd,
                base: Reg::SP,
                offset: 0,
            },
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: Some(addr),
        }
    }

    fn store(src: Reg, addr: u64) -> ExecRecord {
        ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Store {
                src,
                base: Reg::SP,
                offset: 0,
            },
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: Some(addr),
        }
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_realistic());
        let mut m = mem();
        let t1 = e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m);
        let t2 = e.issue(&alu(Reg::T3, Reg::T0, Reg::T0), 0, &mut m);
        assert!(t2.exec_start >= t1.done, "consumer waits for producer");
    }

    #[test]
    fn independent_instructions_run_in_parallel() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_realistic());
        let mut m = mem();
        let t1 = e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m);
        let t2 = e.issue(&alu(Reg::T3, Reg::T4, Reg::T5), 0, &mut m);
        assert_eq!(t1.exec_start, t2.exec_start);
    }

    #[test]
    fn fu_contention_spills_to_later_cycles() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_realistic());
        let mut m = mem();
        let mut starts = Vec::new();
        for _ in 0..20 {
            starts.push(
                e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m)
                    .exec_start,
            );
        }
        // Wait: T0 dest makes them dependent — use distinct dests? All
        // write T0 but read T1/T2 (independent reads). Writes serialize
        // only through readers; our model tracks last-writer time, so
        // each write just overwrites reg_ready — execution can overlap.
        let first = starts[0];
        assert_eq!(
            starts.iter().filter(|&&s| s == first).count(),
            16,
            "16 FUs fill one cycle"
        );
        assert!(starts[16] > first);
    }

    #[test]
    fn conservative_load_waits_for_store_address() {
        let mut m = mem();
        // Conservative: load (different address) waits for the store's
        // address generation; perfect: it does not.
        let mut run = |perfect: bool| {
            let mut e = ExecutionEngine::new(if perfect {
                EngineConfig::paper_perfect()
            } else {
                EngineConfig::paper_realistic()
            });
            // Make the store's address depend on a slow chain.
            e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m);
            for _ in 0..5 {
                e.issue(&alu(Reg::T0, Reg::T0, Reg::T0), 0, &mut m);
            }
            e.issue(&store(Reg::T0, 0x100), 0, &mut m);
            e.issue(&load(Reg::T4, 0x200), 0, &mut m).exec_start
        };
        let conservative = run(false);
        let perfect = run(true);
        assert!(
            conservative > perfect,
            "conservative {conservative} should exceed perfect {perfect}"
        );
    }

    #[test]
    fn same_address_load_waits_for_store_data_even_when_perfect() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_perfect());
        let mut m = mem();
        let st = e.issue(&store(Reg::T0, 0x40), 0, &mut m);
        let ld = e.issue(&load(Reg::T1, 0x40), 0, &mut m);
        assert!(ld.exec_start >= st.done);
    }

    #[test]
    fn retirement_is_in_order_and_width_limited() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_realistic());
        let mut m = mem();
        let mut retires = Vec::new();
        for _ in 0..40 {
            retires.push(e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m).retire);
        }
        // Nondecreasing.
        assert!(retires.windows(2).all(|w| w[0] <= w[1]));
        // No cycle hosts more than 16 retirements.
        let mut counts = std::collections::HashMap::new();
        for r in retires {
            *counts.entry(r).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c <= 16));
    }

    #[test]
    #[should_panic(expected = "the window needs an entry")]
    fn zero_entry_window_is_rejected() {
        let _ = ExecutionEngine::new(EngineConfig {
            window: 0,
            ..EngineConfig::paper_realistic()
        });
    }

    #[test]
    fn window_fills_and_drains() {
        let cfg = EngineConfig {
            window: 4,
            ..EngineConfig::paper_realistic()
        };
        let mut e = ExecutionEngine::new(cfg);
        let mut m = mem();
        for _ in 0..4 {
            e.issue(&alu(Reg::T0, Reg::T1, Reg::T2), 0, &mut m);
        }
        assert!(!e.has_room());
        let earliest = e.earliest_retire().unwrap();
        let drained = e.drain_retired(earliest);
        assert!(drained > 0);
        assert!(e.has_room());
    }

    #[test]
    fn loads_pay_dcache_latency() {
        let mut e = ExecutionEngine::new(EngineConfig::paper_realistic());
        let mut m = mem();
        let cold = e.issue(&load(Reg::T0, 0x999), 0, &mut m);
        assert!(
            cold.done - cold.exec_start >= 57,
            "cold load pays the memory latency"
        );
        let mut e2 = ExecutionEngine::new(EngineConfig::paper_realistic());
        let warm = {
            m.data_access(0x999 * 8);
            e2.issue(&load(Reg::T0, 0x999), 0, &mut m)
        };
        assert_eq!(warm.done - warm.exec_start, 1, "warm load is one cycle");
    }
}
