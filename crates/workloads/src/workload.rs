//! The [`Workload`] container: a program plus its initial memory image.

use tc_isa::{Interpreter, Machine, Program, StreamStats};

/// A runnable benchmark: a validated program, a data-memory size, and an
/// initial memory image.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    program: Program,
    mem_words: usize,
    image: Vec<(u64, Vec<u64>)>,
}

impl Workload {
    /// Assembles a workload.
    ///
    /// # Panics
    ///
    /// Panics if any image segment falls outside `mem_words`.
    #[must_use]
    pub fn new(
        name: &'static str,
        program: Program,
        mem_words: usize,
        image: Vec<(u64, Vec<u64>)>,
    ) -> Workload {
        for (base, words) in &image {
            assert!(
                *base as usize + words.len() <= mem_words,
                "{name}: image segment at {base:#x}+{} exceeds memory of {mem_words} words",
                words.len()
            );
        }
        Workload {
            name,
            program,
            mem_words,
            image,
        }
    }

    /// The benchmark's name (matches the paper's Table 1).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The static program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Data memory size in words.
    #[must_use]
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }

    /// Builds a machine with the image loaded, ready to run.
    #[must_use]
    pub fn machine(&self) -> Machine {
        let mut m = Machine::new(self.program.entry(), self.mem_words);
        for (base, words) in &self.image {
            m.load_image(*base, words);
        }
        m
    }

    /// Creates a functional interpreter over this workload.
    #[must_use]
    pub fn interpreter(&self) -> Interpreter<'_> {
        Interpreter::with_machine(&self.program, self.machine())
    }

    /// Executes up to `max_insts` dynamic instructions and returns stream
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the workload faults (synthetic benchmarks are expected to
    /// be well-formed).
    #[must_use]
    pub fn stream_stats(&self, max_insts: u64) -> StreamStats {
        let mut interp = self.interpreter();
        let mut stats = StreamStats::new();
        interp.for_each_record(max_insts, |rec| stats.record(&rec));
        if let Some(e) = interp.error() {
            panic!("workload {} faulted: {e}", self.name);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_isa::{ProgramBuilder, Reg};

    fn trivial() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1).halt();
        b.build().unwrap()
    }

    #[test]
    fn image_is_loaded_into_machine() {
        let w = Workload::new("t", trivial(), 128, vec![(10, vec![7, 8, 9])]);
        let m = w.machine();
        assert_eq!(m.mem(10), 7);
        assert_eq!(m.mem(12), 9);
        assert_eq!(m.mem(13), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds memory")]
    fn oversized_image_rejected() {
        let _ = Workload::new("t", trivial(), 8, vec![(6, vec![1, 2, 3])]);
    }

    #[test]
    fn stream_stats_counts_instructions() {
        let w = Workload::new("t", trivial(), 64, vec![]);
        assert_eq!(w.stream_stats(100).instructions, 1);
    }
}
