//! A sliding resource calendar for functional-unit slots.

use crate::ring::Ring;

/// Cycles the calendar covers before its first growth: allocations run
/// up to a few hundred cycles past the clock, which trails by 64.
const INITIAL_HORIZON: usize = 1024;

/// Tracks how many functional-unit slots are taken in each future cycle
/// and allocates the earliest free slot at or after a requested cycle.
///
/// Backed by a ring over the cycles `[base, base + used.len())`;
/// cycles before the base are assumed fully drained (callers only ever
/// allocate forward). Advancing the base drops the ring's front, and
/// the ring grows only when an allocation runs past its horizon.
#[derive(Debug, Clone)]
pub struct FuCalendar {
    slots_per_cycle: u32,
    base: u64,
    used: Ring<u32>,
}

impl FuCalendar {
    /// Creates a calendar with `slots_per_cycle` units.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_cycle` is zero.
    #[must_use]
    pub fn new(slots_per_cycle: u32) -> FuCalendar {
        assert!(slots_per_cycle > 0, "at least one functional unit required");
        FuCalendar {
            slots_per_cycle,
            base: 0,
            used: Ring::new(INITIAL_HORIZON, 0),
        }
    }

    /// Allocates one slot at the earliest cycle `>= earliest` with
    /// capacity, and returns that cycle.
    #[inline]
    pub fn allocate(&mut self, earliest: u64) -> u64 {
        let earliest = earliest.max(self.base);
        let mut idx = (earliest - self.base) as usize;
        loop {
            while idx >= self.used.len() {
                self.used.push_back(0);
            }
            if self.used[idx] < self.slots_per_cycle {
                self.used[idx] += 1;
                return self.base + idx as u64;
            }
            idx += 1;
        }
    }

    /// Discards bookkeeping for cycles before `cycle` (they can no
    /// longer be allocated).
    #[inline]
    pub fn advance(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        let skip = (cycle - self.base).min(self.used.len() as u64);
        self.used.drop_front(skip as usize);
        self.base = cycle;
    }

    /// Number of slots used at `cycle` (0 if out of the window).
    #[must_use]
    pub fn used_at(&self, cycle: u64) -> u32 {
        if cycle < self.base {
            return 0;
        }
        self.used
            .get((cycle - self.base) as usize)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_a_cycle_then_spills() {
        let mut c = FuCalendar::new(2);
        assert_eq!(c.allocate(5), 5);
        assert_eq!(c.allocate(5), 5);
        assert_eq!(
            c.allocate(5),
            6,
            "third allocation spills to the next cycle"
        );
        assert_eq!(c.used_at(5), 2);
        assert_eq!(c.used_at(6), 1);
    }

    #[test]
    fn allocation_respects_earliest() {
        let mut c = FuCalendar::new(1);
        assert_eq!(c.allocate(0), 0);
        assert_eq!(c.allocate(10), 10);
        assert_eq!(c.allocate(0), 1, "earlier hole is found");
    }

    /// The calendar as a plain deque that `advance` drains: the model
    /// the ring-backed calendar must agree with.
    struct DequeCalendar {
        slots_per_cycle: u32,
        base: u64,
        used: std::collections::VecDeque<u32>,
    }

    impl DequeCalendar {
        fn allocate(&mut self, earliest: u64) -> u64 {
            let earliest = earliest.max(self.base);
            let mut idx = (earliest - self.base) as usize;
            loop {
                while idx >= self.used.len() {
                    self.used.push_back(0);
                }
                if self.used[idx] < self.slots_per_cycle {
                    self.used[idx] += 1;
                    return self.base + idx as u64;
                }
                idx += 1;
            }
        }

        fn advance(&mut self, cycle: u64) {
            if cycle <= self.base {
                return;
            }
            let skip = cycle - self.base;
            if skip >= self.used.len() as u64 {
                self.used.clear();
            } else {
                self.used.drain(..skip as usize);
            }
            self.base = cycle;
        }

        fn used_at(&self, cycle: u64) -> u32 {
            if cycle < self.base {
                return 0;
            }
            let idx = (cycle - self.base) as usize;
            self.used.get(idx).copied().unwrap_or(0)
        }
    }

    #[test]
    fn agrees_with_the_deque_model() {
        use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
        for seed in 0..8 {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let slots = rng.gen_range(1..5u32);
            let mut cal = FuCalendar::new(slots);
            let mut model = DequeCalendar {
                slots_per_cycle: slots,
                base: 0,
                used: std::collections::VecDeque::new(),
            };
            let mut clock = 0u64;
            let mut widest = 0;
            for step in 0..20_000 {
                match rng.gen_range(0..10u32) {
                    // Allocations reach past the initial horizon, and
                    // some start below the base.
                    0..=5 => {
                        let reach = if rng.gen_bool(0.02) { 5_000 } else { 300 };
                        let earliest = (clock + rng.gen_range(0..reach)).saturating_sub(64);
                        let got = cal.allocate(earliest);
                        assert_eq!(got, model.allocate(earliest), "seed {seed}, step {step}");
                    }
                    // The clock moves by small steps and, rarely, jumps
                    // past everything allocated.
                    6..=8 => {
                        clock += if rng.gen_bool(0.01) {
                            rng.gen_range(1_000..20_000)
                        } else {
                            rng.gen_range(0..4)
                        };
                        cal.advance(clock.saturating_sub(64));
                        model.advance(clock.saturating_sub(64));
                    }
                    _ => {
                        let cycle = (clock + rng.gen_range(0..6_000)).saturating_sub(200);
                        assert_eq!(
                            cal.used_at(cycle),
                            model.used_at(cycle),
                            "seed {seed}, step {step}"
                        );
                    }
                }
                widest = widest.max(model.used.len());
            }
            assert!(
                widest > INITIAL_HORIZON,
                "seed {seed}: the run never passed the initial horizon"
            );
        }
    }

    #[test]
    fn advance_discards_history() {
        let mut c = FuCalendar::new(1);
        c.allocate(0);
        c.allocate(1);
        c.advance(2);
        assert_eq!(c.used_at(0), 0);
        // Allocation below the base clamps to the base.
        assert_eq!(c.allocate(0), 2);
    }
}
