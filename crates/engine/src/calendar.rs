//! A sliding resource calendar for functional-unit slots.

use std::collections::VecDeque;

/// Tracks how many functional-unit slots are taken in each future cycle
/// and allocates the earliest free slot at or after a requested cycle.
///
/// Backed by a deque window starting at a base cycle; cycles before the
/// base are assumed fully drained (callers only ever allocate forward).
#[derive(Debug, Clone)]
pub struct FuCalendar {
    slots_per_cycle: u32,
    base: u64,
    used: VecDeque<u32>,
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
            used: VecDeque::new(),
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
    pub fn advance(&mut self, cycle: u64) {
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
