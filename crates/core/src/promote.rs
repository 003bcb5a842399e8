//! Static (profile-guided) branch promotion.
//!
//! §4 of the paper notes that "branch promotion can be done statically,
//! as well": the ISA carries encodings for strongly biased branches, and
//! a profiling compiler marks them. Compared to the dynamic bias table,
//! static promotion needs no warm-up and can catch branches that are
//! biased overall but switch outcomes in patterns the consecutive-outcome
//! counter resets on; it cannot adapt to input-dependent bias changes.
//!
//! The profiling compiler's role is played by the caller: `tc-sim`'s
//! branch profiler counts each conditional branch's outcomes over a
//! training prefix, and every branch biased past a threshold is
//! [`inserted`](StaticPromotionTable::insert) in its dominant direction.

use std::collections::HashMap;

use tc_isa::Addr;

/// Profile-derived set of statically promoted branches.
#[derive(Debug, Clone, Default)]
pub struct StaticPromotionTable {
    /// Branch address (instruction index) → promoted direction.
    promoted: HashMap<u32, bool>,
}

impl StaticPromotionTable {
    /// Creates an empty table (promotes nothing).
    #[must_use]
    pub fn new() -> StaticPromotionTable {
        StaticPromotionTable::default()
    }

    /// Promotes the branch at `pc` in direction `dir`, replacing any
    /// earlier direction.
    pub fn insert(&mut self, pc: Addr, dir: bool) {
        self.promoted.insert(pc.raw(), dir);
    }

    /// The promoted direction for the branch at `pc`, if promoted.
    #[must_use]
    pub fn decision(&self, pc: Addr) -> Option<bool> {
        self.promoted.get(&pc.raw()).copied()
    }

    /// Number of promoted branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.promoted.len()
    }

    /// Whether no branches are promoted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.promoted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_overrides() {
        let mut t = StaticPromotionTable::new();
        assert!(t.is_empty());
        t.insert(Addr::new(5), false);
        assert_eq!(t.decision(Addr::new(5)), Some(false));
    }
}
