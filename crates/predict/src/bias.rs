//! The branch bias table (Figure 5) driving branch promotion.

use std::collections::HashMap;

use crate::plan::{BiasOverride, PlanAction};

/// Configuration of the [`BiasTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiasConfig {
    /// Number of (direct-mapped) entries; 8K in the paper.
    pub entries: usize,
    /// Consecutive identical outcomes required to promote; the paper
    /// sweeps {8, 16, 32, 64, 128, 256} and settles on 64.
    pub threshold: u32,
    /// Width of the consecutive-occurrence saturating counter.
    pub counter_bits: u32,
    /// Whether entries are tagged (the paper models a tagged table; an
    /// untagged table aliases, which the ablation harness explores).
    pub tagged: bool,
}

impl BiasConfig {
    /// The paper's configuration at a given promotion threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` doesn't fit the counter, or if `entries` is
    /// not a power of two.
    #[must_use]
    pub fn paper(threshold: u32) -> BiasConfig {
        let cfg = BiasConfig {
            entries: 8 * 1024,
            threshold,
            counter_bits: 10,
            tagged: true,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.entries.is_power_of_two(),
            "bias table entries must be a power of two"
        );
        assert!(self.counter_bits >= 1 && self.counter_bits <= 16);
        assert!(
            self.threshold <= self.counter_max(),
            "threshold {} exceeds {}-bit counter",
            self.threshold,
            self.counter_bits
        );
    }

    fn counter_max(&self) -> u32 {
        (1u32 << self.counter_bits) - 1
    }
}

/// The promotion decision for a retiring conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasDecision {
    /// Build the branch as a normal, dynamically-predicted branch.
    Normal,
    /// Build the branch as a *promoted* branch with the given static
    /// direction (`true` = taken).
    Promote(bool),
}

/// The state transition performed by one [`BiasTable::update`] call —
/// what a tracer wants to know, reported without changing any counter
/// semantics. Callers that only train the table can ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasUpdate {
    /// No promotion state changed.
    None,
    /// The branch crossed the threshold and is now promoted with the
    /// given static direction.
    Promoted(bool),
    /// Two or more consecutive opposite outcomes demoted the branch
    /// (counted by [`BiasTable::demotions`]).
    Demoted,
    /// The update missed and displaced a *promoted* entry, whose branch
    /// (at the returned address) silently loses its status — the §4
    /// miss-demotes rule, which the demotion counter does not count.
    ///
    /// For a tagged table the address is exact; untagged tables alias,
    /// so only the table index is recoverable and is returned as-is.
    EvictedPromoted(u64),
    /// Degenerate low-threshold corner: the demoting outcome itself
    /// reached the threshold, so the branch was demoted and immediately
    /// re-promoted in the opposite direction.
    DemotedThenPromoted(bool),
}

#[derive(Debug, Clone, Copy)]
struct BiasEntry {
    tag: u64,
    /// Most recent outcome.
    dir: bool,
    /// Consecutive occurrences of `dir`, saturating.
    count: u32,
    /// The promoted direction, if this branch is currently promoted.
    promoted: Option<bool>,
}

/// The branch bias table: indexed by branch address, holding the previous
/// outcome and the number of consecutive identical outcomes (Figure 5).
///
/// Updated at retire for every conditional branch. Promotion and demotion
/// follow §4 of the paper:
///
/// * promote when the consecutive-outcome count reaches the threshold;
/// * demote a promoted branch after **two or more** consecutive outcomes
///   opposite the promoted direction, or on a bias-table miss — a single
///   opposite outcome (the final iteration of a loop) does *not* demote.
///
/// # Example
///
/// ```
/// use tc_predict::{BiasConfig, BiasDecision, BiasTable};
///
/// let mut bias = BiasTable::new(BiasConfig { entries: 16, threshold: 4, counter_bits: 8, tagged: true });
/// for _ in 0..4 {
///     bias.update(0x40, true);
/// }
/// assert_eq!(bias.decision(0x40), BiasDecision::Promote(true));
/// bias.update(0x40, false); // loop exit: still promoted
/// assert_eq!(bias.decision(0x40), BiasDecision::Promote(true));
/// bias.update(0x40, false); // second opposite outcome: demoted
/// assert_eq!(bias.decision(0x40), BiasDecision::Normal);
/// ```
#[derive(Debug, Clone)]
pub struct BiasTable {
    entries: Vec<Option<BiasEntry>>,
    config: BiasConfig,
    /// `log2(entries)`: the index bits a tagged entry's tag omits.
    index_bits: u32,
    promotions: u64,
    demotions: u64,
    /// Per-branch plan overrides (byte address → action); empty unless a
    /// promotion plan was attached.
    overrides: HashMap<u64, BiasOverride>,
    /// Promotions attributed to plan-classified branches, indexed by
    /// [`crate::BranchClass::index`]. All zero without a plan.
    class_promotions: [u64; 4],
}

impl BiasTable {
    /// Creates an empty bias table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`BiasConfig::paper`]).
    #[must_use]
    pub fn new(config: BiasConfig) -> BiasTable {
        config.validate();
        BiasTable {
            entries: vec![None; config.entries],
            index_bits: config.entries.trailing_zeros(),
            config,
            promotions: 0,
            demotions: 0,
            overrides: HashMap::new(),
            class_promotions: [0; 4],
        }
    }

    /// Attaches per-branch promotion overrides (a parsed `tw-plan/v1`
    /// plan). A branch with a [`PlanAction::Never`] override is never
    /// promoted; a [`PlanAction::Threshold`] override replaces the
    /// table-wide threshold for that branch. Unlisted branches keep the
    /// default behaviour. Replaces any previously attached overrides.
    pub fn set_overrides(&mut self, overrides: HashMap<u64, BiasOverride>) {
        self.overrides = overrides;
    }

    /// Number of attached per-branch overrides.
    #[must_use]
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Promotions attributed to each plan class (see
    /// [`crate::BranchClass::index`]); all zero without overrides.
    #[must_use]
    pub fn class_promotions(&self) -> [u64; 4] {
        self.class_promotions
    }

    /// The table configuration.
    #[must_use]
    pub fn config(&self) -> &BiasConfig {
        &self.config
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.config.entries - 1)
    }

    fn tag(&self, pc: u64) -> u64 {
        if self.config.tagged {
            pc >> self.index_bits
        } else {
            0
        }
    }

    /// Records the retirement of the conditional branch at `pc` with
    /// outcome `taken`, applying promotion/demotion rules. Returns the
    /// promotion-state transition this update performed and the
    /// post-update decision — what [`BiasTable::decision`] would now
    /// answer for `pc` — so the fill unit needs no second lookup.
    pub fn update(&mut self, pc: u64, taken: bool) -> (BiasUpdate, BiasDecision) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let counter_max = self.config.counter_max();
        let over = self.overrides.get(&pc).copied();
        let (threshold, never) = match over.map(|o| o.action) {
            Some(PlanAction::Never) => (0, true),
            Some(PlanAction::Threshold(t)) => (t, false),
            None => (self.config.threshold, false),
        };
        let slot = &mut self.entries[idx];
        let entry = match slot {
            Some(e) if e.tag == tag => e,
            displaced => {
                // Miss: (re)allocate. The displaced branch loses any
                // promoted status with its entry.
                let evicted_promoted = match &displaced {
                    Some(e) if e.promoted.is_some() => {
                        Some((e.tag << self.index_bits) | idx as u64)
                    }
                    _ => None,
                };
                *displaced = Some(BiasEntry {
                    tag,
                    dir: taken,
                    count: 1,
                    promoted: None,
                });
                // A fresh entry is never promoted (a miss demotes).
                let transition = match evicted_promoted {
                    Some(victim) => BiasUpdate::EvictedPromoted(victim),
                    None => BiasUpdate::None,
                };
                return (transition, BiasDecision::Normal);
            }
        };
        if entry.dir == taken {
            entry.count = (entry.count + 1).min(counter_max);
        } else {
            entry.dir = taken;
            entry.count = 1;
        }
        let mut demoted = false;
        if let Some(p) = entry.promoted {
            // Two or more consecutive outcomes against the promoted
            // direction demote the branch.
            if entry.dir != p && entry.count >= 2 {
                entry.promoted = None;
                self.demotions += 1;
                demoted = true;
            }
        }
        if !never && entry.promoted.is_none() && entry.count >= threshold {
            entry.promoted = Some(entry.dir);
            self.promotions += 1;
            if let Some(o) = over {
                self.class_promotions[o.class.index()] += 1;
            }
            let transition = if demoted {
                BiasUpdate::DemotedThenPromoted(entry.dir)
            } else {
                BiasUpdate::Promoted(entry.dir)
            };
            return (transition, BiasDecision::Promote(entry.dir));
        }
        let decision = match entry.promoted {
            Some(dir) => BiasDecision::Promote(dir),
            None => BiasDecision::Normal,
        };
        if demoted {
            (BiasUpdate::Demoted, decision)
        } else {
            (BiasUpdate::None, decision)
        }
    }

    /// The fill unit's query when adding the conditional branch at `pc` to
    /// a pending trace segment: promoted, and in which direction?
    ///
    /// A miss in the table means [`BiasDecision::Normal`] (the paper
    /// demotes on a miss).
    #[must_use]
    pub fn decision(&self, pc: u64) -> BiasDecision {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        match &self.entries[idx] {
            Some(e) if e.tag == tag => match e.promoted {
                Some(dir) => BiasDecision::Promote(dir),
                None => BiasDecision::Normal,
            },
            _ => BiasDecision::Normal,
        }
    }

    /// Total promotions performed.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Total demotions performed.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Perturbs one occupied entry (fault-injection hook): flips the
    /// running direction, or the promoted direction when the entry is
    /// promoted. Returns `false` when the table has no occupied entry.
    /// Self-heals: the paper's demote-on-opposite rule walks a wrong
    /// promoted direction back out through normal training.
    pub fn fault_flip(&mut self, entropy: u64) -> bool {
        let len = self.entries.len() as u64;
        let start = (entropy % len) as usize;
        for off in 0..self.entries.len() {
            let i = (start + off) % self.entries.len();
            if let Some(entry) = &mut self.entries[i] {
                if let Some(dir) = &mut entry.promoted {
                    *dir = !*dir;
                } else {
                    entry.dir = !entry.dir;
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(threshold: u32) -> BiasTable {
        BiasTable::new(BiasConfig {
            entries: 64,
            threshold,
            counter_bits: 10,
            tagged: true,
        })
    }

    #[test]
    fn promotes_at_threshold() {
        let mut t = table(4);
        for i in 0..4 {
            assert_eq!(t.decision(0x10), BiasDecision::Normal, "iteration {i}");
            t.update(0x10, false);
        }
        assert_eq!(t.decision(0x10), BiasDecision::Promote(false));
        assert_eq!(t.promotions(), 1);
    }

    #[test]
    fn single_opposite_outcome_does_not_demote() {
        let mut t = table(4);
        for _ in 0..8 {
            t.update(0x10, true);
        }
        t.update(0x10, false); // loop exit
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
        t.update(0x10, true); // loop re-entered
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
    }

    #[test]
    fn two_opposite_outcomes_demote() {
        let mut t = table(4);
        for _ in 0..8 {
            t.update(0x10, true);
        }
        t.update(0x10, false);
        t.update(0x10, false);
        assert_eq!(t.decision(0x10), BiasDecision::Normal);
        assert_eq!(t.demotions(), 1);
    }

    #[test]
    fn tag_conflict_evicts_and_demotes() {
        let mut t = table(2);
        t.update(0x10, true);
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
        // Same index (entries=64), different tag.
        t.update(0x10 + 64, true);
        assert_eq!(
            t.decision(0x10),
            BiasDecision::Normal,
            "miss in the bias table demotes"
        );
    }

    #[test]
    fn counter_saturates() {
        let mut t = BiasTable::new(BiasConfig {
            entries: 8,
            threshold: 3,
            counter_bits: 2,
            tagged: true,
        });
        for _ in 0..100 {
            t.update(0x1, true);
        }
        assert_eq!(t.decision(0x1), BiasDecision::Promote(true));
    }

    #[test]
    fn repromotion_after_demotion_requires_full_threshold() {
        let mut t = table(4);
        for _ in 0..4 {
            t.update(0x10, true);
        }
        t.update(0x10, false);
        t.update(0x10, false);
        assert_eq!(t.decision(0x10), BiasDecision::Normal);
        t.update(0x10, true);
        t.update(0x10, true);
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Normal);
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
    }

    #[test]
    fn update_reports_transitions() {
        let mut t = table(4);
        for _ in 0..3 {
            assert_eq!(t.update(0x10, true).0, BiasUpdate::None);
        }
        assert_eq!(t.update(0x10, true).0, BiasUpdate::Promoted(true));
        assert_eq!(t.update(0x10, false).0, BiasUpdate::None, "single opposite");
        assert_eq!(t.update(0x10, false).0, BiasUpdate::Demoted);
        assert_eq!(t.demotions(), 1);
    }

    #[test]
    fn update_reports_evicted_promoted_victim() {
        let mut t = table(2);
        t.update(0x10, true);
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
        // Same index (entries=64), different tag: the miss displaces the
        // promoted entry and reports its reconstructed address, without
        // touching the demotion counter.
        assert_eq!(
            t.update(0x10 + 64, true).0,
            BiasUpdate::EvictedPromoted(0x10)
        );
        assert_eq!(t.demotions(), 0);
        // Displacing a *normal* entry is not a reportable transition.
        assert_eq!(t.update(0x10 + 128, true).0, BiasUpdate::None);
    }

    #[test]
    fn update_reports_demoted_then_repromoted_at_threshold_two() {
        let mut t = table(2);
        t.update(0x10, true);
        t.update(0x10, true);
        t.update(0x10, false);
        // The second opposite outcome both demotes and re-crosses the
        // threshold in the new direction.
        assert_eq!(
            t.update(0x10, false).0,
            BiasUpdate::DemotedThenPromoted(false)
        );
        assert_eq!(t.decision(0x10), BiasDecision::Promote(false));
        assert_eq!(t.demotions(), 1);
        assert_eq!(t.promotions(), 2);
    }

    #[test]
    fn never_override_blocks_promotion() {
        use crate::plan::{BiasOverride, BranchClass, PlanAction};
        let mut t = table(4);
        t.set_overrides(HashMap::from([(
            0x10,
            BiasOverride {
                class: BranchClass::DataDependent,
                action: PlanAction::Never,
            },
        )]));
        for _ in 0..100 {
            t.update(0x10, true);
        }
        assert_eq!(t.decision(0x10), BiasDecision::Normal);
        assert_eq!(t.promotions(), 0);
        // An unlisted branch at the same table index still promotes.
        for _ in 0..4 {
            t.update(0x10 + 64, true);
        }
        assert_eq!(t.decision(0x10 + 64), BiasDecision::Promote(true));
        assert_eq!(t.class_promotions(), [0; 4], "unlisted branch has no class");
    }

    #[test]
    fn threshold_override_promotes_early_and_attributes_class() {
        use crate::plan::{BiasOverride, BranchClass, PlanAction};
        let mut t = table(64);
        t.set_overrides(HashMap::from([(
            0x10,
            BiasOverride {
                class: BranchClass::StronglyBiased,
                action: PlanAction::Threshold(2),
            },
        )]));
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Normal);
        t.update(0x10, true);
        assert_eq!(t.decision(0x10), BiasDecision::Promote(true));
        assert_eq!(t.promotions(), 1);
        assert_eq!(t.class_promotions(), [1, 0, 0, 0]);
        assert_eq!(t.override_count(), 1);
    }

    /// The decision `update` returns is the one a fresh `decision` query
    /// gives afterwards, across hits, misses, aliasing, promotions and
    /// demotions, tagged and untagged.
    #[test]
    fn update_returns_the_post_update_decision() {
        for tagged in [true, false] {
            let mut t = BiasTable::new(BiasConfig {
                entries: 16,
                threshold: 3,
                counter_bits: 4,
                tagged,
            });
            let mut x = 0x2545_F491_4F6C_DD1D_u64;
            for step in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = (x >> 8) % 48;
                let taken = x & 0xF != 0;
                let (_, decision) = t.update(pc, taken);
                assert_eq!(decision, t.decision(pc), "tagged {tagged}, step {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn threshold_must_fit_counter() {
        let _ = BiasTable::new(BiasConfig {
            entries: 8,
            threshold: 300,
            counter_bits: 8,
            tagged: true,
        });
    }
}
