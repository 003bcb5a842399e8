//! Fetch statistics: the accounting behind the paper's figures.

use crate::segment::SegEndReason;

/// Why a fetch delivered no more instructions than it did — the seven
/// categories of the paper's Figures 4 and 6, plus `Packed` for
/// segments a performed packing split closed before the line filled
/// (the paper folds these into AtomicBlocks; we keep them distinct so
/// performed and refused splits stay separable in the histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationReason {
    /// The predicted path diverged from the trace segment; only the
    /// matching prefix issued actively.
    PartialMatch,
    /// The fill unit finalized the segment early because the next block
    /// didn't fit (atomic block treatment).
    AtomicBlocks,
    /// The fetch was serviced by the instruction cache and ended at a
    /// control instruction or a missing second line.
    ICache,
    /// A mispredicted branch terminated the fetch (salvaged inactive
    /// instructions still count toward its size).
    MispredBr,
    /// The fetch delivered the full 16 instructions.
    MaxSize,
    /// A return, indirect jump, or trap ended the segment.
    RetIndTrap,
    /// The segment carried the maximum three conditional branches.
    MaximumBrs,
    /// A performed packing split closed the segment without filling the
    /// line (chunk-granularity packing).
    Packed,
}

impl TerminationReason {
    /// Number of termination categories.
    pub const COUNT: usize = 8;

    /// All categories, in the paper's legend order (with the `Packed`
    /// extension appended).
    pub const ALL: [TerminationReason; TerminationReason::COUNT] = [
        TerminationReason::PartialMatch,
        TerminationReason::AtomicBlocks,
        TerminationReason::ICache,
        TerminationReason::MispredBr,
        TerminationReason::MaxSize,
        TerminationReason::RetIndTrap,
        TerminationReason::MaximumBrs,
        TerminationReason::Packed,
    ];

    /// The paper's legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TerminationReason::PartialMatch => "PartialMatch",
            TerminationReason::AtomicBlocks => "AtomicBlocks",
            TerminationReason::ICache => "Icache",
            TerminationReason::MispredBr => "MispredBR",
            TerminationReason::MaxSize => "MaxSize",
            TerminationReason::RetIndTrap => "Ret, Indir, Trap",
            TerminationReason::MaximumBrs => "MaximumBRs",
            TerminationReason::Packed => "Packed",
        }
    }

    fn index(self) -> usize {
        TerminationReason::ALL
            .iter()
            .position(|&r| r == self)
            .expect("reason in ALL")
    }
}

impl From<SegEndReason> for TerminationReason {
    fn from(r: SegEndReason) -> TerminationReason {
        match r {
            SegEndReason::MaxSize => TerminationReason::MaxSize,
            SegEndReason::MaxBranches => TerminationReason::MaximumBrs,
            SegEndReason::AtomicBlock => TerminationReason::AtomicBlocks,
            SegEndReason::Packed => TerminationReason::Packed,
            SegEndReason::RetIndTrap => TerminationReason::RetIndTrap,
        }
    }
}

/// The fetch width: at most 16 instructions per fetch, as in the paper.
/// Also the largest size the histogram tracks.
pub const MAX_FETCH: usize = 16;

/// Per-front-end fetch statistics.
#[derive(Debug, Clone)]
pub struct FetchStats {
    /// `histogram[reason][size]`: count of fetches of each size (0..=16
    /// correct-path instructions) by termination reason.
    pub histogram: [[u64; MAX_FETCH + 1]; TerminationReason::COUNT],
    /// Fetches that returned at least one correct-path instruction.
    pub productive_fetches: u64,
    /// Correct-path instructions those fetches returned.
    pub correct_instructions: u64,
    /// Histogram of dynamic predictions consumed per fetch (0–3).
    pub predictions_used: [u64; 4],
    /// Fetches served by the trace cache.
    pub tc_fetches: u64,
    /// Fetches served by the instruction cache.
    pub icache_fetches: u64,
    /// Promoted branches fetched (each avoided consuming predictor
    /// bandwidth).
    pub promoted_fetched: u64,
}

impl Default for FetchStats {
    fn default() -> FetchStats {
        FetchStats {
            histogram: [[0; MAX_FETCH + 1]; TerminationReason::COUNT],
            productive_fetches: 0,
            correct_instructions: 0,
            predictions_used: [0; 4],
            tc_fetches: 0,
            icache_fetches: 0,
            promoted_fetched: 0,
        }
    }
}

impl FetchStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> FetchStats {
        FetchStats::default()
    }

    /// Records a validated fetch: `size` correct-path instructions,
    /// terminated for `reason`, consuming `preds` dynamic predictions.
    pub fn record_fetch(&mut self, reason: TerminationReason, size: usize, preds: usize) {
        let size = size.min(MAX_FETCH);
        self.histogram[reason.index()][size] += 1;
        if size > 0 {
            self.productive_fetches += 1;
            self.correct_instructions += size as u64;
        }
        self.predictions_used[preds.min(3)] += 1;
    }

    /// The paper's *effective fetch rate*: average correct-path
    /// instructions per fetch that returned correct-path instructions.
    #[must_use]
    pub fn effective_fetch_rate(&self) -> f64 {
        if self.productive_fetches == 0 {
            0.0
        } else {
            self.correct_instructions as f64 / self.productive_fetches as f64
        }
    }

    /// Fraction of fetches needing `n` or fewer predictions, per the
    /// paper's Table 3 buckets: returns `(frac_0_or_1, frac_2, frac_3)`.
    #[must_use]
    pub fn prediction_demand(&self) -> (f64, f64, f64) {
        let total: u64 = self.predictions_used.iter().sum();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            (self.predictions_used[0] + self.predictions_used[1]) as f64 / t,
            self.predictions_used[2] as f64 / t,
            self.predictions_used[3] as f64 / t,
        )
    }

    /// Counts of fetches per termination reason (summed over sizes).
    #[must_use]
    pub fn reason_counts(&self) -> [(TerminationReason, u64); TerminationReason::COUNT] {
        let mut out = [(TerminationReason::PartialMatch, 0); TerminationReason::COUNT];
        for (i, &reason) in TerminationReason::ALL.iter().enumerate() {
            out[i] = (reason, self.histogram[i].iter().sum());
        }
        out
    }

    /// The size distribution (summed over reasons), normalized.
    #[must_use]
    pub fn size_distribution(&self) -> [f64; MAX_FETCH + 1] {
        let total: u64 = self.histogram.iter().flatten().sum();
        let mut out = [0.0; MAX_FETCH + 1];
        if total == 0 {
            return out;
        }
        for row in &self.histogram {
            for (s, &c) in row.iter().enumerate() {
                out[s] += c as f64 / total as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_fetch_rate_ignores_empty_fetches() {
        let mut s = FetchStats::new();
        s.record_fetch(TerminationReason::MaxSize, 16, 1);
        s.record_fetch(TerminationReason::MispredBr, 0, 1);
        s.record_fetch(TerminationReason::MaximumBrs, 8, 3);
        assert!((s.effective_fetch_rate() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_demand_buckets() {
        let mut s = FetchStats::new();
        s.record_fetch(TerminationReason::MaxSize, 16, 0);
        s.record_fetch(TerminationReason::MaxSize, 16, 1);
        s.record_fetch(TerminationReason::MaxSize, 16, 2);
        s.record_fetch(TerminationReason::MaximumBrs, 16, 3);
        let (le1, two, three) = s.prediction_demand();
        assert!((le1 - 0.5).abs() < 1e-12);
        assert!((two - 0.25).abs() < 1e-12);
        assert!((three - 0.25).abs() < 1e-12);
    }

    #[test]
    fn seg_end_reason_maps_onto_categories() {
        assert_eq!(
            TerminationReason::from(SegEndReason::MaxSize),
            TerminationReason::MaxSize
        );
        assert_eq!(
            TerminationReason::from(SegEndReason::MaxBranches),
            TerminationReason::MaximumBrs
        );
        assert_eq!(
            TerminationReason::from(SegEndReason::AtomicBlock),
            TerminationReason::AtomicBlocks
        );
        assert_eq!(
            TerminationReason::from(SegEndReason::Packed),
            TerminationReason::Packed
        );
        assert_eq!(
            TerminationReason::from(SegEndReason::RetIndTrap),
            TerminationReason::RetIndTrap
        );
    }

    #[test]
    fn size_distribution_sums_to_one() {
        let mut s = FetchStats::new();
        for size in [3, 7, 16, 16, 9] {
            s.record_fetch(TerminationReason::MaxSize, size, 1);
        }
        let total: f64 = s.size_distribution().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
