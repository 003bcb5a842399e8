//! Front-end configuration presets matching the paper's experiments.

use tc_predict::BiasConfig;

use crate::fill::PackingPolicy;
use crate::trace_cache::TraceCacheConfig;

/// Which branch predictor drives the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorChoice {
    /// The baseline multiple-branch gshare: 16K entries × 7 2-bit
    /// counters (Figure 3).
    PaperMulti,
    /// The §4 restructured predictor: split 64K/16K/8K tables — used with
    /// branch promotion, where most fetches need one prediction.
    SplitMulti,
    /// The aggressive hybrid gshare/PAs single-branch predictor of the
    /// icache-only reference front end.
    Hybrid,
}

/// Branch-promotion parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionConfig {
    /// Consecutive-outcome threshold (the paper sweeps 8–256, settles on
    /// 64).
    pub threshold: u32,
    /// Bias-table geometry.
    pub bias: BiasConfig,
}

impl PromotionConfig {
    /// The paper's 8K-entry tagged bias table at `threshold`.
    #[must_use]
    pub fn paper(threshold: u32) -> PromotionConfig {
        PromotionConfig {
            threshold,
            bias: BiasConfig::paper(threshold),
        }
    }
}

/// Complete front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndConfig {
    /// Trace cache geometry; `None` selects the icache-only reference
    /// front end.
    pub trace_cache: Option<TraceCacheConfig>,
    /// Fill-unit packing policy.
    pub packing: PackingPolicy,
    /// Branch promotion; `None` disables it.
    pub promotion: Option<PromotionConfig>,
    /// Predictor structure.
    pub predictor: PredictorChoice,
    /// Partial matching (Friendly et al., used by the paper's baseline):
    /// a trace line whose path diverges from the predictions still
    /// supplies its matching prefix. Disabled, a diverging line supplies
    /// only its first fetch block.
    pub partial_matching: bool,
    /// Inactive issue (Friendly et al., used by the paper's baseline):
    /// off-path blocks of a trace line issue anyway and are salvaged if
    /// the prediction proves wrong.
    pub inactive_issue: bool,
    /// Return-address-stack depth; `None` models the paper's ideal RAS,
    /// whose returns always reach their architectural target.
    pub ras_depth: Option<usize>,
    /// Runtime invariant sanitizer ([`crate::Sanitizer`]): validates
    /// segment structure at fill time and on trace-cache hits, emitting
    /// structured [`crate::Violation`] records. Defaults to on in
    /// debug/test builds, off in release builds.
    pub sanitize: bool,
}

impl FrontEndConfig {
    /// The icache-only reference front end: 128 KB dual-ported i-cache,
    /// hybrid single-branch prediction, one fetch block per cycle.
    #[must_use]
    pub fn icache_only() -> FrontEndConfig {
        FrontEndConfig {
            trace_cache: None,
            packing: PackingPolicy::Atomic,
            promotion: None,
            predictor: PredictorChoice::Hybrid,
            partial_matching: true,
            inactive_issue: true,
            ras_depth: None,
            sanitize: cfg!(debug_assertions),
        }
    }

    /// The baseline trace cache (§3): 2K entries, atomic fetch blocks,
    /// inactive issue, no promotion, tree multiple-branch predictor.
    #[must_use]
    pub fn baseline() -> FrontEndConfig {
        FrontEndConfig {
            trace_cache: Some(TraceCacheConfig::paper()),
            predictor: PredictorChoice::PaperMulti,
            ..FrontEndConfig::icache_only()
        }
    }

    /// Baseline plus branch promotion at `threshold` (§4), with the
    /// restructured split predictor.
    #[must_use]
    pub fn promotion(threshold: u32) -> FrontEndConfig {
        FrontEndConfig {
            promotion: Some(PromotionConfig::paper(threshold)),
            predictor: PredictorChoice::SplitMulti,
            ..FrontEndConfig::baseline()
        }
    }

    /// Promotion with an *aggressive hybrid single-branch predictor*
    /// driving the trace cache — §4's forward-looking suggestion: with
    /// promotion most fetches need only one dynamic prediction, so a
    /// large hybrid predictor (one prediction per cycle) becomes viable.
    /// The fetch is bandwidth-limited to one dynamic branch per cycle.
    #[must_use]
    pub fn promotion_hybrid(threshold: u32) -> FrontEndConfig {
        FrontEndConfig {
            predictor: PredictorChoice::Hybrid,
            ..FrontEndConfig::promotion(threshold)
        }
    }

    /// Baseline plus trace packing (§5) under `policy`, without
    /// promotion.
    #[must_use]
    pub fn packing(policy: PackingPolicy) -> FrontEndConfig {
        FrontEndConfig {
            packing: policy,
            ..FrontEndConfig::baseline()
        }
    }

    /// Promotion and packing combined — the paper's headline
    /// configuration (threshold 64 + cost-regulated packing for the
    /// performance results; unregulated for the fetch-rate studies).
    #[must_use]
    pub fn promotion_packing(threshold: u32, policy: PackingPolicy) -> FrontEndConfig {
        FrontEndConfig {
            packing: policy,
            ..FrontEndConfig::promotion(threshold)
        }
    }

    /// Whether this configuration uses a trace cache.
    #[must_use]
    pub fn has_trace_cache(&self) -> bool {
        self.trace_cache.is_some()
    }

    /// A short human-readable label for tables.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.has_trace_cache() {
            return "icache".to_owned();
        }
        let mut parts = vec!["tc".to_owned()];
        if let Some(p) = &self.promotion {
            parts.push(format!("promo{}", p.threshold));
        }
        if self.packing != PackingPolicy::Atomic {
            parts.push(self.packing.to_string());
        }
        if self.predictor == PredictorChoice::Hybrid {
            parts.push("hyb1".to_owned());
        }
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let base = FrontEndConfig::baseline();
        assert_eq!(base.trace_cache.unwrap().entries, 2048);
        assert_eq!(base.packing, PackingPolicy::Atomic);
        assert!(base.promotion.is_none());

        let promo = FrontEndConfig::promotion(64);
        assert_eq!(promo.promotion.unwrap().threshold, 64);
        assert_eq!(promo.predictor, PredictorChoice::SplitMulti);

        let icache = FrontEndConfig::icache_only();
        assert!(!icache.has_trace_cache());
        assert_eq!(icache.predictor, PredictorChoice::Hybrid);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(FrontEndConfig::icache_only().label(), "icache");
        assert_eq!(FrontEndConfig::baseline().label(), "tc");
        assert_eq!(FrontEndConfig::promotion(64).label(), "tc+promo64");
        assert_eq!(
            FrontEndConfig::promotion_packing(64, PackingPolicy::CostRegulated).label(),
            "tc+promo64+cost-reg"
        );
    }
}
