//! Deterministic, seeded fault injection for the trace-weave front end.
//!
//! A [`FaultPlan`] describes *when* faults strike (a per-cycle rate, an
//! explicit cycle list, or never) and *what* they may hit (a set of
//! [`FaultLocus`] targets). A [`FaultInjector`] turns the plan into a
//! deterministic per-cycle schedule: the same seed and plan always
//! produce the same sequence of `(cycle, locus, entropy)` draws, so a
//! fault run is exactly reproducible — serial or parallel.
//!
//! This crate decides *scheduling* only. Applying a fault to live
//! front-end state (corrupting a segment, flipping a counter) is done by
//! mutation hooks on `tc-core` / `tc-predict` structures, driven by the
//! simulator; [`FaultStats`] aggregates what happened. The crate is
//! deliberately tiny and dependency-light (only `tc-trace`, for the
//! shared [`FaultLocus`] vocabulary) so any layer can talk about plans.

pub use tc_trace::FaultLocus;

pub mod chaos;

/// Aggregate outcome counters for one fault run.
///
/// `injected` counts faults actually applied to live state (a draw that
/// found nothing to perturb — an empty RAS, say — is not counted).
/// `detected` counts sanitizer catches at fill or hit time plus
/// architectural-divergence catches at dispatch; `recovered` counts
/// faults neutralized (quarantine + i-cache refetch, dropped fill, or
/// self-healing predictor state); `escaped` counts corruptions that got
/// past the sanitizer and had to be caught by the dispatch-time oracle
/// check. `recovery_cycles` is the fetch-cycle cost attributed to
/// recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults applied to live front-end state.
    pub injected: u64,
    /// Corruptions caught (sanitizer or dispatch-time divergence).
    pub detected: u64,
    /// Faults neutralized without architectural effect.
    pub recovered: u64,
    /// Corruptions that escaped the sanitizer and reached dispatch.
    pub escaped: u64,
    /// Fetch cycles spent on the recovery path.
    pub recovery_cycles: u64,
}

/// When and what a fault run injects. Construct with [`FaultPlan::none`]
/// and the builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for the injection schedule and site selection.
    pub seed: u64,
    /// Per-cycle injection probability in `[0, 1]`.
    pub rate: f64,
    /// Explicit injection cycles (in addition to any rate), sorted.
    pub cycles: Vec<u64>,
    /// Enabled targets, as a bitmask over [`FaultLocus::ALL`] indices.
    targets: u8,
}

impl FaultPlan {
    /// The empty plan: injects nothing. Runs under `FaultPlan::none()`
    /// behave bit-identically to runs with no plan at all.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate: 0.0,
            cycles: Vec::new(),
            targets: FaultPlan::ALL_TARGETS,
        }
    }

    const ALL_TARGETS: u8 = (1 << FaultLocus::ALL.len()) - 1;

    /// A rate-driven plan: each cycle injects with probability `rate`
    /// (clamped to `[0, 1]`), targeting every locus.
    #[must_use]
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            ..FaultPlan::none()
        }
    }

    /// A plan that injects exactly at the given cycles.
    #[must_use]
    pub fn at_cycles(seed: u64, mut cycles: Vec<u64>) -> FaultPlan {
        cycles.sort_unstable();
        cycles.dedup();
        FaultPlan {
            seed,
            cycles,
            ..FaultPlan::none()
        }
    }

    /// Restricts the plan to the given targets (empty slice = all).
    #[must_use]
    pub fn targeting(mut self, targets: &[FaultLocus]) -> FaultPlan {
        if targets.is_empty() {
            self.targets = FaultPlan::ALL_TARGETS;
        } else {
            self.targets = 0;
            for t in targets {
                self.targets |= 1 << locus_index(*t);
            }
        }
        self
    }

    /// Whether the plan can ever inject anything.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.rate <= 0.0 && self.cycles.is_empty()
    }

    /// Whether `locus` is an enabled target.
    #[must_use]
    pub fn targets(&self, locus: FaultLocus) -> bool {
        self.targets & (1 << locus_index(locus)) != 0
    }

    /// The enabled targets, in [`FaultLocus::ALL`] order.
    #[must_use]
    pub fn enabled_targets(&self) -> Vec<FaultLocus> {
        FaultLocus::ALL
            .into_iter()
            .filter(|l| self.targets(*l))
            .collect()
    }

    /// A short stable label distinguishing this plan in configuration
    /// labels (and therefore in matrix-runner cache keys).
    #[must_use]
    pub fn label(&self) -> String {
        let targets = if self.targets == FaultPlan::ALL_TARGETS {
            "all".to_string()
        } else {
            self.enabled_targets()
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join("+")
        };
        if self.cycles.is_empty() {
            format!("faults[s{},r{:e},{targets}]", self.seed, self.rate)
        } else {
            format!("faults[s{},c{},{targets}]", self.seed, self.cycles.len())
        }
    }
}

fn locus_index(locus: FaultLocus) -> u8 {
    FaultLocus::ALL
        .iter()
        .position(|l| *l == locus)
        .map_or(0, |i| i as u8)
}

/// One scheduled injection: the locus to perturb plus 64 bits of
/// entropy for site selection inside the targeted structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDraw {
    /// The structure to perturb.
    pub locus: FaultLocus,
    /// Entropy for picking the exact site (set, way, entry, bit).
    pub entropy: u64,
}

/// Turns a [`FaultPlan`] into a deterministic per-cycle schedule.
///
/// Polled once per simulated cycle; every poll consumes the same number
/// of RNG draws for a given plan shape, so the schedule is a pure
/// function of `(seed, rate, cycles, targets)` and the polled cycle
/// sequence.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    /// `rate` scaled to a u64 threshold: fault when `draw < threshold`.
    threshold: u64,
    next_cycle_idx: usize,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        // 2^64 * rate, saturating; rate 1.0 maps to u64::MAX.
        let threshold = if plan.rate >= 1.0 {
            u64::MAX
        } else {
            (plan.rate * (u64::MAX as f64)) as u64
        };
        FaultInjector {
            rng: SplitMix64::new(plan.seed ^ 0x9e37_79b9_7f4a_7c15),
            threshold,
            next_cycle_idx: 0,
            plan,
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Polls the schedule for `cycle`; returns the injection to apply,
    /// if any. At most one fault per poll. A scheduled cycle the caller
    /// jumps over (stalls advance the clock by more than one) fires on
    /// the first poll at or after it, so explicit-cycle plans never
    /// lose faults to timing.
    pub fn poll(&mut self, cycle: u64) -> Option<FaultDraw> {
        let mut fire = false;
        while self
            .plan
            .cycles
            .get(self.next_cycle_idx)
            .is_some_and(|c| *c <= cycle)
        {
            fire = true;
            self.next_cycle_idx += 1;
        }
        if self.threshold > 0 && self.rng.next_u64() < self.threshold {
            fire = true;
        }
        if !fire {
            return None;
        }
        let enabled = self.plan.enabled_targets();
        if enabled.is_empty() {
            return None;
        }
        let pick = self.rng.next_u64();
        let locus = enabled[(pick % enabled.len() as u64) as usize];
        Some(FaultDraw {
            locus,
            entropy: self.rng.next_u64(),
        })
    }
}

/// The vendored deterministic generator (Sebastiano Vigna's SplitMix64,
/// public domain): one u64 of state, passes BigCrush, and is the same
/// seeding primitive `tc-workloads` uses — kept local so this crate
/// stays a leaf. Public because the [`chaos`] layer and the serve
/// clients reuse it for connection-fault draws and backoff jitter.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for cycle in 0..10_000 {
            assert_eq!(inj.poll(cycle), None);
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::with_rate(42, 1e-2);
        let draws = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..50_000).filter_map(|c| inj.poll(c)).collect::<Vec<_>>()
        };
        let a = draws(plan.clone());
        let b = draws(plan);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "1e-2 over 50k cycles must fire");
    }

    #[test]
    fn rate_roughly_matches_over_many_cycles() {
        let mut inj = FaultInjector::new(FaultPlan::with_rate(7, 1e-2));
        let fired = (0..100_000).filter(|c| inj.poll(*c).is_some()).count();
        assert!(
            (500..2000).contains(&fired),
            "expected ~1000 faults at 1e-2 over 100k cycles, got {fired}"
        );
    }

    #[test]
    fn explicit_cycles_fire_exactly() {
        let plan = FaultPlan::at_cycles(1, vec![5, 17, 17, 3]);
        let mut inj = FaultInjector::new(plan);
        let fired: Vec<u64> = (0..100).filter(|c| inj.poll(*c).is_some()).collect();
        assert_eq!(fired, [3, 5, 17]);
    }

    #[test]
    fn targeting_restricts_the_locus() {
        let plan = FaultPlan::with_rate(9, 1.0).targeting(&[FaultLocus::Bias]);
        let mut inj = FaultInjector::new(plan);
        for cycle in 0..100 {
            let draw = inj.poll(cycle).expect("rate 1.0 always fires");
            assert_eq!(draw.locus, FaultLocus::Bias);
        }
    }

    #[test]
    fn labels_distinguish_plans_and_parse_targets() {
        assert_ne!(
            FaultPlan::with_rate(1, 1e-3).label(),
            FaultPlan::with_rate(2, 1e-3).label()
        );
        assert_ne!(
            FaultPlan::with_rate(1, 1e-3).label(),
            FaultPlan::at_cycles(1, vec![10]).label()
        );
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::with_rate(0, 0.5).is_none());
        assert_eq!(FaultLocus::parse("ras"), Ok(FaultLocus::Ras));
        assert!(FaultLocus::parse("bogus").is_err());
        for locus in FaultLocus::ALL {
            assert_eq!(FaultLocus::parse(locus.name()), Ok(locus));
        }
    }
}
