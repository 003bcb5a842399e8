//! The named configuration registry.
//!
//! Every driver — `tw`, `paper`, the examples — resolves configuration
//! names through this table, and `tw list` prints it. Adding a preset
//! here is the whole job: parsing, listing, and the standard comparison
//! set all follow. Workload names resolve through [`find_bench`], and
//! fault specifications through [`fault_plan`].

use tc_core::PackingPolicy;
use tc_fault::{FaultLocus, FaultPlan};
use tc_workloads::WorkloadId;

use crate::config::SimConfig;
use crate::harness::error::TwError;

/// A named, buildable configuration preset.
pub struct ConfigPreset {
    /// Canonical CLI name.
    pub name: &'static str,
    /// Accepted alternate spellings (the paper's figures write
    /// `promo+pack`; the CLI historically accepted `promo-pack`).
    pub aliases: &'static [&'static str],
    /// One-line description for `tw list`.
    pub summary: &'static str,
    build: fn() -> SimConfig,
}

impl ConfigPreset {
    /// Builds a fresh configuration for this preset.
    #[must_use]
    pub fn build(&self) -> SimConfig {
        (self.build)()
    }

    /// Whether `name` names this preset (canonical or alias).
    #[must_use]
    pub fn matches(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

/// The registry, in the paper's presentation order.
static PRESETS: [ConfigPreset; 6] = [
    ConfigPreset {
        name: "icache",
        aliases: &[],
        summary: "128 KB instruction cache, hybrid predictor (reference front end)",
        build: SimConfig::icache,
    },
    ConfigPreset {
        name: "baseline",
        aliases: &["tc"],
        summary: "128 KB trace cache, gshare multiple-branch predictor (section 3)",
        build: SimConfig::baseline,
    },
    ConfigPreset {
        name: "packing",
        aliases: &["pack"],
        summary: "baseline + unregulated trace packing (section 5)",
        build: build_packing,
    },
    ConfigPreset {
        name: "promotion",
        aliases: &["promo"],
        summary: "baseline + branch promotion at threshold 64 (section 4)",
        build: build_promotion,
    },
    ConfigPreset {
        name: "promo-pack",
        aliases: &["promo+pack", "headline-fetch"],
        summary: "promotion (t=64) + unregulated packing (Figure 10's best fetch rate)",
        build: SimConfig::headline_fetch,
    },
    ConfigPreset {
        name: "headline",
        aliases: &["headline-perf", "promo-pack-cost"],
        summary: "promotion (t=64) + cost-regulated packing (Figure 11's machine)",
        build: SimConfig::headline_perf,
    },
];

fn build_packing() -> SimConfig {
    SimConfig::packing(PackingPolicy::Unregulated)
}

fn build_promotion() -> SimConfig {
    SimConfig::promotion(64)
}

/// All presets, in presentation order.
#[must_use]
pub fn presets() -> &'static [ConfigPreset] {
    &PRESETS
}

/// Finds a preset by canonical name or alias.
#[must_use]
pub fn preset(name: &str) -> Option<&'static ConfigPreset> {
    PRESETS.iter().find(|p| p.matches(name))
}

/// Builds the configuration a name refers to.
#[must_use]
pub fn lookup(name: &str) -> Option<SimConfig> {
    preset(name).map(ConfigPreset::build)
}

/// Finds a workload of either family by name or short name.
#[must_use]
pub fn find_bench(name: &str) -> Option<WorkloadId> {
    WorkloadId::all()
        .into_iter()
        .find(|b| b.name() == name || b.short_name() == name)
}

/// Builds the fault plan that a request's fault fields describe: the
/// one rule both front doors share (`tw sim`/`tw compare` flags and
/// `/v1/sim` fields). No field at all means no plan. Otherwise:
///
/// * exactly one of `rate` and `cycles` is given;
/// * the rate lies in (0, 1];
/// * cycle and target lists are not empty, and each target names a
///   [`FaultLocus`] (no target list means every locus);
/// * the seed defaults to 1.
///
/// # Errors
///
/// A usage error naming the first rule the fields break.
pub fn fault_plan(
    seed: Option<u64>,
    rate: Option<f64>,
    cycles: Option<Vec<u64>>,
    targets: Option<&[&str]>,
) -> Result<Option<FaultPlan>, TwError> {
    if rate.is_none() && cycles.is_none() {
        return match (seed, targets) {
            (None, None) => Ok(None),
            _ => Err(TwError::usage(
                "a fault seed or target list needs a fault rate or a cycle list",
            )),
        };
    }
    let seed = seed.unwrap_or(1);
    let plan = match (rate, cycles) {
        (Some(_), Some(_)) => {
            return Err(TwError::usage(
                "a fault plan takes a rate or a cycle list, not both",
            ))
        }
        (Some(rate), None) if rate > 0.0 && rate <= 1.0 => FaultPlan::with_rate(seed, rate),
        (Some(rate), None) => {
            return Err(TwError::usage(format!(
                "fault rate {rate} is outside (0, 1]"
            )))
        }
        (None, Some(cycles)) if !cycles.is_empty() => FaultPlan::at_cycles(seed, cycles),
        (None, _) => return Err(TwError::usage("empty fault cycle list")),
    };
    let Some(names) = targets else {
        return Ok(Some(plan));
    };
    if names.is_empty() {
        return Err(TwError::usage("empty fault target list"));
    }
    let loci = names
        .iter()
        .map(|name| FaultLocus::parse(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(TwError::usage)?;
    Ok(Some(plan.targeting(&loci)))
}

/// The five standard front ends of Figure 10, in column order: the
/// first five presets.
pub const STANDARD_FIVE: [&str; 5] = [
    PRESETS[0].name,
    PRESETS[1].name,
    PRESETS[2].name,
    PRESETS[3].name,
    PRESETS[4].name,
];

/// Builds Figure 10's five standard configurations with their names.
#[must_use]
pub fn standard_five() -> [(&'static str, SimConfig); 5] {
    std::array::from_fn(|i| (PRESETS[i].name, PRESETS[i].build()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_alias_resolves() {
        for p in presets() {
            assert!(lookup(p.name).is_some(), "{} missing", p.name);
            for a in p.aliases {
                assert!(lookup(a).is_some(), "alias {a} missing");
            }
        }
        assert!(lookup("no-such-config").is_none());
    }

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in presets() {
            assert!(seen.insert(p.name), "duplicate name {}", p.name);
            for a in p.aliases {
                assert!(seen.insert(a), "duplicate alias {a}");
            }
        }
    }

    #[test]
    fn standard_five_matches_figure_10() {
        let five = standard_five();
        assert_eq!(five.len(), 5);
        assert_eq!(five[0].0, "icache");
        assert_eq!(five[4].0, "promo-pack");
        // The combined front end really carries both techniques.
        let combined = &five[4].1;
        assert!(combined.front_end.promotion.is_some());
    }

    #[test]
    fn fault_fields_follow_one_rule() {
        let usage = |seed, rate, cycles, targets: Option<&[&str]>| match fault_plan(
            seed, rate, cycles, targets,
        ) {
            Err(TwError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        };
        assert_eq!(fault_plan(None, None, None, None), Ok(None));
        assert!(usage(Some(7), None, None, None).contains("needs a fault rate"));
        assert!(usage(None, None, None, Some(&["ras"])).contains("needs a fault rate"));
        assert!(usage(None, Some(0.1), Some(vec![5]), None).contains("not both"));
        for rate in [0.0, -1.0, 1.5, f64::INFINITY] {
            assert!(usage(None, Some(rate), None, None).contains("outside (0, 1]"));
        }
        assert!(usage(None, None, Some(Vec::new()), None).contains("empty fault cycle"));
        assert!(usage(None, Some(0.1), None, Some(&[])).contains("empty fault target"));
        assert!(usage(None, Some(0.1), None, Some(&["bogus"])).contains("bogus"));

        let plan = fault_plan(None, Some(1.0), None, None).unwrap().unwrap();
        assert_eq!(plan, FaultPlan::with_rate(1, 1.0), "the seed defaults to 1");
        let plan = fault_plan(
            Some(3),
            None,
            Some(vec![30, 10, 10]),
            Some(&["ras", "bias"]),
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.cycles, [10, 30]);
        assert_eq!(plan.enabled_targets(), [FaultLocus::Bias, FaultLocus::Ras]);
    }

    #[test]
    fn aliases_build_identical_configs() {
        assert_eq!(
            lookup("promo-pack").unwrap().label(),
            lookup("promo+pack").unwrap().label()
        );
        assert_eq!(
            lookup("headline").unwrap().label(),
            lookup("headline-perf").unwrap().label()
        );
    }
}
