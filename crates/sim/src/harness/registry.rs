//! The named configuration registry.
//!
//! Every driver — `tw`, `paper`, the examples — resolves configuration
//! names through this table, and `tw list` prints it. Adding a preset
//! here is the whole job: parsing, listing, and the standard comparison
//! set all follow. Workload names resolve through [`find_bench`].

use tc_core::PackingPolicy;
use tc_workloads::WorkloadId;

use crate::config::SimConfig;

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
