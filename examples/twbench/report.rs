//! What one workload run measured and checked, and how it is printed:
//! one `workload metric value unit` line per metric, then a final JSON
//! line holding exactly the metrics `BENCHMARK.json` lists for the mode.

use tc_sim::harness::Json;

use crate::spec::MetricSpec;
use crate::stats::Summary;

/// Failure lines printed before further ones are only counted.
const MAX_FAIL_LINES: u64 = 20;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The samples behind a timing.
    pub dist: Option<Summary>,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the simulated results, equal between traced and
    /// untraced runs of one seed.
    pub digest: u64,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: 0,
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            dist: None,
        });
    }

    /// A value derived from timed samples, printed with their summary.
    fn measured(&mut self, name: &'static str, value: f64, unit: &'static str, dist: Summary) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            dist: Some(dist),
        });
    }

    /// A timing reported as the median of its samples.
    pub fn timing(&mut self, name: &'static str, dist: Summary, unit: &'static str) {
        self.measured(name, dist.median, unit, dist);
    }

    /// A timing reported as the 99th percentile of its samples.
    pub fn p99(&mut self, name: &'static str, dist: Summary, unit: &'static str) {
        self.measured(name, dist.p99, unit, dist);
    }

    /// Counts one checked operation, failing it when `problem` is set.
    pub fn check(&mut self, op: &str, problem: Option<String>) {
        match problem {
            Some(reason) => self.fail(op, &reason),
            None => self.attempted += 1,
        }
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, op: &str, reason: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= MAX_FAIL_LINES {
            eprintln!("twbench: FAIL {} {op} {reason}", self.workload);
        } else if self.failed == MAX_FAIL_LINES + 1 {
            eprintln!(
                "twbench: FAIL {} ... further failures counted only",
                self.workload
            );
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn print_lines(&self) {
        for m in &self.metrics {
            let mut line = format!("{} {} {} {}", self.workload, m.name, fmt(m.value), m.unit);
            if let Some(d) = m.dist {
                line.push_str(&format!(
                    " (samples: median {} q1 {} q3 {} p90 {} p99 {} n {})",
                    fmt(d.median),
                    fmt(d.q1),
                    fmt(d.q3),
                    fmt(d.p90),
                    fmt(d.p99),
                    d.n
                ));
            }
            println!("{line}");
        }
        println!(
            "{} fail_pct {} % ({} of {} operations)",
            self.workload,
            fmt(100.0 * self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        println!("{} digest {:#018x}", self.workload, self.digest);
    }

    /// The result line: the listed metrics, each checked present, finite
    /// and in its listed unit. A missing or malformed one fails the run.
    pub fn result_json(&mut self, wanted: &[MetricSpec]) -> String {
        let mut members = Vec::new();
        let mut problems = Vec::new();
        for spec in wanted {
            match self.get(&spec.name) {
                Some(m) if m.unit != spec.unit => problems.push(format!(
                    "metric {} is in {} but BENCHMARK.json lists {}",
                    spec.name, m.unit, spec.unit
                )),
                Some(m) if !m.value.is_finite() => {
                    problems.push(format!("metric {} is not finite", spec.name));
                }
                Some(m) => members.push((
                    m.name,
                    Json::Object(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )),
                None => problems.push(format!("metric {} was not measured", spec.name)),
            }
        }
        for p in problems {
            self.fail("report", &p);
        }
        Json::Object(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(members)),
        ])
        .render()
    }
}

/// Full-precision rendering: the shortest form that round-trips.
pub fn fmt(x: f64) -> String {
    format!("{x}")
}
