//! The benchmark's definition, read from `BENCHMARK.json` at the
//! repository root: workload names, and each metric's unit, direction
//! and regression bound. The program emits exactly the metrics listed
//! there, so the file stays the single place they are defined.

use std::path::{Path, PathBuf};

use tc_sim::harness::{parse_json, Value};

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Seconds one run measures (`run_seconds`).
    pub run_seconds: f64,
    /// The benchmark's own directory: the first of `paths`, under the
    /// directory that holds `BENCHMARK.json`.
    pub dir: PathBuf,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// The metrics a run in this mode must report.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// `BENCHMARK.json` in the nearest directory at or above the manifest
/// this program was built from: the repository root, whether it was
/// built as this package or as the root package's example.
pub fn default_path() -> PathBuf {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .ancestors()
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|path| path.is_file())
        .unwrap_or_else(|| manifest_dir.join("BENCHMARK.json"))
}

pub fn load(path: &Path) -> Result<BenchSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{}: missing array {key:?}", path.display()))
    };
    let text_field = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: entry without string {key:?}", path.display()))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text_field(m, "name")?,
                    unit: text_field(m, "unit")?,
                    higher_is_better: text_field(m, "better")? == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let dir = list("paths")?
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: \"paths\" names no directory", path.display()))?;
    Ok(BenchSpec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .filter(|s| *s > 0.0)
            .ok_or_else(|| format!("{}: missing positive \"run_seconds\"", path.display()))?,
        dir: path.parent().unwrap_or(Path::new(".")).join(dir),
        workloads: list("workloads")?
            .iter()
            .map(|w| text_field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
