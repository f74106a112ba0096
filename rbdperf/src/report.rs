//! The result a run prints: correctness, operation counts and metrics.

use rbd_json::Json;
use std::path::Path;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`, `MiB/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations (documents or requests) attempted.
    pub attempted: u64,
    /// Operations that returned an error instead of an answer.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced pass).
    pub metrics: Vec<Metric>,
    /// Why a check failed, one line each (printed to stderr, not in the
    /// result line). The run is `correct` when this is empty.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records a failed check; the run is then not correct.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// The single-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::object([
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `json` (pretty) to `path`, creating parent directories.
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            problems: Vec::new(),
        };
        let line = r.to_json().to_compact();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        r.problem("separator floor missed");
        assert_eq!(
            Json::parse(&r.to_json().to_compact())
                .unwrap()
                .get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
