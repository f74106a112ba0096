//! The steadiness command: runs every workload repeatedly, each run with
//! another seed, and prints each end-to-end metric's run-to-run spread
//! next to its bound from `BENCHMARK.json`.

use crate::stats;
use rbd_json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Allowed worsening as a share of the median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the steadiness check needs.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metric bounds.
    pub bounds: Vec<Bound>,
    /// Seconds per run.
    pub run_seconds: u64,
}

impl Contract {
    /// Parses `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))
        };
        let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_owned);
        let workloads = list("workloads")?
            .iter()
            .map(|w| str_of(w, "name").ok_or("a workload has no name"))
            .collect::<Result<Vec<_>, _>>()?;
        let bounds = list("end_to_end")?
            .iter()
            .map(|m| {
                Some(Bound {
                    name: str_of(m, "name")?,
                    bound: m.get("bound")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("an end_to_end metric lacks a name or a bound")?;
        let run_seconds = json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")? as u64;
        Ok(Contract {
            workloads,
            bounds,
            run_seconds,
        })
    }
}

/// One run's parsed result line.
#[derive(Debug, Clone)]
pub struct RunLine {
    /// Checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunLine {
    /// Parses the last line of a run's standard output.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let line = stdout.lines().last().ok_or("run printed nothing")?;
        let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let count = |key: &str| json.get(key).and_then(Json::as_f64).map(|x| x as u64);
        let metrics = match json.get("metrics") {
            Some(Json::Object(members)) => members
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => return Err("result line has no metrics object".to_owned()),
        };
        Ok(RunLine {
            correct: json.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted").ok_or("no attempted count")?,
            failed: count("failed").ok_or("no failed count")?,
            metrics,
        })
    }
}

/// Runs per workload; run `i` uses seed `i + 1`.
pub const RUNS: u64 = 10;

/// Runs every workload of the contract [`RUNS`] times for its
/// `run_seconds`; returns `true` when every spread is within its bound and
/// every run was correct with the same failed share.
pub fn run(contract: &Contract) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = contract.run_seconds;
    let mut steady = true;
    for workload in &contract.workloads {
        let mut lines = Vec::new();
        for seed in 1..=RUNS {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{workload} seed {seed} exited with {}: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let line = RunLine::parse(&stdout)?;
            eprintln!(
                "{workload} seed {seed}: correct={} attempted={} failed={}",
                line.correct, line.attempted, line.failed
            );
            lines.push(line);
        }
        steady &= report(workload, contract, &lines);
    }
    Ok(steady)
}

/// Prints one workload's table; returns `true` when it is steady.
pub fn report(workload: &str, contract: &Contract, lines: &[RunLine]) -> bool {
    let mut steady = true;
    println!("{workload} ({} runs)", lines.len());
    println!(
        "  {:<18} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for bound in &contract.bounds {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| l.metrics.get(&bound.name).copied())
            .collect();
        if values.is_empty() {
            continue;
        }
        let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
        let median = stats::median(&values).unwrap_or(f64::NAN);
        let spread = stats::spread(&values).unwrap_or(f64::INFINITY);
        let verdict = if values.len() != lines.len() {
            "MISSING in some runs"
        } else if spread <= bound.bound / 3.0 {
            "steady"
        } else if spread <= bound.bound {
            "within bound"
        } else {
            "UNSTEADY"
        };
        steady &= verdict == "steady" || verdict == "within bound";
        println!(
            "  {:<18} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>6.0}%  {verdict}",
            bound.name,
            q1,
            median,
            q3,
            100.0 * spread,
            100.0 * bound.bound
        );
    }
    let correct = lines.iter().all(|l| l.correct);
    let shares: Vec<(u64, u64)> = lines.iter().map(|l| (l.failed, l.attempted)).collect();
    let same_share = shares
        .windows(2)
        .all(|w| w[0].0 * w[1].1 == w[1].0 * w[0].1);
    println!("  all runs correct: {correct}; failed share identical in every run: {same_share}");
    steady && correct && same_share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_and_a_result_line() {
        let contract = Contract::parse(
            r#"{"command":["x"],"paths":["p"],"run_seconds":10,
                "workloads":[{"name":"a","why":"w"}],
                "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[]}"#,
        )
        .unwrap();
        assert_eq!(contract.workloads, ["a"]);
        assert_eq!(contract.bounds[0].bound, 0.25);
        let line = RunLine::parse(
            "noise\n{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}",
        )
        .unwrap();
        assert!(line.correct);
        assert_eq!(line.metrics["setup_s"], 0.5);
    }

    #[test]
    fn an_unsteady_metric_fails_the_report() {
        let contract = Contract {
            workloads: vec!["a".into()],
            bounds: vec![Bound {
                name: "m".into(),
                bound: 0.1,
            }],
            run_seconds: 1,
        };
        let line = |v: f64| RunLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: BTreeMap::from([("m".to_owned(), v)]),
        };
        let tight: Vec<RunLine> = [1.0, 1.01, 0.99, 1.0, 1.02].map(line).to_vec();
        assert!(report("a", &contract, &tight));
        let loose: Vec<RunLine> = [1.0, 2.0, 0.5, 1.5, 0.7].map(line).to_vec();
        assert!(!report("a", &contract, &loose));
        let mut uneven = tight.clone();
        uneven[0].failed = 1;
        assert!(!report("a", &contract, &uneven));
    }
}
