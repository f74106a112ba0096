//! `rbdperf`: the benchmark command.
//!
//! ```text
//! rbdperf --workload NAME --seed N --seconds S --trace 0|1
//! rbdperf steady
//! ```
//!
//! Run from the repository root. The first form runs one workload and
//! prints its result as the last line of standard output: end-to-end
//! metrics with `--trace 0`, per-layer metrics from the traced pass with
//! `--trace 1`. The same object (plus any failed checks) is written to
//! `.rbdperf/results/`. The second form runs every workload of
//! `BENCHMARK.json` ten times (seeds 1–10, `run_seconds` each) and prints
//! each end-to-end metric's run-to-run spread next to its bound.

use rbd_json::Json;
use rbdperf::layers;
use rbdperf::report::{self, RunResult};
use rbdperf::steady::{self, Contract};
use rbdperf::workloads::{self, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args == ["steady"] {
        steady_command()
    } else {
        run_command(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rbdperf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("expected --name value pairs, got {args:?}"));
    }
    args.chunks(2)
        .map(|pair| match pair[0].strip_prefix("--") {
            Some(name) => Ok((name, pair[1].as_str())),
            None => Err(format!("unexpected argument {}", pair[0])),
        })
        .collect()
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name} wants a number, got {value}"))
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    for (name, value) in flags(args)? {
        match name {
            "workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "seed" => seed = number(name, value)?,
            "seconds" => seconds = number(name, value)?,
            "trace" => trace = number::<u8>(name, value)? != 0,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let scratch =
        root.join(".rbdperf/tmp")
            .join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let opts = Opts {
        seed,
        seconds,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch: scratch.clone(),
    };
    let result = if trace {
        layers::run(workload, &opts)
    } else {
        workloads::run(workload, &opts)
    };
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("warning: cannot remove {}: {e}", scratch.display());
    }
    let result = result?;
    for problem in &result.problems {
        eprintln!("check failed: {problem}");
    }
    save(&root, workload, seed, trace, &result)?;
    println!("{}", result.to_json().to_compact());
    Ok(ExitCode::SUCCESS)
}

/// Writes the result, with the failed checks, next to earlier results.
fn save(
    root: &std::path::Path,
    workload: Workload,
    seed: u64,
    trace: bool,
    result: &RunResult,
) -> Result<(), String> {
    let kind = if trace { "layers" } else { "end_to_end" };
    let path: PathBuf = root
        .join(".rbdperf/results")
        .join(format!("{}-seed{seed}-{kind}.json", workload.name()));
    let mut json = result.to_json();
    if let Json::Object(members) = &mut json {
        members.push((
            "problems".to_owned(),
            Json::array(result.problems.iter().map(|p| Json::Str(p.clone()))),
        ));
    }
    report::write_json(&path, &json).map_err(|e| format!("{}: {e}", path.display()))
}

fn steady_command() -> Result<ExitCode, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let contract = Contract::parse(&text)?;
    Ok(if steady::run(&contract)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
