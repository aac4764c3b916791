//! `sms-benchmark`: one benchmark for the whole system.
//!
//! ```text
//! sms-benchmark run --workload <name|all> --seed <u64> [--seconds <s>]
//!                   [--trace [0|1]] [--smoke] [--out <file>]
//! sms-benchmark compare <A.json…> -- <B.json…>
//! ```
//!
//! `run` prints every metric by name with its unit and sample count,
//! verifies the program's outputs, and ends its standard output with one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). It exits
//! non-zero when a check fails. See README.md.

mod catalog;
mod compare;
mod host;
mod inputs;
mod output;
mod report;
mod serve_stage;
mod sim_stage;
mod spans;
mod stats;
#[cfg(test)]
mod stub_conformance;
mod workflow_stage;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::catalog::WORKLOADS;
use crate::inputs::{Sizes, FULL, REFERENCE_SEED, SMOKE};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Settings of the product that would change what is measured. The
/// benchmark refuses to run with any of them set.
const FORBIDDEN_ENV: [&str; 6] = [
    "SMS_FAULTS",
    "SMS_RETRIES",
    "SMS_RUN_TIMEOUT_SECS",
    "SMS_SIM_THREADS",
    "SMS_BUDGET",
    "SMS_SEED",
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = value(args, &mut i, "--workload")?.to_owned(),
            "--seed" => {
                out.seed = value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value(args, &mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value(args, &mut i, "--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if out.workload != "all" && !WORKLOADS.iter().any(|w| w.name == out.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be `all` or one of {names:?}"));
    }
    Ok(out)
}

fn guard_rails() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".to_owned());
    }
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!("unset {set:?}: they change what the product does"));
    }
    Ok(())
}

fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

fn trace_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_owned();
    name.push(".trace.json");
    PathBuf::from(name)
}

fn write_out(
    args: &RunArgs,
    out: &Path,
    entries: &BTreeMap<String, serde_json::Value>,
) -> Result<(), String> {
    let header = output::Header {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: sizes(args.smoke).label,
    };
    output::write_result(out, &header, entries).map_err(|e| format!("{}: {e}", out.display()))
}

/// Run one workload in this process. Returns whether it was correct.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let sizes = sizes(args.smoke);
    let run = workload::run(&args.workload, args.seed, args.seconds, args.trace, sizes)?;
    output::print_human(&args.workload, &run.report);
    if args.trace {
        println!("{}", spans::render_table(&spans::table(&run.spans)));
    }
    if let Some(out) = &args.out {
        let entries = BTreeMap::from([(args.workload.clone(), output::result_entry(&run.report))]);
        write_out(args, out, &entries)?;
        if args.trace {
            let path = trace_path(out);
            std::fs::write(&path, spans::chrome_trace(&run.spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{}", output::contract_line(&run.report));
    Ok(run.report.correct())
}

/// Run every workload, each in a fresh child process, so that one's heap
/// and page cache are not another's and `VmHWM` is the workload's own.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let scratch = host::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut entries = BTreeMap::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let child_out = scratch.path().join(format!("{}.json", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("start {}: {e}", w.name))?;
        all_correct &= status.success();
        if let Ok(mut read) = output::read_result(&child_out) {
            entries.append(&mut read);
        }
        if let (Some(out), true) = (&args.out, args.trace) {
            // `<out>.<workload>.trace.json`. Best effort: a child that
            // failed early wrote no trace.
            let mut to = out.as_os_str().to_owned();
            to.push(format!(".{}", w.name));
            let _ = std::fs::rename(trace_path(&child_out), trace_path(Path::new(&to)));
        }
    }
    if let Some(out) = &args.out {
        write_out(args, out, &entries)?;
    }
    Ok(all_correct)
}

fn parse_compare(args: &[String]) -> Result<(Vec<PathBuf>, Vec<PathBuf>), String> {
    let mut sides = args.splitn(2, |a| a == "--");
    let mut paths = || -> Vec<PathBuf> {
        sides
            .next()
            .unwrap_or_default()
            .iter()
            .map(PathBuf::from)
            .collect()
    };
    let (a, b) = (paths(), paths());
    if a.is_empty() || b.is_empty() {
        return Err("usage: compare <A.json…> -- <B.json…>".to_owned());
    }
    Ok((a, b))
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run(&args[1..])?;
            guard_rails()?;
            if run.workload == "all" {
                run_all(&run)
            } else {
                run_one(&run)
            }
        }
        Some("compare") => {
            let (a, b) = parse_compare(&args[1..])?;
            compare::compare(&a, &b)
        }
        _ => Err("usage: sms-benchmark run|compare … (see benchmark/README.md)".to_owned()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("sms-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn run_arguments_in_the_pipeline_form_and_the_short_form() {
        let a = parse_run(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 9, 20.0, false)
        );
        let b = parse_run(&strings(&[
            "--workload",
            "all",
            "--trace",
            "--out",
            "r.json",
        ]))
        .expect("parses");
        assert!(b.trace);
        assert_eq!(b.seed, REFERENCE_SEED);
        assert_eq!(b.out, Some(PathBuf::from("r.json")));
        assert!(parse_run(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run(&strings(&["--workload", "serve", "--seconds", "0"])).is_err());
    }

    #[test]
    fn default_seconds_is_the_specs_run_seconds() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("parses");
        assert_eq!(spec["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn compare_arguments_split_at_the_double_dash() {
        let (a, b) = parse_compare(&strings(&["a1", "a2", "--", "b1"])).expect("parses");
        assert_eq!((a.len(), b.len()), (2, 1));
        assert!(parse_compare(&strings(&["a1", "--"])).is_err());
    }
}
