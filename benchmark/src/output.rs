//! Printing a run, and the result file `compare` reads back.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{json, Map, Value};

use crate::catalog::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};
use crate::host::fingerprint;
use crate::report::Report;

pub const RESULT_SCHEMA: &str = "sms-benchmark-result/1";

/// Every metric by name with its unit and sample count, then the checks.
pub fn print_human(workload: &str, report: &Report) {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    println!("== {workload}: {why}");
    let order = END_TO_END
        .iter()
        .map(|m| (m.name, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better)));
    for (name, better) in order {
        if let Some(m) = report.metrics.get(name) {
            println!(
                "{name:<28} {:>16.6} {:<6} n={:<6} {} is better",
                m.value,
                unit_of(name).unwrap_or(""),
                m.n,
                better.as_str()
            );
        }
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        report.attempted, report.failed
    );
    for (k, v) in &report.notes {
        println!("note  {k}: {v}");
    }
    for c in &report.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
}

/// The metrics as a JSON object; `with_n` adds each sample count.
fn metrics_value(report: &Report, with_n: bool) -> Value {
    let metrics: Map<String, Value> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let mut entry = Map::new();
            entry.insert("value".to_owned(), json!(m.value));
            entry.insert("unit".to_owned(), json!(unit_of(name).unwrap_or("")));
            if with_n {
                entry.insert("n".to_owned(), json!(m.n));
            }
            ((*name).to_owned(), Value::Object(entry))
        })
        .collect();
    Value::Object(metrics)
}

/// The one JSON object the pipeline reads from the last line of stdout.
pub fn contract_line(report: &Report) -> String {
    json!({
        "correct": report.correct(),
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": metrics_value(report, false),
    })
    .to_string()
}

/// One workload's entry of a result file.
pub fn result_entry(report: &Report) -> Value {
    let checks: Vec<Value> = report
        .checks
        .iter()
        .map(|c| json!({ "name": c.name, "ok": c.ok, "detail": c.detail }))
        .collect();
    json!({
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics_value(report, true),
        "checks": checks,
        "notes": report.notes,
    })
}

/// Facts about the run that are not results.
pub struct Header<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: &'a str,
}

/// Write the result file: header, host fingerprint, one entry per workload.
pub fn write_result(
    path: &Path,
    header: &Header<'_>,
    workloads: &BTreeMap<String, Value>,
) -> std::io::Result<()> {
    let h = fingerprint();
    let doc = json!({
        "schema": RESULT_SCHEMA,
        "seed": header.seed,
        "seconds": header.seconds,
        "trace": header.trace,
        "sizes": header.sizes,
        "host": {
            "nproc": h.nproc,
            "cpu_model": h.cpu_model,
            "rustc": h.rustc,
            "git_rev": h.git_rev,
            "scratch_fs": h.scratch_fs,
            "third_party": h.third_party,
        },
        "workloads": workloads,
    });
    let mut text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    text.push('\n');
    std::fs::write(path, text)
}

/// The workload entries of a result file written by [`write_result`].
pub fn read_result(path: &Path) -> Result<BTreeMap<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc["schema"].as_str() != Some(RESULT_SCHEMA) {
        return Err(format!("{}: not a {RESULT_SCHEMA} file", path.display()));
    }
    let workloads = doc["workloads"]
        .as_object()
        .ok_or_else(|| format!("{}: no `workloads` object", path.display()))?;
    Ok(workloads
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect())
}
