//! Execution telemetry for the plan executor: per-run records, cache and
//! quarantine counters, worker utilization, and a structured JSON
//! run-manifest written next to the result cache.
//!
//! The manifest (one per `execute_plan` label, overwritten on re-run) is
//! the machine-readable account of a sweep: what ran, what was already
//! cached, what failed after retries, and summary statistics (IPC,
//! DRAM/NoC utilization) for every simulated run. The human-facing side is
//! a single progress line on stderr that replaces the executor's former
//! ad-hoc `eprintln!`s.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sms_obs::{Counter, Family, Histogram, Registry};
use sms_sim::config::{SystemConfig, CORE_FREQ_GHZ, LINE_SIZE};
use sms_sim::stats::SimResult;
use sms_workloads::mix::MixSpec;

/// Manifest schema version; bump when the JSON layout changes.
///
/// v2 added `wall_percentiles` and switched emission to sorted-key JSON.
/// v3 added the `registry` metrics snapshot; v2 manifests (no snapshot)
/// still load. v4 added the optional aggregate phase `profile` (present
/// only when the plan ran with profiling enabled); v1–v3 manifests all
/// still load.
pub const MANIFEST_SCHEMA_VERSION: u32 = 4;

/// p50/p95/p99 of a latency or wall-time sample set, in the samples'
/// unit. Shared between the sweep manifest and the `sms-serve` metrics
/// endpoint so both report tail behaviour the same way.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Nearest-rank p50/p95/p99 of `samples` (non-finite values ignored).
///
/// Degenerate inputs are well-defined rather than panicking or producing
/// NaN: an empty slice (or one holding only NaN/infinite values) returns
/// `None`, and a single finite sample yields that value for all three
/// percentiles — nearest-rank never interpolates, so every reported
/// percentile is an actual observed sample.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let pick = |q: f64| -> f64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    };
    Some(Percentiles {
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
    })
}

/// Outcome of one plan entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RunStatus {
    /// Simulated successfully (possibly after retries).
    Ok,
    /// Failed every attempt and was quarantined.
    Quarantined,
}

/// Summary statistics of one successful run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Mean per-core IPC.
    pub mean_ipc: f64,
    /// Aggregate achieved DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Achieved DRAM bandwidth over configured DRAM capacity (0..1).
    pub dram_utilization: f64,
    /// Achieved NoC bisection bandwidth over configured capacity (0..1).
    pub noc_utilization: f64,
    /// Cycles simulated in the measured phase.
    pub elapsed_cycles: u64,
}

impl RunSummary {
    /// Extract summary statistics from a run on `cfg`.
    pub fn from_result(cfg: &SystemConfig, r: &SimResult) -> Self {
        let mean_ipc = if r.cores.is_empty() {
            0.0
        } else {
            r.cores.iter().map(|c| c.ipc).sum::<f64>() / r.cores.len() as f64
        };
        let noc_gbps = if r.elapsed_cycles == 0 {
            0.0
        } else {
            (r.noc_crossings * LINE_SIZE) as f64 / r.elapsed_cycles as f64 * CORE_FREQ_GHZ
        };
        let dram_cap = cfg.dram.total_bandwidth_gbps();
        let noc_cap = cfg.noc.bisection_bandwidth_gbps();
        Self {
            mean_ipc,
            dram_gbps: r.total_bandwidth_gbps,
            dram_utilization: if dram_cap > 0.0 {
                r.total_bandwidth_gbps / dram_cap
            } else {
                0.0
            },
            noc_utilization: if noc_cap > 0.0 {
                noc_gbps / noc_cap
            } else {
                0.0
            },
            elapsed_cycles: r.elapsed_cycles,
        }
    }
}

/// One plan entry's execution record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Hex hash of the cache key (the cache file stem).
    pub key_hash: String,
    /// Human-readable mix description, e.g. `32x lbm_r` or `lbm_r+mcf_r`.
    pub mix: String,
    /// Cores in the machine configuration.
    pub cores: u32,
    /// Outcome.
    pub status: RunStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Host wall-clock seconds spent on this entry (all attempts).
    pub wall_seconds: f64,
    /// Summary statistics (successful runs only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub summary: Option<RunSummary>,
    /// Error message (quarantined runs only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// The structured account of one `execute_plan` invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version.
    pub schema_version: u32,
    /// The executor label (e.g. `homogeneous`).
    pub label: String,
    /// Plan size.
    pub total_runs: usize,
    /// Entries satisfied by the cache before execution.
    pub cached: usize,
    /// Entries simulated successfully this invocation.
    pub simulated: usize,
    /// Entries quarantined after exhausting retries.
    pub failed: usize,
    /// Total retry attempts across all entries.
    pub retries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole invocation.
    pub wall_seconds: f64,
    /// Sum of per-run busy seconds over `workers * wall_seconds` (0..1).
    pub worker_utilization: f64,
    /// p50/p95/p99 of per-run wall seconds (absent in v1 manifests and
    /// when nothing ran this invocation).
    #[serde(default)]
    pub wall_percentiles: Option<Percentiles>,
    /// Hex key hashes of quarantined entries (also under `quarantine/`).
    pub failed_keys: Vec<String>,
    /// Per-entry records, in completion order.
    pub runs: Vec<RunRecord>,
    /// Snapshot of the executor's `sms-obs` metrics registry at finish
    /// time, keyed by metric family name (absent in pre-v3 manifests).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub registry: Option<serde_json::Value>,
    /// Aggregate phase profile across the runs simulated this invocation
    /// (absent in pre-v4 manifests and when profiling was not enabled).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<Vec<crate::observe::PhaseStatRecord>>,
}

impl RunManifest {
    /// Load a manifest from disk.
    ///
    /// # Errors
    ///
    /// Returns an error when the file is unreadable or not a manifest.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        crate::observe::load_json(path.as_ref())
    }

    /// Compact human-readable rendering (CLI `sms manifest`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "sweep `{}`: {} runs ({} cached, {} simulated, {} quarantined, {} retries)\n\
             {} workers, {:.1}s wall, {:.0}% worker utilization\n",
            self.label,
            self.total_runs,
            self.cached,
            self.simulated,
            self.failed,
            self.retries,
            self.workers,
            self.wall_seconds,
            self.worker_utilization * 100.0,
        );
        if let Some(p) = self.wall_percentiles {
            out.push_str(&format!(
                "run wall time p50 {:.2}s, p95 {:.2}s, p99 {:.2}s\n",
                p.p50, p.p95, p.p99
            ));
        }
        for r in self
            .runs
            .iter()
            .filter(|r| r.status == RunStatus::Quarantined)
        {
            out.push_str(&format!(
                "  quarantined {} ({}): {}\n",
                r.key_hash,
                r.mix,
                r.error.as_deref().unwrap_or("unknown error"),
            ));
        }
        if let Some(slowest) = self
            .runs
            .iter()
            .max_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
        {
            out.push_str(&format!(
                "  slowest run: {} ({}) {:.2}s\n",
                slowest.key_hash, slowest.mix, slowest.wall_seconds
            ));
        }
        out
    }
}

/// Short human label for a mix: `Nx name` for homogeneous mixes, else the
/// benchmark names joined with `+` (truncated).
pub fn mix_label(mix: &MixSpec) -> String {
    let n = mix.benchmarks.len();
    if n >= 1 && mix.benchmarks.iter().all(|b| b == &mix.benchmarks[0]) {
        return format!("{n}x {}", mix.benchmarks[0]);
    }
    let mut label = mix.benchmarks.join("+");
    if label.len() > 48 {
        label.truncate(45);
        label.push_str("...");
    }
    label
}

/// Live telemetry collector for one `execute_plan` invocation. All
/// recording methods take `&self` and are called from worker threads.
#[derive(Debug)]
pub struct Telemetry {
    label: String,
    workers: usize,
    total_runs: usize,
    cached: usize,
    todo: usize,
    started: Instant,
    // sms-lint: atomic(counter): completed-run tally, read only for progress/manifest
    simulated: AtomicUsize,
    // sms-lint: atomic(counter): quarantined-run tally, read only for progress/manifest
    failed: AtomicUsize,
    // sms-lint: atomic(counter): retry tally, read only for progress/manifest
    retries: AtomicUsize,
    // sms-lint: atomic(counter): busy-time accumulator, read only for utilization
    busy_micros: AtomicU64,
    records: Mutex<Vec<RunRecord>>,
    /// Print a progress line every this many completions (the final
    /// completion always prints).
    progress_every: usize,
    /// Per-invocation metrics registry, snapshotted into the manifest.
    registry: Arc<Registry>,
    obs_runs: Arc<Family<Counter>>,
    obs_retries: Arc<Counter>,
    obs_run_wall_micros: Arc<Histogram>,
}

impl Telemetry {
    /// Start telemetry for a plan of `total_runs` entries of which
    /// `cached` were already satisfied, running on `workers` threads.
    pub fn start(label: &str, workers: usize, total_runs: usize, cached: usize) -> Self {
        let todo = total_runs - cached;
        let registry = Arc::new(Registry::new());
        let obs_runs = registry.counter_family(
            "sms_bench_runs_total",
            "Completed plan entries by outcome.",
            &["status"],
        );
        let obs_retries = registry.counter(
            "sms_bench_retries_total",
            "Failed attempts that were re-run.",
        );
        let obs_run_wall_micros = registry.histogram(
            "sms_bench_run_wall_micros",
            "Host wall-clock time per plan entry (all attempts), microseconds.",
        );
        registry
            .counter(
                "sms_bench_cached_runs_total",
                "Plan entries satisfied by the result cache before execution.",
            )
            .inc_by(cached as u64);
        Self {
            label: label.to_owned(),
            workers,
            total_runs,
            cached,
            todo,
            started: Instant::now(),
            simulated: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            busy_micros: AtomicU64::new(0),
            records: Mutex::new(Vec::with_capacity(todo)),
            progress_every: if todo <= 20 { 1 } else { 10 },
            registry,
            obs_runs,
            obs_retries,
            obs_run_wall_micros,
        }
    }

    /// The invocation's metrics registry (snapshotted into the manifest).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one retry attempt (a failed attempt that will be re-run).
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.obs_retries.inc();
    }

    /// Record a completed entry and print the progress line when due.
    pub fn record(&self, record: RunRecord) {
        let wall_micros = (record.wall_seconds * 1e6) as u64;
        self.busy_micros.fetch_add(wall_micros, Ordering::Relaxed);
        self.obs_run_wall_micros.observe(wall_micros);
        let (counter, status) = match record.status {
            RunStatus::Ok => (&self.simulated, "ok"),
            RunStatus::Quarantined => (&self.failed, "quarantined"),
        };
        // sms-lint: atomic(counter): status tally via local binding (simulated/failed)
        counter.fetch_add(1, Ordering::Relaxed);
        self.obs_runs.with(&[status]).inc();
        self.records.lock().push(record);
        self.progress();
    }

    fn progress(&self) {
        let simulated = self.simulated.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let done = simulated + failed;
        if done != self.todo && !done.is_multiple_of(self.progress_every) {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 {
            (self.todo - done) as f64 / rate
        } else {
            0.0
        };
        let failures = if failed > 0 {
            format!(", {failed} failed")
        } else {
            String::new()
        };
        eprintln!(
            "[{}] {done}/{} done{failures} ({rate:.1} runs/s, eta {eta:.0}s)",
            self.label, self.todo,
        );
    }

    /// Finalize into a manifest.
    pub fn finish(&self) -> RunManifest {
        let wall = self.started.elapsed().as_secs_f64();
        let busy = self.busy_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let runs = self.records.lock().clone();
        let failed_keys = runs
            .iter()
            .filter(|r| r.status == RunStatus::Quarantined)
            .map(|r| r.key_hash.clone())
            .collect();
        let wall_times: Vec<f64> = runs.iter().map(|r| r.wall_seconds).collect();
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            label: self.label.clone(),
            total_runs: self.total_runs,
            cached: self.cached,
            simulated: self.simulated.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            workers: self.workers,
            wall_seconds: wall,
            worker_utilization: if wall > 0.0 && self.workers > 0 {
                (busy / (wall * self.workers as f64)).min(1.0)
            } else {
                0.0
            },
            wall_percentiles: percentiles(&wall_times),
            failed_keys,
            runs,
            registry: serde_json::from_str(&self.registry.to_json()).ok(),
            // Filled in before the write by `execute_plan_observed`; the
            // plain executor runs detached.
            profile: None,
        }
    }
}

/// Flush the global tracer's ring to `dir/traces/<label>.json` as Chrome
/// `trace_event` JSON (load it at `chrome://tracing` or Perfetto),
/// returning the path. A no-op returning `None` when tracing is disabled
/// or nothing was recorded; write failures warn rather than abort, like
/// [`write_manifest`].
pub fn write_trace(dir: &Path, label: &str) -> Option<PathBuf> {
    let tracer = sms_obs::tracer();
    if !tracer.is_enabled() || tracer.is_empty() {
        return None;
    }
    let dir = dir.join("traces");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "[{label}] warning: cannot create trace dir {}: {e}",
            dir.display()
        );
        return None;
    }
    let path = dir.join(format!("{}.json", sanitize_label(label)));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => {
            eprintln!("[{label}] trace written to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "[{label}] warning: cannot write trace {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Write `manifest` as pretty JSON with deterministically sorted keys to
/// `dir/manifests/<label>.json`, returning the path. Failures are
/// reported, not fatal: a sweep must not die because its diagnostics
/// directory is unwritable.
pub fn write_manifest(dir: &Path, manifest: &RunManifest) -> Option<PathBuf> {
    if let Err(e) = sms_faults::check("manifest.flush") {
        eprintln!("[{}] warning: cannot write manifest: {e}", manifest.label);
        return None;
    }
    let dir = dir.join("manifests");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "[{}] warning: cannot create manifest dir {}: {e}",
            manifest.label,
            dir.display()
        );
        return None;
    }
    let path = dir.join(format!("{}.json", sanitize_label(&manifest.label)));
    match sms_core::artifact::to_sorted_pretty_json(manifest) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!(
                    "[{}] warning: cannot write manifest {}: {e}",
                    manifest.label,
                    path.display()
                );
                None
            }
        },
        Err(e) => {
            eprintln!("[{}] warning: cannot encode manifest: {e}", manifest.label);
            None
        }
    }
}

/// Restrict a user-supplied label to filename-safe characters, matching
/// the stems used for journal, manifest, and explore artifacts.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(status: RunStatus, wall: f64) -> RunRecord {
        RunRecord {
            key_hash: "abc".into(),
            mix: "2x lbm_r".into(),
            cores: 2,
            status,
            attempts: 1,
            wall_seconds: wall,
            summary: None,
            error: if status == RunStatus::Quarantined {
                Some("boom".into())
            } else {
                None
            },
        }
    }

    #[test]
    fn telemetry_counts_and_manifest_round_trip() {
        let t = Telemetry::start("test", 2, 5, 2);
        t.record(record(RunStatus::Ok, 0.5));
        t.record_retry();
        t.record(record(RunStatus::Quarantined, 0.1));
        t.record(record(RunStatus::Ok, 0.2));
        let m = t.finish();
        assert_eq!(m.total_runs, 5);
        assert_eq!(m.cached, 2);
        assert_eq!(m.simulated, 2);
        assert_eq!(m.failed, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.failed_keys, vec!["abc".to_owned()]);
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);

        // The obs registry tracked the same counts and is snapshotted
        // into the manifest.
        let reg = m.registry.as_ref().expect("registry snapshot present");
        assert_eq!(
            reg["sms_bench_runs_total"]["samples"]
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s["value"].as_f64().unwrap())
                .sum::<f64>(),
            3.0
        );
        assert_eq!(reg["sms_bench_retries_total"]["samples"][0]["value"], 1.0);
        assert_eq!(
            reg["sms_bench_cached_runs_total"]["samples"][0]["value"],
            2.0
        );
        assert_eq!(reg["sms_bench_run_wall_micros"]["samples"][0]["count"], 3.0);

        let dir = std::env::temp_dir().join(format!("sms-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_manifest(&dir, &m).expect("manifest written");
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back.simulated, 2);
        assert_eq!(back.runs.len(), 3);
        assert!(back.render().contains("quarantined"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mix_labels_compress_homogeneous_mixes() {
        let homo = MixSpec::homogeneous("lbm_r", 4, 1);
        assert_eq!(mix_label(&homo), "4x lbm_r");
        let hetero = MixSpec {
            benchmarks: vec!["a".into(), "b".into()],
            seed: 0,
        };
        assert_eq!(mix_label(&hetero), "a+b");
    }

    #[test]
    fn run_summary_utilization_is_bounded_and_positive() {
        let cfg = SystemConfig::target_32core();
        let r = SimResult {
            cores: vec![],
            elapsed_cycles: 1000,
            total_dram_bytes: 64_000,
            total_bandwidth_gbps: 64.0,
            noc_transfers: 10,
            noc_crossings: 5,
            llc_accesses: 0,
            llc_hits: 0,
            host_seconds: 0.1,
        };
        let s = RunSummary::from_result(&cfg, &r);
        assert!(s.dram_utilization > 0.0 && s.dram_utilization <= 1.0);
        assert!(s.noc_utilization >= 0.0);
    }

    #[test]
    fn sanitized_labels_are_filesystem_safe() {
        assert_eq!(sanitize_label("64-core/PRS x"), "64-core_PRS_x");
    }

    #[test]
    fn percentiles_nearest_rank() {
        assert_eq!(percentiles(&[]), None);
        assert_eq!(percentiles(&[f64::NAN]), None);
        let one = percentiles(&[3.0]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99), (3.0, 3.0, 3.0));
        // Two samples: p50 is the lower, the tails are the upper — every
        // value is an observed sample (nearest-rank never interpolates).
        let two = percentiles(&[7.0, 1.0]).unwrap();
        assert_eq!((two.p50, two.p95, two.p99), (1.0, 7.0, 7.0));
        // 1..=100: nearest-rank percentiles are exactly the rank values,
        // regardless of input order.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        v.push(f64::INFINITY); // ignored
        let p = percentiles(&v).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
    }

    #[test]
    fn manifest_records_wall_percentiles_and_sorted_keys() {
        let t = Telemetry::start("pct", 1, 3, 0);
        t.record(record(RunStatus::Ok, 0.1));
        t.record(record(RunStatus::Ok, 0.2));
        t.record(record(RunStatus::Ok, 0.9));
        let m = t.finish();
        let p = m.wall_percentiles.expect("percentiles present");
        assert_eq!(p.p50, 0.2);
        assert_eq!(p.p99, 0.9);
        assert!(m.render().contains("p95"));

        let dir = std::env::temp_dir().join(format!("sms-telemetry-pct-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_manifest(&dir, &m).expect("manifest written");
        let text = std::fs::read_to_string(&path).unwrap();
        // Emission is canonical: keys sorted, so re-serializing the parsed
        // value reproduces the bytes.
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&v).unwrap(), text);
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Older manifests still load: v3 lacked the profile aggregate,
        // v2 additionally lacked the registry snapshot, and v1 also
        // lacked wall percentiles.
        let mut v3 = v.clone();
        v3.as_object_mut().unwrap().remove("profile");
        v3["schema_version"] = serde_json::json!(3);
        std::fs::write(&path, serde_json::to_string(&v3).unwrap()).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back.profile, None);
        assert!(back.registry.is_some());

        let mut v2 = v.clone();
        v2.as_object_mut().unwrap().remove("profile");
        v2.as_object_mut().unwrap().remove("registry");
        v2["schema_version"] = serde_json::json!(2);
        std::fs::write(&path, serde_json::to_string(&v2).unwrap()).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back.registry, None);
        assert!(back.wall_percentiles.is_some());

        let mut v1 = v.clone();
        v1.as_object_mut().unwrap().remove("wall_percentiles");
        v1.as_object_mut().unwrap().remove("registry");
        v1["schema_version"] = serde_json::json!(1);
        std::fs::write(&path, serde_json::to_string(&v1).unwrap()).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back.wall_percentiles, None);
        assert_eq!(back.registry, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
