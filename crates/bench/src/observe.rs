//! Observed runs: the one place a simulation is watched while it runs.
//!
//! [`observed_run`] builds the system for `(cfg, mix, spec)`, optionally
//! attaches an [`sms_obs::Profiler`] and/or collects the per-sync-window
//! [`EpochSample`]s, and returns the `SimResult` plus whatever was asked
//! for. Both observations are read-only with respect to simulated state,
//! so the result is bit-identical to a plain run (proved by the
//! determinism tests in `sms-sim`), and a run that asks for neither *is*
//! a plain run.
//!
//! [`execute_plan_observed`] drives that function through the plan
//! executor: every simulated (non-cached) run leaves
//! `<cache>/timelines/<key_hash>.json` and/or
//! `<cache>/profiles/<key_hash>.json` behind, and the phase profiles are
//! folded into one aggregate that the v4 run-manifest carries from its
//! first and only write. `sms simulate --timeline-out`, `sms profile`,
//! `sms sweep`, `sms resume` and `sms explore` all observe through here.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use sms_obs::{PhaseProfile, PhaseStat, Profiler};
use sms_sim::config::SystemConfig;
use sms_sim::error::SimError;
use sms_sim::stats::SimResult;
use sms_sim::system::{MulticoreSystem, RunSpec};
use sms_sim::{EpochSample, SimTimeline};
use sms_workloads::mix::MixSpec;

use crate::runner::{cache_key, key_hash_hex, CachedSim, ExecOptions, PlanSummary};
use crate::telemetry::mix_label;

/// Timeline file schema version; bump when the JSON layout changes.
pub const TIMELINE_SCHEMA_VERSION: u32 = 1;

/// Profile file schema version; bump when the JSON layout changes.
pub const PROFILE_FILE_SCHEMA_VERSION: u32 = 1;

/// Which observations of a run are wanted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Collect one [`EpochSample`] per sync window of the measured phase.
    pub samples: bool,
    /// Attach a phase profiler and snapshot it after the run.
    pub profile: bool,
}

/// What [`observed_run`] saw: the result, plus each observation exactly
/// when it was asked for.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The run's result, bit-identical to an unobserved run's.
    pub result: SimResult,
    /// Epoch samples of the measured phase ([`Observe::samples`]).
    pub samples: Option<Vec<EpochSample>>,
    /// Phase profile of the whole run ([`Observe::profile`]).
    pub profile: Option<PhaseProfile>,
}

/// Simulate `mix` on `cfg`, collecting what `want` asks for.
///
/// # Errors
///
/// As [`MulticoreSystem::new`] and [`MulticoreSystem::run`].
pub fn observed_run(
    cfg: &SystemConfig,
    mix: &MixSpec,
    spec: RunSpec,
    want: Observe,
) -> Result<Observed, SimError> {
    let mut system = MulticoreSystem::new(cfg.clone(), mix.sources())?;
    let profiler = want.profile.then(Profiler::new);
    if let Some(profiler) = &profiler {
        system.attach_profiler(profiler);
    }
    let mut samples = want.samples.then(Vec::new);
    let result = system.run_sampled(spec, samples.as_mut())?;
    Ok(Observed {
        result,
        samples,
        profile: profiler.map(|p| p.snapshot()),
    })
}

/// One timeline file: the epoch-resolved record of a single simulated
/// run, written next to the result cache and rendered by `sms timeline`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineFile {
    /// Timeline file schema version.
    pub schema_version: u32,
    /// Hex hash of the run's cache key (also the file stem).
    pub key_hash: String,
    /// Human-readable mix description.
    pub mix: String,
    /// Cores in the machine configuration.
    pub cores: u32,
    /// Per-sync-window samples of the measured phase.
    pub timeline: SimTimeline,
    /// Snapshot of the global `sms-obs` metrics registry at write time
    /// (absent when written by older versions).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub registry: Option<serde_json::Value>,
}

impl TimelineFile {
    /// The timeline file of one run, with the global `sms-obs` registry
    /// snapshotted now.
    pub fn new(
        cfg: &SystemConfig,
        mix: &MixSpec,
        spec: RunSpec,
        samples: Vec<EpochSample>,
    ) -> Self {
        Self {
            schema_version: TIMELINE_SCHEMA_VERSION,
            key_hash: key_hash_hex(&cache_key(cfg, mix, spec)),
            mix: mix_label(mix),
            cores: cfg.num_cores,
            timeline: SimTimeline {
                sync_quantum: cfg.sync_quantum,
                num_cores: cfg.num_cores,
                samples,
            },
            registry: serde_json::from_str(&sms_obs::registry().to_json()).ok(),
        }
    }

    /// Load a timeline file from disk.
    ///
    /// # Errors
    ///
    /// Returns an error when the file is unreadable or not a timeline.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        load_json(path.as_ref())
    }

    /// Write the file as sorted-key pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates encoding and filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        save_json(path.as_ref(), self)
    }
}

/// Serde mirror of one [`PhaseStat`] (`sms-obs` is dependency-free and
/// renders its own JSON; the bench crate owns the serde form).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStatRecord {
    /// Full phase path (`parent;child` collapsed-stack form).
    pub path: String,
    /// Completed scopes.
    pub count: u64,
    /// Total nanoseconds, including time spent in child phases.
    pub total_nanos: u64,
    /// Nanoseconds not attributed to any direct child phase.
    pub self_nanos: u64,
}

impl From<&PhaseStat> for PhaseStatRecord {
    fn from(s: &PhaseStat) -> Self {
        Self {
            path: s.path.clone(),
            count: s.count,
            total_nanos: s.total_nanos,
            self_nanos: s.self_nanos,
        }
    }
}

/// Convert a profile into its serde record form (phases keep their
/// sorted-by-path order).
pub fn phase_records(profile: &PhaseProfile) -> Vec<PhaseStatRecord> {
    profile.phases.iter().map(PhaseStatRecord::from).collect()
}

/// Rebuild a [`PhaseProfile`] from its serde record form.
pub fn records_to_profile(records: &[PhaseStatRecord]) -> PhaseProfile {
    let mut profile = PhaseProfile {
        phases: records
            .iter()
            .map(|r| PhaseStat {
                path: r.path.clone(),
                count: r.count,
                total_nanos: r.total_nanos,
                self_nanos: r.self_nanos,
            })
            .collect(),
    };
    profile.phases.sort_by(|a, b| a.path.cmp(&b.path));
    profile
}

/// One profile file: the phase breakdown of a single simulated run,
/// written next to the result cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileFile {
    /// Profile file schema version.
    pub schema_version: u32,
    /// Hex hash of the run's cache key (also the file stem).
    pub key_hash: String,
    /// Human-readable mix description.
    pub mix: String,
    /// Cores in the machine configuration.
    pub cores: u32,
    /// Per-phase stats, sorted by path.
    pub phases: Vec<PhaseStatRecord>,
}

impl ProfileFile {
    /// The profile file of one run.
    pub fn new(cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec, profile: &PhaseProfile) -> Self {
        Self {
            schema_version: PROFILE_FILE_SCHEMA_VERSION,
            key_hash: key_hash_hex(&cache_key(cfg, mix, spec)),
            mix: mix_label(mix),
            cores: cfg.num_cores,
            phases: phase_records(profile),
        }
    }

    /// Load a profile file from disk.
    ///
    /// # Errors
    ///
    /// Returns an error when the file is unreadable or not a profile.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        load_json(path.as_ref())
    }
}

/// Read one JSON record file (timeline, profile, manifest); anything
/// unreadable or of the wrong shape is `InvalidData`, which `sms fsck`
/// turns into an eviction.
pub(crate) fn load_json<T: DeserializeOwned>(path: &Path) -> std::io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn save_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = sms_core::artifact::to_sorted_pretty_json(value).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

/// Where [`execute_plan_observed`] writes timeline files.
pub fn timelines_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("timelines")
}

/// Where [`execute_plan_observed`] writes profile files.
pub fn profiles_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("profiles")
}

/// Best-effort write of `<dir>/<key_hash>.json` behind its failpoint
/// `gate`: a failure warns and drops the file rather than failing the
/// run, whose `SimResult` is identical either way.
fn write_run_file<T: Serialize>(gate: std::io::Result<()>, dir: &Path, key_hash: &str, file: &T) {
    let path = dir.join(format!("{key_hash}.json"));
    let written = gate
        .and_then(|()| std::fs::create_dir_all(dir))
        .and_then(|()| save_json(&path, file));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// [`execute_plan`](crate::runner::execute_plan) over [`observed_run`]:
/// every simulated (non-cached) run leaves the per-run files `want` asks
/// for, and the aggregate of the phase profiles is embedded in the
/// run-manifest (`profile` field, schema v4) before it is written. With
/// nothing wanted this is exactly `execute_plan`. This is what
/// `sms sweep [--timelines] [--profile]` and `sms explore` call.
pub fn execute_plan_observed(
    cache: &CachedSim,
    plan: &[(SystemConfig, MixSpec)],
    spec: RunSpec,
    threads: usize,
    label: &str,
    want: Observe,
) -> PlanSummary {
    let aggregate = Arc::new(Mutex::new(PhaseProfile::default()));
    let run_fn = {
        let dir = cache.dir().to_owned();
        let aggregate = Arc::clone(&aggregate);
        move |cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec| {
            let seen = observed_run(cfg, mix, spec, want)?;
            if let Some(samples) = seen.samples {
                let file = TimelineFile::new(cfg, mix, spec, samples);
                write_run_file(
                    sms_faults::check_io("timeline.write"),
                    &timelines_dir(&dir),
                    &file.key_hash,
                    &file,
                );
            }
            if let Some(profile) = seen.profile {
                aggregate.lock().merge(&profile);
                let file = ProfileFile::new(cfg, mix, spec, &profile);
                write_run_file(
                    sms_faults::check_io("profile.write"),
                    &profiles_dir(&dir),
                    &file.key_hash,
                    &file,
                );
            }
            Ok(seen.result)
        }
    };
    crate::runner::execute(
        cache,
        plan,
        spec,
        threads,
        label,
        ExecOptions::from_env(),
        run_fn,
        |manifest| {
            let aggregate = aggregate.lock();
            if !aggregate.is_empty() {
                manifest.profile = Some(phase_records(&aggregate));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsck::sorted_files;
    use crate::telemetry::RunManifest;
    use sms_core::scaling::target_config;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sms-observe-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const SPEC: RunSpec = RunSpec {
        warmup_instructions: 0,
        measure_instructions: 5_000,
    };

    fn plan() -> Vec<(SystemConfig, MixSpec)> {
        ["leela_r", "lbm_r"]
            .iter()
            .map(|n| (target_config(1), MixSpec::homogeneous(n, 1, 7)))
            .collect()
    }

    #[test]
    fn record_round_trip_preserves_the_profile() {
        let profiler = Profiler::new();
        profiler.phase("sim.run").record(1_000);
        profiler.phase("sim.run;window.fork").record(600);
        let snap = profiler.snapshot();
        let records = phase_records(&snap);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].path, "sim.run");
        assert_eq!(records[0].self_nanos, 400);
        let back = records_to_profile(&records);
        assert_eq!(back, snap);
    }

    #[test]
    fn observed_plan_writes_per_run_files_and_a_manifest_with_the_aggregate() {
        let dir = tmpdir("files");
        let cache = CachedSim::open(&dir).unwrap();
        let both = Observe {
            samples: true,
            profile: true,
        };
        let summary = execute_plan_observed(&cache, &plan(), SPEC, 2, "obs", both);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.simulated, 2);

        let timelines = sorted_files(&timelines_dir(cache.dir()), "json");
        assert_eq!(timelines.len(), 2);
        for path in &timelines {
            let tl = TimelineFile::load(path).unwrap();
            assert_eq!(tl.schema_version, TIMELINE_SCHEMA_VERSION);
            assert_eq!(tl.cores, 1);
            assert_eq!(
                path.file_stem().unwrap().to_str().unwrap(),
                tl.key_hash,
                "file stem is the key hash"
            );
            assert!(!tl.timeline.samples.is_empty(), "epochs recorded");
            assert!(tl
                .timeline
                .samples
                .windows(2)
                .all(|w| w[0].cycle < w[1].cycle));
            assert!(tl.registry.is_some(), "registry snapshot embedded");
            assert!(!tl.timeline.render().is_empty());
        }

        let profiles = sorted_files(&profiles_dir(cache.dir()), "json");
        assert_eq!(profiles.len(), 2);
        let mut merged = PhaseProfile::default();
        for (path, timeline) in profiles.iter().zip(&timelines) {
            assert_eq!(
                path.file_name(),
                timeline.file_name(),
                "same run, same stem"
            );
            let pf = ProfileFile::load(path).unwrap();
            assert_eq!(pf.schema_version, PROFILE_FILE_SCHEMA_VERSION);
            assert_eq!(pf.cores, 1);
            assert_eq!(path.file_stem().unwrap().to_str().unwrap(), pf.key_hash);
            let per_run = records_to_profile(&pf.phases);
            assert!(per_run.root_total_nanos() > 0, "run time attributed");
            merged.merge(&per_run);
        }
        let run = merged.phases.iter().find(|p| p.path == "sim.run");
        assert_eq!(run.map(|p| p.count), Some(2), "one sim.run per run");

        // The manifest was written once, with the aggregate already in it:
        // the bytes on disk are the canonical encoding of what loads back,
        // nothing else sits beside it, and the embedded profile is the
        // merge of the per-run files.
        let manifest_path = summary.manifest_path.expect("manifest written");
        let manifest = RunManifest::load(&manifest_path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&manifest_path).unwrap(),
            sms_core::artifact::to_sorted_pretty_json(&manifest).unwrap()
        );
        let beside = std::fs::read_dir(manifest_path.parent().unwrap()).unwrap();
        assert_eq!(beside.count(), 1, "no temp or backup of the manifest");
        let embedded = manifest.profile.expect("profile embedded in manifest");
        assert_eq!(records_to_profile(&embedded), merged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unobserved_plan_writes_no_observation_files() {
        let dir = tmpdir("plain");
        let cache = CachedSim::open(&dir).unwrap();
        let summary = execute_plan_observed(&cache, &plan(), SPEC, 1, "plain", Observe::default());
        assert_eq!(summary.simulated, 2);
        assert!(!timelines_dir(cache.dir()).exists());
        assert!(!profiles_dir(cache.dir()).exists());
        let manifest = RunManifest::load(summary.manifest_path.expect("manifest written")).unwrap();
        assert!(manifest.profile.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_profile_dir_drops_the_file_but_not_the_run() {
        let dir = tmpdir("fault");
        let cache = CachedSim::open(&dir).unwrap();
        // Occupy the profiles directory path with a plain file so every
        // profile write fails (the `profile.write` failpoint exercises the
        // same code path under `SMS_FAULTS` in the chaos tests).
        std::fs::write(profiles_dir(&dir), b"not a directory").unwrap();
        let want = Observe {
            samples: false,
            profile: true,
        };
        let summary = execute_plan_observed(&cache, &plan(), SPEC, 1, "fault", want);
        assert_eq!(summary.simulated, 2, "runs survive the write failure");
        assert_eq!(summary.failed, 0);
        let manifest = RunManifest::load(summary.manifest_path.expect("manifest written")).unwrap();
        assert!(manifest.profile.is_some(), "aggregate still folded");
        assert!(
            profiles_dir(&dir).is_file(),
            "no profile directory created over the blocker"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_file_without_registry_still_loads() {
        // Forward compatibility with files written before the registry
        // snapshot existed.
        let dir = tmpdir("compat");
        std::fs::create_dir_all(&dir).unwrap();
        let json = r#"{
            "schema_version": 1,
            "key_hash": "ab12",
            "mix": "1x leela_r",
            "cores": 1,
            "timeline": {"sync_quantum": 1000, "num_cores": 1, "samples": []}
        }"#;
        let path = dir.join("ab12.json");
        std::fs::write(&path, json).unwrap();
        let tl = TimelineFile::load(&path).unwrap();
        assert_eq!(tl.registry, None);
        assert_eq!(tl.timeline.sync_quantum, 1_000);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
