//! The explore driver: grid → executor → Pareto front, with ML pruning.
//!
//! `run_explore` drives every design point of a [`MachineSpec`] grid
//! through the fault-tolerant `sms-bench` executor, so explore inherits
//! the result cache, fsync'd journal, retry/quarantine policy, and
//! watchdog — kill an explore and `sms resume` finishes it with a
//! bit-identical manifest.
//!
//! Pruning (on by default, `--no-prune` to disable) evaluates a seeded
//! bootstrap sample of the grid, trains an `sms-ml` random forest on
//! (design-point features → observed throughput), and skips points whose
//! *predicted* throughput is beaten with margin by an already-observed
//! point that is no more expensive on either cost axis. Every skip is
//! recorded with its prediction and the dominating point, and a holdout
//! slice of the bootstrap is audited (predicted vs actual) in the
//! manifest, so pruning is deterministic and checkable after the fact.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::Value;
use sms_bench::{
    execute_plan_observed, profiles_dir, records_to_profile, CachedSim, JournalLine, Observe,
    PhaseStatRecord, PlanHeader, PlanJournal, ProfileFile, JOURNAL_SCHEMA_VERSION,
};
use sms_ml::{Dataset, ForestParams, Matrix, RandomForest, Regressor, TreeParams};
use sms_sim::system::RunSpec;
use sms_workloads::mix::MixSpec;

use crate::grid::{features, DesignPoint};
use crate::machine::{MachineSpec, SpecError};
use crate::pareto::{pareto_front, render_table, PointOutcome};

/// Explore manifest format version; bump when manifest fields change.
pub const EXPLORE_SCHEMA_VERSION: u32 = 1;

/// ML-pruning knobs. Defaults: enabled, seed 43, half the grid
/// bootstrapped, 10% dominance margin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneParams {
    /// Whether pruning runs at all (`--no-prune` clears it).
    pub enabled: bool,
    /// Seed for the bootstrap shuffle and the forest.
    pub seed: u64,
    /// Fraction of the grid evaluated before training (clamped so at
    /// least two and at most all-but-one points are bootstrapped).
    pub bootstrap_fraction: f64,
    /// Safety margin: a point is pruned only when an observed, no-more-
    /// expensive point beats its *prediction* by this relative margin.
    pub margin: f64,
}

impl Default for PruneParams {
    fn default() -> Self {
        Self {
            enabled: true,
            seed: 43,
            bootstrap_fraction: 0.5,
            margin: 0.10,
        }
    }
}

/// Parameters of one explore invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreParams {
    /// Label for the journal, manifests, and cache bookkeeping.
    pub label: String,
    /// Executor worker threads.
    pub threads: usize,
    /// Per-simulation window threads.
    pub sim_threads: u32,
    /// Attach a phase profiler to every simulated run and attribute the
    /// merged profile to each design point in the manifest (`--profile`).
    /// Off by default: profiles hold host timings, so a profiled explore
    /// manifest is *excluded* from the bit-identical-rerun guarantee.
    pub profile: bool,
}

/// Everything `sms resume` needs to replay an explore exactly: the fully
/// resolved spec and the pruning knobs. Serialized (canonical JSON) into
/// the [`PlanHeader`]'s `explore` field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedExplore {
    /// The resolved machine spec (machine + workloads + grid).
    pub spec: MachineSpec,
    /// The pruning knobs in effect.
    pub prune: PruneParams,
}

/// Why an explore failed.
#[derive(Debug)]
pub enum ExploreError {
    /// The spec's grid or workloads are unusable for exploration.
    Spec(Vec<SpecError>),
    /// An injected or real planning fault.
    Fault(String),
    /// Filesystem trouble writing the manifest.
    Io(std::io::Error),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(errors) => {
                writeln!(f, "cannot explore this spec:")?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "  {e}")?;
                }
                Ok(())
            }
            Self::Fault(msg) => write!(f, "explore planning failed: {msg}"),
            Self::Io(e) => write!(f, "cannot write explore manifest: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One design point's record in the explore manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// The point's deterministic key.
    pub key: String,
    /// `evaluated`, `pruned`, or `quarantined`. (The run-vs-cached
    /// distinction is deliberately absent: it differs between a resumed
    /// and an uninterrupted explore, and the manifest must not.)
    pub status: String,
    /// Core count of the point.
    pub cores: u32,
    /// Total LLC bytes of the point.
    pub llc_bytes: u64,
    /// Observed throughput (absent for pruned points; quarantined points
    /// record what partial data produced, usually nothing).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub throughput: Option<f64>,
    /// Forest-predicted throughput (pruned points, and bootstrap holdout
    /// points for the audit).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub predicted: Option<f64>,
    /// Key of the observed point whose throughput beat this point's
    /// prediction with margin (pruned points only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dominated_by: Option<String>,
    /// Merged phase profile across the point's mixes (present only when
    /// the explore ran with `--profile`; host timings, so not covered by
    /// the bit-identical-rerun guarantee).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<Vec<PhaseStatRecord>>,
}

/// One holdout point's predicted-vs-actual audit line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoldoutAudit {
    /// The audited point's key.
    pub key: String,
    /// Forest prediction for the point.
    pub predicted: f64,
    /// Observed throughput of the point.
    pub actual: f64,
    /// `|predicted - actual| / max(|actual|, eps)`.
    pub abs_rel_error: f64,
}

/// The pruning section of the explore manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneReport {
    /// Whether pruning was requested.
    pub enabled: bool,
    /// Seed used for the shuffle and forest.
    pub seed: u64,
    /// Requested bootstrap fraction.
    pub bootstrap_fraction: f64,
    /// Dominance margin.
    pub margin: f64,
    /// Keys evaluated in the bootstrap sample, in evaluation order.
    pub bootstrap: Vec<String>,
    /// Keys skipped by the forest.
    pub pruned: Vec<String>,
    /// Predicted-vs-actual audit over the bootstrap holdout slice.
    pub holdout_audit: Vec<HoldoutAudit>,
    /// Mean of the holdout `abs_rel_error`s (None when no holdout).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mean_abs_rel_error: Option<f64>,
    /// Why pruning did not run despite being enabled (fault injection,
    /// grid too small, too few successful bootstrap points).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub disabled_reason: Option<String>,
}

/// The result of a completed explore.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The canonical-JSON manifest, as written.
    pub manifest: Value,
    /// Where the manifest was written (`<cache>/explore/<label>.json`).
    pub manifest_path: PathBuf,
    /// The Pareto front, sorted.
    pub front: Vec<PointOutcome>,
    /// The front rendered as an aligned text table.
    pub table: String,
    /// Points evaluated (simulated now or already cached).
    pub evaluated: usize,
    /// Points skipped by pruning.
    pub pruned: usize,
    /// Points with at least one quarantined mix.
    pub quarantined: usize,
}

/// Directory explore manifests are written to.
pub fn explore_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("explore")
}

fn count_point(status: &str) {
    sms_obs::registry()
        .counter_family(
            "sms_explore_points_total",
            "Explore design points by outcome",
            &["status"],
        )
        .with(&[status])
        .inc();
}

/// Mean over the declared mixes of the point's aggregate IPC (sum of
/// per-core IPC); NaN when any mix is missing from the cache
/// (quarantined or not yet run).
fn observed_throughput(
    cache: &CachedSim,
    point: &DesignPoint,
    mixes: &[MixSpec],
    spec: RunSpec,
) -> f64 {
    let mut total = 0.0;
    for mix in mixes {
        match cache.lookup(&point.config, mix, spec) {
            Some(result) => total += result.cores.iter().map(|c| c.ipc).sum::<f64>(),
            None => return f64::NAN,
        }
    }
    total / mixes.len() as f64
}

fn total_llc_bytes(point: &DesignPoint) -> u64 {
    point
        .config
        .llc
        .slice
        .capacity_bytes
        .saturating_mul(u64::from(point.config.llc.num_slices))
}

/// Deterministic Fisher-Yates shuffle of `0..n` seeded from `seed`.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = sms_ml::rng::SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.next_below(i + 1));
    }
    idx
}

struct PruneDecision {
    pruned: BTreeMap<String, (f64, String)>,
    holdout: Vec<HoldoutAudit>,
    disabled_reason: Option<String>,
}

/// Train the forest on the bootstrap observations and decide which
/// remaining points to skip. A point is pruned only when some *observed*
/// point that costs no more (cores and LLC bytes both <=) out-throughputs
/// its prediction by the margin — a conservative rule: a wrong prune
/// needs the forest to under-predict by more than the margin.
fn decide_prunes(
    points: &[DesignPoint],
    order: &[usize],
    n_boot: usize,
    observed: &BTreeMap<String, f64>,
    llc: &BTreeMap<String, u64>,
    prune: &PruneParams,
) -> PruneDecision {
    let boot: Vec<&DesignPoint> = order[..n_boot].iter().map(|&i| &points[i]).collect();
    let ok: Vec<&DesignPoint> = boot
        .iter()
        .copied()
        .filter(|p| observed.get(&p.key).is_some_and(|t| t.is_finite()))
        .collect();
    let n_hold = (ok.len() / 5).max(1);
    if ok.len().saturating_sub(n_hold) < 2 {
        return PruneDecision {
            pruned: BTreeMap::new(),
            holdout: Vec::new(),
            disabled_reason: Some(format!(
                "too few successful bootstrap points to train on ({} ok)",
                ok.len()
            )),
        };
    }
    let (train, hold) = ok.split_at(ok.len() - n_hold);
    let rows: Vec<Vec<f64>> = train.iter().map(|p| features(&p.config)).collect();
    let y: Vec<f64> = train.iter().map(|p| observed[&p.key]).collect();
    let data = Dataset::new(Matrix::from_vecs(&rows), y);
    let params = ForestParams {
        num_trees: 48,
        tree: TreeParams {
            max_depth: Some(8),
            ..TreeParams::default()
        },
        bootstrap: true,
    };
    let forest = RandomForest::fit(&data, &params, prune.seed);
    let holdout: Vec<HoldoutAudit> = hold
        .iter()
        .map(|p| {
            let predicted = forest.predict(&features(&p.config));
            let actual = observed[&p.key];
            HoldoutAudit {
                key: p.key.clone(),
                predicted,
                actual,
                abs_rel_error: (predicted - actual).abs() / actual.abs().max(1e-12),
            }
        })
        .collect();
    let mut pruned = BTreeMap::new();
    for &i in &order[n_boot..] {
        let p = &points[i];
        let predicted = forest.predict(&features(&p.config));
        let beater = ok.iter().find(|q| {
            q.config.num_cores <= p.config.num_cores
                && llc[&q.key] <= llc[&p.key]
                && observed[&q.key]
                    .total_cmp(&(predicted * (1.0 + prune.margin)))
                    .is_ge()
        });
        if let Some(q) = beater {
            pruned.insert(p.key.clone(), (predicted, q.key.clone()));
        }
    }
    PruneDecision {
        pruned,
        holdout,
        disabled_reason: None,
    }
}

/// Run (or resume) a design-space exploration.
///
/// The cache lives under `<results_dir>/cache`; the manifest is written
/// to `<cache>/explore/<label>.json` as canonical sorted-key JSON with
/// no wall-clock content, so an interrupted-then-resumed explore is
/// bit-identical to an uninterrupted one.
///
/// # Errors
///
/// Returns [`ExploreError::Spec`] when the spec has no grid or no mixes,
/// [`ExploreError::Fault`] on an injected `explore.plan` fault, or
/// [`ExploreError::Io`] when the manifest cannot be written. Individual
/// simulation failures do not error: the executor quarantines them and
/// the manifest records the point as `quarantined`.
pub fn run_explore(
    results_dir: &Path,
    resolved: &ResolvedExplore,
    params: &ExploreParams,
) -> Result<ExploreOutcome, ExploreError> {
    let plan_span = sms_obs::tracer()
        .span("explore.plan", "explore")
        .arg("label", &params.label)
        .arg("spec", &resolved.spec.name);
    sms_faults::check("explore.plan").map_err(|e| ExploreError::Fault(e.to_string()))?;
    let spec = &resolved.spec;
    let mut spec_errors = Vec::new();
    if spec.grid.is_empty() {
        spec_errors.push(SpecError {
            path: "grid".to_owned(),
            message: "explore needs a non-empty [grid] section".to_owned(),
        });
    }
    if spec.workloads.mixes.is_empty() {
        spec_errors.push(SpecError {
            path: "workloads.mixes".to_owned(),
            message: "explore needs at least one declared mix".to_owned(),
        });
    }
    if !spec_errors.is_empty() {
        return Err(ExploreError::Spec(spec_errors));
    }
    let points = spec
        .grid
        .expand(&spec.machine)
        .map_err(ExploreError::Spec)?;
    let run_spec = RunSpec::with_default_warmup(spec.workloads.budget);
    let mixes_for = |p: &DesignPoint| -> Vec<MixSpec> {
        spec.workloads
            .mixes
            .iter()
            .map(|names| MixSpec::fill(names, p.config.num_cores as usize, spec.workloads.seed))
            .collect()
    };
    let plan_for = |pts: &[&DesignPoint]| -> Vec<(sms_sim::config::SystemConfig, MixSpec)> {
        pts.iter()
            .flat_map(|p| {
                let mut cfg = p.config.clone();
                cfg.sim_threads = params.sim_threads.max(1);
                mixes_for(p).into_iter().map(move |m| (cfg.clone(), m))
            })
            .collect()
    };

    let cache = CachedSim::open(results_dir.join("cache"))?;
    // Journal the plan header first so a kill at any later moment leaves
    // enough on disk for `sms resume` to rebuild this exact explore.
    let header = PlanHeader {
        schema_version: JOURNAL_SCHEMA_VERSION,
        label: params.label.clone(),
        bench: spec
            .workloads
            .mixes
            .iter()
            .map(|m| m.join("+"))
            .collect::<Vec<_>>()
            .join(","),
        target_cores: spec.machine.num_cores,
        budget: spec.workloads.budget,
        seed: spec.workloads.seed,
        threads: params.threads,
        timelines: false,
        explore: Some(
            serde_json::to_string(&serde_json::to_value(resolved).unwrap_or_default())
                .unwrap_or_default(),
        ),
    };
    let journal = PlanJournal::open_append(cache.dir(), &params.label)?;
    journal.append_best_effort(&JournalLine::Plan(header));
    drop(journal);

    // Snapshot what is cached before executing, for the run/cached metric
    // split (metrics only — never the manifest, which must not depend on
    // where a resume picked up).
    let cached_before: BTreeSet<String> = points
        .iter()
        .filter(|p| {
            mixes_for(p)
                .iter()
                .all(|m| cache.lookup(&p.config, m, run_spec).is_some())
        })
        .map(|p| p.key.clone())
        .collect();

    // Summaries are advisory at every call site; quarantines surface as
    // NaN throughput when outcomes are collected below.
    let want = Observe {
        samples: false,
        profile: params.profile,
    };
    let exec = |plan: &[(sms_sim::config::SystemConfig, MixSpec)]| {
        let _ = execute_plan_observed(&cache, plan, run_spec, params.threads, &params.label, want);
    };

    let order = shuffled_indices(points.len(), resolved.prune.seed);
    let mut prune_enabled = resolved.prune.enabled;
    let mut disabled_reason: Option<String> = None;
    if prune_enabled && points.len() < 4 {
        prune_enabled = false;
        disabled_reason = Some(format!("grid too small to prune ({} points)", points.len()));
    }
    if prune_enabled {
        if let Err(e) = sms_faults::check("explore.prune") {
            // A pruning fault degrades to a full sweep instead of losing
            // the explore: correctness first, savings second.
            prune_enabled = false;
            disabled_reason = Some(e.to_string());
        }
    }

    let mut bootstrap_keys: Vec<String> = Vec::new();
    let mut prune_map: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let mut holdout: Vec<HoldoutAudit> = Vec::new();

    if prune_enabled {
        // points.len() >= 4 here, so the clamp bounds are ordered.
        let n_boot = ((points.len() as f64 * resolved.prune.bootstrap_fraction).ceil() as usize)
            .clamp(2, points.len() - 1);
        let boot: Vec<&DesignPoint> = order[..n_boot].iter().map(|&i| &points[i]).collect();
        bootstrap_keys = boot.iter().map(|p| p.key.clone()).collect();
        exec(&plan_for(&boot));
        let observed: BTreeMap<String, f64> = boot
            .iter()
            .map(|p| {
                (
                    p.key.clone(),
                    observed_throughput(&cache, p, &mixes_for(p), run_spec),
                )
            })
            .collect();
        let llc: BTreeMap<String, u64> = points
            .iter()
            .map(|p| (p.key.clone(), total_llc_bytes(p)))
            .collect();
        let decision = decide_prunes(&points, &order, n_boot, &observed, &llc, &resolved.prune);
        prune_map = decision.pruned;
        holdout = decision.holdout;
        disabled_reason = decision.disabled_reason;
        let rest: Vec<&DesignPoint> = order[n_boot..]
            .iter()
            .map(|&i| &points[i])
            .filter(|p| !prune_map.contains_key(&p.key))
            .collect();
        exec(&plan_for(&rest));
    } else {
        let all: Vec<&DesignPoint> = points.iter().collect();
        exec(&plan_for(&all));
    }

    // Per-point profile attribution: merge the per-run profile files the
    // executor left under `<cache>/profiles/` for each of the point's
    // mixes. Best-effort — a dropped profile write simply leaves that
    // run unattributed.
    let point_profile = |p: &DesignPoint| -> Option<Vec<PhaseStatRecord>> {
        if !params.profile {
            return None;
        }
        let dir = profiles_dir(cache.dir());
        let mut merged = sms_obs::PhaseProfile::default();
        let mut cfg = p.config.clone();
        cfg.sim_threads = params.sim_threads.max(1);
        for mix in mixes_for(p) {
            let hash = sms_bench::key_hash_hex(&sms_bench::cache_key(&cfg, &mix, run_spec));
            if let Ok(file) = ProfileFile::load(dir.join(format!("{hash}.json"))) {
                merged.merge(&records_to_profile(&file.phases));
            }
        }
        if merged.is_empty() {
            None
        } else {
            Some(sms_bench::phase_records(&merged))
        }
    };

    // Collect outcomes per point, in key order.
    let mut records: Vec<PointRecord> = Vec::with_capacity(points.len());
    let mut outcomes: Vec<PointOutcome> = Vec::new();
    let mut evaluated = 0usize;
    let mut pruned_count = 0usize;
    let mut quarantined = 0usize;
    for p in &points {
        let _span = sms_obs::tracer()
            .span("explore.point", "explore")
            .arg("key", &p.key);
        let llc_bytes = total_llc_bytes(p);
        if let Some((predicted, by)) = prune_map.get(&p.key) {
            pruned_count += 1;
            count_point("pruned");
            records.push(PointRecord {
                key: p.key.clone(),
                status: "pruned".to_owned(),
                cores: p.config.num_cores,
                llc_bytes,
                throughput: None,
                predicted: Some(*predicted),
                dominated_by: Some(by.clone()),
                profile: None,
            });
            continue;
        }
        let thr = observed_throughput(&cache, p, &mixes_for(p), run_spec);
        let predicted = holdout.iter().find(|h| h.key == p.key).map(|h| h.predicted);
        if thr.is_finite() {
            evaluated += 1;
            count_point(if cached_before.contains(&p.key) {
                "cached"
            } else {
                "run"
            });
            outcomes.push(PointOutcome {
                key: p.key.clone(),
                cores: p.config.num_cores,
                llc_bytes,
                throughput: thr,
            });
            records.push(PointRecord {
                key: p.key.clone(),
                status: "evaluated".to_owned(),
                cores: p.config.num_cores,
                llc_bytes,
                throughput: Some(thr),
                predicted,
                dominated_by: None,
                profile: point_profile(p),
            });
        } else {
            quarantined += 1;
            count_point("quarantined");
            records.push(PointRecord {
                key: p.key.clone(),
                status: "quarantined".to_owned(),
                cores: p.config.num_cores,
                llc_bytes,
                throughput: None,
                predicted,
                dominated_by: None,
                profile: None,
            });
        }
    }
    drop(plan_span);

    let front = pareto_front(&outcomes);
    let table = render_table(&front);
    let mean_err = if holdout.is_empty() {
        None
    } else {
        Some(holdout.iter().map(|h| h.abs_rel_error).sum::<f64>() / holdout.len() as f64)
    };
    let prune_report = PruneReport {
        enabled: resolved.prune.enabled,
        seed: resolved.prune.seed,
        bootstrap_fraction: resolved.prune.bootstrap_fraction,
        margin: resolved.prune.margin,
        bootstrap: bootstrap_keys,
        pruned: prune_map.keys().cloned().collect(),
        holdout_audit: holdout,
        mean_abs_rel_error: mean_err,
        disabled_reason,
    };
    let grid_axes: BTreeMap<String, Vec<String>> = spec
        .grid
        .axes
        .iter()
        .map(|(a, vs)| (a.clone(), vs.iter().map(ToString::to_string).collect()))
        .collect();
    // serde_json's default map preserves insertion order per struct, but
    // Value objects sort keys, so serializing through Value canonicalizes.
    let manifest = serde_json::json!({
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "label": params.label,
        "spec_name": spec.name,
        "machine": spec.machine.summary(),
        "grid_axes": grid_axes,
        "workloads": {
            "mixes": spec.workloads.mixes,
            "seed": spec.workloads.seed,
            "budget": spec.workloads.budget,
        },
        "points": records,
        "pareto": front,
        "pruning": prune_report,
    });
    let dir = explore_dir(cache.dir());
    std::fs::create_dir_all(&dir)?;
    let manifest_path = dir.join(format!(
        "{}.json",
        sms_bench::telemetry::sanitize_label(&params.label)
    ));
    let mut text = serde_json::to_string_pretty(&manifest).unwrap_or_default();
    text.push('\n');
    std::fs::write(&manifest_path, text)?;

    Ok(ExploreOutcome {
        manifest,
        manifest_path,
        front,
        table,
        evaluated,
        pruned: pruned_count,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    const SMOKE: &str = r#"
schema = 1
name = "unit-smoke"

[machine]
cores = 1

[workloads]
mixes = [["leela_r"]]
seed = 7
budget = 4000

[grid]
rob_size = [16, 128]
llc_slice_kib = [256, 1024]
"#;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sms-explore-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn resolved(prune: PruneParams) -> ResolvedExplore {
        ResolvedExplore {
            spec: MachineSpec::from_toml(SMOKE).unwrap(),
            prune,
        }
    }

    fn params(label: &str) -> ExploreParams {
        ExploreParams {
            label: label.to_owned(),
            threads: 2,
            sim_threads: 1,
            profile: false,
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_a_permutation() {
        let a = shuffled_indices(16, 43);
        let b = shuffled_indices(16, 43);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(a, shuffled_indices(16, 44));
    }

    #[test]
    fn explore_unpruned_produces_front_and_manifest() {
        let dir = tmp("noprune");
        let r = resolved(PruneParams {
            enabled: false,
            ..PruneParams::default()
        });
        let out = run_explore(&dir, &r, &params("t-noprune")).unwrap();
        assert_eq!(out.evaluated, 4);
        assert_eq!(out.pruned, 0);
        assert!(!out.front.is_empty());
        assert!(out.manifest_path.exists());
        // Deterministic rerun: manifest is bit-identical.
        let first = std::fs::read(&out.manifest_path).unwrap();
        let out2 = run_explore(&dir, &r, &params("t-noprune")).unwrap();
        let second = std::fs::read(&out2.manifest_path).unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_grid_disables_pruning_with_reason() {
        let dir = tmp("tiny");
        // 4-point grid is the boundary: < 4 disables. Shrink to 2 points.
        let two = SMOKE.replace("rob_size = [16, 128]\n", "");
        let r = ResolvedExplore {
            spec: MachineSpec::from_toml(&two).unwrap(),
            prune: PruneParams::default(),
        };
        let out = run_explore(&dir, &r, &params("t-tiny")).unwrap();
        assert_eq!(out.pruned, 0);
        assert_eq!(out.evaluated, 2);
        let reason = &out.manifest["pruning"]["disabled_reason"];
        assert!(
            reason.as_str().is_some_and(|s| s.contains("too small")),
            "{reason}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiled_explore_attributes_phases_to_evaluated_points() {
        let dir = tmp("profiled");
        let r = resolved(PruneParams {
            enabled: false,
            ..PruneParams::default()
        });
        let mut p = params("t-profiled");
        p.profile = true;
        let out = run_explore(&dir, &r, &p).unwrap();
        assert_eq!(out.evaluated, 4);
        let points = out.manifest["points"].as_array().unwrap();
        for point in points {
            let profile = point["profile"]
                .as_array()
                .expect("every evaluated point carries a profile");
            assert!(
                profile
                    .iter()
                    .any(|ph| ph["path"] == "sim.run" && ph["total_nanos"].as_u64() > Some(0)),
                "root phase attributed: {point}"
            );
        }
        // An unprofiled explore into the same cache leaves the field out
        // even though profile files exist on disk (opt-in per invocation).
        let plain = run_explore(&dir, &r, &params("t-profiled-off")).unwrap();
        for point in plain.manifest["points"].as_array().unwrap() {
            assert!(point.get("profile").is_none(), "{point}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_grid_and_missing_mixes_are_spec_errors() {
        let dir = tmp("badspec");
        let r = ResolvedExplore {
            spec: MachineSpec::from_toml("schema = 1\n").unwrap(),
            prune: PruneParams::default(),
        };
        let err = run_explore(&dir, &r, &params("t-bad")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("grid"), "{text}");
        assert!(text.contains("workloads.mixes"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolved_explore_round_trips_through_json() {
        let r = resolved(PruneParams::default());
        let text = serde_json::to_string(&r).unwrap();
        let back: ResolvedExplore = serde_json::from_str(&text).unwrap();
        assert_eq!(r, back);
    }
}
