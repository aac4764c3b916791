//! The workflow stage: the paper's Fig. 2 use through the journaled
//! executor on a fresh cache — cold sweep of the scale models, train,
//! save/load, predict the held-out benchmarks on the target — then warm
//! passes over the same plan. Layers: `bench`, `core`, `ml` (and `sim`
//! underneath the sweep).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sms_bench::telemetry::write_manifest;
use sms_bench::{
    execute_plan, execute_plan_with, CachedSim, ExecOptions, JournalLine, PlanJournal, PlanSummary,
    RunManifest, RunStatus,
};
use sms_core::pipeline::{collect_scale_models, mean_ipc, scale_model_training_sets};
use sms_core::session::TRAINING_SEED;
use sms_core::{
    scale_config, train_artifact, DirectSim, MixPrediction, MlKind, ModelArtifact, ModelParams,
    RegressionExtrapolator, ScalingPolicy, Simulate, SsMeasurement,
};
use sms_ml::fit::CurveModel;
use sms_ml::{fit_curve, Dataset, DecisionTree, Matrix, RandomForest, Regressor, Svr};
use sms_sim::{SimResult, SystemConfig};
use sms_workloads::MixSpec;

use crate::host::Scratch;
use crate::inputs::WorkflowInputs;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, time_batched, time_median};

/// Name the trained artifact is saved and served under.
pub const MODEL_NAME: &str = "benchmark-svm-log";

/// Executor workers. With `sim_threads = 1` inside each run, host threads
/// never exceed two.
const WORKERS: usize = 2;

/// One repetition of the workflow on a fresh cache directory.
pub struct Op {
    pub dir: PathBuf,
    /// Cold sweep + train + save/load + predict: what a user pays for
    /// target predictions without ever simulating the target.
    pub wall_s: f64,
    pub cold: PlanSummary,
    /// Wall of the cold `execute_plan` call, as its caller waits for it.
    pub cold_s: f64,
    pub train_artifact_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub artifact: ModelArtifact,
    /// The artifact read back equals the one saved.
    pub roundtrip_equal: bool,
    /// One per held-out benchmark: its homogeneous mix on the target.
    pub predictions: Vec<MixPrediction>,
    pub warm: Vec<PlanSummary>,
    /// Wall of each warm pass, `CachedSim::open` included. Timed from
    /// outside: `PlanSummary::wall_seconds` starts after the executor has
    /// looked every entry up, which for a warm pass is all of the work.
    pub warm_s: Vec<f64>,
}

fn open_cache(dir: &Path) -> Result<CachedSim, String> {
    CachedSim::open(dir).map_err(|e| format!("open cache {}: {e}", dir.display()))
}

/// Run the plan into `cache`. With the recorder on, the run function is
/// wrapped so every simulation is a span under the `execute_plan` span;
/// what is left of that span is the executor's own time and its waiting.
fn sweep(
    cache: &CachedSim,
    inputs: &WorkflowInputs,
    plan: &[(SystemConfig, MixSpec)],
    label: &str,
    rec: &Arc<Recorder>,
    op: u64,
) -> PlanSummary {
    let span = rec.span("bench", "execute_plan", op);
    if !rec.is_on() {
        return execute_plan(cache, plan, inputs.spec(), WORKERS, label);
    }
    let parent = span.id();
    let rec = Arc::clone(rec);
    execute_plan_with(
        cache,
        plan,
        inputs.spec(),
        WORKERS,
        label,
        ExecOptions::from_env(),
        move |cfg, mix, spec| {
            let _s = rec.span_under(parent, "sim", "DirectSim::run_mix", op);
            DirectSim.run_mix(cfg, mix, spec)
        },
    )
}

pub fn op(
    inputs: &WorkflowInputs,
    dir: PathBuf,
    warm_passes: usize,
    rec: &Arc<Recorder>,
    id: u64,
) -> Result<Op, String> {
    let root = rec.span("benchmark", "workflow_op", id);
    let t0 = Instant::now();
    let cache = {
        let _s = rec.span("bench", "CachedSim::open", id);
        open_cache(&dir)?
    };
    let label = format!("workflow-{id}");
    let t_cold = Instant::now();
    let cold = sweep(&cache, inputs, &inputs.plan, &label, rec, id);
    let cold_s = t_cold.elapsed().as_secs_f64();

    let t_train = Instant::now();
    let trained = {
        let _s = rec.span("core", "train_artifact", id);
        train_artifact(
            &mut cache.clone(),
            inputs.cfg.clone(),
            &inputs.train,
            MlKind::Svm,
            CurveModel::Logarithmic,
            &ModelParams::default(),
            MODEL_NAME,
        )
        .map_err(|e| format!("train_artifact: {e}"))?
    };
    let train_artifact_s = t_train.elapsed().as_secs_f64();

    // `predict_mix` answers for benchmarks in the artifact's single-core
    // table; the held-out ones enter it with the 1-core run the plan made.
    let artifact = {
        let _s = rec.span("core", "ModelArtifact::new", id);
        let mut payload = trained.payload;
        let single = inputs.single_core();
        for b in &inputs.heldout {
            let r = cache
                .lookup(&single, &inputs.mix(b.name, 1), inputs.spec())
                .ok_or_else(|| format!("1-core run of {} is not in the cache", b.name))?;
            payload.ss_table.insert(
                b.name.to_owned(),
                SsMeasurement {
                    ipc: r.cores[0].ipc,
                    bandwidth: r.cores[0].bandwidth_gbps,
                },
            );
        }
        ModelArtifact::new(MODEL_NAME, payload)
    };

    let path = dir.join("artifact").join(artifact.file_name());
    let t_save = Instant::now();
    {
        let _s = rec.span("core", "ModelArtifact::save", id);
        artifact.save(&path).map_err(|e| format!("save: {e}"))?;
    }
    let save_s = t_save.elapsed().as_secs_f64();
    let t_load = Instant::now();
    let loaded = {
        let _s = rec.span("core", "ModelArtifact::load", id);
        ModelArtifact::load(&path).map_err(|e| format!("load: {e}"))?
    };
    let load_s = t_load.elapsed().as_secs_f64();

    let mut predictions = Vec::with_capacity(inputs.heldout.len());
    for b in &inputs.heldout {
        let _s = rec.span("core", "ModelArtifact::predict_mix", id);
        let slots = vec![b.name.to_owned(); inputs.cfg.target.num_cores as usize];
        predictions.push(
            loaded
                .predict_mix(&slots, None)
                .map_err(|e| format!("predict_mix {}: {e}", b.name))?,
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);

    // Each warm pass opens the cache afresh, so every entry is read,
    // parsed and checksummed from disk, not served from memory.
    let mut warm = Vec::with_capacity(warm_passes);
    let mut warm_s = Vec::with_capacity(warm_passes);
    for _ in 0..warm_passes {
        let _root = rec.span("benchmark", "warm_pass", id);
        let t = Instant::now();
        let fresh = {
            let _s = rec.span("bench", "CachedSim::open", id);
            open_cache(&dir)?
        };
        warm.push(sweep(&fresh, inputs, &inputs.plan, &label, rec, id));
        warm_s.push(t.elapsed().as_secs_f64());
    }

    Ok(Op {
        dir,
        wall_s,
        cold,
        cold_s,
        train_artifact_s,
        save_s,
        load_s,
        roundtrip_equal: loaded == artifact,
        artifact,
        predictions,
        warm,
        warm_s,
    })
}

/// Repetitions, each on a fresh cache, until `seconds` have passed.
pub fn ops(
    inputs: &WorkflowInputs,
    scratch: &Scratch,
    warm_passes: usize,
    seconds: f64,
    rec: &Arc<Recorder>,
    first_id: u64,
) -> Result<Vec<Op>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let id = first_id + out.len() as u64;
        let dir = scratch.subdir(&format!("workflow-{id}"))?;
        out.push(op(inputs, dir, warm_passes, rec, id)?);
    }
    Ok(out)
}

fn positive_finite(p: &MixPrediction) -> bool {
    p.per_core_ipc.iter().all(|v| v.is_finite() && *v > 0.0) && p.stp.is_finite()
}

/// Operation counts and output checks of one repetition.
fn verify(report: &mut Report, inputs: &WorkflowInputs, o: &Op) {
    let runs = inputs.plan.len();
    report.attempted += (runs + inputs.heldout.len()) as u64;
    let bad_predictions = o.predictions.iter().filter(|p| !positive_finite(p)).count();
    report.failed += (o.cold.failed + bad_predictions) as u64;
    report.check(
        "workflow.cold_sweep_complete",
        o.cold.failed == 0 && o.cold.simulated == runs && o.cold.cached == 0,
        format!(
            "simulated {} cached {} failed {} of {runs}",
            o.cold.simulated, o.cold.cached, o.cold.failed
        ),
    );
    report.check(
        "workflow.warm_passes_all_cached",
        o.warm
            .iter()
            .all(|w| w.simulated == 0 && w.cached == runs && w.failed == 0),
        format!("{} passes", o.warm.len()),
    );
    report.check(
        "workflow.artifact_verifies",
        o.artifact.verify().is_ok(),
        "stored checksum equals the payload's",
    );
    report.check(
        "workflow.artifact_roundtrip_equal",
        o.roundtrip_equal,
        "save then load",
    );
    report.check(
        "workflow.predictions_positive_finite",
        bad_predictions == 0 && o.predictions.len() == inputs.heldout.len(),
        format!("{} predictions", o.predictions.len()),
    );
}

/// A cache entry picked by the seed equals a direct simulation of the
/// same run (`host_seconds` aside). Picked among the 1-core runs: the
/// check simulates on the main thread, and a 16-core machine built there
/// for some seeds and not for others moved `peak_rss_mib` by a quarter.
fn verify_sampled_entry(report: &mut Report, inputs: &WorkflowInputs, o: &Op, seed: u64) {
    let single: Vec<_> = inputs
        .plan
        .iter()
        .filter(|(cfg, _)| cfg.num_cores == 1)
        .collect();
    let (cfg, mix) = single[(seed % single.len() as u64) as usize];
    let zeroed = |mut r: SimResult| {
        r.host_seconds = 0.0;
        r
    };
    let cached = CachedSim::open(&o.dir)
        .ok()
        .and_then(|c| c.lookup(cfg, mix, inputs.spec()))
        .map(zeroed);
    let direct = DirectSim.run_mix(cfg, mix, inputs.spec()).ok().map(zeroed);
    report.check(
        "workflow.cache_entry_equals_direct_run",
        cached.is_some() && cached == direct,
        format!("{} on {} core(s)", mix.benchmarks[0], cfg.num_cores),
    );
}

/// End-to-end numbers of untraced repetitions.
pub fn end_to_end(report: &mut Report, inputs: &WorkflowInputs, ops: &[Op], seed: u64) {
    let runs = inputs.plan.len() as f64;
    for o in ops {
        verify(report, inputs, o);
    }
    if let Some(last) = ops.last() {
        verify_sampled_entry(report, inputs, last, seed);
    }
    let cold: Vec<f64> = ops.iter().map(|o| runs / o.cold_s).collect();
    let warm: Vec<f64> = ops.iter().flat_map(|o| o.warm_s.iter().copied()).collect();
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s * 1e3).collect();
    report.set("rate", median(&cold), cold.len());
    report.set("op_ms", median(&walls), walls.len());
    if !warm.is_empty() {
        report.set("rate_alt", runs / median(&warm), warm.len());
        report.set("op_alt_ms", median(&warm) * 1e3, warm.len());
    }
}

/// Simulate the held-out benchmarks on the 32-core target — the truth the
/// workflow exists to avoid — for the prediction error and the paper's
/// §V-D ratio of target to 1-core simulation time.
fn truth(
    report: &mut Report,
    inputs: &WorkflowInputs,
    o: &Op,
    scratch: &Scratch,
    rec: &Arc<Recorder>,
) -> Result<(), String> {
    let _root = rec.span("benchmark", "truth_sims", 0);
    let cores = inputs.cfg.target.num_cores;
    let plan: Vec<(SystemConfig, MixSpec)> = inputs
        .heldout
        .iter()
        .map(|b| (inputs.cfg.target.clone(), inputs.mix(b.name, cores)))
        .collect();
    let dir = scratch.subdir("truth")?;
    let cache = open_cache(&dir)?;
    let summary = sweep(&cache, inputs, &plan, "truth", rec, 0);
    report.check(
        "workflow.truth_sims_complete",
        summary.failed == 0 && summary.simulated == plan.len(),
        format!("{} target simulations", plan.len()),
    );
    let scale_models = open_cache(&o.dir)?;
    let single = inputs.single_core();
    let (mut errors, mut target_s, mut single_s) = (Vec::new(), 0.0, 0.0);
    for ((cfg, mix), predicted) in plan.iter().zip(&o.predictions) {
        let t = cache
            .lookup(cfg, mix, inputs.spec())
            .ok_or("a target run is missing from the truth cache")?;
        let s = scale_models
            .lookup(&single, &inputs.mix(&mix.benchmarks[0], 1), inputs.spec())
            .ok_or("a 1-core run is missing from the cache")?;
        let predicted_ipc =
            predicted.per_core_ipc.iter().sum::<f64>() / predicted.per_core_ipc.len() as f64;
        let simulated_ipc = mean_ipc(&t);
        errors.push((predicted_ipc - simulated_ipc).abs() / simulated_ipc);
        target_s += t.host_seconds;
        single_s += s.host_seconds;
    }
    let n = errors.len();
    report.set(
        "core.pred_error_pct",
        100.0 * errors.iter().sum::<f64>() / n as f64,
        n,
    );
    report.set("core.scale_model_speedup", target_s / single_s, n);
    Ok(())
}

/// Direct-call timings of `ml`, `core` and `bench`, on the workflow's own
/// training sets, artifact, plan and cache.
fn micro(
    report: &mut Report,
    inputs: &WorkflowInputs,
    o: &Op,
    scratch: &Scratch,
    iters: usize,
    rec: &Arc<Recorder>,
) -> Result<(), String> {
    let _root = rec.span("benchmark", "micro_timings", 0);
    let cfg = &inputs.cfg;
    let params = ModelParams::default();

    // core: collection from a warm cache, training, prediction.
    let warm = open_cache(&o.dir)?;
    let t = Instant::now();
    let data = {
        let _s = rec.span("core", "collect_scale_models", 0);
        collect_scale_models(&mut warm.clone(), cfg, &inputs.train)
            .map_err(|e| format!("collect: {e}"))?
    };
    report.set("core.collect_s", t.elapsed().as_secs_f64(), 1);
    let training = scale_model_training_sets(cfg, &data);
    {
        let _s = rec.span("core", "RegressionExtrapolator::train", 0);
        let fit = || {
            RegressionExtrapolator::train(
                MlKind::Svm,
                CurveModel::Logarithmic,
                &training,
                &params,
                TRAINING_SEED,
            )
        };
        report.set(
            "core.train_ms",
            time_median(iters.min(20), fit) * 1e3,
            iters.min(20),
        );
    }
    {
        let _s = rec.span("core", "scale_config", 0);
        let f = || scale_config(&cfg.target, 4, ScalingPolicy::prs());
        report.set(
            "core.scale_config_us",
            time_batched(iters, 16, f) * 1e6,
            iters,
        );
    }
    {
        let _s = rec.span("core", "ModelArtifact::predict_mix", 0);
        let slots: Vec<String> = inputs
            .train
            .iter()
            .cycle()
            .take(cfg.target.num_cores as usize)
            .map(|b| b.name.to_owned())
            .collect();
        let f = || o.artifact.predict_mix(&slots, None);
        report.set("core.predict_mix_us", time_median(iters, f) * 1e6, iters);
    }

    // ml: the largest scale model's training set, as the predictor sees
    // it (one row per training benchmark).
    {
        let _s = rec.span("ml", "fit_and_predict", 0);
        let largest = training.last().ok_or("no scale-model training set")?;
        let set = Dataset::new(Matrix::from_vecs(&largest.rows), largest.targets.clone());
        let n = iters.min(50);
        report.set(
            "ml.svr_fit_us",
            time_median(n, || Svr::fit(&set, &params.svr)) * 1e6,
            n,
        );
        let svr = Svr::fit(&set, &params.svr);
        let row = &largest.rows[0];
        report.set(
            "ml.svr_predict_ns",
            time_batched(iters, 64, || svr.predict(row)) * 1e9,
            iters,
        );
        let forest = || RandomForest::fit(&set, &params.forest, TRAINING_SEED);
        report.set(
            "ml.forest_fit_us",
            time_median(n.min(10), forest) * 1e6,
            n.min(10),
        );
        let tree = || DecisionTree::fit(&set, &params.tree, TRAINING_SEED);
        report.set("ml.tree_fit_us", time_median(n, tree) * 1e6, n);
        let xs: Vec<f64> = data[0].ms_ipc.iter().map(|(c, _)| f64::from(*c)).collect();
        let ys: Vec<f64> = data[0].ms_ipc.iter().map(|(_, v)| *v).collect();
        let curve = || fit_curve(CurveModel::Logarithmic, &xs, &ys);
        report.set(
            "ml.curve_fit_ns",
            time_batched(iters, 64, curve) * 1e9,
            iters,
        );
    }

    // bench: one disk read + parse + checksum per entry, then the same
    // entries from memory; insert and journal append each end in an fsync.
    let runs = inputs.plan.len();
    let results: Vec<SimResult> = {
        let _s = rec.span("bench", "CachedSim::lookup", 0);
        let fresh = open_cache(&o.dir)?;
        let lookup_all = |c: &CachedSim| -> Vec<Option<SimResult>> {
            inputs
                .plan
                .iter()
                .map(|(m, x)| c.lookup(m, x, inputs.spec()))
                .collect()
        };
        let t = Instant::now();
        let from_disk = lookup_all(&fresh);
        report.set(
            "bench.lookup_disk_us",
            t.elapsed().as_secs_f64() * 1e6 / runs as f64,
            runs,
        );
        let t = Instant::now();
        black_box(lookup_all(&fresh));
        report.set(
            "bench.lookup_mem_us",
            t.elapsed().as_secs_f64() * 1e6 / runs as f64,
            runs,
        );
        from_disk
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("a plan entry is missing from the cache")?
    };
    let some = runs.min(32);
    {
        let _s = rec.span("bench", "CachedSim::insert", 0);
        let dir = scratch.subdir("micro-insert")?;
        let cache = open_cache(&dir)?;
        let t = Instant::now();
        for ((m, x), r) in inputs.plan.iter().zip(&results).take(some) {
            cache.insert(m, x, inputs.spec(), r);
        }
        report.set(
            "bench.insert_us",
            t.elapsed().as_secs_f64() * 1e6 / some as f64,
            some,
        );
    }
    {
        let _s = rec.span("bench", "PlanJournal::append", 0);
        let dir = scratch.subdir("micro-journal")?;
        let journal =
            PlanJournal::open_append(&dir, "micro").map_err(|e| format!("journal: {e}"))?;
        let line = JournalLine::Run {
            key_hash: "0".repeat(32),
            status: RunStatus::Ok,
        };
        let t = Instant::now();
        for _ in 0..some {
            journal
                .append(&line)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        report.set(
            "bench.journal_append_us",
            t.elapsed().as_secs_f64() * 1e6 / some as f64,
            some,
        );
    }
    {
        let _s = rec.span("bench", "write_manifest", 0);
        let path = o
            .cold
            .manifest_path
            .as_deref()
            .ok_or("the cold sweep wrote no manifest")?;
        let manifest = RunManifest::load(path).map_err(|e| format!("load manifest: {e}"))?;
        let dir = scratch.subdir("micro-manifest")?;
        let n = iters.min(10);
        let write = || write_manifest(&dir, &manifest);
        report.set("bench.manifest_write_ms", time_median(n, write) * 1e3, n);
    }
    {
        // The executor's own cost per run: the plan with a run function
        // that returns a canned result, so cache insert, journal append,
        // telemetry and manifest are all that is left.
        let _s = rec.span("bench", "execute_plan_with(canned)", 0);
        let dir = scratch.subdir("micro-exec")?;
        let cache = open_cache(&dir)?;
        let canned = results[0].clone();
        let summary = execute_plan_with(
            &cache,
            &inputs.plan,
            inputs.spec(),
            WORKERS,
            "micro-exec",
            ExecOptions::from_env(),
            move |_, _, _| Ok(canned.clone()),
        );
        report.set(
            "bench.exec_overhead_us",
            summary.wall_seconds * 1e6 / runs as f64,
            runs,
        );
    }
    Ok(())
}

/// The traced pass: one untraced repetition for reference, one with the
/// span recorder on, then the truth simulations and the direct-call
/// timings. Fills every `ml.*`, `core.*` and `bench.*` metric; returns the
/// traced repetition (its artifact is what a following serve stage
/// serves) and the tracing overhead.
pub fn per_layer(
    report: &mut Report,
    inputs: &WorkflowInputs,
    scratch: &Scratch,
    warm_passes: usize,
    micro_iters: usize,
    seed: u64,
    rec: &Arc<Recorder>,
) -> Result<(Op, f64), String> {
    let off = Arc::new(Recorder::new(false));
    let plain = op(
        inputs,
        scratch.subdir("workflow-plain")?,
        warm_passes,
        &off,
        1,
    )?;
    let traced = op(
        inputs,
        scratch.subdir("workflow-traced")?,
        warm_passes,
        rec,
        2,
    )?;
    verify(report, inputs, &plain);
    verify(report, inputs, &traced);
    verify_sampled_entry(report, inputs, &plain, seed);
    report.check(
        "workflow.identical_traced_and_untraced",
        plain.artifact == traced.artifact && plain.predictions == traced.predictions,
        "artifact and predictions",
    );

    report.set("core.train_artifact_s", plain.train_artifact_s, 1);
    report.set("core.artifact_save_ms", plain.save_s * 1e3, 1);
    report.set("core.artifact_load_ms", plain.load_s * 1e3, 1);
    report.set(
        "core.cv_error_pct",
        plain.artifact.payload.cv_error.map_or(0.0, |e| e * 100.0),
        1,
    );
    report.set("bench.worker_utilization", plain.cold.worker_utilization, 1);
    report.set("bench.cold_simulated", plain.cold.simulated as f64, 1);
    report.set(
        "bench.warm_cached",
        plain.warm.last().map_or(0.0, |w| w.cached as f64),
        plain.warm.len(),
    );
    report.set("bench.retries", plain.cold.retries as f64, 1);
    report.set("bench.failed", plain.cold.failed as f64, 1);

    truth(report, inputs, &plain, scratch, rec)?;
    micro(report, inputs, &plain, scratch, micro_iters, rec)?;
    let overhead = traced.wall_s / plain.wall_s - 1.0;
    Ok((traced, overhead))
}
