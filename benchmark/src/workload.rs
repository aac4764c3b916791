//! One workload run: set-up, the timed stage, and — traced — every layer.
//!
//! An untraced run times the workload's own stage for `--seconds` with no
//! recorder and no profiler, and reports the end-to-end metrics. A traced
//! run goes through all three stages in pipeline order — simulator,
//! workflow, serve, the last serving the artifact the workflow trained —
//! with the workload's own stage at its full size and the others at smoke
//! size, so that every layer reports on every workload; it reports the
//! per-layer metrics.

use std::sync::Arc;
use std::time::Instant;

use sms_bench::{execute_plan, CachedSim};
use sms_core::ModelArtifact;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host::{peak_rss_mib, Scratch};
use crate::inputs::{self, Sizes, COMPUTE_POOL, MEMBOUND_POOL, SMOKE};
use crate::report::Report;
use crate::serve_stage::{self, Server};
use crate::spans::{coverage, Recorder, Span};
use crate::stats::median;
use crate::{sim_stage, workflow_stage};

/// Times set-up is done per run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// Seconds a traced run gives each stage that is not the workload's own.
const OTHER_STAGE_SECONDS: f64 = 0.5;

/// Share of a workload's timed wall the span table must attribute to
/// calls into layers.
const COVERAGE_FLOOR: f64 = 0.9;

pub struct Run {
    pub report: Report,
    pub spans: Vec<Span>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim(&'static [&'static str]),
    Workflow,
    Serve,
}

fn kind(name: &str) -> Result<Kind, String> {
    match name {
        "sim_membound" => Ok(Kind::Sim(&MEMBOUND_POOL)),
        "sim_compute" => Ok(Kind::Sim(&COMPUTE_POOL)),
        "workflow" => Ok(Kind::Workflow),
        "serve" => Ok(Kind::Serve),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Do `set_up` [`SETUP_REPEATS`] times; keep the last product, hand the
/// earlier ones to `discard`, and return the median duration.
fn repeated_setup<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let product = set_up(i)?;
        seconds.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(product) {
            discard(old);
        }
    }
    Ok((kept.expect("SETUP_REPEATS is positive"), median(&seconds)))
}

/// Train the artifact `serve` answers from: the workflow without held-out
/// benchmarks or warm passes, at the serve sizes.
fn train_served_artifact(
    sizes: &Sizes,
    seed: u64,
    scratch: &Scratch,
    tag: &str,
) -> Result<ModelArtifact, String> {
    let training = inputs::serve_training(sizes, seed);
    let dir = scratch.subdir(&format!("serve-training-{tag}"))?;
    let off = Arc::new(Recorder::new(false));
    Ok(workflow_stage::op(&training, dir, 0, &off, 0)?.artifact)
}

fn boot(
    artifact: &ModelArtifact,
    sizes: &Sizes,
    seed: u64,
    scratch: &Scratch,
    tag: &str,
) -> Result<Server, String> {
    let dir = scratch.subdir(&format!("registry-{tag}"))?;
    Server::boot(artifact, &dir, seed, sizes.prewarmed)
}

fn untraced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    scratch: &Scratch,
    report: &mut Report,
) -> Result<(), String> {
    let off = Arc::new(Recorder::new(false));
    let setup_s = match kind {
        Kind::Sim(pool) => {
            let (mix, setup_s) = repeated_setup(
                |_| {
                    let mix = inputs::sim_mix(pool, seed);
                    sim_stage::warm_up(&mix, sizes.sim_budget, &off)
                        .map_err(|e| format!("warm-up rep: {e}"))?;
                    Ok(mix)
                },
                drop,
            )?;
            let pass = sim_stage::reps(&mix, sizes.sim_budget, seconds, &off, false);
            sim_stage::end_to_end(report, &pass);
            setup_s
        }
        Kind::Workflow => {
            let (inputs, setup_s) = repeated_setup(
                |i| {
                    let inputs = inputs::workflow(sizes, seed);
                    // Warm-up: the first benchmark's scale models through
                    // the executor into a cache of their own, so lazy
                    // statics and first-touch page faults are out of the
                    // first timed sweep.
                    let dir = scratch.subdir(&format!("warm-up-{i}"))?;
                    let cache = CachedSim::open(&dir).map_err(|e| format!("open cache: {e}"))?;
                    let slice = &inputs.plan[..inputs.plan.len().min(4)];
                    let summary = execute_plan(&cache, slice, inputs.spec(), 2, "warm-up");
                    if summary.failed > 0 {
                        return Err("a warm-up run failed".to_owned());
                    }
                    Ok(inputs)
                },
                drop,
            )?;
            let ops = workflow_stage::ops(&inputs, scratch, sizes.warm_passes, seconds, &off, 1)?;
            workflow_stage::end_to_end(report, &inputs, &ops, seed);
            setup_s
        }
        Kind::Serve => {
            let (server, setup_s) = repeated_setup(
                |i| {
                    let artifact = train_served_artifact(sizes, seed, scratch, &i.to_string())?;
                    boot(&artifact, sizes, seed, scratch, &i.to_string())
                },
                Server::shutdown,
            )?;
            serve_stage::warm_up(&server, seconds);
            let (miss, hit) = serve_stage::phases(&server, 1, seconds, &off);
            serve_stage::end_to_end(report, &miss, &hit);
            server.shutdown();
            setup_s
        }
    };
    report.set("setup_s", setup_s, SETUP_REPEATS);
    report.set("peak_rss_mib", peak_rss_mib(), 1);
    Ok(())
}

fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    scratch: &Scratch,
    rec: &Arc<Recorder>,
    report: &mut Report,
) -> Result<(), String> {
    // Simulator stage. A workload of another kind runs the memory-bound
    // mix: the one that reaches every simulator phase.
    let (pool, sim_sizes, sim_seconds) = match kind {
        Kind::Sim(pool) => (pool, sizes, seconds),
        _ => (&MEMBOUND_POOL[..], &SMOKE, OTHER_STAGE_SECONDS),
    };
    let mix = inputs::sim_mix(pool, seed);
    let sim_overhead = sim_stage::per_layer(
        report,
        &mix,
        sim_sizes.sim_budget,
        sim_sizes.gen_ops,
        sim_seconds,
        rec,
    );

    // Workflow stage.
    let wf_sizes = if kind == Kind::Workflow {
        sizes
    } else {
        &SMOKE
    };
    let wf = inputs::workflow(wf_sizes, seed);
    let (op, wf_overhead) = workflow_stage::per_layer(
        report,
        &wf,
        scratch,
        wf_sizes.warm_passes,
        wf_sizes.micro_iters,
        seed,
        rec,
    )?;

    // Serve stage: the `serve` workload serves the artifact its set-up
    // trains; the others serve the one the workflow stage just trained.
    let (artifact, serve_sizes, serve_seconds) = if kind == Kind::Serve {
        (
            train_served_artifact(sizes, seed, scratch, "traced")?,
            sizes,
            seconds,
        )
    } else {
        (op.artifact, &SMOKE, OTHER_STAGE_SECONDS)
    };
    let server = boot(&artifact, serve_sizes, seed, scratch, "traced")?;
    serve_stage::warm_up(&server, serve_seconds);
    let serve_overhead =
        serve_stage::per_layer(report, &server, serve_seconds, serve_sizes.micro_iters, rec);
    server.shutdown();

    let overhead = match kind {
        Kind::Sim(_) => sim_overhead,
        Kind::Workflow => Some(wf_overhead),
        Kind::Serve => serve_overhead,
    };
    if let Some(o) = overhead {
        report.set("obs.trace_overhead_pct", o * 100.0, 1);
    }
    Ok(())
}

/// The spans under each of the workload's timed roots must account for
/// [`COVERAGE_FLOOR`] of them.
fn check_coverage(kind: Kind, spans: &[Span], report: &mut Report) {
    let roots: &[&str] = match kind {
        Kind::Sim(_) => &["sim_rep"],
        Kind::Workflow => &["workflow_op", "warm_pass"],
        Kind::Serve => &["serve_phase"],
    };
    for root in roots {
        let share = coverage(spans, root);
        report.check(
            &format!("trace.coverage.{root}"),
            share >= COVERAGE_FLOOR,
            format!(
                "{:.1} % of the timed wall is inside layer spans",
                share * 100.0
            ),
        );
    }
}

/// Run workload `name`. An `Err` is a run that could not be carried out;
/// failed operations and failed output checks are in the report.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Result<Run, String> {
    let kind = kind(name)?;
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let rec = Arc::new(Recorder::new(trace));
    let mut report = Report::default();
    if trace {
        traced(kind, seed, seconds, sizes, &scratch, &rec, &mut report)?;
    } else {
        untraced(kind, seed, seconds, sizes, &scratch, &mut report)?;
    }
    let spans = Arc::try_unwrap(rec)
        .map_err(|_| "a span recorder handle outlived the run")?
        .finish();
    if trace {
        check_coverage(kind, &spans, &mut report);
    }

    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in expected {
        match report.metrics.get(name) {
            None => report.check(
                "metrics.complete",
                false,
                format!("`{name}` was not measured"),
            ),
            Some(m) if !m.value.is_finite() => {
                report.check("metrics.finite", false, format!("`{name}` is {}", m.value));
            }
            Some(_) => {}
        }
    }
    Ok(Run { report, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload at smoke size, untraced and traced, with every output
    /// check on. One test per workload, so the harness runs them side by
    /// side.
    fn smoke(name: &str) {
        for trace in [false, true] {
            let run = run(name, 7, 0.6, trace, &SMOKE).unwrap_or_else(|e| panic!("{name}: {e}"));
            let failed: Vec<_> = run.report.checks.iter().filter(|c| !c.ok).collect();
            assert!(failed.is_empty(), "{name} trace={trace}: {failed:?}");
            assert_eq!(run.report.failed, 0, "{name} trace={trace}");
            assert!(run.report.attempted > 0);
            assert!(run.report.correct());
            let n = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(run.report.metrics.len(), n, "{name} trace={trace}");
            assert_eq!(run.spans.is_empty(), !trace);
        }
    }

    #[test]
    fn smoke_sim_membound() {
        smoke("sim_membound");
    }

    #[test]
    fn smoke_sim_compute() {
        smoke("sim_compute");
    }

    #[test]
    fn smoke_workflow() {
        smoke("workflow");
    }

    #[test]
    fn smoke_serve() {
        smoke("serve");
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(run("nope", 7, 0.1, false, &SMOKE).is_err());
    }
}
