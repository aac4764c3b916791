//! The simulator stage: build the 32-core target and run one mix on it,
//! alternately at one and two host threads. Layers: `workloads`, `sim`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sms_obs::{PhaseProfile, Profiler};
use sms_sim::{MulticoreSystem, RunSpec, SimError, SimResult, SystemConfig};
use sms_workloads::MixSpec;

use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::median;

/// Pairs of reps a stage runs however short `--seconds` is: a median
/// needs three samples to reject one outlier.
const MIN_PAIRS: usize = 3;

/// One rep: `MixSpec::sources` + `MulticoreSystem::new` + `run`.
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub sources_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    /// Sum over cores of measured-phase instructions.
    pub instructions: u64,
    /// The result with `host_seconds` zeroed: the simulated statistics.
    pub result: SimResult,
}

impl Rep {
    /// Simulated M instr per host second; warm-up time is in the
    /// denominator because users pay it.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6
    }
}

pub fn rep(
    mix: &MixSpec,
    budget: u64,
    threads: u32,
    rec: &Recorder,
    op: u64,
    profiler: Option<&Profiler>,
) -> Result<Rep, SimError> {
    let mut cfg = SystemConfig::target_32core();
    cfg.sim_threads = threads;
    let spec = RunSpec::with_default_warmup(budget);
    let _rep = rec.span("benchmark", "sim_rep", op);
    let t0 = Instant::now();
    let sources = {
        let _s = rec.span("workloads", "MixSpec::sources", op);
        mix.sources()
    };
    let t1 = Instant::now();
    let mut system = {
        let _s = rec.span("sim", "MulticoreSystem::new", op);
        MulticoreSystem::new(cfg, sources)?
    };
    if let Some(p) = profiler {
        system.attach_profiler(p);
    }
    let t2 = Instant::now();
    let mut result = {
        let _s = rec.span("sim", "MulticoreSystem::run", op);
        system.run(spec)?
    };
    let t3 = Instant::now();
    result.host_seconds = 0.0;
    Ok(Rep {
        wall_s: (t3 - t0).as_secs_f64(),
        sources_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        instructions: result.cores.iter().map(|c| c.instructions).sum(),
        result,
    })
}

/// Reps of one pass, by host thread count.
#[derive(Debug, Default)]
pub struct Reps {
    pub t1: Vec<Rep>,
    pub t2: Vec<Rep>,
    pub attempted: u64,
    pub failed: u64,
    /// Phase table summed over the profiled one-thread reps.
    pub profile: PhaseProfile,
}

impl Reps {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.t1.iter().chain(&self.t2)
    }
}

/// One-thread and two-thread reps interleaved, so drift of the host
/// falls on both alike, until `seconds` have passed.
pub fn reps(mix: &MixSpec, budget: u64, seconds: f64, rec: &Recorder, profile: bool) -> Reps {
    let profiler = profile.then(Profiler::new);
    let mut out = Reps::default();
    let started = Instant::now();
    let mut op = 0;
    'pairs: while out.t1.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < seconds {
        for threads in [1, 2] {
            op += 1;
            out.attempted += 1;
            // The phase table is read at one thread only, where phases
            // nest strictly and self times tile the run.
            let p = profiler.as_ref().filter(|_| threads == 1);
            match rep(mix, budget, threads, rec, op, p) {
                Ok(r) if threads == 1 => out.t1.push(r),
                Ok(r) => out.t2.push(r),
                Err(e) => {
                    // Same inputs, same failure: repeating it proves nothing.
                    eprintln!("sim rep {op} ({threads} thread(s)) failed: {e}");
                    out.failed += 1;
                    break 'pairs;
                }
            }
        }
    }
    if let Some(p) = profiler {
        out.profile = p.snapshot();
    }
    out
}

fn medians<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.into_iter().map(f).collect::<Vec<_>>())
}

/// The untimed warm-up of set-up: one short rep, so page faults, lazy
/// statics and the frequency governor are out of the first timed rep.
pub fn warm_up(mix: &MixSpec, budget: u64, rec: &Recorder) -> Result<(), SimError> {
    rep(mix, (budget / 5).max(1), 1, rec, 0, None).map(|_| ())
}

/// End-to-end numbers of an untraced pass, and the identity checks.
pub fn end_to_end(report: &mut Report, pass: &Reps) {
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    if pass.t1.is_empty() || pass.t2.is_empty() {
        report.check(
            "sim.reps_completed",
            false,
            "no rep completed at one of the thread counts",
        );
        return;
    }
    report.set("rate", medians(&pass.t1, Rep::mips), pass.t1.len());
    report.set("rate_alt", medians(&pass.t2, Rep::mips), pass.t2.len());
    report.set(
        "op_ms",
        medians(&pass.t1, |r| r.wall_s * 1e3),
        pass.t1.len(),
    );
    report.set(
        "op_alt_ms",
        medians(&pass.t2, |r| r.wall_s * 1e3),
        pass.t2.len(),
    );
    identity(report, pass, None);
}

/// Simulated statistics are bit-identical across reps and across one and
/// two host threads — and, given `other`, across traced and untraced.
/// The checksum of that statistics-only result is noted, so two commits
/// compare simulated numbers exactly (`result_checksum` of an unzeroed
/// result would hash wall time too).
fn identity(report: &mut Report, pass: &Reps, other: Option<&Reps>) {
    let Some(first) = pass.all().next() else {
        return;
    };
    let same = pass.all().all(|r| r.result == first.result);
    report.check(
        "sim.identical_across_reps_and_threads",
        same,
        format!("{} reps at 1 thread, {} at 2", pass.t1.len(), pass.t2.len()),
    );
    if let Some(other) = other {
        let same = other.all().all(|r| r.result == first.result);
        report.check("sim.identical_traced_and_untraced", same, "");
    }
    report.note(
        "sim.result_checksum",
        sms_bench::result_checksum(&first.result),
    );
}

fn phase_self_s(profile: &PhaseProfile, path: &str, reps: usize) -> f64 {
    profile
        .phases
        .iter()
        .find(|p| p.path == path)
        .map_or(0.0, |p| p.self_nanos as f64 / 1e9 / reps as f64)
}

fn phase(profile: &PhaseProfile, path: &str) -> (u64, u64) {
    profile
        .phases
        .iter()
        .find(|p| p.path == path)
        .map_or((0, 0), |p| (p.count, p.total_nanos))
}

/// `SyntheticSource::next_op` calls per second over the mix's sources.
fn gen_mops(mix: &MixSpec, ops_per_source: u64, rec: &Recorder) -> f64 {
    let mut sources = mix.sources();
    let _s = rec.span("workloads", "SyntheticSource::next_op", 0);
    let t = Instant::now();
    for s in &mut sources {
        for _ in 0..ops_per_source {
            black_box(s.next_op());
        }
    }
    (sources.len() as u64 * ops_per_source) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The traced pass: an untraced pass for reference, then the same with
/// the span recorder on and `attach_profiler` on the one-thread reps.
/// Fills every `workloads.*` and `sim.*` metric; returns the tracing
/// overhead (traced over untraced one-thread rep wall, minus one) for the
/// workload whose own stage this is.
pub fn per_layer(
    report: &mut Report,
    mix: &MixSpec,
    budget: u64,
    gen_ops: u64,
    seconds: f64,
    rec: &Arc<Recorder>,
) -> Option<f64> {
    let off = Recorder::new(false);
    let plain = reps(mix, budget, seconds / 2.0, &off, false);
    let traced = reps(mix, budget, seconds / 2.0, rec, true);
    report.attempted += plain.attempted + traced.attempted;
    report.failed += plain.failed + traced.failed;
    if plain.t1.is_empty() || plain.t2.is_empty() || traced.t1.is_empty() {
        report.check("sim.reps_completed", false, "a pass completed no rep");
        return None;
    }
    identity(report, &plain, Some(&traced));

    report.set("workloads.gen_mops", gen_mops(mix, gen_ops, rec), 1);
    let both = plain.t1.len() + plain.t2.len();
    report.set(
        "workloads.sources_ms",
        medians(plain.all(), |r| r.sources_s * 1e3),
        both,
    );
    report.set("sim.new_ms", medians(plain.all(), |r| r.new_s * 1e3), both);
    let run_s = medians(&plain.t1, |r| r.run_s);
    report.set("sim.run_s", run_s, plain.t1.len());

    let n = traced.t1.len();
    let p = &traced.profile;
    for (name, path) in [
        ("sim.fork_self_s", "sim.run;window.fork"),
        ("sim.core_step_self_s", "sim.run;window.fork;core.step"),
        ("sim.l2_self_s", "sim.run;window.fork;core.step;l2"),
        ("sim.llc_self_s", "sim.run;window.fork;core.step;llc"),
        ("sim.noc_self_s", "sim.run;window.fork;core.step;noc"),
        ("sim.dram_self_s", "sim.run;window.fork;core.step;dram"),
        ("sim.merge_self_s", "sim.run;window.merge"),
        ("sim.merge_llc_self_s", "sim.run;window.merge;llc"),
        ("sim.merge_noc_self_s", "sim.run;window.merge;noc"),
        ("sim.merge_dram_self_s", "sim.run;window.merge;dram"),
    ] {
        report.set(name, phase_self_s(p, path, n), n);
    }

    let r = &plain.t1[0];
    let sim = &r.result;
    report.set(
        "sim.windows",
        phase(p, "sim.run;window.fork").0 as f64 / n as f64,
        n,
    );
    report.set("sim.instructions", r.instructions as f64, 1);
    report.set("sim.cycles", sim.elapsed_cycles as f64, 1);
    report.set("sim.llc_accesses", sim.llc_accesses as f64, 1);
    report.set(
        "sim.llc_hit_ratio",
        sim.llc_hits as f64 / (sim.llc_accesses.max(1)) as f64,
        1,
    );
    report.set("sim.noc_transfers", sim.noc_transfers as f64, 1);
    report.set("sim.dram_bytes", sim.total_dram_bytes as f64, 1);

    report.set(
        "sim.ns_per_instr",
        run_s * 1e9 / r.instructions.max(1) as f64,
        plain.t1.len(),
    );
    let llc_s = phase_self_s(p, "sim.run;window.fork;core.step;llc", n)
        + phase_self_s(p, "sim.run;window.merge;llc", n);
    report.set(
        "sim.ns_per_llc_access",
        llc_s * 1e9 / sim.llc_accesses.max(1) as f64,
        n,
    );
    let (_, run_total) = phase(p, "sim.run");
    let (_, merge_total) = phase(p, "sim.run;window.merge");
    report.set(
        "sim.merge_share",
        merge_total as f64 / run_total.max(1) as f64,
        n,
    );
    report.set(
        "sim.par_speedup",
        medians(&plain.t2, Rep::mips) / medians(&plain.t1, Rep::mips),
        plain.t2.len(),
    );

    let overhead = medians(&traced.t1, |r| r.wall_s) / medians(&plain.t1, |r| r.wall_s) - 1.0;
    Some(overhead)
}
