//! # sms-cli — command-line front end
//!
//! Argument parsing and command implementations for the `sms` binary.
//! Hand-rolled parsing (no CLI dependency): a handful of subcommands,
//! each with a small set of `--key value` options.
//!
//! ```text
//! sms simulate  --bench lbm_r[,mcf_r,...] --cores 8 [--policy prs|nrs] [--budget N] [--seed S] [--json] [--timeline-out FILE]
//! sms profile   --bench lbm_r[,mcf_r,...] --cores 8 [--flame out.txt] [--json]  # phase table for one run
//! sms scale     [--cores 32] [--mb-first]                 # print Table I
//! sms predict   --bench lbm_r [--target-cores 32] [--budget N] [--seed S]
//! sms trace     --bench lbm_r --out trace.smst [--instructions N] [--seed S]
//! sms bench-table                                          # characterize the suite
//! sms sweep     --bench lbm_r[,mcf_r,...] [--target-cores 32] [--threads T] [--sim-threads K] [--results DIR] [--timelines] [--profile] [--spans]
//! sms explore   --spec machine.toml [--label L] [--no-prune] [--results DIR] [--threads T] [--profile]
//! sms machine show --spec machine.toml [--json]             # resolve & render a machine spec
//! sms machine validate --spec machine.toml                  # validate a spec and count grid points
//! sms resume    --label L [--results DIR] [--threads T]     # continue an interrupted sweep or explore
//! sms fsck      [--results DIR]                             # verify & repair the result cache
//! sms quarantine [--results DIR] [--clear]                  # list / release quarantined runs
//! sms manifest  --path results/cache/manifests/LABEL.json  # inspect a run manifest
//! sms timeline  --path results/cache/timelines/HASH.json [--csv]  # per-epoch view of a run
//! sms train     [--bench ...] [--target-cores 32] [--kind svm] [--curve log] [--save]
//! sms models    [--results DIR]                             # list saved artifacts
//! sms serve     [--addr 127.0.0.1:8080] [--workers 4] [--request-timeout-ms 5000] [--results DIR]
//! sms lint      [--root DIR] [--format text|json] [--baseline FILE | --write-baseline FILE]
//! ```

#![forbid(unsafe_code)]
use std::collections::BTreeMap;
use std::path::Path;

use sms_bench::{
    execute_plan_observed, fsck, journal_path, observed_run, profiles_dir, replay, timelines_dir,
    CachedSim, JournalLine, Observe, PlanHeader, PlanJournal, QuarantineRecord, RunManifest,
    TimelineFile, JOURNAL_SCHEMA_VERSION,
};
use sms_core::artifact::train_artifact;
use sms_core::pipeline::{homogeneous_plan, mean_bandwidth, mean_ipc, DirectSim, ExperimentConfig};
use sms_core::predictor::{MlKind, ModelParams};
use sms_core::scaling::{scale_config, scale_table, target_config, MemBwScaling, ScalingPolicy};
use sms_core::session::ScaleModelSession;
use sms_explore::{
    run_explore, ExploreError, ExploreOutcome, ExploreParams, MachineSpec, PruneParams,
    ResolvedExplore,
};
use sms_ml::fit::CurveModel;
use sms_serve::{models_dir, serve, ModelRegistry, ServerConfig, MAX_DEADLINE_MS, MIN_DEADLINE_MS};
use sms_sim::config::SystemConfig;
use sms_sim::system::{MulticoreSystem, RunSpec};
use sms_workloads::mix::MixSpec;
use sms_workloads::spec::{by_name, suite};
use sms_workloads::trace_io::RecordedTrace;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    /// `--key value` pairs; bare `--flag`s map to `"true"`. A sorted map
    /// so any diagnostic listing of options is deterministic.
    pub options: BTreeMap<String, String>,
}

/// Errors from parsing or running a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required option is missing.
    MissingOption(&'static str),
    /// An option value failed to parse.
    BadValue(String, String),
    /// Unknown benchmark name.
    UnknownBenchmark(String),
    /// Simulation failed.
    Sim(String),
    /// A machine spec failed to load, validate, or explore; the payload
    /// is the already-rendered (possibly multi-line) diagnostic.
    Spec(String),
    /// I/O failure.
    Io(String),
    /// `sms lint` found violations; the payload is the rendered report
    /// (printed to stdout by the binary, which then exits non-zero).
    Lint(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoCommand => {
                write!(f, "no command given; commands: {}", COMMANDS.join(", "))
            }
            Self::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command `{c}`; commands: {} (see `sms help`)",
                    COMMANDS.join(", ")
                )
            }
            Self::MissingOption(o) => write!(f, "missing required option --{o}"),
            Self::BadValue(k, v) => write!(f, "cannot parse --{k} value `{v}`"),
            Self::UnknownBenchmark(b) => {
                write!(
                    f,
                    "unknown benchmark `{b}`; see `sms bench-table` for names"
                )
            }
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::Spec(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Lint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parse a raw argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::NoCommand`] on an empty vector.
    pub fn parse(raw: &[String]) -> Result<Self, CliError> {
        let mut command = raw.first().ok_or(CliError::NoCommand)?.clone();
        let mut i = 1;
        // Two-word subcommands ("machine show"): merge the next bare word
        // unless the first word is a command by itself, so a pair that
        // names nothing ("machine frob") is reported whole as an unknown
        // command instead of as a stray positional.
        if let Some(sub) = raw.get(1).filter(|s| !s.starts_with("--")) {
            if !COMMANDS.contains(&command.as_str()) {
                command = format!("{command} {sub}");
                i = 2;
            }
        }
        let mut options = BTreeMap::new();
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(key) = arg.strip_prefix("--") {
                let value = raw.get(i + 1);
                match value {
                    Some(v) if !v.starts_with("--") => {
                        options.insert(key.to_owned(), v.clone());
                        i += 2;
                    }
                    _ => {
                        options.insert(key.to_owned(), "true".to_owned());
                        i += 1;
                    }
                }
            } else {
                return Err(CliError::BadValue("<positional>".into(), arg.clone()));
            }
        }
        Ok(Self { command, options })
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::BadValue(key.to_owned(), v.clone())),
        }
    }

    fn get_u32(&self, key: &str, default: u32) -> Result<u32, CliError> {
        let wide = self.get_u64(key, u64::from(default))?;
        u32::try_from(wide).map_err(|_| CliError::BadValue(key.to_owned(), wide.to_string()))
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        let wide = self.get_u64(key, default as u64)?;
        usize::try_from(wide).map_err(|_| CliError::BadValue(key.to_owned(), wide.to_string()))
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::BadValue(key.to_owned(), v.clone())),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

/// Run a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing any parse, lookup, simulation or I/O
/// failure; the caller prints it and exits non-zero.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "simulate" => cmd_simulate(args),
        "profile" => cmd_profile(args),
        "scale" => cmd_scale(args),
        "predict" => cmd_predict(args),
        "trace" => cmd_trace(args),
        "bench-table" => cmd_bench_table(args),
        "sweep" => cmd_sweep(args),
        "explore" => cmd_explore(args),
        "machine show" => cmd_machine_show(args),
        "machine validate" => cmd_machine_validate(args),
        "resume" => cmd_resume(args),
        "fsck" => cmd_fsck(args),
        "quarantine" => cmd_quarantine(args),
        "manifest" => cmd_manifest(args),
        "timeline" => cmd_timeline(args),
        "train" => cmd_train(args),
        "models" => cmd_models(args),
        "serve" => cmd_serve(args),
        "lint" => cmd_lint(args),
        "help" | "--help" | "-h" => Ok(HELP.to_owned()),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

/// Every subcommand the `sms` binary understands, in help order. Both the
/// help text and the unknown-command error enumerate this list.
pub const COMMANDS: &[&str] = &[
    "simulate",
    "profile",
    "scale",
    "predict",
    "trace",
    "bench-table",
    "sweep",
    "explore",
    "machine show",
    "machine validate",
    "resume",
    "fsck",
    "quarantine",
    "manifest",
    "timeline",
    "train",
    "models",
    "serve",
    "lint",
    "help",
];

/// Help text.
pub const HELP: &str = "\
sms — scale-model architectural simulation

USAGE:
  sms simulate --bench NAME[,NAME...] --cores N [--policy prs|nrs] [--budget N] [--seed S] [--json]
               [--sim-threads K] [--timeline-out FILE] [--machine FILE]
      Simulate a multiprogram mix on an N-core PRS/NRS machine (repeat
      a single name to fill all cores) and print per-core results. With
      --machine FILE, load the machine geometry (and the default mix,
      seed, and budget) from a spec file instead; --cores,
      --target-cores, and --policy then conflict with the spec. With
      --timeline-out, also record per-sync-window samples (IPC, LLC,
      NoC, DRAM) and write them as a timeline file for `sms timeline`.
      --sim-threads K runs each sync window's cores on K worker threads;
      results are bit-identical to --sim-threads 1.

  sms profile --bench NAME[,NAME...] --cores N [--budget N] [--seed S]
              [--sim-threads K] [--machine FILE] [--flame FILE] [--json]
      Run one simulation (same inputs as `sms simulate`) with the phase
      profiler attached and print a phase table — count, total and self
      time per phase (core.step, l2, llc, noc, dram, window.fork,
      window.merge) — plus the share of wall time attributed to phase
      self-times. With --flame FILE, also write collapsed-stack lines
      (render with flamegraph.pl or speedscope); with --json, print the
      profile as JSON instead of the table. Profiling is observation
      only: results stay bit-identical with the profiler attached.

  sms scale [--cores N] [--mb-first]
      Print the Table-I scale-model resource ladder for an N-core target.

  sms predict --bench NAME [--target-cores N] [--budget N] [--seed S] [--ml]
      Predict the benchmark's per-core IPC on the target from a
      single-core scale-model run. With --ml, first trains the paper's
      SVM-log regression on the other 28 benchmarks (one-time cost of
      a few minutes) instead of using the raw scale-model IPC.

  sms trace --bench NAME --out FILE [--instructions N] [--seed S]
      Record a micro-op trace to FILE (.smst binary format).

  sms bench-table [--budget N]
      Characterize all 29 benchmarks on the single-core scale model.

  sms sweep --bench NAME[,NAME...] [--target-cores N] [--budget N] [--seed S]
            [--threads T] [--sim-threads K] [--results DIR] [--label L]
            [--timelines] [--profile] [--spans]
      Run the full scale-model ladder (1..N cores) for each benchmark
      through the fault-tolerant parallel executor: results are cached
      under DIR/cache, failing runs are retried then quarantined, and a
      JSON run manifest is written under DIR/cache/manifests/. With
      --timelines, every simulated run also leaves a per-epoch timeline
      under DIR/cache/timelines/. With --profile, every simulated run
      leaves a phase profile under DIR/cache/profiles/ and the sweep's
      aggregate profile is embedded in the manifest. With --spans,
      executor spans are recorded and flushed as Chrome trace-event JSON
      under DIR/cache/traces/ (open at chrome://tracing or Perfetto); the
      three flags combine freely. The plan
      parameters and every completed run are journaled (fsync'd) under
      DIR/cache/journal/LABEL.jsonl, so a killed sweep is resumable.
      --threads T parallelizes across runs; --sim-threads K additionally
      parallelizes the cores inside each run (bit-identical results, so
      cache keys and journals are unchanged).

  sms explore --spec FILE [--label L] [--results DIR] [--threads T] [--sim-threads K]
              [--no-prune] [--prune-seed S] [--bootstrap F] [--margin M] [--profile]
      Run the spec's [grid] design-space sweep through the fault-tolerant
      executor and print the Pareto front (throughput vs LLC capacity vs
      core count). Results are cached, journaled (so a killed explore is
      resumable with `sms resume`), and summarized in a canonical-JSON
      manifest under DIR/cache/explore/L.json. By default a seeded
      bootstrap sample is evaluated first, an sms-ml random forest is
      trained on it, and points whose predicted throughput is dominated
      with margin M (default 0.10) by an observed no-more-expensive point
      are skipped; every skip and a holdout predicted-vs-actual audit
      land in the manifest. --no-prune evaluates every point. With
      --profile, each simulated run leaves a phase profile under
      DIR/cache/profiles/ and every evaluated point in the manifest
      carries its per-phase host-time attribution.

  sms machine show --spec FILE [--json]
      Load a machine spec (TOML subset, or JSON with a .json extension),
      resolve defaults, and render it back as TOML (or canonical JSON
      with --json). The rendering round-trips through `sms machine
      validate`.

  sms machine validate --spec FILE
      Validate a machine spec, reporting every field-level problem with
      its dotted path, and print the machine summary plus the number of
      design points the [grid] section expands to.

  sms resume --label L [--results DIR] [--threads T] [--sim-threads K]
             [--profile] [--spans]
      Continue an interrupted `sms sweep` or `sms explore`: replay the
      label's plan journal, rebuild the identical plan from its recorded
      header, and re-execute it. Cached runs are skipped and quarantined
      runs are retried, so repeating resume after crashes converges on
      the same final cache (and, for explore, a bit-identical manifest)
      as one uninterrupted run. A sweep journaled with --timelines
      resumes with timelines; --profile and --spans apply to the runs
      this invocation simulates.

  sms fsck [--results DIR]
      Verify every result-cache file under DIR/cache: cache entries
      (JSON shape, key-hash filename, payload checksum), quarantine
      records, manifests, timelines, profiles, leftover temp files, and
      plan journals. Defective files are evicted (journals: repaired in
      place) and reported; valid entries are never touched.

  sms quarantine [--results DIR] [--clear]
      List the quarantine records left by persistently failing runs.
      With --clear, release them so the next sweep or resume retries
      those runs.

  sms manifest --path FILE
      Pretty-print a JSON run manifest written by `sms sweep` or the
      bench experiment executor, including its metrics-registry snapshot.

  sms timeline --path FILE [--csv]
      Render a timeline file (per-epoch IPC, LLC hit rate and occupancy,
      NoC traffic, DRAM bandwidth and queue depth) as a table, or as CSV
      with --csv.

  sms train [--bench NAME[,NAME...]] [--target-cores N] [--budget N] [--seed S]
            [--kind svm|dt|rf|krr] [--curve log|linear|power] [--name NAME]
            [--results DIR] [--save]
      Train the paper's ML-based Regression on the scale-model ladder
      (benchmarks default to the full 29-entry suite) and report its
      leave-one-out cross-validation error. With --save, persist the
      trained model as a versioned, checksummed JSON artifact under
      DIR/cache/models/ for `sms serve`.

  sms models [--results DIR]
      List the model artifacts saved under DIR/cache/models/.

  sms serve [--addr HOST:PORT] [--workers N] [--request-timeout-ms MS]
            [--results DIR]
      Serve saved model artifacts over HTTP (no simulation at request
      time): POST /predict, GET /models, GET /healthz, GET /metrics,
      POST /shutdown. Requests are batched per model, memoized in an
      LRU cache, and shed with 503 when the queue is full. Every request
      carries a deadline (--request-timeout-ms, 10..=60000, default
      5000; per-request override via the x-sms-deadline-ms header) and
      answers 504 once it expires. Per-model circuit breakers serve a
      degraded analytic fallback (x-sms-degraded: 1) while the ML
      predictor is failing. Stop with POST /shutdown or by typing `q`
      on stdin.

  sms lint [--root DIR] [--format text|json]
           [--baseline FILE | --write-baseline FILE]
      Run the workspace invariant checker (sms-lint) over DIR (default:
      the current directory): determinism rules D1-D3, error-discipline
      rules E1-E2, metric naming O1, failpoint hygiene F1, and
      concurrency rules C1-C4 (lock-order cycles, Relaxed-ordering
      discipline, hang-prone blocking, CONCURRENCY.md inventory).
      Prints one finding per line (or a machine-readable JSON report
      with --format json) and exits non-zero when any finding survives
      its `sms-lint: allow` annotations. --write-baseline records the
      surviving findings to FILE; --baseline demotes findings recorded
      in FILE to warn-only so new rules can land without breaking
      downstream forks.

  sms help
      Print this help.
";

/// The target core count actually simulated for a `--target-cores`
/// request: at least the scale-model core count, rounded up to a power
/// of two.
fn effective_target_cores(requested: u32, cores: u32) -> u32 {
    requested.max(cores).next_power_of_two()
}

/// Build the machine for `--cores`/`--target-cores`/`--policy`. The
/// second element is a one-line notice when the requested target was
/// adjusted (previously this rounding was silent).
fn machine_for(args: &Args, cores: u32) -> Result<(SystemConfig, Option<String>), CliError> {
    let requested = args.get_u32("target-cores", 32.max(cores))?;
    let effective = effective_target_cores(requested, cores);
    let notice = (effective != requested).then(|| {
        format!(
            "note: --target-cores {requested} adjusted to {effective} \
             (at least --cores, rounded up to a power of two)"
        )
    });
    let target = target_config(effective);
    let policy = match args.options.get("policy").map(String::as_str) {
        None | Some("prs") => ScalingPolicy::prs(),
        Some("nrs") => ScalingPolicy::nrs(),
        Some(other) => return Err(CliError::BadValue("policy".into(), other.to_owned())),
    };
    let machine = if cores == target.num_cores {
        target
    } else {
        scale_config(&target, cores, policy)
    };
    Ok((machine, notice))
}

fn spec_for(args: &Args) -> Result<RunSpec, CliError> {
    let budget = args.get_u64("budget", 500_000)?;
    Ok(RunSpec::with_default_warmup(budget))
}

/// The simulate inputs: machine, mix, run spec, and any notices to
/// prepend to the output. Either derived from `--machine FILE` (a spec
/// file supplies machine geometry plus workload defaults) or from the
/// classic `--cores`/`--target-cores`/`--policy` flags.
fn simulate_setup(args: &Args) -> Result<(SystemConfig, MixSpec, RunSpec, String), CliError> {
    if let Some(path) = args.options.get("machine") {
        for conflict in ["cores", "target-cores", "policy"] {
            if args.options.contains_key(conflict) {
                return Err(CliError::Spec(format!(
                    "--{conflict} conflicts with --machine (the spec file fixes the machine)"
                )));
            }
        }
        let spec = MachineSpec::load(Path::new(path)).map_err(|e| CliError::Spec(e.to_string()))?;
        let names: Vec<String> = match args.options.get("bench") {
            Some(bench) => bench.split(',').map(str::to_owned).collect(),
            None => spec
                .workloads
                .mixes
                .first()
                .cloned()
                .ok_or(CliError::MissingOption("bench"))?,
        };
        for n in &names {
            if by_name(n).is_none() {
                return Err(CliError::UnknownBenchmark(n.clone()));
            }
        }
        let seed = args.get_u64("seed", spec.workloads.seed)?;
        let budget = args.get_u64("budget", spec.workloads.budget)?;
        let mix = MixSpec::fill(&names, spec.machine.num_cores as usize, seed);
        let notice = format!("machine spec: {} ({path})\n", spec.name);
        return Ok((
            spec.machine,
            mix,
            RunSpec::with_default_warmup(budget),
            notice,
        ));
    }

    let bench = args
        .options
        .get("bench")
        .ok_or(CliError::MissingOption("bench"))?;
    let cores = args.get_u32("cores", 1)?;
    if cores == 0 || !cores.is_power_of_two() || cores > 256 {
        return Err(CliError::BadValue("cores".into(), cores.to_string()));
    }
    let seed = args.get_u64("seed", 43)?;

    let names: Vec<String> = bench.split(',').map(str::to_owned).collect();
    for n in &names {
        if by_name(n).is_none() {
            return Err(CliError::UnknownBenchmark(n.clone()));
        }
    }
    let mix = MixSpec::fill(&names, cores as usize, seed);
    let (machine, notice) = machine_for(args, cores)?;
    let notes = notice.map(|n| format!("{n}\n")).unwrap_or_default();
    Ok((machine, mix, spec_for(args)?, notes))
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let (mut machine, mix, spec, notes) = simulate_setup(args)?;
    machine.sim_threads = args.get_u32("sim-threads", 1)?;
    let out_path = args.options.get("timeline-out");
    let want = Observe {
        samples: out_path.is_some(),
        profile: false,
    };
    let seen =
        observed_run(&machine, &mix, spec, want).map_err(|e| CliError::Sim(e.to_string()))?;
    let r = seen.result;
    let mut timeline_note = String::new();
    if let (Some(out_path), Some(samples)) = (out_path, seen.samples) {
        let file = TimelineFile::new(&machine, &mix, spec, samples);
        file.save(out_path)
            .map_err(|e| CliError::Io(e.to_string()))?;
        timeline_note = format!(
            "\ntimeline: {} epochs written to {out_path} (render with `sms timeline --path {out_path}`)",
            file.timeline.samples.len()
        );
    }

    if args.flag("json") {
        return serde_json::to_string_pretty(&r).map_err(|e| CliError::Io(e.to_string()));
    }
    Ok(format!(
        "{notes}machine: {}\n{r}{timeline_note}",
        machine.summary()
    ))
}

fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let (mut machine, mix, spec, notes) = simulate_setup(args)?;
    machine.sim_threads = args.get_u32("sim-threads", 1)?;
    let want = Observe {
        samples: false,
        profile: true,
    };
    // Wall time around the whole run (set-up and warm-up included) so the
    // coverage line compares the profile against what a stopwatch would
    // see. The CLI is not a deterministic crate (lint rule D1 does not
    // apply); the clock never feeds simulated state.
    let wall = std::time::Instant::now();
    let seen =
        observed_run(&machine, &mix, spec, want).map_err(|e| CliError::Sim(e.to_string()))?;
    let wall_seconds = wall.elapsed().as_secs_f64();
    let (r, profile) = (seen.result, seen.profile.unwrap_or_default());

    let mut flame_note = String::new();
    if let Some(path) = args.options.get("flame") {
        std::fs::write(path, profile.collapsed()).map_err(|e| CliError::Io(e.to_string()))?;
        flame_note = format!(
            "flame: collapsed stacks written to {path} (render with flamegraph.pl or speedscope)\n"
        );
    }
    if args.flag("json") {
        return Ok(profile.to_json());
    }
    let attributed = profile.total_self_nanos() as f64 / 1e9;
    let coverage = if wall_seconds > 0.0 {
        attributed / wall_seconds * 100.0
    } else {
        0.0
    };
    Ok(format!(
        "{notes}machine: {}\n\n{}\n\
         coverage: {coverage:.1}% of {wall_seconds:.3}s wall attributed to phase self-times\n\
         (self-times are per-thread CPU time: above 100% means parallel workers overlapped)\n\
         simulated: mean IPC {:.3} over {} core(s)\n{flame_note}",
        machine.summary(),
        profile.render_table(),
        mean_ipc(&r),
        r.cores.len(),
    ))
}

fn cmd_scale(args: &Args) -> Result<String, CliError> {
    let cores = args.get_u32("cores", 32)?;
    if !cores.is_power_of_two() || cores == 0 || cores > 256 {
        return Err(CliError::BadValue("cores".into(), cores.to_string()));
    }
    let order = if args.flag("mb-first") {
        MemBwScaling::MbFirst
    } else {
        MemBwScaling::McFirst
    };
    let target = target_config(cores);
    let mut out = format!("target: {}\n\n", target.summary());
    for row in scale_table(&target, order) {
        out.push_str(&format!(
            "{:>4} cores | LLC {:>4} MB ({} slices) | NoC {:>5.0} GB/s ({} CSLs x {:.0}) | DRAM {:>5.0} GB/s ({} MCs x {:.0})\n",
            row.cores,
            row.llc_mb,
            row.llc_slices,
            row.noc_gbps,
            row.csls,
            row.gbps_per_csl,
            row.dram_gbps,
            row.mcs,
            row.gbps_per_mc,
        ));
    }
    Ok(out)
}

fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let bench = args
        .options
        .get("bench")
        .ok_or(CliError::MissingOption("bench"))?;
    let profile = by_name(bench).ok_or_else(|| CliError::UnknownBenchmark(bench.clone()))?;
    let target_cores = args.get_u32("target-cores", 32)?;
    if !target_cores.is_power_of_two() || target_cores == 0 || target_cores > 256 {
        return Err(CliError::BadValue(
            "target-cores".into(),
            target_cores.to_string(),
        ));
    }
    let seed = args.get_u64("seed", 43)?;
    let spec = spec_for(args)?;
    let target = target_config(target_cores);

    if args.flag("ml") {
        // The paper's ML-based Regression: train on every other benchmark
        // (a one-time cost in a real deployment), then predict from one
        // single-core scale-model run.
        let cfg = ExperimentConfig {
            target,
            spec,
            seed,
            ..ExperimentConfig::default()
        };
        let training: Vec<_> = suite().into_iter().filter(|p| p.name != bench).collect();
        eprintln!(
            "training SVM-log regression on {} benchmarks (one-time cost)...",
            training.len()
        );
        let session = ScaleModelSession::train(&mut DirectSim, cfg, &training)
            .map_err(|e| CliError::Sim(e.to_string()))?;
        let pred = session
            .predict(&mut DirectSim, &profile)
            .map_err(|e| CliError::Sim(e.to_string()))?;
        let series = pred
            .scale_model_ipcs
            .iter()
            .map(|(c, i)| format!("{c}:{i:.3}"))
            .collect::<Vec<_>>()
            .join(" ");
        return Ok(format!(
            "benchmark            : {bench}\n\
             scale-model IPC      : {:.4}\n\
             scale-model BW       : {:.2} GB/s\n\
             scale-model series   : {series}\n\
             SVM-log predicted per-core IPC on the {target_cores}-core target: {:.4}\n\
             scale-model simulated in {:.2}s",
            pred.ss.ipc, pred.ss.bandwidth, pred.target_ipc, pred.host_seconds,
        ));
    }

    let ss_cfg = scale_config(&target, 1, ScalingPolicy::prs());
    let mix = MixSpec::homogeneous(bench, 1, seed);
    let mut sys =
        MulticoreSystem::new(ss_cfg, mix.sources()).map_err(|e| CliError::Sim(e.to_string()))?;
    let r = sys.run(spec).map_err(|e| CliError::Sim(e.to_string()))?;

    Ok(format!(
        "benchmark            : {bench}\n\
         scale-model IPC      : {:.4}\n\
         scale-model BW       : {:.2} GB/s\n\
         predicted per-core IPC on the {target_cores}-core target: {:.4}\n\
         (No-Extrapolation; pass --ml for the paper's SVM-log regression)\n\
         scale-model simulated in {:.2}s",
        mean_ipc(&r),
        mean_bandwidth(&r),
        mean_ipc(&r),
        r.host_seconds,
    ))
}

fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let bench = args
        .options
        .get("bench")
        .ok_or(CliError::MissingOption("bench"))?;
    let profile = by_name(bench).ok_or_else(|| CliError::UnknownBenchmark(bench.clone()))?;
    let out = args
        .options
        .get("out")
        .ok_or(CliError::MissingOption("out"))?;
    let instructions = args.get_u64("instructions", 1_000_000)?;
    let seed = args.get_u64("seed", 43)?;

    let mut src = sms_workloads::generator::SyntheticSource::new(profile, 0, seed);
    let trace = RecordedTrace::record(&mut src, instructions);
    trace.save(out).map_err(|e| CliError::Io(e.to_string()))?;
    Ok(format!(
        "recorded {} instructions ({} ops) of {bench} to {out}",
        trace.instructions(),
        trace.len(),
    ))
}

fn cmd_bench_table(args: &Args) -> Result<String, CliError> {
    let spec = RunSpec::with_default_warmup(args.get_u64("budget", 200_000)?);
    let target = target_config(32);
    let ss = scale_config(&target, 1, ScalingPolicy::prs());
    let mut out = format!(
        "{:<14} {:>7} {:>10} {:>9}\n",
        "benchmark", "IPC", "LLC MPKI", "BW GB/s"
    );
    for p in suite() {
        let mix = MixSpec::homogeneous(p.name, 1, 43);
        let mut sys = MulticoreSystem::new(ss.clone(), mix.sources())
            .map_err(|e| CliError::Sim(e.to_string()))?;
        let r = sys.run(spec).map_err(|e| CliError::Sim(e.to_string()))?;
        let c = &r.cores[0];
        out.push_str(&format!(
            "{:<14} {:>7.3} {:>10.2} {:>9.2}\n",
            c.label, c.ipc, c.llc_mpki, c.bandwidth_gbps
        ));
    }
    Ok(out)
}

/// Concrete sweep parameters: parsed from `sms sweep` flags, or rebuilt
/// from a journaled [`PlanHeader`] by `sms resume`.
struct SweepParams {
    bench: String,
    target_cores: u32,
    budget: u64,
    seed: u64,
    threads: usize,
    sim_threads: u32,
    results: String,
    label: String,
    timelines: bool,
    profile: bool,
    spans: bool,
}

fn run_sweep(p: &SweepParams) -> Result<String, CliError> {
    if !p.target_cores.is_power_of_two() || p.target_cores == 0 || p.target_cores > 256 {
        return Err(CliError::BadValue(
            "target-cores".into(),
            p.target_cores.to_string(),
        ));
    }
    let profiles: Vec<_> = p
        .bench
        .split(',')
        .map(|n| by_name(n).ok_or_else(|| CliError::UnknownBenchmark(n.to_owned())))
        .collect::<Result<_, _>>()?;
    let spec = RunSpec::with_default_warmup(p.budget);

    // Scale-model ladder: every power of two strictly between 1 and the
    // target (homogeneous_plan adds the 1-core model and the target).
    let mut ms_cores = Vec::new();
    let mut c = 2u32;
    while c < p.target_cores {
        ms_cores.push(c);
        c *= 2;
    }
    let mut cfg = ExperimentConfig {
        target: target_config(p.target_cores),
        ms_cores,
        spec,
        seed: p.seed,
        ..ExperimentConfig::default()
    };
    // Per-run intra-simulation threads; scale_config clones the target, so
    // every ladder entry inherits the setting. sim_threads is serde-skipped
    // and therefore never part of cache keys or journaled artifacts.
    cfg.target.sim_threads = p.sim_threads;
    let plan = homogeneous_plan(&cfg, &profiles);
    let cache = CachedSim::open(Path::new(&p.results).join("cache"))
        .map_err(|e| CliError::Io(e.to_string()))?;

    // Journal the plan parameters before executing so `sms resume` can
    // rebuild the identical plan after a crash; the executor appends the
    // per-run and completion lines under the same label. Best-effort: a
    // sweep must not die because its journal directory is unwritable.
    match PlanJournal::open_append(cache.dir(), &p.label) {
        Ok(journal) => journal.append_best_effort(&JournalLine::Plan(PlanHeader {
            schema_version: JOURNAL_SCHEMA_VERSION,
            label: p.label.clone(),
            bench: p.bench.clone(),
            target_cores: p.target_cores,
            budget: p.budget,
            seed: p.seed,
            threads: p.threads,
            timelines: p.timelines,
            explore: None,
        })),
        Err(e) => eprintln!("[{}] warning: cannot open plan journal: {e}", p.label),
    }

    if p.spans {
        sms_obs::tracer().set_enabled(true);
    }
    let want = Observe {
        samples: p.timelines,
        profile: p.profile,
    };
    let summary = execute_plan_observed(&cache, &plan, spec, p.threads, &p.label, want);

    let mut out = format!(
        "sweep `{}`: {} runs ({} cached, {} simulated, {} quarantined, {} retries)\n\
         wall {:.1}s, worker utilization {:.0}%\n",
        p.label,
        summary.total,
        summary.cached,
        summary.simulated,
        summary.failed,
        summary.retries,
        summary.wall_seconds,
        summary.worker_utilization * 100.0,
    );
    match &summary.manifest_path {
        Some(path) => out.push_str(&format!("manifest: {}\n", path.display())),
        None => out.push_str("manifest: not written (cache disk unavailable)\n"),
    }
    out.push_str(&format!(
        "journal: {} (resume an interrupted sweep with `sms resume --label {}`)\n",
        journal_path(cache.dir(), &p.label).display(),
        p.label,
    ));
    if p.timelines {
        out.push_str(&format!(
            "timelines: {} (render one with `sms timeline --path FILE`)\n",
            timelines_dir(cache.dir()).display()
        ));
    }
    if p.profile {
        if summary.simulated == 0 {
            out.push_str(
                "profiles: no new phase samples (every run came from the cache; \
                 only simulated runs are profiled)\n",
            );
        } else {
            out.push_str(&format!(
                "profiles: {} (aggregate embedded in the manifest)\n",
                profiles_dir(cache.dir()).display()
            ));
        }
    }
    if summary.failed > 0 {
        out.push_str(&format!(
            "{} run(s) quarantined under {} (inspect with `sms quarantine`)\n",
            summary.failed,
            cache.quarantine_dir().display()
        ));
    }
    Ok(out)
}

fn threads_for(args: &Args, default: usize) -> Result<usize, CliError> {
    let threads = args.get_usize("threads", 0)?;
    Ok(if threads == 0 { default } else { threads })
}

fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    let bench = args
        .options
        .get("bench")
        .ok_or(CliError::MissingOption("bench"))?
        .clone();
    let default_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let p = SweepParams {
        bench,
        target_cores: args.get_u32("target-cores", 32)?,
        budget: args.get_u64("budget", 500_000)?,
        seed: args.get_u64("seed", 43)?,
        threads: threads_for(args, default_threads)?,
        sim_threads: args.get_u32("sim-threads", 1)?,
        results: results_dir(args),
        label: args
            .options
            .get("label")
            .cloned()
            .unwrap_or_else(|| "cli-sweep".to_owned()),
        timelines: args.flag("timelines"),
        profile: args.flag("profile"),
        spans: args.flag("spans"),
    };
    run_sweep(&p)
}

fn load_spec(args: &Args) -> Result<MachineSpec, CliError> {
    let path = args
        .options
        .get("spec")
        .ok_or(CliError::MissingOption("spec"))?;
    MachineSpec::load(Path::new(path)).map_err(|e| CliError::Spec(e.to_string()))
}

fn cmd_machine_show(args: &Args) -> Result<String, CliError> {
    let spec = load_spec(args)?;
    Ok(if args.flag("json") {
        spec.render_json()
    } else {
        spec.render_toml()
    })
}

fn cmd_machine_validate(args: &Args) -> Result<String, CliError> {
    let spec = load_spec(args)?;
    let grid_points = if spec.grid.is_empty() {
        0
    } else {
        spec.grid
            .expand(&spec.machine)
            .map_err(|errs| {
                CliError::Spec(
                    errs.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n"),
                )
            })?
            .len()
    };
    Ok(format!(
        "spec `{}` (schema {}) is valid\n\
         machine: {}\n\
         workloads: {} mix(es), seed {}, budget {}\n\
         grid: {} axis(es), {} design point(s)\n",
        spec.name,
        spec.schema_version,
        spec.machine.summary(),
        spec.workloads.mixes.len(),
        spec.workloads.seed,
        spec.workloads.budget,
        spec.grid.axes.len(),
        grid_points,
    ))
}

fn render_explore(label: &str, out: &ExploreOutcome) -> String {
    format!(
        "explore `{label}`: {} point(s) evaluated, {} pruned, {} quarantined\n\n\
         pareto front (throughput vs LLC capacity vs cores):\n{}\n\
         manifest: {}\n\
         (an interrupted explore resumes with `sms resume --label {label}`)\n",
        out.evaluated,
        out.pruned,
        out.quarantined,
        out.table,
        out.manifest_path.display(),
    )
}

fn explore_error(e: ExploreError) -> CliError {
    match e {
        ExploreError::Io(io) => CliError::Io(io.to_string()),
        other => CliError::Spec(other.to_string()),
    }
}

fn cmd_explore(args: &Args) -> Result<String, CliError> {
    let spec = load_spec(args)?;
    let defaults = PruneParams::default();
    let prune = PruneParams {
        enabled: !args.flag("no-prune"),
        seed: args.get_u64("prune-seed", defaults.seed)?,
        bootstrap_fraction: args.get_f64("bootstrap", defaults.bootstrap_fraction)?,
        margin: args.get_f64("margin", defaults.margin)?,
    };
    let resolved = ResolvedExplore { spec, prune };
    let default_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let params = ExploreParams {
        label: args
            .options
            .get("label")
            .cloned()
            .unwrap_or_else(|| "explore".to_owned()),
        threads: threads_for(args, default_threads)?,
        sim_threads: args.get_u32("sim-threads", 1)?,
        profile: args.flag("profile"),
    };
    let results = results_dir(args);
    let out = run_explore(Path::new(&results), &resolved, &params).map_err(explore_error)?;
    Ok(render_explore(&params.label, &out))
}

fn resume_explore(
    args: &Args,
    label: &str,
    results: &str,
    header_threads: usize,
    explore_json: &str,
) -> Result<String, CliError> {
    let resolved: ResolvedExplore = serde_json::from_str(explore_json).map_err(|e| {
        CliError::Io(format!(
            "journal for `{label}` has an unreadable explore header: {e}"
        ))
    })?;
    let params = ExploreParams {
        label: label.to_owned(),
        threads: threads_for(args, header_threads)?,
        sim_threads: args.get_u32("sim-threads", 1)?,
        // Resuming with --profile attributes phases to the points that
        // still need simulating; a plain resume stays byte-identical to
        // the uninterrupted manifest.
        profile: args.flag("profile"),
    };
    let out = run_explore(Path::new(results), &resolved, &params).map_err(explore_error)?;
    Ok(render_explore(label, &out))
}

fn cmd_resume(args: &Args) -> Result<String, CliError> {
    let results = results_dir(args);
    let label = args
        .options
        .get("label")
        .cloned()
        .unwrap_or_else(|| "cli-sweep".to_owned());
    let cache_dir = Path::new(&results).join("cache");
    let r = replay(&cache_dir, &label).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CliError::Io(format!(
                "no journal for label `{label}` at {} — nothing to resume (run `sms sweep` first)",
                journal_path(&cache_dir, &label).display()
            ))
        } else {
            CliError::Io(e.to_string())
        }
    })?;
    let header = r.header.ok_or_else(|| {
        CliError::Io(format!(
            "journal {} has no plan header (written by a bare executor, not `sms sweep`); \
             re-run the sweep instead",
            r.path.display()
        ))
    })?;

    let mut out = format!(
        "resuming {} `{label}` from {}: {} run(s) completed, {} quarantined, previous \
         invocation {}{}\n",
        if header.explore.is_some() {
            "explore"
        } else {
            "sweep"
        },
        r.path.display(),
        r.completed.len(),
        r.quarantined.len(),
        if r.done { "finished" } else { "interrupted" },
        if r.torn_lines > 0 {
            format!(" ({} torn journal line(s) skipped)", r.torn_lines)
        } else {
            String::new()
        },
    );
    if let Some(explore_json) = &header.explore {
        out.push_str(&resume_explore(
            args,
            &label,
            &results,
            header.threads,
            explore_json,
        )?);
        return Ok(out);
    }
    let p = SweepParams {
        bench: header.bench,
        target_cores: header.target_cores,
        budget: header.budget,
        seed: header.seed,
        threads: threads_for(args, header.threads)?,
        sim_threads: args.get_u32("sim-threads", 1)?,
        results,
        label,
        timelines: header.timelines,
        profile: args.flag("profile"),
        spans: args.flag("spans"),
    };
    out.push_str(&run_sweep(&p)?);
    Ok(out)
}

fn cmd_fsck(args: &Args) -> Result<String, CliError> {
    let cache_dir = Path::new(&results_dir(args)).join("cache");
    let report = fsck(&cache_dir)
        .map_err(|e| CliError::Io(format!("cannot fsck {}: {e}", cache_dir.display())))?;
    Ok(format!(
        "cache: {}\n{}",
        cache_dir.display(),
        report.render()
    ))
}

fn cmd_quarantine(args: &Args) -> Result<String, CliError> {
    let qdir = Path::new(&results_dir(args))
        .join("cache")
        .join("quarantine");
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(&qdir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(CliError::Io(e.to_string())),
    };
    files.sort();
    if files.is_empty() {
        return Ok(format!("no quarantined runs under {}\n", qdir.display()));
    }

    let mut out = format!("{:<34} {:<20} {:>8} error\n", "key hash", "mix", "attempts");
    for path in &files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<QuarantineRecord>(&text).map_err(|e| e.to_string())
            }) {
            Ok(rec) => out.push_str(&format!(
                "{stem:<34} {:<20} {:>8} {}\n",
                rec.mix, rec.attempts, rec.error
            )),
            Err(e) => out.push_str(&format!(
                "{stem:<34} {:<20} {:>8} unreadable record ({e}); run `sms fsck`\n",
                "?", "?"
            )),
        }
    }
    if args.flag("clear") {
        for path in &files {
            std::fs::remove_file(path).map_err(|e| CliError::Io(e.to_string()))?;
        }
        out.push_str(&format!(
            "released {} quarantined run(s); the next sweep or resume will retry them\n",
            files.len()
        ));
    } else {
        out.push_str(&format!(
            "({} record(s); pass --clear to release them for re-simulation)\n",
            files.len()
        ));
    }
    Ok(out)
}

fn cmd_manifest(args: &Args) -> Result<String, CliError> {
    let path = args
        .options
        .get("path")
        .ok_or(CliError::MissingOption("path"))?;
    let manifest = RunManifest::load(path).map_err(|e| CliError::Io(e.to_string()))?;
    Ok(manifest.render())
}

fn cmd_timeline(args: &Args) -> Result<String, CliError> {
    let path = args
        .options
        .get("path")
        .ok_or(CliError::MissingOption("path"))?;
    let tl = TimelineFile::load(path).map_err(|e| CliError::Io(e.to_string()))?;
    if args.flag("csv") {
        return Ok(tl.timeline.render_csv());
    }
    Ok(format!(
        "run {} ({}, {} cores)\n{}",
        tl.key_hash,
        tl.mix,
        tl.cores,
        tl.timeline.render()
    ))
}

fn results_dir(args: &Args) -> String {
    args.options
        .get("results")
        .cloned()
        .unwrap_or_else(|| "results".to_owned())
}

fn kind_for(args: &Args) -> Result<MlKind, CliError> {
    match args.options.get("kind").map(String::as_str) {
        None | Some("svm") => Ok(MlKind::Svm),
        Some("dt") => Ok(MlKind::DecisionTree),
        Some("rf") => Ok(MlKind::RandomForest),
        Some("krr") => Ok(MlKind::KernelRidge),
        Some(other) => Err(CliError::BadValue("kind".into(), other.to_owned())),
    }
}

fn curve_for(args: &Args) -> Result<CurveModel, CliError> {
    match args.options.get("curve").map(String::as_str) {
        None | Some("log") => Ok(CurveModel::Logarithmic),
        Some("linear") => Ok(CurveModel::Linear),
        Some("power") => Ok(CurveModel::Power),
        Some(other) => Err(CliError::BadValue("curve".into(), other.to_owned())),
    }
}

fn format_cv(cv: Option<f64>) -> String {
    cv.map_or_else(|| "n/a".to_owned(), |e| format!("{:.1}%", e * 100.0))
}

fn cmd_train(args: &Args) -> Result<String, CliError> {
    let target_cores = args.get_u32("target-cores", 32)?;
    // The ladder needs at least two multi-core scale models (2 and 4), so
    // the smallest trainable target is 8 cores.
    if !target_cores.is_power_of_two() || !(8..=256).contains(&target_cores) {
        return Err(CliError::BadValue(
            "target-cores".into(),
            target_cores.to_string(),
        ));
    }
    let seed = args.get_u64("seed", 43)?;
    let spec = spec_for(args)?;
    let kind = kind_for(args)?;
    let curve = curve_for(args)?;
    let results = results_dir(args);

    let profiles: Vec<_> = match args.options.get("bench") {
        Some(list) => list
            .split(',')
            .map(|n| by_name(n).ok_or_else(|| CliError::UnknownBenchmark(n.to_owned())))
            .collect::<Result<_, _>>()?,
        None => suite(),
    };

    // Scale-model ladder: every power of two strictly between 1 and the
    // target (the 1-core model is the ss measurement collected anyway).
    let mut ms_cores = Vec::new();
    let mut c = 2u32;
    while c < target_cores {
        ms_cores.push(c);
        c *= 2;
    }
    let cfg = ExperimentConfig {
        target: target_config(target_cores),
        ms_cores,
        spec,
        seed,
        ..ExperimentConfig::default()
    };
    let name = args
        .options
        .get("name")
        .cloned()
        .unwrap_or_else(|| format!("{kind}-{curve}-{target_cores}c").to_lowercase());

    let mut cache = CachedSim::open(Path::new(&results).join("cache"))
        .map_err(|e| CliError::Io(e.to_string()))?;
    eprintln!(
        "training {kind}-{curve} artifact `{name}`: {} benchmarks x {} scale models...",
        profiles.len(),
        cfg.ms_cores.len() + 1,
    );
    let artifact = train_artifact(
        &mut cache,
        cfg,
        &profiles,
        kind,
        curve,
        &ModelParams::default(),
        &name,
    )
    .map_err(|e| CliError::Sim(e.to_string()))?;

    let mut out = format!(
        "artifact `{}`: kind {kind}, curve {curve}, target {target_cores} cores\n\
         trained on {} benchmark(s), LOO cv error {}\n",
        artifact.name,
        artifact.payload.trained_on.len(),
        format_cv(artifact.payload.cv_error),
    );
    if args.flag("save") {
        let path = artifact
            .save_in(&models_dir(Path::new(&results)))
            .map_err(|e| CliError::Io(e.to_string()))?;
        out.push_str(&format!("saved to {}\n", path.display()));
    } else {
        out.push_str("(pass --save to persist it under <results>/cache/models/)\n");
    }
    Ok(out)
}

fn cmd_models(args: &Args) -> Result<String, CliError> {
    let dir = models_dir(Path::new(&results_dir(args)));
    let registry = ModelRegistry::open(&dir).map_err(|e| CliError::Io(e.to_string()))?;
    if registry.is_empty() {
        return Ok(format!(
            "no model artifacts under {} (train one with `sms train --save`)\n",
            dir.display()
        ));
    }
    let mut out = format!(
        "{:<24} {:>5} {:>7} {:>7} {:>7} {:>9}\n",
        "name", "kind", "curve", "target", "benchs", "cv error"
    );
    for info in registry.infos() {
        out.push_str(&format!(
            "{:<24} {:>5} {:>7} {:>7} {:>7} {:>9}\n",
            info.name,
            info.kind,
            info.curve,
            info.target_cores,
            info.benchmarks,
            format_cv(info.cv_error),
        ));
    }
    out.push_str(&format!(
        "({} artifact(s) under {})\n",
        registry.len(),
        dir.display()
    ));
    Ok(out)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let results = results_dir(args);
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8080".to_owned());
    let workers = args.get_usize("workers", 4)?;
    let request_timeout_ms = args.get_u64("request-timeout-ms", 5_000)?;
    if !(MIN_DEADLINE_MS..=MAX_DEADLINE_MS).contains(&request_timeout_ms) {
        // 0 would expire every request on arrival; anything past a minute
        // defeats the point of a deadline. Fail loudly instead of clamping.
        return Err(CliError::BadValue(
            "request-timeout-ms".into(),
            format!("{request_timeout_ms} (must be {MIN_DEADLINE_MS}..={MAX_DEADLINE_MS})"),
        ));
    }

    let dir = models_dir(Path::new(&results));
    let registry = ModelRegistry::open(&dir).map_err(|e| CliError::Io(e.to_string()))?;
    if registry.is_empty() {
        eprintln!(
            "warning: no model artifacts under {}; /predict will answer 404 \
             (train one with `sms train --save`)",
            dir.display()
        );
    }
    let models = registry.len();

    let config = ServerConfig {
        addr,
        workers,
        request_timeout_ms,
        ..ServerConfig::default()
    };
    let handle = serve(registry, config).map_err(|e| CliError::Io(e.to_string()))?;
    let bound = handle.addr();
    eprintln!(
        "sms-serve listening on http://{bound} serving {models} model(s); \
         stop with POST /shutdown or `q` on stdin"
    );

    // Pure-std builds cannot install OS signal handlers, so graceful
    // shutdown comes from POST /shutdown or an explicit `q`/`quit`/`stop`
    // line on stdin. EOF parks the watcher (a detached stdin must not
    // stop the server).
    let trigger = handle.shutdown_trigger();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if matches!(line.trim(), "q" | "quit" | "stop") => {
                    trigger.trigger();
                    return;
                }
                Ok(_) => {}
            }
        }
    });

    // sms-lint: allow(C3): ServerHandle::join drains a shut-down pool whose
    handle.join(); // workers exit on a bounded pop_timeout tick; see serve/server.rs
    Ok(format!("sms-serve on {bound} shut down cleanly\n"))
}

fn cmd_lint(args: &Args) -> Result<String, CliError> {
    let root = args
        .options
        .get("root")
        .map_or_else(|| Path::new(".").to_owned(), |r| Path::new(r).to_owned());
    let format = args.options.get("format").map_or("text", String::as_str);
    if format != "text" && format != "json" {
        return Err(CliError::BadValue("format".into(), format.to_owned()));
    }
    if args.options.contains_key("baseline") && args.options.contains_key("write-baseline") {
        return Err(CliError::BadValue(
            "baseline".into(),
            "--baseline and --write-baseline are mutually exclusive".into(),
        ));
    }
    let mut report = sms_lint::lint_workspace(&root).map_err(|e| CliError::Io(e.to_string()))?;
    if let Some(path) = args.options.get("write-baseline") {
        std::fs::write(path, report.render_baseline()).map_err(|e| CliError::Io(e.to_string()))?;
        return Ok(format!(
            "sms-lint: wrote baseline with {} finding(s) to {path}\n",
            report.findings.len()
        ));
    }
    if let Some(path) = args.options.get("baseline") {
        let baseline = std::fs::read_to_string(path).map_err(|e| CliError::Io(e.to_string()))?;
        report.apply_baseline(&baseline);
    }
    let rendered = if format == "json" {
        report.render_json()
    } else {
        report.render_text()
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(CliError::Lint(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_commands_and_options() {
        let a = args(&["simulate", "--bench", "lbm_r", "--cores", "4", "--json"]);
        assert_eq!(a.command, "simulate");
        assert_eq!(a.options["bench"], "lbm_r");
        assert_eq!(a.options["cores"], "4");
        assert!(a.flag("json"));
        assert!(!a.flag("nope"));
    }

    #[test]
    fn parse_rejects_positional_garbage() {
        let r = Args::parse(&["simulate".into(), "oops".into()]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_args_is_no_command() {
        assert_eq!(Args::parse(&[]), Err(CliError::NoCommand));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("simulate"));
        assert!(out.contains("bench-table"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn two_word_bench_is_an_unknown_command() {
        // Speed is measured by `benchmark/`, not by the CLI: a two-word
        // `bench ...` is neither `bench-table` nor a stray positional.
        assert!(matches!(
            run(&args(&["bench", "sim", "--cores", "4"])),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn help_and_unknown_command_list_every_subcommand() {
        let help = run(&args(&["help"])).unwrap();
        let unknown = run(&args(&["frobnicate"])).unwrap_err().to_string();
        for c in COMMANDS {
            assert!(help.contains(c), "help is missing `{c}`");
            assert!(
                unknown.contains(c),
                "unknown-command error is missing `{c}`"
            );
        }
        assert!(unknown.contains("frobnicate"));
    }

    #[test]
    fn every_listed_command_actually_dispatches() {
        // Each listed command gets arguments that make it return fast
        // (an error before any real work, or a cheap success); the one
        // outcome that would reveal a listing/dispatch mismatch is
        // `UnknownCommand`.
        let fast_args: &[(&str, &[&str])] = &[
            ("simulate", &["--bench", "no-such-bench"]),
            ("profile", &["--bench", "no-such-bench"]),
            ("scale", &["--cores", "3"]),
            ("predict", &["--bench", "no-such-bench"]),
            ("trace", &["--bench", "no-such-bench"]),
            ("bench-table", &["--budget", "not-a-number"]),
            ("sweep", &[]),
            ("explore", &[]),
            ("machine show", &[]),
            ("machine validate", &[]),
            ("resume", &["--results", "/nonexistent/sms-test"]),
            ("fsck", &["--results", "/nonexistent/sms-test"]),
            ("quarantine", &["--results", "/nonexistent/sms-test"]),
            ("manifest", &[]),
            ("timeline", &[]),
            ("train", &["--target-cores", "3"]),
            ("models", &["--results", "/nonexistent/sms-test"]),
            ("serve", &["--workers", "not-a-number"]),
            ("serve", &["--request-timeout-ms", "0"]),
            ("serve", &["--request-timeout-ms", "3600000"]),
            ("lint", &["--format", "xml"]),
            ("help", &[]),
        ];
        let covered: Vec<&str> = fast_args.iter().map(|(c, _)| *c).collect();
        for c in COMMANDS {
            assert!(
                covered.contains(c),
                "COMMANDS entry `{c}` missing from this test"
            );
        }
        for (c, extra) in fast_args {
            assert!(
                COMMANDS.contains(c),
                "`{c}` dispatches but is not listed in COMMANDS"
            );
            let mut raw: Vec<&str> = c.split(' ').collect();
            raw.extend_from_slice(extra);
            let result = run(&args(&raw));
            assert!(
                !matches!(result, Err(CliError::UnknownCommand(_))),
                "`{c}` is listed in COMMANDS but does not dispatch"
            );
        }
    }

    #[test]
    fn target_cores_rounding_prints_a_notice() {
        // 33 is not a power of two: the machine is built for 64 and the
        // output says so (this rounding used to be silent).
        let out = run(&args(&[
            "simulate",
            "--bench",
            "leela_r",
            "--cores",
            "2",
            "--target-cores",
            "33",
            "--budget",
            "4000",
        ]))
        .unwrap();
        assert!(
            out.contains("note: --target-cores 33 adjusted to 64"),
            "{out}"
        );
        // An exact power of two stays silent.
        let quiet = run(&args(&[
            "simulate",
            "--bench",
            "leela_r",
            "--cores",
            "2",
            "--target-cores",
            "32",
            "--budget",
            "4000",
        ]))
        .unwrap();
        assert!(!quiet.contains("note: --target-cores"), "{quiet}");
        assert_eq!(effective_target_cores(33, 2), 64);
        assert_eq!(effective_target_cores(32, 2), 32);
        assert_eq!(effective_target_cores(1, 8), 8);
    }

    fn write_spec(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sms-cli-spec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("machine.toml");
        std::fs::write(
            &path,
            "schema = 1\nname = \"cli-test\"\n\n[machine]\ncores = 2\n\n[workloads]\n\
             mixes = [[\"leela_r\", \"lbm_r\"]]\nseed = 7\nbudget = 4000\n\n[grid]\n\
             rob_size = [16, 128]\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn machine_show_round_trips_and_validate_counts_points() {
        let path = write_spec("roundtrip");
        let shown = run(&args(&[
            "machine",
            "show",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(shown.contains("name = \"cli-test\""), "{shown}");
        // The rendering itself loads and validates: write it back out and
        // show it again.
        let reshow = path.with_file_name("reshow.toml");
        std::fs::write(&reshow, &shown).unwrap();
        let again = run(&args(&[
            "machine",
            "show",
            "--spec",
            reshow.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(shown, again, "render_toml must round-trip");
        let json = run(&args(&[
            "machine",
            "show",
            "--spec",
            path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"schema\""), "{json}");
        assert!(json.contains("\"rob_size\""), "{json}");
        let validated = run(&args(&[
            "machine",
            "validate",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(validated.contains("is valid"), "{validated}");
        assert!(validated.contains("2 design point(s)"), "{validated}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn machine_validate_reports_field_level_errors() {
        let path = write_spec("badfield");
        std::fs::write(
            &path,
            "schema = 1\n[machine]\ncores = 3\n[machine.llc]\nslice_capacity_kib = \"big\"\n",
        )
        .unwrap();
        let err = run(&args(&[
            "machine",
            "validate",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("machine.cores"), "{err}");
        assert!(err.contains("machine.llc.slice_capacity_kib"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn simulate_accepts_machine_spec_and_rejects_conflicts() {
        let path = write_spec("simulate");
        let out = run(&args(&["simulate", "--machine", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("machine spec: cli-test"), "{out}");
        assert!(out.contains("leela_r"), "{out}");
        assert!(out.contains("lbm_r"), "{out}");
        let conflict = run(&args(&[
            "simulate",
            "--machine",
            path.to_str().unwrap(),
            "--cores",
            "4",
        ]))
        .unwrap_err();
        assert!(
            conflict.to_string().contains("conflicts with --machine"),
            "{conflict}"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn explore_then_resume_reproduces_the_manifest() {
        let path = write_spec("explore");
        let results = path.parent().unwrap().join("results");
        let common = [
            "--spec",
            path.to_str().unwrap(),
            "--label",
            "t-explore",
            "--results",
            results.to_str().unwrap(),
            "--threads",
            "2",
            "--no-prune",
        ];
        let mut raw = vec!["explore"];
        raw.extend_from_slice(&common);
        let out = run(&args(&raw)).unwrap();
        assert!(out.contains("pareto front"), "{out}");
        assert!(out.contains("2 point(s) evaluated"), "{out}");
        let manifest = results.join("cache/explore/t-explore.json");
        let first = std::fs::read(&manifest).unwrap();
        // Resume after completion re-derives a bit-identical manifest
        // from the journal header alone.
        let resumed = run(&args(&[
            "resume",
            "--label",
            "t-explore",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            resumed.contains("resuming explore `t-explore`"),
            "{resumed}"
        );
        let second = std::fs::read(&manifest).unwrap();
        assert_eq!(
            first, second,
            "resumed explore manifest must be bit-identical"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn lint_rejects_bad_format_and_missing_root() {
        let bad = run(&args(&["lint", "--format", "xml"]));
        assert!(matches!(bad, Err(CliError::BadValue(_, _))), "{bad:?}");
        let gone = std::env::temp_dir().join(format!("sms-cli-nolint-{}", std::process::id()));
        let missing = run(&args(&["lint", "--root", gone.to_str().unwrap()]));
        assert!(matches!(missing, Err(CliError::Io(_))), "{missing:?}");
    }

    #[test]
    fn lint_reports_findings_with_nonzero_semantics() {
        let root = std::env::temp_dir().join(format!("sms-cli-lint-{}", std::process::id()));
        let src = root.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f() -> std::collections::HashMap<u8, u8> { std::collections::HashMap::new() }\n",
        )
        .unwrap();
        let err = run(&args(&["lint", "--root", root.to_str().unwrap()])).unwrap_err();
        match &err {
            CliError::Lint(report) => {
                assert!(report.contains("[D2]"), "{report}");
                assert!(report.contains("2 finding(s)"), "{report}");
            }
            other => panic!("expected CliError::Lint, got {other:?}"),
        }
        // A clean tree returns Ok with the summary line.
        std::fs::write(src.join("lib.rs"), "pub fn f() -> u8 { 0 }\n").unwrap();
        let ok = run(&args(&[
            "lint",
            "--root",
            root.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(ok.contains("\"clean\":true"), "{ok}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lint_baseline_write_then_warn_only() {
        let root = std::env::temp_dir().join(format!("sms-cli-lintbase-{}", std::process::id()));
        let src = root.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        let baseline = root.join("lint-baseline.jsonl");
        let baseline_s = baseline.to_str().unwrap().to_owned();
        let root_s = root.to_str().unwrap().to_owned();

        // Mutually exclusive flags are rejected.
        let both = run(&args(&[
            "lint",
            "--baseline",
            &baseline_s,
            "--write-baseline",
            &baseline_s,
        ]));
        assert!(matches!(both, Err(CliError::BadValue(_, _))), "{both:?}");

        // Write the baseline, then the same tree lints clean against it.
        let wrote = run(&args(&[
            "lint",
            "--root",
            &root_s,
            "--write-baseline",
            &baseline_s,
        ]))
        .unwrap();
        assert!(
            wrote.contains("wrote baseline with 1 finding(s)"),
            "{wrote}"
        );
        let ok = run(&args(&[
            "lint",
            "--root",
            &root_s,
            "--baseline",
            &baseline_s,
        ]))
        .unwrap();
        assert!(ok.contains("[E1 baselined]"), "{ok}");
        assert!(ok.contains("0 finding(s)"), "{ok}");

        // A new finding still fails even with the baseline applied.
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\npub fn g() { panic!(); }\n",
        )
        .unwrap();
        let err = run(&args(&[
            "lint",
            "--root",
            &root_s,
            "--baseline",
            &baseline_s,
        ]))
        .unwrap_err();
        match &err {
            CliError::Lint(report) => {
                assert!(report.contains("1 finding(s)"), "{report}");
                assert!(report.contains("1 baselined"), "{report}");
            }
            other => panic!("expected CliError::Lint, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn train_save_and_models_roundtrip() {
        let results = std::env::temp_dir().join(format!("sms-cli-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let out = run(&args(&[
            "train",
            "--bench",
            "leela_r,xz_r,gcc_r",
            "--target-cores",
            "8",
            "--budget",
            "20000",
            "--save",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("artifact `svm-log-8c`"), "{out}");
        assert!(out.contains("trained on 3 benchmark(s)"), "{out}");
        assert!(out.contains("saved to"), "{out}");
        assert!(results.join("cache/models/svm-log-8c.json").exists());

        let listing = run(&args(&["models", "--results", results.to_str().unwrap()])).unwrap();
        assert!(listing.contains("svm-log-8c"), "{listing}");
        assert!(listing.contains("SVM"), "{listing}");
        assert!(listing.contains("1 artifact(s)"), "{listing}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn models_with_no_artifacts_hints_at_train() {
        let results = std::env::temp_dir().join(format!("sms-cli-nomodels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let out = run(&args(&["models", "--results", results.to_str().unwrap()])).unwrap();
        assert!(out.contains("no model artifacts"), "{out}");
        assert!(out.contains("sms train --save"), "{out}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn serve_rejects_bad_request_timeouts() {
        // Rejected before any socket is bound or registry opened, so these
        // are fast. 0 would expire every request on arrival; huge values
        // defeat the deadline; garbage must not fall back to the default.
        for bad in ["0", "9", "60001", "not-a-number", "-5"] {
            let result = run(&args(&["serve", "--request-timeout-ms", bad]));
            assert!(
                matches!(result, Err(CliError::BadValue(ref k, _)) if k == "request-timeout-ms"),
                "--request-timeout-ms {bad}: {result:?}"
            );
        }
    }

    #[test]
    fn train_rejects_bad_options() {
        assert!(matches!(
            run(&args(&["train", "--kind", "gpt"])),
            Err(CliError::BadValue(_, _))
        ));
        assert!(matches!(
            run(&args(&["train", "--curve", "cubic"])),
            Err(CliError::BadValue(_, _))
        ));
        // Too small for a two-model scale ladder.
        assert!(matches!(
            run(&args(&["train", "--target-cores", "4"])),
            Err(CliError::BadValue(_, _))
        ));
        assert!(matches!(
            run(&args(&[
                "train",
                "--bench",
                "nope_r",
                "--target-cores",
                "8"
            ])),
            Err(CliError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn scale_prints_table() {
        let out = run(&args(&["scale"])).unwrap();
        assert!(out.contains("32 cores"));
        assert!(out.contains("1 MB"));
        let out64 = run(&args(&["scale", "--cores", "64"])).unwrap();
        assert!(out64.contains("64 cores"));
    }

    #[test]
    fn scale_rejects_bad_cores() {
        assert!(run(&args(&["scale", "--cores", "48"])).is_err());
    }

    #[test]
    fn simulate_small_run_works() {
        let out = run(&args(&[
            "simulate", "--bench", "leela_r", "--cores", "1", "--budget", "20000",
        ]))
        .unwrap();
        assert!(out.contains("leela_r"));
        assert!(out.contains("total:"));
    }

    #[test]
    fn simulate_json_output_parses() {
        let out = run(&args(&[
            "simulate", "--bench", "xz_r", "--cores", "2", "--budget", "20000", "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cores"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn simulate_mixed_benchmarks_round_robin() {
        let out = run(&args(&[
            "simulate",
            "--bench",
            "leela_r,lbm_r",
            "--cores",
            "4",
            "--budget",
            "20000",
        ]))
        .unwrap();
        assert!(out.contains("leela_r") && out.contains("lbm_r"));
    }

    #[test]
    fn simulate_unknown_benchmark_fails() {
        assert!(matches!(
            run(&args(&["simulate", "--bench", "nope_r", "--cores", "1"])),
            Err(CliError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn predict_runs() {
        let out = run(&args(&["predict", "--bench", "xz_r", "--budget", "20000"])).unwrap();
        assert!(out.contains("predicted per-core IPC"));
    }

    #[test]
    fn trace_records_file() {
        let path = std::env::temp_dir().join(format!("sms-cli-{}.smst", std::process::id()));
        let out = run(&args(&[
            "trace",
            "--bench",
            "gcc_r",
            "--out",
            path.to_str().unwrap(),
            "--instructions",
            "5000",
        ]))
        .unwrap();
        assert!(out.contains("recorded"));
        let t = RecordedTrace::load(&path).unwrap();
        assert!(t.instructions() >= 5000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_executes_plan_and_manifest_renders() {
        let results = std::env::temp_dir().join(format!("sms-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let out = run(&args(&[
            "sweep",
            "--bench",
            "leela_r,xz_r",
            "--target-cores",
            "2",
            "--budget",
            "20000",
            "--results",
            results.to_str().unwrap(),
            "--label",
            "cli-test",
        ]))
        .unwrap();
        assert!(out.contains("sweep `cli-test`"), "{out}");
        assert!(out.contains("4 runs"), "{out}");
        assert!(out.contains("0 quarantined"), "{out}");

        let manifest_path = results.join("cache/manifests/cli-test.json");
        assert!(manifest_path.exists(), "manifest missing: {out}");
        let rendered = run(&args(&[
            "manifest",
            "--path",
            manifest_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(rendered.contains("cli-test"), "{rendered}");

        // A second identical sweep is served entirely from the cache.
        let again = run(&args(&[
            "sweep",
            "--bench",
            "leela_r,xz_r",
            "--target-cores",
            "2",
            "--budget",
            "20000",
            "--results",
            results.to_str().unwrap(),
            "--label",
            "cli-test",
        ]))
        .unwrap();
        assert!(again.contains("4 cached"), "{again}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn simulate_timeline_out_then_timeline_renders() {
        let path = std::env::temp_dir().join(format!("sms-cli-tl-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let out = run(&args(&[
            "simulate",
            "--bench",
            "leela_r",
            "--cores",
            "1",
            "--budget",
            "20000",
            "--timeline-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("timeline:"), "{out}");
        assert!(path.exists());

        let rendered = run(&args(&["timeline", "--path", path.to_str().unwrap()])).unwrap();
        assert!(rendered.contains("1x leela_r"), "{rendered}");
        assert!(rendered.contains("epoch"), "{rendered}");
        assert!(rendered.contains("epochs of"), "{rendered}");

        let csv = run(&args(&[
            "timeline",
            "--path",
            path.to_str().unwrap(),
            "--csv",
        ]))
        .unwrap();
        assert!(csv.starts_with("epoch,cycle,ipc,"), "{csv}");
        assert!(csv.lines().count() >= 2, "{csv}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timelines_sweep_resumed_with_profile_writes_both_kinds() {
        let results = std::env::temp_dir().join(format!("sms-cli-sweep-tl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let dir = results.to_str().unwrap();
        let out = run(&args(&[
            "sweep",
            "--bench",
            "leela_r",
            "--target-cores",
            "2",
            "--budget",
            "20000",
            "--results",
            dir,
            "--label",
            "cli-tl",
            "--timelines",
        ]))
        .unwrap();
        assert!(out.contains("timelines:"), "{out}");
        let cache = results.join("cache");
        let names = |sub: &str| -> Vec<std::ffi::OsString> {
            let mut names: Vec<_> = std::fs::read_dir(cache.join(sub))
                .unwrap()
                .flatten()
                .map(|e| e.file_name())
                .collect();
            names.sort();
            names
        };
        let timelines = names("timelines");
        assert_eq!(timelines.len(), 2, "one timeline per simulated run");
        assert!(!cache.join("profiles").exists());
        let one = cache.join("timelines").join(&timelines[0]);
        let rendered = run(&args(&["timeline", "--path", one.to_str().unwrap()])).unwrap();
        assert!(rendered.contains("epoch"), "{rendered}");

        // Lose one run (cache entry and timeline), then resume with
        // --profile. Regression: the journaled `timelines: true` used to
        // collide with --profile ("conflicts") and the resume died.
        std::fs::remove_file(cache.join(&timelines[0])).unwrap();
        std::fs::remove_file(one).unwrap();
        let out = run(&args(&[
            "resume",
            "--results",
            dir,
            "--label",
            "cli-tl",
            "--profile",
        ]))
        .unwrap();
        assert!(out.contains("1 cached, 1 simulated"), "{out}");
        assert_eq!(names("timelines"), timelines, "one timeline per run again");
        assert_eq!(
            names("profiles"),
            [timelines[0].clone()],
            "only the re-simulated run is profiled"
        );
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn timeline_on_missing_file_is_io_error() {
        assert!(matches!(
            run(&args(&["timeline", "--path", "/nonexistent/timeline.json"])),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn manifest_on_missing_file_is_io_error() {
        assert!(matches!(
            run(&args(&["manifest", "--path", "/nonexistent/manifest.json"])),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn missing_required_option_reported() {
        assert_eq!(
            run(&args(&["trace", "--bench", "gcc_r"])),
            Err(CliError::MissingOption("out"))
        );
    }

    #[test]
    fn sweep_journals_then_resume_fsck_quarantine_report_clean() {
        let results = std::env::temp_dir().join(format!("sms-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let out = run(&args(&[
            "sweep",
            "--bench",
            "leela_r",
            "--target-cores",
            "2",
            "--budget",
            "20000",
            "--results",
            results.to_str().unwrap(),
            "--label",
            "cyc",
        ]))
        .unwrap();
        assert!(out.contains("journal:"), "{out}");
        assert!(results.join("cache/journal/cyc.jsonl").exists(), "{out}");

        // Resume after a completed sweep: the plan rebuilds identically
        // and every run is served from the cache.
        let resumed = run(&args(&[
            "resume",
            "--label",
            "cyc",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(resumed.contains("resuming sweep `cyc`"), "{resumed}");
        assert!(resumed.contains("invocation finished"), "{resumed}");
        assert!(resumed.contains("2 cached"), "{resumed}");

        let checked = run(&args(&["fsck", "--results", results.to_str().unwrap()])).unwrap();
        assert!(checked.contains("0 defect(s)"), "{checked}");

        let q = run(&args(&[
            "quarantine",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(q.contains("no quarantined runs"), "{q}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn resume_without_a_journal_is_an_error() {
        let results = std::env::temp_dir().join(format!("sms-cli-noresume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let err = run(&args(&[
            "resume",
            "--label",
            "never",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("nothing to resume"), "{err}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn fsck_on_missing_cache_is_an_error() {
        let results = std::env::temp_dir().join(format!("sms-cli-nofsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        assert!(matches!(
            run(&args(&["fsck", "--results", results.to_str().unwrap()])),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn quarantine_lists_and_clears_records() {
        let results = std::env::temp_dir().join(format!("sms-cli-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let qdir = results.join("cache/quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        let rec = QuarantineRecord {
            key: "cfg|mix|spec".into(),
            mix: "2x leela_r".into(),
            error: "boom".into(),
            attempts: 3,
        };
        let hash = "00000000000000000000000000000000";
        std::fs::write(
            qdir.join(format!("{hash}.json")),
            serde_json::to_string(&rec).unwrap(),
        )
        .unwrap();

        let listing = run(&args(&[
            "quarantine",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(listing.contains(hash), "{listing}");
        assert!(listing.contains("boom"), "{listing}");
        assert!(listing.contains("--clear"), "{listing}");

        let cleared = run(&args(&[
            "quarantine",
            "--results",
            results.to_str().unwrap(),
            "--clear",
        ]))
        .unwrap();
        assert!(
            cleared.contains("released 1 quarantined run(s)"),
            "{cleared}"
        );
        assert!(!qdir.join(format!("{hash}.json")).exists());

        let empty = run(&args(&[
            "quarantine",
            "--results",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(empty.contains("no quarantined runs"), "{empty}");
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn profile_prints_table_flame_and_json() {
        let dir = std::env::temp_dir().join(format!("sms-cli-prof-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let flame = dir.join("flame.txt");
        let out = run(&args(&[
            "profile",
            "--bench",
            "leela_r,lbm_r",
            "--cores",
            "2",
            "--budget",
            "100000",
            "--flame",
            flame.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("sim.run"), "{out}");
        assert!(out.contains("core.step"), "{out}");
        assert!(out.contains("window.merge"), "{out}");
        assert!(out.contains("coverage:"), "{out}");
        // Acceptance: phase self-times account for >= 90% of the wall
        // time a stopwatch around the run would measure.
        let coverage: f64 = out
            .lines()
            .find(|l| l.starts_with("coverage:"))
            .and_then(|l| l.split('%').next())
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(coverage >= 90.0, "coverage {coverage}% below 90%:\n{out}");

        let collapsed = std::fs::read_to_string(&flame).unwrap();
        assert!(
            collapsed
                .lines()
                .any(|l| l.starts_with("sim.run;window.fork;core.step ")),
            "{collapsed}"
        );
        let json = run(&args(&[
            "profile", "--bench", "leela_r", "--cores", "1", "--budget", "20000", "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(json.contains("sim.run"), "{json}");
        assert!(v.get("phases").is_some(), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_with_profile_writes_files_and_embeds_the_aggregate() {
        let results = std::env::temp_dir().join(format!("sms-cli-sweep-pr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results);
        let sweep = || {
            run(&args(&[
                "sweep",
                "--bench",
                "leela_r",
                "--target-cores",
                "2",
                "--budget",
                "20000",
                "--results",
                results.to_str().unwrap(),
                "--label",
                "cli-prof",
                "--timelines",
                "--profile",
            ]))
            .unwrap()
        };
        // The two flags compose: one timeline and one profile per run.
        let out = sweep();
        assert!(out.contains("timelines:"), "{out}");
        assert!(out.contains("profiles:"), "{out}");
        let tdir = results.join("cache/timelines");
        let pdir = results.join("cache/profiles");
        assert_eq!(std::fs::read_dir(&tdir).unwrap().count(), 2, "{out}");
        let mut merged = sms_obs::PhaseProfile::default();
        for entry in std::fs::read_dir(&pdir).unwrap().flatten() {
            assert!(tdir.join(entry.file_name()).exists(), "same run, same stem");
            let file = sms_bench::ProfileFile::load(entry.path()).unwrap();
            merged.merge(&sms_bench::records_to_profile(&file.phases));
        }
        let sim_run = merged.phases.iter().find(|p| p.path == "sim.run");
        assert_eq!(sim_run.map(|p| p.count), Some(2), "one profile per run");
        let manifest_path = results.join("cache/manifests/cli-prof.json");
        let embedded = RunManifest::load(&manifest_path).unwrap().profile;
        assert_eq!(
            embedded.map(|records| sms_bench::records_to_profile(&records)),
            Some(merged),
            "the manifest embeds the merge of the per-run profiles"
        );

        // All-cached: nothing is simulated, so nothing is observed.
        std::fs::remove_dir_all(&tdir).unwrap();
        std::fs::remove_dir_all(&pdir).unwrap();
        let again = sweep();
        assert!(again.contains("no new phase samples"), "{again}");
        assert!(!tdir.exists() && !pdir.exists(), "{again}");
        assert!(RunManifest::load(&manifest_path).unwrap().profile.is_none());
        let _ = std::fs::remove_dir_all(&results);
    }
}
