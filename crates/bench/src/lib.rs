//! # sms-bench — experiment harness
//!
//! Reproduces every table and figure of *Scale-Model Architectural
//! Simulation* on the `sms-sim`/`sms-workloads` substrate:
//!
//! * [`runner`] — persistent simulation-result cache (checksummed
//!   entries) + fault-tolerant plan executor (panic isolation, bounded
//!   retries, quarantine, watchdog deadline via `SMS_RUN_TIMEOUT_SECS`),
//! * [`journal`] — append-only fsync'd plan journal enabling crash-safe
//!   sweep resume (`sms resume`),
//! * [`fsck`](mod@fsck) — cache integrity verification and repair
//!   (`sms fsck`),
//! * [`telemetry`] — per-run records, `sms-obs` counters, the JSON
//!   run-manifest, and Chrome-trace flushing,
//! * [`observe`] — the one observed-run body: opt-in per-run epoch
//!   timelines and phase profiles written next to the cache
//!   (`sms sweep --timelines --profile`), the latter aggregated into the
//!   run-manifest,
//! * [`ctx`] — experiment context (env-var knobs, report emission),
//! * [`experiments`] — one driver per table/figure,
//! * [`table`] — text-table rendering.
//!
//! Failure-prone paths (cache read/write, journal append, manifest and
//! timeline flush, the run body itself) carry deterministic `sms-faults`
//! failpoints, armed via the `SMS_FAULTS` environment variable and free
//! when it is unset.
//!
//! Run individual figures via `cargo run --release -p sms-bench --bin
//! run_experiments -- fig4` (ids are listed in [`experiments::ALL`]), or
//! everything by passing no id. The `SMS_BUDGET` environment variable sets
//! the per-instance instruction budget (default 500k).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ctx;
pub mod experiments;
pub mod fsck;
pub mod journal;
pub mod observe;
pub mod runner;
pub mod table;
pub mod telemetry;

pub use ctx::{Ctx, Report};
pub use fsck::{fsck, Defect, DefectKind, FsckAction, FsckReport};
pub use journal::{
    journal_path, replay, JournalLine, JournalReplay, PlanHeader, PlanJournal,
    JOURNAL_SCHEMA_VERSION,
};
pub use observe::{
    execute_plan_observed, observed_run, phase_records, profiles_dir, records_to_profile,
    timelines_dir, Observe, Observed, PhaseStatRecord, ProfileFile, TimelineFile,
    PROFILE_FILE_SCHEMA_VERSION, TIMELINE_SCHEMA_VERSION,
};
pub use runner::{
    cache_key, execute_plan, execute_plan_with, key_hash_hex, result_checksum, CachedSim,
    ExecOptions, PlanSummary, QuarantineRecord, CACHE_SCHEMA_VERSION,
};
pub use telemetry::{
    percentiles, write_trace, Percentiles, RunManifest, RunRecord, RunStatus, RunSummary,
};
