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
//! * [`timeline`] — opt-in per-run epoch timelines written next to the
//!   cache (`sms sweep --timelines`, rendered by `sms timeline`),
//! * [`profile`] — opt-in per-run phase profiles written next to the
//!   cache (`sms sweep --profile`), aggregated into the run-manifest,
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
pub mod profile;
pub mod runner;
pub mod table;
pub mod telemetry;
pub mod timeline;

pub use ctx::{Ctx, Report};
pub use fsck::{fsck, Defect, DefectKind, FsckAction, FsckReport};
pub use journal::{
    journal_path, replay, JournalLine, JournalReplay, PlanHeader, PlanJournal,
    JOURNAL_SCHEMA_VERSION,
};
pub use profile::{
    execute_plan_with_profiles, phase_records, profile_run_fn, profiles_dir, records_to_profile,
    PhaseStatRecord, ProfileFile, PROFILE_FILE_SCHEMA_VERSION,
};
pub use runner::{
    cache_key, execute_plan, execute_plan_with, key_hash_hex, result_checksum, CachedSim,
    ExecOptions, PlanSummary, QuarantineRecord, CACHE_SCHEMA_VERSION,
};
pub use telemetry::{
    percentiles, write_trace, Percentiles, RunManifest, RunRecord, RunStatus, RunSummary,
};
pub use timeline::{
    execute_plan_with_timelines, timeline_run_fn, timelines_dir, TimelineFile,
    TIMELINE_SCHEMA_VERSION,
};
