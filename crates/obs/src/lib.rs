//! # sms-obs — unified observability substrate
//!
//! A zero-dependency (std-only) instrumentation layer shared by every
//! crate in the workspace:
//!
//! * a [`Registry`] of atomic [`Counter`]s, [`Gauge`]s and log2-bucketed
//!   [`Histogram`]s, organised into labeled [`Family`]s, exported as
//!   Prometheus text exposition or canonical JSON ([`mod@registry`]),
//! * bounded-ring span tracing with an RAII guard API and Chrome
//!   `trace_event` JSON export, loadable in Perfetto or
//!   `chrome://tracing` ([`trace`]),
//! * scoped phase timers ([`Profiler`]) aggregating into a per-run
//!   [`PhaseProfile`] with text-table, collapsed-stack and
//!   canonical-JSON rendering ([`prof`]).
//!
//! # Example
//!
//! ```
//! use sms_obs::{registry, tracer, Registry};
//!
//! // Process-wide metrics: cheap atomic handles on the hot path.
//! let runs = registry().counter("doc_runs_total", "Completed runs");
//! runs.inc();
//!
//! // Isolated registry (e.g. one per server) with a labeled family.
//! let local = Registry::new();
//! let requests = local.counter_family("doc_requests_total", "By endpoint", &["endpoint"]);
//! requests.with(&["predict"]).inc_by(3);
//! assert!(local.prometheus_text().contains("doc_requests_total{endpoint=\"predict\"} 3"));
//!
//! // Span tracing: inert unless enabled.
//! tracer().set_enabled(true);
//! {
//!     let _span = tracer().span("phase", "doc").arg("k", "v");
//! }
//! assert!(tracer().chrome_json().contains("\"name\":\"phase\""));
//! # sms_obs::tracer().set_enabled(false);
//! # sms_obs::tracer().clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod export;
pub mod prof;
pub mod registry;
pub mod trace;

pub use prof::{Phase, PhaseGuard, PhaseProfile, PhaseStat, Profiler};
pub use registry::{
    bucket_bound, Counter, Family, Gauge, Histogram, HistogramSnapshot, Metric, MetricKind,
    Registry, HISTOGRAM_BOUNDS,
};
pub use trace::{Span, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

/// The process-wide metrics registry (shorthand for
/// [`Registry::global`]).
pub fn registry() -> &'static Registry {
    Registry::global()
}

/// The process-wide tracer (shorthand for [`Tracer::global`]).
pub fn tracer() -> &'static Tracer {
    Tracer::global()
}
