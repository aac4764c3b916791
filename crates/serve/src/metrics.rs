//! Live server metrics, served by `GET /metrics` (Prometheus text) and
//! `GET /metrics.json` (JSON snapshot).
//!
//! Counters live in a per-server [`sms_obs::Registry`] — one registry per
//! [`ServerMetrics`] so concurrently running servers (tests spawn
//! several per process) never cross-count — and are exported straight in
//! the Prometheus exposition format. The JSON [`MetricsSnapshot`] keeps
//! the pre-registry field layout for existing consumers, and latency
//! tails are still computed with the same
//! [`sms_bench::telemetry::percentiles`] helper the sweep manifest uses,
//! so `sms sweep` and `sms serve` report p50/p95/p99 identically; a
//! registry histogram (`sms_serve_predict_latency_micros`) carries the
//! full latency distribution for Prometheus scrapers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sms_bench::telemetry::{percentiles, Percentiles};
use sms_obs::{Counter, Family, Gauge, Histogram, Registry};

use crate::queue::lock;

/// How many of the most recent prediction latencies feed the percentile
/// estimate.
pub const LATENCY_WINDOW: usize = 4096;

/// Thread-safe metric collectors backed by an isolated obs registry.
/// All recording methods take `&self`.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    registry: Arc<Registry>,
    requests_total: Arc<Counter>,
    endpoint_requests: Arc<Family<Counter>>,
    bad_requests: Arc<Counter>,
    shed_total: Arc<Counter>,
    cache_requests: Arc<Family<Counter>>,
    batched_requests: Arc<Counter>,
    worker_panics: Arc<Counter>,
    write_errors: Arc<Counter>,
    deadline_exceeded: Arc<Family<Counter>>,
    degraded_total: Arc<Counter>,
    accept_errors: Arc<Counter>,
    artifact_quarantined: Arc<Counter>,
    artifact_absolved: Arc<Counter>,
    breaker_transitions: Arc<Family<Counter>>,
    inflight_connections: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    latency_micros: Arc<Histogram>,
    /// Count of latency observations, mirrored outside the histogram so
    /// tests can assert on it without decoding buckets.
    // sms-lint: atomic(counter): observation tally, test/export reads only
    latency_count: AtomicU64,
    latencies: Mutex<VecDeque<f64>>,
}

/// Point-in-time snapshot of the collectors, the body of
/// `GET /metrics.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// All requests accepted, any endpoint.
    pub requests_total: u64,
    /// `POST /predict` requests (including shed and cached ones).
    pub predict_requests: u64,
    /// `GET /models` requests.
    pub models_requests: u64,
    /// `GET /healthz` requests.
    pub healthz_requests: u64,
    /// `GET /metrics` and `GET /metrics.json` requests.
    pub metrics_requests: u64,
    /// Requests rejected as malformed (4xx other than load shedding).
    pub bad_requests: u64,
    /// Predict requests shed with 503 because the queue was full.
    pub shed_total: u64,
    /// Predict requests answered from the response cache.
    pub cache_hits: u64,
    /// Predict requests that required model evaluation.
    pub cache_misses: u64,
    /// Cache hits over all cache lookups (0 when none yet).
    pub cache_hit_rate: f64,
    /// Predict requests answered as part of a multi-request batch.
    pub batched_requests: u64,
    /// Worker batches that panicked and were isolated (the worker thread
    /// survived). Absent in snapshots from older servers.
    #[serde(default)]
    pub worker_panics: u64,
    /// Responses that could not be written back to the client socket
    /// (client hung up early, send buffer error, ...). Absent in
    /// snapshots from older servers.
    #[serde(default)]
    pub write_errors: u64,
    /// Requests answered `504` because a deadline expired, by stage
    /// (`header`, `queue`, `predict`). Absent in snapshots from older
    /// servers.
    #[serde(default)]
    pub deadline_exceeded: BTreeMap<String, u64>,
    /// Predict requests answered by the analytic fallback while a model's
    /// circuit breaker was open. Absent in snapshots from older servers.
    #[serde(default)]
    pub degraded_total: u64,
    /// `accept()` failures on the listener socket. Absent in snapshots
    /// from older servers.
    #[serde(default)]
    pub accept_errors: u64,
    /// Artifacts the registry moved to quarantine. Absent in snapshots
    /// from older servers.
    #[serde(default)]
    pub artifact_quarantined: u64,
    /// Quarantined artifacts absolved after repair. Absent in snapshots
    /// from older servers.
    #[serde(default)]
    pub artifact_absolved: u64,
    /// Circuit-breaker transitions, by destination state (`open`,
    /// `half_open`, `closed`). Absent in snapshots from older servers.
    #[serde(default)]
    pub breaker_transitions: BTreeMap<String, u64>,
    /// Connections currently being handled. Absent in snapshots from
    /// older servers.
    #[serde(default)]
    pub inflight_connections: u64,
    /// Current prediction-queue depth.
    pub queue_depth: usize,
    /// p50/p95/p99 of recent prediction latencies, seconds (absent until
    /// the first prediction completes).
    pub latency_seconds: Option<Percentiles>,
}

impl ServerMetrics {
    /// Fresh collectors in a fresh registry, with uptime measured from
    /// now.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let endpoint_requests = registry.counter_family(
            "sms_serve_endpoint_requests_total",
            "Requests handled, by endpoint",
            &["endpoint"],
        );
        Self {
            started: Instant::now(),
            requests_total: registry.counter(
                "sms_serve_requests_total",
                "All requests accepted, any endpoint",
            ),
            endpoint_requests,
            bad_requests: registry.counter(
                "sms_serve_bad_requests_total",
                "Requests rejected as malformed (4xx other than load shedding)",
            ),
            shed_total: registry.counter(
                "sms_serve_shed_total",
                "Predict requests shed with 503 because the queue was full",
            ),
            cache_requests: registry.counter_family(
                "sms_serve_cache_requests_total",
                "Response-cache lookups, by result",
                &["result"],
            ),
            batched_requests: registry.counter(
                "sms_serve_batched_requests_total",
                "Predict requests answered as part of a multi-request batch",
            ),
            worker_panics: registry.counter(
                "sms_serve_worker_panics_total",
                "Worker batches that panicked and were isolated",
            ),
            write_errors: registry.counter(
                "sms_serve_write_errors_total",
                "Responses that could not be written back to the client socket",
            ),
            deadline_exceeded: registry.counter_family(
                "sms_serve_deadline_exceeded_total",
                "Requests answered 504 because a deadline expired, by stage",
                &["stage"],
            ),
            degraded_total: registry.counter(
                "sms_serve_degraded_total",
                "Predict requests answered by the analytic fallback (breaker open)",
            ),
            accept_errors: registry.counter(
                "sms_serve_accept_errors_total",
                "accept() failures on the listener socket",
            ),
            artifact_quarantined: registry.counter(
                "sms_serve_artifact_quarantined_total",
                "Artifacts the registry moved to quarantine",
            ),
            artifact_absolved: registry.counter(
                "sms_serve_artifact_absolved_total",
                "Quarantined artifacts absolved after repair",
            ),
            breaker_transitions: registry.counter_family(
                "sms_serve_breaker_transitions_total",
                "Circuit-breaker transitions, by destination state",
                &["to"],
            ),
            inflight_connections: registry.gauge(
                "sms_serve_inflight_connections",
                "Connections currently being handled",
            ),
            queue_depth: registry.gauge(
                "sms_serve_queue_depth",
                "Prediction-queue depth at the last scrape",
            ),
            uptime_seconds: registry.gauge(
                "sms_serve_uptime_seconds",
                "Seconds since the server started, at the last scrape",
            ),
            latency_micros: registry.histogram(
                "sms_serve_predict_latency_micros",
                "Prediction wall latency in microseconds",
            ),
            latency_count: AtomicU64::new(0),
            registry,
            latencies: Mutex::new(VecDeque::with_capacity(LATENCY_WINDOW)),
        }
    }

    /// The registry backing these collectors.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Count one accepted request.
    pub fn record_request(&self) {
        self.requests_total.inc();
    }

    /// Count one `POST /predict`.
    pub fn record_predict(&self) {
        self.endpoint_requests.with(&["predict"]).inc();
    }

    /// Count one `GET /models`.
    pub fn record_models(&self) {
        self.endpoint_requests.with(&["models"]).inc();
    }

    /// Count one `GET /healthz`.
    pub fn record_healthz(&self) {
        self.endpoint_requests.with(&["healthz"]).inc();
    }

    /// Count one `GET /metrics` or `GET /metrics.json`.
    pub fn record_metrics(&self) {
        self.endpoint_requests.with(&["metrics"]).inc();
    }

    /// Count one malformed/rejected request.
    pub fn record_bad_request(&self) {
        self.bad_requests.inc();
    }

    /// Count one load-shed predict request.
    pub fn record_shed(&self) {
        self.shed_total.inc();
    }

    /// Count one response-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_requests.with(&["hit"]).inc();
    }

    /// Count one response-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_requests.with(&["miss"]).inc();
    }

    /// Count predict requests that rode along in a batch behind the
    /// batch's first request.
    pub fn record_batched(&self, n: u64) {
        self.batched_requests.inc_by(n);
    }

    /// Count one isolated worker-batch panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Count one failed response write.
    pub fn record_write_error(&self) {
        self.write_errors.inc();
    }

    /// Failed response writes so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.get()
    }

    /// Count one request answered `504`, by the stage whose deadline
    /// expired (`header`, `queue`, or `predict`).
    pub fn record_deadline_exceeded(&self, stage: &str) {
        self.deadline_exceeded.with(&[stage]).inc();
    }

    /// Count one degraded (analytic-fallback) prediction response.
    pub fn record_degraded(&self) {
        self.degraded_total.inc();
    }

    /// Count one listener `accept()` failure.
    pub fn record_accept_error(&self) {
        self.accept_errors.inc();
    }

    /// Listener `accept()` failures so far.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.get()
    }

    /// Count one circuit-breaker transition into `to` (`open`,
    /// `half_open`, or `closed`).
    pub fn record_breaker_transition(&self, to: &str) {
        self.breaker_transitions.with(&[to]).inc();
    }

    /// Move the in-flight-connections gauge by `delta`: +1 when a
    /// connection is admitted, -1 once it is answered or queued. Deltas
    /// rather than levels, because the acceptor and the handlers race.
    pub fn add_inflight(&self, delta: i32) {
        self.inflight_connections.add(f64::from(delta));
    }

    /// Mirror the registry's monotonic self-healing totals into the
    /// exported counters (called at scrape time; counters only move
    /// forward).
    pub fn sync_artifact_health(&self, quarantined_total: u64, absolved_total: u64) {
        let seen = self.artifact_quarantined.get();
        if quarantined_total > seen {
            self.artifact_quarantined.inc_by(quarantined_total - seen);
        }
        let seen = self.artifact_absolved.get();
        if absolved_total > seen {
            self.artifact_absolved.inc_by(absolved_total - seen);
        }
    }

    /// Record one completed prediction's wall latency in seconds: into
    /// the registry histogram (as microseconds) and into the bounded
    /// window that feeds the percentile estimate.
    pub fn record_latency(&self, seconds: f64) {
        self.latency_micros.observe((seconds * 1e6) as u64);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        let mut window = lock(&self.latencies);
        if window.len() >= LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(seconds);
    }

    /// Number of latencies observed (not bounded by the window).
    pub fn latency_count(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Refresh the scrape-time gauges and render the registry in the
    /// Prometheus text exposition format; `queue_depth` comes from the
    /// caller because the queue lives next to, not inside, the metrics.
    pub fn prometheus_text(&self, queue_depth: usize) -> String {
        self.queue_depth.set(queue_depth as f64);
        self.uptime_seconds
            .set(self.started.elapsed().as_secs_f64());
        self.registry.prometheus_text()
    }

    /// Snapshot every collector into the JSON layout; `queue_depth` as
    /// in [`ServerMetrics::prometheus_text`].
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        let hits = self.cache_requests.with(&["hit"]).get();
        let misses = self.cache_requests.with(&["miss"]).get();
        let lookups = hits + misses;
        let latency_seconds = percentiles(lock(&self.latencies).make_contiguous());
        MetricsSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            requests_total: self.requests_total.get(),
            predict_requests: self.endpoint_requests.with(&["predict"]).get(),
            models_requests: self.endpoint_requests.with(&["models"]).get(),
            healthz_requests: self.endpoint_requests.with(&["healthz"]).get(),
            metrics_requests: self.endpoint_requests.with(&["metrics"]).get(),
            bad_requests: self.bad_requests.get(),
            shed_total: self.shed_total.get(),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
            batched_requests: self.batched_requests.get(),
            worker_panics: self.worker_panics.get(),
            write_errors: self.write_errors.get(),
            deadline_exceeded: ["header", "queue", "predict"]
                .iter()
                .map(|s| ((*s).to_owned(), self.deadline_exceeded.with(&[s]).get()))
                .collect(),
            degraded_total: self.degraded_total.get(),
            accept_errors: self.accept_errors.get(),
            artifact_quarantined: self.artifact_quarantined.get(),
            artifact_absolved: self.artifact_absolved.get(),
            breaker_transitions: ["closed", "half_open", "open"]
                .iter()
                .map(|s| ((*s).to_owned(), self.breaker_transitions.with(&[s]).get()))
                .collect(),
            inflight_connections: self.inflight_connections.get() as u64,
            queue_depth,
            latency_seconds,
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServerMetrics::new();
        m.record_request();
        m.record_request();
        m.record_predict();
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_cache_miss();
        m.record_shed();
        m.record_batched(2);
        m.record_write_error();
        m.record_latency(0.010);
        m.record_latency(0.020);
        let s = m.snapshot(3);
        assert_eq!(s.requests_total, 2);
        assert_eq!(s.predict_requests, 1);
        assert_eq!(s.shed_total, 1);
        assert_eq!(s.batched_requests, 2);
        assert_eq!(s.write_errors, 1);
        assert_eq!(m.write_errors(), 1);
        assert_eq!(s.queue_depth, 3);
        assert!((s.cache_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        let p = s.latency_seconds.unwrap();
        assert_eq!(p.p50, 0.010);
        assert_eq!(p.p99, 0.020);
        assert!(s.uptime_seconds >= 0.0);
        assert_eq!(m.latency_count(), 2);
    }

    #[test]
    fn empty_metrics_snapshot_is_well_formed() {
        let s = ServerMetrics::new().snapshot(0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.latency_seconds, None);
        // The snapshot serializes (the /metrics.json endpoint depends on
        // it).
        let text = serde_json::to_string(&s).unwrap();
        assert!(text.contains("\"queue_depth\":0"));
    }

    #[test]
    fn latency_window_is_bounded() {
        let m = ServerMetrics::new();
        for i in 0..(LATENCY_WINDOW + 100) {
            m.record_latency(i as f64);
        }
        assert_eq!(m.latencies.lock().unwrap().len(), LATENCY_WINDOW);
        // Oldest samples were dropped: the window starts at 100.
        assert_eq!(m.latencies.lock().unwrap()[0], 100.0);
        // The registry histogram keeps every observation.
        assert_eq!(m.latency_count(), (LATENCY_WINDOW + 100) as u64);
    }

    #[test]
    fn prometheus_text_exposes_families() {
        let m = ServerMetrics::new();
        m.record_request();
        m.record_predict();
        m.record_cache_hit();
        m.record_latency(0.005);
        let text = m.prometheus_text(2);
        assert!(text.contains("# TYPE sms_serve_requests_total counter"));
        assert!(text.contains("sms_serve_requests_total 1"));
        assert!(text.contains("sms_serve_endpoint_requests_total{endpoint=\"predict\"} 1"));
        assert!(text.contains("sms_serve_cache_requests_total{result=\"hit\"} 1"));
        assert!(text.contains("sms_serve_queue_depth 2"));
        assert!(text.contains("# TYPE sms_serve_predict_latency_micros histogram"));
        assert!(text.contains("sms_serve_predict_latency_micros_count 1"));
    }

    #[test]
    fn resilience_counters_surface_in_snapshot_and_text() {
        let m = ServerMetrics::new();
        m.record_deadline_exceeded("header");
        m.record_deadline_exceeded("predict");
        m.record_deadline_exceeded("predict");
        m.record_degraded();
        m.record_accept_error();
        m.record_breaker_transition("open");
        m.record_breaker_transition("closed");
        m.add_inflight(7);
        m.add_inflight(-2);
        m.sync_artifact_health(2, 1);
        // Sync is monotonic: replaying older totals never decrements.
        m.sync_artifact_health(1, 0);
        let s = m.snapshot(0);
        assert_eq!(s.deadline_exceeded["header"], 1);
        assert_eq!(s.deadline_exceeded["queue"], 0);
        assert_eq!(s.deadline_exceeded["predict"], 2);
        assert_eq!(s.degraded_total, 1);
        assert_eq!(s.accept_errors, 1);
        assert_eq!(m.accept_errors(), 1);
        assert_eq!(s.artifact_quarantined, 2);
        assert_eq!(s.artifact_absolved, 1);
        assert_eq!(s.breaker_transitions["open"], 1);
        assert_eq!(s.breaker_transitions["closed"], 1);
        assert_eq!(s.breaker_transitions["half_open"], 0);
        assert_eq!(s.inflight_connections, 5);
        let text = m.prometheus_text(0);
        assert!(text.contains("sms_serve_deadline_exceeded_total{stage=\"predict\"} 2"));
        assert!(text.contains("sms_serve_degraded_total 1"));
        assert!(text.contains("sms_serve_accept_errors_total 1"));
        assert!(text.contains("sms_serve_artifact_quarantined_total 2"));
        assert!(text.contains("sms_serve_artifact_absolved_total 1"));
        assert!(text.contains("sms_serve_breaker_transitions_total{to=\"open\"} 1"));
        assert!(text.contains("sms_serve_inflight_connections 5"));
    }

    #[test]
    fn registries_are_isolated_per_server() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.record_request();
        assert_eq!(a.snapshot(0).requests_total, 1);
        assert_eq!(b.snapshot(0).requests_total, 0);
    }
}
