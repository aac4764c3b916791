//! `sms-serve`: a dependency-free prediction service over trained
//! scale-model artifacts.
//!
//! The crate turns the offline pipeline (`sms train --save`) into an
//! online one: a hand-rolled HTTP/1.1 server on `std::net` loads
//! persisted [`sms_core::artifact::ModelArtifact`]s from a
//! [`ModelRegistry`] and answers per-mix IPC/STP predictions without
//! running any simulation. Everything is `std`-only — no async runtime,
//! no HTTP framework — because the workload (small JSON bodies, CPU-light
//! model evaluation) doesn't need one, and the repo's no-new-dependencies
//! rule forbids one.
//!
//! Module map:
//!
//! - [`http`] — minimal HTTP/1.1 request parsing and response writing,
//!   with per-request read deadlines.
//! - [`api`] — request/response DTOs shared by server, CLI, and tests.
//! - [`registry`] — on-disk artifact discovery and in-memory index, with
//!   retrying loads, quarantine, and periodic re-probe self-healing.
//! - [`queue`] — bounded MPMC queue with non-blocking, load-shedding push.
//! - `sync` (private) — std/loom-swappable lock primitives; the loom CI
//!   job model-checks the queue and breaker through this seam.
//! - [`cache`] — LRU response cache keyed on canonical request JSON.
//! - [`breaker`] — per-model circuit breaker gating the analytic
//!   degraded-mode fallback.
//! - [`metrics`] — `sms-obs`-registry-backed counters, histograms, and
//!   latency percentiles for `/metrics` and `/metrics.json`.
//! - [`server`] — blocking acceptor, reused connection handlers and
//!   worker pool wiring, batching, deadlines, ordered shutdown.
//!
//! Endpoints: `POST /predict`, `GET /models`, `GET /healthz`,
//! `GET /metrics` (Prometheus text exposition), `GET /metrics.json`
//! (JSON snapshot), `POST /shutdown`. See `DESIGN.md` for the batching
//! and load-shedding policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod breaker;
pub mod cache;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod server;
mod sync;

pub use api::{ModelInfo, ModelsResponse, PredictRequest, PredictResponse};
pub use breaker::{BreakerState, CircuitBreaker, Route};
pub use cache::LruCache;
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use queue::BoundedQueue;
pub use registry::{models_dir, ModelRegistry, RegistryStats};
pub use server::{
    serve, ServerConfig, ServerHandle, ShutdownTrigger, MAX_DEADLINE_MS, MIN_DEADLINE_MS,
};
