//! The threaded prediction server.
//!
//! Architecture: no request ever waits on a clock or on a thread spawn.
//! One acceptor thread parks in a blocking `accept()` on a
//! `std::net::TcpListener`, stamps each socket with its accept time and
//! pushes it onto a [`BoundedQueue`] of admitted connections — bounded by
//! [`ServerConfig::max_inflight`]; beyond the bound, and on an injected
//! `serve.accept` fault, the connection goes to a refuser thread that
//! writes the `503` and lingers on the socket, so neither a refusal nor a
//! slow client ever holds the acceptor. Connection handlers are reused,
//! not spawned per connection: the acceptor grows the pool on demand, up
//! to `max_inflight`, whenever more connections are admitted than there
//! are handlers. A handler parses the request under a short header-read
//! deadline (slow-loris defense) and answers cheap endpoints (`/healthz`,
//! `/models`, `/metrics`, `/metrics.json`, `/shutdown`) and cache hits
//! directly; `POST /predict` cache misses are enqueued on a second
//! [`BoundedQueue`] and answered by a fixed worker pool. When that queue
//! is full the request is shed immediately with `503` + `Retry-After` —
//! bounded latency is preferred over unbounded queueing. Workers
//! micro-batch: after dequeuing a job they drain other queued jobs for
//! the same model and answer the whole batch in one pass (one artifact
//! lookup, one simulated-latency charge). A re-probe thread asks the
//! model registry to retry quarantined artifacts every
//! [`ServerConfig::reprobe_interval_ms`], whether the server is idle or
//! saturated.
//!
//! Every request carries a deadline (default from
//! [`ServerConfig::request_timeout_ms`], overridable per request via the
//! `x-sms-deadline-ms` header, clamped to
//! [`MIN_DEADLINE_MS`]..=[`MAX_DEADLINE_MS`]), measured from `accept()`
//! and checked at queue exit and after prediction; expired requests are
//! answered `504` and counted in
//! `sms_serve_deadline_exceeded_total{stage}`.
//!
//! Prediction failures and timeouts feed a per-model
//! [`CircuitBreaker`]: after enough consecutive failures the model's
//! requests are served by the artifact's cheap analytic estimate
//! (`"degraded": true`, `x-sms-degraded: 1`) until a half-open trial
//! succeeds. See `crate::breaker` and DESIGN.md for the state machine.
//!
//! Shutdown is cooperative via an [`AtomicBool`]: `POST /shutdown` (or
//! [`ServerHandle::begin_shutdown`] / a [`ShutdownTrigger`] wired to
//! ctrl-c handling in the CLI) flips the flag and wakes the acceptor with
//! a connection to its own listener. The drain is ordered, so a request
//! accepted before the flag is answered after it: the acceptor exits,
//! the handlers finish every admitted connection and exit, then the
//! workers drain the prediction queue and exit, and
//! [`ServerHandle::join`] returns. Pure-`std` builds cannot install OS
//! signal handlers, so the process-level ctrl-c path is the CLI's stdin
//! watcher plus the `/shutdown` endpoint (see DESIGN.md).

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sms_core::artifact::{to_canonical_json, ModelArtifact};

use crate::api::{ModelsResponse, PredictRequest, PredictResponse};
use crate::breaker::{CircuitBreaker, Route};
use crate::cache::LruCache;
use crate::http::{read_request_before, HttpError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::queue::{lock, BoundedQueue};
use crate::registry::ModelRegistry;

/// Smallest honored per-request deadline, milliseconds.
pub const MIN_DEADLINE_MS: u64 = 10;

/// Largest honored per-request deadline, milliseconds.
pub const MAX_DEADLINE_MS: u64 = 60_000;

/// First backoff after a failed `accept()`; doubles up to
/// [`ACCEPT_BACKOFF_MAX`] and resets on the next successful accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);

/// Backoff ceiling for persistent `accept()` failures.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How long an idle handler, worker or refuser sleeps between looks at
/// its drain flag. Queue pushes and the drain wake them early; the tick
/// only bounds a wake-up lost to a race.
const POLL: Duration = Duration::from_millis(50);

/// Self-connects [`Shared::begin_shutdown`] tries before giving up on
/// waking the acceptor (each failure is counted and backs off).
const WAKE_ATTEMPTS: u32 = 5;

/// Refused connections that may wait for the refuser at once (beyond it
/// they are dropped unanswered), and that it keeps open at once (beyond
/// it the oldest is closed early).
const MAX_REFUSED: usize = 64;

/// How long a refused socket is kept open for the client to read its
/// refusal and hang up.
const LINGER: Duration = Duration::from_millis(250);

/// How often the refuser looks at its lingering sockets.
const LINGER_TICK: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// Prediction worker threads (minimum 1).
    pub workers: usize,
    /// Bounded prediction-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// LRU response-cache capacity, entries.
    pub cache_capacity: usize,
    /// Maximum predict requests coalesced into one worker batch.
    pub batch_max: usize,
    /// Cap on the per-request `delay_ms` load-testing knob, milliseconds.
    pub max_delay_ms: u64,
    /// Default end-to-end request deadline, milliseconds; also derives
    /// the socket read/write timeouts and the header-read deadline.
    pub request_timeout_ms: u64,
    /// Maximum concurrently handled connections; beyond it new
    /// connections are shed with `503`.
    pub max_inflight: usize,
    /// Consecutive prediction failures that open a model's breaker.
    pub breaker_threshold: u32,
    /// Requests served while a breaker is open before it half-opens.
    pub breaker_window: u32,
    /// How often the re-probe thread asks the registry to retry
    /// quarantined and pending artifacts, milliseconds.
    pub reprobe_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_owned(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            batch_max: 8,
            max_delay_ms: 2_000,
            request_timeout_ms: 5_000,
            max_inflight: 256,
            breaker_threshold: 3,
            breaker_window: 8,
            reprobe_interval_ms: 250,
        }
    }
}

impl ServerConfig {
    /// Socket read/write timeout, derived from the request timeout so a
    /// single blocking socket operation can never outlive the request
    /// budget by more than one timeout.
    fn socket_timeout(&self) -> Duration {
        Duration::from_millis(self.request_timeout_ms.clamp(MIN_DEADLINE_MS, 600_000))
    }

    /// Header-read deadline: the full request must arrive within this
    /// budget (slow-loris defense). Short even when the request timeout
    /// is generous — reading headers is never the slow part.
    fn header_deadline(&self) -> Duration {
        Duration::from_millis(self.request_timeout_ms.clamp(MIN_DEADLINE_MS, 2_000))
    }

    /// The deadline applied to requests that do not send
    /// `x-sms-deadline-ms`, clamped like the header itself.
    fn default_deadline_ms(&self) -> u64 {
        self.request_timeout_ms
            .clamp(MIN_DEADLINE_MS, MAX_DEADLINE_MS)
    }
}

/// One queued prediction: the parsed request plus the connection to
/// answer on.
struct Job {
    stream: TcpStream,
    request: PredictRequest,
    key: String,
    received: Instant,
    /// Absolute deadline; once passed the job is answered `504`.
    deadline: Instant,
}

/// An admitted connection awaiting a handler.
struct Conn {
    stream: TcpStream,
    /// When `accept()` returned it: every deadline counts from here.
    accepted: Instant,
}

/// A cache miss a handler has validated: a [`Job`] but for the
/// connection, which the handler still holds.
struct Miss {
    request: PredictRequest,
    key: String,
    deadline: Instant,
}

/// A refused connection and the `503` to write on it.
struct Refusal {
    stream: TcpStream,
    response: Response,
}

struct Shared {
    registry: ModelRegistry,
    /// Cache misses awaiting a prediction worker.
    queue: BoundedQueue<Job>,
    /// Admitted connections awaiting a handler.
    conns: BoundedQueue<Conn>,
    /// Refused connections awaiting the refuser.
    refusals: BoundedQueue<Refusal>,
    cache: Mutex<LruCache>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Drain stage one: the acceptor is gone, so nothing more is pushed
    /// onto `conns` or `refusals`.
    acceptor_done: AtomicBool,
    /// Drain stage two: every handler is gone, so nothing more is pushed
    /// onto `queue`.
    handlers_done: AtomicBool,
    breakers: Mutex<BTreeMap<String, CircuitBreaker>>,
    /// Connections admitted and not yet answered or queued for a worker.
    inflight: AtomicUsize,
    /// Where a connection reaches the listener from this host.
    wake_addr: SocketAddr,
    config: ServerConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor is parked in `accept()`: hand it a connection so it
        // returns, sees the flag and starts the drain. A failed wake-up
        // (no descriptor or port left) is retried, and counted like an
        // accept failure so it is never silent — unless a client's
        // connection woke the acceptor first and the listener is gone.
        let mut backoff = ACCEPT_BACKOFF_MIN;
        for _ in 0..WAKE_ATTEMPTS {
            match TcpStream::connect_timeout(&self.wake_addr, ACCEPT_BACKOFF_MAX) {
                Ok(_) => return,
                Err(_) if self.acceptor_done.load(Ordering::SeqCst) => return,
                Err(e) => {
                    note_accept_error(self, &format!("shutdown wake-up: {e}"));
                    thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Route a predict job through the model's breaker, creating the
    /// breaker on first use.
    fn breaker_route(&self, model: &str) -> Route {
        let transition;
        let route;
        {
            let mut breakers = lock(&self.breakers);
            let breaker = breakers.entry(model.to_owned()).or_insert_with(|| {
                CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_window)
            });
            (route, transition) = breaker.route();
        }
        if let Some(state) = transition {
            self.note_breaker_transition(model, state.as_label());
        }
        route
    }

    /// Report a primary/trial outcome to the model's breaker.
    fn breaker_report(&self, model: &str, ok: bool) {
        let transition = {
            let mut breakers = lock(&self.breakers);
            breakers
                .get_mut(model)
                .and_then(|b| if ok { b.on_success() } else { b.on_failure() })
        };
        if let Some(state) = transition {
            self.note_breaker_transition(model, state.as_label());
        }
    }

    fn note_breaker_transition(&self, model: &str, to: &str) {
        self.metrics.record_breaker_transition(to);
        eprintln!("sms-serve: model {model:?} circuit breaker -> {to}");
    }
}

/// A cloneable handle that triggers graceful shutdown, for wiring into
/// CLI stdin watchers or other out-of-band stop signals.
#[derive(Clone)]
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Request graceful shutdown: stop accepting, drain the queue, exit.
    pub fn trigger(&self) {
        self.shared.begin_shutdown();
    }
}

impl std::fmt::Debug for ShutdownTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownTrigger").finish()
    }
}

/// A running server: its bound address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl ServerHandle {
    /// The actually-bound socket address (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics collectors (shared with the serving threads).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Number of models the server is answering for.
    pub fn model_count(&self) -> usize {
        self.shared.registry.len()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// A cloneable out-of-band shutdown trigger.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Request graceful shutdown without waiting for it to finish.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until every serving thread has exited. Returns only after a
    /// shutdown request (from [`ServerHandle::begin_shutdown`], a
    /// [`ShutdownTrigger`], or `POST /shutdown`) has been observed, every
    /// connection accepted before it answered, and the queue drained.
    pub fn join(self) {
        for t in self.threads {
            // sms-lint: allow(C3): bounded — shutdown wakes the acceptor, whose
            let _ = t.join(); // drain is bounded; workers re-check their flag each POLL
        }
    }

    /// [`ServerHandle::begin_shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.begin_shutdown();
        // sms-lint: allow(C3): delegates to the bounded join() above
        self.join();
    }
}

/// Bind, spawn the worker pool, the acceptor and its two helpers (refuser,
/// re-prober), and return immediately. Connection handlers are spawned by
/// the acceptor as connections need them.
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn serve(registry: ModelRegistry, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // An unspecified bind address (`0.0.0.0`, `::`) is not connectable
    // everywhere; the loopback address of the same family always is.
    let wake_ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        registry,
        queue: BoundedQueue::new(config.queue_capacity),
        conns: BoundedQueue::new(config.max_inflight),
        refusals: BoundedQueue::new(MAX_REFUSED),
        cache: Mutex::new(LruCache::new(config.cache_capacity)),
        metrics: ServerMetrics::new(),
        shutdown: AtomicBool::new(false),
        acceptor_done: AtomicBool::new(false),
        handlers_done: AtomicBool::new(false),
        breakers: Mutex::new(BTreeMap::new()),
        inflight: AtomicUsize::new(0),
        wake_addr: SocketAddr::new(wake_ip, addr.port()),
        config,
    });

    let spawn = |name: String, body: fn(&Arc<Shared>)| {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(name)
            .spawn(move || body(&shared))
    };
    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        threads.push(spawn(format!("sms-serve-worker-{i}"), worker_loop)?);
    }
    let refuser = spawn("sms-serve-refuser".to_owned(), refuser_loop)?;
    let reprober = spawn("sms-serve-reprobe".to_owned(), reprobe_loop)?;
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("sms-serve-acceptor".to_owned())
                .spawn(move || acceptor_thread(listener, &shared, refuser, reprober))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// The acceptor's whole life: accept until shutdown, then run the ordered
/// drain — release the handlers and both helpers, close the listener,
/// wait for every handler to finish its connections, release the workers.
fn acceptor_thread(
    listener: TcpListener,
    shared: &Arc<Shared>,
    refuser: JoinHandle<()>,
    reprober: JoinHandle<()>,
) {
    let mut handlers = Vec::new();
    // The drain must run however the loop ends (an injected `serve.accept`
    // panic included), or `join()` would wait on handlers nobody released.
    let looped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        accept_loop(&listener, shared, &mut handlers);
    }));
    if looped.is_err() {
        note_accept_error(shared, "the acceptor panicked; draining");
    }
    // Flag first: a wake-up that finds the listener closed must also find
    // the reason.
    shared.acceptor_done.store(true, Ordering::SeqCst);
    drop(listener);
    shared.conns.notify_all();
    shared.refusals.notify_all();
    reprober.thread().unpark();
    for thread in handlers.into_iter().chain([refuser, reprober]) {
        // sms-lint: allow(C3): bounded — past `acceptor_done` a handler lasts one
        let _ = thread.join(); // connection, the refuser one LINGER, the re-prober one probe
    }
    shared.handlers_done.store(true, Ordering::SeqCst);
    shared.queue.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, handlers: &mut Vec<JoinHandle<()>>) {
    let mut error_backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let accepted = listener.accept();
        // Whatever arrives once the flag is set — the wake-up connection
        // or a late client — is dropped unanswered and uncounted.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn = Conn {
                    stream,
                    accepted: Instant::now(),
                };
                error_backoff = ACCEPT_BACKOFF_MIN;
                // `serve.accept` failpoint: an injected error refuses the
                // connection politely (the client still gets a response)
                // and counts like a real accept-path failure.
                if let Err(e) = sms_faults::check("serve.accept") {
                    let why = e.to_string();
                    note_accept_error(shared, &why);
                    refuse(shared, conn.stream, &why);
                    continue;
                }
                admit(shared, handlers, conn);
            }
            Err(e) => {
                // Real accept() failures (fd exhaustion, interface down)
                // back off exponentially so a persistent fault cannot
                // spin the acceptor, and reset on the next success.
                note_accept_error(shared, &e.to_string());
                thread::sleep(error_backoff);
                error_backoff = (error_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// Count one accept-path failure, warning once so a flood stays
/// observable without flooding stderr.
fn note_accept_error(shared: &Shared, detail: &str) {
    shared.metrics.record_accept_error();
    if shared.metrics.accept_errors() == 1 {
        eprintln!(
            "sms-serve: accept failed ({detail}); further failures are \
             counted in sms_serve_accept_errors_total"
        );
    }
}

/// Queue an accepted connection for a handler, shedding with `503` when
/// [`ServerConfig::max_inflight`] is reached — a slow client can pin at
/// most one handler, never the acceptor.
fn admit(shared: &Arc<Shared>, handlers: &mut Vec<JoinHandle<()>>, conn: Conn) {
    // Only this thread increments the level, so it cannot pass the bound
    // between the check and the increment.
    if shared.inflight.load(Ordering::SeqCst) >= shared.config.max_inflight.max(1) {
        shared.metrics.record_shed();
        refuse(shared, conn.stream, "too many connections; retry shortly");
        return;
    }
    let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    shared.metrics.add_inflight(1);
    // In-flight connections are queued or being handled, handlers are
    // idle or handling: more of the former means this connection would
    // wait for a busy handler, so the pool grows by one.
    if inflight > handlers.len() {
        let shared_for_handler = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name(format!("sms-serve-conn-{}", handlers.len()))
            .spawn(move || handler_loop(&shared_for_handler));
        match spawned {
            Ok(handler) => handlers.push(handler),
            // Thread exhaustion: the connection waits for a handler
            // already running; count it like an accept failure.
            Err(e) => note_accept_error(shared, &format!("spawn failed: {e}")),
        }
    }
    if handlers.is_empty() || shared.conns.try_push(conn).is_err() {
        // Nobody to hand the connection to (the bound above keeps the
        // queue from ever being the reason): dropping it resets the client.
        connection_done(shared);
    }
}

/// One admitted connection was answered, is about to be queued for a
/// worker, or was dropped.
fn connection_done(shared: &Shared) {
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    shared.metrics.add_inflight(-1);
}

/// Hand a connection that will not be served to the refuser, which
/// answers it `503` + `retry-after` off this thread.
fn refuse(shared: &Shared, stream: TcpStream, why: &str) {
    let response = Response::error(503, why).with_header("retry-after", "1");
    if shared
        .refusals
        .try_push(Refusal { stream, response })
        .is_err()
    {
        // The refuser is a full backlog behind: this client gets a reset.
        note_write_error(shared, "refusal backlog is full");
    }
}

/// Panic isolation for the pooled threads: a panicking connection or
/// batch (poisoned artifact, injected fault) must not take its handler or
/// worker down — its connections are dropped, the panic counted, and the
/// thread moves on to the next one.
fn shielded(shared: &Shared, what: &str, body: impl FnOnce()) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
        shared.metrics.record_worker_panic();
        eprintln!("sms-serve: {what} panicked; dropping its connections and continuing");
    }
}

/// Reused connection handler: serve admitted connections until the
/// acceptor is gone and none is left.
fn handler_loop(shared: &Arc<Shared>) {
    loop {
        match shared.conns.pop_timeout(POLL) {
            Some(Conn {
                mut stream,
                accepted,
            }) => {
                let mut miss = None;
                shielded(shared, "connection handler", || {
                    miss = handle_connection(shared, &mut stream, accepted);
                });
                // Counted out before the client can learn the outcome — it
                // acts on the close, or on a worker's answer — so that its
                // next connection never finds this handler still counted
                // busy: the pool grows with the load, not with a race.
                connection_done(shared);
                match miss {
                    Some(miss) => enqueue(shared, stream, miss),
                    None => drop(stream),
                }
            }
            None => {
                if shared.acceptor_done.load(Ordering::SeqCst) && shared.conns.is_empty() {
                    break;
                }
            }
        }
    }
}

/// Answers refused connections and closes them gracefully, so that
/// neither costs the acceptor anything. Closing with unread bytes in the
/// receive buffer makes the kernel send RST, which can destroy the
/// refusal in flight; instead the refuser sends FIN and keeps draining
/// what the client sends until it hangs up or [`LINGER`] passes. The
/// sockets are non-blocking and swept together, so a client that neither
/// sends nor closes delays nobody else's refusal.
fn refuser_loop(shared: &Arc<Shared>) {
    let mut lingering: Vec<(TcpStream, Instant)> = Vec::new();
    loop {
        let tick = if lingering.is_empty() {
            POLL
        } else {
            LINGER_TICK
        };
        match shared.refusals.pop_timeout(tick) {
            Some(Refusal {
                mut stream,
                response,
            }) => {
                // A refusal fits any fresh send buffer, so the
                // non-blocking write completes or fails at once.
                let written = stream
                    .set_nonblocking(true)
                    .and_then(|()| response.write_to(&mut stream))
                    .and_then(|()| stream.shutdown(Shutdown::Write));
                match written {
                    Ok(()) => {
                        if lingering.len() >= MAX_REFUSED {
                            lingering.remove(0);
                        }
                        lingering.push((stream, Instant::now() + LINGER));
                    }
                    Err(e) => note_write_error(shared, &e.to_string()),
                }
            }
            None => {
                if lingering.is_empty()
                    && shared.acceptor_done.load(Ordering::SeqCst)
                    && shared.refusals.is_empty()
                {
                    break;
                }
            }
        }
        let now = Instant::now();
        lingering.retain_mut(|(stream, until)| now < *until && client_still_open(stream));
    }
}

/// Discard what a refused client has sent so far (bounded per sweep);
/// `false` once it hung up or the socket failed.
fn client_still_open(stream: &mut TcpStream) -> bool {
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
    true
}

/// Registry self-healing: quarantined and transiently-failed artifacts
/// get a re-probe every [`ServerConfig::reprobe_interval_ms`], and their
/// totals are mirrored into the exported counters. On a thread of its
/// own because a probe loads files and sleeps through back-offs; the
/// acceptor unparks it for the drain.
fn reprobe_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.reprobe_interval_ms.max(10));
    while !shared.acceptor_done.load(Ordering::SeqCst) {
        if shared.registry.maybe_reprobe(interval) {
            let stats = shared.registry.stats();
            shared
                .metrics
                .sync_artifact_health(stats.quarantined_total, stats.absolved_total);
        }
        thread::park_timeout(interval);
    }
}

/// Write a response back to the client. Failures (typically a client
/// that hung up before reading its answer) are counted in
/// `sms_serve_write_errors_total` and logged once, so a flood of
/// half-closed connections stays observable without flooding stderr.
fn respond(shared: &Shared, stream: &mut TcpStream, response: &Response) {
    if let Err(e) = response.write_to(stream) {
        note_write_error(shared, &e.to_string());
    }
}

fn note_write_error(shared: &Shared, detail: &str) {
    shared.metrics.record_write_error();
    if shared.metrics.write_errors() == 1 {
        eprintln!(
            "sms-serve: failed to write a response ({detail}); further failures \
             are counted in sms_serve_write_errors_total"
        );
    }
}

/// Best-effort socket tuning: the read/write timeouts derive from the
/// configured request timeout so one blocking socket operation cannot
/// outlive the request budget by more than one timeout. A socket that
/// rejects the knobs still serves requests correctly.
fn tune_stream(stream: &TcpStream, config: &ServerConfig) {
    let timeout = config.socket_timeout();
    let _ = stream.set_read_timeout(Some(timeout)); // sms-lint: allow(E2): best-effort socket tuning
    let _ = stream.set_write_timeout(Some(timeout)); // sms-lint: allow(E2): best-effort socket tuning
    let _ = stream.set_nodelay(true); // sms-lint: allow(E2): best-effort socket tuning
}

/// Read one request and answer it, unless it is a `/predict` cache miss:
/// that is handed back for the caller to queue once the connection is
/// counted out.
fn handle_connection(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    accepted: Instant,
) -> Option<Miss> {
    tune_stream(stream, &shared.config);

    let header_deadline = accepted + shared.config.header_deadline();
    let parsed = read_request_before(&mut BufReader::new(&*stream), Some(header_deadline));
    let request = match parsed {
        Ok(r) => r,
        Err(HttpError::Closed) => return None,
        Err(HttpError::DeadlineExceeded) => {
            shared.metrics.record_deadline_exceeded("header");
            respond(
                shared,
                stream,
                &Response::error(504, "request was not received before its read deadline")
                    .with_header("x-sms-deadline-stage", "header"),
            );
            return None;
        }
        Err(HttpError::BodyTooLarge(_)) => {
            shared.metrics.record_bad_request();
            respond(
                shared,
                stream,
                &Response::error(413, "request body too large"),
            );
            return None;
        }
        Err(HttpError::Malformed(what)) => {
            shared.metrics.record_bad_request();
            respond(shared, stream, &Response::error(400, what));
            return None;
        }
        Err(HttpError::Io(_)) => return None,
    };

    shared.metrics.record_request();
    // `serve.route` failpoint: an injected fault between parse and
    // dispatch answers 503 (retryable) instead of hanging the client.
    if let Err(e) = sms_faults::check("serve.route") {
        respond(
            shared,
            stream,
            &Response::error(503, &e.to_string()).with_header("retry-after", "1"),
        );
        return None;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            shared.metrics.record_healthz();
            let body = serde_json::json!({
                "models": shared.registry.len(),
                "status": if shared.shutdown.load(Ordering::SeqCst) { "shutting-down" } else { "ok" },
            });
            respond(shared, stream, &Response::json(200, body.to_string()));
        }
        ("GET", "/models") => {
            shared.metrics.record_models();
            let response = ModelsResponse {
                models: shared.registry.infos(),
            };
            match to_canonical_json(&response) {
                Ok(body) => respond(shared, stream, &Response::json(200, body)),
                Err(_) => respond(shared, stream, &Response::error(500, "encoding failed")),
            }
        }
        ("GET", "/metrics") => {
            shared.metrics.record_metrics();
            let stats = shared.registry.stats();
            shared
                .metrics
                .sync_artifact_health(stats.quarantined_total, stats.absolved_total);
            let body = shared.metrics.prometheus_text(shared.queue.len());
            respond(
                shared,
                stream,
                &Response::text(200, "text/plain; version=0.0.4", body),
            );
        }
        ("GET", "/metrics.json") => {
            shared.metrics.record_metrics();
            let stats = shared.registry.stats();
            shared
                .metrics
                .sync_artifact_health(stats.quarantined_total, stats.absolved_total);
            let snapshot = shared.metrics.snapshot(shared.queue.len());
            match to_canonical_json(&snapshot) {
                Ok(body) => respond(shared, stream, &Response::json(200, body)),
                Err(_) => respond(shared, stream, &Response::error(500, "encoding failed")),
            }
        }
        ("POST", "/shutdown") => {
            // Answer before flipping the flag: the process may exit as
            // soon as the serving threads observe shutdown, and the
            // client deserves its acknowledgement first.
            respond(
                shared,
                stream,
                &Response::json(200, r#"{"status":"shutting-down"}"#.to_owned()),
            );
            shared.begin_shutdown();
        }
        ("POST", "/predict") => return handle_predict(shared, stream, &request, accepted),
        (_, "/healthz" | "/models" | "/metrics" | "/metrics.json" | "/shutdown" | "/predict") => {
            shared.metrics.record_bad_request();
            respond(shared, stream, &Response::error(405, "method not allowed"));
        }
        _ => {
            shared.metrics.record_bad_request();
            respond(shared, stream, &Response::error(404, "no such endpoint"));
        }
    }
    None
}

/// Validate a `/predict` request and answer it from the cache; a miss is
/// handed back for the prediction queue.
fn handle_predict(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    request: &Request,
    accepted: Instant,
) -> Option<Miss> {
    shared.metrics.record_predict();
    let deadline_ms = match request.header("x-sms-deadline-ms") {
        None => shared.config.default_deadline_ms(),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => ms.clamp(MIN_DEADLINE_MS, MAX_DEADLINE_MS),
            Err(_) => {
                shared.metrics.record_bad_request();
                respond(
                    shared,
                    stream,
                    &Response::error(400, "unparseable x-sms-deadline-ms header"),
                );
                return None;
            }
        },
    };
    let deadline = accepted + Duration::from_millis(deadline_ms);

    let predict: PredictRequest = match serde_json::from_slice(&request.body) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.record_bad_request();
            respond(
                shared,
                stream,
                &Response::error(400, &format!("invalid predict body: {e}")),
            );
            return None;
        }
    };

    // Validate eagerly on the handler thread so bad requests never
    // occupy queue slots, and so worker-side prediction cannot fail for
    // request-shaped reasons.
    let Some(artifact) = shared.registry.get(&predict.model) else {
        shared.metrics.record_bad_request();
        respond(
            shared,
            stream,
            &Response::error(404, &format!("unknown model {:?}", predict.model)),
        );
        return None;
    };
    if predict.mix.is_empty() {
        shared.metrics.record_bad_request();
        respond(shared, stream, &Response::error(400, "empty mix"));
        return None;
    }
    if let Some(unknown) = predict
        .mix
        .iter()
        .find(|name| !artifact.payload.ss_table.contains_key(*name))
    {
        shared.metrics.record_bad_request();
        respond(
            shared,
            stream,
            &Response::error(
                400,
                &format!("benchmark {unknown:?} is not in model {:?}", predict.model),
            ),
        );
        return None;
    }
    if let Some(cores) = predict.target_cores {
        if cores == 0 || cores > 4096 {
            shared.metrics.record_bad_request();
            respond(
                shared,
                stream,
                &Response::error(400, &format!("target_cores {cores} out of range")),
            );
            return None;
        }
    }

    let key = predict.cache_key();
    let cached = lock(&shared.cache).get(&key);
    if let Some(body) = cached {
        shared.metrics.record_cache_hit();
        respond(
            shared,
            stream,
            &Response::json(200, body).with_header("x-cache", "hit"),
        );
        return None;
    }

    if Instant::now() > deadline {
        shared.metrics.record_deadline_exceeded("queue");
        respond(shared, stream, &deadline_response("queue"));
        return None;
    }
    Some(Miss {
        request: predict,
        key,
        deadline,
    })
}

/// Queue a validated cache miss for the workers, shedding it with `503`
/// when the queue is full.
fn enqueue(shared: &Shared, stream: TcpStream, miss: Miss) {
    let job = Job {
        stream,
        request: miss.request,
        key: miss.key,
        received: Instant::now(),
        deadline: miss.deadline,
    };
    match shared.queue.try_push(job) {
        Ok(_depth) => shared.metrics.record_cache_miss(),
        Err(job) => {
            // Load shedding: the queue hands the job (and its connection)
            // back so the refusal can be written on it.
            shared.metrics.record_shed();
            let mut stream = job.stream;
            respond(
                shared,
                &mut stream,
                &Response::error(503, "prediction queue is full; retry shortly")
                    .with_header("retry-after", "1"),
            );
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match shared.queue.pop_timeout(POLL) {
            Some(job) => {
                let model = job.request.model.clone();
                let mut batch = vec![job];
                let extra = shared.queue.drain_matching(
                    |j| j.request.model == model,
                    shared.config.batch_max.saturating_sub(1),
                );
                shared.metrics.record_batched(extra.len() as u64);
                batch.extend(extra);
                shielded(shared, "worker batch", || process_batch(shared, batch));
            }
            None => {
                // Only once the handlers are gone can nothing more arrive:
                // a handler still reading its request at shutdown queues
                // its job afterwards, and that job is owed an answer.
                if shared.handlers_done.load(Ordering::SeqCst) && shared.queue.is_empty() {
                    break;
                }
            }
        }
    }
}

/// The `504` answered when `stage`'s deadline expired.
fn deadline_response(stage: &str) -> Response {
    Response::error(504, "deadline expired before the prediction completed")
        .with_header("x-sms-deadline-stage", stage)
}

fn process_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    // `serve.worker` failpoint: an injected error fails the whole batch
    // with 500s (clients see a typed error, the worker survives); an
    // injected panic exercises `shielded` in `worker_loop`.
    if let Err(e) = sms_faults::check("serve.worker") {
        for job in batch {
            let mut stream = job.stream;
            respond(shared, &mut stream, &Response::error(500, &e.to_string()));
        }
        return;
    }
    let model = batch[0].request.model.clone();
    let artifact = shared.registry.get(&model);
    // Jobs whose deadline expired while queued are answered 504 before
    // the batch charges its latency; they never touch the breaker.
    let (batch, expired): (Vec<Job>, Vec<Job>) = batch
        .into_iter()
        .partition(|j| Instant::now() <= j.deadline);
    for job in expired {
        shared.metrics.record_deadline_exceeded("queue");
        finish_job(shared, job, deadline_response("queue"));
    }
    if batch.is_empty() {
        return;
    }
    // The load-testing latency knob is charged once per batch (the
    // batching win: coalesced requests share the "model latency"), using
    // the batch's largest requested delay, capped by the server.
    let delay_ms = batch
        .iter()
        .filter_map(|j| j.request.delay_ms)
        .max()
        .unwrap_or(0)
        .min(shared.config.max_delay_ms);
    if delay_ms > 0 {
        thread::sleep(Duration::from_millis(delay_ms));
    }
    for job in batch {
        let Some(artifact) = artifact.as_deref() else {
            finish_job(
                shared,
                job,
                Response::error(404, "model vanished from the registry"),
            );
            continue;
        };
        let response = match shared.breaker_route(&model) {
            Route::Primary | Route::Trial => {
                // `serve.predict` failpoint: injected errors count as
                // prediction failures — they feed the breaker and the
                // client gets the analytic fallback, not a hang.
                match sms_faults::check("serve.predict") {
                    Err(_) => {
                        shared.breaker_report(&model, false);
                        degraded_response(shared, artifact, &job)
                    }
                    Ok(()) => {
                        match artifact.predict_mix(&job.request.mix, job.request.target_cores) {
                            Ok(prediction) => {
                                if Instant::now() > job.deadline {
                                    // A timeout is a failure from the
                                    // breaker's point of view.
                                    shared.breaker_report(&model, false);
                                    shared.metrics.record_deadline_exceeded("predict");
                                    deadline_response("predict")
                                } else {
                                    shared.breaker_report(&model, true);
                                    let body = PredictResponse {
                                        model: job.request.model.clone(),
                                        degraded: false,
                                        prediction,
                                    };
                                    match to_canonical_json(&body) {
                                        Ok(text) => {
                                            lock(&shared.cache).put(job.key.clone(), text.clone());
                                            Response::json(200, text).with_header("x-cache", "miss")
                                        }
                                        Err(_) => Response::error(500, "encoding failed"),
                                    }
                                }
                            }
                            // Request-shaped failure: the client's fault, not
                            // the model's — no breaker effect.
                            Err(e) => Response::error(400, &e.to_string()),
                        }
                    }
                }
            }
            Route::Fallback => degraded_response(shared, artifact, &job),
        };
        finish_job(shared, job, response);
    }
}

/// Serve the analytic fallback for a job whose primary prediction is
/// unavailable (breaker open, or a just-failed attempt). Degraded bodies
/// are marked `"degraded": true` + `x-sms-degraded: 1` and are never
/// cached, so post-recovery responses are bit-identical to a fault-free
/// server's. Only when even the fallback fails is the request shed with
/// `503`.
fn degraded_response(shared: &Shared, artifact: &ModelArtifact, job: &Job) -> Response {
    match artifact.analytic_mix_estimate(&job.request.mix, job.request.target_cores) {
        Ok(prediction) => {
            if Instant::now() > job.deadline {
                shared.metrics.record_deadline_exceeded("predict");
                return deadline_response("predict");
            }
            shared.metrics.record_degraded();
            let body = PredictResponse {
                model: job.request.model.clone(),
                degraded: true,
                prediction,
            };
            match to_canonical_json(&body) {
                Ok(text) => Response::json(200, text).with_header("x-sms-degraded", "1"),
                Err(_) => Response::error(500, "encoding failed"),
            }
        }
        Err(e) => Response::error(
            503,
            &format!("prediction temporarily unavailable ({e}); retry shortly"),
        )
        .with_header("retry-after", "1"),
    }
}

/// Record a worker-answered job's wall latency and write its response.
fn finish_job(shared: &Shared, job: Job, response: Response) {
    shared
        .metrics
        .record_latency(job.received.elapsed().as_secs_f64());
    let mut stream = job.stream;
    respond(shared, &mut stream, &response);
}
