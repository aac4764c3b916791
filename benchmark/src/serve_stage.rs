//! The serve stage: in-process `sms_serve::serve` over a trained artifact,
//! closed loop, two client threads with one request in flight each and a
//! new connection per request (the server closes after one). Closed loop
//! because the callers — `sms predict`, explorers, scripts — wait for each
//! reply. Layer: `serve` (and `core` underneath a miss).

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sms_core::artifact::to_canonical_json;
use sms_core::ModelArtifact;
use sms_serve::http::{read_request, Response};
use sms_serve::{
    serve, BoundedQueue, LruCache, MetricsSnapshot, ModelRegistry, PredictRequest, PredictResponse,
    ServerConfig, ServerHandle,
};

use crate::inputs::{prewarmed_mix, request_body, request_mix, Phase};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{p50, tail_percentile, time_batched, time_median};

/// Client threads: the closed loop's concurrency.
const CLIENTS: u64 = 2;

/// A client gives up on a reply after this long and counts a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A booted server and what the clients need to talk to it.
pub struct Server {
    handle: ServerHandle,
    addr: SocketAddr,
    artifact: ModelArtifact,
    /// Benchmarks the artifact can answer for, in table order.
    names: Vec<String>,
    seed: u64,
    prewarmed: usize,
}

/// What came back for one request.
struct Reply {
    status: u16,
    x_cache: Option<String>,
    body: String,
    connect_s: f64,
    /// Connect to first byte of the response.
    first_byte_s: f64,
    /// Connect to last byte: the latency a caller sees.
    total_s: f64,
}

fn request(
    addr: SocketAddr,
    body: &str,
    rec: &Recorder,
    parent: Option<u32>,
    op: u64,
) -> std::io::Result<Reply> {
    let _request = rec.span_under(parent, "serve", "request", op);
    let t0 = Instant::now();
    let mut stream = {
        let _s = rec.span("serve", "TcpStream::connect", op);
        TcpStream::connect(addr)?
    };
    let connect_s = t0.elapsed().as_secs_f64();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    {
        let _s = rec.span("serve", "write_request", op);
        let head = format!(
            "POST /predict HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
    }
    let mut raw = Vec::with_capacity(2048);
    let first_byte_s = {
        let _s = rec.span("serve", "wait_first_byte", op);
        let mut first = [0u8; 1];
        stream.read_exact(&mut first)?;
        raw.push(first[0]);
        t0.elapsed().as_secs_f64()
    };
    {
        let _s = rec.span("serve", "read_response", op);
        stream.read_to_end(&mut raw)?;
    }
    let total_s = t0.elapsed().as_secs_f64();

    let text = String::from_utf8(raw).map_err(|e| std::io::Error::other(e.to_string()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response has no status"))?;
    let x_cache = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("x-cache"))
        .map(|(_, v)| v.trim().to_owned());
    Ok(Reply {
        status,
        x_cache,
        body: body.to_owned(),
        connect_s,
        first_byte_s,
        total_s,
    })
}

impl Server {
    /// Save the artifact into a registry directory, open the registry,
    /// boot the server on an ephemeral port and put the pre-warmed mixes
    /// in its LRU: the part of set-up that belongs to this stage.
    pub fn boot(
        artifact: &ModelArtifact,
        registry_dir: &Path,
        seed: u64,
        prewarmed: usize,
    ) -> Result<Server, String> {
        artifact
            .save_in(registry_dir)
            .map_err(|e| format!("save artifact into the registry: {e}"))?;
        let registry =
            ModelRegistry::open(registry_dir).map_err(|e| format!("open registry: {e}"))?;
        let loaded = registry
            .get(&artifact.name)
            .ok_or("the registry did not load the artifact")?;
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..ServerConfig::default()
        };
        let handle = serve(registry, config).map_err(|e| format!("serve: {e}"))?;
        let server = Server {
            addr: handle.addr(),
            handle,
            names: loaded.payload.ss_table.keys().cloned().collect(),
            artifact: (*loaded).clone(),
            seed,
            prewarmed,
        };
        server.prewarm()?;
        Ok(server)
    }

    /// Put the pre-warmed mixes in the LRU (again). Miss traffic evicts
    /// them — the LRU holds 256 bodies and a miss phase writes thousands —
    /// so a hit phase that follows one needs them put back first.
    pub fn prewarm(&self) -> Result<(), String> {
        let off = Recorder::new(false);
        for k in 0..self.prewarmed {
            let mix = prewarmed_mix(&self.names, self.seed, k);
            let body = request_body(&self.artifact.name, &mix);
            let reply = request(self.addr, &body, &off, None, 0)
                .map_err(|e| format!("pre-warm request {k}: {e}"))?;
            if reply.status != 200 {
                return Err(format!("pre-warm request {k} answered {}", reply.status));
            }
        }
        Ok(())
    }

    pub fn shutdown(self) {
        self.handle.shutdown_and_join();
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.handle.metrics().snapshot(0)
    }

    /// The body the server must answer `mix` with: the canonical JSON of
    /// the directly computed response.
    fn expected_body(&self, mix: &[String]) -> Result<String, String> {
        let prediction = self
            .artifact
            .predict_mix(mix, None)
            .map_err(|e| format!("direct predict_mix: {e}"))?;
        to_canonical_json(&PredictResponse {
            model: self.artifact.name.clone(),
            degraded: false,
            prediction,
        })
        .map_err(|e| format!("encode: {e}"))
    }
}

/// What the client threads measured in one phase.
#[derive(Default)]
pub struct Samples {
    /// Per completed-and-correct request, milliseconds.
    pub latency_ms: Vec<f64>,
    pub first_byte_ms: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// One traffic phase, as the clients and the server's counters saw it.
pub struct PhaseOutcome {
    pub seconds: f64,
    pub samples: Samples,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// Run `phase` for `seconds`. `lane` separates the request streams of
/// different phases run with the same seed (warm-up, untraced, traced), so
/// that a later miss phase never repeats an earlier one's mixes.
pub fn run_phase(
    server: &Server,
    phase: Phase,
    lane: u64,
    seconds: f64,
    rec: &Arc<Recorder>,
) -> PhaseOutcome {
    let before = server.snapshot();
    let root = rec.span("benchmark", "serve_phase", lane);
    let parent = root.id();
    let expect_cache = match phase {
        Phase::Miss => "miss",
        Phase::Hit => "hit",
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Samples> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let rec = Arc::clone(rec);
                scope.spawn(move || {
                    let mut out = Samples::default();
                    let stream = lane * CLIENTS + client;
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let op = stream << 32 | i;
                        let mix = request_mix(
                            &server.names,
                            server.seed,
                            phase,
                            server.prewarmed,
                            stream,
                            i,
                        );
                        let body = request_body(&server.artifact.name, &mix);
                        i += 1;
                        out.attempted += 1;
                        let reply = request(server.addr, &body, &rec, parent, op);
                        let verdict = reply.map_err(|e| format!("i/o: {e}")).and_then(|r| {
                            let _v = rec.span_under(parent, "benchmark", "verify_reply", op);
                            if r.status != 200 {
                                return Err(format!("status {}: {}", r.status, r.body));
                            }
                            if r.x_cache.as_deref() != Some(expect_cache) {
                                return Err(format!(
                                    "x-cache {:?}, expected {expect_cache}",
                                    r.x_cache
                                ));
                            }
                            if r.body != server.expected_body(&mix)? {
                                return Err(
                                    "body differs from the directly computed one".to_owned()
                                );
                            }
                            Ok(r)
                        });
                        match verdict {
                            Ok(r) => {
                                out.latency_ms.push(r.total_s * 1e3);
                                out.first_byte_ms.push(r.first_byte_s * 1e3);
                                out.connect_us.push(r.connect_s * 1e6);
                            }
                            Err(why) => {
                                if out.failed < 3 {
                                    eprintln!("serve {phase:?} request {op:#x} failed: {why}");
                                }
                                out.failed += 1;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    drop(root);
    let mut samples = Samples::default();
    for c in per_client {
        samples.latency_ms.extend(c.latency_ms);
        samples.first_byte_ms.extend(c.first_byte_ms);
        samples.connect_us.extend(c.connect_us);
        samples.attempted += c.attempted;
        samples.failed += c.failed;
    }
    PhaseOutcome {
        seconds,
        samples,
        before,
        after: server.snapshot(),
    }
}

impl PhaseOutcome {
    fn ok(&self) -> usize {
        self.samples.latency_ms.len()
    }
}

/// A hit phase then a miss phase, each 45 % of `seconds`; the warm-up
/// before them takes the other tenth. Hit first, while the LRU still holds
/// the pre-warmed mixes (see [`Server::prewarm`]).
pub fn phases(
    server: &Server,
    lane: u64,
    seconds: f64,
    rec: &Arc<Recorder>,
) -> (PhaseOutcome, PhaseOutcome) {
    let each = seconds * 0.45;
    let hit = run_phase(server, Phase::Hit, lane, each, rec);
    let miss = run_phase(server, Phase::Miss, lane, each, rec);
    (miss, hit)
}

/// The untimed warm-up before the first phase: a tenth of `seconds` of
/// hit traffic on a lane of its own. The miss path is already warm: the
/// pre-warming requests of set-up went through it.
pub fn warm_up(server: &Server, seconds: f64) -> PhaseOutcome {
    let off = Arc::new(Recorder::new(false));
    run_phase(server, Phase::Hit, WARM_UP_LANE, seconds * 0.1, &off)
}

const WARM_UP_LANE: u64 = 1000;

fn count(report: &mut Report, p: &PhaseOutcome) {
    report.attempted += p.samples.attempted;
    report.failed += p.samples.failed;
}

/// The server refused, degraded or dropped nothing.
fn verify_counters(report: &mut Report, s: &MetricsSnapshot) {
    let deadline: u64 = s.deadline_exceeded.values().sum();
    report.check(
        "serve.nothing_shed_degraded_expired_or_unwritten",
        s.shed_total == 0 && s.degraded_total == 0 && deadline == 0 && s.write_errors == 0,
        format!(
            "shed {} degraded {} deadline_exceeded {deadline} write_errors {}",
            s.shed_total, s.degraded_total, s.write_errors
        ),
    );
}

/// End-to-end numbers of untraced phases.
pub fn end_to_end(report: &mut Report, miss: &PhaseOutcome, hit: &PhaseOutcome) {
    count(report, miss);
    count(report, hit);
    verify_counters(report, &miss.after);
    if miss.ok() == 0 || hit.ok() == 0 {
        report.check(
            "serve.requests_completed",
            false,
            "a phase completed no request",
        );
        return;
    }
    report.set("rate", miss.ok() as f64 / miss.seconds, miss.ok());
    report.set("rate_alt", hit.ok() as f64 / hit.seconds, hit.ok());
    report.set("op_ms", p50(&miss.samples.latency_ms), miss.ok());
    report.set("op_alt_ms", p50(&hit.samples.latency_ms), hit.ok());
}

/// Direct calls on in-memory buffers: parse, write, key, LRU, queue.
fn micro(report: &mut Report, server: &Server, iters: usize, rec: &Recorder) {
    let _root = rec.span("benchmark", "micro_timings", 0);
    let mix = prewarmed_mix(&server.names, server.seed, 0);
    let body = request_body(&server.artifact.name, &mix);
    let wire = format!(
        "POST /predict HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    {
        let _s = rec.span("serve", "http::read_request", 0);
        let parse = || read_request(&mut BufReader::new(wire.as_bytes())).map(|r| r.body.len());
        report.set(
            "serve.http_parse_us",
            time_batched(iters, 16, parse) * 1e6,
            iters,
        );
    }
    let answer = server.expected_body(&mix).unwrap_or_default();
    {
        let _s = rec.span("serve", "Response::write_to", 0);
        let mut sink = Vec::with_capacity(4096);
        let write = || {
            sink.clear();
            Response::json(200, answer.clone())
                .with_header("x-cache", "miss")
                .write_to(&mut sink)
        };
        report.set(
            "serve.http_write_us",
            time_batched(iters, 16, write) * 1e6,
            iters,
        );
    }
    let parsed: PredictRequest =
        serde_json::from_str(&body).expect("the body this module wrote parses");
    {
        let _s = rec.span("serve", "PredictRequest::cache_key", 0);
        let key = || parsed.cache_key();
        report.set(
            "serve.cache_key_us",
            time_batched(iters, 16, key) * 1e6,
            iters,
        );
    }
    {
        let _s = rec.span("serve", "LruCache", 0);
        let capacity = ServerConfig::default().cache_capacity;
        let mut lru = LruCache::new(capacity);
        let keys: Vec<String> = (0..capacity)
            .map(|k| format!("{}#{k}", parsed.cache_key()))
            .collect();
        for k in &keys {
            lru.put(k.clone(), answer.clone());
        }
        let mut at = 0;
        let get = || {
            at = (at + 7) % keys.len();
            lru.get(&keys[at]).map(|v| v.len())
        };
        report.set(
            "serve.lru_get_ns",
            time_batched(iters, 64, get) * 1e9,
            iters,
        );
        let mut fresh = 0u64;
        let put = || {
            fresh += 1;
            lru.put(format!("fresh#{fresh}"), answer.clone());
        };
        report.set(
            "serve.lru_put_ns",
            time_batched(iters, 64, put) * 1e9,
            iters,
        );
    }
    {
        let _s = rec.span("serve", "BoundedQueue", 0);
        let queue = BoundedQueue::new(ServerConfig::default().queue_capacity);
        let push_pop = || {
            let _ = queue.try_push(1u64);
            queue.pop_timeout(Duration::ZERO)
        };
        report.set(
            "serve.queue_push_pop_ns",
            time_batched(iters, 64, push_pop) * 1e9,
            iters,
        );
    }
    {
        // On the served artifact, so that it explains this server's
        // worker time rather than another model's.
        let _s = rec.span("core", "ModelArtifact::predict_mix", 0);
        let predict = || server.artifact.predict_mix(&mix, None);
        report.set(
            "core.predict_mix_us",
            time_median(iters, predict) * 1e6,
            iters,
        );
    }
}

/// The traced pass: untraced miss and hit phases for reference, the same
/// with the span recorder on, then the direct-call timings. Fills every
/// `serve.*` metric; returns the tracing overhead (traced over untraced
/// miss median, minus one).
pub fn per_layer(
    report: &mut Report,
    server: &Server,
    seconds: f64,
    micro_iters: usize,
    rec: &Arc<Recorder>,
) -> Option<f64> {
    let off = Arc::new(Recorder::new(false));
    let (miss, hit) = phases(server, 1, seconds / 2.0, &off);
    if let Err(why) = server.prewarm() {
        report.check("serve.prewarm_before_traced_pass", false, why);
        return None;
    }
    let (traced_miss, traced_hit) = phases(server, 2, seconds / 2.0, rec);
    for p in [&miss, &hit, &traced_miss, &traced_hit] {
        count(report, p);
    }
    let end = &traced_miss.after;
    verify_counters(report, end);
    if [&miss, &hit, &traced_miss, &traced_hit]
        .iter()
        .any(|p| p.ok() == 0)
    {
        report.check(
            "serve.requests_completed",
            false,
            "a phase completed no request",
        );
        return None;
    }

    report.set("serve.ttfb_ms", p50(&miss.samples.first_byte_ms), miss.ok());
    report.set("serve.connect_us", p50(&miss.samples.connect_us), miss.ok());
    let (which, tail) = tail_percentile(&miss.samples.latency_ms);
    report.set("serve.miss_p99_ms", tail, miss.ok());
    report.note(
        "serve.miss_p99_ms.percentile",
        format!(
            "p{which} of {} samples (highest with ten samples beyond it)",
            miss.ok()
        ),
    );
    // The worker's latency window only ever holds misses: hits are
    // answered on the connection thread and never reach a worker.
    let worker = miss.after.latency_seconds.as_ref();
    let worker_p50_ms = worker.map_or(0.0, |w| w.p50 * 1e3);
    report.set(
        "serve.worker_p50_ms",
        worker_p50_ms,
        miss.after.cache_misses as usize,
    );
    report.set(
        "serve.worker_p99_ms",
        worker.map_or(0.0, |w| w.p99 * 1e3),
        miss.after.cache_misses as usize,
    );
    let hits = hit.after.cache_hits - hit.before.cache_hits;
    let stray_misses = hit.after.cache_misses - hit.before.cache_misses;
    report.set("serve.cache_hits", hits as f64, hit.ok());
    report.set(
        "serve.cache_misses",
        (miss.after.cache_misses - miss.before.cache_misses) as f64,
        miss.ok(),
    );
    report.set(
        "serve.cache_hit_rate",
        hits as f64 / (hits + stray_misses).max(1) as f64,
        hit.ok(),
    );
    report.set("serve.batched_requests", end.batched_requests as f64, 1);
    report.set("serve.shed_total", end.shed_total as f64, 1);
    report.set(
        "serve.deadline_exceeded",
        end.deadline_exceeded.values().sum::<u64>() as f64,
        1,
    );
    report.set("serve.degraded_total", end.degraded_total as f64, 1);
    report.set("serve.write_errors", end.write_errors as f64, 1);
    // What a miss waited before a worker had it: accept poll, thread
    // spawn, parse — client median minus the worker's own median.
    report.set(
        "serve.accept_wait_ms",
        p50(&miss.samples.latency_ms) - worker_p50_ms,
        miss.ok(),
    );

    micro(report, server, micro_iters, rec);
    Some(p50(&traced_miss.samples.latency_ms) / p50(&miss.samples.latency_ms) - 1.0)
}
