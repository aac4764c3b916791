//! End-to-end test of the prediction service over real TCP: train an
//! artifact, boot the server on an ephemeral port, and exercise every
//! endpoint with a plain `TcpStream` HTTP client — including cache hits,
//! micro-batching, load shedding, connection refusal, the header-read
//! deadline, the latency floor, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sms_core::artifact::{to_canonical_json, train_artifact, ModelArtifact};
use sms_core::pipeline::{DirectSim, ExperimentConfig};
use sms_core::predictor::{MlKind, ModelParams};
use sms_core::scaling::target_config;
use sms_ml::fit::CurveModel;
use sms_serve::{serve, ModelRegistry, PredictResponse, ServerConfig, ServerHandle};
use sms_sim::system::RunSpec;
use sms_workloads::spec::by_name;

const TRAINING: [&str; 4] = ["leela_r", "xz_r", "gcc_r", "roms_r"];

fn trained(name: &str) -> ModelArtifact {
    let cfg = ExperimentConfig {
        target: target_config(8),
        ms_cores: vec![2, 4],
        spec: RunSpec {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
        },
        ..ExperimentConfig::default()
    };
    let training: Vec<_> = TRAINING
        .iter()
        .map(|n| by_name(n).expect("known"))
        .collect();
    train_artifact(
        &mut DirectSim,
        cfg,
        &training,
        MlKind::Svm,
        CurveModel::Logarithmic,
        &ModelParams::default(),
        name,
    )
    .expect("training succeeds")
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> serde_json::Value {
        serde_json::from_str(&self.body)
            .unwrap_or_else(|e| panic!("bad JSON body ({e}): {}", self.body))
    }
}

/// Minimal HTTP/1.1 client: one request, read until the server closes.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    http_with_headers(addr, method, path, &[], body)
}

/// [`http`] with extra request headers (e.g. `x-sms-deadline-ms`).
fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> Reply {
    let mut stream = connect(addr);
    let mut request = format!("{method} {path} HTTP/1.1\r\nhost: e2e\r\n");
    for (name, value) in extra {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes()).unwrap();
    read_reply(&mut stream)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Read until the server closes, then split the response.
fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");

    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_owned()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_owned(),
    }
}

fn predict_body(model: &str, mix: &[&str], target_cores: u32, delay_ms: u64) -> String {
    serde_json::json!({
        "model": model,
        "mix": mix,
        "target_cores": target_cores,
        "delay_ms": delay_ms,
    })
    .to_string()
}

#[test]
fn all_endpoints_over_real_tcp() {
    let artifact = trained("e2e");
    let registry = ModelRegistry::in_memory();
    registry.insert(artifact.clone());
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // Liveness.
    let health = http(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.json()["status"], "ok");
    assert_eq!(health.json()["models"], 1);

    // Model catalog.
    let models = http(addr, "GET", "/models", "");
    assert_eq!(models.status, 200);
    let catalog = models.json();
    assert_eq!(catalog["models"][0]["name"], "e2e");
    assert_eq!(catalog["models"][0]["kind"], "SVM");
    assert_eq!(catalog["models"][0]["benchmarks"], TRAINING.len());

    // A prediction over the wire equals the in-process one exactly.
    let mix = ["leela_r", "xz_r"];
    let first = http(addr, "POST", "/predict", &predict_body("e2e", &mix, 8, 0));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let served = first.json();
    let mix_owned: Vec<String> = mix.iter().map(|s| (*s).to_owned()).collect();
    let local = artifact.predict_mix(&mix_owned, Some(8)).unwrap();
    for (i, expected) in local.per_core_ipc.iter().enumerate() {
        let got = served["per_core_ipc"][i].as_f64().unwrap();
        assert!(
            (got - expected).abs() <= 1e-12,
            "core {i}: served {got} vs local {expected}"
        );
    }
    assert!((served["stp"].as_f64().unwrap() - local.stp).abs() <= 1e-12);
    assert_eq!(served["model"], "e2e");

    // The identical request — even with reordered fields — is a cache hit
    // with an identical body.
    let reordered = r#"{"target_cores":8,"mix":["leela_r","xz_r"],"delay_ms":0,"model":"e2e"}"#;
    let second = http(addr, "POST", "/predict", reordered);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // Error paths.
    let unknown_model = http(addr, "POST", "/predict", &predict_body("nope", &mix, 8, 0));
    assert_eq!(unknown_model.status, 404);
    let unknown_bench = http(
        addr,
        "POST",
        "/predict",
        &predict_body("e2e", &["nope_r"], 8, 0),
    );
    assert_eq!(unknown_bench.status, 400);
    let empty_mix = http(addr, "POST", "/predict", r#"{"model":"e2e","mix":[]}"#);
    assert_eq!(empty_mix.status, 400);
    let bad_cores = http(addr, "POST", "/predict", &predict_body("e2e", &mix, 0, 0));
    assert_eq!(bad_cores.status, 400);
    let bad_json = http(addr, "POST", "/predict", "{not json");
    assert_eq!(bad_json.status, 400);
    let bad_path = http(addr, "GET", "/nope", "");
    assert_eq!(bad_path.status, 404);
    let bad_method = http(addr, "PUT", "/predict", "");
    assert_eq!(bad_method.status, 405);

    // Metrics reflect all of the above. `/metrics` speaks the Prometheus
    // text exposition format...
    let metrics = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(metrics
        .body
        .contains("# TYPE sms_serve_requests_total counter"));
    assert!(metrics.body.contains("# HELP sms_serve_requests_total"));
    assert!(metrics
        .body
        .contains(r#"sms_serve_endpoint_requests_total{endpoint="predict"} 7"#));
    assert!(metrics
        .body
        .contains(r#"sms_serve_cache_requests_total{result="hit"} 1"#));
    assert!(metrics
        .body
        .contains(r#"sms_serve_cache_requests_total{result="miss"} 1"#));
    assert!(metrics.body.contains("sms_serve_bad_requests_total 7"));
    assert!(metrics
        .body
        .contains("# TYPE sms_serve_predict_latency_micros histogram"));
    assert!(metrics
        .body
        .contains(r#"sms_serve_predict_latency_micros_bucket{le="+Inf"}"#));

    // ...while `/metrics.json` keeps the JSON snapshot contract.
    let metrics_json = http(addr, "GET", "/metrics.json", "");
    assert_eq!(metrics_json.status, 200);
    let m = metrics_json.json();
    assert!(m["requests_total"].as_u64().unwrap() >= 10);
    assert_eq!(m["predict_requests"].as_u64().unwrap(), 7);
    assert_eq!(m["cache_hits"].as_u64().unwrap(), 1);
    assert_eq!(m["cache_misses"].as_u64().unwrap(), 1);
    assert!((m["cache_hit_rate"].as_f64().unwrap() - 0.5).abs() < 1e-12);
    // Five malformed predicts plus the 404 path and the 405 method.
    assert_eq!(m["bad_requests"].as_u64().unwrap(), 7);
    assert_eq!(m["shed_total"].as_u64().unwrap(), 0);
    assert!(m["latency_seconds"]["p50"].as_f64().unwrap() >= 0.0);
    assert!(m["uptime_seconds"].as_f64().unwrap() >= 0.0);

    // Graceful shutdown over the wire; join() must return.
    let bye = http(addr, "POST", "/shutdown", "");
    assert_eq!(bye.status, 200);
    assert_eq!(bye.json()["status"], "shutting-down");
    handle.join();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let registry = ModelRegistry::in_memory();
    registry.insert(trained("shed"));
    // One worker, a one-slot queue, and no batching: the third in-flight
    // prediction must be shed.
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_capacity: 1,
            batch_max: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // Distinct mixes dodge the response cache; delay_ms holds the single
    // worker busy long enough to make the timeline deterministic.
    let bodies = [
        predict_body("shed", &["leela_r"], 8, 1_000),
        predict_body("shed", &["xz_r"], 8, 1_000),
        predict_body("shed", &["gcc_r"], 8, 1_000),
    ];
    let mut replies = Vec::new();
    let mut workers = Vec::new();
    for (i, body) in bodies.into_iter().enumerate() {
        workers.push(std::thread::spawn(move || {
            http(addr, "POST", "/predict", &body)
        }));
        // Stagger: r1 is being predicted, r2 queued, r3 shed.
        if i < 2 {
            std::thread::sleep(Duration::from_millis(250));
        }
    }
    for w in workers {
        replies.push(w.join().unwrap());
    }

    assert_eq!(replies[0].status, 200, "{}", replies[0].body);
    assert_eq!(replies[1].status, 200, "{}", replies[1].body);
    assert_eq!(replies[2].status, 503, "{}", replies[2].body);
    assert_eq!(replies[2].header("retry-after"), Some("1"));

    let m = http(addr, "GET", "/metrics.json", "").json();
    assert_eq!(m["shed_total"].as_u64().unwrap(), 1);
    assert_eq!(m["cache_misses"].as_u64().unwrap(), 2);
    handle.shutdown_and_join();
}

#[test]
fn deadline_header_bounds_a_slow_prediction_with_504() {
    let registry = ModelRegistry::in_memory();
    registry.insert(trained("deadline"));
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // A 400ms simulated model latency against a 50ms deadline: the
    // prediction finishes after the budget and must be answered 504,
    // attributed to the predict stage.
    let late = http_with_headers(
        addr,
        "POST",
        "/predict",
        &[("x-sms-deadline-ms", "50")],
        &predict_body("deadline", &["leela_r"], 8, 400),
    );
    assert_eq!(late.status, 504, "{}", late.body);
    assert_eq!(late.header("x-sms-deadline-stage"), Some("predict"));

    // A garbage deadline header is a client error, not a default.
    let garbage = http_with_headers(
        addr,
        "POST",
        "/predict",
        &[("x-sms-deadline-ms", "soon")],
        &predict_body("deadline", &["leela_r"], 8, 0),
    );
    assert_eq!(garbage.status, 400, "{}", garbage.body);

    // The same slow request under a generous deadline succeeds: the 504
    // above was the deadline's doing, not the request's.
    let relaxed = http_with_headers(
        addr,
        "POST",
        "/predict",
        &[("x-sms-deadline-ms", "30000")],
        &predict_body("deadline", &["leela_r"], 8, 400),
    );
    assert_eq!(relaxed.status, 200, "{}", relaxed.body);
    assert_eq!(relaxed.header("x-sms-degraded"), None);

    let m = http(addr, "GET", "/metrics.json", "").json();
    assert_eq!(m["deadline_exceeded"]["predict"].as_u64().unwrap(), 1);
    assert_eq!(m["deadline_exceeded"]["queue"].as_u64().unwrap(), 0);
    assert_eq!(m["deadline_exceeded"]["header"].as_u64().unwrap(), 0);
    handle.shutdown_and_join();
}

#[test]
fn same_model_requests_batch_behind_a_slow_one() {
    let registry = ModelRegistry::in_memory();
    registry.insert(trained("batch"));
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_capacity: 16,
            batch_max: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // A slow request occupies the only worker; three fast ones for the
    // same model pile up behind it and are answered as one batch.
    let blocker = std::thread::spawn(move || {
        http(
            addr,
            "POST",
            "/predict",
            &predict_body("batch", &["roms_r"], 8, 800),
        )
    });
    std::thread::sleep(Duration::from_millis(250));
    let mut followers = Vec::new();
    for mix in [["leela_r"], ["xz_r"], ["gcc_r"]] {
        let body = predict_body("batch", &mix, 8, 0);
        followers.push(std::thread::spawn(move || {
            http(addr, "POST", "/predict", &body)
        }));
    }
    assert_eq!(blocker.join().unwrap().status, 200);
    for f in followers {
        assert_eq!(f.join().unwrap().status, 200);
    }

    let m = http(addr, "GET", "/metrics.json", "").json();
    // The three followers were drained behind one dequeued job: two of
    // them (at least) rode along in its batch.
    assert!(
        m["batched_requests"].as_u64().unwrap() >= 2,
        "batched_requests = {}",
        m["batched_requests"]
    );
    assert_eq!(m["shed_total"].as_u64().unwrap(), 0);
    handle.shutdown_and_join();
}

fn boot(registry: ModelRegistry, config: ServerConfig) -> ServerHandle {
    serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..config
        },
    )
    .expect("server boots")
}

/// Poll the in-flight gauge until it reads `level`: the only way a client
/// can tell that the server has accepted (or let go of) its connection.
fn await_inflight(handle: &ServerHandle, level: u64) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while handle.metrics().snapshot(0).inflight_connections != level {
        assert!(
            Instant::now() < give_up,
            "inflight_connections never reached {level}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn graceful_drain_answers_a_request_accepted_before_shutdown() {
    let artifact = trained("drain");
    let registry = ModelRegistry::in_memory();
    registry.insert(artifact.clone());
    let handle = boot(registry, ServerConfig::default());

    // Half a request is on the wire and its connection accepted when
    // shutdown begins.
    let body = predict_body("drain", &["leela_r", "gcc_r"], 8, 0);
    let request = format!(
        "POST /predict HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let (first, rest) = request.split_at(request.len() / 2);
    let mut stream = connect(handle.addr());
    stream.write_all(first.as_bytes()).unwrap();
    await_inflight(&handle, 1);
    handle.begin_shutdown();
    let joiner = std::thread::spawn(move || handle.join());
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !joiner.is_finished(),
        "join() returned while an accepted connection was still unanswered"
    );

    // The rest arrives after every thread has seen the flag; the request
    // is still owed its answer, and join() waits for it.
    stream.write_all(rest.as_bytes()).unwrap();
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let mix = vec!["leela_r".to_owned(), "gcc_r".to_owned()];
    let expected = to_canonical_json(&PredictResponse {
        model: "drain".to_owned(),
        degraded: false,
        prediction: artifact.predict_mix(&mix, Some(8)).unwrap(),
    })
    .unwrap();
    assert_eq!(reply.body, expected);
    joiner.join().unwrap();
}

#[test]
fn refusals_never_block_the_acceptor() {
    let handle = boot(
        ModelRegistry::in_memory(),
        ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Two silent clients pin both connection slots.
    let pinned = [connect(addr), connect(addr)];
    await_inflight(&handle, 2);

    // Twenty more, just as silent and never hanging up: each is refused
    // at once, and none makes the next one wait out a lingering close.
    let started = Instant::now();
    let mut refused = Vec::new();
    for i in 0..20 {
        let mut stream = connect(addr);
        let reply = read_reply(&mut stream);
        assert_eq!(reply.status, 503, "connection {i}: {}", reply.body);
        assert_eq!(reply.header("retry-after"), Some("1"), "connection {i}");
        refused.push(stream);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "20 refusals took {took:?}: the acceptor waited on refused clients"
    );
    assert_eq!(handle.metrics().snapshot(0).shed_total, 20);

    // Once the slots are released the server serves again.
    drop(pinned);
    await_inflight(&handle, 0);
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    drop(refused);
    handle.shutdown_and_join();
}

#[test]
fn trickled_header_is_cut_off_with_504_and_pins_nobody_else() {
    // A 300 ms request timeout is also the header-read deadline and the
    // socket read timeout.
    let handle = boot(
        ModelRegistry::in_memory(),
        ServerConfig {
            request_timeout_ms: 300,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Half a header line, then a byte every 100 ms — each read succeeds
    // within the socket timeout, but the line completes past the deadline.
    let slow = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: e2e\r\nx-slow: ")
            .unwrap();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(100));
            stream.write_all(b"z").unwrap();
        }
        stream.write_all(b"\r\n\r\n").unwrap();
        read_reply(&mut stream)
    });

    // Meanwhile a well-formed request is answered promptly.
    std::thread::sleep(Duration::from_millis(150));
    let started = Instant::now();
    let health = http(addr, "GET", "/healthz", "");
    let took = started.elapsed();
    assert_eq!(health.status, 200);
    assert!(
        took < Duration::from_millis(100),
        "a concurrent request took {took:?} behind a slow client"
    );

    let cut_off = slow.join().unwrap();
    assert_eq!(cut_off.status, 504, "{}", cut_off.body);
    assert_eq!(cut_off.header("x-sms-deadline-stage"), Some("header"));
    let m = handle.metrics().snapshot(0);
    assert_eq!(m.deadline_exceeded["header"], 1);
    handle.shutdown_and_join();
}

#[test]
fn cache_hits_answer_in_under_two_milliseconds() {
    let registry = ModelRegistry::in_memory();
    registry.insert(trained("floor"));
    let handle = boot(registry, ServerConfig::default());
    let addr = handle.addr();

    let body = predict_body("floor", &["leela_r", "xz_r"], 8, 0);
    assert_eq!(http(addr, "POST", "/predict", &body).status, 200);
    let mut took: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let reply = http(addr, "POST", "/predict", &body);
            let took = started.elapsed();
            assert_eq!(reply.header("x-cache"), Some("hit"));
            took
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median cache hit took {median:?}: something on the path is waiting on a clock"
    );
    handle.shutdown_and_join();
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = serve(
            ModelRegistry::in_memory(),
            ServerConfig {
                addr: addr.to_owned(),
                ..ServerConfig::default()
            },
        )
        .expect("server boots");
        let started = Instant::now();
        handle.shutdown_and_join();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "an idle server bound to {addr} took {took:?} to shut down"
        );
    }
}
