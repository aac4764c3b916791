//! Chaos tests for the serving tier: boot the real `sms serve` binary
//! under deterministic `SMS_FAULTS` injection and prove the resilience
//! story end to end — every client gets a typed response (200, degraded
//! 200, 503, or 504) within its deadline, nothing hangs, the metrics
//! account for every degraded/504/503 answer, and after the injected
//! failures stop the circuit breaker recovers to predictions that are
//! bit-identical to a fault-free server's.

// Test/bench/example target: the workspace-wide clippy::unwrap_used deny
// is meant for library code (see Cargo.toml); unwrapping here is fine.
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sms-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The `sms` binary with a clean fault environment (tests add their own).
fn sms() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_sms"));
    c.env_remove("SMS_FAULTS");
    c
}

/// Train one small artifact named `chaos` into `results/cache/models/`.
fn train(results: &Path) {
    let out = sms()
        .args([
            "train",
            "--bench",
            "leela_r,xz_r,gcc_r",
            "--target-cores",
            "8",
            "--budget",
            "20000",
            "--name",
            "chaos",
            "--save",
            "--results",
            results.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// A running `sms serve` subprocess: bound address, captured stderr, and
/// a kill-on-drop guard so failed assertions never leak server processes.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Arc<Mutex<String>>,
    drainer: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot `sms serve` on an ephemeral port, with `faults` installed as
    /// `SMS_FAULTS` when given, and wait until it announces its address.
    fn boot(results: &Path, faults: Option<&str>) -> Self {
        let mut cmd = sms();
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--results",
            results.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        if let Some(spec) = faults {
            cmd.env("SMS_FAULTS", spec);
        }
        let mut child = cmd.spawn().unwrap();

        // Drain stderr continuously (the pipe must never fill) and fish
        // the bound address out of the startup announcement.
        let pipe = child.stderr.take().unwrap();
        let stderr = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stderr);
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let drainer = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    if let Ok(addr) = addr.parse() {
                        let _ = tx.send(addr);
                    }
                }
                let mut text = sink.lock().unwrap();
                text.push_str(&line);
                text.push('\n');
            }
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server announced its address within 60s");
        Self {
            child,
            addr,
            stderr,
            drainer: Some(drainer),
        }
    }

    /// `POST /shutdown`, wait for a clean exit, and return the process's
    /// full stderr.
    fn shutdown(mut self) -> String {
        let bye = http(self.addr, "POST", "/shutdown", &[], "");
        assert_eq!(bye.status, 200, "{}", bye.body);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server did not exit within 30s of /shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        if let Some(d) = self.drainer.take() {
            let _ = d.join();
        }
        self.stderr.lock().unwrap().clone()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
    elapsed: Duration,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn degraded(&self) -> bool {
        self.header("x-sms-degraded") == Some("1")
    }

    fn json(&self) -> serde_json::Value {
        serde_json::from_str(&self.body)
            .unwrap_or_else(|e| panic!("bad JSON body ({e}): {}", self.body))
    }
}

/// Minimal HTTP/1.1 client: one request (with extra headers), read until
/// the server closes the connection.
fn http(addr: SocketAddr, method: &str, path: &str, extra: &[(&str, &str)], body: &str) -> Reply {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nhost: chaos\r\n");
    for (name, value) in extra {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes()).unwrap();
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
        elapsed: start.elapsed(),
    }
}

fn predict_body(mix: &[&str], delay_ms: u64) -> String {
    serde_json::json!({
        "model": "chaos",
        "mix": mix,
        "target_cores": 8,
        "delay_ms": delay_ms,
    })
    .to_string()
}

fn metrics_json(addr: SocketAddr) -> serde_json::Value {
    let reply = http(addr, "GET", "/metrics.json", &[], "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply.json()
}

/// Concurrent clients against a faulted server: every request is answered
/// within its budget with a typed status, nothing hangs, and the server's
/// own counters agree exactly with what the clients observed.
#[test]
fn faulted_serving_is_bounded_and_fully_accounted() {
    let results = tmp("bounded");
    train(&results);
    // The 3rd accepted connection and the 2nd routed request are refused
    // with 503; ~30% of predictions fail (seeded, so the sequence is
    // reproducible) and are served by the analytic fallback instead.
    let server = Server::boot(
        &results,
        Some("serve.accept=err@3;serve.route=err@2;serve.predict=err@30%;seed=7"),
    );
    let addr = server.addr;

    // Phase A: four clients, five requests each, generous deadline.
    let mixes: [&[&str]; 5] = [
        &["leela_r"],
        &["xz_r", "gcc_r"],
        &["gcc_r", "gcc_r", "leela_r"],
        &["xz_r"],
        &["leela_r", "xz_r", "gcc_r", "leela_r"],
    ];
    let mut clients = Vec::new();
    for _ in 0..4 {
        clients.push(std::thread::spawn(move || {
            let mut replies = Vec::new();
            for mix in mixes {
                replies.push(http(
                    addr,
                    "POST",
                    "/predict",
                    &[("x-sms-deadline-ms", "2000")],
                    &predict_body(mix, 0),
                ));
            }
            replies
        }));
    }
    let mut replies: Vec<Reply> = Vec::new();
    for c in clients {
        replies.extend(c.join().unwrap()); // no hangs: every thread returns
    }

    // Phase B: a deterministic deadline miss — the simulated model
    // latency (500ms) overruns a 100ms deadline on every possible path
    // (primary, fallback, or an injected failure), so the answer must be
    // a 504 attributed to the predict stage.
    let late = http(
        addr,
        "POST",
        "/predict",
        &[("x-sms-deadline-ms", "100")],
        &predict_body(&["leela_r", "gcc_r", "xz_r"], 500),
    );
    assert_eq!(late.status, 504, "{}", late.body);
    assert_eq!(late.header("x-sms-deadline-stage"), Some("predict"));
    replies.push(late);

    // Every reply is typed and bounded; tally what the clients saw.
    let (mut degraded, mut gateway_timeouts) = (0u64, 0u64);
    let (mut accept_refusals, mut route_refusals, mut sheds) = (0u64, 0u64, 0u64);
    for reply in &replies {
        assert!(
            reply.elapsed < Duration::from_secs(10),
            "reply took {:?}",
            reply.elapsed
        );
        match reply.status {
            200 => degraded += u64::from(reply.degraded()),
            503 if reply.body.contains("serve.accept") => accept_refusals += 1,
            503 if reply.body.contains("serve.route") => route_refusals += 1,
            503 => sheds += 1,
            504 => gateway_timeouts += 1,
            other => panic!("untyped status {other}: {}", reply.body),
        }
        if reply.degraded() {
            assert!(reply.body.contains("\"degraded\":true"), "{}", reply.body);
        }
    }
    assert_eq!(accept_refusals, 1, "serve.accept=err@3 fires exactly once");
    assert_eq!(route_refusals, 1, "serve.route=err@2 fires exactly once");

    // The server's books match the clients' exactly.
    let m = metrics_json(addr);
    assert_eq!(m["degraded_total"].as_u64().unwrap(), degraded);
    let deadline_sum: u64 = ["header", "queue", "predict"]
        .iter()
        .map(|s| m["deadline_exceeded"][*s].as_u64().unwrap())
        .sum();
    assert_eq!(deadline_sum, gateway_timeouts);
    assert_eq!(m["shed_total"].as_u64().unwrap(), sheds);
    assert_eq!(m["accept_errors"].as_u64().unwrap(), accept_refusals);
    assert_eq!(m["worker_panics"].as_u64().unwrap(), 0);
    // 21 predicts sent; the accept- and route-refused ones never reached
    // the predict handler.
    assert_eq!(m["predict_requests"].as_u64().unwrap(), 19);

    let stderr = server.shutdown();
    assert!(
        stderr.contains("sms-faults: injected"),
        "fault injections are announced:\n{stderr}"
    );
    assert!(
        stderr.contains("accept failed"),
        "accept failures warn once:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&results);
}

/// CI-matrix smoke: boot the server under whatever `SMS_FAULTS` the
/// harness environment carries (e.g. `artifact.load=err@50%` or
/// `serve.predict=delay:200`) and assert the invariants that must hold
/// under *any* schedule: the model eventually becomes available (the
/// self-healing registry retries and re-probes), every request gets a
/// typed answer within its budget, and the degraded/504 books balance.
/// With no ambient spec this degenerates to a fault-free smoke test.
#[test]
fn ambient_fault_schedule_keeps_the_server_available() {
    let ambient = std::env::var("SMS_FAULTS")
        .ok()
        .filter(|s| !s.trim().is_empty());
    let results = tmp("ambient");
    train(&results);
    let server = Server::boot(&results, ambient.as_deref());
    let addr = server.addr;

    // `artifact.load` faults can park the artifact past boot; the
    // re-probe thread must absolve it without a restart.
    let ready_by = Instant::now() + Duration::from_secs(30);
    loop {
        let health = http(addr, "GET", "/healthz", &[], "");
        if health.status == 200 && health.json()["models"] == 1 {
            break;
        }
        assert!(
            Instant::now() < ready_by,
            "model never became available: {} {}",
            health.status,
            health.body
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let mixes: [&[&str]; 3] = [&["leela_r"], &["xz_r", "gcc_r"], &["gcc_r", "leela_r"]];
    let (mut degraded, mut gateway_timeouts) = (0u64, 0u64);
    for i in 0..9 {
        let reply = http(
            addr,
            "POST",
            "/predict",
            &[("x-sms-deadline-ms", "3000")],
            &predict_body(mixes[i % mixes.len()], 0),
        );
        assert!(
            reply.elapsed < Duration::from_secs(10),
            "reply {i} took {:?}",
            reply.elapsed
        );
        match reply.status {
            200 => degraded += u64::from(reply.degraded()),
            503 | 504 => gateway_timeouts += u64::from(reply.status == 504),
            other => panic!("untyped status {other}: {}", reply.body),
        }
    }

    let m = metrics_json(addr);
    assert_eq!(m["degraded_total"].as_u64().unwrap(), degraded);
    let deadline_sum: u64 = ["header", "queue", "predict"]
        .iter()
        .map(|s| m["deadline_exceeded"][*s].as_u64().unwrap())
        .sum();
    assert_eq!(deadline_sum, gateway_timeouts);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

/// Deterministic breaker lifecycle: three injected failures trip the
/// breaker open, the open window serves analytic fallbacks, the half-open
/// trial heals it, and post-recovery predictions are bit-identical to a
/// fault-free server's.
#[test]
fn breaker_trips_heals_and_recovers_bit_identically() {
    let results = tmp("breaker");
    train(&results);
    let mix_a: &[&str] = &["leela_r", "xz_r"];
    let mix_b: &[&str] = &["gcc_r", "leela_r"];

    // Fault-free reference bodies for both mixes.
    let reference = Server::boot(&results, None);
    let ref_a = http(
        reference.addr,
        "POST",
        "/predict",
        &[],
        &predict_body(mix_a, 0),
    );
    let ref_b = http(
        reference.addr,
        "POST",
        "/predict",
        &[],
        &predict_body(mix_b, 0),
    );
    assert_eq!(ref_a.status, 200, "{}", ref_a.body);
    assert_eq!(ref_b.status, 200, "{}", ref_b.body);
    reference.shutdown();

    // Exactly the first three predictions fail: that is the default
    // breaker threshold, so the breaker trips open; the default open
    // window (8) then elapses request by request, and the half-open trial
    // succeeds because the faults are spent.
    let server = Server::boot(
        &results,
        Some("serve.predict=err@1;serve.predict=err@2;serve.predict=err@3"),
    );
    let addr = server.addr;

    // Requests 1-3: failures served by the fallback (degraded 200s).
    // Requests 4-10: breaker open, fallback without touching the model.
    for i in 1..=10 {
        let reply = http(addr, "POST", "/predict", &[], &predict_body(mix_a, 0));
        assert_eq!(reply.status, 200, "request {i}: {}", reply.body);
        assert!(reply.degraded(), "request {i} should be degraded");
        assert!(
            reply.body.contains("\"degraded\":true"),
            "request {i}: {}",
            reply.body
        );
    }

    // Request 11 is the half-open trial: it reaches the healthy model and
    // closes the breaker, and its body is bit-identical to the fault-free
    // reference (degraded responses were never cached).
    let trial = http(addr, "POST", "/predict", &[], &predict_body(mix_a, 0));
    assert_eq!(trial.status, 200, "{}", trial.body);
    assert!(!trial.degraded(), "trial must be a primary answer");
    assert_eq!(trial.header("x-cache"), Some("miss"));
    assert_eq!(trial.body, ref_a.body, "post-recovery answer differs");

    // A fresh mix after recovery is primary and bit-identical too.
    let fresh = http(addr, "POST", "/predict", &[], &predict_body(mix_b, 0));
    assert_eq!(fresh.status, 200, "{}", fresh.body);
    assert!(!fresh.degraded());
    assert_eq!(fresh.body, ref_b.body, "post-recovery answer differs");

    // The books: ten fallback answers, one transition through each state,
    // no deadline was ever exceeded.
    let m = metrics_json(addr);
    assert_eq!(m["degraded_total"].as_u64().unwrap(), 10);
    assert_eq!(m["breaker_transitions"]["open"].as_u64().unwrap(), 1);
    assert_eq!(m["breaker_transitions"]["half_open"].as_u64().unwrap(), 1);
    assert_eq!(m["breaker_transitions"]["closed"].as_u64().unwrap(), 1);
    for stage in ["header", "queue", "predict"] {
        assert_eq!(m["deadline_exceeded"][stage].as_u64().unwrap(), 0);
    }
    assert_eq!(m["worker_panics"].as_u64().unwrap(), 0);

    // Transitions are narrated on stderr, in lifecycle order.
    let stderr = server.shutdown();
    let open = stderr.find("circuit breaker -> open").expect("open logged");
    let half = stderr
        .find("circuit breaker -> half_open")
        .expect("half_open logged");
    let closed = stderr
        .find("circuit breaker -> closed")
        .expect("closed logged");
    assert!(
        open < half && half < closed,
        "out-of-order transitions:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&results);
}
