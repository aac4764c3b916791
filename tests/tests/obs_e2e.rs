//! End-to-end observability checks: a tiny sweep run with span tracing
//! and timelines enabled must leave behind a valid Chrome trace, per-run
//! timeline files, and a manifest embedding the executor's metrics
//! registry; and a booted prediction server must answer `GET /metrics`
//! in the Prometheus text exposition format.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use sms_cli::{run, Args};
use sms_serve::{serve, ModelRegistry, ServerConfig};

fn cli(v: &[&str]) -> String {
    let raw: Vec<String> = v.iter().map(|s| (*s).to_owned()).collect();
    run(&Args::parse(&raw).expect("args parse")).expect("command succeeds")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sms-obs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn sweep_with_spans_and_timelines_leaves_full_observability_artifacts() {
    let results = tmpdir("sweep");
    let out = cli(&[
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
        "obs-e2e",
        "--timelines",
        "--spans",
    ]);
    assert!(out.contains("obs-e2e"), "{out}");

    // The Chrome trace parses, is non-empty, and contains the executor's
    // spans with microsecond timestamps.
    let trace_path = results.join("cache/traces/obs-e2e.json");
    assert!(trace_path.exists(), "trace not written: {out}");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert_eq!(trace["displayTimeUnit"], "ms");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace must record events");
    for e in events {
        assert!(e["name"].is_string());
        assert!(e["ph"].is_string());
        assert!(e["ts"].is_u64() || e["ts"].is_i64());
        assert_eq!(e["pid"], 1);
    }
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    assert!(names.contains(&"execute_plan"), "{names:?}");
    assert!(names.contains(&"run_one"), "{names:?}");

    // Every simulated run left a timeline with monotone epochs.
    let tl_dir = results.join("cache/timelines");
    let tl_files: Vec<PathBuf> = std::fs::read_dir(&tl_dir)
        .expect("timelines dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(tl_files.len(), 2, "one file per simulated run");
    let tl: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&tl_files[0]).unwrap()).unwrap();
    let samples = tl["timeline"]["samples"].as_array().unwrap();
    assert!(!samples.is_empty());
    let cycles: Vec<u64> = samples
        .iter()
        .map(|s| s["cycle"].as_u64().unwrap())
        .collect();
    assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");

    // And `sms timeline` renders the epochs.
    let rendered = cli(&["timeline", "--path", tl_files[0].to_str().unwrap()]);
    assert!(rendered.contains("epoch"), "{rendered}");
    assert!(rendered.contains("IPC"), "{rendered}");

    // The manifest embeds the executor's registry snapshot (since v3).
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(results.join("cache/manifests/obs-e2e.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(manifest["schema_version"], 4);
    let registry = manifest["registry"]
        .as_object()
        .expect("registry snapshot present");
    assert!(
        registry.contains_key("sms_bench_runs_total"),
        "{registry:?}"
    );
    let ok_runs: f64 = registry["sms_bench_runs_total"]["samples"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|s| s["labels"][0] == "ok")
        .map(|s| s["value"].as_f64().unwrap())
        .sum();
    assert_eq!(ok_runs, 2.0);

    sms_obs::tracer().set_enabled(false);
    let _ = std::fs::remove_dir_all(&results);
}

/// Minimal HTTP/1.1 client: one request, read until the server closes.
fn http_get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!("GET {path} HTTP/1.1\r\nhost: obs-e2e\r\ncontent-length: 0\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_owned()))
        .collect();
    (status, headers, body.to_owned())
}

#[test]
fn booted_server_scrapes_as_prometheus_text() {
    let handle = serve(
        ModelRegistry::in_memory(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // Generate a little traffic so counters are non-zero.
    let (health_status, _, _) = http_get(addr, "/healthz");
    assert_eq!(health_status, 200);
    let (miss_status, _, _) = http_get(addr, "/nope");
    assert_eq!(miss_status, 404);

    let (status, headers, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let content_type = headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map(|(_, v)| v.as_str());
    assert_eq!(content_type, Some("text/plain; version=0.0.4"));

    // Prometheus exposition format: HELP/TYPE headers and sample lines.
    assert!(body.contains("# HELP sms_serve_requests_total"), "{body}");
    assert!(
        body.contains("# TYPE sms_serve_requests_total counter"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE sms_serve_queue_depth gauge"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE sms_serve_predict_latency_micros histogram"),
        "{body}"
    );
    assert!(
        body.contains(r#"sms_serve_endpoint_requests_total{endpoint="healthz"} 1"#),
        "{body}"
    );
    assert!(body.contains("sms_serve_bad_requests_total 1"), "{body}");
    // Every non-comment line is `name[{labels}] value`.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty(), "{line}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable sample value in {line:?}"
        );
    }

    handle.shutdown_and_join();
}
