//! Chaos tests for the crash-safe sweep pipeline: run the real `sms`
//! binary under deterministic `SMS_FAULTS` injection, kill it mid-plan,
//! and check that `sms resume` converges on a cache bit-identical to a
//! fault-free run, with `sms fsck` reporting zero defects.

// Test/bench/example target: the workspace-wide clippy::unwrap_used deny
// is meant for library code (see Cargo.toml); unwrapping here is fine.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sms-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The `sms` binary with a clean fault environment (tests add their own).
fn sms() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_sms"));
    c.env_remove("SMS_FAULTS")
        .env_remove("SMS_RUN_TIMEOUT_SECS")
        .env_remove("SMS_RETRIES");
    c
}

fn sweep_args(bench: &str, results: &Path, label: &str, threads: usize) -> Vec<String> {
    [
        "sweep",
        "--bench",
        bench,
        "--target-cores",
        "2",
        "--budget",
        "20000",
        "--results",
        results.to_str().unwrap(),
        "--label",
        label,
        "--threads",
        &threads.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "command failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

/// Top-level cache entries (`<hash>.json`) as name -> raw bytes.
fn cache_entries(cache_dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut m = BTreeMap::new();
    for e in std::fs::read_dir(cache_dir).unwrap().flatten() {
        let p = e.path();
        if p.is_file() && p.extension().is_some_and(|x| x == "json") {
            m.insert(
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            );
        }
    }
    m
}

fn summary_line(out: &str) -> &str {
    out.lines()
        .find(|l| l.contains(" runs ("))
        .unwrap_or_else(|| panic!("no summary line in: {out}"))
}

#[test]
fn killed_faulted_sweep_resumes_to_the_fault_free_cache() {
    let base = tmp("base");
    let faulted = tmp("fault");
    let bench = "leela_r,xz_r";

    // Fault-free baseline sweep.
    let (baseline, _) = run_ok(sms().args(sweep_args(bench, &base, "chaos", 2)));
    assert!(baseline.contains("0 quarantined"), "{baseline}");

    // The same sweep under seeded faults: every run body is delayed (a
    // kill window) and the second cache disk write is dropped.
    let mut child = sms()
        .args(sweep_args(bench, &faulted, "chaos", 1))
        .env("SMS_FAULTS", "cache.write=err@2;run.body=delay:250")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Kill it mid-plan: as soon as the journal records a finished run.
    let journal = faulted.join("cache/journal/chaos.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if Instant::now() > deadline || matches!(child.try_wait(), Ok(Some(_))) {
            break;
        }
        let runs = std::fs::read_to_string(&journal)
            .map(|t| t.matches("\"t\":\"run\"").count())
            .unwrap_or(0);
        if runs >= 1 {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.wait();

    // Resume without faults; the journal header rebuilds the plan.
    let (resumed, _) = run_ok(sms().args([
        "resume",
        "--label",
        "chaos",
        "--results",
        faulted.to_str().unwrap(),
    ]));
    assert!(resumed.contains("resuming sweep `chaos`"), "{resumed}");
    assert!(resumed.contains("0 quarantined"), "{resumed}");

    // The final cache is bit-identical to the fault-free run's.
    assert_eq!(
        cache_entries(&base.join("cache")),
        cache_entries(&faulted.join("cache")),
        "resumed cache differs from the fault-free cache"
    );

    // Nothing quarantined, and fsck is clean (a first pass may trim a
    // journal line torn by the kill; the second pass must be spotless).
    let (q, _) = run_ok(sms().args(["quarantine", "--results", faulted.to_str().unwrap()]));
    assert!(q.contains("no quarantined runs"), "{q}");
    run_ok(sms().args(["fsck", "--results", faulted.to_str().unwrap()]));
    let (clean, _) = run_ok(sms().args(["fsck", "--results", faulted.to_str().unwrap()]));
    assert!(clean.contains("0 defect(s)"), "{clean}");

    // PlanSummary equivalence: re-sweeping either cache serves every run
    // from cache with identical totals.
    let (again_base, _) = run_ok(sms().args(sweep_args(bench, &base, "chaos", 2)));
    let (again_faulted, _) = run_ok(sms().args(sweep_args(bench, &faulted, "chaos", 2)));
    assert_eq!(summary_line(&again_base), summary_line(&again_faulted));
    assert!(again_faulted.contains("4 cached"), "{again_faulted}");

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&faulted);
}

#[test]
fn faulted_sweep_injection_is_thread_count_independent() {
    let one = tmp("det1");
    let many = tmp("detn");
    let spec = "run.body=err@2";

    let run = |dir: &Path, threads: usize| {
        run_ok(
            sms()
                .args(sweep_args("leela_r,xz_r", dir, "det", threads))
                .env("SMS_FAULTS", spec),
        )
    };
    let (out1, err1) = run(&one, 1);
    let (outn, errn) = run(&many, 4);

    // Same injection announcements regardless of worker count.
    let injected = |stderr: &str| {
        stderr
            .lines()
            .filter(|l| l.contains("sms-faults: injected"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(injected(&err1).contains("run.body"), "{err1}");
    assert_eq!(injected(&err1), injected(&errn));

    // Same plan summary (the injected failure is retried to success) and
    // bit-identical final caches.
    assert_eq!(summary_line(&out1), summary_line(&outn));
    assert!(out1.contains("1 retries"), "{out1}");
    assert_eq!(
        cache_entries(&one.join("cache")),
        cache_entries(&many.join("cache"))
    );

    let _ = std::fs::remove_dir_all(&one);
    let _ = std::fs::remove_dir_all(&many);
}

#[test]
fn watchdog_quarantines_a_hung_run_and_resume_heals_it() {
    let dir = tmp("hang");

    // The first run body stalls for 6s against a 2s watchdog deadline:
    // it is quarantined as hung while the rest of the plan completes.
    let (out, _) = run_ok(
        sms()
            .args(sweep_args("leela_r,xz_r", &dir, "hang", 2))
            .env("SMS_FAULTS", "run.body=delay:6000@1")
            .env("SMS_RUN_TIMEOUT_SECS", "2"),
    );
    assert!(out.contains("1 quarantined"), "{out}");

    let (q, _) = run_ok(sms().args(["quarantine", "--results", dir.to_str().unwrap()]));
    assert!(q.contains("hung"), "{q}");

    // A fault-free resume re-simulates the hung run and absolves it.
    let (resumed, _) = run_ok(sms().args([
        "resume",
        "--label",
        "hang",
        "--results",
        dir.to_str().unwrap(),
    ]));
    assert!(resumed.contains("0 quarantined"), "{resumed}");
    let (q2, _) = run_ok(sms().args(["quarantine", "--results", dir.to_str().unwrap()]));
    assert!(q2.contains("no quarantined runs"), "{q2}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_sweep_flushes_its_manifest_exactly_once() {
    let dir = tmp("flush-once");

    // A second `manifest.flush` hit would fail: the sweep must not need
    // one, even with every observation on — the aggregate profile is in
    // the manifest's first and only write.
    let mut args = sweep_args("leela_r", &dir, "once", 1);
    args.extend(["--timelines", "--profile"].map(String::from));
    let (out, stderr) = run_ok(sms().args(args).env("SMS_FAULTS", "manifest.flush=err@2"));
    assert!(!out.contains("manifest: not written"), "{out}");
    assert!(!stderr.contains("cannot write manifest"), "{stderr}");
    let manifest = std::fs::read_to_string(dir.join("cache/manifests/once.json")).unwrap();
    assert!(manifest.contains("\"profile\""), "{manifest}");
    assert!(manifest.contains("sim.run"), "{manifest}");

    let _ = std::fs::remove_dir_all(&dir);
}
