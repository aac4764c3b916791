//! Smoke tests for the experiment harness pieces that need no simulation.

// Test/bench/example target: the workspace-wide clippy::unwrap_used deny
// is meant for library code (see Cargo.toml); unwrapping here is fine.
#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use sms_bench::ctx::Report;
use sms_bench::table::{pct, render, times};

/// Env-var mutation is process-global; serialize the tests that do it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn table1_runs_without_simulation() {
    // table1 is pure configuration; drive it through a throwaway context
    // rooted in a temp dir so no repository state is touched.
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("sms-smoke-{}", std::process::id()));
    std::env::set_var("SMS_RESULTS", &dir);
    let mut ctx = sms_bench::Ctx::from_env();
    std::env::remove_var("SMS_RESULTS");

    let report = sms_bench::experiments::table1::run(&mut ctx).unwrap();
    assert_eq!(report.id, "table1");
    assert!(report.body.contains("32 MB: 32 slices"));
    assert!(report.body.contains("MC-first"));
    assert!(report.body.contains("MB-first"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_emit_writes_figure_file() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("sms-emit-{}", std::process::id()));
    std::env::set_var("SMS_RESULTS", &dir);
    let ctx = sms_bench::Ctx::from_env();
    std::env::remove_var("SMS_RESULTS");

    let report = Report {
        id: "smoke",
        title: "smoke test",
        body: "hello\n".into(),
    };
    report.emit(&ctx);
    let written = std::fs::read_to_string(dir.join("figures/smoke.txt")).unwrap();
    assert!(written.contains("hello"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiment_ids_are_unique_and_match_the_committed_figures() {
    let mut ids: Vec<&str> = sms_bench::experiments::ALL
        .iter()
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    assert!(
        ids.windows(2).all(|w| w[0] != w[1]),
        "duplicate id: {ids:?}"
    );

    let figures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/figures");
    let mut stems: Vec<String> = std::fs::read_dir(&figures)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
        .collect();
    stems.sort_unstable();
    assert_eq!(ids, stems);
}

#[test]
fn unknown_experiment_id_exits_2_naming_the_valid_ids() {
    // The id check comes before the context is built, so this touches
    // no results directory.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(["fig4", "fig04"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the error");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`fig04`"), "{err}");
    for (id, _) in sms_bench::experiments::ALL {
        assert!(err.contains(id), "error does not list `{id}`: {err}");
    }
}

#[test]
fn table_rendering_is_stable() {
    let t = render(
        &["a", "bb"],
        &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
    );
    let lines: Vec<&str> = t.lines().collect();
    assert_eq!(lines.len(), 4);
    // All rows share the header's width.
    assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    assert_eq!(pct(0.123), "12.3%");
    assert_eq!(times(2.0), "2.0x");
}

#[test]
fn env_knobs_are_honored() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("sms-env-{}", std::process::id()));
    std::env::set_var("SMS_RESULTS", &dir);
    std::env::set_var("SMS_BUDGET", "12345");
    std::env::set_var("SMS_SEED", "7");
    let ctx = sms_bench::Ctx::from_env();
    std::env::remove_var("SMS_RESULTS");
    std::env::remove_var("SMS_BUDGET");
    std::env::remove_var("SMS_SEED");

    assert_eq!(ctx.cfg.spec.measure_instructions, 12345);
    assert_eq!(ctx.cfg.seed, 7);
    let _ = std::fs::remove_dir_all(&dir);
}
