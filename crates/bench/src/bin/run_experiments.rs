//! Run every experiment in sequence, printing each report and writing it
//! under `results/figures/`.
//!
//! Usage: `cargo run --release -p sms-bench --bin run_experiments [ids...]`
//! with optional experiment ids (e.g. `fig4 fig5`) to run a subset; an id
//! that names no experiment exits 2 listing the valid ones.
//!
//! A failing experiment does not abort the batch: its error is reported
//! and the remaining experiments still run. The process exits nonzero if
//! any experiment failed.

use sms_bench::ctx::Ctx;
use sms_bench::experiments::ALL;
use sms_sim::error::SimError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| ALL.iter().all(|(id, _)| id != a)) {
        let valid: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: unknown experiment id `{unknown}`; valid ids: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    }
    let mut ctx = Ctx::from_env();
    eprintln!(
        "budget: {} instructions, threads: {}, results: {}",
        ctx.cfg.spec.measure_instructions,
        ctx.threads,
        ctx.results_dir.display()
    );

    let mut failures: Vec<(&str, SimError)> = Vec::new();
    for &(id, run) in ALL {
        if !args.is_empty() && !args.iter().any(|a| a == id) {
            continue;
        }
        match run(&mut ctx) {
            Ok(report) => report.emit(&ctx),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failures.push((id, e));
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("{} experiment(s) failed:", failures.len());
        for (id, e) in &failures {
            eprintln!("  {id}: {e}");
        }
        std::process::exit(1);
    }
}
