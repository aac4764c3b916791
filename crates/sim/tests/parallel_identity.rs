//! Bit-identity of parallel windowed simulation: for any `sim_threads`
//! setting, both the final [`SimResult`] and the per-epoch sample stream
//! must be indistinguishable from the sequential run — equal by value,
//! by `Debug` rendering, and (when a real serializer is available) byte
//! for byte as JSON.

// Test/bench/example target: the workspace-wide clippy::unwrap_used deny
// is meant for library code (see Cargo.toml); unwrapping here is fine.
#![allow(clippy::unwrap_used)]

use sms_sim::config::SystemConfig;
use sms_sim::system::{MulticoreSystem, RunSpec};
use sms_sim::trace::{InstructionSource, MicroOp, VecSource};
use sms_sim::{EpochSample, SimResult};

fn cfg(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::target_32core();
    cfg.num_cores = cores;
    cfg.llc.num_slices = cores.next_power_of_two();
    let cols = cores.next_power_of_two().min(8);
    cfg.noc.mesh_cols = cols;
    cfg.noc.mesh_rows = cores.next_power_of_two().div_ceil(cols).max(1);
    cfg.dram.num_controllers = (cores / 4).max(1).next_power_of_two();
    // A short quantum so the run crosses many fork/merge barriers.
    cfg.sync_quantum = 2_000;
    cfg
}

/// A deliberately heterogeneous per-core workload: each core gets a
/// different blend of strided loads, pointer-chasing loads, stores (for
/// writeback traffic), and compute runs, over address windows sized so
/// some cores are LLC-resident and others stream through DRAM.
fn mixed_source(core: u64) -> Box<dyn InstructionSource> {
    let span_lines = 1u64 << (8 + core % 5); // 256..4096 lines
    let span_bytes = span_lines * 64;
    let base = core * (1 << 30);
    let stride = 8 + 8 * (core % 3);
    let ops: Vec<MicroOp> = (0..span_lines * 4)
        .flat_map(|i| {
            let addr = base + (i * stride) % span_bytes;
            [
                MicroOp::Compute {
                    count: 1 + (core as u32 % 4),
                },
                if i % 7 == core % 7 {
                    MicroOp::Store { addr }
                } else {
                    MicroOp::Load {
                        addr,
                        dependent: i % 3 == 0,
                    }
                },
            ]
        })
        .collect();
    Box::new(VecSource::new(format!("mix{core}"), ops))
}

fn sources(cores: u32) -> Vec<Box<dyn InstructionSource>> {
    (0..u64::from(cores)).map(mixed_source).collect()
}

const SPEC: RunSpec = RunSpec {
    warmup_instructions: 4_000,
    measure_instructions: 60_000,
};

/// Run at the given thread count and return the result (wall-clock field
/// zeroed — host time legitimately differs per run) plus the epoch
/// stream (empty when `sampled` is false).
fn run_at(cores: u32, threads: u32, sampled: bool) -> (SimResult, Vec<EpochSample>) {
    let mut machine = cfg(cores);
    machine.sim_threads = threads;
    let mut sys = MulticoreSystem::new(machine, sources(cores)).unwrap();
    let mut samples = Vec::new();
    let mut r = sys
        .run_sampled(SPEC, sampled.then_some(&mut samples))
        .unwrap();
    r.host_seconds = 0.0;
    (r, samples)
}

/// Equality strong enough to call "bit-identical": structural, textual,
/// and — when the serializer is functional — serialized JSON bytes.
fn assert_identical(
    a: &(SimResult, Vec<EpochSample>),
    b: &(SimResult, Vec<EpochSample>),
    what: &str,
) {
    assert_eq!(a.0, b.0, "{what}: SimResult differs");
    assert_eq!(a.1, b.1, "{what}: epoch stream differs");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: Debug differs");
    if let (Ok(ja), Ok(jb)) = (serde_json::to_string(&a.0), serde_json::to_string(&b.0)) {
        assert_eq!(ja, jb, "{what}: serialized SimResult differs");
    }
    if let (Ok(ja), Ok(jb)) = (serde_json::to_string(&a.1), serde_json::to_string(&b.1)) {
        assert_eq!(ja, jb, "{what}: serialized epoch stream differs");
    }
}

#[test]
fn parallel_runs_are_bit_identical_with_sink() {
    let baseline = run_at(8, 1, true);
    assert!(
        baseline.1.len() > 3,
        "expected several epochs, got {}",
        baseline.1.len()
    );
    for threads in [2u32, 8] {
        let parallel = run_at(8, threads, true);
        assert_identical(&baseline, &parallel, &format!("{threads} threads, sampled"));
    }
}

#[test]
fn parallel_runs_are_bit_identical_without_sink() {
    let baseline = run_at(8, 1, false);
    for threads in [2u32, 8] {
        let parallel = run_at(8, threads, false);
        assert_identical(
            &baseline,
            &parallel,
            &format!("{threads} threads, unsampled"),
        );
    }
}

#[test]
fn sink_attachment_does_not_perturb_results() {
    // Epoch sampling is observation only: requesting samples must not
    // change the simulation outcome at any thread count.
    for threads in [1u32, 2, 8] {
        let with = run_at(8, threads, true);
        let without = run_at(8, threads, false);
        assert_eq!(
            with.0, without.0,
            "sampling changed the result at {threads} threads"
        );
    }
}

#[test]
fn more_threads_than_cores_is_bit_identical() {
    // Oversubscription (8 worker threads, 4 cores) must degrade to the
    // same answer, not a different schedule-dependent one.
    let baseline = run_at(4, 1, true);
    let oversubscribed = run_at(4, 8, true);
    assert_identical(&baseline, &oversubscribed, "8 threads on 4 cores");
}
