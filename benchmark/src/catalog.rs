//! Every workload and metric by name, with unit, direction and bound.
//! `BENCHMARK.json` at the repository root carries the same tables; a test
//! below fails when the two drift apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: what it stresses, and its main and alternate mode.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_membound",
        why: "32-core target, eight highest-LLC-MPKI profiles: accesses leave the L2 and are replayed by the merge; main mode 1 host thread, alt 2",
    },
    Workload {
        name: "sim_compute",
        why: "same machine, eight lowest-MPKI profiles: time sits in core.step and the op generator, so an uncore change predicts no movement; main 1 thread, alt 2",
    },
    Workload {
        name: "workflow",
        why: "the paper's Fig. 2 use through the journaled executor: 121 small scale-model runs, train, save/load, predict; main mode cold cache, alt warm cache",
    },
    Workload {
        name: "serve",
        why: "closed loop, 2 clients, new connection per request against in-process sms serve; main mode LRU miss through queue, worker and model, alt LRU hit bypassing them",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of each workload sees. Every workload reports every one;
/// the counted thing behind `rate` and the operation behind `op_ms` are
/// the workload's own (README, "End-to-end metrics"). Each bound is at
/// least three times the widest spread any workload showed in
/// calibration on a quiet 2-core box (README, "A/A spread").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "rate_alt",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_alt_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer metrics, `<crate>.<what>`, from the traced pass only.
/// Counts that repeat exactly carry `count`/`ratio`; for those "better"
/// names the direction a speed-up of the simulator must *not* move them.
pub const PER_LAYER: [PerLayer; 72] = [
    layer("workloads.gen_mops", "M/s", Higher),
    layer("workloads.sources_ms", "ms", Lower),
    layer("sim.new_ms", "ms", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.fork_self_s", "s", Lower),
    layer("sim.core_step_self_s", "s", Lower),
    layer("sim.l2_self_s", "s", Lower),
    layer("sim.llc_self_s", "s", Lower),
    layer("sim.noc_self_s", "s", Lower),
    layer("sim.dram_self_s", "s", Lower),
    layer("sim.merge_self_s", "s", Lower),
    layer("sim.merge_llc_self_s", "s", Lower),
    layer("sim.merge_noc_self_s", "s", Lower),
    layer("sim.merge_dram_self_s", "s", Lower),
    layer("sim.windows", "count", Lower),
    layer("sim.instructions", "count", Higher),
    layer("sim.cycles", "count", Lower),
    layer("sim.llc_accesses", "count", Lower),
    layer("sim.llc_hit_ratio", "ratio", Higher),
    layer("sim.noc_transfers", "count", Lower),
    layer("sim.dram_bytes", "count", Lower),
    layer("sim.ns_per_instr", "ns", Lower),
    layer("sim.ns_per_llc_access", "ns", Lower),
    layer("sim.merge_share", "ratio", Lower),
    layer("sim.par_speedup", "x", Higher),
    layer("ml.svr_fit_us", "us", Lower),
    layer("ml.svr_predict_ns", "ns", Lower),
    layer("ml.forest_fit_us", "us", Lower),
    layer("ml.tree_fit_us", "us", Lower),
    layer("ml.curve_fit_ns", "ns", Lower),
    layer("core.scale_config_us", "us", Lower),
    layer("core.collect_s", "s", Lower),
    layer("core.train_ms", "ms", Lower),
    layer("core.train_artifact_s", "s", Lower),
    layer("core.predict_mix_us", "us", Lower),
    layer("core.artifact_save_ms", "ms", Lower),
    layer("core.artifact_load_ms", "ms", Lower),
    layer("core.cv_error_pct", "%", Lower),
    layer("core.pred_error_pct", "%", Lower),
    layer("core.scale_model_speedup", "x", Higher),
    layer("bench.lookup_disk_us", "us", Lower),
    layer("bench.lookup_mem_us", "us", Lower),
    layer("bench.insert_us", "us", Lower),
    layer("bench.journal_append_us", "us", Lower),
    layer("bench.manifest_write_ms", "ms", Lower),
    layer("bench.exec_overhead_us", "us", Lower),
    layer("bench.worker_utilization", "ratio", Higher),
    layer("bench.cold_simulated", "count", Higher),
    layer("bench.warm_cached", "count", Higher),
    layer("bench.retries", "count", Lower),
    layer("bench.failed", "count", Lower),
    layer("serve.ttfb_ms", "ms", Lower),
    layer("serve.connect_us", "us", Lower),
    layer("serve.miss_p99_ms", "ms", Lower),
    layer("serve.worker_p50_ms", "ms", Lower),
    layer("serve.worker_p99_ms", "ms", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Higher),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.batched_requests", "count", Higher),
    layer("serve.shed_total", "count", Lower),
    layer("serve.deadline_exceeded", "count", Lower),
    layer("serve.degraded_total", "count", Lower),
    layer("serve.write_errors", "count", Lower),
    layer("serve.accept_wait_ms", "ms", Lower),
    layer("serve.http_parse_us", "us", Lower),
    layer("serve.http_write_us", "us", Lower),
    layer("serve.cache_key_us", "us", Lower),
    layer("serve.lru_get_ns", "ns", Lower),
    layer("serve.lru_put_ns", "ns", Lower),
    layer("serve.queue_push_pop_ns", "ns", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract the pipeline reads; this table is
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let names = |key: &str| -> Vec<String> {
            spec[key]
                .as_array()
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_owned())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in spec["workloads"]
            .as_array()
            .expect("list")
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry["why"].as_str(), Some(w.why), "{}", w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }

        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in spec["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                entry["better"].as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(entry["bound"].as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }

        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in spec["per_layer"]
            .as_array()
            .expect("list")
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(entry["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                entry["better"].as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
    }
}
