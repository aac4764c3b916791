//! Sizes, and every input generated from `--seed`. The program under test
//! only ever sees what this module generates: the same seed gives the same
//! mixes, plan and request bodies, and another seed gives others.

use sms_core::{scale_config, ExperimentConfig};
use sms_sim::{RunSpec, SystemConfig};
use sms_workloads::mix::eval_train_split;
use sms_workloads::rng::SplitMix64;
use sms_workloads::{BenchmarkProfile, MixSpec};

/// The repository's reference seed (EXPERIMENTS.md).
pub const REFERENCE_SEED: u64 = 43;

/// The eight highest-LLC-MPKI profiles of the suite (`sim_membound`).
pub const MEMBOUND_POOL: [&str; 8] = [
    "mcf_r",
    "cactuBSSN_s",
    "roms_s",
    "cactuBSSN_r",
    "roms_r",
    "cam4_s",
    "omnetpp_r",
    "wrf_s",
];

/// The eight lowest-MPKI profiles (`sim_compute`).
pub const COMPUTE_POOL: [&str; 8] = [
    "exchange2_r",
    "leela_r",
    "povray_r",
    "imagick_r",
    "deepsjeng_r",
    "nab_r",
    "x264_r",
    "namd_r",
];

/// Work sizes. Chosen once on the builder's box (README, "Sizes") and
/// never adapted at run time; `--seconds` only sets how often the fixed
/// operation is repeated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub label: &'static str,
    /// Measured instructions per core of a `sim_*` rep (warm-up is a
    /// quarter more, `RunSpec::with_default_warmup`).
    pub sim_budget: u64,
    /// `next_op` calls per source behind `workloads.gen_mops`.
    pub gen_ops: u64,
    /// Per-run budget of the workflow's plan.
    pub workflow_budget: u64,
    pub workflow_train: usize,
    pub workflow_heldout: usize,
    /// Warm passes over the plan per workflow repetition.
    pub warm_passes: usize,
    /// Budget and suite size of the artifact `serve` trains in set-up.
    pub serve_budget: u64,
    pub serve_benchmarks: usize,
    /// Mixes put in the LRU before the hit phase.
    pub prewarmed: usize,
    /// Repetitions behind each direct-call micro-timing.
    pub micro_iters: usize,
}

pub const FULL: Sizes = Sizes {
    label: "full",
    sim_budget: 500_000,
    gen_ops: 100_000,
    workflow_budget: 200_000,
    workflow_train: 23,
    workflow_heldout: 6,
    warm_passes: 20,
    serve_budget: 50_000,
    serve_benchmarks: 29,
    prewarmed: 64,
    micro_iters: 200,
};

/// Tiny budgets for the package's smoke test, and for the layers a traced
/// run exercises only so that every layer reports (README, "Traced run").
pub const SMOKE: Sizes = Sizes {
    label: "smoke",
    sim_budget: 20_000,
    gen_ops: 5_000,
    workflow_budget: 20_000,
    workflow_train: 5,
    workflow_heldout: 2,
    warm_passes: 3,
    serve_budget: 20_000,
    serve_benchmarks: 7,
    prewarmed: 8,
    micro_iters: 20,
};

/// Fisher-Yates, driven by the suite's own generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The 32-slot mix of a `sim_*` workload: slots filled round-robin from
/// `pool`, slot order shuffled by the seed, streams seeded by the seed.
pub fn sim_mix(pool: &[&str], seed: u64) -> MixSpec {
    let names: Vec<String> = pool.iter().map(|s| (*s).to_owned()).collect();
    let mut mix = MixSpec::fill(&names, 32, seed);
    shuffle(
        &mut mix.benchmarks,
        &mut SplitMix64::new(seed ^ 0x51ED_270B_9F1C_6A35),
    );
    mix
}

/// What the workflow runs on.
#[derive(Debug, Clone)]
pub struct WorkflowInputs {
    pub cfg: ExperimentConfig,
    pub train: Vec<BenchmarkProfile>,
    pub heldout: Vec<BenchmarkProfile>,
    /// Scale models {1,2,4,8,16} of every training benchmark, then the
    /// 1-core model of every held-out one.
    pub plan: Vec<(SystemConfig, MixSpec)>,
}

impl WorkflowInputs {
    pub fn spec(&self) -> RunSpec {
        self.cfg.spec
    }

    pub fn single_core(&self) -> SystemConfig {
        scale_config(&self.cfg.target, 1, self.cfg.policy)
    }

    /// The homogeneous mix of `name` the plan runs on `cores` cores.
    pub fn mix(&self, name: &str, cores: u32) -> MixSpec {
        MixSpec::homogeneous(name, cores as usize, self.cfg.seed)
    }
}

fn workflow_from(
    train: Vec<BenchmarkProfile>,
    heldout: Vec<BenchmarkProfile>,
    budget: u64,
    seed: u64,
) -> WorkflowInputs {
    let cfg = ExperimentConfig {
        spec: RunSpec::with_default_warmup(budget),
        seed,
        ..ExperimentConfig::default()
    };
    let mut plan = Vec::new();
    for b in &train {
        for cores in std::iter::once(1).chain(cfg.ms_cores.iter().copied()) {
            plan.push((
                scale_config(&cfg.target, cores, cfg.policy),
                MixSpec::homogeneous(b.name, cores as usize, seed),
            ));
        }
    }
    let single = scale_config(&cfg.target, 1, cfg.policy);
    for b in &heldout {
        plan.push((single.clone(), MixSpec::homogeneous(b.name, 1, seed)));
    }
    WorkflowInputs {
        cfg,
        train,
        heldout,
        plan,
    }
}

/// Inputs of the `workflow` workload. The seed sets every mix's stream
/// seed. Which benchmarks are held out does not follow the seed: the
/// split is drawn once at [`REFERENCE_SEED`], because a per-seed split
/// changes the plan's work by ±10 % and the prediction error twofold,
/// and then no metric could hold a bound across seeds.
pub fn workflow(sizes: &Sizes, seed: u64) -> WorkflowInputs {
    let (heldout, mut train) = eval_train_split(sizes.workflow_heldout, REFERENCE_SEED);
    train.truncate(sizes.workflow_train);
    workflow_from(train, heldout, sizes.workflow_budget, seed)
}

/// Inputs of the artifact `serve` trains in set-up: the first
/// `serve_benchmarks` of the suite, none held out.
pub fn serve_training(sizes: &Sizes, seed: u64) -> WorkflowInputs {
    let mut train = sms_workloads::suite();
    train.truncate(sizes.serve_benchmarks);
    workflow_from(train, Vec::new(), sizes.serve_budget, seed)
}

/// Traffic phase of the `serve` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Every body a fresh mix: LRU miss, queue, worker, `predict_mix`.
    Miss,
    /// Bodies drawn from the pre-warmed mixes: answered from the LRU.
    Hit,
}

/// A 32-slot mix drawn with repetition from `names`.
fn random_mix(names: &[String], rng: &mut SplitMix64) -> Vec<String> {
    (0..32)
        .map(|_| names[rng.next_below(names.len() as u64) as usize].clone())
        .collect()
}

/// The `k`-th pre-warmed mix.
pub fn prewarmed_mix(names: &[String], seed: u64, k: usize) -> Vec<String> {
    let mut rng =
        SplitMix64::new(seed ^ 0x4849_5400 ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    random_mix(names, &mut rng)
}

/// The mix of request `i` of `client` in `phase`. Miss mixes are drawn
/// fresh per request (a repeat among 29^32 is not a practical concern);
/// hit mixes are one of the `prewarmed` ones.
pub fn request_mix(
    names: &[String],
    seed: u64,
    phase: Phase,
    prewarmed: usize,
    client: u64,
    i: u64,
) -> Vec<String> {
    let mut rng = SplitMix64::new(
        seed ^ 0x4D49_5353_0000 ^ (client << 40) ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    match phase {
        Phase::Miss => random_mix(names, &mut rng),
        Phase::Hit => prewarmed_mix(names, seed, rng.next_below(prewarmed as u64) as usize),
    }
}

/// The JSON body of a `/predict` request for `mix`.
pub fn request_body(model: &str, mix: &[String]) -> String {
    let request = sms_serve::PredictRequest {
        model: model.to_owned(),
        mix: mix.to_vec(),
        target_cores: None,
        delay_ms: None,
    };
    serde_json::to_string(&request).expect("plain data serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_bench::{cache_key, key_hash_hex};

    fn plan_hashes(w: &WorkflowInputs) -> Vec<String> {
        w.plan
            .iter()
            .map(|(cfg, mix)| key_hash_hex(&cache_key(cfg, mix, w.spec())))
            .collect()
    }

    fn bodies(seed: u64) -> Vec<String> {
        let names: Vec<String> = sms_workloads::suite()
            .iter()
            .map(|b| b.name.to_owned())
            .collect();
        let mut out = Vec::new();
        for phase in [Phase::Miss, Phase::Hit] {
            for client in 0..2 {
                for i in 0..20 {
                    let mix = request_mix(&names, seed, phase, FULL.prewarmed, client, i);
                    out.push(request_body("m", &mix));
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for pool in [&MEMBOUND_POOL, &COMPUTE_POOL] {
            assert_eq!(sim_mix(pool, 7), sim_mix(pool, 7));
            assert_ne!(sim_mix(pool, 7), sim_mix(pool, 8));
            assert_ne!(sim_mix(pool, 7).benchmarks, sim_mix(pool, 8).benchmarks);
        }
        assert_eq!(
            plan_hashes(&workflow(&FULL, 7)),
            plan_hashes(&workflow(&FULL, 7))
        );
        let (a, b) = (
            plan_hashes(&workflow(&FULL, 7)),
            plan_hashes(&workflow(&FULL, 8)),
        );
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "every run's key moves with the seed"
        );
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));
    }

    #[test]
    fn sim_mix_fills_32_slots_evenly_from_its_pool() {
        let mix = sim_mix(&MEMBOUND_POOL, REFERENCE_SEED);
        assert_eq!(mix.len(), 32);
        assert_eq!(mix.seed, REFERENCE_SEED);
        for name in MEMBOUND_POOL {
            assert_eq!(mix.benchmarks.iter().filter(|b| *b == name).count(), 4);
        }
    }

    #[test]
    fn workflow_plan_is_121_runs_over_a_fixed_split() {
        let w = workflow(&FULL, REFERENCE_SEED);
        assert_eq!((w.train.len(), w.heldout.len()), (23, 6));
        assert_eq!(w.plan.len(), 23 * 5 + 6);
        let other = workflow(&FULL, 7);
        let names = |v: &[BenchmarkProfile]| v.iter().map(|b| b.name).collect::<Vec<_>>();
        assert_eq!(names(&w.heldout), names(&other.heldout));
        let mut hashes = plan_hashes(&w);
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), 121, "no run is planned twice");
    }

    #[test]
    fn hit_requests_stay_inside_the_prewarmed_set_and_miss_requests_outside() {
        let names: Vec<String> = sms_workloads::suite()
            .iter()
            .map(|b| b.name.to_owned())
            .collect();
        let warm: Vec<Vec<String>> = (0..FULL.prewarmed)
            .map(|k| prewarmed_mix(&names, 7, k))
            .collect();
        for i in 0..200 {
            assert!(warm.contains(&request_mix(&names, 7, Phase::Hit, FULL.prewarmed, 1, i)));
            assert!(!warm.contains(&request_mix(&names, 7, Phase::Miss, FULL.prewarmed, 1, i)));
        }
    }
}
