//! The multicore system: windowed-synchronization simulation loop.
//!
//! Cores advance independently within a synchronization quantum
//! ([`SystemConfig::sync_quantum`]); at quantum boundaries the deferred
//! inclusion back-invalidations are applied and the finish condition is
//! evaluated. Following the paper's methodology (§IV-2), a multiprogram
//! run ends as soon as the *first* benchmark in the mix retires its
//! instruction budget.
//!
//! # Parallel execution
//!
//! Each window runs in two phases. In the **fork** phase every core
//! advances to the quantum boundary against a *frozen* snapshot of the
//! shared uncore plus its private [`WindowShard`] (see [`crate::shard`]);
//! cores are fully independent here, so the phase can run on
//! [`SystemConfig::sim_threads`] scoped host threads. In the **merge**
//! phase the master replays every core's deferred events into the real
//! uncore in an order derived from the window index alone. Both the
//! sequential (`sim_threads = 1`) and parallel paths execute exactly this
//! algorithm, so `SimResult` and the epoch-sample stream are bit-identical
//! at any thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock};
use std::time::Instant;

use crate::cache::CacheStats;
use crate::config::SystemConfig;
use crate::core_model::CoreModel;
use crate::dram::ControllerStats;
use crate::error::{ConfigError, SimError};
use crate::hierarchy::{MemoryBackend, PrivateCaches, Uncore};
use crate::noc::NocStats;
use crate::profile::SimProf;
use crate::shard::{DeferredOp, ShardBackend, WindowShard};
use crate::stats::{CoreResult, SimResult};
use crate::timeline::EpochSample;
use crate::trace::InstructionSource;

/// Warm-up and measurement lengths for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunSpec {
    /// Instructions per core executed before measurement starts (caches
    /// and queues warm up; counters are then reset).
    pub warmup_instructions: u64,
    /// Instructions per core in the measured phase; the run ends when the
    /// first core retires this many.
    pub measure_instructions: u64,
}

impl RunSpec {
    /// A spec with a warm-up of 25% of the measured length.
    ///
    /// # Examples
    ///
    /// ```
    /// let spec = sms_sim::system::RunSpec::with_default_warmup(1_000_000);
    /// assert_eq!(spec.warmup_instructions, 250_000);
    /// ```
    pub fn with_default_warmup(measure_instructions: u64) -> Self {
        Self {
            warmup_instructions: measure_instructions / 4,
            measure_instructions,
        }
    }
}

struct CoreCtx {
    model: CoreModel,
    privs: PrivateCaches,
    source: Box<dyn InstructionSource>,
    retired: u64,
    finished: bool,
}

/// A configured multicore system ready to simulate.
pub struct MulticoreSystem {
    cfg: SystemConfig,
    cores: Vec<CoreCtx>,
    shards: Vec<WindowShard>,
    uncore: Uncore,
    global_cycle: u64,
    /// Phase-profiling handles; detached unless
    /// [`MulticoreSystem::attach_profiler`] was called. Timing only —
    /// never consulted by the simulation, so results are bit-identical
    /// attached or not.
    prof: SimProf,
}

impl std::fmt::Debug for MulticoreSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticoreSystem")
            .field("config", &self.cfg.summary())
            .field("cores", &self.cores.len())
            .field("global_cycle", &self.global_cycle)
            .finish()
    }
}

impl MulticoreSystem {
    /// Build a system from a configuration and one instruction source per
    /// core.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid and
    /// [`SimError::SourceCountMismatch`] if the source count differs from
    /// `config.num_cores`.
    pub fn new(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstructionSource>>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if sources.len() != cfg.num_cores as usize {
            return Err(SimError::SourceCountMismatch {
                sources: sources.len(),
                cores: cfg.num_cores,
            });
        }
        let uncore = Uncore::new(&cfg);
        let mut cores = Vec::with_capacity(sources.len());
        let mut shards = Vec::with_capacity(sources.len());
        for (i, source) in sources.into_iter().enumerate() {
            // Core ids travel the hierarchy as u8; validate() bounds
            // num_cores by MAX_CORES, so this conversion cannot truncate.
            let core_id = u8::try_from(i)
                .map_err(|_| SimError::Config(ConfigError::TooManyCores(cfg.num_cores)))?;
            cores.push(CoreCtx {
                model: CoreModel::new(cfg.core.clone(), core_id),
                privs: PrivateCaches::new(&cfg),
                source,
                retired: 0,
                finished: false,
            });
            shards.push(WindowShard::new(core_id, &uncore));
        }
        Ok(Self {
            cfg,
            cores,
            shards,
            uncore,
            global_cycle: 0,
            prof: SimProf::detached(),
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Attach a phase profiler: subsequent runs time the `sim.run`,
    /// `window.fork`/`core.step` (with `l2`/`llc`/`noc`/`dram`
    /// component phases) and `window.merge` phases into `profiler`.
    ///
    /// Profiling is observation-only — scopes read the monotonic clock
    /// and bump atomic counters, never simulator state — so `SimResult`
    /// and the epoch-sample stream are bit-identical with or without a
    /// profiler attached, at any `sim_threads`.
    pub fn attach_profiler(&mut self, profiler: &sms_obs::Profiler) {
        let prof = SimProf::attach(profiler);
        self.uncore.set_prof(prof.clone());
        for ctx in &mut self.cores {
            ctx.privs.set_prof(prof.clone());
        }
        for shard in &mut self.shards {
            shard.set_prof(prof.clone());
        }
        self.prof = prof;
    }

    /// Execute until the first core retires `budget` instructions (or all
    /// cores do, whichever happens first per the stop rule), appending one
    /// [`EpochSample`] per synchronization window to `samples` when given.
    /// Sampling only reads simulator state, so results are identical
    /// whether or not samples are requested.
    ///
    /// Every window forks the cores against a frozen uncore snapshot
    /// (possibly on `sim_threads` scoped host threads) and merges their
    /// deferred events at the barrier; see the module docs for the
    /// determinism argument.
    fn run_phase(
        &mut self,
        budget: u64,
        samples: Option<&mut Vec<EpochSample>>,
    ) -> Result<(), SimError> {
        if budget == 0 {
            return Ok(());
        }
        let Self {
            cfg,
            cores,
            shards,
            uncore,
            global_cycle,
            prof,
        } = self;
        let prof = prof.clone();
        let n = cores.len();
        let mut driver = PhaseDriver {
            quantum: cfg.sync_quantum,
            // Baselines so samples read relative to this phase's start.
            cycle0: *global_cycle,
            noc0: uncore.noc.stats(),
            llc0: uncore.llc.stats(),
            dram_bytes0: uncore.dram.total_bytes(),
            controllers0: uncore.dram.controller_stats(),
            window_index: 0,
            samples,
            global_cycle,
            prof: prof.clone(),
        };
        let threads = (cfg.sim_threads as usize).clamp(1, n);

        if threads == 1 {
            let mut pairs: Vec<(&mut CoreCtx, &mut WindowShard)> =
                cores.iter_mut().zip(shards.iter_mut()).collect();
            loop {
                let quantum_end = driver.next_quantum_end()?;
                {
                    let _fork = sms_obs::tracer().span("window.fork", "sim");
                    let _fork_phase = prof.fork();
                    for (ctx, shard) in &mut pairs {
                        run_core_window(ctx, shard, uncore, quantum_end, budget, &prof);
                    }
                }
                if driver.merge(uncore, &mut pairs, quantum_end)? {
                    return Ok(());
                }
            }
        }

        // Parallel path: one contiguous chunk of cores per worker thread.
        // Workers read the uncore through an RwLock and own their chunk
        // through a Mutex during the fork phase; the master takes the
        // write lock and all chunk locks for the merge. The two fork
        // barriers separate the phases, so no lock is ever contended.
        let mut chunk_locks: Vec<Mutex<(&mut [CoreCtx], &mut [WindowShard])>> =
            Vec::with_capacity(threads);
        {
            let mut cores_rest: &mut [CoreCtx] = cores;
            let mut shards_rest: &mut [WindowShard] = shards;
            for t in 0..threads {
                let take = n / threads + usize::from(t < n % threads);
                let (cores_head, cores_tail) = cores_rest.split_at_mut(take);
                let (shards_head, shards_tail) = shards_rest.split_at_mut(take);
                cores_rest = cores_tail;
                shards_rest = shards_tail;
                chunk_locks.push(Mutex::new((cores_head, shards_head)));
            }
        }
        let uncore_lock = RwLock::new(uncore);
        let barrier = Barrier::new(threads + 1);
        let quantum_end_cell = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut outcome = Ok(());
        std::thread::scope(|scope| {
            let barrier = &barrier;
            let done = &done;
            let quantum_end_cell = &quantum_end_cell;
            let uncore_lock = &uncore_lock;
            let prof = &prof;
            for chunk in &chunk_locks {
                scope.spawn(move || loop {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let quantum_end = quantum_end_cell.load(Ordering::Acquire);
                    let frozen = uncore_lock.read().unwrap_or_else(PoisonError::into_inner);
                    let mut guard = chunk.lock().unwrap_or_else(PoisonError::into_inner);
                    let (ctxs, shrds) = &mut *guard;
                    for (ctx, shard) in ctxs.iter_mut().zip(shrds.iter_mut()) {
                        run_core_window(ctx, shard, &frozen, quantum_end, budget, prof);
                    }
                    drop(guard);
                    drop(frozen);
                    barrier.wait();
                });
            }
            loop {
                let quantum_end = match driver.next_quantum_end() {
                    Ok(q) => q,
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                };
                quantum_end_cell.store(quantum_end, Ordering::Release);
                {
                    let _fork = sms_obs::tracer().span("window.fork", "sim");
                    let _fork_phase = prof.fork();
                    barrier.wait(); // release the workers into the window
                    barrier.wait(); // wait for every core to reach the barrier
                }
                let mut uncore_guard = uncore_lock.write().unwrap_or_else(PoisonError::into_inner);
                let mut chunk_guards: Vec<_> = chunk_locks
                    .iter()
                    .map(|chunk| chunk.lock().unwrap_or_else(PoisonError::into_inner))
                    .collect();
                // Flatten back into core-index order (chunks are contiguous
                // and in order) so the merge sees the same layout as the
                // sequential path.
                let mut pairs: Vec<(&mut CoreCtx, &mut WindowShard)> = Vec::with_capacity(n);
                for guard in &mut chunk_guards {
                    let (ctxs, shrds) = &mut **guard;
                    pairs.extend(ctxs.iter_mut().zip(shrds.iter_mut()));
                }
                match driver.merge(&mut uncore_guard, &mut pairs, quantum_end) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            done.store(true, Ordering::Release);
            barrier.wait();
        });
        outcome
    }

    /// Run the warm-up phase then the measured phase, returning results
    /// for the measured phase only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyBudget`] if the measured instruction count
    /// is zero.
    pub fn run(&mut self, spec: RunSpec) -> Result<SimResult, SimError> {
        self.run_sampled(spec, None)
    }

    /// Like [`MulticoreSystem::run`], additionally appending one
    /// [`EpochSample`] per synchronization window of the *measured* phase
    /// to `samples` when given (the warm-up is never sampled). With `None`
    /// this is exactly `run`; the `SimResult` is identical either way
    /// because sampling only reads simulator state.
    ///
    /// # Errors
    ///
    /// As [`MulticoreSystem::run`].
    pub fn run_sampled(
        &mut self,
        spec: RunSpec,
        samples: Option<&mut Vec<EpochSample>>,
    ) -> Result<SimResult, SimError> {
        if spec.measure_instructions == 0 {
            return Err(SimError::EmptyBudget);
        }

        // Root phase scope spanning warm-up and the measured phase (a
        // no-op when detached). Scoped to a local clone so the guard's
        // borrow does not pin `self`.
        let root_prof = self.prof.clone();
        let _run_phase_scope = root_prof.run();

        // Warm-up: run, then reset all measurement state.
        if spec.warmup_instructions > 0 {
            self.run_phase(spec.warmup_instructions, None)?;
            for ctx in &mut self.cores {
                ctx.model.reset_counters();
                ctx.retired = 0;
                ctx.finished = false;
                ctx.privs.l1i.reset_stats();
                ctx.privs.l1d.reset_stats();
                ctx.privs.l2.reset_stats();
            }
            self.uncore.reset_stats();
            self.uncore.dram.rebase(self.global_cycle);
            self.uncore.noc.rebase(self.global_cycle);
            self.global_cycle = 0;
        }

        // Snapshot cumulative uncore stats so the measured phase reports
        // deltas.
        let noc_before = self.uncore.noc.stats();
        let llc_before = self.uncore.llc.stats();
        let dram_bytes_before = self.uncore.dram.total_bytes();

        // sms-lint: allow(D1): host wall-time telemetry only; never feeds simulated state
        let wall = Instant::now();
        self.run_phase(spec.measure_instructions, samples)?;
        let host_seconds = wall.elapsed().as_secs_f64();

        let elapsed_cycles = self
            .cores
            .iter()
            .map(|c| c.model.counters().cycles)
            .max()
            .unwrap_or(0);

        let cores: Vec<CoreResult> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, ctx)| {
                CoreResult::from_counts(
                    ctx.source.label(),
                    ctx.model.counters(),
                    self.uncore.dram_bytes_per_core[i],
                    ctx.privs.prefetcher.issued(),
                )
            })
            .collect();

        let noc_after = self.uncore.noc.stats();
        let llc_after = self.uncore.llc.stats();
        let total_dram_bytes = self.uncore.dram.total_bytes() - dram_bytes_before;

        Ok(SimResult {
            cores,
            elapsed_cycles,
            total_dram_bytes,
            total_bandwidth_gbps: if elapsed_cycles == 0 {
                0.0
            } else {
                total_dram_bytes as f64 / elapsed_cycles as f64 * crate::config::CORE_FREQ_GHZ
            },
            noc_transfers: noc_after.transfers - noc_before.transfers,
            noc_crossings: noc_after.bisection_crossings - noc_before.bisection_crossings,
            llc_accesses: llc_after.accesses - llc_before.accesses,
            llc_hits: llc_after.hits - llc_before.hits,
            host_seconds,
        })
    }
}

/// Advance one core to `quantum_end` (or until its budget is exhausted)
/// against the frozen uncore snapshot, accumulating deferred shared-memory
/// events in its shard. Pure per-core work: safe to run concurrently for
/// different cores.
fn run_core_window(
    ctx: &mut CoreCtx,
    shard: &mut WindowShard,
    frozen: &Uncore,
    quantum_end: u64,
    budget: u64,
    prof: &SimProf,
) {
    if ctx.finished {
        return;
    }
    let _step = prof.core_step();
    shard.begin_window();
    let mut backend = ShardBackend { frozen, shard };
    while ctx.model.cycle < quantum_end && ctx.retired < budget {
        let left = budget - ctx.retired;
        ctx.retired +=
            ctx.model
                .run_window(ctx.source.as_mut(), &mut ctx.privs, &mut backend, left);
    }
    if ctx.retired >= budget {
        ctx.finished = true;
    }
}

/// Master-side state for one `run_phase` call: the sampling baselines, the
/// caller's sample buffer, and the window counter that drives the merge
/// ordering and numbers the samples. Shared by the sequential and parallel
/// paths so they execute the same barrier code.
struct PhaseDriver<'a> {
    quantum: u64,
    cycle0: u64,
    noc0: NocStats,
    llc0: CacheStats,
    dram_bytes0: u64,
    controllers0: Vec<ControllerStats>,
    window_index: u64,
    samples: Option<&'a mut Vec<EpochSample>>,
    global_cycle: &'a mut u64,
    prof: SimProf,
}

impl PhaseDriver<'_> {
    /// The next window's end cycle; checked so a `sync_quantum` near the
    /// `u64` boundary fails loudly instead of wrapping the global clock.
    fn next_quantum_end(&self) -> Result<u64, SimError> {
        self.global_cycle
            .checked_add(self.quantum)
            .ok_or(SimError::Config(ConfigError::Overflow(
                "global_cycle + sync_quantum",
            )))
    }

    /// The quantum barrier: replay every core's deferred events into the
    /// real uncore, apply inclusion back-invalidations, advance the global
    /// clock, sample, and evaluate the stop rule. Returns `true` when the
    /// phase is finished.
    ///
    /// `pairs` must be in core-index order; the replay order rotates with
    /// the window index — a pure function of it, never mutable round-robin
    /// state — so no core is systematically first to stamp the shared
    /// queues, and the merged state is independent of the host thread
    /// count. The failpoint fires once per window on the master thread,
    /// keeping fault decisions thread-count independent too.
    fn merge(
        &mut self,
        uncore: &mut Uncore,
        pairs: &mut [(&mut CoreCtx, &mut WindowShard)],
        quantum_end: u64,
    ) -> Result<bool, SimError> {
        if let Err(e) = sms_faults::check("sim.window.merge") {
            return Err(SimError::Injected(e.to_string()));
        }
        let _merge = sms_obs::tracer().span("window.merge", "sim");
        let _merge_phase = self.prof.merge();
        let n = pairs.len();
        let start = (self.window_index % n as u64) as usize;
        for k in 0..n {
            let (_, shard) = &mut pairs[(start + k) % n];
            let core = shard.core;
            let mut events = std::mem::take(&mut shard.events);
            for ev in events.drain(..) {
                match ev {
                    DeferredOp::Demand { line, now } => {
                        let _ = uncore.access(core, line, now);
                    }
                    DeferredOp::Writeback { line, now } => {
                        uncore.shared_writeback(core, line, now);
                    }
                }
            }
            // Hand the (now empty) buffer back to keep its allocation.
            shard.events = events;
        }
        // Apply deferred inclusion invalidations at the barrier.
        let pending = std::mem::take(&mut uncore.pending_invalidations);
        for (owner, line) in pending {
            let (ctx, _) = &mut pairs[owner as usize];
            let p = &mut ctx.privs;
            let mut dirty = false;
            if let Some(ev) = p.l1d.invalidate(line) {
                dirty |= ev.dirty;
            }
            p.l1i.invalidate(line);
            if let Some(ev) = p.l2.invalidate(line) {
                dirty |= ev.dirty;
            }
            if dirty {
                uncore.writeback_to_dram(line, owner, quantum_end);
            }
        }
        *self.global_cycle = quantum_end;
        if let Some(samples) = self.samples.as_deref_mut() {
            let noc = uncore.noc.stats();
            let llc = uncore.llc.stats();
            let controllers = uncore.dram.controller_stats();
            samples.push(EpochSample {
                epoch: self.window_index,
                cycle: quantum_end - self.cycle0,
                instructions: pairs.iter().map(|(c, _)| c.retired).collect(),
                core_cycles: pairs
                    .iter()
                    .map(|(c, _)| c.model.counters().cycles)
                    .collect(),
                llc_accesses: llc.accesses - self.llc0.accesses,
                llc_hits: llc.hits - self.llc0.hits,
                llc_occupancy: uncore.llc.occupancy() as u64,
                noc_transfers: noc.transfers - self.noc0.transfers,
                noc_crossings: noc.bisection_crossings - self.noc0.bisection_crossings,
                dram_bytes: uncore.dram.total_bytes() - self.dram_bytes0,
                dram_requests: controllers
                    .iter()
                    .zip(&self.controllers0)
                    .map(|(c, c0)| c.requests - c0.requests)
                    .collect(),
                dram_queue_wait: controllers
                    .iter()
                    .zip(&self.controllers0)
                    .map(|(c, c0)| c.total_queue_wait - c0.total_queue_wait)
                    .collect(),
            });
        }
        self.window_index += 1;
        Ok(pairs.iter().any(|(c, _)| c.finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MicroOp, VecSource};

    fn compute_source(label: &str) -> Box<dyn InstructionSource> {
        Box::new(VecSource::new(label, vec![MicroOp::Compute { count: 64 }]))
    }

    fn memory_source(label: &str, span_lines: u64) -> Box<dyn InstructionSource> {
        memory_source_at(label, span_lines, 0)
    }

    /// One load per 4 instructions over `span_lines` lines, based at
    /// `base` so that co-running instances occupy disjoint address spaces
    /// (as separate processes do).
    fn memory_source_at(label: &str, span_lines: u64, base: u64) -> Box<dyn InstructionSource> {
        let ops: Vec<MicroOp> = (0..span_lines)
            .flat_map(|i| {
                [
                    MicroOp::Compute { count: 3 },
                    MicroOp::Load {
                        addr: base + (i * 67 % span_lines) * 64,
                        dependent: false,
                    },
                ]
            })
            .collect();
        Box::new(VecSource::new(label, ops))
    }

    fn small_cfg(n: u32) -> SystemConfig {
        let mut cfg = SystemConfig::target_32core();
        cfg.num_cores = n;
        cfg.llc.num_slices = n.next_power_of_two();
        cfg.noc.mesh_cols = n.next_power_of_two();
        cfg.noc.mesh_rows = 1;
        cfg.dram.num_controllers = 1;
        cfg.dram.controller_bandwidth_gbps = 4.0 * f64::from(n);
        cfg
    }

    #[test]
    fn source_count_must_match() {
        let cfg = small_cfg(2);
        let err = MulticoreSystem::new(cfg, vec![compute_source("a")]).unwrap_err();
        assert!(matches!(err, SimError::SourceCountMismatch { .. }));
    }

    #[test]
    fn zero_budget_rejected() {
        let cfg = small_cfg(1);
        let mut sys = MulticoreSystem::new(cfg, vec![compute_source("a")]).unwrap();
        let err = sys
            .run(RunSpec {
                warmup_instructions: 0,
                measure_instructions: 0,
            })
            .unwrap_err();
        assert_eq!(err, SimError::EmptyBudget);
    }

    #[test]
    fn single_core_compute_run() {
        let cfg = small_cfg(1);
        let mut sys = MulticoreSystem::new(cfg, vec![compute_source("calc")]).unwrap();
        let r = sys
            .run(RunSpec {
                warmup_instructions: 1000,
                measure_instructions: 100_000,
            })
            .unwrap();
        assert_eq!(r.cores.len(), 1);
        assert_eq!(r.cores[0].label, "calc");
        assert_eq!(r.cores[0].instructions, 100_000);
        assert!(r.cores[0].ipc > 3.0, "ipc = {}", r.cores[0].ipc);
    }

    #[test]
    fn run_stops_when_first_core_finishes() {
        let cfg = small_cfg(2);
        let fast = compute_source("fast");
        let slow = memory_source("slow", 1 << 18); // far beyond LLC
        let mut sys = MulticoreSystem::new(cfg, vec![fast, slow]).unwrap();
        let r = sys
            .run(RunSpec {
                warmup_instructions: 0,
                measure_instructions: 200_000,
            })
            .unwrap();
        assert_eq!(r.cores[0].instructions, 200_000);
        assert!(
            r.cores[1].instructions < 200_000,
            "slow core must not have finished: {}",
            r.cores[1].instructions
        );
        assert!(r.cores[1].ipc < r.cores[0].ipc);
    }

    #[test]
    fn contention_lowers_ipc_versus_running_alone() {
        // One memory-bound benchmark alone on a 1-core system with 4 GB/s...
        let cfg1 = small_cfg(1);
        let mut alone = MulticoreSystem::new(cfg1, vec![memory_source("m", 1 << 16)]).unwrap();
        let spec = RunSpec {
            warmup_instructions: 50_000,
            measure_instructions: 200_000,
        };
        let r_alone = alone.run(spec).unwrap();

        // ...versus four copies sharing 4x the bandwidth but one LLC of 4x
        // slices (same per-core share) — IPC should be in the same
        // ballpark; versus four copies sharing only 1x bandwidth — IPC
        // must drop.
        let mut cfg4_starved = small_cfg(4);
        cfg4_starved.dram.controller_bandwidth_gbps = 4.0;
        let sources: Vec<Box<dyn InstructionSource>> = (0..4u64)
            .map(|i| memory_source_at("m", 1 << 16, i << 32))
            .collect();
        let mut starved = MulticoreSystem::new(cfg4_starved, sources).unwrap();
        let r_starved = starved.run(spec).unwrap();

        let ipc_alone = r_alone.cores[0].ipc;
        let ipc_starved = r_starved.cores[0].ipc;
        assert!(
            ipc_starved < ipc_alone * 0.8,
            "bandwidth starvation must hurt: alone={ipc_alone:.3} starved={ipc_starved:.3}"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let spec = RunSpec {
            warmup_instructions: 10_000,
            measure_instructions: 50_000,
        };
        let run = || {
            let cfg = small_cfg(2);
            let mut sys = MulticoreSystem::new(
                cfg,
                vec![memory_source("a", 1 << 12), memory_source("b", 1 << 14)],
            )
            .unwrap();
            sys.run(spec).unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.cores[0].cycles, r2.cores[0].cycles);
        assert_eq!(r1.cores[1].cycles, r2.cores[1].cycles);
        assert_eq!(r1.total_dram_bytes, r2.total_dram_bytes);
    }

    #[test]
    fn epoch_sink_samples_every_sync_window() {
        let cfg = small_cfg(2);
        let quantum = cfg.sync_quantum;
        let mut sys = MulticoreSystem::new(
            cfg,
            vec![memory_source("a", 1 << 12), memory_source("b", 1 << 14)],
        )
        .unwrap();
        let mut samples = Vec::new();
        let spec = RunSpec {
            warmup_instructions: 5_000,
            measure_instructions: 50_000,
        };
        let r = sys.run_sampled(spec, Some(&mut samples)).unwrap();
        assert!(!samples.is_empty());
        // One sample per sync window: the k-th barrier lands at
        // (k+1) * quantum cycles from measure start.
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.epoch, i as u64);
            assert_eq!(s.cycle, (i as u64 + 1) * quantum);
            assert_eq!(s.instructions.len(), 2, "one entry per core");
            assert_eq!(s.core_cycles.len(), 2);
        }
        let last = samples.last().unwrap();
        assert_eq!(samples.len() as u64, last.cycle / quantum);
        // Epoch timestamps and cumulative counters are monotone.
        for w in samples.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].llc_accesses >= w[0].llc_accesses);
            assert!(w[1].dram_bytes >= w[0].dram_bytes);
            for core in 0..2 {
                assert!(w[1].instructions[core] >= w[0].instructions[core]);
            }
        }
        // The final sample agrees with the end-of-run result: the winning
        // core retired exactly the measured budget.
        assert_eq!(
            *last.instructions.iter().max().unwrap(),
            r.cores.iter().map(|c| c.instructions).max().unwrap()
        );
    }

    #[test]
    fn recording_sink_does_not_perturb_results() {
        let spec = RunSpec {
            warmup_instructions: 10_000,
            measure_instructions: 50_000,
        };
        let build = || {
            MulticoreSystem::new(
                small_cfg(2),
                vec![memory_source("a", 1 << 12), memory_source("b", 1 << 14)],
            )
            .unwrap()
        };
        let plain = build().run(spec).unwrap();
        let mut samples = Vec::new();
        let recorded = build().run_sampled(spec, Some(&mut samples)).unwrap();
        // Bit-identical apart from host wall time: sampling is read-only.
        let strip = |mut r: SimResult| {
            r.host_seconds = 0.0;
            r
        };
        assert_eq!(strip(plain), strip(recorded));
        assert!(!samples.is_empty());
    }

    #[test]
    fn profiler_does_not_perturb_results_at_any_thread_count() {
        // The profiler-on/off analogue of
        // `recording_sink_does_not_perturb_results`, at 1 and 4
        // `sim_threads`: SimResult and the EpochSample stream must be
        // bit-identical because profiling only reads host time.
        let spec = RunSpec {
            warmup_instructions: 10_000,
            measure_instructions: 50_000,
        };
        for sim_threads in [1u32, 4] {
            let build = || {
                let mut cfg = small_cfg(4);
                cfg.sim_threads = sim_threads;
                let sources: Vec<Box<dyn InstructionSource>> = (0..4u64)
                    .map(|i| memory_source_at("m", 1 << 12, i << 32))
                    .collect();
                MulticoreSystem::new(cfg, sources).unwrap()
            };
            let strip = |mut r: SimResult| {
                r.host_seconds = 0.0;
                r
            };

            let mut plain_samples = Vec::new();
            let plain = build().run_sampled(spec, Some(&mut plain_samples)).unwrap();

            let profiler = sms_obs::Profiler::new();
            let mut sys = build();
            sys.attach_profiler(&profiler);
            let mut prof_samples = Vec::new();
            let profiled = sys.run_sampled(spec, Some(&mut prof_samples)).unwrap();

            assert_eq!(
                strip(plain),
                strip(profiled),
                "SimResult must not depend on profiling (sim_threads={sim_threads})"
            );
            assert_eq!(
                plain_samples, prof_samples,
                "epoch stream must not depend on profiling (sim_threads={sim_threads})"
            );

            // And the profile itself is real: the run phase fired once,
            // cores stepped, and windows merged.
            let snap = profiler.snapshot();
            let count = |path: &str| {
                snap.phases
                    .iter()
                    .find(|p| p.path == path)
                    .map_or(0, |p| p.count)
            };
            assert_eq!(count("sim.run"), 1);
            assert!(count("sim.run;window.fork;core.step") > 0);
            assert!(count("sim.run;window.merge") > 0);
        }
    }

    #[test]
    fn profiler_overhead_is_small() {
        // Measured-overhead smoke test: attaching a profiler may cost at
        // most 5% wall time (plus a small absolute grace for scheduler
        // noise on shared runners). Uses `host_seconds` so this crate
        // never reads a raw clock (lint rule D1); best-of-5 on each side
        // to shed one-off descheduling blips.
        let spec = RunSpec {
            warmup_instructions: 10_000,
            measure_instructions: 150_000,
        };
        let build = || {
            MulticoreSystem::new(
                small_cfg(2),
                vec![
                    memory_source_at("a", 1 << 12, 0),
                    memory_source_at("b", 1 << 14, 1 << 32),
                ],
            )
            .unwrap()
        };
        let best_of = |attach: bool| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let mut sys = build();
                let profiler = sms_obs::Profiler::new();
                if attach {
                    sys.attach_profiler(&profiler);
                }
                let secs = sys.run(spec).unwrap().host_seconds;
                if secs < best {
                    best = secs;
                }
            }
            best
        };
        let off = best_of(false);
        let on = best_of(true);
        assert!(
            on <= off * 1.05 + 0.010,
            "profiler-on best {on:.4}s exceeds profiler-off best {off:.4}s by more than 5% + 10ms"
        );
    }

    #[test]
    fn epoch_sink_never_samples_warmup() {
        let cfg = small_cfg(1);
        let mut sys = MulticoreSystem::new(cfg, vec![compute_source("calc")]).unwrap();
        let mut samples = Vec::new();
        let r = sys
            .run_sampled(
                RunSpec {
                    warmup_instructions: 40_000,
                    measure_instructions: 10_000,
                },
                Some(&mut samples),
            )
            .unwrap();
        // Cumulative instruction counts stay within the measured budget
        // even though warm-up retired 4x as much.
        assert!(samples
            .iter()
            .all(|s| s.instructions[0] <= r.cores[0].instructions));
        assert_eq!(samples[0].epoch, 0);
    }

    #[test]
    fn bandwidth_accounting_is_consistent() {
        let cfg = small_cfg(2);
        let mut sys = MulticoreSystem::new(
            cfg,
            vec![memory_source("a", 1 << 16), memory_source("b", 1 << 16)],
        )
        .unwrap();
        let r = sys
            .run(RunSpec {
                warmup_instructions: 0,
                measure_instructions: 100_000,
            })
            .unwrap();
        let per_core_sum: u64 = r.cores.iter().map(|c| c.dram_bytes).sum();
        assert_eq!(per_core_sum, r.total_dram_bytes);
        assert!(r.total_bandwidth_gbps > 0.0);
    }
}
