//! Simulation execution with a persistent on-disk result cache and a
//! fault-tolerant multi-threaded plan executor.
//!
//! Every distinct `(machine config, workload mix, run spec)` triple is
//! keyed by a hash of its canonical JSON encoding; results are stored as
//! JSON files under the cache directory, so re-running an experiment
//! binary only simulates what is missing. The stored key string is
//! verified on load, ruling out silent hash collisions.
//!
//! The executor isolates each run: a panicking or erroring simulation is
//! retried a bounded number of times, and a persistent failure is
//! *quarantined* (recorded under `quarantine/` in the cache directory)
//! while the rest of the plan completes. Every invocation writes a JSON
//! run-manifest (see [`crate::telemetry`]) next to the cache, and
//! [`execute_plan`] returns a [`PlanSummary`] whose `failed` count the
//! caller must inspect.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sms_core::pipeline::{DirectSim, Simulate};
use sms_sim::config::SystemConfig;
use sms_sim::error::SimError;
use sms_sim::stats::SimResult;
use sms_sim::system::RunSpec;
use sms_workloads::mix::MixSpec;

use crate::journal::{JournalLine, PlanJournal};
use crate::telemetry::{
    mix_label, write_manifest, write_trace, RunManifest, RunRecord, RunStatus, RunSummary,
    Telemetry,
};

/// 128-bit FNV-1a over a byte string.
fn fnv128(bytes: &[u8]) -> (u64, u64) {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x6c62_272e_07bb_0142;
    for &b in bytes {
        h1 ^= u64::from(b);
        h1 = h1.wrapping_mul(0x1000_0000_01b3);
        h2 ^= u64::from(b.rotate_left(3));
        h2 = h2.wrapping_mul(0x1000_0000_01b3);
    }
    (h1, h2)
}

/// Fingerprint of the workload-suite definition, so cached results are
/// invalidated when benchmark profiles change (a `MixSpec` holds only
/// benchmark *names*).
fn suite_fingerprint() -> u64 {
    use std::sync::OnceLock;
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        // sms-lint: allow(E1): serializing plain data structs cannot fail
        let json = serde_json::to_string(&sms_workloads::spec::suite()).expect("suite serializes");
        let (h1, h2) = fnv128(json.as_bytes());
        h1 ^ h2.rotate_left(17)
    })
}

/// Canonical cache key for one simulation request.
pub fn cache_key(cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec) -> String {
    // serde_json serialization of these types is deterministic (struct
    // field order), so the JSON string is a canonical encoding; the suite
    // fingerprint ties the key to the workload definitions behind the
    // benchmark names.
    format!(
        "v{:016x}|{}|{}|{}",
        suite_fingerprint(),
        serde_json::to_string(cfg).expect("config serializes"), // sms-lint: allow(E1): plain data structs
        serde_json::to_string(mix).expect("mix serializes"), // sms-lint: allow(E1): plain data structs
        serde_json::to_string(&spec).expect("spec serializes"), // sms-lint: allow(E1): plain data structs
    )
}

/// Hex rendering of the 128-bit key hash — the cache file stem, and the
/// `key_hash` field of manifest and quarantine records.
pub fn key_hash_hex(key: &str) -> String {
    let (h1, h2) = fnv128(key.as_bytes());
    format!("{h1:016x}{h2:016x}")
}

/// Cache entry schema version.
///
/// v2 added the `checksum` field (FNV-128 of the result's JSON encoding)
/// so `lookup` and `sms fsck` can detect bit-level damage; v1 entries
/// (no version, no checksum) still load.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

fn v1_cache_schema() -> u32 {
    1
}

#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct CacheEntry {
    #[serde(default = "v1_cache_schema")]
    pub(crate) schema_version: u32,
    pub(crate) key: String,
    /// FNV-128 hex of the result's JSON encoding (absent in v1 entries).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub(crate) checksum: Option<String>,
    pub(crate) result: SimResult,
}

/// The checksum stored in v2 cache entries: FNV-128 hex of the result's
/// canonical JSON encoding.
pub fn result_checksum(result: &SimResult) -> String {
    // sms-lint: allow(E1): serializing plain data structs cannot fail
    let json = serde_json::to_string(result).expect("result serializes");
    let (h1, h2) = fnv128(json.as_bytes());
    format!("{h1:016x}{h2:016x}")
}

/// Whether an I/O error is a deterministic `sms-faults` injection rather
/// than a real filesystem failure.
fn is_injected(e: &std::io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<sms_faults::FaultError>())
}

/// What a quarantine file records about a persistently failing run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The full cache key of the failing request.
    pub key: String,
    /// Human-readable mix description.
    pub mix: String,
    /// Rendered error of the final attempt.
    pub error: String,
    /// Attempts made before giving up.
    pub attempts: u32,
}

/// A caching simulator: checks the in-memory map, then disk, then runs.
///
/// The disk layer is best-effort: on the first write failure the cache
/// warns once and degrades to memory-only operation rather than aborting
/// a sweep that may already hold hours of simulation.
#[derive(Debug, Clone)]
pub struct CachedSim {
    dir: PathBuf,
    memory: Arc<Mutex<std::collections::BTreeMap<String, SimResult>>>,
    /// Cleared on the first disk write failure (shared across clones).
    disk_ok: Arc<AtomicBool>,
    /// Key hashes quarantined through this cache instance.
    quarantined: Arc<Mutex<Vec<String>>>,
}

impl CachedSim {
    /// Open (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_owned(),
            memory: Arc::new(Mutex::new(std::collections::BTreeMap::new())),
            disk_ok: Arc::new(AtomicBool::new(true)),
            quarantined: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where quarantine records for persistently failing runs live.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Whether the disk layer is still writable (false after degrading to
    /// memory-only operation).
    pub fn disk_available(&self) -> bool {
        self.disk_ok.load(Ordering::Acquire)
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", key_hash_hex(key)))
    }

    /// Record a corrupt or unreadable on-disk entry: counted in the
    /// global `sms-obs` registry (`sms_cache_corrupt_total{kind}`) and
    /// warned about once per process.
    fn note_corrupt(path: &Path, kind: &str, detail: &str) {
        static WARNED: AtomicBool = AtomicBool::new(false);
        sms_obs::registry()
            .counter_family(
                "sms_cache_corrupt_total",
                "Cache entries rejected at lookup, by defect kind.",
                &["kind"],
            )
            .with(&[kind])
            .inc();
        if !WARNED.swap(true, Ordering::AcqRel) {
            eprintln!(
                "cache: corrupt entry {} ({kind}: {detail}); treating as a miss — \
                 run `sms fsck` to repair the cache (further corruption warnings suppressed)",
                path.display()
            );
        }
    }

    /// Look up a result without simulating. A corrupt, torn, stale, or
    /// checksum-failing on-disk entry is counted
    /// (`sms_cache_corrupt_total{kind}`), warned about once, and treated
    /// as a miss so the run is simply re-simulated.
    pub fn lookup(&self, cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec) -> Option<SimResult> {
        let key = cache_key(cfg, mix, spec);
        if let Some(hit) = self.memory.lock().get(&key) {
            return Some(hit.clone());
        }
        let path = self.path_for(&key);
        let mut data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                Self::note_corrupt(&path, "unreadable", &e.to_string());
                return None;
            }
        };
        // `cache.read` failpoint: `corrupt` flips bytes in the just-read
        // payload (caught below by the checksum), `err` turns the hit
        // into a miss.
        if sms_faults::corrupt_bytes("cache.read", &mut data).is_err() {
            return None;
        }
        let entry: CacheEntry = match serde_json::from_slice(&data) {
            Ok(entry) => entry,
            Err(e) => {
                Self::note_corrupt(&path, "torn", &e.to_string());
                return None;
            }
        };
        if entry.key != key {
            // Hash collision or a file renamed/copied into the wrong stem.
            Self::note_corrupt(&path, "stale_key", "stored key does not match request");
            return None;
        }
        if let Some(stored) = &entry.checksum {
            let actual = result_checksum(&entry.result);
            if *stored != actual {
                Self::note_corrupt(&path, "checksum", "payload checksum mismatch");
                return None;
            }
        }
        self.memory.lock().insert(key, entry.result.clone());
        Some(entry.result)
    }

    /// Insert a freshly computed result. Never fails: a disk error
    /// degrades the cache to memory-only with a single warning.
    pub fn insert(&self, cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec, result: &SimResult) {
        let key = cache_key(cfg, mix, spec);
        self.memory.lock().insert(key.clone(), result.clone());
        if !self.disk_ok.load(Ordering::Acquire) {
            return;
        }
        let entry = CacheEntry {
            schema_version: CACHE_SCHEMA_VERSION,
            key: key.clone(),
            checksum: Some(result_checksum(result)),
            result: result.clone(),
        };
        let path = self.path_for(&key);
        // Write via a temp file so interrupted runs never leave torn JSON.
        // The temp name is unique per writer (pid + sequence): concurrent
        // inserts of the *same* key must not race on a shared `.tmp` path,
        // or one writer's rename can publish another's half-written file.
        // sms-lint: atomic(counter): unique temp-name sequence; no data it guards
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            key_hash_hex(&key),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let write = || -> std::io::Result<()> {
            use std::io::Write as _;
            sms_faults::check_io("cache.write")?;
            let mut buf = serde_json::to_vec(&entry).map_err(std::io::Error::other)?;
            // `corrupt` rules damage the serialized payload before it hits
            // disk; `lookup` and `sms fsck` must catch it via the checksum.
            sms_faults::corrupt_bytes("cache.write", &mut buf)?;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&buf)?;
            // Sync before the rename publishes the entry: a crash must
            // never expose a name whose bytes were not yet durable.
            file.sync_data()?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            let _ = std::fs::remove_file(&tmp);
            if is_injected(&e) {
                // An injected write fault drops this entry's disk copy
                // (the memory layer still serves it) without degrading the
                // whole cache; a later `sms resume` re-simulates it.
                eprintln!("cache: dropping disk write of {} ({e})", path.display());
            } else {
                self.degrade_disk(&e);
            }
        }
    }

    /// Release a key from quarantine (memory record and on-disk file) —
    /// called when a previously failing run later succeeds, so a resumed
    /// sweep converges to the same final state as a fault-free one.
    pub fn absolve(&self, key_hash: &str) {
        self.quarantined.lock().retain(|h| h != key_hash);
        let _ = std::fs::remove_file(self.quarantine_dir().join(format!("{key_hash}.json")));
    }

    /// Warn once and switch to memory-only operation.
    fn degrade_disk(&self, err: &dyn std::fmt::Display) {
        if self.disk_ok.swap(false, Ordering::AcqRel) {
            eprintln!(
                "cache: disk layer unwritable ({err}); continuing memory-only — \
                 results of this process will not persist"
            );
        }
    }

    /// Record a persistently failing run under `quarantine/`, returning
    /// the key hash. Best-effort on disk; always tracked in memory.
    pub fn quarantine(
        &self,
        cfg: &SystemConfig,
        mix: &MixSpec,
        spec: RunSpec,
        error: &SimError,
        attempts: u32,
    ) -> String {
        let key = cache_key(cfg, mix, spec);
        let hash = key_hash_hex(&key);
        self.quarantined.lock().push(hash.clone());
        if !self.disk_ok.load(Ordering::Acquire) {
            return hash;
        }
        let record = QuarantineRecord {
            key,
            mix: mix_label(mix),
            error: error.to_string(),
            attempts,
        };
        let dir = self.quarantine_dir();
        let write = || -> std::io::Result<()> {
            sms_faults::check_io("cache.quarantine")?;
            std::fs::create_dir_all(&dir)?;
            let json = serde_json::to_string_pretty(&record).map_err(std::io::Error::other)?;
            std::fs::write(dir.join(format!("{hash}.json")), json)
        };
        if let Err(e) = write() {
            if is_injected(&e) {
                // An injected failure costs only this record's disk copy,
                // not the whole cache's disk layer.
                eprintln!("quarantine: dropping disk record {hash} ({e})");
            } else {
                self.degrade_disk(&e);
            }
        }
        hash
    }

    /// Number of quarantined entries visible to this cache: those recorded
    /// through this instance plus any `quarantine/` files on disk.
    pub fn quarantine_count(&self) -> usize {
        let mut seen: std::collections::BTreeSet<String> =
            self.quarantined.lock().iter().cloned().collect();
        if let Ok(rd) = std::fs::read_dir(self.quarantine_dir()) {
            for entry in rd.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "json") {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        seen.insert(stem.to_owned());
                    }
                }
            }
        }
        seen.len()
    }

    /// Number of entries currently in the in-memory layer.
    pub fn memory_len(&self) -> usize {
        self.memory.lock().len()
    }
}

impl Simulate for CachedSim {
    fn run_mix(
        &mut self,
        cfg: &SystemConfig,
        mix: &MixSpec,
        spec: RunSpec,
    ) -> Result<SimResult, SimError> {
        if let Some(hit) = self.lookup(cfg, mix, spec) {
            return Ok(hit);
        }
        let result = DirectSim.run_mix(cfg, mix, spec)?;
        self.insert(cfg, mix, spec, &result);
        Ok(result)
    }
}

/// What [`execute_plan`] reports back to its caller. `failed` is the
/// number of quarantined runs — zero means the cache now covers the whole
/// plan.
#[derive(Debug, Clone)]
#[must_use = "inspect `failed` to detect quarantined runs"]
pub struct PlanSummary {
    /// Plan size.
    pub total: usize,
    /// Entries already cached before execution.
    pub cached: usize,
    /// Entries simulated successfully this invocation.
    pub simulated: usize,
    /// Entries quarantined after exhausting retries.
    pub failed: usize,
    /// Retry attempts consumed across all entries.
    pub retries: usize,
    /// Wall-clock seconds for the invocation.
    pub wall_seconds: f64,
    /// Busy time over `workers * wall` (0..1).
    pub worker_utilization: f64,
    /// Where the JSON run-manifest was written, when it was.
    pub manifest_path: Option<PathBuf>,
}

/// Default retry budget per failing run; override with `SMS_RETRIES`.
pub fn default_retries() -> u32 {
    std::env::var("SMS_RETRIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Knobs for one executor invocation. Tests construct these explicitly;
/// `execute_plan` reads them from the environment via [`Self::from_env`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Retry budget per failing run.
    pub retries: u32,
    /// Watchdog deadline per run attempt: an attempt still running after
    /// this long is abandoned and the run quarantined as hung. `None`
    /// disables the watchdog (runs execute on the worker thread itself).
    pub run_timeout: Option<Duration>,
}

impl ExecOptions {
    /// Options with the given retry budget and no watchdog.
    pub fn with_retries(retries: u32) -> Self {
        Self {
            retries,
            run_timeout: None,
        }
    }

    /// Read `SMS_RETRIES` (default 1) and `SMS_RUN_TIMEOUT_SECS` (0 or
    /// unset disables the watchdog).
    pub fn from_env() -> Self {
        let run_timeout = std::env::var("SMS_RUN_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&secs| secs > 0)
            .map(Duration::from_secs);
        Self {
            retries: default_retries(),
            run_timeout,
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One panic-isolated attempt of `run_fn`, with the `run.body` failpoint
/// evaluated inside the isolation boundary (so injected panics are caught
/// like real ones and injected errors surface as [`SimError::Injected`]).
fn attempt_run<F>(
    run_fn: &F,
    cfg: &SystemConfig,
    mix: &MixSpec,
    spec: RunSpec,
) -> Result<SimResult, SimError>
where
    F: Fn(&SystemConfig, &MixSpec, RunSpec) -> Result<SimResult, SimError>,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| {
        if let Err(e) = sms_faults::check("run.body") {
            return Err(SimError::Injected(e.to_string()));
        }
        run_fn(cfg, mix, spec)
    }))
    .unwrap_or_else(|payload| Err(SimError::Panicked(panic_message(payload.as_ref()))))
}

/// Execute one plan entry with panic isolation, an optional watchdog
/// deadline, and bounded retries, then record the outcome (cache insert
/// or quarantine, journal line) and telemetry.
#[allow(clippy::too_many_arguments)]
fn run_one<F>(
    cache: &CachedSim,
    cfg: &SystemConfig,
    mix: &MixSpec,
    spec: RunSpec,
    opts: ExecOptions,
    run_fn: &Arc<F>,
    telemetry: &Telemetry,
    journal: Option<&PlanJournal>,
) where
    F: Fn(&SystemConfig, &MixSpec, RunSpec) -> Result<SimResult, SimError> + Send + Sync + 'static,
{
    let _span = sms_obs::tracer()
        .span("run_one", "bench")
        .arg("mix", &mix_label(mix))
        .arg("cores", &cfg.num_cores.to_string());
    let started = Instant::now();
    let mut attempts = 0u32;
    let outcome = loop {
        attempts += 1;
        let attempt = match opts.run_timeout {
            None => attempt_run(run_fn.as_ref(), cfg, mix, spec),
            Some(deadline) => {
                // Watchdog: run the attempt on a detached thread and wait
                // with a deadline. On timeout the thread is abandoned (its
                // eventual send fails silently — the receiver is gone — so
                // a late result can never reach the cache) and the run is
                // quarantined as hung without killing the worker.
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let run_fn = Arc::clone(run_fn);
                let cfg_own = cfg.clone();
                let mix_own = mix.clone();
                std::thread::spawn(move || {
                    let _ = tx.send(attempt_run(run_fn.as_ref(), &cfg_own, &mix_own, spec));
                });
                match rx.recv_timeout(deadline) {
                    Ok(result) => result,
                    Err(_) => {
                        // Mark the stall instant in the trace, then give up
                        // on this entry entirely: a hang is not transient,
                        // so retrying would just burn another deadline.
                        sms_obs::tracer().instant("hung", "bench");
                        break Err(SimError::Hung {
                            deadline_ms: deadline.as_millis() as u64,
                        });
                    }
                }
            }
        };
        match attempt {
            Ok(result) => break Ok(result),
            Err(_) if attempts <= opts.retries => {
                sms_obs::tracer().instant("retry", "bench");
                telemetry.record_retry();
            }
            Err(e) => break Err(e),
        }
    };
    let wall = started.elapsed().as_secs_f64();
    let key_hash = key_hash_hex(&cache_key(cfg, mix, spec));
    let record = match outcome {
        Ok(result) => {
            cache.insert(cfg, mix, spec, &result);
            // A success releases any quarantine record left by an earlier
            // (crashed or faulted) invocation of the same plan entry.
            cache.absolve(&key_hash);
            if let Some(journal) = journal {
                journal.append_best_effort(&JournalLine::Run {
                    key_hash: key_hash.clone(),
                    status: RunStatus::Ok,
                });
            }
            RunRecord {
                key_hash,
                mix: mix_label(mix),
                cores: cfg.num_cores,
                status: RunStatus::Ok,
                attempts,
                wall_seconds: wall,
                summary: Some(RunSummary::from_result(cfg, &result)),
                error: None,
            }
        }
        Err(e) => {
            cache.quarantine(cfg, mix, spec, &e, attempts);
            if let Some(journal) = journal {
                journal.append_best_effort(&JournalLine::Run {
                    key_hash: key_hash.clone(),
                    status: RunStatus::Quarantined,
                });
            }
            RunRecord {
                key_hash,
                mix: mix_label(mix),
                cores: cfg.num_cores,
                status: RunStatus::Quarantined,
                attempts,
                wall_seconds: wall,
                summary: None,
                error: Some(e.to_string()),
            }
        }
    };
    telemetry.record(record);
}

/// Execute a run plan into the cache, using up to `threads` worker
/// threads (capped, with a notice, by available parallelism);
/// already-cached entries are skipped. Each run is isolated: panics are
/// caught, failures retried up to `SMS_RETRIES` times (default 1), and
/// persistent failures quarantined while the rest of the plan completes.
/// A JSON run-manifest is written under `<cache>/manifests/`.
pub fn execute_plan(
    cache: &CachedSim,
    plan: &[(SystemConfig, MixSpec)],
    spec: RunSpec,
    threads: usize,
    label: &str,
) -> PlanSummary {
    execute_plan_with(
        cache,
        plan,
        spec,
        threads,
        label,
        ExecOptions::from_env(),
        |cfg, mix, spec| DirectSim.run_mix(cfg, mix, spec),
    )
}

/// [`execute_plan`] with explicit [`ExecOptions`] and an injectable run
/// function — the seam fault-injection and determinism tests use.
///
/// Progress is journaled best-effort to `<cache>/journal/<label>.jsonl`
/// (one fsync'd line per terminal run state, a `done` line at the end) so
/// a killed invocation can be resumed by `sms resume`.
pub fn execute_plan_with<F>(
    cache: &CachedSim,
    plan: &[(SystemConfig, MixSpec)],
    spec: RunSpec,
    threads: usize,
    label: &str,
    opts: ExecOptions,
    run_fn: F,
) -> PlanSummary
where
    F: Fn(&SystemConfig, &MixSpec, RunSpec) -> Result<SimResult, SimError> + Send + Sync + 'static,
{
    execute(cache, plan, spec, threads, label, opts, run_fn, |_| {})
}

/// The executor behind [`execute_plan_with`]; `amend` sees the finished
/// manifest before its single write (how
/// [`execute_plan_observed`](crate::observe::execute_plan_observed) embeds
/// the aggregate profile).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<F>(
    cache: &CachedSim,
    plan: &[(SystemConfig, MixSpec)],
    spec: RunSpec,
    threads: usize,
    label: &str,
    opts: ExecOptions,
    run_fn: F,
    amend: impl FnOnce(&mut RunManifest),
) -> PlanSummary
where
    F: Fn(&SystemConfig, &MixSpec, RunSpec) -> Result<SimResult, SimError> + Send + Sync + 'static,
{
    let run_fn = Arc::new(run_fn);
    let journal = match PlanJournal::open_append(cache.dir(), label) {
        Ok(journal) => Some(journal),
        Err(e) => {
            eprintln!("[{label}] warning: cannot open plan journal: {e}");
            None
        }
    };
    let plan_span = sms_obs::tracer()
        .span("execute_plan", "bench")
        .arg("label", label)
        .arg("runs", &plan.len().to_string());
    let todo: Vec<&(SystemConfig, MixSpec)> = plan
        .iter()
        .filter(|(cfg, mix)| cache.lookup(cfg, mix, spec).is_none())
        .collect();
    let cached = plan.len() - todo.len();
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = threads.min(available).max(1).min(todo.len().max(1));
    let telemetry = Telemetry::start(label, workers, plan.len(), cached);
    if todo.is_empty() {
        eprintln!("[{label}] all {} runs cached", plan.len());
    } else {
        if workers < threads {
            eprintln!(
                "[{label}] note: {threads} threads requested, running {workers} \
                 (available parallelism {available}, {} runs)",
                todo.len()
            );
        }
        eprintln!(
            "[{label}] {} of {} runs to simulate on {workers} thread(s)",
            todo.len(),
            plan.len()
        );
        // sms-lint: atomic(counter): work-ticket dispenser, guards no other data
        let next = AtomicUsize::new(0);
        // Shadow with references so each worker's `move` closure copies a
        // shared borrow instead of trying to move the value out of the loop.
        let next = &next;
        let todo = &todo;
        let run_fn = &run_fn;
        let telemetry_ref = &telemetry;
        let journal_ref = journal.as_ref();
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= todo.len() {
                        break;
                    }
                    let (cfg, mix) = todo[i];
                    run_one(
                        cache,
                        cfg,
                        mix,
                        spec,
                        opts,
                        run_fn,
                        telemetry_ref,
                        journal_ref,
                    );
                });
            }
        })
        // sms-lint: allow(E1): scope() only errs when a worker leaks a panic, and run_one catches them
        .expect("executor worker threads are panic-isolated");
    }
    let mut manifest = telemetry.finish();
    amend(&mut manifest);
    if let Some(journal) = &journal {
        journal.append_best_effort(&JournalLine::Done {
            simulated: manifest.simulated,
            failed: manifest.failed,
        });
    }
    let manifest_path = write_manifest(cache.dir(), &manifest);
    // Close the invocation span before flushing so it appears in its own
    // trace file when tracing is on.
    drop(plan_span);
    let _ = write_trace(cache.dir(), label);
    if manifest.failed > 0 {
        eprintln!(
            "[{label}] {} run(s) failed after retries; see {} and the manifest",
            manifest.failed,
            cache.quarantine_dir().display()
        );
    }
    PlanSummary {
        total: manifest.total_runs,
        cached: manifest.cached,
        simulated: manifest.simulated,
        failed: manifest.failed,
        retries: manifest.retries,
        wall_seconds: manifest.wall_seconds,
        worker_utilization: manifest.worker_utilization,
        manifest_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RunManifest;
    use sms_sim::system::RunSpec;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::target_32core();
        cfg.num_cores = 1;
        cfg.llc.num_slices = 1;
        cfg.noc.mesh_cols = 1;
        cfg.noc.mesh_rows = 1;
        cfg.dram.num_controllers = 1;
        cfg
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sms-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A deterministic stand-in simulation: results derived purely from
    /// the cache key, with zero host time.
    fn fake_run(cfg: &SystemConfig, mix: &MixSpec, spec: RunSpec) -> Result<SimResult, SimError> {
        let (h1, h2) = fnv128(cache_key(cfg, mix, spec).as_bytes());
        Ok(SimResult {
            cores: vec![],
            elapsed_cycles: h1 % 100_000 + 1,
            total_dram_bytes: h2 % 977 * 64,
            total_bandwidth_gbps: (h1 % 64) as f64,
            noc_transfers: h1 % 311,
            noc_crossings: h2 % 173,
            llc_accesses: h1 % 997,
            llc_hits: h1 % 499,
            host_seconds: 0.0,
        })
    }

    fn spec_n(n: u64) -> RunSpec {
        RunSpec {
            warmup_instructions: 0,
            measure_instructions: n,
        }
    }

    fn fake_plan(names: &[&str]) -> Vec<(SystemConfig, MixSpec)> {
        let cfg = tiny_cfg();
        names
            .iter()
            .map(|n| (cfg.clone(), MixSpec::homogeneous(n, 1, 7)))
            .collect()
    }

    #[test]
    fn cache_round_trip_and_hit() {
        let dir = tmpdir("rt");
        let mut sim = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        let spec = RunSpec {
            warmup_instructions: 1000,
            measure_instructions: 20_000,
        };
        assert!(sim.lookup(&cfg, &mix, spec).is_none());
        let a = sim.run_mix(&cfg, &mix, spec).unwrap();
        let b = sim.lookup(&cfg, &mix, spec).expect("cached now");
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);

        // A fresh instance must hit the on-disk layer.
        let fresh = CachedSim::open(&dir).unwrap();
        let c = fresh.lookup(&cfg, &mix, spec).expect("disk hit");
        assert_eq!(a.cores[0].cycles, c.cores[0].cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_requests_get_distinct_entries() {
        let dir = tmpdir("distinct");
        let mut sim = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let spec = spec_n(10_000);
        let a = sim
            .run_mix(&cfg, &MixSpec::homogeneous("leela_r", 1, 1), spec)
            .unwrap();
        let b = sim
            .run_mix(&cfg, &MixSpec::homogeneous("lbm_r", 1, 1), spec)
            .unwrap();
        assert_ne!(a.cores[0].label, b.cores[0].label);
        assert_eq!(sim.memory_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_plan_fills_cache() {
        let dir = tmpdir("plan");
        let cache = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let spec = spec_n(5_000);
        let plan: Vec<(SystemConfig, MixSpec)> = ["leela_r", "lbm_r", "mcf_r"]
            .iter()
            .map(|n| (cfg.clone(), MixSpec::homogeneous(n, 1, 7)))
            .collect();
        let summary = execute_plan(&cache, &plan, spec, 4, "test");
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.simulated, 3);
        for (c, m) in &plan {
            assert!(cache.lookup(c, m, spec).is_some());
        }
        // Second execution is a no-op (covered entries skipped).
        let again = execute_plan(&cache, &plan, spec, 4, "test");
        assert_eq!(again.cached, 3);
        assert_eq!(again.simulated, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_distinguishes_spec() {
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        assert_ne!(
            cache_key(&cfg, &mix, spec_n(1)),
            cache_key(&cfg, &mix, spec_n(2))
        );
    }

    #[test]
    fn fnv128_spreads() {
        let (a1, a2) = fnv128(b"hello");
        let (b1, b2) = fnv128(b"hellp");
        assert!(a1 != b1 || a2 != b2);
    }

    #[test]
    fn panicking_run_is_quarantined_and_plan_completes() {
        // The acceptance scenario: one plan entry always panics. The plan
        // must complete the other runs, quarantine the failure, report it
        // in the JSON manifest, and return a nonzero failure count — all
        // without aborting the process.
        let dir = tmpdir("quarantine");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "boom", "mcf_r"]);
        let summary = execute_plan_with(
            &cache,
            &plan,
            spec,
            2,
            "faulty",
            ExecOptions::with_retries(1),
            |cfg, mix, spec| {
                if mix.benchmarks[0] == "boom" {
                    panic!("injected fault");
                }
                fake_run(cfg, mix, spec)
            },
        );
        assert_eq!(summary.total, 3);
        assert_eq!(summary.simulated, 2);
        assert_eq!(summary.failed, 1, "the panicking run must be counted");
        assert_eq!(summary.retries, 1, "one retry before quarantine");
        assert!(cache.lookup(&plan[0].0, &plan[0].1, spec).is_some());
        assert!(cache.lookup(&plan[2].0, &plan[2].1, spec).is_some());
        assert!(cache.lookup(&plan[1].0, &plan[1].1, spec).is_none());
        assert_eq!(cache.quarantine_count(), 1);

        // The quarantine record carries the panic message.
        let qdir = cache.quarantine_dir();
        let entry = std::fs::read_dir(&qdir).unwrap().next().unwrap().unwrap();
        let record: QuarantineRecord =
            serde_json::from_str(&std::fs::read_to_string(entry.path()).unwrap()).unwrap();
        assert!(record.error.contains("injected fault"), "{}", record.error);
        assert_eq!(record.attempts, 2);

        // And the manifest reports the failure.
        let manifest = RunManifest::load(summary.manifest_path.expect("manifest written")).unwrap();
        assert_eq!(manifest.failed, 1);
        assert_eq!(manifest.failed_keys.len(), 1);
        assert!(manifest.worker_utilization >= 0.0 && manifest.worker_utilization <= 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failure_is_retried_to_success() {
        let dir = tmpdir("retry");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "lbm_r"]);
        let failed_once = Mutex::new(std::collections::HashSet::new());
        let summary = execute_plan_with(
            &cache,
            &plan,
            spec,
            1,
            "flaky",
            ExecOptions::with_retries(1),
            move |cfg, mix, spec| {
                if failed_once.lock().insert(mix.benchmarks[0].clone()) {
                    return Err(SimError::Panicked("transient".to_owned()));
                }
                fake_run(cfg, mix, spec)
            },
        );
        assert_eq!(summary.simulated, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.retries, 2, "each run failed exactly once");
        assert_eq!(cache.quarantine_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_inserts_never_tear() {
        // Regression: all writers used to share `<hash>.tmp`, so two
        // threads inserting the same key could interleave writes and
        // publish a torn file. Unique per-writer temp names make the
        // rename atomic regardless of interleaving.
        let dir = tmpdir("race");
        let cache = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        let spec = spec_n(5_000);
        let result = fake_run(&cfg, &mix, spec).unwrap();
        crossbeam::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|_| {
                    for _ in 0..25 {
                        cache.insert(&cfg, &mix, spec, &result);
                    }
                });
            }
        })
        .unwrap();
        // No temp litter, and a fresh instance reads back intact JSON.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let fresh = CachedSim::open(&dir).unwrap();
        let back = fresh.lookup(&cfg, &mix, spec).expect("intact entry");
        assert_eq!(back.elapsed_cycles, result.elapsed_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_disk_degrades_to_memory_only() {
        let dir = tmpdir("degrade");
        let cache = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        let spec = spec_n(5_000);
        // Replace the cache directory with a plain file: every disk write
        // now fails, even for root.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let result = fake_run(&cfg, &mix, spec).unwrap();
        cache.insert(&cfg, &mix, spec, &result);
        assert!(!cache.disk_available(), "first failure must degrade");
        // The memory layer still serves, and further inserts are silent.
        assert!(cache.lookup(&cfg, &mix, spec).is_some());
        cache.insert(&cfg, &MixSpec::homogeneous("lbm_r", 1, 1), spec, &result);
        assert_eq!(cache.memory_len(), 2);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn single_and_multi_threaded_plans_cache_identically() {
        // Determinism: executing the same plan with 1 thread and with N
        // threads must produce byte-identical cache files (scheduling must
        // not leak into results).
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "lbm_r", "mcf_r", "gcc_r", "x264_r", "nab_r"]);
        let snapshot = |tag: &str, threads: usize| {
            let dir = tmpdir(tag);
            let cache = CachedSim::open(&dir).unwrap();
            let summary = execute_plan_with(
                &cache,
                &plan,
                spec,
                threads,
                tag,
                ExecOptions::with_retries(0),
                fake_run,
            );
            assert_eq!(summary.failed, 0);
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .filter(|e| e.path().is_file())
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            let _ = std::fs::remove_dir_all(&dir);
            files
        };
        let serial = snapshot("det-serial", 1);
        let parallel = snapshot("det-parallel", 4);
        assert_eq!(serial.len(), plan.len());
        assert_eq!(
            serial, parallel,
            "cache contents must not depend on thread count"
        );
    }

    #[test]
    fn hung_run_is_quarantined_within_deadline_and_plan_completes() {
        // The watchdog acceptance scenario: one entry stalls forever. The
        // executor must abandon it at the deadline, quarantine it as hung
        // without retrying (a hang is not transient), and finish the rest
        // of the plan promptly.
        let dir = tmpdir("hung");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "stall", "mcf_r"]);
        let opts = ExecOptions {
            retries: 3,
            run_timeout: Some(Duration::from_millis(150)),
        };
        let started = Instant::now();
        let summary = execute_plan_with(&cache, &plan, spec, 2, "hangs", opts, |cfg, mix, spec| {
            if mix.benchmarks[0] == "stall" {
                std::thread::sleep(Duration::from_secs(600));
            }
            fake_run(cfg, mix, spec)
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the watchdog must not wait out the stall"
        );
        assert_eq!(summary.simulated, 2);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.retries, 0, "hung runs are not retried");
        assert_eq!(cache.quarantine_count(), 1);
        let qdir = cache.quarantine_dir();
        let entry = std::fs::read_dir(&qdir).unwrap().next().unwrap().unwrap();
        let record: QuarantineRecord =
            serde_json::from_str(&std::fs::read_to_string(entry.path()).unwrap()).unwrap();
        assert!(record.error.contains("hung"), "{}", record.error);
        assert!(record.error.contains("150ms"), "{}", record.error);
        assert_eq!(record.attempts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_leaves_healthy_runs_untouched() {
        // With a generous deadline every run completes on the detached
        // attempt thread and results flow back unchanged.
        let dir = tmpdir("healthy-watchdog");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "lbm_r"]);
        let opts = ExecOptions {
            retries: 0,
            run_timeout: Some(Duration::from_secs(60)),
        };
        let summary = execute_plan_with(&cache, &plan, spec, 2, "healthy", opts, fake_run);
        assert_eq!(summary.simulated, 2);
        assert_eq!(summary.failed, 0);
        for (c, m) in &plan {
            assert!(cache.lookup(c, m, spec).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_miss_and_resimulated() {
        let dir = tmpdir("corrupt");
        let cache = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        let spec = spec_n(5_000);
        let result = fake_run(&cfg, &mix, spec).unwrap();
        cache.insert(&cfg, &mix, spec, &result);

        // Flip a byte inside the stored result payload.
        let path = dir.join(format!(
            "{}.json",
            key_hash_hex(&cache_key(&cfg, &mix, spec))
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.len() - 10;
        bytes[pos] ^= 0x5a;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh instance (no memory copy) must reject the entry...
        let fresh = CachedSim::open(&dir).unwrap();
        assert!(
            fresh.lookup(&cfg, &mix, spec).is_none(),
            "corrupt entry must miss"
        );
        // ...count it in the global registry...
        let reg: serde_json::Value = serde_json::from_str(&sms_obs::registry().to_json()).unwrap();
        let total: f64 = reg["sms_cache_corrupt_total"]["samples"]
            .as_array()
            .expect("corrupt counter family exists")
            .iter()
            .map(|s| s["value"].as_f64().unwrap())
            .sum();
        assert!(total >= 1.0, "corruption must be counted, got {total}");
        // ...and a fresh insert repairs the file in place.
        fresh.insert(&cfg, &mix, spec, &result);
        let repaired = CachedSim::open(&dir).unwrap();
        let back = repaired
            .lookup(&cfg, &mix, spec)
            .expect("repaired entry loads");
        assert_eq!(back.elapsed_cycles, result.elapsed_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_cache_entries_without_checksum_still_load() {
        let dir = tmpdir("v1");
        let cache = CachedSim::open(&dir).unwrap();
        let cfg = tiny_cfg();
        let mix = MixSpec::homogeneous("leela_r", 1, 1);
        let spec = spec_n(5_000);
        let result = fake_run(&cfg, &mix, spec).unwrap();
        cache.insert(&cfg, &mix, spec, &result);

        // Strip the v2 fields, emulating a pre-checksum cache file.
        let path = dir.join(format!(
            "{}.json",
            key_hash_hex(&cache_key(&cfg, &mix, spec))
        ));
        let mut v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("schema_version");
        obj.remove("checksum");
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();

        let fresh = CachedSim::open(&dir).unwrap();
        let back = fresh.lookup(&cfg, &mix, spec).expect("v1 entry loads");
        assert_eq!(back.elapsed_cycles, result.elapsed_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn success_absolves_an_earlier_quarantine() {
        // A key quarantined by a previous (faulted) invocation must be
        // released when a later invocation simulates it successfully —
        // otherwise a resumed sweep could never converge to the fault-free
        // final state.
        let dir = tmpdir("absolve");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r"]);
        let (cfg, mix) = &plan[0];
        cache.quarantine(
            cfg,
            mix,
            spec,
            &SimError::Panicked("earlier crash".into()),
            2,
        );
        assert_eq!(cache.quarantine_count(), 1);
        let summary = execute_plan_with(
            &cache,
            &plan,
            spec,
            1,
            "absolve",
            ExecOptions::with_retries(0),
            fake_run,
        );
        assert_eq!(summary.simulated, 1);
        assert_eq!(cache.quarantine_count(), 0, "success must clear the record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_journals_runs_and_completion() {
        let dir = tmpdir("journal");
        let cache = CachedSim::open(&dir).unwrap();
        let spec = spec_n(5_000);
        let plan = fake_plan(&["leela_r", "boom", "mcf_r"]);
        let summary = execute_plan_with(
            &cache,
            &plan,
            spec,
            1,
            "journaled",
            ExecOptions::with_retries(0),
            |cfg, mix, spec| {
                if mix.benchmarks[0] == "boom" {
                    return Err(SimError::Panicked("boom".to_owned()));
                }
                fake_run(cfg, mix, spec)
            },
        );
        assert_eq!(summary.failed, 1);
        let replayed = crate::journal::replay(cache.dir(), "journaled").unwrap();
        assert_eq!(replayed.completed.len(), 2);
        assert_eq!(replayed.quarantined.len(), 1);
        assert!(replayed.done, "a finished invocation must journal `done`");
        assert_eq!(replayed.torn_lines, 0);
        assert!(replayed.header.is_none(), "bare executor writes no header");

        // Re-running with a healthy run function re-simulates the failed
        // entry; the journal's latest state absorbs the success.
        let again = execute_plan_with(
            &cache,
            &plan,
            spec,
            1,
            "journaled",
            ExecOptions::with_retries(0),
            fake_run,
        );
        assert_eq!(again.failed, 0);
        let replayed = crate::journal::replay(cache.dir(), "journaled").unwrap();
        assert_eq!(replayed.completed.len(), 3);
        assert!(replayed.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
