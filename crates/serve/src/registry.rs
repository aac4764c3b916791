//! Model registry: the on-disk collection of trained artifacts the
//! server loads at startup, with self-healing load paths.
//!
//! Artifacts live under `<results>/cache/models/` (next to the
//! simulation-result cache, written by `sms train --save`). The registry
//! scans that directory and validates every `*.json` with the full
//! [`ModelArtifact::load`] checks. Loads are resilient in two ways:
//!
//! * **Transient failures retry.** Every load goes through a bounded
//!   retry loop with deterministic jittered backoff (the jitter is a pure
//!   function of the path and attempt number, so chaos tests replay
//!   identically). I/O errors — including ones injected at the
//!   `artifact.load` failpoint — are treated as transient; a file that
//!   stays unreadable is parked on a pending list and re-probed later.
//! * **Corrupt artifacts quarantine.** A file that reads fine but fails
//!   validation (bad schema, version, or checksum) is moved to
//!   `<dir>/quarantine/` with a `<file>.reason.json` record — the PR 1 /
//!   PR 4 cache idiom — so one corrupt artifact can never take the
//!   service down or be re-parsed on every scan. Periodic re-probes
//!   ([`ModelRegistry::maybe_reprobe`], driven by the server's re-probe
//!   thread) retry quarantined files; a repaired file is absolved
//!   automatically: moved back, re-registered, its reason record deleted.
//!
//! Quarantine and absolution counts surface as
//! `sms_serve_artifact_quarantined_total` /
//! `sms_serve_artifact_absolved_total` via [`ModelRegistry::stats`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;
use std::time::{Duration, Instant};

use sms_core::artifact::{ArtifactError, ModelArtifact};

use crate::api::ModelInfo;
use crate::queue::lock;

/// The models directory convention under a results root:
/// `<results>/cache/models`.
pub fn models_dir(results_root: &Path) -> PathBuf {
    results_root.join("cache").join("models")
}

/// Load attempts per file before declaring a transient failure sticky.
const LOAD_ATTEMPTS: u32 = 3;

/// Counters describing the registry's self-healing activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Artifacts moved to quarantine since the registry opened.
    pub quarantined_total: u64,
    /// Quarantined artifacts that recovered and were re-registered.
    pub absolved_total: u64,
    /// Load attempts beyond each file's first (retries after transient
    /// failures).
    pub load_retries_total: u64,
    /// Files currently parked on the transient-failure pending list.
    pub pending: usize,
}

#[derive(Debug, Default)]
struct RegistryState {
    models: BTreeMap<String, Arc<ModelArtifact>>,
    /// Files whose last load failed transiently; re-probed periodically.
    pending: Vec<PathBuf>,
    last_probe: Option<Instant>,
}

/// An in-memory index of validated model artifacts (interior-mutable:
/// the server re-probes through a shared reference).
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    state: Mutex<RegistryState>,
    // sms-lint: atomic(counter): quarantine tally, exported via stats()
    quarantined_total: AtomicU64,
    // sms-lint: atomic(counter): absolve tally, exported via stats()
    absolved_total: AtomicU64,
    // sms-lint: atomic(counter): load-retry tally, exported via stats()
    load_retries_total: AtomicU64,
}

impl ModelRegistry {
    /// Open a registry over `dir`, creating the directory if missing and
    /// scanning it for artifacts.
    ///
    /// # Errors
    ///
    /// Fails only when the directory cannot be created or listed;
    /// individually invalid artifact files are quarantined (or parked for
    /// re-probing) with a warning.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let registry = Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(RegistryState::default()),
            quarantined_total: AtomicU64::new(0),
            absolved_total: AtomicU64::new(0),
            load_retries_total: AtomicU64::new(0),
        };
        registry.rescan()?;
        Ok(registry)
    }

    /// An empty registry with no backing directory scan (for tests and
    /// in-process composition via [`ModelRegistry::insert`]).
    pub fn in_memory() -> Self {
        Self {
            dir: PathBuf::new(),
            state: Mutex::new(RegistryState::default()),
            quarantined_total: AtomicU64::new(0),
            absolved_total: AtomicU64::new(0),
            load_retries_total: AtomicU64::new(0),
        }
    }

    /// Re-scan the backing directory, replacing the in-memory index.
    /// Returns the number of valid artifacts loaded.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be listed.
    pub fn rescan(&self) -> std::io::Result<usize> {
        let mut models = BTreeMap::new();
        let mut pending = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !is_artifact_file(&path) {
                continue;
            }
            match self.load_with_retry(&path) {
                Ok(artifact) => {
                    let name = artifact.name.clone();
                    if models.insert(name.clone(), Arc::new(artifact)).is_some() {
                        eprintln!(
                            "[registry] warning: duplicate model name {name:?}; keeping {}",
                            path.display()
                        );
                    }
                }
                Err(e) if is_transient(&e) => {
                    eprintln!(
                        "[registry] warning: {} failed transiently ({e}); will re-probe",
                        path.display()
                    );
                    pending.push(path);
                }
                Err(e) => self.quarantine_file(&path, &e),
            }
        }
        let count = models.len();
        let mut state = lock(&self.state);
        state.models = models;
        state.pending = pending;
        Ok(count)
    }

    /// Register an artifact directly (no disk involved).
    pub fn insert(&self, artifact: ModelArtifact) {
        lock(&self.state)
            .models
            .insert(artifact.name.clone(), Arc::new(artifact));
    }

    /// Fetch a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelArtifact>> {
        lock(&self.state).models.get(name).cloned()
    }

    /// Summaries of every registered model, sorted by name.
    pub fn infos(&self) -> Vec<ModelInfo> {
        lock(&self.state)
            .models
            .values()
            .map(|a| ModelInfo::from_artifact(a))
            .collect()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        lock(&self.state).models.keys().cloned().collect()
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where quarantined artifacts and their reason records live.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        lock(&self.state).models.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.state).models.is_empty()
    }

    /// Self-healing counters, for the server's metric export.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            quarantined_total: self.quarantined_total.load(Ordering::Relaxed),
            absolved_total: self.absolved_total.load(Ordering::Relaxed),
            load_retries_total: self.load_retries_total.load(Ordering::Relaxed),
            pending: lock(&self.state).pending.len(),
        }
    }

    /// Run [`ModelRegistry::reprobe`] if at least `interval` has elapsed
    /// since the last probe (or none ran yet). Returns whether a probe
    /// ran. No-op for in-memory registries.
    pub fn maybe_reprobe(&self, interval: Duration) -> bool {
        if self.dir.as_os_str().is_empty() {
            return false;
        }
        {
            let mut state = lock(&self.state);
            let due = state.last_probe.is_none_or(|t| t.elapsed() >= interval);
            if !due {
                return false;
            }
            state.last_probe = Some(Instant::now());
        }
        self.reprobe();
        true
    }

    /// Retry every pending (transiently failed) file and every
    /// quarantined artifact. Pending files that now load are registered;
    /// quarantined files that now pass validation are absolved — moved
    /// back into the models directory, re-registered, their reason record
    /// removed. Returns the number of newly registered models.
    pub fn reprobe(&self) -> usize {
        let mut registered = 0;
        // Pending list first: take it, retry outside the lock, put the
        // still-failing ones back.
        let pending = std::mem::take(&mut lock(&self.state).pending);
        let mut still_pending = Vec::new();
        for path in pending {
            if !path.exists() {
                continue;
            }
            match self.load_with_retry(&path) {
                Ok(artifact) => {
                    self.insert(artifact);
                    registered += 1;
                }
                Err(e) if is_transient(&e) => still_pending.push(path),
                Err(e) => self.quarantine_file(&path, &e),
            }
        }
        lock(&self.state).pending.extend(still_pending);

        // Then the quarantine: a repaired file is absolved.
        let qdir = self.quarantine_dir();
        let Ok(entries) = std::fs::read_dir(&qdir) else {
            return registered;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !is_artifact_file(&path) {
                continue;
            }
            let Ok(artifact) = self.load_with_retry(&path) else {
                continue;
            };
            let Some(file_name) = path.file_name() else {
                continue;
            };
            let home = self.dir.join(file_name);
            if let Err(e) = std::fs::rename(&path, &home) {
                eprintln!(
                    "[registry] warning: could not absolve {}: {e}",
                    path.display()
                );
                continue;
            }
            if let Err(e) = std::fs::remove_file(reason_path(&path)) {
                // The artifact is healthy again; a stale reason record is
                // cosmetic, but note it.
                if e.kind() != std::io::ErrorKind::NotFound {
                    eprintln!(
                        "[registry] warning: could not remove reason record for {}: {e}",
                        path.display()
                    );
                }
            }
            let name = artifact.name.clone();
            self.insert(artifact);
            self.absolved_total.fetch_add(1, Ordering::Relaxed);
            registered += 1;
            eprintln!(
                "[registry] absolved model {name:?}: {} passed validation again",
                home.display()
            );
        }
        registered
    }

    /// Load `path` with up to [`LOAD_ATTEMPTS`] attempts, sleeping a
    /// deterministically jittered backoff between transient failures.
    /// Each attempt passes through the `artifact.load` failpoint.
    fn load_with_retry(&self, path: &Path) -> Result<ModelArtifact, ArtifactError> {
        let mut attempt = 0;
        loop {
            let result = sms_faults::check_io("artifact.load")
                .map_err(ArtifactError::from)
                .and_then(|()| ModelArtifact::load(path));
            match result {
                Ok(artifact) => return Ok(artifact),
                Err(e) if is_transient(&e) && attempt + 1 < LOAD_ATTEMPTS => {
                    self.load_retries_total.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff_with_jitter(path, attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Move a validation-failing artifact into quarantine with a reason
    /// record. Best-effort: when the move itself fails the file stays put
    /// (and is skipped until the next scan).
    fn quarantine_file(&self, path: &Path, error: &ArtifactError) {
        let qdir = self.quarantine_dir();
        if let Err(e) = std::fs::create_dir_all(&qdir) {
            eprintln!(
                "[registry] warning: cannot create {}: {e}; skipping {}",
                qdir.display(),
                path.display()
            );
            return;
        }
        let Some(file_name) = path.file_name() else {
            return;
        };
        let dest = qdir.join(file_name);
        if let Err(e) = std::fs::rename(path, &dest) {
            eprintln!(
                "[registry] warning: cannot quarantine {}: {e}",
                path.display()
            );
            return;
        }
        let reason = serde_json::json!({
            "artifact": file_name.to_string_lossy(),
            "error": error.to_string(),
        });
        let reason_file = reason_path(&dest);
        if let Err(e) = std::fs::write(&reason_file, reason.to_string()) {
            eprintln!(
                "[registry] warning: cannot write {}: {e}",
                reason_file.display()
            );
        }
        self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "[registry] quarantined {} -> {} ({error})",
            path.display(),
            dest.display()
        );
    }
}

/// Whether `path` looks like an artifact file: `*.json` but not a
/// quarantine reason record (`*.reason.json`).
fn is_artifact_file(path: &Path) -> bool {
    if path.extension().and_then(|e| e.to_str()) != Some("json") {
        return false;
    }
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| !n.ends_with(".reason.json"))
}

/// The reason-record path next to a quarantined artifact.
fn reason_path(quarantined: &Path) -> PathBuf {
    let mut name = quarantined
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".reason.json");
    quarantined.with_file_name(name)
}

/// Whether a load failure is worth retrying/re-probing (I/O trouble)
/// rather than quarantining (the bytes themselves are bad).
fn is_transient(e: &ArtifactError) -> bool {
    matches!(e, ArtifactError::Io(_))
}

/// Exponential backoff with deterministic jitter: attempt `n` sleeps
/// `5·2ⁿ ms` plus a jitter in `[0, 5·2ⁿ)` ms derived by hashing the path
/// and attempt (FNV-1a + splitmix64), so concurrent loads de-synchronize
/// but tests replay bit-identically.
fn backoff_with_jitter(path: &Path, attempt: u32) -> Duration {
    let base = 5u64 << attempt.min(4);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.to_string_lossy().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(attempt);
    // splitmix64 finalizer for avalanche.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    Duration::from_millis(base + h % base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_core::artifact::{ArtifactPayload, ARTIFACT_SCHEMA, ARTIFACT_SCHEMA_VERSION};
    use sms_core::features::SsMeasurement;
    use sms_core::pipeline::ExperimentConfig;
    use sms_core::predictor::{MlKind, ModelParams};
    use sms_core::regressor::{RegressionExtrapolator, ScaleModelTraining};
    use sms_ml::fit::CurveModel;

    fn tiny_artifact(name: &str) -> ModelArtifact {
        let ms_cores = vec![2u32, 4];
        let training: Vec<ScaleModelTraining> = ms_cores
            .iter()
            .map(|&cores| ScaleModelTraining {
                cores,
                rows: (0..12)
                    .map(|i| {
                        let ipc = 0.5 + (i % 6) as f64 * 0.3;
                        let bw = (i % 4) as f64 * 0.7;
                        vec![ipc, bw, bw * f64::from(cores - 1)]
                    })
                    .collect(),
                targets: (0..12)
                    .map(|i| 0.5 + (i % 6) as f64 * 0.3 - 0.02 * f64::from(cores))
                    .collect(),
            })
            .collect();
        let extrapolator = RegressionExtrapolator::train(
            MlKind::Svm,
            CurveModel::Logarithmic,
            &training,
            &ModelParams::default(),
            1234,
        );
        let mut ss_table = std::collections::BTreeMap::new();
        ss_table.insert(
            "alpha".to_owned(),
            SsMeasurement {
                ipc: 1.0,
                bandwidth: 0.8,
            },
        );
        ModelArtifact::new(
            name,
            ArtifactPayload {
                kind: MlKind::Svm,
                curve: CurveModel::Logarithmic,
                cfg: ExperimentConfig {
                    ms_cores,
                    ..ExperimentConfig::default()
                },
                extrapolator,
                ss_table,
                cv_error: Some(0.1),
                trained_on: vec!["alpha".to_owned()],
            },
        )
    }

    #[test]
    fn scans_valid_quarantines_invalid() {
        let dir = std::env::temp_dir().join(format!("sms-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        tiny_artifact("good").save_in(&dir).unwrap();
        std::fs::write(dir.join("broken.json"), "{not json").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not an artifact").unwrap();

        let registry = ModelRegistry::open(&dir).unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["good".to_owned()]);
        let infos = registry.infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].kind, "SVM");
        assert_eq!(infos[0].curve, "log");
        assert!(registry.get("good").is_some());
        assert!(registry.get("missing").is_none());
        // The invalid file was moved out of the scan path with a reason
        // record.
        assert!(!dir.join("broken.json").exists());
        assert!(registry.quarantine_dir().join("broken.json").exists());
        assert!(registry
            .quarantine_dir()
            .join("broken.json.reason.json")
            .exists());
        assert_eq!(registry.stats().quarantined_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_quarantines_then_absolves_after_repair() {
        let dir = std::env::temp_dir().join(format!("sms-registry-absolve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = tiny_artifact("healme");
        let path = artifact.save_in(&dir).unwrap();
        let good_bytes = std::fs::read(&path).unwrap();
        // Corrupt the payload without breaking the JSON: load() now fails
        // its checksum verification.
        let tampered = String::from_utf8(good_bytes.clone())
            .unwrap()
            .replace("\"cv_error\": 0.1", "\"cv_error\": 0.9");
        assert_ne!(tampered.as_bytes(), good_bytes.as_slice());
        std::fs::write(&path, &tampered).unwrap();

        let registry = ModelRegistry::open(&dir).unwrap();
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.quarantined_total, 1);
        assert_eq!(stats.absolved_total, 0);
        let qfile = registry.quarantine_dir().join(path.file_name().unwrap());
        assert!(qfile.exists());
        let reason = std::fs::read_to_string(reason_path(&qfile)).unwrap();
        assert!(reason.contains("checksum mismatch"), "{reason}");

        // A probe before repair changes nothing.
        assert_eq!(registry.reprobe(), 0);
        assert!(registry.is_empty());

        // Repair the quarantined file in place; the next probe absolves
        // it: re-registered, moved home, reason record gone.
        std::fs::write(&qfile, &good_bytes).unwrap();
        assert_eq!(registry.reprobe(), 1);
        assert_eq!(registry.names(), vec!["healme".to_owned()]);
        assert!(path.exists());
        assert!(!qfile.exists());
        assert!(!reason_path(&qfile).exists());
        assert_eq!(registry.stats().absolved_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_reprobe_respects_interval() {
        let dir =
            std::env::temp_dir().join(format!("sms-registry-interval-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir).unwrap();
        // First call probes, an immediate second call is debounced.
        assert!(registry.maybe_reprobe(Duration::from_secs(3600)));
        assert!(!registry.maybe_reprobe(Duration::from_secs(3600)));
        // In-memory registries never probe.
        assert!(!ModelRegistry::in_memory().maybe_reprobe(Duration::ZERO));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_creates_missing_directory() {
        let dir = std::env::temp_dir()
            .join(format!("sms-registry-new-{}", std::process::id()))
            .join("cache")
            .join("models");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir).unwrap();
        assert!(registry.is_empty());
        assert!(dir.is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_constants_are_wired() {
        // The registry depends on load()'s envelope checks; pin the
        // constants it relies on.
        assert_eq!(ARTIFACT_SCHEMA, "sms-model-artifact");
        assert_eq!(ARTIFACT_SCHEMA_VERSION, 1);
        assert_eq!(
            models_dir(Path::new("results")),
            Path::new("results").join("cache").join("models")
        );
    }

    #[test]
    fn in_memory_insert_and_lookup() {
        let registry = ModelRegistry::in_memory();
        registry.insert(tiny_artifact("mem"));
        assert_eq!(registry.len(), 1);
        let a = registry.get("mem").unwrap();
        assert_eq!(a.name, "mem");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = Path::new("/tmp/x.json");
        for attempt in 0..4 {
            let a = backoff_with_jitter(p, attempt);
            let b = backoff_with_jitter(p, attempt);
            assert_eq!(a, b);
            let base = 5u64 << attempt;
            assert!(a.as_millis() >= u128::from(base));
            assert!(a.as_millis() < u128::from(2 * base));
        }
        // Different paths jitter differently (de-synchronization).
        assert_ne!(
            backoff_with_jitter(Path::new("/a.json"), 1),
            backoff_with_jitter(Path::new("/b.json"), 1)
        );
    }

    #[test]
    fn reason_and_artifact_file_helpers() {
        assert!(is_artifact_file(Path::new("/m/x.json")));
        assert!(!is_artifact_file(Path::new("/m/x.reason.json")));
        assert!(!is_artifact_file(Path::new("/m/x.txt")));
        assert_eq!(
            reason_path(Path::new("/q/x.json")),
            Path::new("/q/x.json.reason.json")
        );
    }
}
