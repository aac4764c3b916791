//! Cache integrity checking and repair (`sms fsck`).
//!
//! [`fsck`] walks every artifact class under a result-cache directory —
//! cache entries, leftover temp files, quarantine records, run manifests,
//! timeline and profile files, and plan journals — verifies each one (JSON
//! shape, key against file stem, payload checksum), and removes what
//! cannot be trusted. Cache entries are cheap to regenerate (`sms resume`
//! re-simulates evicted keys), so eviction is always safe; journals are
//! *repaired* instead (bad lines dropped, good lines kept) because they
//! carry resume state. Valid entries are never touched.

use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::journal::{journal_dir, JournalLine};
use crate::observe::{load_json, profiles_dir, timelines_dir, ProfileFile, TimelineFile};
use crate::runner::{key_hash_hex, result_checksum, CacheEntry};
use crate::telemetry::RunManifest;

/// What kind of damage a defective file exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum DefectKind {
    /// The file ends mid-document (empty or cut off), the signature of a
    /// kill during a non-atomic write.
    Truncated,
    /// The file is complete but not parseable as its expected type.
    Torn,
    /// The stored payload checksum does not match the payload.
    Checksum,
    /// The stored key does not hash to the file's stem.
    StaleKey,
    /// A structurally valid file whose contents fail validation.
    BadRecord,
    /// A `.tmp` file orphaned by an interrupted atomic write.
    Leftover,
}

impl std::fmt::Display for DefectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Truncated => "truncated",
            Self::Torn => "torn",
            Self::Checksum => "checksum",
            Self::StaleKey => "stale_key",
            Self::BadRecord => "bad_record",
            Self::Leftover => "leftover",
        };
        f.write_str(s)
    }
}

/// What fsck did about a defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum FsckAction {
    /// The file was removed (its contents are regenerable).
    Evicted,
    /// The file was rewritten with the damaged parts dropped.
    Repaired,
}

/// One defective file found by [`fsck`].
#[derive(Debug, Clone, Serialize)]
pub struct Defect {
    /// The offending file.
    pub path: PathBuf,
    /// Damage classification.
    pub kind: DefectKind,
    /// Human-readable detail (parse error, checksum values, …).
    pub detail: String,
    /// What was done about it.
    pub action: FsckAction,
}

/// The result of one [`fsck`] pass.
#[derive(Debug, Clone, Serialize)]
pub struct FsckReport {
    /// Files examined.
    pub scanned: usize,
    /// Files that verified clean.
    pub valid: usize,
    /// Defective files, in scan order (deterministic: paths are sorted).
    pub defects: Vec<Defect>,
}

impl FsckReport {
    /// Whether the cache verified fully clean.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// Human-readable rendering (CLI `sms fsck`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "fsck: {} file(s) scanned, {} valid, {} defect(s)\n",
            self.scanned,
            self.valid,
            self.defects.len()
        );
        for d in &self.defects {
            out.push_str(&format!(
                "  {} {} ({}): {}\n",
                match d.action {
                    FsckAction::Evicted => "evicted",
                    FsckAction::Repaired => "repaired",
                },
                d.path.display(),
                d.kind,
                d.detail,
            ));
        }
        out
    }
}

/// Sorted `.json`-like files directly under `dir` with the given
/// extension; an absent directory is an empty list.
pub(crate) fn sorted_files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == ext))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files
}

fn classify_parse_error(e: &serde_json::Error) -> DefectKind {
    if e.is_eof() {
        DefectKind::Truncated
    } else {
        DefectKind::Torn
    }
}

struct Scan {
    scanned: usize,
    valid: usize,
    defects: Vec<Defect>,
}

impl Scan {
    fn evict(&mut self, path: &Path, kind: DefectKind, detail: String) {
        let _ = std::fs::remove_file(path);
        self.defects.push(Defect {
            path: path.to_owned(),
            kind,
            detail,
            action: FsckAction::Evicted,
        });
    }

    /// Load-or-evict every `.json` record of type `T` directly under `dir`.
    fn records<T: serde::de::DeserializeOwned>(&mut self, dir: &Path) {
        for path in sorted_files(dir, "json") {
            self.scanned += 1;
            match load_json::<T>(&path) {
                Ok(_) => self.valid += 1,
                Err(e) => self.evict(&path, DefectKind::BadRecord, e.to_string()),
            }
        }
    }
}

/// Verify one cache entry file; returns the defect, if any.
fn check_cache_entry(path: &Path) -> Result<(), (DefectKind, String)> {
    let data =
        std::fs::read(path).map_err(|e| (DefectKind::Truncated, format!("unreadable: {e}")))?;
    let entry: CacheEntry =
        serde_json::from_slice(&data).map_err(|e| (classify_parse_error(&e), e.to_string()))?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let expected = key_hash_hex(&entry.key);
    if stem != expected {
        return Err((
            DefectKind::StaleKey,
            format!("stored key hashes to {expected}, file stem is {stem}"),
        ));
    }
    if let Some(stored) = &entry.checksum {
        let actual = result_checksum(&entry.result);
        if *stored != actual {
            return Err((
                DefectKind::Checksum,
                format!("stored {stored}, payload hashes to {actual}"),
            ));
        }
    }
    Ok(())
}

/// Verify one quarantine record; returns the defect, if any.
fn check_quarantine(path: &Path) -> Result<(), (DefectKind, String)> {
    let data =
        std::fs::read(path).map_err(|e| (DefectKind::Truncated, format!("unreadable: {e}")))?;
    let record: crate::runner::QuarantineRecord =
        serde_json::from_slice(&data).map_err(|e| (classify_parse_error(&e), e.to_string()))?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let expected = key_hash_hex(&record.key);
    if stem != expected {
        return Err((
            DefectKind::StaleKey,
            format!("quarantined key hashes to {expected}, file stem is {stem}"),
        ));
    }
    Ok(())
}

/// Repair one journal file in place: keep parseable lines, drop the rest.
/// Returns `Some((dropped, detail))` when a rewrite happened.
fn repair_journal(path: &Path) -> std::io::Result<Option<(usize, String)>> {
    let text = std::fs::read_to_string(path)?;
    let mut good: Vec<&str> = Vec::new();
    let mut dropped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<JournalLine>(line) {
            Ok(_) => good.push(line),
            Err(_) => dropped += 1,
        }
    }
    if dropped == 0 {
        return Ok(None);
    }
    let mut rewritten = good.join("\n");
    if !rewritten.is_empty() {
        rewritten.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, rewritten)?;
    std::fs::rename(&tmp, path)?;
    Ok(Some((
        dropped,
        format!("dropped {dropped} unparseable line(s), kept {}", good.len()),
    )))
}

/// Verify every artifact under the cache directory, evicting what cannot
/// be trusted and repairing journals. Valid files are never modified.
///
/// # Errors
///
/// Returns an I/O error when `cache_dir` itself cannot be read; defects
/// in individual files are reported, not raised.
pub fn fsck(cache_dir: &Path) -> std::io::Result<FsckReport> {
    // An fsck of a cache that was never created is vacuously clean only
    // if the directory exists; a missing root is the caller's bug.
    std::fs::metadata(cache_dir)?;
    let mut scan = Scan {
        scanned: 0,
        valid: 0,
        defects: Vec::new(),
    };

    // Top-level cache entries.
    for path in sorted_files(cache_dir, "json") {
        scan.scanned += 1;
        match check_cache_entry(&path) {
            Ok(()) => scan.valid += 1,
            Err((kind, detail)) => scan.evict(&path, kind, detail),
        }
    }
    // Orphaned temp files from interrupted atomic writes.
    for path in sorted_files(cache_dir, "tmp") {
        scan.scanned += 1;
        scan.evict(
            &path,
            DefectKind::Leftover,
            "orphaned temp file from an interrupted write".to_owned(),
        );
    }
    // Quarantine records.
    for path in sorted_files(&cache_dir.join("quarantine"), "json") {
        scan.scanned += 1;
        match check_quarantine(&path) {
            Ok(()) => scan.valid += 1,
            Err((kind, detail)) => scan.evict(&path, kind, detail),
        }
    }
    // Run manifests and the per-run observation files.
    scan.records::<RunManifest>(&cache_dir.join("manifests"));
    scan.records::<TimelineFile>(&timelines_dir(cache_dir));
    scan.records::<ProfileFile>(&profiles_dir(cache_dir));
    // Plan journals: repaired, not evicted — they carry resume state.
    for path in sorted_files(&journal_dir(cache_dir), "jsonl") {
        scan.scanned += 1;
        match repair_journal(&path) {
            Ok(None) => scan.valid += 1,
            Ok(Some((_, detail))) => scan.defects.push(Defect {
                path: path.clone(),
                kind: DefectKind::Torn,
                detail,
                action: FsckAction::Repaired,
            }),
            Err(e) => scan.evict(&path, DefectKind::Truncated, format!("unreadable: {e}")),
        }
    }

    Ok(FsckReport {
        scanned: scan.scanned,
        valid: scan.valid,
        defects: scan.defects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalLine, PlanJournal};
    use crate::runner::{cache_key, CachedSim};
    use crate::telemetry::RunStatus;
    use sms_sim::config::SystemConfig;
    use sms_sim::stats::SimResult;
    use sms_sim::system::RunSpec;
    use sms_workloads::mix::MixSpec;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::target_32core();
        cfg.num_cores = 1;
        cfg.llc.num_slices = 1;
        cfg.noc.mesh_cols = 1;
        cfg.noc.mesh_rows = 1;
        cfg.dram.num_controllers = 1;
        cfg
    }

    fn fake_result(seed: u64) -> SimResult {
        SimResult {
            cores: vec![],
            elapsed_cycles: seed + 1,
            total_dram_bytes: seed * 64,
            total_bandwidth_gbps: 1.0,
            noc_transfers: seed,
            noc_crossings: seed / 2,
            llc_accesses: seed * 3,
            llc_hits: seed,
            host_seconds: 0.0,
        }
    }

    fn spec() -> RunSpec {
        RunSpec {
            warmup_instructions: 0,
            measure_instructions: 5_000,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sms-fsck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Seed a cache with `n` valid entries, returning their paths.
    fn seed_cache(dir: &Path, n: u64) -> Vec<PathBuf> {
        let cache = CachedSim::open(dir).unwrap();
        let cfg = tiny_cfg();
        (0..n)
            .map(|i| {
                let mix = MixSpec::homogeneous("leela_r", 1, i);
                cache.insert(&cfg, &mix, spec(), &fake_result(i));
                dir.join(format!(
                    "{}.json",
                    key_hash_hex(&cache_key(&cfg, &mix, spec()))
                ))
            })
            .collect()
    }

    #[test]
    fn clean_cache_reports_clean() {
        let dir = tmpdir("clean");
        seed_cache(&dir, 3);
        let report = fsck(&dir).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.scanned, 3);
        assert_eq!(report.valid, 3);
        assert!(report.render().contains("0 defect(s)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_cache_dir_is_an_error() {
        let dir = tmpdir("gone");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(fsck(&dir).is_err());
    }

    #[test]
    fn each_damage_class_is_detected_and_only_the_damaged_file_evicted() {
        // The satellite scenario: torn JSON, truncated file, bit-flipped
        // payload, and stale-key file side by side with valid entries.
        // Each must be detected, classified, and evicted without touching
        // the valid ones.
        let dir = tmpdir("classes");
        let paths = seed_cache(&dir, 6);

        // [0] torn: chop the tail mid-document => Truncated (EOF).
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        std::fs::write(&paths[0], &text[..text.len() / 2]).unwrap();
        // [1] empty file => Truncated.
        std::fs::write(&paths[1], b"").unwrap();
        // [2] bit-flip inside the payload => Checksum. Entry seed 2 stores
        // elapsed_cycles 3; flipping bit 2 of the digit ('3' -> '7') keeps
        // the JSON valid, so only the checksum can catch it.
        let text = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(text.contains("\"elapsed_cycles\":3"));
        std::fs::write(
            &paths[2],
            text.replace("\"elapsed_cycles\":3", "\"elapsed_cycles\":7"),
        )
        .unwrap();
        // [3] stale key: copy a valid entry under a wrong stem.
        let stale = dir.join("00000000000000000000000000000000.json");
        std::fs::copy(&paths[4], &stale).unwrap();
        // Plus garbage that parses as JSON but not as an entry => Torn.
        let garbage = dir.join("ffffffffffffffffffffffffffffffff.json");
        std::fs::write(&garbage, b"{\"not\": \"an entry\"}").unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.scanned, 8);
        assert_eq!(report.valid, 3, "{}", report.render());
        assert_eq!(report.defects.len(), 5, "{}", report.render());
        let kind_of = |p: &Path| {
            report
                .defects
                .iter()
                .find(|d| d.path == p)
                .map(|d| d.kind)
                .unwrap_or_else(|| panic!("no defect recorded for {}", p.display()))
        };
        assert_eq!(kind_of(&paths[0]), DefectKind::Truncated);
        assert_eq!(kind_of(&paths[1]), DefectKind::Truncated);
        assert_eq!(kind_of(&paths[2]), DefectKind::Checksum);
        assert_eq!(kind_of(&stale), DefectKind::StaleKey);
        assert_eq!(kind_of(&garbage), DefectKind::Torn);
        for d in &report.defects {
            assert_eq!(d.action, FsckAction::Evicted);
            assert!(!d.path.exists(), "{} must be evicted", d.path.display());
        }
        // The valid entries survive byte-identical and a second pass is
        // clean.
        assert!(paths[3].exists() && paths[4].exists() && paths[5].exists());
        let again = fsck(&dir).unwrap();
        assert!(again.is_clean());
        assert_eq!(again.scanned, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_files_are_evicted() {
        let dir = tmpdir("tmpfiles");
        seed_cache(&dir, 1);
        let tmp = dir.join("deadbeef.12345.0.tmp");
        std::fs::write(&tmp, b"{\"half\": ").unwrap();
        let report = fsck(&dir).unwrap();
        assert_eq!(report.defects.len(), 1);
        assert_eq!(report.defects[0].kind, DefectKind::Leftover);
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_quarantine_and_manifest_and_timeline_records_are_evicted() {
        let dir = tmpdir("records");
        seed_cache(&dir, 1);
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        std::fs::write(
            qdir.join("notahash.json"),
            b"{\"key\": \"k\", \"mix\": \"m\", \"error\": \"e\", \"attempts\": 1}",
        )
        .unwrap();
        let mdir = dir.join("manifests");
        std::fs::create_dir_all(&mdir).unwrap();
        std::fs::write(mdir.join("bad.json"), b"[1, 2]").unwrap();
        let tdir = dir.join("timelines");
        std::fs::create_dir_all(&tdir).unwrap();
        std::fs::write(tdir.join("bad.json"), b"{}").unwrap();
        // A profile write torn mid-document, as a kill would leave it.
        let pdir = dir.join("profiles");
        std::fs::create_dir_all(&pdir).unwrap();
        std::fs::write(pdir.join("torn.json"), b"{\"schema_version\": 1, \"pha").unwrap();
        let report = fsck(&dir).unwrap();
        assert_eq!(report.defects.len(), 4, "{}", report.render());
        assert!(report
            .defects
            .iter()
            .all(|d| d.action == FsckAction::Evicted));
        assert!(
            report
                .defects
                .iter()
                .any(|d| d.kind == DefectKind::StaleKey),
            "{}",
            report.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_is_repaired_in_place() {
        let dir = tmpdir("journal");
        seed_cache(&dir, 1);
        let journal = PlanJournal::open_append(&dir, "sweep").unwrap();
        journal
            .append(&JournalLine::Run {
                key_hash: "aa".into(),
                status: RunStatus::Ok,
            })
            .unwrap();
        let jpath = journal.path().to_owned();
        drop(journal);
        // Tear the tail, as a kill mid-append would.
        let mut text = std::fs::read_to_string(&jpath).unwrap();
        text.push_str("{\"t\":\"run\",\"key");
        std::fs::write(&jpath, text).unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.defects.len(), 1, "{}", report.render());
        assert_eq!(report.defects[0].action, FsckAction::Repaired);
        assert!(jpath.exists(), "repair must keep the journal");
        let replayed = crate::journal::replay(&dir, "sweep").unwrap();
        assert_eq!(replayed.completed.len(), 1);
        assert_eq!(replayed.torn_lines, 0, "repair must drop the torn line");
        let again = fsck(&dir).unwrap();
        assert!(again.is_clean(), "{}", again.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
