//! What the numbers were measured on, and where scratch state lives.

use std::path::{Path, PathBuf};

/// Host facts stored with every result file. Numbers from hosts that
/// differ in any of them are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    /// Filesystem type of the scratch directory: fsync cost decides the
    /// `bench.*` numbers.
    pub scratch_fs: String,
    /// Which serde/crossbeam/parking_lot/bytes were linked. Always the
    /// local stand-ins: `Cargo.toml` patches crates-io to `stubs/`.
    pub third_party: &'static str,
}

pub const THIRD_PARTY: &str = "local stand-ins (benchmark/stubs), not the published crates";

fn first_line_value(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// The commit checked out in the working directory; `unknown` in an
/// exported tree or without git.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount point that prefixes the path).
fn fs_type(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_owned());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

pub fn fingerprint() -> Fingerprint {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu_model: first_line_value(&cpuinfo, "model name").unwrap_or_else(|| "unknown".to_owned()),
        rustc: env!("SMS_BENCHMARK_RUSTC").to_owned(),
        git_rev: git_rev(),
        scratch_fs: scratch_base().map_or_else(|_| "unknown".to_owned(), |dir| fs_type(&dir)),
        third_party: THIRD_PARTY,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    first_line_value(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A per-run scratch directory, removed when dropped.
///
/// It sits beside the running executable, that is inside the cargo target
/// directory: the benchmark must read and write only inside its checkout,
/// so the system temp directory is out, and the target directory is the
/// one place in the checkout that git ignores. Never `results/`.
pub struct Scratch {
    root: PathBuf,
}

/// The directory beside the running executable.
fn scratch_base() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().unwrap_or_else(|| Path::new(".")).to_owned())
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let beside = scratch_base()?;
        // Relaxed: a unique suffix, publishes no other data.
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let root = beside.join("sms-benchmark-scratch").join(format!(
            "run-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        // A stale directory of a recycled pid would leak cache hits into a
        // cold sweep.
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let fresh = || -> std::io::Result<()> {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            std::fs::create_dir_all(&dir)
        };
        fresh().map_err(|e| format!("scratch directory {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and ignored by git.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_created_empty_and_removed_on_drop() {
        let scratch = Scratch::create().expect("scratch");
        let root = scratch.path().to_owned();
        let sub = scratch.subdir("a").expect("subdir");
        std::fs::write(sub.join("f"), b"x").expect("write");
        let again = scratch.subdir("a").expect("subdir again");
        assert!(
            again.read_dir().expect("list").next().is_none(),
            "subdir is emptied"
        );
        drop(scratch);
        assert!(!root.exists());
    }

    #[test]
    fn fingerprint_reads_this_host() {
        let fp = fingerprint();
        assert!(fp.nproc >= 1);
        assert!(fp.rustc.starts_with("rustc "), "{}", fp.rustc);
        assert!(!fp.scratch_fs.is_empty());
        assert!(peak_rss_mib() > 0.0);
    }
}
