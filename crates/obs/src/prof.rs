//! Scoped phase timers aggregating into a per-run [`PhaseProfile`].
//!
//! A [`Profiler`] interns [`Phase`] handles by *path* — semicolon-joined
//! like a collapsed flamegraph stack (`sim.run;window.fork;core.step`) —
//! and each [`Phase::scope`] guard adds one count and the elapsed
//! monotonic nanoseconds to its phase when dropped. The design follows
//! the same rule as the rest of `sms-obs`: **the monotonic clock is read
//! only when a profiler is attached**. Consumers hold an
//! `Option<Arc<Phase>>`-shaped handle; the detached path is a single
//! branch with no clock read, no atomics, and no allocation, so attaching
//! a profiler cannot perturb deterministic simulation state.
//!
//! [`Profiler::snapshot`] folds the accumulated counters into a
//! [`PhaseProfile`]: per-phase count, total nanoseconds, and *self*
//! nanoseconds (total minus direct children), renderable as an aligned
//! text table ([`PhaseProfile::render_table`]), as collapsed-stack lines
//! compatible with standard flamegraph tooling
//! ([`PhaseProfile::collapsed`]), or as canonical sorted-key JSON
//! ([`PhaseProfile::to_json`]).
//!
//! # Example
//!
//! ```
//! use sms_obs::prof::Profiler;
//!
//! let prof = Profiler::new();
//! let outer = prof.phase("work");
//! let inner = prof.phase("work;inner");
//! {
//!     let _w = outer.scope();
//!     let _i = inner.scope();
//! }
//! let profile = prof.snapshot();
//! assert_eq!(profile.phases.len(), 2);
//! assert!(profile.render_table().contains("work"));
//! assert!(profile.to_json().starts_with('{'));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::escape_json;
use crate::registry::lock;

/// Separator between path segments; the collapsed-stack convention.
pub const PATH_SEPARATOR: char = ';';

/// One named phase: a call count and accumulated wall nanoseconds,
/// updated with relaxed atomics from any thread.
#[derive(Debug, Default)]
pub struct Phase {
    path: String,
    // sms-lint: atomic(counter): completed-scope tally, observation-only
    count: AtomicU64,
    // sms-lint: atomic(counter): wall-nanosecond accumulator, observation-only
    nanos: AtomicU64,
}

impl Phase {
    /// The phase's full path (`parent;child` form).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Completed scopes so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Accumulated nanoseconds so far.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Start a timed scope; the elapsed time is recorded when the guard
    /// drops. This reads the monotonic clock — hold a phase handle only
    /// when profiling is wanted (see the module docs).
    #[inline]
    pub fn scope(&self) -> PhaseGuard<'_> {
        PhaseGuard {
            phase: self,
            start: Instant::now(),
        }
    }

    /// Record a completed measurement directly (used when the duration
    /// was measured externally, e.g. folded in from another profile).
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// RAII guard from [`Phase::scope`]: measures until dropped.
#[must_use = "a phase scope measures until it is dropped; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    phase: &'a Phase,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        // u64 nanoseconds hold ~584 years; saturate rather than wrap.
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.phase.count.fetch_add(1, Ordering::Relaxed);
        self.phase.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Interns [`Phase`] handles and snapshots them into a [`PhaseProfile`].
///
/// Hot paths hold `Arc<Phase>` handles obtained once via
/// [`Profiler::phase`]; the profiler itself is locked only on interning
/// and snapshot, never per scope.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<BTreeMap<String, Arc<Phase>>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase handle for `path`, created on first use. Paths use
    /// [`PATH_SEPARATOR`]-joined segments; a phase is the direct child of
    /// the phase named by everything before its last separator.
    pub fn phase(&self, path: &str) -> Arc<Phase> {
        let mut phases = lock(&self.phases);
        Arc::clone(phases.entry(path.to_owned()).or_insert_with(|| {
            Arc::new(Phase {
                path: path.to_owned(),
                count: AtomicU64::new(0),
                nanos: AtomicU64::new(0),
            })
        }))
    }

    /// Zero every phase's counters (handles stay valid).
    pub fn reset(&self) {
        for phase in lock(&self.phases).values() {
            phase.count.store(0, Ordering::Relaxed);
            phase.nanos.store(0, Ordering::Relaxed);
        }
    }

    /// Fold the current counters into a [`PhaseProfile`] with self-times
    /// computed (total minus direct children, saturating — concurrent
    /// children can legitimately out-sum their parent's wall time).
    pub fn snapshot(&self) -> PhaseProfile {
        let phases = lock(&self.phases);
        let totals: BTreeMap<&str, (u64, u64)> = phases
            .iter()
            .map(|(path, p)| (path.as_str(), (p.count(), p.total_nanos())))
            .collect();
        let stats = totals
            .iter()
            .map(|(path, &(count, total_nanos))| {
                let child_total: u64 = totals
                    .iter()
                    .filter(|(other, _)| is_direct_child(path, other))
                    .map(|(_, &(_, t))| t)
                    .sum();
                PhaseStat {
                    path: (*path).to_owned(),
                    count,
                    total_nanos,
                    self_nanos: total_nanos.saturating_sub(child_total),
                }
            })
            .collect();
        PhaseProfile { phases: stats }
    }
}

/// Whether `child` is a direct child path of `parent`.
fn is_direct_child(parent: &str, child: &str) -> bool {
    child.len() > parent.len() + 1
        && child.starts_with(parent)
        && child.as_bytes()[parent.len()] == PATH_SEPARATOR as u8
        && !child[parent.len() + 1..].contains(PATH_SEPARATOR)
}

/// One phase's aggregated measurements in a [`PhaseProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Full phase path (`parent;child` form).
    pub path: String,
    /// Completed scopes.
    pub count: u64,
    /// Total nanoseconds, including time spent in child phases.
    pub total_nanos: u64,
    /// Nanoseconds not attributed to any direct child phase.
    pub self_nanos: u64,
}

impl PhaseStat {
    /// The last path segment.
    pub fn name(&self) -> &str {
        self.path
            .rsplit(PATH_SEPARATOR)
            .next()
            .unwrap_or(self.path.as_str())
    }

    /// Nesting depth (0 for a root phase).
    pub fn depth(&self) -> usize {
        self.path.matches(PATH_SEPARATOR).count()
    }
}

/// A point-in-time aggregation of every phase, sorted by path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-phase stats, sorted by path.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// Whether no phase recorded anything.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.count == 0)
    }

    /// Sum of every phase's self time — equals the root totals when the
    /// phases nested strictly (single-threaded), and exceeds them when
    /// children ran concurrently.
    pub fn total_self_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.self_nanos).sum()
    }

    /// Sum of the root phases' total times.
    pub fn root_total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.depth() == 0)
            .map(|p| p.total_nanos)
            .sum()
    }

    /// Fold `other` into `self`, summing matching paths and inserting
    /// new ones (used to aggregate per-run profiles across a plan).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for theirs in &other.phases {
            match self.phases.iter_mut().find(|p| p.path == theirs.path) {
                Some(mine) => {
                    mine.count += theirs.count;
                    mine.total_nanos += theirs.total_nanos;
                    mine.self_nanos += theirs.self_nanos;
                }
                None => self.phases.push(theirs.clone()),
            }
        }
        self.phases.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// Render an aligned text table: phase tree, counts, total/self
    /// milliseconds, and each phase's share of the summed self time.
    pub fn render_table(&self) -> String {
        let self_sum = self.total_self_nanos().max(1);
        let mut rows: Vec<[String; 5]> = vec![[
            "PHASE".to_owned(),
            "COUNT".to_owned(),
            "TOTAL_MS".to_owned(),
            "SELF_MS".to_owned(),
            "SELF%".to_owned(),
        ]];
        for p in &self.phases {
            if p.count == 0 {
                continue;
            }
            rows.push([
                format!("{}{}", "  ".repeat(p.depth()), p.name()),
                p.count.to_string(),
                format!("{:.3}", p.total_nanos as f64 / 1e6),
                format!("{:.3}", p.self_nanos as f64 / 1e6),
                format!("{:.1}", p.self_nanos as f64 / self_sum as f64 * 100.0),
            ]);
        }
        let mut widths = [0usize; 5];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            for (i, (cell, w)) in row.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("{cell:>w$}"));
                }
            }
            // Trailing spaces from the left-aligned last column are absent
            // because only column 0 is left-aligned.
            out.push('\n');
        }
        out
    }

    /// Collapsed-stack lines (`path self_nanos`), one per phase with
    /// nonzero self time — the input format of standard flamegraph
    /// tooling (`flamegraph.pl`, inferno, speedscope).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            if p.self_nanos > 0 {
                out.push_str(&p.path);
                out.push(' ');
                out.push_str(&p.self_nanos.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Canonical JSON: sorted keys, phases sorted by path, no
    /// non-deterministic field *shape* (the nanosecond values are host
    /// measurements and of course vary run to run).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"count\":{},\"path\":\"{}\",\"self_nanos\":{},\"total_nanos\":{}}}",
                p.count,
                escape_json(&p.path),
                p.self_nanos,
                p.total_nanos
            ));
        }
        out.push_str(&format!("],\"schema_version\":{PROFILE_SCHEMA_VERSION}}}"));
        out
    }
}

/// Version of the [`PhaseProfile::to_json`] layout.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_handle() {
        let prof = Profiler::new();
        let a = prof.phase("x");
        let b = prof.phase("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.record(10);
        assert_eq!(b.count(), 1);
        assert_eq!(b.total_nanos(), 10);
    }

    #[test]
    fn scope_records_count_and_time() {
        let prof = Profiler::new();
        let p = prof.phase("timed");
        for _ in 0..3 {
            let _g = p.scope();
            std::hint::black_box(());
        }
        assert_eq!(p.count(), 3);
        let snap = prof.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].count, 3);
        assert_eq!(snap.phases[0].self_nanos, snap.phases[0].total_nanos);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let prof = Profiler::new();
        prof.phase("a").record(100);
        prof.phase("a;b").record(30);
        prof.phase("a;b;c").record(10);
        prof.phase("a;d").record(20);
        let snap = prof.snapshot();
        let by_path = |p: &str| {
            snap.phases
                .iter()
                .find(|s| s.path == p)
                .cloned()
                .expect("phase present")
        };
        assert_eq!(by_path("a").self_nanos, 50, "100 - (30 + 20), not - c");
        assert_eq!(by_path("a;b").self_nanos, 20);
        assert_eq!(by_path("a;b;c").self_nanos, 10);
        assert_eq!(snap.total_self_nanos(), 100);
        assert_eq!(snap.root_total_nanos(), 100);
    }

    #[test]
    fn self_time_saturates_when_children_out_sum_parent() {
        // Concurrent children can out-sum the parent's wall time.
        let prof = Profiler::new();
        prof.phase("par").record(100);
        prof.phase("par;w").record(250);
        let snap = prof.snapshot();
        assert_eq!(snap.phases[0].self_nanos, 0);
    }

    #[test]
    fn direct_child_is_exact() {
        assert!(is_direct_child("a", "a;b"));
        assert!(!is_direct_child("a", "a;b;c"));
        assert!(!is_direct_child("a", "ab;c"));
        assert!(!is_direct_child("a;b", "a"));
        assert!(!is_direct_child("a", "a"));
    }

    #[test]
    fn table_collapsed_and_json_render() {
        let prof = Profiler::new();
        prof.phase("sim.run").record(1_000_000);
        prof.phase("sim.run;window.fork").record(600_000);
        let never = prof.phase("sim.run;window.merge");
        let _ = never; // registered but never hit: excluded from the table
        let snap = prof.snapshot();

        let table = snap.render_table();
        assert!(table.contains("PHASE"), "{table}");
        assert!(table.contains("sim.run"), "{table}");
        assert!(table.contains("  window.fork"), "indented child\n{table}");
        assert!(
            !table.contains("window.merge"),
            "zero-count hidden\n{table}"
        );

        let collapsed = snap.collapsed();
        assert!(collapsed.contains("sim.run 400000\n"), "{collapsed}");
        assert!(collapsed.contains("sim.run;window.fork 600000\n"));

        let json = snap.to_json();
        assert!(json.contains("\"schema_version\":1"), "{json}");
        assert!(json.contains("\"path\":\"sim.run;window.fork\""), "{json}");
        // The phases array must actually close (a non-empty profile once
        // rendered `[{...},{...},"schema_version"...` — unparseable).
        assert!(json.ends_with("}],\"schema_version\":1}"), "{json}");
        // Keys are sorted within each object.
        let c = json.find("\"count\"").expect("count key");
        let p = json.find("\"path\"").expect("path key");
        assert!(c < p);
    }

    #[test]
    fn empty_profile_renders_valid_json_and_table() {
        let snap = Profiler::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.to_json(), "{\"phases\":[],\"schema_version\":1}");
        assert!(snap.render_table().contains("PHASE"));
        assert_eq!(snap.collapsed(), "");
    }

    #[test]
    fn merge_sums_and_inserts() {
        let a = Profiler::new();
        a.phase("x").record(10);
        let b = Profiler::new();
        b.phase("x").record(5);
        b.phase("y").record(7);
        let mut pa = a.snapshot();
        pa.merge(&b.snapshot());
        assert_eq!(pa.phases.len(), 2);
        assert_eq!(pa.phases[0].path, "x");
        assert_eq!(pa.phases[0].total_nanos, 15);
        assert_eq!(pa.phases[0].count, 2);
        assert_eq!(pa.phases[1].total_nanos, 7);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let prof = Profiler::new();
        let p = prof.phase("z");
        p.record(9);
        prof.reset();
        assert_eq!(p.count(), 0);
        assert_eq!(p.total_nanos(), 0);
        p.record(1);
        assert_eq!(prof.snapshot().phases[0].count, 1);
    }

    #[test]
    fn concurrent_scopes_do_not_lose_counts() {
        let prof = Profiler::new();
        let p = prof.phase("mt");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        let _g = p.scope();
                    }
                });
            }
        });
        assert_eq!(p.count(), 2000);
    }
}
