//! What one workload run found: metrics, output checks, operation counts.

use std::collections::BTreeMap;

use crate::catalog;

/// One reported number and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    /// Samples the value is the median (or count, or ratio) of.
    pub n: usize,
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub checks: Vec<Check>,
    /// sim: reps; workflow: plan runs and predictions; serve: requests.
    pub attempted: u64,
    pub failed: u64,
    /// Facts that are not metrics: result checksums, which tail percentile
    /// the sample count supported, trace coverage.
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Record `value` under a name of the catalog.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not have: the printed names and
    /// `BENCHMARK.json` must not drift.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            catalog::unit_of(name).is_some(),
            "metric `{name}` is not in the catalog"
        );
        self.metrics.insert(name, Metric { value, n });
    }

    /// Record the outcome of a check. A check made once per repetition
    /// is one entry: it holds when it held every time, and keeps the
    /// detail of the first time it did not.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(seen) => {
                if seen.ok && !ok {
                    seen.detail = detail.into();
                }
                seen.ok &= ok;
            }
            None => self.checks.push(Check {
                name: name.to_owned(),
                ok,
                detail: detail.into(),
            }),
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.insert(key.to_owned(), value.into());
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}
