//! `compare <A.json…> -- <B.json…>`: is side B no worse than side A?
//!
//! For every (workload, end-to-end metric) the medians and quartiles of
//! both sides are printed with a verdict against the metric's bound (the
//! catalog's, which a test holds equal to `BENCHMARK.json`'s): `ok`,
//! `regressed`, or — when the runs of side A
//! spread wider than the bound, so that a shift of that size could not be
//! told from noise — `unresolved`. Every run of B reading better than
//! every run of A is `ok` whatever the spread. The share of failed
//! operations is compared too. This is the tool the A/A acceptance run
//! uses: two sets of runs of one commit must come out `ok` throughout.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::catalog::{Better, END_TO_END};
use crate::output::read_result;
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
fn worse_by(a_median: f64, b_median: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b_median - a_median) / a_median,
        Better::Higher => (a_median - b_median) / a_median,
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a_q1, a_median, a_q3) = quartiles(a);
    let (_, b_median, _) = quartiles(b);
    let all_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if all_better {
        return Verdict::Ok;
    }
    if (a_q3 - a_q1) / a_median > bound {
        return Verdict::Unresolved;
    }
    if worse_by(a_median, b_median, better) > bound {
        return Verdict::Regressed;
    }
    Verdict::Ok
}

/// The runs of one side, pooled over its result files.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    /// Per workload: (attempted, failed), summed over files.
    ops: BTreeMap<String, (u64, u64)>,
}

fn load(paths: &[PathBuf]) -> Result<Side, String> {
    let mut side = Side::default();
    for path in paths {
        for (workload, entry) in read_result(path)? {
            let ops = side.ops.entry(workload.clone()).or_default();
            ops.0 += entry["attempted"].as_u64().unwrap_or(0);
            ops.1 += entry["failed"].as_u64().unwrap_or(0);
            let Some(metrics) = entry["metrics"].as_object() else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m["value"].as_f64() {
                    side.values
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

/// Print the comparison; `Ok(true)` when every verdict is `ok`.
pub fn compare(a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut all_ok = true;
    println!(
        "{:<13} {:<13} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A q1 / median / q3 (n)", "B q1 / median / q3 (n)", "worse", "bound"
    );
    let workloads: Vec<&String> = a.ops.keys().collect();
    for workload in &workloads {
        for m in &END_TO_END {
            let (metric, better, bound) = (m.name, m.better, m.bound);
            let key = ((*workload).clone(), metric.to_owned());
            let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else {
                // One side ran traced (per-layer metrics only) or lacks
                // the workload: nothing to hold against the bound.
                if a.values.contains_key(&key) != b.values.contains_key(&key) {
                    println!("{workload:<13} {metric:<13} present on one side only  unresolved");
                    all_ok = false;
                }
                continue;
            };
            let (aq, bq) = (quartiles(av), quartiles(bv));
            let verdict = judge(av, bv, better, bound);
            all_ok &= verdict == Verdict::Ok;
            let show = |q: (f64, f64, f64), n: usize| {
                format!("{:.4} / {:.4} / {:.4} ({n})", q.0, q.1, q.2)
            };
            println!(
                "{workload:<13} {metric:<13} {:>34} {:>34} {:>+7.2}% {:>5.0}%  {}",
                show(aq, av.len()),
                show(bq, bv.len()),
                worse_by(aq.1, bq.1, better) * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }
    for workload in b.ops.keys().filter(|w| !a.ops.contains_key(*w)) {
        println!("{workload:<13} only side B ran it  unresolved");
        all_ok = false;
    }
    for workload in workloads {
        let (a_attempted, a_failed) = a.ops[workload];
        let Some(&(b_attempted, b_failed)) = b.ops.get(workload) else {
            println!("{workload:<13} only side A ran it  unresolved");
            all_ok = false;
            continue;
        };
        let share = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (sa, sb) = (share(a_failed, a_attempted), share(b_failed, b_attempted));
        let verdict = if sb > sa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{workload:<13} failed share  A {a_failed}/{a_attempted} = {sa:.6}  B {b_failed}/{b_attempted} = {sb:.6}  {}",
            verdict.as_str()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Scratch;
    use crate::output::{result_entry, write_result, Header};
    use crate::report::Report;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_all_better_rule() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // Within the bound either way.
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[96.0, 95.0, 97.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        // Worse than the bound.
        assert_eq!(
            judge(&a, &[115.0, 116.0, 114.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[85.0, 84.0, 86.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Better by any amount is never a regression.
        assert_eq!(judge(&a, &[50.0, 51.0], Better::Lower, 0.10), Verdict::Ok);
        // A's own spread exceeds the bound: a shift cannot be resolved …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[100.0, 105.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[70.0, 75.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    fn report(rate: f64, failed: u64) -> Report {
        let mut r = Report::default();
        r.set("rate", rate, 5);
        r.set("op_ms", 1000.0 / rate, 5);
        r.attempted = 100;
        r.failed = failed;
        r
    }

    /// Result files written by `run` round-trip through `compare`.
    #[test]
    fn result_files_round_trip_through_compare() {
        let scratch = Scratch::create().expect("scratch");
        let write = |name: &str, rate: f64, failed: u64| -> PathBuf {
            let path = scratch.path().join(name);
            let header = Header {
                seed: 7,
                seconds: 1.0,
                trace: false,
                sizes: "smoke",
            };
            let entries = BTreeMap::from([(
                "sim_compute".to_owned(),
                result_entry(&report(rate, failed)),
            )]);
            write_result(&path, &header, &entries).expect("write");
            path
        };
        let a = [
            write("a1.json", 10.0, 0),
            write("a2.json", 10.1, 0),
            write("a3.json", 9.9, 0),
        ];
        let same = [
            write("b1.json", 10.05, 0),
            write("b2.json", 9.95, 0),
            write("b3.json", 10.0, 0),
        ];
        assert_eq!(compare(&a, &same), Ok(true));
        let slower = [
            write("c1.json", 6.0, 0),
            write("c2.json", 6.1, 0),
            write("c3.json", 5.9, 0),
        ];
        assert_eq!(compare(&a, &slower), Ok(false));
        let failing = [write("d1.json", 10.0, 3)];
        assert_eq!(
            compare(&a, &failing),
            Ok(false),
            "a higher failed share is a regression"
        );

        let side = load(&a).expect("load");
        assert_eq!(
            side.values[&("sim_compute".to_owned(), "rate".to_owned())],
            vec![10.0, 10.1, 9.9]
        );
        assert_eq!(side.ops["sim_compute"], (300, 0));
    }
}
