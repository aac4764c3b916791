//! Epoch-resolved simulation timelines.
//!
//! Every synchronization window ("epoch") of the measured phase the run
//! loop can append one [`EpochSample`] — cumulative per-core progress
//! plus LLC / NoC / DRAM state, all relative to the start of the measured
//! phase — to a caller's `Vec`
//! ([`MulticoreSystem::run_sampled`](crate::system::MulticoreSystem::run_sampled)).
//! A plain `run` passes none and skips sample construction entirely.
//!
//! [`SimTimeline`] wraps a recorded sample stream with enough metadata
//! to interpret it and derives the per-epoch rate series (IPC, LLC hit
//! rate, DRAM bandwidth, queue delay) that `sms timeline` renders.

use serde::{Deserialize, Serialize};

use crate::config::CORE_FREQ_GHZ;

/// One sample taken at a synchronization-window boundary of the measured
/// phase. Counters are cumulative since the start of the measured phase
/// (epoch deltas come from subtracting consecutive samples); occupancy is
/// instantaneous.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Zero-based index of the sync window this sample closes.
    pub epoch: u64,
    /// Global cycle at the window barrier, relative to measure start.
    pub cycle: u64,
    /// Retired instructions per core.
    pub instructions: Vec<u64>,
    /// Elapsed core cycles per core (cores sleep once finished, so these
    /// can trail `cycle`).
    pub core_cycles: Vec<u64>,
    /// LLC demand accesses.
    pub llc_accesses: u64,
    /// LLC demand hits.
    pub llc_hits: u64,
    /// Valid LLC lines right now (instantaneous).
    pub llc_occupancy: u64,
    /// NoC transfers routed.
    pub noc_transfers: u64,
    /// NoC bisection crossings.
    pub noc_crossings: u64,
    /// DRAM bytes transferred (reads + writebacks).
    pub dram_bytes: u64,
    /// DRAM requests per memory controller.
    pub dram_requests: Vec<u64>,
    /// Summed DRAM queue-wait cycles per memory controller (divide a
    /// delta by the epoch's cycles for the mean queue depth, per
    /// Little's law).
    pub dram_queue_wait: Vec<u64>,
}

/// A recorded epoch timeline: metadata plus samples in epoch order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Synchronization quantum (cycles per epoch) the run used.
    pub sync_quantum: u64,
    /// Number of cores in the simulated system.
    pub num_cores: u32,
    /// Samples, one per sync window, in time order.
    pub samples: Vec<EpochSample>,
}

/// Per-epoch derived rates between consecutive samples (the first epoch
/// is measured against the zero state at measure start).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRates {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Global cycle at the end of the epoch.
    pub cycle: u64,
    /// Aggregate instructions per global cycle over the epoch.
    pub ipc: f64,
    /// LLC demand hit rate over the epoch (0 when no accesses).
    pub llc_hit_rate: f64,
    /// LLC lines valid at the end of the epoch.
    pub llc_occupancy: u64,
    /// NoC transfers per kilo-cycle over the epoch.
    pub noc_transfers_per_kcycle: f64,
    /// Aggregate DRAM bandwidth in GB/s over the epoch.
    pub dram_gbps: f64,
    /// Mean DRAM queue depth per controller over the epoch
    /// (queue-wait cycles accumulated / cycles elapsed).
    pub queue_depth: Vec<f64>,
}

fn delta_vec(after: &[u64], before: &[u64]) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

impl SimTimeline {
    /// Derived per-epoch rates; empty when no samples were recorded.
    pub fn epoch_rates(&self) -> Vec<EpochRates> {
        let zero = |s: &EpochSample| EpochSample {
            epoch: 0,
            cycle: 0,
            instructions: vec![0; s.instructions.len()],
            core_cycles: vec![0; s.core_cycles.len()],
            llc_accesses: 0,
            llc_hits: 0,
            llc_occupancy: 0,
            noc_transfers: 0,
            noc_crossings: 0,
            dram_bytes: 0,
            dram_requests: vec![0; s.dram_requests.len()],
            dram_queue_wait: vec![0; s.dram_queue_wait.len()],
        };
        let mut rates = Vec::with_capacity(self.samples.len());
        for (i, s) in self.samples.iter().enumerate() {
            let baseline = if i == 0 {
                zero(s)
            } else {
                self.samples[i - 1].clone()
            };
            // Zero-cycle epochs (duplicate or out-of-order samples) have no
            // meaningful rates: report 0.0 instead of letting a zero
            // denominator leak NaN/inf into renders and CSV exports.
            let dcycles = s.cycle.saturating_sub(baseline.cycle);
            let rate = |delta: u64| {
                if dcycles == 0 {
                    0.0
                } else {
                    delta as f64 / dcycles as f64
                }
            };
            let di: u64 = delta_vec(&s.instructions, &baseline.instructions)
                .iter()
                .sum();
            let da = s.llc_accesses - baseline.llc_accesses;
            let dh = s.llc_hits - baseline.llc_hits;
            rates.push(EpochRates {
                epoch: s.epoch,
                cycle: s.cycle,
                ipc: rate(di),
                llc_hit_rate: if da == 0 { 0.0 } else { dh as f64 / da as f64 },
                llc_occupancy: s.llc_occupancy,
                noc_transfers_per_kcycle: rate(s.noc_transfers - baseline.noc_transfers) * 1000.0,
                dram_gbps: rate(s.dram_bytes - baseline.dram_bytes) * CORE_FREQ_GHZ,
                queue_depth: delta_vec(&s.dram_queue_wait, &baseline.dram_queue_wait)
                    .iter()
                    .map(|&w| rate(w))
                    .collect(),
            });
        }
        rates
    }

    /// Render the timeline as a human-readable table: one line per epoch
    /// with IPC, LLC hit rate and occupancy, NoC activity, DRAM bandwidth
    /// and the worst per-controller mean queue depth.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>6} {:>12} {:>7} {:>7} {:>9} {:>9} {:>8} {:>9}\n",
            "epoch", "cycle", "IPC", "LLC%", "LLCocc", "NoC/kc", "BW GB/s", "maxQdep"
        );
        for r in self.epoch_rates() {
            let max_q = r.queue_depth.iter().cloned().fold(0.0f64, f64::max);
            out.push_str(&format!(
                "{:>6} {:>12} {:>7.3} {:>7.1} {:>9} {:>9.1} {:>8.2} {:>9.2}\n",
                r.epoch,
                r.cycle,
                r.ipc,
                r.llc_hit_rate * 100.0,
                r.llc_occupancy,
                r.noc_transfers_per_kcycle,
                r.dram_gbps,
                max_q
            ));
        }
        out.push_str(&format!(
            "{} epochs of {} cycles, {} cores",
            self.samples.len(),
            self.sync_quantum,
            self.num_cores
        ));
        out
    }

    /// Render as CSV (header plus one row per epoch; queue depth is the
    /// per-controller maximum).
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "epoch,cycle,ipc,llc_hit_rate,llc_occupancy,noc_transfers_per_kcycle,dram_gbps,max_queue_depth\n",
        );
        for r in self.epoch_rates() {
            let max_q = r.queue_depth.iter().cloned().fold(0.0f64, f64::max);
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.epoch,
                r.cycle,
                r.ipc,
                r.llc_hit_rate,
                r.llc_occupancy,
                r.noc_transfers_per_kcycle,
                r.dram_gbps,
                max_q
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64, cycle: u64, instrs: u64, bytes: u64) -> EpochSample {
        EpochSample {
            epoch,
            cycle,
            instructions: vec![instrs],
            core_cycles: vec![cycle],
            llc_accesses: 10 * (epoch + 1),
            llc_hits: 5 * (epoch + 1),
            llc_occupancy: 100,
            noc_transfers: 2 * (epoch + 1),
            noc_crossings: epoch + 1,
            dram_bytes: bytes,
            dram_requests: vec![epoch + 1],
            dram_queue_wait: vec![(epoch + 1) * 500],
        }
    }

    fn timeline() -> SimTimeline {
        SimTimeline {
            sync_quantum: 1000,
            num_cores: 1,
            samples: vec![sample(0, 1000, 2000, 6400), sample(1, 2000, 4000, 12800)],
        }
    }

    #[test]
    fn epoch_rates_are_deltas() {
        let rates = timeline().epoch_rates();
        assert_eq!(rates.len(), 2);
        // Both epochs retire 2000 instructions in 1000 cycles.
        for r in &rates {
            assert!((r.ipc - 2.0).abs() < 1e-12, "ipc {}", r.ipc);
            assert!((r.llc_hit_rate - 0.5).abs() < 1e-12);
            // 500 wait-cycles accumulated over 1000 cycles -> depth 0.5.
            assert!((r.queue_depth[0] - 0.5).abs() < 1e-12);
        }
        assert!((rates[0].dram_gbps - rates[1].dram_gbps).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_epochs_yield_finite_zero_rates() {
        // A duplicate sample (no cycles elapsed) must not produce NaN/inf.
        let tl = SimTimeline {
            sync_quantum: 1000,
            num_cores: 1,
            samples: vec![sample(0, 1000, 2000, 6400), sample(1, 1000, 2500, 9000)],
        };
        let rates = tl.epoch_rates();
        let r = &rates[1];
        assert_eq!(r.ipc, 0.0);
        assert_eq!(r.noc_transfers_per_kcycle, 0.0);
        assert_eq!(r.dram_gbps, 0.0);
        assert!(r.queue_depth.iter().all(|q| *q == 0.0));
        let csv = tl.render_csv();
        assert!(!csv.contains("NaN") && !csv.contains("inf"), "{csv}");
    }

    #[test]
    fn render_lists_every_epoch() {
        let text = timeline().render();
        assert!(text.contains("epoch"));
        assert!(text.contains("2 epochs of 1000 cycles, 1 cores"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = timeline().render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("epoch,cycle,ipc"));
        assert!(lines[1].starts_with("0,1000,2,"));
    }

    #[test]
    fn serde_round_trip() {
        let tl = timeline();
        let s = serde_json::to_string(&tl).unwrap();
        let back: SimTimeline = serde_json::from_str(&s).unwrap();
        assert_eq!(tl, back);
    }
}
