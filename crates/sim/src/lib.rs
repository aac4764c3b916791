//! # sms-sim — multicore architectural simulator substrate
//!
//! A trace-driven, windowed-synchronization multicore simulator in the
//! spirit of Sniper/Graphite, built as the simulation substrate for the
//! *Scale-Model Architectural Simulation* methodology (Liu et al.,
//! ISPASS 2022):
//!
//! * interval-style out-of-order core timing model ([`core_model`]),
//! * private L1-I/L1-D/L2 caches and a shared, line-interleaved NUCA LLC
//!   with inclusive back-invalidation ([`cache`], [`nuca`], [`hierarchy`]),
//! * a mesh NoC with explicit cross-section-link bandwidth queueing
//!   ([`noc`]),
//! * DRAM with per-memory-controller bandwidth queues ([`dram`]),
//! * a quantum-synchronized multiprogram run loop with the paper's
//!   "first benchmark finishes" stop rule ([`system`]).
//!
//! # Example
//!
//! Simulate two synthetic instruction streams on a 2-core machine:
//!
//! ```
//! use sms_sim::config::SystemConfig;
//! use sms_sim::system::{MulticoreSystem, RunSpec};
//! use sms_sim::trace::{InstructionSource, MicroOp, VecSource};
//!
//! # fn main() -> Result<(), sms_sim::error::SimError> {
//! let mut cfg = SystemConfig::target_32core();
//! cfg.num_cores = 2;
//! cfg.llc.num_slices = 2;
//! cfg.noc.mesh_cols = 2;
//! cfg.noc.mesh_rows = 1;
//!
//! let sources: Vec<Box<dyn InstructionSource>> = (0..2)
//!     .map(|i| {
//!         Box::new(VecSource::new(
//!             format!("stream-{i}"),
//!             vec![MicroOp::Compute { count: 8 }, MicroOp::Load { addr: 64 * i, dependent: false }],
//!         )) as Box<dyn InstructionSource>
//!     })
//!     .collect();
//!
//! let mut system = MulticoreSystem::new(cfg, sources)?;
//! let result = system.run(RunSpec::with_default_warmup(100_000))?;
//! assert!(result.cores[0].ipc > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod error;
pub mod hierarchy;
pub mod noc;
pub mod nuca;
pub mod prefetch;
pub mod profile;
pub mod queue;
pub mod shard;
pub mod stats;
pub mod system;
pub mod timeline;
pub mod trace;

pub use config::SystemConfig;
pub use error::{ConfigError, SimError};
pub use profile::SimProf;
pub use stats::{CoreResult, SimResult};
pub use system::{MulticoreSystem, RunSpec};
pub use timeline::{EpochSample, SimTimeline};
pub use trace::{InstructionSource, MicroOp};
