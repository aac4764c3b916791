//! Per-figure experiment drivers. Each module reproduces one table or
//! figure of the paper and returns a rendered [`Report`].

pub mod ablations;
pub mod common;
pub mod ext_64core;
pub mod ext_multithreaded;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use sms_sim::error::SimError;

use crate::ctx::{Ctx, Report};

/// What every experiment is: a function from the shared context to a
/// rendered report.
pub type RunFn = fn(&mut Ctx) -> Result<Report, SimError>;

/// Every experiment, in the order `run_experiments` runs them: its id
/// (also the stem of `results/figures/<id>.txt`) and the function that
/// runs it.
pub const ALL: &[(&str, RunFn)] = &[
    ("table1", table1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("ext_64core", ext_64core::run),
    ("ext_multithreaded", ext_multithreaded::run),
    ("ablation_quantum", ablations::quantum),
    ("ablation_svr", ablations::svr),
    ("ablation_replacement", ablations::replacement),
    ("ablation_rowbuffer", ablations::row_buffer),
    ("ablation_krr", ablations::krr),
];
