//! Table I / Table II reproduction: the PRS scale-model resource
//! configurations and the target system. Pure configuration — no
//! simulation required.

use sms_core::scaling::{scale_table, MemBwScaling};
use sms_sim::error::SimError;

use crate::ctx::{Ctx, Report};
use crate::table::render;

/// Regenerate Table I (both DRAM scaling orders) and the Table II summary.
///
/// # Errors
///
/// Never fails; the signature matches the simulating experiments so all
/// of them sit in one table ([`super::ALL`]).
pub fn run(ctx: &mut Ctx) -> Result<Report, SimError> {
    let mut body = String::new();

    body.push_str("Target system (Table II):\n");
    body.push_str(&format!("  {}\n\n", ctx.cfg.target.summary()));

    for (name, order) in [
        ("MC-first (default)", MemBwScaling::McFirst),
        ("MB-first", MemBwScaling::MbFirst),
    ] {
        let rows: Vec<Vec<String>> = scale_table(&ctx.cfg.target, order)
            .into_iter()
            .map(|r| {
                vec![
                    r.cores.to_string(),
                    format!("{} MB: {} slices", r.llc_mb, r.llc_slices),
                    format!(
                        "{:.0} GB/s: {} CSLs, {:.0} GB/s per CSL",
                        r.noc_gbps, r.csls, r.gbps_per_csl
                    ),
                    format!(
                        "{:.0} GB/s: {} MCs, {:.0} GB/s per MC",
                        r.dram_gbps, r.mcs, r.gbps_per_mc
                    ),
                ]
            })
            .collect();
        body.push_str(&format!("Table I, {name}:\n"));
        body.push_str(&render(&["#cores", "LLC", "NoC", "DRAM"], &rows));
        body.push('\n');
    }

    Ok(Report {
        id: "table1",
        title: "Scale-model construction through Proportional Resource Scaling",
        body,
    })
}
