//! Shared helpers for the SUNMAP benchmark harness.
//!
//! Every bench target under `benches/` regenerates one table or figure
//! of the DAC 2004 paper: it prints the paper-matching rows/series to
//! stdout and then measures its computational kernel with Criterion.
//! Each target's module docs name the paper artifact it regenerates.

use sunmap::mapping::CostReport;
use sunmap::traffic::CoreGraph;
use sunmap::{Exploration, Objective, RoutingFunction, Sunmap};

pub use sunmap;

/// Runs a standard exploration for `app` with the given knobs — the
/// phase-1/2 sweep every figure-level bench starts from.
pub fn explore(
    app: CoreGraph,
    link_capacity: f64,
    routing: RoutingFunction,
    objective: Objective,
    relaxed_bandwidth: bool,
) -> Exploration {
    let mut builder = Sunmap::builder(app)
        .link_capacity(link_capacity)
        .routing(routing)
        .objective(objective);
    if relaxed_bandwidth {
        builder = builder.constraints(sunmap::Constraints::relaxed_bandwidth());
    }
    builder
        .build()
        .explore()
        .expect("standard library builds for non-empty applications")
}

/// Prints one paper-style table row for a topology's cost report.
pub fn print_row(name: &str, report: Option<&CostReport>) {
    match report {
        Some(r) => println!(
            "{:<10} {:>8.2} {:>9} {:>7} {:>11.2} {:>11.1}",
            name, r.avg_hops, r.switch_count, r.link_count, r.design_area, r.power_mw
        ),
        None => println!(
            "{:<10} {:>8} {:>9} {:>7} {:>11} {:>11}",
            name, "-", "-", "-", "-", "-"
        ),
    }
}

/// Prints the standard table header matching [`print_row`].
pub fn print_header() {
    println!(
        "{:<10} {:>8} {:>9} {:>7} {:>11} {:>11}",
        "Topo", "avg hops", "switches", "links", "area (mm2)", "power (mW)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap::traffic::benchmarks;

    #[test]
    fn explore_helper_matches_direct_use() {
        let ex = explore(
            benchmarks::dsp_filter(),
            1000.0,
            RoutingFunction::MinPath,
            Objective::MinDelay,
            false,
        );
        assert_eq!(ex.candidates.len(), 5);
        assert!(ex.best.is_some());
    }
}
