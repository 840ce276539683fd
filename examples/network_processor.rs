//! 16-node network processor case study (paper §6.2, Fig. 8).
//!
//! Maps the network-processor traffic onto all five topologies with
//! relaxed bandwidth constraints, then drives each generated network
//! with its adversarial traffic pattern at increasing injection rates —
//! the Clos, with its maximal path diversity, should hold the lowest
//! latency as load grows, at an area/power cost only slightly above the
//! butterfly.
//!
//! Run with: `cargo run --release --example network_processor`
//! (release strongly recommended: this simulates tens of thousands of
//! cycles per topology).

use sunmap::request::ConstraintMode;
use sunmap::sim::{adversarial_pattern, latency_sweep, SimConfig};
use sunmap::topology::builders;
use sunmap::traffic::benchmarks;
use sunmap::{Objective, RoutingFunction, Sunmap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = benchmarks::network_processor(100.0);

    println!("=== Fig. 8(c,d): design area and power per topology ===");
    let tool = Sunmap::builder(app)
        .link_capacity(500.0)
        .routing(RoutingFunction::SplitMinPaths)
        .objective(Objective::MinDelay)
        .constraints(ConstraintMode::Relaxed)
        .build();
    let ex = tool.explore()?;
    println!("{:<10} {:>11} {:>11}", "Topo", "area (mm2)", "power (mW)");
    for c in &ex.candidates {
        if let Some(r) = c.report() {
            println!(
                "{:<10} {:>11.2} {:>11.1}",
                c.kind.name(),
                r.design_area,
                r.power_mw
            );
        }
    }

    println!("\n=== Fig. 8(b): avg packet latency vs injection rate ===");
    let rates = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    print!("{:<10}", "rate");
    for r in rates {
        print!("{r:>7.2}");
    }
    println!();
    for g in builders::standard_library(16, 500.0)? {
        let pattern = adversarial_pattern(g.kind());
        let curve = latency_sweep(&g, SimConfig::default(), &pattern, &rates);
        print!("{:<10}", g.kind().name());
        for (_, lat) in curve {
            print!("{lat:>7.1}");
        }
        println!("   ({} traffic)", pattern.name());
    }
    println!("\n(latencies in cycles; a saturated topology shows the hockey stick early)");
    Ok(())
}
