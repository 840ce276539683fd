//! Regression tests pinning the *shape* of every paper experiment: who
//! wins, by roughly what factor, and where the qualitative crossovers
//! fall. If one of these fails, a model change broke the
//! reproduction.

use sunmap::sim::{adversarial_pattern, SimConfig, SimSession};
use sunmap::topology::builders;
use sunmap::traffic::benchmarks;
use sunmap::{routing_bandwidth_sweep, Constraints, Objective, RoutingFunction, Sunmap};

fn vopd_exploration() -> sunmap::Exploration {
    Sunmap::builder(benchmarks::vopd())
        .link_capacity(500.0)
        .routing(RoutingFunction::MinPath)
        .objective(Objective::MinPower)
        .build()
        .explore()
        .unwrap()
}

#[test]
fn fig3d_torus_trades_hops_for_area_and_power() {
    let ex = vopd_exploration();
    let mesh = ex.candidates[0].report().expect("mesh feasible");
    let torus = ex.candidates[1].report().expect("torus feasible");
    // Paper ratios: hops 0.90, area 1.06, power 1.22.
    assert!(torus.avg_hops < mesh.avg_hops, "torus should win on hops");
    assert!(
        torus.avg_hops / mesh.avg_hops > 0.80,
        "hop advantage should be modest (paper: 10%)"
    );
    assert!(torus.design_area > mesh.design_area, "mesh wins area");
    assert!(
        torus.power_mw > 1.1 * mesh.power_mw,
        "mesh wins power by >10%"
    );
    assert!(torus.power_mw < 1.6 * mesh.power_mw, "but not absurdly");
}

#[test]
fn fig6_butterfly_wins_vopd_on_all_axes() {
    let ex = vopd_exploration();
    let reports: Vec<_> = ex
        .candidates
        .iter()
        .map(|c| (c.kind.name(), c.report().expect("all feasible for VOPD")))
        .collect();
    let bfly = reports.iter().find(|(n, _)| *n == "Butterfly").unwrap().1;
    for (name, r) in &reports {
        if *name == "Butterfly" {
            continue;
        }
        assert!(bfly.avg_hops <= r.avg_hops + 1e-9, "hops vs {name}");
        assert!(bfly.design_area <= r.design_area + 1e-9, "area vs {name}");
        assert!(bfly.power_mw <= r.power_mw + 1e-9, "power vs {name}");
    }
    // Fig. 6(a): butterfly = exactly 2 stages of switches.
    assert!((bfly.avg_hops - 2.0).abs() < 1e-9);
    // Fig. 6(b): fewest switches, more links than the mesh.
    let mesh = reports.iter().find(|(n, _)| *n == "Mesh").unwrap().1;
    assert!(bfly.switch_count < mesh.switch_count);
    assert!(bfly.link_count > mesh.link_count);
    // Clos has 3 stages -> 3 hops (Fig. 6a).
    let clos = reports.iter().find(|(n, _)| *n == "Clos").unwrap().1;
    assert!((clos.avg_hops - 3.0).abs() < 1e-9);
}

#[test]
fn fig7b_mpeg4_needs_split_routing_and_excludes_butterfly() {
    // Min-path: no topology is feasible (910 MB/s flow vs 500 MB/s links).
    let mp = Sunmap::builder(benchmarks::mpeg4())
        .routing(RoutingFunction::MinPath)
        .build()
        .explore()
        .unwrap();
    assert!(mp.best.is_none(), "min-path must fail everywhere");

    // Split-traffic: everything but the butterfly becomes feasible.
    let sa = Sunmap::builder(benchmarks::mpeg4())
        .routing(RoutingFunction::SplitAllPaths)
        .objective(Objective::MinPower)
        .build()
        .explore()
        .unwrap();
    for c in &sa.candidates {
        if c.kind.name() == "Butterfly" {
            assert!(c.outcome.is_err(), "butterfly has no path diversity");
        } else {
            assert!(c.outcome.is_ok(), "{} should be feasible", c.kind);
        }
    }
    // The mesh's area/power advantage overrides the torus's small hop
    // advantage: mesh is selected (paper: "a mesh topology is more
    // suitable for the MPEG4").
    assert_eq!(sa.best_candidate().unwrap().kind.name(), "Mesh");
}

#[test]
fn fig8b_clos_outlasts_other_topologies_under_adversarial_load() {
    // At a moderate-high injection rate, the Clos must still deliver
    // packets where weaker topologies saturate (shorter windows keep
    // the test fast; the bench sweeps the full curve).
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    let rate = 0.40;
    let mut ratios = Vec::new();
    for g in builders::standard_library(16, 500.0).unwrap() {
        let mut sim = SimSession::builder(&g).config(cfg).build();
        let stats = sim.run_synthetic(&adversarial_pattern(g.kind()), rate);
        ratios.push((g.kind().name(), stats.delivery_ratio(), stats.avg_latency));
    }
    let clos = ratios.iter().find(|(n, _, _)| *n == "Clos").unwrap();
    assert!(
        clos.1 > 0.95,
        "clos must not saturate at rate {rate}: {ratios:?}"
    );
    // At least two other topologies are already saturated or much
    // slower than the Clos there.
    let worse = ratios
        .iter()
        .filter(|(n, dr, lat)| *n != "Clos" && (*dr < 0.9 || *lat > 2.0 * clos.2))
        .count();
    assert!(worse >= 2, "clos should clearly outperform: {ratios:?}");
}

#[test]
fn fig8cd_clos_close_to_butterfly_on_area_and_power() {
    let ex = Sunmap::builder(benchmarks::network_processor(100.0))
        .routing(RoutingFunction::SplitMinPaths)
        .constraints(Constraints::relaxed_bandwidth())
        .build()
        .explore()
        .unwrap();
    let get = |name: &str| {
        ex.candidates
            .iter()
            .find(|c| c.kind.name() == name)
            .and_then(|c| c.report())
            .unwrap_or_else(|| panic!("{name} feasible"))
    };
    let clos = get("Clos");
    let bfly = get("Butterfly");
    let torus = get("Torus");
    // "only slightly higher than the butterfly topology".
    assert!(clos.design_area >= bfly.design_area - 1e-9);
    assert!(clos.design_area < 1.15 * bfly.design_area);
    assert!(clos.power_mw < 2.0 * bfly.power_mw);
    // Direct topologies cost more than the indirect pair here.
    assert!(torus.power_mw > clos.power_mw);
}

#[test]
fn fig9a_routing_staircase_and_500mbs_cutoff() {
    let mesh = builders::mesh(3, 4, 500.0).unwrap();
    let sweep = routing_bandwidth_sweep(&benchmarks::mpeg4(), &mesh);
    let bw: Vec<f64> = sweep.iter().map(|e| e.min_bandwidth).collect();
    assert!(bw[0] >= bw[1] - 1e-6 && bw[1] >= bw[2] - 1e-6 && bw[2] >= bw[3] - 1e-6);
    // "only split-traffic routing can be used for mapping MPEG4" at
    // 500 MB/s: single-path functions need more, SA fits.
    assert!(bw[0] > 500.0 && bw[1] > 500.0);
    assert!(bw[3] <= 500.0);
    // Single-path minimum is pinned by the 910 MB/s SDRAM flow.
    assert!(bw[1] >= 910.0 - 1e-6);
}

#[test]
fn fig10c_butterfly_has_minimum_simulated_latency_for_dsp() {
    let app = benchmarks::dsp_filter();
    let ex = Sunmap::builder(app.clone())
        .link_capacity(1000.0)
        .routing(RoutingFunction::MinPath)
        .build()
        .explore()
        .unwrap();
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    let mut latencies = Vec::new();
    for c in &ex.candidates {
        let mapping = c
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{} should be feasible at 1 GB/s links: {e}", c.kind));
        let mut sim = SimSession::builder(&c.graph).config(cfg).build();
        let stats = sim.run_trace(mapping.evaluation(), &app, 0.45);
        latencies.push((c.kind.name(), stats.avg_latency));
    }
    let bfly = latencies.iter().find(|(n, _)| *n == "Butterfly").unwrap().1;
    for (name, lat) in &latencies {
        if *name != "Butterfly" {
            assert!(
                bfly <= lat + 1.0,
                "butterfly ({bfly:.1}) should be fastest, {name} got {lat:.1}: {latencies:?}"
            );
        }
    }
}
