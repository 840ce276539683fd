//! Cross-crate integration tests of the full SUNMAP flow: traffic
//! models -> topology library -> mapping -> floorplan/power ->
//! selection -> generation -> simulation.

use sunmap::gen::LinkKind;
use sunmap::request::ConstraintMode;
use sunmap::sim::{SimConfig, SimSession};
use sunmap::traffic::{benchmarks, CoreGraph};
use sunmap::{Objective, RoutingFunction, Sunmap, SunmapError};

#[test]
fn end_to_end_vopd_flow() {
    let tool = Sunmap::builder(benchmarks::vopd())
        .link_capacity(500.0)
        .routing(RoutingFunction::MinPath)
        .objective(Objective::MinPower)
        .build();
    let (exploration, design) = tool.run("vopd").expect("VOPD flows end to end");

    // Phase 2: butterfly wins for VOPD (paper §6.1).
    let best = exploration.best_candidate().unwrap();
    assert_eq!(best.kind.name(), "Butterfly");

    // Phase 3: generated components match the chosen topology.
    assert_eq!(design.netlist.switch_count(), best.graph.switch_count());
    assert_eq!(design.netlist.ni_count(), 12);
    assert!(design.files.iter().any(|f| f.name.starts_with("top_")));
    assert!(design.dot.contains("digraph"));

    // The generated network simulates and delivers traffic.
    let mapping = best.outcome.as_ref().unwrap();
    let mut sim = SimSession::builder(&best.graph)
        .config(SimConfig::fast())
        .build();
    let stats = sim.run_trace(mapping.evaluation(), tool.application(), 0.2);
    assert!(stats.packets_delivered > 0);
    assert!(stats.avg_latency > 0.0);
}

#[test]
fn end_to_end_netlist_connectivity_is_closed() {
    let tool = Sunmap::builder(benchmarks::dsp_filter())
        .link_capacity(1000.0)
        .build();
    let (_, design) = tool.run("dsp").expect("DSP flows end to end");
    // Every connection endpoint indexes a real component.
    for conn in &design.netlist.connections {
        assert!(conn.from < design.netlist.components.len());
        assert!(conn.to < design.netlist.components.len());
    }
    // Every NI has exactly one attach link in each direction.
    let attach = design.netlist.connection_count(LinkKind::Attach);
    assert_eq!(attach, 2 * design.netlist.ni_count());
}

#[test]
fn objective_changes_selected_topology_cost() {
    let base = Sunmap::builder(benchmarks::mpeg4()).routing(RoutingFunction::SplitAllPaths);
    let delay_ex = base
        .clone()
        .objective(Objective::MinDelay)
        .build()
        .explore()
        .unwrap();
    let power_ex = base
        .clone()
        .objective(Objective::MinPower)
        .build()
        .explore()
        .unwrap();
    let delay_best = delay_ex.best_candidate().unwrap().report().unwrap();
    let power_best = power_ex.best_candidate().unwrap().report().unwrap();
    assert!(delay_best.avg_hops <= power_best.avg_hops + 1e-9);
    assert!(power_best.power_mw <= delay_best.power_mw + 1e-9);
}

#[test]
fn relaxed_bandwidth_constraints_admit_overloaded_mappings() {
    // With enforcement on, a 50 MB/s NoC cannot carry VOPD anywhere.
    let strict = Sunmap::builder(benchmarks::vopd())
        .link_capacity(50.0)
        .build();
    assert!(matches!(
        strict.run("x"),
        Err(SunmapError::NoFeasibleTopology(_))
    ));
    // With relaxation (the paper's §6.2 methodology), mappings exist
    // but honestly report their overload.
    let relaxed = Sunmap::builder(benchmarks::vopd())
        .link_capacity(50.0)
        .constraints(ConstraintMode::Relaxed)
        .build();
    let ex = relaxed.explore().unwrap();
    let best = ex.best_candidate().expect("relaxed mapping exists");
    let report = best.report().unwrap();
    assert!(!report.bandwidth_ok);
    assert!(report.max_link_load > 50.0);
}

#[test]
fn single_core_application_maps_trivially() {
    let mut app = CoreGraph::new();
    app.add_core("solo", 4.0);
    let tool = Sunmap::builder(app).build();
    let ex = tool.explore().unwrap();
    let best = ex.best_candidate().expect("a lone core maps anywhere");
    let r = best.report().unwrap();
    assert_eq!(r.avg_hops, 0.0);
    assert_eq!(r.max_link_load, 0.0);
}
