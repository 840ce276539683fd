//! Regression suite for the `UNREACHABLE_HOPS` sentinel (ISSUE 5
//! audit): the route table marks unreachable pairs with `u32::MAX`,
//! and the greedy phase-1/2 placement cost must treat them exactly
//! like the reference's `hop_distance(..).unwrap_or(usize::MAX / 2)` —
//! widened to `f64` *before* any summation, so accumulating several
//! sentinel costs can never wrap and silently prefer a disconnected
//! vertex over a connected one.

use sunmap_mapping::{
    evaluate, Constraints, EvalEngine, Mapper, MapperConfig, MappingError, Placement, RouteTable,
    RoutingFunction,
};
use sunmap_power::{AreaPowerLibrary, Technology};
use sunmap_topology::{paths, CustomTopologyBuilder, NodeId, TopologyGraph};
use sunmap_traffic::CoreGraph;

/// Two islands: a 4-switch clique with four ports (high-degree, where
/// the greedy seed lands) and a disconnected 2-switch pair with two
/// ports. Returns the graph and the port partition (island A, island
/// B), in `mappable_nodes` order.
fn two_islands() -> (TopologyGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = CustomTopologyBuilder::new("two-islands");
    let a: Vec<_> = (0..4).map(|_| b.add_switch()).collect();
    for i in 0..4 {
        for j in i + 1..4 {
            b.add_link(a[i], a[j], 500.0).unwrap();
        }
    }
    let c0 = b.add_switch();
    let c1 = b.add_switch();
    b.add_link(c0, c1, 500.0).unwrap();
    for &s in &a {
        b.add_port(s).unwrap();
    }
    b.add_port(c0).unwrap();
    b.add_port(c1).unwrap();
    let g = b.build().unwrap();
    let ports: Vec<NodeId> = g.mappable_nodes().to_vec();
    assert_eq!(ports.len(), 6);
    let island_a = ports[..4].to_vec();
    let island_b = ports[4..].to_vec();
    // Sanity: the islands really are mutually unreachable.
    assert!(paths::hop_distance(&g, island_a[0], island_b[0]).is_none());
    assert!(paths::hop_distance(&g, island_a[0], island_a[3]).is_some());
    (g, island_a, island_b)
}

/// A core that talks to `n` already-placed partners accumulates `n`
/// sentinel distances when probed on the disconnected island. With the
/// reference's `usize::MAX / 2` cost widened to f64 that sum stays
/// astronomically large; a `u32` wrap would instead make three
/// sentinels look *cheap* and pull the core across the cut.
#[test]
fn greedy_never_prefers_disconnected_vertices() {
    let (g, island_a, island_b) = two_islands();
    let mut app = CoreGraph::new();
    let cores: Vec<_> = (0..4).map(|i| app.add_core(format!("c{i}"), 1.0)).collect();
    // c3 communicates with all three others: by the time it places,
    // every island-B candidate costs three sentinel distances.
    app.add_traffic(cores[0], cores[1], 100.0).unwrap();
    app.add_traffic(cores[1], cores[2], 90.0).unwrap();
    app.add_traffic(cores[3], cores[0], 80.0).unwrap();
    app.add_traffic(cores[3], cores[1], 70.0).unwrap();
    app.add_traffic(cores[3], cores[2], 60.0).unwrap();

    let placement = Mapper::new(&g, &app, MapperConfig::default()).greedy_placement();
    for (i, &node) in placement.assignment().iter().enumerate() {
        assert!(
            island_a.contains(&node),
            "core {i} landed on disconnected island B ({node:?})",
        );
        assert!(!island_b.contains(&node));
    }
}

/// The table-backed greedy distances must reproduce the reference
/// `hop_distance(..).unwrap_or(usize::MAX / 2)` behaviour: the greedy
/// placement built through a `RouteTable` equals one built through a
/// fresh mapper (which builds its own), and both route/evaluate
/// exactly like the reference on the connected island.
#[test]
fn table_greedy_matches_reference_on_disconnected_graph() {
    let (g, island_a, _) = two_islands();
    let mut app = CoreGraph::new();
    let c: Vec<_> = (0..3).map(|i| app.add_core(format!("s{i}"), 1.0)).collect();
    app.add_traffic(c[0], c[1], 120.0).unwrap();
    app.add_traffic(c[1], c[2], 50.0).unwrap();

    let mut table = RouteTable::new(&g);
    let via_table = Mapper::new(&g, &app, MapperConfig::default())
        .with_route_table(&mut table)
        .greedy_placement();
    let fresh = Mapper::new(&g, &app, MapperConfig::default()).greedy_placement();
    assert_eq!(via_table.assignment(), fresh.assignment());
    for &node in via_table.assignment() {
        assert!(island_a.contains(&node), "greedy crossed the cut");
    }

    // The full run maps feasibly inside the island, and the fast path
    // agrees with the reference bit for bit here too.
    let mapping = Mapper::new(&g, &app, MapperConfig::default())
        .run()
        .expect("3 cores fit the connected island");
    let lib = AreaPowerLibrary::new(Technology::um_0_10());
    let reference = evaluate(
        &g,
        &app,
        mapping.placement().clone(),
        RoutingFunction::MinPath,
        &lib,
        &Constraints::default(),
    )
    .expect("winner re-evaluates");
    assert_eq!(&reference.report, mapping.report());
}

/// When the application cannot fit inside one island, some commodity
/// must cross the cut and the run reports `Unroutable` — identically
/// through the reference evaluator and the cached engine.
#[test]
fn cross_island_commodities_error_identically() {
    let (g, island_a, island_b) = two_islands();
    let mut app = CoreGraph::new();
    let c: Vec<_> = (0..2).map(|i| app.add_core(format!("x{i}"), 1.0)).collect();
    app.add_traffic(c[0], c[1], 100.0).unwrap();

    // Force a placement across the cut.
    let placement = Placement::new(vec![island_a[0], island_b[0]], &g).unwrap();
    let routing = RoutingFunction::MinPath;
    let mut table = RouteTable::new(&g);
    table.prepare(&g, routing);
    let lib = AreaPowerLibrary::new(Technology::um_0_10());
    let constraints = Constraints::default();
    let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
    let mut scratch = engine.new_scratch();

    let fast = engine.evaluate_report(&placement, &mut scratch);
    let reference = evaluate(&g, &app, placement, routing, &lib, &constraints);
    match (fast, reference) {
        (
            Err(MappingError::Unroutable { src: fs, dst: fd }),
            Err(MappingError::Unroutable { src: rs, dst: rd }),
        ) => assert_eq!((fs, fd), (rs, rd)),
        (f, r) => panic!(
            "expected identical Unroutable errors, got fast {:?} / reference {:?}",
            f.map(|_| ()),
            r.map(|_| ())
        ),
    }
}
