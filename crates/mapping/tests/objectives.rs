//! Cross-objective and cross-routing behaviour of the mapping engine.

use sunmap_mapping::{
    evaluate, Constraints, Mapper, MapperConfig, Objective, Placement, RoutingFunction,
};
use sunmap_power::{AreaPowerLibrary, Technology};
use sunmap_topology::builders;
use sunmap_traffic::benchmarks;

#[test]
fn min_bandwidth_objective_minimises_max_link_load() {
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    let bw_cfg = MapperConfig {
        constraints: Constraints::relaxed_bandwidth(),
        ..MapperConfig::new(RoutingFunction::MinPath, Objective::MinBandwidth)
    };
    let delay_cfg = MapperConfig {
        constraints: Constraints::relaxed_bandwidth(),
        ..MapperConfig::new(RoutingFunction::MinPath, Objective::MinDelay)
    };
    let bw = Mapper::new(&g, &app, bw_cfg).run().unwrap();
    let delay = Mapper::new(&g, &app, delay_cfg).run().unwrap();
    assert!(
        bw.report().max_link_load <= delay.report().max_link_load + 1e-6,
        "min-bandwidth {} worse than min-delay {}",
        bw.report().max_link_load,
        delay.report().max_link_load
    );
}

#[test]
fn technology_scaling_propagates_to_reports() {
    // VOPD on its standard-library mesh, priced at the default 0.1 µm
    // and at 0.18 µm: the coarser node must cost area and power.
    let app = benchmarks::vopd();
    let (rows, cols) = builders::grid_dims(app.core_count());
    let g = builders::mesh(rows, cols, 500.0).unwrap();
    let config = MapperConfig::default();
    let fine = Mapper::new(&g, &app, config).run().unwrap();
    let coarse = Mapper::with_library(
        &g,
        &app,
        config,
        AreaPowerLibrary::new(Technology::um_0_18()),
    )
    .run()
    .unwrap();
    let (f, c) = (fine.report(), coarse.report());
    assert!(c.switch_area > 2.0 * f.switch_area, "area must scale up");
    assert!(c.power_mw > f.power_mw, "power must scale up");
}

#[test]
fn min_area_objective_never_loses_on_area() {
    let g = builders::butterfly(4, 2, 500.0).unwrap();
    let app = benchmarks::vopd();
    let area = Mapper::new(
        &g,
        &app,
        MapperConfig::new(RoutingFunction::MinPath, Objective::MinArea),
    )
    .run()
    .unwrap();
    let power = Mapper::new(
        &g,
        &app,
        MapperConfig::new(RoutingFunction::MinPath, Objective::MinPower),
    )
    .run()
    .unwrap();
    assert!(area.report().design_area <= power.report().design_area + 1e-9);
}

#[test]
fn dimension_ordered_routing_maps_the_vopd() {
    // DO is the most restrictive function; VOPD still fits a mesh.
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    let mapping = Mapper::new(
        &g,
        &app,
        MapperConfig::new(RoutingFunction::DimensionOrdered, Objective::MinDelay),
    )
    .run()
    .expect("VOPD fits a mesh under XY routing");
    assert!(mapping.report().feasible());
    // DO routes are minimal, so delay matches min-path-grade results.
    assert!(mapping.report().avg_hops < 3.0);
}

#[test]
fn routing_freedom_orders_max_link_load_on_fixed_placement() {
    // On the *same* placement: DO >= MP >= SM >= SA in achievable
    // max load (more freedom never hurts).
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::mpeg4();
    let placement = Placement::new(g.mappable_nodes()[..12].to_vec(), &g).unwrap();
    let lib = AreaPowerLibrary::new(Technology::um_0_10());
    let relaxed = Constraints::relaxed_bandwidth();
    let mut loads = Vec::new();
    for rf in RoutingFunction::ALL {
        let eval = evaluate(&g, &app, placement.clone(), rf, &lib, &relaxed).unwrap();
        loads.push(eval.report.max_link_load);
    }
    assert!(
        loads[0] >= loads[1] - 1e-6,
        "DO {} < MP {}",
        loads[0],
        loads[1]
    );
    assert!(
        loads[1] >= loads[2] - 1e-6,
        "MP {} < SM {}",
        loads[1],
        loads[2]
    );
    assert!(
        loads[2] >= loads[3] - 1e-6,
        "SM {} < SA {}",
        loads[2],
        loads[3]
    );
}

#[test]
fn area_constraint_rejects_tight_budgets() {
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    // VOPD cores alone are 50 mm²: a 40 mm² budget is impossible.
    let cfg = MapperConfig {
        constraints: Constraints::with_max_area(40.0),
        ..MapperConfig::default()
    };
    assert!(Mapper::new(&g, &app, cfg).run().is_err());
    // A 80 mm² budget is comfortable.
    let cfg = MapperConfig {
        constraints: Constraints::with_max_area(80.0),
        ..MapperConfig::default()
    };
    let mapping = Mapper::new(&g, &app, cfg).run().unwrap();
    assert!(mapping.report().design_area <= 80.0);
}

#[test]
fn swap_passes_zero_matches_pure_greedy() {
    let g = builders::torus(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    let cfg = MapperConfig {
        max_swap_passes: 0,
        ..MapperConfig::default()
    };
    let m = Mapper::new(&g, &app, cfg).run().unwrap();
    // Exactly one evaluation: the greedy seed.
    assert_eq!(m.evaluated_candidates(), 1);
}

#[test]
fn mapping_all_benchmarks_on_their_best_topologies() {
    // Smoke coverage of the four paper applications end to end.
    let cases: Vec<(sunmap_traffic::CoreGraph, f64, RoutingFunction)> = vec![
        (benchmarks::vopd(), 500.0, RoutingFunction::MinPath),
        (benchmarks::mpeg4(), 500.0, RoutingFunction::SplitAllPaths),
        (benchmarks::dsp_filter(), 1000.0, RoutingFunction::MinPath),
        (
            benchmarks::network_processor(50.0),
            500.0,
            RoutingFunction::SplitMinPaths,
        ),
    ];
    for (app, cap, rf) in cases {
        let mut any = false;
        for g in builders::standard_library(app.core_count(), cap).unwrap() {
            if let Ok(m) = Mapper::new(&g, &app, MapperConfig::new(rf, Objective::MinDelay)).run() {
                assert!(m.report().feasible());
                any = true;
            }
        }
        assert!(any, "at least one topology must carry each benchmark");
    }
}

#[test]
fn evaluation_is_objective_independent() {
    // evaluate() measures; the objective only matters for search. The
    // same placement must yield identical reports whichever objective
    // later consumes them.
    let g = builders::mesh(3, 3, 500.0).unwrap();
    let app = benchmarks::dsp_filter();
    let placement = Placement::new(g.mappable_nodes()[..6].to_vec(), &g).unwrap();
    let lib = AreaPowerLibrary::new(Technology::um_0_10());
    let e1 = evaluate(
        &g,
        &app,
        placement.clone(),
        RoutingFunction::MinPath,
        &lib,
        &Constraints::default(),
    )
    .unwrap();
    let e2 = evaluate(
        &g,
        &app,
        placement,
        RoutingFunction::MinPath,
        &lib,
        &Constraints::default(),
    )
    .unwrap();
    assert_eq!(e1.report, e2.report);
}

#[test]
fn scales_to_a_64_core_soc() {
    // Scalability smoke test: a synthetic 64-core SoC with local +
    // hub traffic maps onto an 8x8 mesh with the greedy seed alone
    // (swap refinement disabled to keep the test quick).
    let mut app = sunmap_traffic::CoreGraph::new();
    let ids: Vec<_> = (0..64)
        .map(|i| app.add_core(format!("tile{i}"), 1.5))
        .collect();
    for i in 0..64usize {
        app.add_traffic(ids[i], ids[(i + 1) % 64], 50.0).unwrap();
        if i != 0 {
            app.add_traffic(ids[i], ids[0], 5.0).unwrap(); // light hub
        }
    }
    let g = builders::mesh(8, 8, 500.0).unwrap();
    let cfg = MapperConfig {
        max_swap_passes: 0,
        ..MapperConfig::default()
    };
    let mapping = Mapper::new(&g, &app, cfg)
        .run()
        .expect("64-core greedy mapping");
    let r = mapping.report();
    assert!(r.feasible());
    assert!(r.avg_hops >= 2.0);
    // Greedy placement keeps the ring local: far below the 5.33 hops a
    // random placement would average on an 8x8 mesh.
    assert!(
        r.avg_hops < 4.0,
        "greedy ring placement too loose: {}",
        r.avg_hops
    );
}
