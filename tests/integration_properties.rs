//! Property-based tests (proptest) of the core invariants — flow
//! conservation, sound floorplans, hop floors, injective placements,
//! exact Pareto fronts, quadrant min paths, capacity-honouring split
//! routing — exercised across randomly generated applications and
//! topology shapes.

use proptest::prelude::*;

use sunmap::mapping::{evaluate, Constraints, Placement};
use sunmap::power::{AreaPowerLibrary, Technology};
use sunmap::topology::{builders, paths, quadrant, NodeKind, TopologyGraph};
use sunmap::traffic::CoreGraph;
use sunmap::{pareto_front, Mapper, MapperConfig, ParetoPoint, RoutingFunction};

/// A random small application: `n` cores, random edges with bandwidth
/// in [1, 400] MB/s.
fn arb_app(max_cores: usize) -> impl Strategy<Value = CoreGraph> {
    (2..=max_cores)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n, 1.0f64..400.0), 1..(2 * n).min(12));
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut g = CoreGraph::new();
            let ids: Vec<_> = (0..n)
                .map(|i| g.add_core(format!("c{i}"), 1.0 + (i % 5) as f64))
                .collect();
            for (a, b, bw) in edges {
                if a != b {
                    g.add_traffic(ids[a], ids[b], bw).expect("valid traffic");
                }
            }
            g
        })
}

/// A topology from the standard library, sized for `cores`.
fn arb_topology(cores: usize) -> impl Strategy<Value = TopologyGraph> {
    (0usize..5).prop_map(move |i| {
        builders::standard_library(cores, 500.0).expect("library builds")[i].clone()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quadrant graphs preserve minimum paths on every topology and
    /// every mappable pair (the defining property of §4.3).
    #[test]
    fn quadrants_preserve_min_paths(cores in 2usize..14, pick in 0usize..5) {
        let lib = builders::standard_library(cores, 500.0).unwrap();
        let g = &lib[pick];
        let nodes = g.mappable_nodes();
        for &a in nodes.iter().take(6) {
            for &b in nodes.iter().rev().take(6) {
                if a == b { continue; }
                let q = quadrant::quadrant_set(g, a, b);
                let full = paths::shortest_path(g, a, b, None).expect("connected");
                let restricted = paths::shortest_path(g, a, b, Some(&q))
                    .expect("quadrant keeps endpoints connected");
                prop_assert_eq!(restricted.len(), full.len());
            }
        }
    }

    /// Routed mappings conserve flow: per-commodity fractions sum to 1,
    /// every path runs source to destination, and link loads equal the
    /// sum of path flows.
    #[test]
    fn evaluation_conserves_flow(
        app in arb_app(8),
        routing_idx in 0usize..4,
    ) {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        prop_assume!(app.core_count() <= g.mappable_nodes().len());
        let placement = Placement::new(
            g.mappable_nodes()[..app.core_count()].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let routing = RoutingFunction::ALL[routing_idx];
        let eval = evaluate(&g, &app, placement, routing, &lib,
                            &Constraints::relaxed_bandwidth()).unwrap();
        let mut expected = vec![0.0f64; g.edge_count()];
        for r in &eval.routes {
            let total: f64 = r.paths.iter().map(|(_, f)| f).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            for (p, f) in &r.paths {
                prop_assert_eq!(p.first(), Some(&r.src_node));
                prop_assert_eq!(p.last(), Some(&r.dst_node));
                for w in p.windows(2) {
                    let e = g.find_edge(w[0], w[1]).expect("path uses real edges");
                    expected[e.index()] += r.commodity.bandwidth * f;
                }
            }
        }
        for (a, b) in eval.link_loads.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// The mapper's result is a valid injective placement and, when it
    /// succeeds, genuinely satisfies the constraints it claims.
    #[test]
    fn mapper_placements_are_injective_and_feasible(
        app in arb_app(10),
        topo in (2usize..14).prop_flat_map(arb_topology),
    ) {
        prop_assume!(app.core_count() <= topo.mappable_nodes().len());
        let config = MapperConfig {
            max_swap_passes: 1,
            ..MapperConfig::default()
        };
        match Mapper::new(&topo, &app, config).run() {
            Ok(mapping) => {
                let assignment = mapping.placement().assignment();
                let mut seen = std::collections::HashSet::new();
                for node in assignment {
                    prop_assert!(seen.insert(*node), "duplicate target {node}");
                    prop_assert!(topo.mappable_nodes().contains(node));
                }
                let r = mapping.report();
                prop_assert!(r.feasible());
                prop_assert!(r.max_link_load <= 500.0 * (1.0 + 1e-9));
                prop_assert!(r.avg_hops >= 0.0);
                prop_assert!(r.power_mw >= 0.0);
                prop_assert!(r.design_area > 0.0);
            }
            Err(_) => {
                // Infeasibility is a legitimate outcome for random
                // heavy traffic; nothing further to check.
            }
        }
    }

    /// Split routing is capacity-honouring: it never requires
    /// meaningfully more link bandwidth than single-path routing. Below
    /// capacity SA deliberately stays on the shortest paths (keeping
    /// hop counts near minimum-path), so the guarantee is
    /// `SA <= max(MP, capacity) + one chunk of the heaviest commodity`.
    #[test]
    fn split_routing_is_capacity_honouring(app in arb_app(9)) {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        prop_assume!(app.core_count() <= 9);
        let placement = Placement::new(
            g.mappable_nodes()[..app.core_count()].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let mp = evaluate(&g, &app, placement.clone(), RoutingFunction::MinPath,
                          &lib, &Constraints::relaxed_bandwidth()).unwrap();
        let sa = evaluate(&g, &app, placement, RoutingFunction::SplitAllPaths,
                          &lib, &Constraints::relaxed_bandwidth()).unwrap();
        let chunk = app.commodities().first().map(|c| c.bandwidth).unwrap_or(0.0) / 16.0;
        let bound = mp.report.max_link_load.max(500.0) + chunk + 1e-6;
        prop_assert!(sa.report.max_link_load <= bound,
            "SA {} exceeds bound {} (MP {})",
            sa.report.max_link_load, bound, mp.report.max_link_load);
        // And when single-path routing is infeasible, splitting always
        // helps or matches.
        if mp.report.max_link_load > 500.0 {
            prop_assert!(sa.report.max_link_load <= mp.report.max_link_load + 1e-6);
        }
    }

    /// Floorplans never overlap blocks, preserve areas, and contain
    /// every block in the chip bounding box.
    #[test]
    fn floorplans_are_geometrically_sound(
        app in arb_app(12),
        pick in 0usize..5,
    ) {
        let lib = builders::standard_library(app.core_count(), 500.0).unwrap();
        let g = &lib[pick];
        prop_assume!(app.core_count() <= g.mappable_nodes().len());
        let placement = Placement::new(
            g.mappable_nodes()[..app.core_count()].to_vec(), g).unwrap();
        let pw = AreaPowerLibrary::new(Technology::um_0_10());
        let eval = evaluate(g, &app, placement, RoutingFunction::MinPath,
                            &pw, &Constraints::relaxed_bandwidth()).unwrap();
        let fp = &eval.floorplan;
        let blocks = fp.blocks();
        for (i, a) in blocks.iter().enumerate() {
            prop_assert!(a.x >= -1e-9 && a.y >= -1e-9);
            prop_assert!(a.x + a.width <= fp.chip_width() + 1e-9);
            prop_assert!(a.y + a.height <= fp.chip_height() + 1e-9);
            for b in &blocks[i + 1..] {
                prop_assert!(!a.overlaps(b), "{} overlaps {}", a.id, b.id);
            }
        }
        prop_assert!(fp.utilization() > 0.0 && fp.utilization() <= 1.0 + 1e-9);
    }

    /// Pareto fronts are internally non-dominated and cover every
    /// non-dominated input point.
    #[test]
    fn pareto_front_is_exact(
        raw in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
    ) {
        let points: Vec<ParetoPoint> = raw.iter().enumerate()
            .map(|(i, (x, y))| ParetoPoint { label: format!("p{i}"), x: *x, y: *y })
            .collect();
        let front = pareto_front(&points);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                prop_assert!(!a.dominates(b));
            }
        }
        for p in &points {
            let dominated = points.iter().any(|q| q.dominates(p));
            let in_front = front.iter().any(|f| f.x == p.x && f.y == p.y);
            prop_assert!(dominated || in_front,
                "{} is non-dominated but missing from the front", p.label);
        }
    }

    /// Hop counts honour the paper's floor: any remote communication
    /// traverses at least two switches; butterfly always exactly its
    /// stage count.
    #[test]
    fn hop_floors_hold(app in arb_app(10)) {
        prop_assume!(app.edge_count() > 0);
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        prop_assume!(app.core_count() <= 16);
        let placement = Placement::new(
            g.mappable_nodes()[..app.core_count()].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let eval = evaluate(&g, &app, placement, RoutingFunction::MinPath,
                            &lib, &Constraints::relaxed_bandwidth()).unwrap();
        for r in &eval.routes {
            prop_assert!((r.hops - 2.0).abs() < 1e-9,
                "butterfly hop count must be the stage count");
        }
    }
}

/// Non-proptest structural check kept here because it spans crates:
/// the mappable vertices of every standard topology are exactly its
/// core-attachment points.
#[test]
fn standard_library_mappable_counts() {
    for cores in [2usize, 5, 9, 12, 16] {
        for g in builders::standard_library(cores, 500.0).unwrap() {
            assert!(g.mappable_nodes().len() >= cores, "{}", g.kind());
            for n in g.mappable_nodes() {
                let k = g.node_kind(*n);
                if g.kind().is_direct() {
                    assert_eq!(k, NodeKind::Switch);
                } else {
                    assert_eq!(k, NodeKind::CorePort);
                }
            }
        }
    }
}
