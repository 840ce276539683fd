//! Equivalence suite for the cached evaluation fast path.
//!
//! The contract (see `sunmap_mapping::engine`): for every placement,
//! [`EvalEngine::evaluate_report`] is bit-identical to the reference
//! [`evaluate`], and the mapper's engine-driven parallel swap search
//! returns exactly what a sequential reference search (the paper's
//! plain Fig. 5 loop over the reference evaluator) returns — same
//! assignments, same reports, same candidate counts, same observed
//! report sequence. Properties draw from every standard topology
//! builder, all four routing functions, all four objectives and both
//! constraint regimes.

use proptest::prelude::*;
use sunmap_mapping::{
    evaluate, Constraints, CostReport, EvalEngine, Mapper, MapperConfig, MappingError, Objective,
    Placement, RouteTable, RoutingFunction, SwapStrategy,
};
use sunmap_power::{AreaPowerLibrary, Technology};
use sunmap_topology::{builders, TopologyGraph};
use sunmap_traffic::CoreGraph;

/// The five standard topologies, sized for 12 cores as in the paper.
fn topology(idx: usize) -> TopologyGraph {
    let mut library = builders::standard_library(12, 500.0).expect("library builds");
    library.swap_remove(idx % 5)
}

fn routing(idx: usize) -> RoutingFunction {
    RoutingFunction::ALL[idx % 4]
}

fn objective(idx: usize) -> Objective {
    [
        Objective::MinDelay,
        Objective::MinArea,
        Objective::MinPower,
        Objective::MinBandwidth,
    ][idx % 4]
}

fn constraints(relaxed: bool) -> Constraints {
    if relaxed {
        Constraints::relaxed_bandwidth()
    } else {
        Constraints::default()
    }
}

/// Builds an application from generated (src, dst, bandwidth) triples,
/// skipping self-edges (parallel demands accumulate, as in the API).
fn build_app(cores: usize, edges: &[(usize, usize, f64)]) -> CoreGraph {
    let mut app = CoreGraph::new();
    let ids: Vec<_> = (0..cores)
        .map(|i| app.add_core(format!("c{i}"), 0.5 + (i % 5) as f64))
        .collect();
    for &(s, d, bw) in edges {
        let (s, d) = (s % cores, d % cores);
        if s != d {
            app.add_traffic(ids[s], ids[d], bw).expect("valid demand");
        }
    }
    app
}

/// Deterministic Fisher–Yates permutation of the first `take` mappable
/// nodes, seeded by `seed` (SplitMix64 steps).
fn random_placement(g: &TopologyGraph, take: usize, mut seed: u64) -> Placement {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut nodes = g.mappable_nodes().to_vec();
    for i in (1..nodes.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        nodes.swap(i, j);
    }
    nodes.truncate(take);
    Placement::new(nodes, g).expect("permutation of mappable nodes is valid")
}

/// The pre-engine sequential search: phase 1's greedy seed, then plain
/// steepest-descent passes over all vertex pairs, every candidate
/// scored by the reference evaluator. Returns what `Mapper::run`
/// returned before the fast path existed, plus the observed reports.
#[allow(clippy::type_complexity)]
fn reference_search(
    g: &TopologyGraph,
    app: &CoreGraph,
    config: MapperConfig,
) -> (
    Result<(Placement, CostReport), MappingError>,
    Vec<CostReport>,
    usize,
) {
    let mut observed = Vec::new();
    let lib = AreaPowerLibrary::new(Technology::um_0_10());
    let initial = Mapper::new(g, app, config).greedy_placement();
    let mut best = match evaluate(g, app, initial, config.routing, &lib, &config.constraints) {
        Ok(eval) => eval,
        Err(e) => return (Err(e), observed, 0),
    };
    observed.push(best.report.clone());
    let mut evaluated = 1usize;
    let nodes = g.mappable_nodes().to_vec();
    for _pass in 0..config.max_swap_passes {
        let mut best_swap = None;
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                let mut candidate = best.placement.clone();
                if !candidate.swap_nodes(nodes[i], nodes[j]) {
                    continue;
                }
                let Ok(eval) =
                    evaluate(g, app, candidate, config.routing, &lib, &config.constraints)
                else {
                    continue;
                };
                observed.push(eval.report.clone());
                evaluated += 1;
                let improves_on: &sunmap_mapping::Evaluation =
                    best_swap.as_ref().map_or(&best, |b| b);
                if eval
                    .report
                    .better_than(&improves_on.report, config.objective)
                {
                    best_swap = Some(eval);
                }
            }
        }
        match best_swap {
            Some(better) => best = better,
            None => break,
        }
    }
    let outcome = if best.report.feasible() {
        Ok((best.placement, best.report))
    } else {
        Err(MappingError::NoFeasibleMapping(Box::new(best.report)))
    };
    (outcome, observed, evaluated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `EvalEngine::evaluate_report` ≡ `evaluate(..).report`, bit for
    /// bit, on random placements across all topologies and routing
    /// functions — including identical error behaviour.
    #[test]
    fn report_matches_reference(
        topo in 0usize..5,
        rf in 0usize..4,
        cores in 2usize..=12,
        edges in proptest::collection::vec((0usize..12, 0usize..12, 5.0f64..400.0), 1..18),
        seed in 0u64..1_000_000,
        relaxed in 0usize..2,
        integral in 0usize..2,
    ) {
        let g = topology(topo);
        // Integer bandwidths from {8, 16, 32} make equal link loads, and
        // so exact ties among MinPath's route costs.
        let integral_bw = |bw: f64| [8.0, 16.0, 32.0][bw as usize % 3];
        let edges: Vec<_> = edges
            .into_iter()
            .map(|(s, d, bw)| (s, d, if integral == 1 { integral_bw(bw) } else { bw }))
            .collect();
        let app = build_app(cores, &edges);
        prop_assume!(app.edge_count() > 0);
        let routing = routing(rf);
        let constraints = constraints(relaxed == 1);
        let placement = random_placement(&g, cores, seed);

        let mut table = RouteTable::new(&g);
        table.prepare(&g, routing);
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
        let mut scratch = engine.new_scratch();

        let fast = engine.evaluate_report(&placement, &mut scratch);
        let reference = evaluate(
            &g,
            &app,
            placement.clone(),
            routing,
            &lib,
            &constraints,
        );
        match (fast, reference) {
            (Ok(f), Ok(r)) => prop_assert_eq!(f, r.report),
            (Err(MappingError::Unroutable { src: fs, dst: fd }),
             Err(MappingError::Unroutable { src: rs, dst: rd })) => {
                prop_assert_eq!((fs, fd), (rs, rd));
            }
            (f, r) => {
                return Err(TestCaseError::fail(format!(
                    "outcome mismatch: fast {f:?} vs reference {}",
                    r.map(|e| format!("{:?}", e.report)).unwrap_or_else(|e| e.to_string())
                )));
            }
        }
        // A second evaluation through the same scratch must not be
        // polluted by the first (lazy resets are per-call).
        let placement2 = random_placement(&g, cores, seed ^ 0xABCD_EF01);
        let fast2 = engine.evaluate_report(&placement2, &mut scratch).ok();
        let ref2 = evaluate(&g, &app, placement2, routing, &lib, &constraints)
            .ok()
            .map(|e| e.report);
        prop_assert_eq!(fast2, ref2);
    }

    /// The engine-driven (cached, parallel) mapper returns exactly what
    /// the sequential reference search returns: same placement, same
    /// report, same evaluation count, same observed report sequence.
    #[test]
    fn mapper_matches_reference_search(
        topo in 0usize..5,
        rf in 0usize..4,
        obj in 0usize..4,
        cores in 2usize..=10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 5.0f64..400.0), 1..14),
        relaxed in 0usize..2,
        passes in 1usize..=2,
    ) {
        let g = topology(topo);
        let app = build_app(cores, &edges);
        prop_assume!(app.edge_count() > 0);
        let config = MapperConfig {
            routing: routing(rf),
            objective: objective(obj),
            constraints: constraints(relaxed == 1),
            max_swap_passes: passes,
            swap_strategy: SwapStrategy::Exhaustive,
            ..MapperConfig::default()
        };

        let mut fast_observed = Vec::new();
        let fast = Mapper::new(&g, &app, config).run_observed(|r| fast_observed.push(r.clone()));
        let (reference, ref_observed, ref_evaluated) = reference_search(&g, &app, config);

        prop_assert_eq!(&fast_observed, &ref_observed);
        match (fast, reference) {
            (Ok(mapping), Ok((placement, report))) => {
                prop_assert_eq!(mapping.placement().assignment(), placement.assignment());
                prop_assert_eq!(mapping.report(), &report);
                prop_assert_eq!(mapping.evaluated_candidates(), ref_evaluated);
            }
            (Err(MappingError::NoFeasibleMapping(f)),
             Err(MappingError::NoFeasibleMapping(r))) => {
                prop_assert_eq!(*f, *r);
            }
            (Err(MappingError::Unroutable { src: fs, dst: fd }),
             Err(MappingError::Unroutable { src: rs, dst: rd })) => {
                prop_assert_eq!((fs, fd), (rs, rd));
            }
            (f, r) => {
                return Err(TestCaseError::fail(format!(
                    "outcome mismatch: fast {:?} vs reference {:?}",
                    f.map(|m| m.report().clone()).map_err(|e| e.to_string()),
                    r.map(|(_, rep)| rep).map_err(|e| e.to_string())
                )));
            }
        }
    }

    /// The incremental swap-delta search (pre-bounds, dimension-ordered
    /// deltas, bounded evaluations with early exit) returns exactly
    /// what the exhaustive sweep returns — same final placement, same
    /// report, same error — across all topologies × routing functions ×
    /// objectives × constraint regimes. Only the evaluation count may
    /// shrink (pruned candidates are proven non-winners).
    #[test]
    fn delta_pruned_search_matches_exhaustive(
        topo in 0usize..5,
        rf in 0usize..4,
        obj in 0usize..4,
        cores in 2usize..=10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 5.0f64..400.0), 1..14),
        relaxed in 0usize..2,
        passes in 1usize..=2,
    ) {
        let g = topology(topo);
        let app = build_app(cores, &edges);
        prop_assume!(app.edge_count() > 0);
        let config = |strategy| MapperConfig {
            routing: routing(rf),
            objective: objective(obj),
            constraints: constraints(relaxed == 1),
            max_swap_passes: passes,
            swap_strategy: strategy,
            ..MapperConfig::default()
        };

        let exhaustive = Mapper::new(&g, &app, config(SwapStrategy::Exhaustive)).run();
        let pruned = Mapper::new(&g, &app, config(SwapStrategy::DeltaPruned)).run();
        match (exhaustive, pruned) {
            (Ok(full), Ok(delta)) => {
                prop_assert_eq!(full.placement().assignment(), delta.placement().assignment());
                prop_assert_eq!(full.report(), delta.report());
                prop_assert!(delta.evaluated_candidates() <= full.evaluated_candidates());
            }
            (Err(MappingError::NoFeasibleMapping(f)),
             Err(MappingError::NoFeasibleMapping(d))) => {
                prop_assert_eq!(*f, *d);
            }
            (Err(f), Err(d)) => prop_assert_eq!(f.to_string(), d.to_string()),
            (f, d) => {
                return Err(TestCaseError::fail(format!(
                    "outcome mismatch: exhaustive ok={} vs delta-pruned ok={}",
                    f.is_ok(), d.is_ok()
                )));
            }
        }
    }

    /// Reusing one route table across routing functions and repeated
    /// runs (the sweep/exploration pattern) changes nothing.
    #[test]
    fn route_table_reuse_is_transparent(
        topo in 0usize..5,
        cores in 2usize..=10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 5.0f64..400.0), 1..10),
    ) {
        let g = topology(topo);
        let app = build_app(cores, &edges);
        prop_assume!(app.edge_count() > 0);
        let mut table = RouteTable::new(&g);
        for rf in RoutingFunction::ALL {
            let config = MapperConfig {
                routing: rf,
                objective: Objective::MinDelay,
                constraints: Constraints::relaxed_bandwidth(),
                max_swap_passes: 1,
                ..MapperConfig::default()
            };
            let shared = Mapper::new(&g, &app, config)
                .with_route_table(&mut table)
                .run();
            let fresh = Mapper::new(&g, &app, config).run();
            match (shared, fresh) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.placement().assignment(), b.placement().assignment());
                    prop_assert_eq!(a.report(), b.report());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "reuse mismatch: {:?} vs {:?}",
                        a.is_ok(), b.is_ok()
                    )));
                }
            }
        }
    }
}

/// The ISSUE-5 acceptance case: a 64-core seeded synthetic application
/// on an 8×8 mesh. The delta-pruned sweep (what `SwapStrategy::Auto`
/// selects at this size) must reproduce the exhaustive sweep's winner
/// report and placement bit for bit, for both a load-dependent and a
/// placement-independent routing function under both a delay and a
/// power objective.
#[test]
fn delta_pruned_matches_exhaustive_on_64_core_synthetic_mesh() {
    use sunmap_topology::builders;
    use sunmap_traffic::synthetic::SyntheticSpec;

    let spec: SyntheticSpec = "synth:seed=7,cores=64".parse().expect("valid spec");
    let app = spec.generate();
    let g = builders::mesh(8, 8, 500.0).expect("mesh builds");
    for (routing, objective) in [
        (RoutingFunction::MinPath, Objective::MinDelay),
        (RoutingFunction::MinPath, Objective::MinPower),
        (RoutingFunction::DimensionOrdered, Objective::MinDelay),
        (RoutingFunction::DimensionOrdered, Objective::MinPower),
    ] {
        let config = |strategy| MapperConfig {
            routing,
            objective,
            constraints: Constraints::relaxed_bandwidth(),
            max_swap_passes: 1,
            swap_strategy: strategy,
            ..MapperConfig::default()
        };
        let full = Mapper::new(&g, &app, config(SwapStrategy::Exhaustive))
            .run()
            .expect("synthetic workload maps under relaxed bandwidth");
        let delta = Mapper::new(&g, &app, config(SwapStrategy::DeltaPruned))
            .run()
            .expect("synthetic workload maps under relaxed bandwidth");
        assert_eq!(
            full.placement().assignment(),
            delta.placement().assignment(),
            "{routing} {objective}: placements diverged"
        );
        assert_eq!(
            full.report(),
            delta.report(),
            "{routing} {objective}: winner reports diverged"
        );
        assert!(
            delta.evaluated_candidates() < full.evaluated_candidates(),
            "{routing} {objective}: pruning did not reduce evaluations"
        );
        // Auto resolves to the delta engine at this size.
        let auto = Mapper::new(&g, &app, config(SwapStrategy::Auto))
            .run()
            .expect("synthetic workload maps under relaxed bandwidth");
        assert_eq!(auto.evaluated_candidates(), delta.evaluated_candidates());
        assert_eq!(auto.report(), delta.report());
    }
}

/// The strict-bandwidth sibling of the case above: at 500 MB/s these
/// 64-core mesh and Clos searches end infeasible, so every delta-pruned
/// candidate is scored against an infeasible incumbent (no pre-bound;
/// the switch-cut pre-bound, routed-prefix reuse and the mid-routing
/// max-load exit). On the Clos the switch cut drops about half of the
/// candidates before routing. Both scorers must still settle on the
/// same least-infeasible report, the delta scorer after fewer full
/// evaluations.
#[test]
fn delta_pruned_matches_exhaustive_on_infeasible_64_core_synthetic_mesh_and_clos() {
    use sunmap_topology::{builders, TopologyKind};
    use sunmap_traffic::synthetic::SyntheticSpec;

    let spec: SyntheticSpec = "synth:seed=13,cores=64".parse().expect("valid spec");
    let app = spec.generate();
    let clos = builders::standard_library(64, 500.0)
        .expect("library builds")
        .into_iter()
        .find(|g| matches!(g.kind(), TopologyKind::Clos { .. }))
        .expect("the library has a Clos");
    let mesh = builders::mesh(8, 8, 500.0).expect("mesh builds");
    for (g, objective) in [&mesh, &clos]
        .into_iter()
        .flat_map(|g| [(g, Objective::MinDelay), (g, Objective::MinPower)])
    {
        let run = |swap_strategy| {
            let mut evaluated = 0usize;
            let config = MapperConfig {
                routing: RoutingFunction::MinPath,
                objective,
                max_swap_passes: 1,
                swap_strategy,
                ..MapperConfig::default()
            };
            let result = Mapper::new(g, &app, config).run_observed(|_| evaluated += 1);
            match result {
                Err(MappingError::NoFeasibleMapping(best)) => (best, evaluated),
                other => panic!(
                    "{} {objective}: expected NoFeasibleMapping, got {other:?}",
                    g.kind()
                ),
            }
        };
        let (full, full_evaluated) = run(SwapStrategy::Exhaustive);
        let (delta, delta_evaluated) = run(SwapStrategy::DeltaPruned);
        assert_eq!(
            full,
            delta,
            "{} {objective}: least-infeasible reports diverged",
            g.kind()
        );
        assert!(
            delta_evaluated < full_evaluated,
            "{} {objective}: pruning did not reduce evaluations",
            g.kind()
        );
    }
}

/// The two overflow inputs of the feasibility gate: one demand, or two
/// core areas, near `f64::MAX` overflow the cost sums, which makes
/// every report infeasible (`CostReport::feasible` needs finite
/// metrics). On every topology and objective the delta scorer must
/// settle on exactly the exhaustive scorer's least-infeasible report.
#[test]
fn delta_pruned_matches_exhaustive_when_costs_overflow() {
    use sunmap_traffic::io::parse_app;

    for (text, constraints) in [
        (
            "core a 1\ncore b 1\ntraffic a b 1e308\n",
            Constraints::relaxed_bandwidth(),
        ),
        (
            "core a 1e308\ncore b 1e308\ntraffic a b 1\n",
            Constraints::default(),
        ),
    ] {
        let app = parse_app(text).expect("overflow inputs parse");
        for g in builders::standard_library(2, 500.0).expect("library builds") {
            for objective in (0..4).map(objective) {
                let run = |swap_strategy| {
                    let config = MapperConfig {
                        objective,
                        constraints,
                        swap_strategy,
                        ..MapperConfig::default()
                    };
                    match Mapper::new(&g, &app, config).run() {
                        Err(MappingError::NoFeasibleMapping(best)) => best,
                        other => panic!(
                            "{} {objective}: expected infeasible, got {other:?}",
                            g.kind()
                        ),
                    }
                };
                assert_eq!(
                    run(SwapStrategy::Exhaustive),
                    run(SwapStrategy::DeltaPruned),
                    "{} {objective}: least-infeasible reports diverged",
                    g.kind()
                );
            }
        }
    }
}

/// A 5e9 MB/s demand, routed first (commodities go in decreasing
/// bandwidth), loads its links far past MinPath's hop weight of 1e9, so
/// commodities whose quadrants share those links meet search levels
/// whose costs spread too widely for the heap-free level search, which
/// must leave them to Dijkstra. The reports must still be the
/// reference's, and the fallback must run somewhere: the butterfly's
/// one-path quadrants never need it.
#[test]
fn min_path_matches_reference_past_the_hop_weight() {
    let routing = RoutingFunction::MinPath;
    let constraints = Constraints::relaxed_bandwidth();
    let mut app = CoreGraph::new();
    let cores: Vec<_> = (0..16)
        .map(|i| app.add_core(format!("c{i}"), 1.0))
        .collect();
    app.add_traffic(cores[0], cores[15], 5e9)
        .expect("valid demand");
    for i in 1..8 {
        app.add_traffic(cores[i], cores[15 - i], 100.0)
            .expect("valid demand");
        app.add_traffic(cores[0], cores[15 - i], 50.0)
            .expect("valid demand");
    }
    let mut fallbacks = 0;
    for g in builders::standard_library(16, 500.0).expect("library builds") {
        let mut table = RouteTable::new(&g);
        table.prepare(&g, routing);
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
        let mut scratch = engine.new_scratch();
        for seed in 0..4 {
            let placement = random_placement(&g, 16, seed);
            let fast = engine.evaluate_report(&placement, &mut scratch).ok();
            let reference = evaluate(&g, &app, placement, routing, &lib, &constraints)
                .ok()
                .map(|e| e.report);
            assert_eq!(fast, reference, "{} seed {seed}", g.kind());
        }
        fallbacks += scratch.level_fallbacks();
    }
    assert!(fallbacks > 0, "no commodity needed the Dijkstra fallback");
}
