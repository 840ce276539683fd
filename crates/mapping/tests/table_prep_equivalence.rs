//! Equivalence suite for route-table preparation strategies.
//!
//! The contract (see [`sunmap_mapping::TablePrep`]): `Lazy` and
//! `ClosedForm` preparation change *when* per-pair routing state is
//! computed, never *what* is computed. Every answer a [`RouteTable`]
//! gives — hop distances, the adjacency matrix, quadrant vertex sets,
//! enumerated path sets, simulator route sets — must be bit-identical
//! to the eager dense preparation (the original implementation, kept
//! as the oracle), and a full [`Mapper`] run under any preparation
//! must produce the same placement, the same [`CostReport`]s and the
//! same observed report sequence. Properties draw from every standard
//! topology builder and all four routing functions.
//!
//! Set `TABLE_EQUIV_CASES=<n>` to sweep `n` extra synthetic seeds per
//! scale tier on top of the defaults (`make table-equiv` wires this
//! up).

use proptest::prelude::*;
use sunmap_mapping::{
    Constraints, CostReport, Mapper, MapperConfig, MappingError, Objective, RouteTable,
    RoutingFunction, TablePrep,
};
use sunmap_topology::{builders, NodeId, TopologyGraph};
use sunmap_traffic::synthetic::SyntheticSpec;
use sunmap_traffic::CoreGraph;

/// The five standard topologies, sized for `cores` cores.
fn topology(idx: usize, cores: usize) -> TopologyGraph {
    let mut library = builders::standard_library(cores, 500.0).expect("library builds");
    library.swap_remove(idx % 5)
}

fn routing(idx: usize) -> RoutingFunction {
    RoutingFunction::ALL[idx % 4]
}

/// The non-eager strategies under test. An explicit `ClosedForm`
/// request degrades to `Lazy` on topologies without a closed form,
/// so both rows are meaningful on every library member.
const VARIANTS: [TablePrep; 2] = [TablePrep::Lazy, TablePrep::ClosedForm];

/// Extra synthetic seeds requested through the `TABLE_EQUIV_CASES`
/// env knob: `n` extra deterministic seeds per scale tier.
fn extra_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("TABLE_EQUIV_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (1..=n).map(|i| 1_000 + i).collect()
}

/// Asserts that `table` answers every per-pair query over `g`'s
/// mappable vertices bit-identically to the `eager` oracle, for the
/// store `rf` uses plus the routing-independent probes.
fn assert_tables_agree(
    g: &TopologyGraph,
    rf: RoutingFunction,
    eager: &RouteTable,
    table: &RouteTable,
) -> Result<(), TestCaseError> {
    // Adjacency is built identically by construction; prove it anyway.
    for a in g.nodes() {
        for b in g.nodes() {
            prop_assert_eq!(
                eager.adjacency().edge_between(a, b),
                table.adjacency().edge_between(a, b)
            );
        }
    }
    let mappable: Vec<NodeId> = g.mappable_nodes().to_vec();
    for &a in &mappable {
        for &b in &mappable {
            if a == b {
                continue;
            }
            prop_assert_eq!(eager.hop_distance(a, b), table.hop_distance(a, b));
            match rf {
                RoutingFunction::DimensionOrdered => {
                    prop_assert_eq!(
                        &*eager.dimension_ordered_route(a, b),
                        &*table.dimension_ordered_route(a, b)
                    );
                }
                RoutingFunction::MinPath => {
                    prop_assert_eq!(&*eager.quadrant_pair(a, b), &*table.quadrant_pair(a, b));
                }
                RoutingFunction::SplitMinPaths => {
                    prop_assert_eq!(&*eager.split_min_paths(a, b), &*table.split_min_paths(a, b));
                }
                RoutingFunction::SplitAllPaths => {
                    prop_assert_eq!(&*eager.split_all_paths(a, b), &*table.split_all_paths(a, b));
                }
            }
            prop_assert_eq!(&*eager.sim_route_set(a, b), &*table.sim_route_set(a, b));
        }
    }
    Ok(())
}

/// A synthetic application from generated spec parameters. Goes
/// through the `synth:` text form so the suite exercises the same
/// entry point the CLI and batch manifests use.
fn synthetic_app(seed: u64, cores: usize, locality_pct: u8, hotspot_pct: u8) -> CoreGraph {
    let spec: SyntheticSpec = format!(
        "synth:seed={seed},cores={cores},locality=0.{locality:02},hotspot=0.{hotspot:02}",
        locality = locality_pct % 100,
        hotspot = hotspot_pct % 50,
    )
    .parse()
    .expect("generated spec is valid");
    spec.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every per-pair answer under lazy and closed-form preparation is
    /// bit-identical to the eager oracle, across all topologies and
    /// routing functions — and laziness is real: nothing materialises
    /// until queried, while the oracle holds all `m²` pairs.
    #[test]
    fn table_answers_match_eager_oracle(
        topo in 0usize..5,
        rf in 0usize..4,
        cores in 6usize..=14,
    ) {
        let g = topology(topo, cores);
        let rf = routing(rf);
        let m = g.mappable_nodes().len();

        let mut eager = RouteTable::with_prep(&g, TablePrep::Eager);
        prop_assert_eq!(eager.prep(), TablePrep::Eager);
        eager.prepare(&g, rf);
        eager.prepare_sim_routes(&g, 4);
        prop_assert_eq!(eager.materialized_pairs(rf), m * m);

        for prep in VARIANTS {
            let mut table = RouteTable::with_prep(&g, prep);
            prop_assert_eq!(table.prep(), prep.resolve(g.kind(), m));
            table.prepare(&g, rf);
            table.prepare_sim_routes(&g, 4);
            // Lazy stores start empty — that is the point.
            prop_assert_eq!(table.materialized_pairs(rf), 0);
            assert_tables_agree(&g, rf, &eager, &table)?;
            // The sweep above touched every off-diagonal pair once;
            // memoisation retains each exactly once.
            prop_assert_eq!(table.materialized_pairs(rf), m * m - m);
        }
    }

    /// A full mapper run — greedy seed, swap search, floorplan, cost
    /// report — is invariant under the table-preparation knob: same
    /// placement, same report, same evaluation count, same observed
    /// report sequence, same error on infeasible instances.
    #[test]
    fn mapper_runs_identical_across_preps(
        topo in 0usize..5,
        rf in 0usize..4,
        obj in 0usize..4,
        seed in 0u64..1_000_000,
        cores in 6usize..=14,
        locality in 0u8..100,
        hotspot in 0u8..50,
        relaxed in 0usize..2,
    ) {
        let g = topology(topo, cores);
        let app = synthetic_app(seed, cores, locality, hotspot);
        prop_assume!(app.edge_count() > 0);
        let config = |prep| MapperConfig {
            routing: routing(rf),
            objective: [
                Objective::MinDelay,
                Objective::MinArea,
                Objective::MinPower,
                Objective::MinBandwidth,
            ][obj % 4],
            constraints: if relaxed == 1 {
                Constraints::relaxed_bandwidth()
            } else {
                Constraints::default()
            },
            max_swap_passes: 1,
            table_prep: prep,
            ..MapperConfig::default()
        };

        let mut oracle_observed: Vec<CostReport> = Vec::new();
        let oracle = Mapper::new(&g, &app, config(TablePrep::Eager))
            .run_observed(|r| oracle_observed.push(r.clone()));

        for prep in VARIANTS {
            let mut observed = Vec::new();
            let run = Mapper::new(&g, &app, config(prep))
                .run_observed(|r| observed.push(r.clone()));
            prop_assert_eq!(&observed, &oracle_observed);
            match (&oracle, &run) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.placement().assignment(), b.placement().assignment());
                    prop_assert_eq!(a.report(), b.report());
                    prop_assert_eq!(a.evaluated_candidates(), b.evaluated_candidates());
                }
                (Err(MappingError::NoFeasibleMapping(a)),
                 Err(MappingError::NoFeasibleMapping(b))) => {
                    prop_assert_eq!(a, b);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "{:?}: outcome mismatch: eager ok={} vs ok={}",
                        prep, a.is_ok(), b.is_ok()
                    )));
                }
            }
        }
    }
}

/// The scale-tier acceptance case: seeded synthetic workloads on
/// meshes across the `Auto` threshold (64 cores resolves `Eager`,
/// 100 cores resolves `ClosedForm`). Every preparation strategy must
/// reproduce the eager winner bit for bit at every tier, for both a
/// deterministic and a quadrant-driven routing function.
/// `TABLE_EQUIV_CASES=<n>` soaks `n` extra seeds per tier.
#[test]
fn scale_tiers_agree_with_eager_oracle() {
    for (cores, side) in [(64usize, 8usize), (100, 10)] {
        let g = builders::mesh(side, side, 500.0).expect("mesh builds");
        let mut seeds = vec![7u64];
        seeds.extend(extra_seeds());
        for seed in seeds {
            let spec: SyntheticSpec = format!("synth:seed={seed},cores={cores}")
                .parse()
                .expect("valid spec");
            let app = spec.generate();
            for routing in [RoutingFunction::DimensionOrdered, RoutingFunction::MinPath] {
                let config = |prep| MapperConfig {
                    routing,
                    objective: Objective::MinDelay,
                    constraints: Constraints::relaxed_bandwidth(),
                    max_swap_passes: 1,
                    table_prep: prep,
                    ..MapperConfig::default()
                };
                let oracle = Mapper::new(&g, &app, config(TablePrep::Eager))
                    .run()
                    .expect("synthetic workload maps under relaxed bandwidth");
                for prep in [TablePrep::Auto, TablePrep::Lazy, TablePrep::ClosedForm] {
                    let run = Mapper::new(&g, &app, config(prep))
                        .run()
                        .expect("synthetic workload maps under relaxed bandwidth");
                    assert_eq!(
                        oracle.placement().assignment(),
                        run.placement().assignment(),
                        "seed {seed} cores {cores} {routing} {prep:?}: placements diverged"
                    );
                    assert_eq!(
                        oracle.report(),
                        run.report(),
                        "seed {seed} cores {cores} {routing} {prep:?}: reports diverged"
                    );
                    assert_eq!(
                        oracle.evaluated_candidates(),
                        run.evaluated_candidates(),
                        "seed {seed} cores {cores} {routing} {prep:?}: counts diverged"
                    );
                }
            }
        }
    }
}

/// A mapper run under lazy preparation must not enumerate the whole
/// `m × m` pair space at scale — only commodity pairs and swap-delta
/// pairs materialise. (The memory/time win the knob exists for.)
#[test]
fn lazy_preparation_stays_sparse_at_scale() {
    let g = builders::mesh(10, 10, 500.0).expect("mesh builds");
    let spec: SyntheticSpec = "synth:seed=7,cores=100".parse().expect("valid spec");
    let app = spec.generate();
    let config = MapperConfig {
        routing: RoutingFunction::DimensionOrdered,
        objective: Objective::MinDelay,
        constraints: Constraints::relaxed_bandwidth(),
        max_swap_passes: 1,
        table_prep: TablePrep::Lazy,
        ..MapperConfig::default()
    };
    let mut table = RouteTable::with_prep(&g, TablePrep::Lazy);
    Mapper::new(&g, &app, config)
        .with_route_table(&mut table)
        .run()
        .expect("synthetic workload maps under relaxed bandwidth");
    let m = g.mappable_nodes().len();
    let touched = table.materialized_pairs(RoutingFunction::DimensionOrdered);
    assert!(
        touched < m * m / 2,
        "lazy table materialised {touched} of {} pairs — not sparse",
        m * m
    );
}
