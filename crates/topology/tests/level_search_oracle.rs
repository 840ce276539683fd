//! Oracle proof for `paths::level_search_into`: for every ordered pair
//! of vertices, "the level search, else `paths::dijkstra_into`" must
//! return `dijkstra_into`'s cost, to the bit, and its path.
//!
//! Edge costs are the mapping engine's MinPath costs, a hop weight of
//! `1e9` plus a link load, with loads drawn three ways: from `{0, 1, 2,
//! 3}`, which makes many costs tie exactly; from `[0, 500)`; and from
//! `[0, 500)` with one load of at least `2e9`, which spreads some levels
//! too widely for the level search, so it must report them and leave
//! them to Dijkstra. Each test fails unless some search did so.

use std::cell::Cell;

use proptest::collection;
use proptest::prelude::*;
use sunmap_topology::paths::{self, AllowedSet, DijkstraScratch, OutArcs};
use sunmap_topology::{builders, quadrant, CustomTopologyBuilder, EdgeId, NodeId, TopologyGraph};

/// The hop weight, and so the lower bound on every edge's cost.
const HOP: f64 = 1e9;

thread_local! {
    /// Searches the level search left to `dijkstra_into` in this
    /// thread.
    static FALLBACKS: Cell<usize> = const { Cell::new(0) };
}

/// Per-edge loads: edge `e` takes `unit[e % unit.len()]` scaled by the
/// draw (`kind` 0: ties, 1: spread, 2: spread plus one heavy load on
/// edge `heavy_at % edge_count`).
fn loads(g: &TopologyGraph, kind: usize, unit: &[f64], heavy_at: usize, heavy: f64) -> Vec<f64> {
    let mut loads: Vec<f64> = (0..g.edge_count())
        .map(|e| {
            let u = unit[e % unit.len()];
            if kind == 0 {
                (u * 4.0).floor()
            } else {
                u * 500.0
            }
        })
        .collect();
    if kind == 2 && !loads.is_empty() {
        let at = heavy_at % loads.len();
        loads[at] = heavy;
    }
    loads
}

/// Routes every ordered pair of `nodes` under `admit_of(a, b)` both
/// ways and compares: the level search with its fallback, through one
/// scratch, against `dijkstra_into` alone, through another.
fn check_pairs<A>(
    g: &TopologyGraph,
    nodes: &[NodeId],
    loads: &[f64],
    admit_of: A,
) -> Result<(), TestCaseError>
where
    A: Fn(NodeId, NodeId) -> AllowedSet,
{
    let arcs = OutArcs::new(g);
    let cost = |e: EdgeId| HOP + loads[e.index()];
    let (mut fast, mut oracle) = (
        DijkstraScratch::new(g.node_count()),
        DijkstraScratch::new(g.node_count()),
    );
    let (mut fast_path, mut oracle_path) = (Vec::new(), Vec::new());
    for &a in nodes {
        for &b in nodes {
            let allowed = admit_of(a, b);
            let admit = |n: NodeId| n == a || n == b || allowed.contains(&n);
            let want = paths::dijkstra_into(g, a, b, admit, cost, &mut oracle, &mut oracle_path);
            let got = match paths::level_search_into(
                &arcs,
                a,
                b,
                admit,
                cost,
                HOP,
                &mut fast,
                &mut fast_path,
            ) {
                Ok(got) => got,
                Err(paths::NotLevelOrdered) => {
                    FALLBACKS.with(|f| f.set(f.get() + 1));
                    paths::dijkstra_into(g, a, b, admit, cost, &mut fast, &mut fast_path)
                }
            };
            prop_assert!(
                got.map(f64::to_bits) == want.map(f64::to_bits),
                "{a} -> {b}: cost {got:?}, Dijkstra's {want:?}"
            );
            prop_assert!(
                want.is_none() || fast_path == oracle_path,
                "{a} -> {b}: path {fast_path:?}, Dijkstra's {oracle_path:?}"
            );
        }
    }
    Ok(())
}

/// A random custom design: `links` are `(from, to, kind)` with kind 0 a
/// two-way link and 1 or 2 a one-way one (self-links are dropped;
/// repeated pairs become parallel links), and `ports` name the switches
/// cores attach to. Switches no link touches and one-way cycles leave
/// some pairs unreachable.
fn random_design(
    switches: usize,
    links: &[(usize, usize, usize)],
    ports: &[usize],
) -> TopologyGraph {
    let mut b = CustomTopologyBuilder::new("random");
    let s: Vec<_> = (0..switches).map(|_| b.add_switch()).collect();
    for &(from, to, kind) in links {
        let (from, to) = (s[from % switches], s[to % switches]);
        if from != to {
            if kind == 0 {
                b.add_link(from, to, 500.0).unwrap();
            } else {
                b.add_directed_link(from, to, 500.0).unwrap();
            }
        }
    }
    for &p in ports {
        b.add_port(s[p % switches]).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Run by `level_search_matches_dijkstra_on_random_designs`, which
    // then checks the fallback count.
    fn random_designs(
        switches in 1usize..9,
        links in collection::vec((0usize..9, 0usize..9, 0usize..3), 0..20),
        ports in collection::vec(0usize..9, 1..5),
        mask in 0u64..(1 << 16),
        kind in 0usize..3,
        unit in collection::vec(0.0f64..1.0, 1..48),
        heavy_at in 0usize..64,
        heavy in 2.0e9f64..1.0e10,
    ) {
        let g = random_design(switches, &links, &ports);
        let loads = loads(&g, kind, &unit, heavy_at, heavy);
        let nodes: Vec<NodeId> = g.nodes().collect();
        // Bit i of `mask` admits vertex i; a custom design's quadrant is
        // the whole graph.
        let subset: AllowedSet = g.nodes().filter(|n| mask >> (n.index() % 16) & 1 == 1).collect();
        check_pairs(&g, &nodes, &loads, |_, _| subset.clone())?;
        check_pairs(&g, &nodes, &loads, |a, b| quadrant::quadrant_set(&g, a, b))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Run by `level_search_matches_dijkstra_on_the_standard_library`.
    fn library_designs(
        cores in 0usize..2,
        topo in 0usize..5,
        mask in 0u64..u64::MAX,
        kind in 0usize..3,
        unit in collection::vec(0.0f64..1.0, 1..48),
        heavy_at in 0usize..4096,
        heavy in 2.0e9f64..1.0e10,
    ) {
        let g = builders::standard_library([16, 32][cores], 500.0)
            .expect("library builds")
            .swap_remove(topo);
        let loads = loads(&g, kind, &unit, heavy_at, heavy);
        let mappable = g.mappable_nodes();
        let subset: AllowedSet = g.nodes().filter(|n| mask >> (n.index() % 64) & 1 == 1).collect();
        check_pairs(&g, mappable, &loads, |_, _| subset.clone())?;
        check_pairs(&g, mappable, &loads, |a, b| quadrant::quadrant_set(&g, a, b))?;
    }
}

/// Runs `cases` and returns how many searches fell back to Dijkstra.
fn fallbacks_of(cases: fn()) -> usize {
    FALLBACKS.with(|f| f.set(0));
    cases();
    FALLBACKS.with(Cell::get)
}

#[test]
fn level_search_matches_dijkstra_on_random_designs() {
    assert!(
        fallbacks_of(random_designs) > 0,
        "no draw spread a level too widely: the fallback went untested"
    );
}

#[test]
fn level_search_matches_dijkstra_on_the_standard_library() {
    assert!(
        fallbacks_of(library_designs) > 0,
        "no draw spread a level too widely: the fallback went untested"
    );
}
