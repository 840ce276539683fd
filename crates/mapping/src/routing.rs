//! The four routing functions of SUNMAP.

use sunmap_topology::{dimension_order, paths, quadrant, NodeId, TopologyGraph};

/// How a commodity's traffic is carried between its mapped endpoints
/// (paper §1: "dimension ordered, minimum-path, traffic splitting
/// across minimum-paths, traffic splitting across all paths").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingFunction {
    /// One deterministic dimension-ordered path (XY / e-cube).
    DimensionOrdered,
    /// One congestion-aware minimum path found by Dijkstra on the
    /// commodity's quadrant graph (the paper Fig. 5 algorithm).
    #[default]
    MinPath,
    /// Traffic split equally across every minimum path inside the
    /// quadrant graph.
    SplitMinPaths,
    /// Traffic split equally across all simple paths inside the
    /// quadrant graph (minimum paths plus bounded detours).
    SplitAllPaths,
}

impl RoutingFunction {
    /// The four functions in the paper's order (the Fig. 9a x-axis).
    pub const ALL: [RoutingFunction; 4] = [
        RoutingFunction::DimensionOrdered,
        RoutingFunction::MinPath,
        RoutingFunction::SplitMinPaths,
        RoutingFunction::SplitAllPaths,
    ];

    /// Paper abbreviation: DO, MP, SM, SA.
    pub fn abbrev(&self) -> &'static str {
        match self {
            RoutingFunction::DimensionOrdered => "DO",
            RoutingFunction::MinPath => "MP",
            RoutingFunction::SplitMinPaths => "SM",
            RoutingFunction::SplitAllPaths => "SA",
        }
    }
}

impl std::fmt::Display for RoutingFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Hop-dominant Dijkstra cost: minimum-hop routes win, current load
/// breaks ties so consecutive commodities spread out (paper Fig. 5
/// step 6 increments edge weights by the routed bandwidth).
///
/// Because every edge costs at least `HOP_COST` and realistic path
/// loads sum to far less, the vertices one hop further from the source
/// all cost more than every vertex nearer it: Dijkstra's heap pops the
/// search one BFS level at a time. The engine's MinPath routing relies
/// on this level order to run without a heap
/// (`paths::level_search_into`, called from `EvalEngine::route_cached`
/// with `HOP_COST` as its minimum edge cost). The search checks the
/// order at every level, and where a load of about `HOP_COST` or more
/// breaks it, the engine routes that commodity with Dijkstra, as this
/// module's reference does.
pub(crate) const HOP_COST: f64 = 1.0e9;

/// Caps keeping path enumeration tractable; quadrants of on-chip
/// networks are small so these are rarely binding.
pub(crate) const MAX_SPLIT_PATHS: usize = 32;
pub(crate) const DETOUR_SLACK: usize = 2;
/// Granularity of split-traffic routing: each commodity is divided into
/// this many equal chunks, assigned greedily to the candidate path with
/// the smallest resulting bottleneck load (min-max water filling).
pub(crate) const SPLIT_CHUNKS: usize = 16;

/// Routes one commodity of `bandwidth` MB/s from `src` to `dst` (mapped
/// vertices of `g`) under `routing`, given the link loads accumulated so
/// far (indexed by edge id, MB/s). Returns the used paths with the
/// traffic fraction carried by each (fractions sum to 1), or `None` if
/// no route exists.
///
/// Split-traffic functions divide the commodity into equal chunks and
/// assign each chunk to the candidate path that minimises the maximum
/// link load — so splitting is load-aware rather than blind.
///
/// # Examples
///
/// ```
/// use sunmap_mapping::{route_commodity, RoutingFunction};
/// use sunmap_topology::builders;
///
/// let g = builders::mesh(3, 3, 500.0)?;
/// let a = g.switch_at_grid(0, 0).unwrap();
/// let b = g.switch_at_grid(2, 2).unwrap();
/// let loads = vec![0.0; g.edge_count()];
/// let split =
///     route_commodity(&g, a, b, RoutingFunction::SplitMinPaths, &loads, 480.0).unwrap();
/// assert!(split.len() > 1, "corner-to-corner traffic spreads out");
/// let total: f64 = split.iter().map(|(_, f)| f).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
pub fn route_commodity(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    routing: RoutingFunction,
    loads: &[f64],
    bandwidth: f64,
) -> Option<Vec<(Vec<NodeId>, f64)>> {
    debug_assert_eq!(loads.len(), g.edge_count());
    if src == dst {
        return Some(vec![(vec![src], 1.0)]);
    }
    match routing {
        RoutingFunction::DimensionOrdered => {
            let path = dimension_order::route(g, src, dst).ok()?;
            Some(vec![(path, 1.0)])
        }
        RoutingFunction::MinPath => {
            let q = quadrant::quadrant_set(g, src, dst);
            let (_, path) =
                paths::dijkstra(g, src, dst, Some(&q), |e| HOP_COST + loads[e.index()])?;
            Some(vec![(path, 1.0)])
        }
        RoutingFunction::SplitMinPaths => {
            let q = quadrant::quadrant_set(g, src, dst);
            let all = paths::all_shortest_paths(g, src, dst, Some(&q), MAX_SPLIT_PATHS);
            min_max_split(g, all, loads, bandwidth)
        }
        RoutingFunction::SplitAllPaths => {
            // "All paths" searches the whole NoC graph (not just the
            // quadrant): adjacent endpoints have a degenerate quadrant,
            // yet spreading their traffic over detours is exactly what
            // this function is for (the paper's MPEG4 study).
            let min_len = paths::shortest_path(g, src, dst, None)?.len();
            let all =
                paths::all_simple_paths(g, src, dst, None, min_len + DETOUR_SLACK, MAX_SPLIT_PATHS);
            min_max_split(g, all, loads, bandwidth)
        }
    }
}

/// Greedy min-max water filling: chunks of the commodity go, one at a
/// time, onto the best candidate path. A chunk prefers the *shortest*
/// path that stays within link capacities — traffic only spills onto
/// detours once the direct routes are full, which keeps the average hop
/// count close to minimum-path routing (the paper's mesh stays near 2.5
/// hops even under split routing). When every candidate would exceed
/// capacity, the chunk goes wherever the bottleneck load stays lowest.
fn min_max_split(
    g: &TopologyGraph,
    candidates: Vec<Vec<NodeId>>,
    loads: &[f64],
    bandwidth: f64,
) -> Option<Vec<(Vec<NodeId>, f64)>> {
    if candidates.is_empty() {
        return None;
    }
    if candidates.len() == 1 {
        return Some(vec![(
            candidates.into_iter().next().expect("one path"),
            1.0,
        )]);
    }
    // Bottlenecks are judged on network links only: the infinite-capacity
    // core-attach edges are shared by every candidate and would mask the
    // differences that matter.
    let edge_lists: Vec<Vec<usize>> = candidates
        .iter()
        .map(|p| {
            paths::path_edges(g, p)
                .into_iter()
                .filter(|e| g.edge(*e).is_network_link())
                .map(|e| e.index())
                .collect()
        })
        .collect();
    let mut local = loads.to_vec();
    let mut chunks_per_path = Vec::new();
    assign_chunks(
        |e| g.edge(sunmap_topology::EdgeId(e)).capacity,
        candidates.len(),
        |i| edge_lists[i].as_slice(),
        &mut local,
        bandwidth,
        &mut chunks_per_path,
    );
    Some(
        candidates
            .into_iter()
            .zip(chunks_per_path)
            .filter(|(_, n)| *n > 0)
            .map(|(p, n)| (p, n as f64 / SPLIT_CHUNKS as f64))
            .collect(),
    )
}

/// Core of the min-max water filling, shared by [`min_max_split`] and
/// the cached fast path ([`crate::EvalEngine`]) so both assign chunks
/// with bit-identical arithmetic. `capacity_of(e)` yields an edge's
/// bandwidth capacity; `edges_of(i)` yields candidate `i`'s
/// *network-link* edge indices; `local` must hold the current link
/// loads at every candidate edge (other entries are never touched) and
/// is mutated as chunks land; `chunks_per_path` receives one count per
/// candidate.
pub(crate) fn assign_chunks<'e>(
    capacity_of: impl Fn(usize) -> f64,
    count: usize,
    edges_of: impl Fn(usize) -> &'e [usize],
    local: &mut [f64],
    bandwidth: f64,
    chunks_per_path: &mut Vec<usize>,
) {
    debug_assert!(count <= MAX_SPLIT_PATHS, "candidate enumeration is capped");
    let chunk = bandwidth.max(f64::MIN_POSITIVE) / SPLIT_CHUNKS as f64;
    chunks_per_path.clear();
    chunks_per_path.resize(count, 0);
    let mut ranks = [(false, 0usize, 0.0f64); MAX_SPLIT_PATHS];
    for _ in 0..SPLIT_CHUNKS {
        // Rank every candidate once per chunk, in one pass over its
        // edges (the former closure-based min_by recomputed ranks per
        // comparison, with separate over/bottleneck passes).
        for (i, rank) in ranks.iter_mut().enumerate().take(count) {
            let edges = edges_of(i);
            let mut over = false;
            let mut bottleneck = 0.0f64;
            for &e in edges {
                let would_be = local[e] + chunk;
                over |= would_be > capacity_of(e) * (1.0 + 1e-9);
                bottleneck = bottleneck.max(would_be);
            }
            *rank = (over, edges.len(), bottleneck);
        }
        let best = (0..count)
            .min_by(|&a, &b| {
                let (oa, la, ba) = ranks[a];
                let (ob, lb, bb) = ranks[b];
                oa.cmp(&ob)
                    .then_with(|| {
                        if oa {
                            // All over capacity: minimise the bottleneck,
                            // then prefer shorter.
                            ba.total_cmp(&bb).then_with(|| la.cmp(&lb))
                        } else {
                            // Within capacity: prefer shorter, then the
                            // lower bottleneck.
                            la.cmp(&lb).then_with(|| ba.total_cmp(&bb))
                        }
                    })
                    .then_with(|| a.cmp(&b))
            })
            .expect("candidates are non-empty");
        chunks_per_path[best] += 1;
        for &e in edges_of(best) {
            local[e] += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_topology::builders;

    fn zero_loads(g: &TopologyGraph) -> Vec<f64> {
        vec![0.0; g.edge_count()]
    }

    #[test]
    fn min_path_avoids_loaded_links() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(1, 1).unwrap();
        let mid_top = g.switch_at_grid(0, 1).unwrap();
        let mut loads = zero_loads(&g);
        // Load the edge (0,0)->(0,1) heavily: the route must go down
        // first instead.
        let e = g.find_edge(a, mid_top).unwrap();
        loads[e.index()] = 400.0;
        let routed = route_commodity(&g, a, b, RoutingFunction::MinPath, &loads, 100.0).unwrap();
        assert_eq!(routed.len(), 1);
        let path = &routed[0].0;
        assert_eq!(path.len(), 3, "still a minimum path");
        assert!(!path.contains(&mid_top), "congested corner avoided");
    }

    #[test]
    fn split_all_contains_split_min_paths() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(1, 2).unwrap();
        let loads = zero_loads(&g);
        let sm = route_commodity(&g, a, b, RoutingFunction::SplitMinPaths, &loads, 100.0).unwrap();
        let sa = route_commodity(&g, a, b, RoutingFunction::SplitAllPaths, &loads, 100.0).unwrap();
        assert!(sa.len() >= sm.len());
        for (p, _) in &sm {
            assert!(sa.iter().any(|(q, _)| q == p), "min path missing from SA");
        }
    }

    #[test]
    fn fractions_always_sum_to_one() {
        let g = builders::torus(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(2, 2).unwrap();
        let loads = zero_loads(&g);
        for rf in RoutingFunction::ALL {
            let routed = route_commodity(&g, a, b, rf, &loads, 100.0).unwrap();
            let sum: f64 = routed.iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{rf} fractions sum to {sum}");
        }
    }

    #[test]
    fn butterfly_has_no_split_diversity() {
        // "As the butterfly network has no path diversity, it is unable
        // to support [split traffic]" — all four functions collapse to
        // the single path.
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        let a = g.port(0).unwrap();
        let b = g.port(13).unwrap();
        let loads = zero_loads(&g);
        for rf in RoutingFunction::ALL {
            let routed = route_commodity(&g, a, b, rf, &loads, 100.0).unwrap();
            assert_eq!(routed.len(), 1, "{rf} found diversity in a butterfly");
        }
    }

    #[test]
    fn clos_split_uses_every_middle_switch() {
        let g = builders::clos(4, 2, 4, 500.0).unwrap();
        let a = g.port(0).unwrap();
        let b = g.port(7).unwrap();
        let loads = zero_loads(&g);
        let routed =
            route_commodity(&g, a, b, RoutingFunction::SplitMinPaths, &loads, 100.0).unwrap();
        assert_eq!(routed.len(), 4, "one path per middle switch");
    }

    #[test]
    fn self_commodity_is_local() {
        let g = builders::mesh(2, 2, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let loads = zero_loads(&g);
        let routed = route_commodity(&g, a, a, RoutingFunction::MinPath, &loads, 100.0).unwrap();
        assert_eq!(routed, vec![(vec![a], 1.0)]);
    }

    #[test]
    fn abbreviations_match_paper() {
        let abbrevs: Vec<_> = RoutingFunction::ALL.iter().map(|r| r.abbrev()).collect();
        assert_eq!(abbrevs, ["DO", "MP", "SM", "SA"]);
    }
}
