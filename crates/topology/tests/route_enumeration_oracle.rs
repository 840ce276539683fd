//! Oracle proof for the three route enumerators: `dimension_order::route`,
//! `paths::all_shortest_paths` and `paths::all_simple_paths` must return
//! the same result, paths in the same order, as the first versions kept
//! below, which step dimension-ordered routes by scanning every node,
//! find minimum paths with two BFS passes and re-enter dead branches,
//! and search simple paths with no distance bound.

use proptest::collection;
use proptest::prelude::*;
use sunmap_topology::paths::{self, AllowedSet};
use sunmap_topology::{
    builders, dimension_order, quadrant, CustomTopologyBuilder, NodeId, TopologyGraph,
};

/// The enumerators as first written, unchanged but for the `paths::`
/// paths of the calls into the library.
mod oracle {
    use std::collections::{BTreeSet, VecDeque};

    use sunmap_topology::paths::{self, AllowedSet};
    use sunmap_topology::{NodeCoords, NodeId, TopologyError, TopologyGraph, TopologyKind};

    pub fn route(
        g: &TopologyGraph,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<NodeId>, TopologyError> {
        if !g.mappable_nodes().contains(&src) {
            return Err(TopologyError::NotMappable(src.index()));
        }
        if !g.mappable_nodes().contains(&dst) {
            return Err(TopologyError::NotMappable(dst.index()));
        }
        if src == dst {
            return Ok(vec![src]);
        }
        Ok(match g.kind() {
            TopologyKind::Mesh { .. } => xy_route(g, src, dst, None),
            TopologyKind::Torus { rows, cols } => xy_route(g, src, dst, Some((rows, cols))),
            TopologyKind::Hypercube { .. } => ecube_route(g, src, dst),
            TopologyKind::Clos { middle, .. } => clos_route(g, src, dst, middle),
            TopologyKind::Butterfly { .. } => {
                paths::shortest_path(g, src, dst, None).expect("butterfly terminals are connected")
            }
            TopologyKind::Octagon => octagon_route(g, src, dst),
            TopologyKind::Star { .. } => {
                paths::shortest_path(g, src, dst, None).expect("star ports are connected")
            }
            TopologyKind::Custom { .. } => paths::shortest_path(g, src, dst, None)
                .ok_or(TopologyError::NotMappable(dst.index()))?,
        })
    }

    fn grid_of(g: &TopologyGraph, n: NodeId) -> (usize, usize) {
        match g.coords(n) {
            NodeCoords::Grid { row, col } => (row, col),
            other => panic!("expected grid coordinates, found {other}"),
        }
    }

    /// One signed unit step along a ring of length `len`, moving the shorter
    /// way (ties towards increasing coordinate); `None` disables wrapping.
    fn ring_step(from: usize, to: usize, len: Option<usize>) -> usize {
        match len {
            None => {
                if from < to {
                    from + 1
                } else {
                    from - 1
                }
            }
            Some(len) => {
                let fwd = (to + len - from) % len;
                let bwd = (from + len - to) % len;
                if fwd <= bwd {
                    (from + 1) % len
                } else {
                    (from + len - 1) % len
                }
            }
        }
    }

    fn xy_route(
        g: &TopologyGraph,
        src: NodeId,
        dst: NodeId,
        wrap: Option<(usize, usize)>,
    ) -> Vec<NodeId> {
        let (mut r, mut c) = grid_of(g, src);
        let (r2, c2) = grid_of(g, dst);
        let mut path = vec![src];
        // X (column) dimension first.
        while c != c2 {
            c = ring_step(c, c2, wrap.map(|(_, cols)| cols).filter(|l| *l > 2));
            path.push(g.switch_at_grid(r, c).expect("grid switch exists"));
        }
        while r != r2 {
            r = ring_step(r, r2, wrap.map(|(rows, _)| rows).filter(|l| *l > 2));
            path.push(g.switch_at_grid(r, c).expect("grid switch exists"));
        }
        path
    }

    fn ecube_route(g: &TopologyGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let label = |n: NodeId| match g.coords(n) {
            NodeCoords::Hyper { label } => label,
            other => panic!("expected hypercube coordinates, found {other}"),
        };
        let mut cur = label(src);
        let target = label(dst);
        let mut path = vec![src];
        let mut bit = 0u32;
        while cur != target {
            if (cur ^ target) & (1 << bit) != 0 {
                cur ^= 1 << bit;
                let next = g
                    .nodes()
                    .find(|n| g.coords(*n) == NodeCoords::Hyper { label: cur })
                    .expect("hypercube label exists");
                path.push(next);
            }
            bit += 1;
        }
        path
    }

    /// Deterministic octagon routing (Karim et al.): hop the cross link
    /// first when the circular distance exceeds two, then walk the shorter
    /// ring direction.
    fn octagon_route(g: &TopologyGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let index_of = |n: NodeId| {
            g.switches()
                .position(|s| s == n)
                .expect("octagon switch exists")
        };
        let nodes: Vec<NodeId> = g.switches().collect();
        let mut cur = index_of(src);
        let target = index_of(dst);
        let mut path = vec![src];
        while cur != target {
            let rel = (target + 8 - cur) % 8;
            cur = match rel {
                1..=2 => (cur + 1) % 8,
                6..=7 => (cur + 7) % 8,
                _ => (cur + 4) % 8, // 3, 4 or 5 away: take the cross link
            };
            path.push(nodes[cur]);
        }
        path
    }

    fn clos_route(g: &TopologyGraph, src: NodeId, dst: NodeId, middle: usize) -> Vec<NodeId> {
        let ing = g.ingress_switch(src).expect("mappable clos port");
        let eg = g.egress_switch(dst).expect("mappable clos port");
        let idx = |n: NodeId| match g.coords(n) {
            NodeCoords::Stage { index, .. } => index,
            other => panic!("expected stage coordinates, found {other}"),
        };
        // Deterministic, source/destination-oblivious spread of commodities
        // over the middle stage.
        let mid_index = (idx(ing) + idx(eg)) % middle;
        let mid = g
            .switch_at_stage(1, mid_index)
            .expect("middle switch exists");
        vec![src, ing, mid, eg, dst]
    }

    fn permitted(allowed: Option<&AllowedSet>, node: NodeId, src: NodeId, dst: NodeId) -> bool {
        node == src || node == dst || allowed.is_none_or(|a| a.contains(&node))
    }

    pub fn all_shortest_paths(
        g: &TopologyGraph,
        src: NodeId,
        dst: NodeId,
        allowed: Option<&AllowedSet>,
        cap: usize,
    ) -> Vec<Vec<NodeId>> {
        // BFS levels from src, then backtrack along strictly-decreasing
        // levels from dst.
        let Some(min) = paths::shortest_path(g, src, dst, allowed).map(|p| p.len()) else {
            return Vec::new();
        };
        let mut level = vec![usize::MAX; g.node_count()];
        level[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for v in g.successors(u) {
                if level[v.index()] == usize::MAX && permitted(allowed, v, src, dst) {
                    level[v.index()] = level[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        let mut out = Vec::new();
        let mut stack = vec![src];
        enumerate_levels(g, dst, &level, min - 1, &mut stack, &mut out, cap);
        out
    }

    fn enumerate_levels(
        g: &TopologyGraph,
        dst: NodeId,
        level: &[usize],
        hops: usize,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let here = *stack.last().expect("stack starts with the source");
        if here == dst {
            out.push(stack.clone());
            return;
        }
        if stack.len() > hops {
            return;
        }
        for v in g.successors(here) {
            if level[v.index()] == stack.len() && (v == dst || level[v.index()] < usize::MAX) {
                // Only extend along BFS-level-increasing edges: every such
                // completion is a minimum-hop path.
                stack.push(v);
                enumerate_levels(g, dst, level, hops, stack, out, cap);
                stack.pop();
            }
        }
    }

    /// Enumerates simple paths from `src` to `dst` within `allowed` (up to
    /// `cap` paths and `max_len` vertices each). Used by the
    /// split-traffic-across-all-paths routing function, where "all paths"
    /// means all simple paths inside the commodity's quadrant graph.
    pub fn all_simple_paths(
        g: &TopologyGraph,
        src: NodeId,
        dst: NodeId,
        allowed: Option<&AllowedSet>,
        max_len: usize,
        cap: usize,
    ) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut stack = vec![src];
        let mut on_path: BTreeSet<NodeId> = BTreeSet::from([src]);
        simple_dfs(
            g,
            dst,
            allowed,
            max_len,
            cap,
            &mut stack,
            &mut on_path,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn simple_dfs(
        g: &TopologyGraph,
        dst: NodeId,
        allowed: Option<&AllowedSet>,
        max_len: usize,
        cap: usize,
        stack: &mut Vec<NodeId>,
        on_path: &mut BTreeSet<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if out.len() >= cap {
            return;
        }
        let here = *stack.last().expect("stack starts non-empty");
        if here == dst {
            out.push(stack.clone());
            return;
        }
        if stack.len() >= max_len {
            return;
        }
        let src = stack[0];
        for v in g.successors(here) {
            if on_path.contains(&v) || !permitted(allowed, v, src, dst) {
                continue;
            }
            stack.push(v);
            on_path.insert(v);
            simple_dfs(g, dst, allowed, max_len, cap, stack, on_path, out);
            on_path.remove(&v);
            stack.pop();
        }
    }
}

/// A custom design with two-way and one-way links, a switch that only
/// sends, a switch no link reaches and two ports on one switch.
fn custom_design() -> TopologyGraph {
    let mut b = CustomTopologyBuilder::new("oracle");
    let s: Vec<_> = (0..6).map(|_| b.add_switch()).collect();
    b.add_link(s[0], s[1], 500.0).unwrap();
    b.add_link(s[1], s[2], 800.0).unwrap();
    b.add_link(s[2], s[3], 500.0).unwrap();
    b.add_link(s[3], s[0], 500.0).unwrap();
    b.add_directed_link(s[0], s[2], 500.0).unwrap();
    b.add_directed_link(s[4], s[1], 500.0).unwrap();
    for &sw in &[s[0], s[0], s[1], s[2], s[3], s[4], s[5]] {
        b.add_port(sw).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn dimension_order_matches_the_oracle_on_every_ordered_pair() {
    // The builder refuses a 0-dimensional hypercube, so dimension 0 has
    // no graph to route on.
    assert!(builders::hypercube(0, 500.0).is_err());
    let mut graphs = Vec::new();
    for rows in 1..=6 {
        for cols in 1..=6 {
            graphs.push(builders::mesh(rows, cols, 500.0).unwrap());
            graphs.push(builders::torus(rows, cols, 500.0).unwrap());
        }
    }
    graphs.extend((1..=6).map(|dim| builders::hypercube(dim, 500.0).unwrap()));
    for (r, n, m) in [(1, 1, 1), (2, 2, 2), (3, 4, 3), (4, 2, 4), (4, 4, 3)] {
        graphs.push(builders::clos(r, n, m, 500.0).unwrap());
    }
    for (k, n) in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (4, 3)] {
        graphs.push(builders::butterfly(k, n, 500.0).unwrap());
    }
    for cores in [16, 32, 64] {
        graphs.extend(builders::standard_library(cores, 500.0).unwrap());
    }
    graphs.push(builders::octagon(500.0).unwrap());
    graphs.push(builders::star(5, 500.0).unwrap());
    graphs.push(custom_design());
    for g in &graphs {
        // Every vertex, mappable or not, and one id past the graph.
        let nodes: Vec<NodeId> = g.nodes().chain([NodeId(g.node_count())]).collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    dimension_order::route(g, a, b),
                    oracle::route(g, a, b),
                    "{}: {a} -> {b}",
                    g.kind()
                );
            }
        }
    }
}

// Both oracles append paths in search order and stop at their cap, so
// the oracle's answer at cap `k` is the first `k` paths of its answer at
// 32; the tests below compute it once per case and check every cap.

#[test]
fn all_shortest_paths_match_the_oracle() {
    let mut graphs = Vec::new();
    for cores in [16, 32, 64] {
        graphs.extend(builders::standard_library(cores, 500.0).unwrap());
    }
    graphs.push(builders::octagon(500.0).unwrap());
    graphs.push(builders::star(6, 500.0).unwrap());
    graphs.push(custom_design());
    for g in &graphs {
        for &a in g.mappable_nodes() {
            for &b in g.mappable_nodes() {
                let quad = quadrant::quadrant_set(g, a, b);
                for allowed in [None, Some(&quad)] {
                    let all = oracle::all_shortest_paths(g, a, b, allowed, 32);
                    for cap in [1, 2, 3, 8, 32] {
                        assert_eq!(
                            paths::all_shortest_paths(g, a, b, allowed, cap),
                            all[..cap.min(all.len())],
                            "{}: {a} -> {b}, quadrant {}, cap {cap}",
                            g.kind(),
                            allowed.is_some()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_simple_paths_match_the_oracle() {
    let mut graphs = vec![
        builders::mesh(3, 3, 500.0).unwrap(),
        builders::mesh(2, 4, 500.0).unwrap(),
        builders::mesh(4, 4, 500.0).unwrap(),
        builders::torus(3, 3, 500.0).unwrap(),
        builders::torus(3, 4, 500.0).unwrap(),
        builders::hypercube(3, 500.0).unwrap(),
        builders::hypercube(4, 500.0).unwrap(),
        builders::octagon(500.0).unwrap(),
        builders::star(4, 500.0).unwrap(),
        custom_design(),
    ];
    graphs.extend(builders::standard_library(8, 500.0).unwrap());
    graphs.extend(builders::standard_library(16, 500.0).unwrap());
    for g in &graphs {
        for &a in g.mappable_nodes() {
            for &b in g.mappable_nodes() {
                // Unreachable pairs search up to every vertex.
                let min_len =
                    paths::shortest_path(g, a, b, None).map_or(g.node_count(), |p| p.len());
                for slack in 0..=3 {
                    let all = oracle::all_simple_paths(g, a, b, None, min_len + slack, 32);
                    for cap in 1..=32 {
                        assert_eq!(
                            paths::all_simple_paths(g, a, b, None, min_len + slack, cap),
                            all[..cap.min(all.len())],
                            "{}: {a} -> {b}, slack {slack}, cap {cap}",
                            g.kind()
                        );
                    }
                }
            }
        }
    }
}

/// A random custom design: `links` are `(from, to, kind)` with kind 0 a
/// two-way link and 1 or 2 a one-way one (self-links are dropped), and
/// `ports` name the switches cores attach to. Switches no link touches
/// and one-way cycles leave some pairs unreachable.
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

    #[test]
    fn path_enumerators_match_the_oracle_on_random_designs(
        switches in 1usize..8,
        links in collection::vec((0usize..8, 0usize..8, 0usize..3), 0..14),
        ports in collection::vec(0usize..8, 1..5),
        mask in 0u64..(1 << 16),
        slack in 0usize..4,
        cap in 1usize..12,
    ) {
        let g = random_design(switches, &links, &ports);
        // Bit i of `mask` admits vertex i into the restricted search.
        let subset: AllowedSet = g.nodes().filter(|n| mask >> (n.index() % 16) & 1 == 1).collect();
        for a in g.nodes() {
            for b in g.nodes() {
                for allowed in [None, Some(&subset)] {
                    prop_assert_eq!(
                        paths::all_shortest_paths(&g, a, b, allowed, cap),
                        oracle::all_shortest_paths(&g, a, b, allowed, cap)
                    );
                    let max_len = paths::shortest_path(&g, a, b, allowed)
                        .map_or(g.node_count(), |p| p.len())
                        + slack;
                    prop_assert_eq!(
                        paths::all_simple_paths(&g, a, b, allowed, max_len, cap),
                        oracle::all_simple_paths(&g, a, b, allowed, max_len, cap)
                    );
                }
            }
        }
    }
}
