//! Shortest-path machinery over topology graphs.
//!
//! All functions accept an optional *allowed set* of vertices, which is
//! how the mapping engine restricts the search to a quadrant graph
//! (paper §4.1 step 4–5): "Dijkstra's shortest path algorithm is applied
//! to the quadrant graph and the minimum path is obtained". Source and
//! destination are always considered allowed.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::{EdgeId, NodeId, TopologyGraph};

/// Restriction of a search to a vertex subset (a quadrant graph).
pub type AllowedSet = BTreeSet<NodeId>;

fn permitted(allowed: Option<&AllowedSet>, node: NodeId, src: NodeId, dst: NodeId) -> bool {
    node == src || node == dst || allowed.is_none_or(|a| a.contains(&node))
}

/// Breadth-first minimum-hop path from `src` to `dst`, optionally
/// restricted to `allowed`. Returns the vertex sequence including both
/// endpoints, or `None` if unreachable.
///
/// # Examples
///
/// ```
/// use sunmap_topology::{builders, paths};
///
/// let g = builders::mesh(3, 3, 500.0)?;
/// let a = g.switch_at_grid(0, 0).unwrap();
/// let b = g.switch_at_grid(2, 2).unwrap();
/// let p = paths::shortest_path(&g, a, b, None).unwrap();
/// assert_eq!(p.len(), 5); // 4 hops across the mesh diagonal
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
pub fn shortest_path(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    allowed: Option<&AllowedSet>,
) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    seen[src.index()] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for v in g.successors(u) {
            if seen[v.index()] || !permitted(allowed, v, src, dst) {
                continue;
            }
            seen[v.index()] = true;
            prev[v.index()] = Some(u);
            if v == dst {
                return Some(reconstruct(&prev, src, dst));
            }
            queue.push_back(v);
        }
    }
    None
}

fn reconstruct(prev: &[Option<NodeId>], src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    reconstruct_into(prev, src, dst, &mut path);
    path
}

fn reconstruct_into(prev: &[Option<NodeId>], src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
    out.clear();
    out.push(dst);
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.index()].expect("predecessor chain reaches the source");
        out.push(cur);
    }
    out.reverse();
}

/// BFS hop levels from `src` to every vertex of `g` in one O(V + E)
/// pass (`usize::MAX` marks unreachable vertices). One call per source
/// replaces the per-*pair* BFS that [`hop_distance`] would cost when
/// tabulating all-pairs distances.
///
/// # Examples
///
/// ```
/// use sunmap_topology::{builders, paths};
///
/// let g = builders::mesh(3, 3, 500.0)?;
/// let a = g.switch_at_grid(0, 0).unwrap();
/// let b = g.switch_at_grid(2, 2).unwrap();
/// let levels = paths::bfs_levels(&g, a);
/// assert_eq!(levels[b.index()], 4);
/// assert_eq!(levels[a.index()], 0);
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
pub fn bfs_levels(g: &TopologyGraph, src: NodeId) -> Vec<usize> {
    let mut level = vec![usize::MAX; g.node_count()];
    level[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for v in g.successors(u) {
            if level[v.index()] == usize::MAX {
                level[v.index()] = level[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; ties broken by node id for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable Dijkstra state (dist / prev / heap) sized for one graph.
///
/// The mapping engine's steady-state candidate evaluation runs one
/// Dijkstra per commodity per candidate; allocating these vectors fresh
/// each time dominated small-search runtime. A scratch is reset lazily:
/// only vertices touched by the previous search are cleared.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
    touched: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
}

impl DijkstraScratch {
    /// Creates scratch buffers for a graph of `node_count` vertices.
    pub fn new(node_count: usize) -> Self {
        DijkstraScratch {
            dist: vec![f64::INFINITY; node_count],
            prev: vec![None; node_count],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn reset(&mut self) {
        for &i in &self.touched {
            self.dist[i] = f64::INFINITY;
            self.prev[i] = None;
        }
        self.touched.clear();
        self.heap.clear();
    }
}

/// Dijkstra's algorithm with a caller-supplied non-negative edge cost,
/// optionally restricted to `allowed`. Returns `(total_cost, vertices)`.
///
/// The mapping engine uses a cost of `HOP_WEIGHT + current_load(edge)`
/// so that routes stay minimum-hop while balancing load among ties, and
/// increments edge loads after each commodity as in paper Fig. 5 step 6.
///
/// # Panics
///
/// Debug-asserts that edge costs are non-negative.
pub fn dijkstra<F>(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    allowed: Option<&AllowedSet>,
    mut edge_cost: F,
) -> Option<(f64, Vec<NodeId>)>
where
    F: FnMut(EdgeId) -> f64,
{
    let mut scratch = DijkstraScratch::new(g.node_count());
    let mut path = Vec::new();
    let cost = dijkstra_into(
        g,
        src,
        dst,
        |n| permitted(allowed, n, src, dst),
        &mut edge_cost,
        &mut scratch,
        &mut path,
    )?;
    Some((cost, path))
}

/// Allocation-free Dijkstra: identical algorithm (and therefore
/// identical tie-breaking) to [`dijkstra`], but vertex admission comes
/// from a caller-supplied predicate, working state lives in `scratch`,
/// and the path is written into `path_out`. Returns the total cost, or
/// `None` if `dst` is unreachable (in which case `path_out` is
/// unspecified).
///
/// The predicate must admit `src` and `dst` themselves; [`dijkstra`]
/// wires this up via [`AllowedSet`] semantics.
pub fn dijkstra_into<P, F>(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    admit: P,
    mut edge_cost: F,
    scratch: &mut DijkstraScratch,
    path_out: &mut Vec<NodeId>,
) -> Option<f64>
where
    P: Fn(NodeId) -> bool,
    F: FnMut(EdgeId) -> f64,
{
    debug_assert_eq!(scratch.dist.len(), g.node_count());
    scratch.reset();
    scratch.dist[src.index()] = 0.0;
    scratch.touched.push(src.index());
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
        if cost > scratch.dist[node.index()] {
            continue;
        }
        if node == dst {
            reconstruct_into(&scratch.prev, src, dst, path_out);
            return Some(cost);
        }
        for &e in g.outgoing(node) {
            let edge = g.edge(e);
            if !admit(edge.dst) {
                continue;
            }
            let w = edge_cost(e);
            debug_assert!(w >= 0.0, "edge costs must be non-negative");
            let next = cost + w;
            if next < scratch.dist[edge.dst.index()] {
                if scratch.dist[edge.dst.index()] == f64::INFINITY {
                    scratch.touched.push(edge.dst.index());
                }
                scratch.dist[edge.dst.index()] = next;
                scratch.prev[edge.dst.index()] = Some(node);
                scratch.heap.push(HeapEntry {
                    cost: next,
                    node: edge.dst,
                });
            }
        }
    }
    None
}

/// Enumerates every minimum-hop path from `src` to `dst` (up to `cap`
/// paths), optionally restricted to `allowed`. Used by the
/// split-traffic-across-minimum-paths routing function.
///
/// One BFS from `src` levels the vertices up to `dst`'s distance and
/// gives the minimum length; paths then grow forward from `src` along
/// level-increasing edges, in `successors` order, so every completion
/// is a minimum-hop path. A vertex whose subtree completed no path is
/// never entered again, so the cost is at most O(V + E) for the BFS
/// plus O(L · Δ) per returned path of `L` vertices on a graph of
/// maximum out-degree Δ.
pub fn all_shortest_paths(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    allowed: Option<&AllowedSet>,
    cap: usize,
) -> Vec<Vec<NodeId>> {
    let mut level = vec![usize::MAX; g.node_count()];
    level[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        // Once a vertex at `dst`'s level is popped, every vertex at that
        // level or nearer has one; the enumeration enters none farther.
        if level[u.index()] >= level[dst.index()] {
            break;
        }
        for v in g.successors(u) {
            if level[v.index()] == usize::MAX && permitted(allowed, v, src, dst) {
                level[v.index()] = level[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    let hops = level[dst.index()];
    let mut out = Vec::new();
    if hops == usize::MAX {
        return out;
    }
    let mut stack = vec![src];
    enumerate_levels(g, dst, &mut level, hops, &mut stack, &mut out, cap);
    out
}

fn enumerate_levels(
    g: &TopologyGraph,
    dst: NodeId,
    level: &mut [usize],
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
        // Only extend along BFS-level-increasing edges: every such
        // completion is a minimum-hop path.
        if level[v.index()] == stack.len() {
            let found = out.len();
            stack.push(v);
            enumerate_levels(g, dst, level, hops, stack, out, cap);
            stack.pop();
            // Each vertex is entered at its own level only, so what its
            // subtree completes does not depend on the prefix: one that
            // completed nothing never will, and leaves the level graph.
            // (A subtree cut by the cap completed nothing only if the
            // cap was reached before it, and then nothing is added
            // again.)
            if out.len() == found {
                level[v.index()] = usize::MAX;
            }
        }
    }
}

/// Enumerates simple paths from `src` to `dst` within `allowed` (up to
/// `cap` paths and `max_len` vertices each), in depth-first order over
/// `successors`. Used by the split-traffic-across-all-paths routing
/// function, whose callers pass `None`: "all paths" means all simple
/// paths of the whole graph within a few hops of the minimum.
///
/// One reverse BFS from `dst` over incoming edges gives each vertex's
/// hops to `dst`, and the search never enters a vertex from which `dst`
/// is out of reach within `max_len`. Every vertex it enters thus lies on
/// a walk of at most `max_len` vertices to `dst`; the cost is at most
/// O(V + E) for the BFS plus the search of that bounded region, instead
/// of every simple path of up to `max_len` vertices from `src`.
pub fn all_simple_paths(
    g: &TopologyGraph,
    src: NodeId,
    dst: NodeId,
    allowed: Option<&AllowedSet>,
    max_len: usize,
    cap: usize,
) -> Vec<Vec<NodeId>> {
    // Hops from each permitted vertex to `dst` through permitted
    // vertices, a lower bound on any completion. `usize::MAX` marks a
    // vertex that cannot reach `dst`, or only in `max_len` or more hops:
    // a path through it would have more than `max_len` vertices.
    let mut to_dst = vec![usize::MAX; g.node_count()];
    to_dst[dst.index()] = 0;
    let mut queue = VecDeque::from([dst]);
    while let Some(w) = queue.pop_front() {
        if to_dst[w.index()] + 1 >= max_len {
            break;
        }
        for &e in g.incoming(w) {
            let u = g.edge(e).src;
            if to_dst[u.index()] == usize::MAX && permitted(allowed, u, src, dst) {
                to_dst[u.index()] = to_dst[w.index()] + 1;
                queue.push_back(u);
            }
        }
    }
    let mut out = Vec::new();
    let mut stack = vec![src];
    let mut on_path = vec![false; g.node_count()];
    on_path[src.index()] = true;
    simple_dfs(
        g,
        dst,
        &to_dst,
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
    to_dst: &[usize],
    max_len: usize,
    cap: usize,
    stack: &mut Vec<NodeId>,
    on_path: &mut [bool],
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
    for v in g.successors(here) {
        // An unpermitted vertex has no distance: the BFS skipped it. A
        // skipped subtree holds no path within `max_len`, so the output
        // and its order are those of the search without the bound.
        let left = to_dst[v.index()];
        if on_path[v.index()] || left == usize::MAX || stack.len() + 1 + left > max_len {
            continue;
        }
        stack.push(v);
        on_path[v.index()] = true;
        simple_dfs(g, dst, to_dst, max_len, cap, stack, on_path, out);
        on_path[v.index()] = false;
        stack.pop();
    }
}

/// Converts a vertex path into the directed edges traversed.
///
/// # Panics
///
/// Panics if consecutive vertices of `path` are not adjacent in `g`.
pub fn path_edges(g: &TopologyGraph, path: &[NodeId]) -> Vec<EdgeId> {
    path.windows(2)
        .map(|w| {
            g.find_edge(w[0], w[1])
                .expect("consecutive path vertices must be adjacent")
        })
        .collect()
}

/// Minimum hop distance (edge count) between two vertices, or `None` if
/// unreachable.
pub fn hop_distance(g: &TopologyGraph, src: NodeId, dst: NodeId) -> Option<usize> {
    shortest_path(g, src, dst, None).map(|p| p.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn bfs_and_dijkstra_agree_on_unit_costs() {
        let g = builders::torus(3, 4, 500.0).unwrap();
        for a in g.switches() {
            for b in g.switches() {
                let bfs = shortest_path(&g, a, b, None).unwrap().len();
                let (cost, path) = dijkstra(&g, a, b, None, |_| 1.0).unwrap();
                assert_eq!(path.len(), bfs);
                assert_eq!(cost as usize, bfs - 1);
            }
        }
    }

    #[test]
    fn restricted_search_respects_allowed_set() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(0, 2).unwrap();
        // Only allow the bottom row: the direct top-row path is blocked.
        let allowed: AllowedSet = (0..3)
            .map(|c| g.switch_at_grid(2, c).unwrap())
            .chain((0..3).map(|r| g.switch_at_grid(r, 0).unwrap()))
            .chain((0..3).map(|r| g.switch_at_grid(r, 2).unwrap()))
            .filter(|n| *n != g.switch_at_grid(0, 1).unwrap())
            .collect();
        let p = shortest_path(&g, a, b, Some(&allowed)).unwrap();
        assert!(p.len() > 3, "must detour around the blocked middle column");
        assert!(!p.contains(&g.switch_at_grid(0, 1).unwrap()));
    }

    #[test]
    fn all_shortest_paths_mesh_diagonal() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(1, 1).unwrap();
        let all = all_shortest_paths(&g, a, b, None, 16);
        assert_eq!(all.len(), 2); // right-down and down-right
        for p in &all {
            assert_eq!(p.len(), 3);
        }
        // 2x2 sub-diagonal of the corner-to-corner walk: C(4,2) = 6.
        let c = g.switch_at_grid(2, 2).unwrap();
        assert_eq!(all_shortest_paths(&g, a, c, None, 32).len(), 6);
    }

    #[test]
    fn all_shortest_paths_cap_is_respected() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let c = g.switch_at_grid(2, 2).unwrap();
        assert_eq!(all_shortest_paths(&g, a, c, None, 3).len(), 3);
    }

    #[test]
    fn all_simple_paths_include_non_minimal() {
        let g = builders::mesh(2, 2, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(0, 1).unwrap();
        let all = all_simple_paths(&g, a, b, None, 4, 16);
        // Direct hop plus the 3-hop detour around the square.
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn dijkstra_prefers_cheap_edges() {
        let g = builders::mesh(1, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let c = g.switch_at_grid(0, 2).unwrap();
        let (cost, path) = dijkstra(&g, a, c, None, |_| 2.5).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(cost, 5.0);
    }

    #[test]
    fn path_edges_matches_path() {
        let g = builders::mesh(2, 3, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(1, 2).unwrap();
        let p = shortest_path(&g, a, b, None).unwrap();
        let es = path_edges(&g, &p);
        assert_eq!(es.len(), p.len() - 1);
        for (i, e) in es.iter().enumerate() {
            assert_eq!(g.edge(*e).src, p[i]);
            assert_eq!(g.edge(*e).dst, p[i + 1]);
        }
    }

    #[test]
    fn bfs_levels_match_hop_distance() {
        for g in [
            builders::mesh(3, 4, 500.0).unwrap(),
            builders::butterfly(4, 2, 500.0).unwrap(),
        ] {
            for a in g.nodes() {
                let levels = bfs_levels(&g, a);
                for b in g.nodes() {
                    match hop_distance(&g, a, b) {
                        Some(d) => assert_eq!(levels[b.index()], d, "{a}->{b}"),
                        None => assert_eq!(levels[b.index()], usize::MAX, "{a}->{b}"),
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_dijkstra_reproduces_allocating_dijkstra() {
        let g = builders::torus(3, 4, 500.0).unwrap();
        let mut scratch = DijkstraScratch::new(g.node_count());
        let mut path = Vec::new();
        // Non-uniform costs exercise tie-breaking; reuse the scratch
        // across every pair to exercise the lazy reset.
        let cost_of = |e: EdgeId| 1.0 + (e.index() % 7) as f64 * 0.25;
        for a in g.switches() {
            for b in g.switches() {
                let reference = dijkstra(&g, a, b, None, cost_of).unwrap();
                let cost =
                    dijkstra_into(&g, a, b, |_| true, cost_of, &mut scratch, &mut path).unwrap();
                assert_eq!(cost, reference.0);
                assert_eq!(path, reference.1);
            }
        }
    }

    #[test]
    fn hop_distance_identity_and_symmetry_on_direct() {
        let g = builders::hypercube(4, 500.0).unwrap();
        for a in g.switches() {
            assert_eq!(hop_distance(&g, a, a), Some(0));
            for b in g.switches() {
                assert_eq!(hop_distance(&g, a, b), hop_distance(&g, b, a));
            }
        }
    }
}
