//! Dimension-ordered (deterministic) route construction.
//!
//! Dimension-ordered routing is one of the four routing functions SUNMAP
//! supports. For grid topologies it is classic XY routing (columns
//! first, then rows), for the torus it additionally picks the shorter
//! wrap direction per dimension, and for the hypercube it is e-cube
//! routing (bits corrected from least to most significant). Multistage
//! networks have no dimension order proper: the butterfly has a unique
//! path and the Clos uses a deterministic middle-switch hash so that the
//! function stays oblivious.
//!
//! Every route is built one hop at a time from the current switch's
//! successors, so a route of `h` hops costs O(h · degree); no step
//! scans the graph's nodes.

use crate::paths::shortest_path;
use crate::{NodeCoords, NodeId, TopologyError, TopologyGraph, TopologyKind};

/// Computes the dimension-ordered route from `src` to `dst` (both
/// mappable vertices), returning the full vertex path including the
/// endpoints.
///
/// # Errors
///
/// Returns [`TopologyError::NotMappable`] if either endpoint is not a
/// mappable vertex of `g`.
///
/// # Panics
///
/// Panics if the graph was built inconsistently (missing edges along the
/// canonical route), which cannot happen for graphs from
/// [`crate::builders`].
///
/// # Examples
///
/// ```
/// use sunmap_topology::{builders, dimension_order};
///
/// let g = builders::mesh(3, 3, 500.0)?;
/// let a = g.switch_at_grid(0, 0).unwrap();
/// let b = g.switch_at_grid(2, 2).unwrap();
/// let route = dimension_order::route(&g, a, b)?;
/// // XY: across the top row first, then down the last column.
/// assert_eq!(route.len(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn route(g: &TopologyGraph, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, TopologyError> {
    // Mappable ids are pushed in ascending order as the graph is built.
    let mappable = |n: NodeId| g.mappable_nodes().binary_search(&n).is_ok();
    if !mappable(src) {
        return Err(TopologyError::NotMappable(src.index()));
    }
    if !mappable(dst) {
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
            shortest_path(g, src, dst, None).expect("butterfly terminals are connected")
        }
        TopologyKind::Octagon => octagon_route(g, src, dst),
        TopologyKind::Star { .. } => {
            shortest_path(g, src, dst, None).expect("star ports are connected")
        }
        TopologyKind::Custom { .. } => {
            shortest_path(g, src, dst, None).ok_or(TopologyError::NotMappable(dst.index()))?
        }
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
    let mut cur = src;
    // X (column) dimension first.
    while c != c2 {
        c = ring_step(c, c2, wrap.map(|(_, cols)| cols).filter(|l| *l > 2));
        cur = step_to(
            g,
            cur,
            NodeCoords::Grid { row: r, col: c },
            "grid switch exists",
        );
        path.push(cur);
    }
    while r != r2 {
        r = ring_step(r, r2, wrap.map(|(rows, _)| rows).filter(|l| *l > 2));
        cur = step_to(
            g,
            cur,
            NodeCoords::Grid { row: r, col: c },
            "grid switch exists",
        );
        path.push(cur);
    }
    path
}

/// The successor of `from` at coordinates `to`: each hop of a
/// dimension-ordered route moves to a neighbour, so its next switch is
/// found among `from`'s out-links, not by scanning every node.
fn step_to(g: &TopologyGraph, from: NodeId, to: NodeCoords, missing: &str) -> NodeId {
    g.successors(from)
        .find(|n| g.coords(*n) == to)
        .expect(missing)
}

fn ecube_route(g: &TopologyGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let label = |n: NodeId| match g.coords(n) {
        NodeCoords::Hyper { label } => label,
        other => panic!("expected hypercube coordinates, found {other}"),
    };
    let mut cur = label(src);
    let target = label(dst);
    let mut path = vec![src];
    let mut node = src;
    let mut bit = 0u32;
    while cur != target {
        if (cur ^ target) & (1 << bit) != 0 {
            cur ^= 1 << bit;
            node = step_to(
                g,
                node,
                NodeCoords::Hyper { label: cur },
                "hypercube label exists",
            );
            path.push(node);
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
    let mid = step_to(
        g,
        ing,
        NodeCoords::Stage {
            stage: 1,
            index: mid_index,
        },
        "middle switch exists",
    );
    vec![src, ing, mid, eg, dst]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::paths;

    #[test]
    fn mesh_xy_route_is_minimal_and_monotone() {
        let g = builders::mesh(4, 4, 500.0).unwrap();
        for a in g.switches() {
            for b in g.switches() {
                let p = route(&g, a, b).unwrap();
                let min = paths::shortest_path(&g, a, b, None).unwrap();
                assert_eq!(p.len(), min.len(), "XY route must be minimal");
                // Column movement must finish before row movement starts.
                let mut seen_row_move = false;
                for w in p.windows(2) {
                    let (r1, c1) = grid_of(&g, w[0]);
                    let (r2, _c2) = grid_of(&g, w[1]);
                    if r1 != r2 {
                        seen_row_move = true;
                    } else {
                        assert!(!seen_row_move, "column move after row move");
                    }
                    let _ = c1;
                }
            }
        }
    }

    #[test]
    fn torus_route_uses_wrap_and_is_minimal() {
        let g = builders::torus(4, 4, 500.0).unwrap();
        for a in g.switches() {
            for b in g.switches() {
                let p = route(&g, a, b).unwrap();
                let min = paths::shortest_path(&g, a, b, None).unwrap();
                assert_eq!(p.len(), min.len(), "torus DO route must be minimal");
            }
        }
    }

    #[test]
    fn ecube_route_is_minimal() {
        let g = builders::hypercube(4, 500.0).unwrap();
        for a in g.switches() {
            for b in g.switches() {
                let p = route(&g, a, b).unwrap();
                let min = paths::shortest_path(&g, a, b, None).unwrap();
                assert_eq!(p.len(), min.len(), "e-cube route must be minimal");
            }
        }
    }

    #[test]
    fn clos_route_is_deterministic_and_valid() {
        let g = builders::clos(4, 2, 4, 500.0).unwrap();
        let a = g.port(0).unwrap();
        let b = g.port(7).unwrap();
        let p1 = route(&g, a, b).unwrap();
        let p2 = route(&g, a, b).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 5);
        for w in p1.windows(2) {
            assert!(g.find_edge(w[0], w[1]).is_some(), "route uses real edges");
        }
    }

    #[test]
    fn butterfly_route_is_the_unique_path() {
        let g = builders::butterfly(2, 3, 500.0).unwrap();
        let a = g.port(1).unwrap();
        let b = g.port(6).unwrap();
        let p = route(&g, a, b).unwrap();
        let sp = paths::shortest_path(&g, a, b, None).unwrap();
        assert_eq!(p, sp);
    }

    #[test]
    fn route_rejects_non_mappable_endpoints() {
        let g = builders::clos(2, 2, 2, 500.0).unwrap();
        let sw = g.switch_at_stage(0, 0).unwrap();
        let port = g.port(0).unwrap();
        assert!(route(&g, sw, port).is_err());
    }

    #[test]
    fn route_to_self_is_trivial() {
        let g = builders::mesh(2, 2, 500.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        assert_eq!(route(&g, a, a).unwrap(), vec![a]);
    }
}
