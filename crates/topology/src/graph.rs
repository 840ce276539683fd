//! The NoC topology graph (paper Definition 2).

use crate::{NodeCoords, NodeId, NodeKind, TopologyError, TopologyKind};

/// Index of a directed edge in a [`TopologyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Raw index of the edge.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed channel of the NoC: `f_{i,j}` of the paper, annotated with
/// its bandwidth capacity `bw_{i,j}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: NodeId,
    /// Destination vertex.
    pub dst: NodeId,
    /// Bandwidth capacity in MB/s. Core-attach (network-interface) links
    /// are modelled with `f64::INFINITY` since the paper's bandwidth
    /// constraint applies to network links only.
    pub capacity: f64,
}

impl Edge {
    /// Whether this edge is a network (switch-to-switch) link rather than
    /// a core-attach link.
    pub fn is_network_link(&self) -> bool {
        self.capacity.is_finite()
    }
}

/// Dense adjacency lookup built by [`TopologyGraph::adjacency_matrix`]:
/// `edge_between(src, dst)` answers in O(1) what `find_edge` answers by
/// scanning the outgoing list. Matches `find_edge` exactly, including
/// first-edge-wins semantics for (hypothetical) parallel edges.
///
/// # Examples
///
/// ```
/// use sunmap_topology::builders;
///
/// let g = builders::mesh(2, 2, 500.0)?;
/// let adj = g.adjacency_matrix();
/// let a = g.switch_at_grid(0, 0).unwrap();
/// let b = g.switch_at_grid(0, 1).unwrap();
/// assert_eq!(adj.edge_between(a, b), g.find_edge(a, b));
/// assert_eq!(adj.edge_between(b, b), None);
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdjacencyMatrix {
    n: usize,
    /// `u32::MAX` marks an absent edge; anything else is an edge id.
    slots: Vec<u32>,
}

impl AdjacencyMatrix {
    /// The directed edge from `src` to `dst`, if present.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds for the originating graph.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        let slot = self.slots[src.index() * self.n + dst.index()];
        (slot != u32::MAX).then_some(EdgeId(slot as usize))
    }

    /// Number of nodes of the originating graph.
    pub fn node_count(&self) -> usize {
        self.n
    }
}

/// The NoC topology graph `P(U, F)` of the paper: vertices are network
/// nodes, directed edges are channels with bandwidth capacities.
///
/// Built through the constructors in [`crate::builders`]; the struct
/// itself is topology-agnostic and exposes generic adjacency queries.
///
/// # Examples
///
/// ```
/// use sunmap_topology::builders;
///
/// let cube = builders::hypercube(3, 500.0)?;
/// // Every hypercube switch has log2(N) = 3 neighbours.
/// for s in cube.switches() {
///     assert_eq!(cube.switch_neighbors(s).count(), 3);
/// }
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    kind: TopologyKind,
    kinds: Vec<NodeKind>,
    coords: Vec<NodeCoords>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_adj: Vec<Vec<EdgeId>>,
    /// Vertices cores may be mapped onto: all switches for direct
    /// topologies, all core ports for indirect ones.
    mappable: Vec<NodeId>,
}

impl TopologyGraph {
    /// Creates an empty graph of the given kind. Used by the builders.
    pub(crate) fn new(kind: TopologyKind) -> Self {
        TopologyGraph {
            kind,
            kinds: Vec::new(),
            coords: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            mappable: Vec::new(),
        }
    }

    pub(crate) fn add_node(&mut self, kind: NodeKind, coords: NodeCoords) -> NodeId {
        let id = NodeId(self.kinds.len());
        self.kinds.push(kind);
        self.coords.push(coords);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        if kind == NodeKind::CorePort || self.kind.is_direct() {
            self.mappable.push(id);
        }
        id
    }

    pub(crate) fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity: f64) -> EdgeId {
        debug_assert!(src.index() < self.kinds.len());
        debug_assert!(dst.index() < self.kinds.len());
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, capacity });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Adds a pair of opposite directed edges (one physical bidirectional
    /// channel).
    pub(crate) fn add_channel(&mut self, a: NodeId, b: NodeId, capacity: f64) {
        self.add_edge(a, b, capacity);
        self.add_edge(b, a, capacity);
    }

    /// Which standard topology this graph instantiates.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total vertex count (switches plus core ports).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of switch vertices.
    pub fn switch_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| **k == NodeKind::Switch)
            .count()
    }

    /// Number of physical channels between switches. A bidirectional
    /// pair created by `add_channel` counts once; the unidirectional
    /// forward links of multistage networks count individually.
    pub fn network_channel_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| {
                if !(e.is_network_link()
                    && self.kinds[e.src.index()] == NodeKind::Switch
                    && self.kinds[e.dst.index()] == NodeKind::Switch)
                {
                    return false;
                }
                // Count a bidirectional pair once (from its lower endpoint).
                e.src < e.dst || self.find_edge(e.dst, e.src).is_none()
            })
            .count()
    }

    /// Number of core-attach channels (network-interface links). For
    /// direct topologies this equals the switch count (one local core per
    /// switch); for indirect topologies it counts port links.
    pub fn attach_channel_count(&self) -> usize {
        if self.kind.is_direct() {
            self.switch_count()
        } else {
            self.edges
                .iter()
                .filter(|e| {
                    self.kinds[e.src.index()] == NodeKind::CorePort
                        || self.kinds[e.dst.index()] == NodeKind::CorePort
                })
                .count()
        }
    }

    /// Kind of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds for this graph.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds for this graph.
    pub fn coords(&self, node: NodeId) -> NodeCoords {
        self.coords[node.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds for this graph.
    pub fn edge(&self, edge: EdgeId) -> Edge {
        self.edges[edge.index()]
    }

    /// All directed edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), *e))
    }

    /// FNV-1a hash of the directed edge list (endpoints and capacity
    /// bits, in edge-id order). Structures compiled for one graph (the
    /// mapper's route table, the simulator's route plan) check it, so a
    /// graph that merely shares their graph's kind and counts, but whose
    /// edge ids name other links, is rejected.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in &self.edges {
            mix(e.src.index() as u64);
            mix(e.dst.index() as u64);
            mix(e.capacity.to_bits());
        }
        hash
    }

    /// All vertices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// All switch vertices.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|n| self.node_kind(*n) == NodeKind::Switch)
    }

    /// All core-port vertices (empty for direct topologies).
    pub fn core_ports(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|n| self.node_kind(*n) == NodeKind::CorePort)
    }

    /// Vertices cores may be mapped onto: switches for direct topologies,
    /// core ports for indirect ones. This is the `U` of the paper's
    /// mapping function restricted to placeable targets.
    pub fn mappable_nodes(&self) -> &[NodeId] {
        &self.mappable
    }

    /// Outgoing edge ids of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds for this graph.
    pub fn outgoing(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.index()]
    }

    /// Incoming edge ids of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds for this graph.
    pub fn incoming(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node.index()]
    }

    /// Successor vertices of `node` (over directed edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node.index()]
            .iter()
            .map(|e| self.edges[e.index()].dst)
    }

    /// Neighbouring *switches* of a switch, ignoring core-attach links.
    pub fn switch_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.successors(node)
            .filter(|n| self.node_kind(*n) == NodeKind::Switch)
    }

    /// Degree of `node` counted as distinct successor switches plus, for
    /// direct topologies, nothing extra (the local core is not a network
    /// neighbour). Used by the greedy initial-placement heuristic which
    /// seeds the core with maximum communication onto the node with the
    /// most neighbours.
    pub fn neighbor_count(&self, node: NodeId) -> usize {
        self.switch_neighbors(node).count()
    }

    /// Looks up the directed edge from `src` to `dst`, if present.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|e| self.edges[e.index()].dst == dst)
    }

    /// Builds a dense `src × dst → Option<EdgeId>` lookup table. A
    /// single O(V² + E) build amortises the linear [`TopologyGraph::find_edge`] scan
    /// away on hot paths (the evaluation engine resolves every path
    /// window through this matrix).
    pub fn adjacency_matrix(&self) -> AdjacencyMatrix {
        let n = self.node_count();
        let mut slots = vec![u32::MAX; n * n];
        // Iterate in edge-id order keeping the first match, so lookups
        // agree with `find_edge` (whose out_adj lists are id-ordered).
        for (i, e) in self.edges.iter().enumerate() {
            let slot = &mut slots[e.src.index() * n + e.dst.index()];
            if *slot == u32::MAX {
                *slot = i as u32;
            }
        }
        AdjacencyMatrix { n, slots }
    }

    /// The switch a mappable vertex injects into: the vertex itself for
    /// direct topologies, the ingress-stage switch for indirect ones.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotMappable`] if `node` is not a
    /// mappable vertex of this graph.
    pub fn ingress_switch(&self, node: NodeId) -> Result<NodeId, TopologyError> {
        match self.node_kind(node) {
            NodeKind::Switch if self.kind.is_direct() => Ok(node),
            NodeKind::CorePort => self
                .successors(node)
                .find(|n| self.node_kind(*n) == NodeKind::Switch)
                .ok_or(TopologyError::NotMappable(node.index())),
            _ => Err(TopologyError::NotMappable(node.index())),
        }
    }

    /// The switch a mappable vertex ejects from: the vertex itself for
    /// direct topologies, the egress-stage switch for indirect ones.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotMappable`] if `node` is not a
    /// mappable vertex of this graph.
    pub fn egress_switch(&self, node: NodeId) -> Result<NodeId, TopologyError> {
        match self.node_kind(node) {
            NodeKind::Switch if self.kind.is_direct() => Ok(node),
            NodeKind::CorePort => self
                .incoming(node)
                .iter()
                .map(|e| self.edges[e.index()].src)
                .find(|n| self.node_kind(*n) == NodeKind::Switch)
                .ok_or(TopologyError::NotMappable(node.index())),
            _ => Err(TopologyError::NotMappable(node.index())),
        }
    }

    /// Finds the switch at grid position `(row, col)` for mesh/torus
    /// graphs. Returns `None` for other topologies or out-of-range
    /// positions.
    ///
    /// Scans every node, O(V) per call: a lookup for tests and examples.
    /// Route construction steps to a neighbour through
    /// [`TopologyGraph::successors`] instead.
    pub fn switch_at_grid(&self, row: usize, col: usize) -> Option<NodeId> {
        self.nodes().find(|n| {
            matches!(self.coords(*n), NodeCoords::Grid { row: r, col: c } if r == row && c == col)
        })
    }

    /// Finds the switch at `(stage, index)` for multistage graphs.
    ///
    /// Scans every node, O(V) per call, like
    /// [`TopologyGraph::switch_at_grid`].
    pub fn switch_at_stage(&self, stage: usize, index: usize) -> Option<NodeId> {
        self.nodes().find(|n| {
            self.node_kind(*n) == NodeKind::Switch
                && matches!(self.coords(*n), NodeCoords::Stage { stage: s, index: i }
                            if s == stage && i == index)
        })
    }

    /// Finds the core port with terminal index `index` for indirect
    /// graphs.
    ///
    /// Scans every node, O(V) per call, like
    /// [`TopologyGraph::switch_at_grid`].
    pub fn port(&self, index: usize) -> Option<NodeId> {
        self.nodes()
            .find(|n| matches!(self.coords(*n), NodeCoords::Port { index: i } if i == index))
    }

    /// Number of ports of each switch, as `(switch, in_ports, out_ports)`
    /// counting both network and core-attach links. This feeds the
    /// area/power models, which size crossbars by port count.
    pub fn switch_radices(&self) -> Vec<(NodeId, usize, usize)> {
        self.switches()
            .map(|s| {
                let mut inp = self.in_adj[s.index()].len();
                let mut outp = self.out_adj[s.index()].len();
                if self.kind.is_direct() {
                    // The locally attached core contributes one input and
                    // one output port (e.g. 5x5 switches in an inner mesh
                    // node, as §6.1 of the paper notes).
                    inp += 1;
                    outp += 1;
                }
                (s, inp, outp)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn mesh_adjacency_matches_paper_fig1a() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        // Node 4 (centre) has four neighbours, node 0 (corner) two,
        // node 1 (edge) three — exactly the Fig. 1(a) description.
        let centre = g.switch_at_grid(1, 1).unwrap();
        let corner = g.switch_at_grid(0, 0).unwrap();
        let edge = g.switch_at_grid(0, 1).unwrap();
        assert_eq!(g.switch_neighbors(centre).count(), 4);
        assert_eq!(g.switch_neighbors(corner).count(), 2);
        assert_eq!(g.switch_neighbors(edge).count(), 3);
    }

    #[test]
    fn find_edge_and_capacity() {
        let g = builders::mesh(2, 2, 321.0).unwrap();
        let a = g.switch_at_grid(0, 0).unwrap();
        let b = g.switch_at_grid(0, 1).unwrap();
        let e = g.find_edge(a, b).expect("adjacent switches share an edge");
        assert_eq!(g.edge(e).capacity, 321.0);
        assert!(g.edge(e).is_network_link());
        let c = g.switch_at_grid(1, 1).unwrap();
        assert!(g.find_edge(a, c).is_none());
    }

    #[test]
    fn direct_topology_mappable_nodes_are_switches() {
        let g = builders::mesh(2, 3, 500.0).unwrap();
        assert_eq!(g.mappable_nodes().len(), 6);
        for n in g.mappable_nodes() {
            assert_eq!(g.node_kind(*n), NodeKind::Switch);
            assert_eq!(g.ingress_switch(*n).unwrap(), *n);
            assert_eq!(g.egress_switch(*n).unwrap(), *n);
        }
    }

    #[test]
    fn indirect_topology_mappable_nodes_are_ports() {
        let g = builders::butterfly(2, 3, 500.0).unwrap();
        assert_eq!(g.mappable_nodes().len(), 8);
        for n in g.mappable_nodes() {
            assert_eq!(g.node_kind(*n), NodeKind::CorePort);
            let ing = g.ingress_switch(*n).unwrap();
            let eg = g.egress_switch(*n).unwrap();
            assert_eq!(g.node_kind(ing), NodeKind::Switch);
            assert_eq!(g.node_kind(eg), NodeKind::Switch);
        }
    }

    #[test]
    fn switch_radices_account_for_local_core() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let centre = g.switch_at_grid(1, 1).unwrap();
        let (_, inp, outp) = g
            .switch_radices()
            .into_iter()
            .find(|(s, _, _)| *s == centre)
            .unwrap();
        // 4 network neighbours + 1 local core = 5x5 switch.
        assert_eq!(inp, 5);
        assert_eq!(outp, 5);
    }

    #[test]
    fn adjacency_matrix_agrees_with_find_edge_everywhere() {
        for g in [
            builders::mesh(3, 4, 500.0).unwrap(),
            builders::torus(3, 3, 500.0).unwrap(),
            builders::butterfly(4, 2, 500.0).unwrap(),
            builders::clos(4, 2, 4, 500.0).unwrap(),
        ] {
            let adj = g.adjacency_matrix();
            assert_eq!(adj.node_count(), g.node_count());
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        adj.edge_between(a, b),
                        g.find_edge(a, b),
                        "{}: {a}->{b} mismatch",
                        g.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn network_channel_count_mesh() {
        let g = builders::mesh(4, 3, 500.0).unwrap();
        // rows*(cols-1) + cols*(rows-1) = 4*2 + 3*3 = 17 channels.
        assert_eq!(g.network_channel_count(), 17);
        assert_eq!(g.attach_channel_count(), 12);
    }
}
