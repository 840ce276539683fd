//! The application core graph (paper Definition 1).

use std::collections::BTreeMap;

/// Index of a core in a [`CoreGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Raw index of the core.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(value: usize) -> Self {
        CoreId(value)
    }
}

/// A processor or memory core of the SoC. The paper takes per-core
/// area/power as tool inputs (§5); we carry area (for floorplanning)
/// and an aspect-ratio flexibility flag (soft vs hard block).
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    /// Human-readable core name ("vld", "sdram", ...).
    pub name: String,
    /// Core area in mm².
    pub area: f64,
    /// Whether the floorplanner may reshape the block within the
    /// permissible aspect-ratio range (soft block) or must keep it
    /// square-ish (hard block).
    pub soft: bool,
}

/// A single-commodity flow `d_k` (paper Eq. 2): one directed core-graph
/// edge with its bandwidth value `vl(d_k) = comm_{i,j}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Producing core (`source(d_k)` before mapping).
    pub src: CoreId,
    /// Consuming core.
    pub dst: CoreId,
    /// Bandwidth demand in MB/s.
    pub bandwidth: f64,
}

/// Errors from core-graph construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrafficError {
    /// Self-communication edges are not meaningful in the model.
    SelfEdge(CoreId),
    /// Bandwidth demands must be positive and finite.
    InvalidBandwidth(f64),
    /// Core areas must be positive and finite.
    InvalidArea(f64),
    /// An endpoint refers to a core that does not exist.
    UnknownCore(CoreId),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::SelfEdge(c) => write!(f, "core {c} cannot communicate with itself"),
            TrafficError::InvalidBandwidth(b) => {
                write!(f, "bandwidth must be positive and finite, got {b}")
            }
            TrafficError::InvalidArea(a) => {
                write!(f, "core area must be positive and finite, got {a}")
            }
            TrafficError::UnknownCore(c) => write!(f, "unknown core {c}"),
        }
    }
}

impl std::error::Error for TrafficError {}

/// The core graph `G(V, E)`: cores plus directed bandwidth-annotated
/// communication edges.
///
/// # Examples
///
/// ```
/// use sunmap_traffic::CoreGraph;
///
/// let mut g = CoreGraph::new();
/// let a = g.add_core("producer", 2.0);
/// let b = g.add_core("consumer", 2.0);
/// g.add_traffic(a, b, 150.0)?;
/// assert_eq!(g.total_traffic(), 150.0);
/// # Ok::<(), sunmap_traffic::TrafficError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreGraph {
    cores: Vec<Core>,
    edges: Vec<Commodity>,
}

impl CoreGraph {
    /// Creates an empty core graph.
    pub fn new() -> Self {
        CoreGraph::default()
    }

    /// Adds a soft core with the given name and area (mm²).
    ///
    /// # Panics
    ///
    /// Panics if `area` is non-positive or non-finite; use
    /// [`CoreGraph::try_add_core`] for validated insertion.
    pub fn add_core(&mut self, name: impl Into<String>, area: f64) -> CoreId {
        self.try_add_core(name, area, true)
            .expect("core area must be positive and finite")
    }

    /// Adds a core, choosing softness, with validation.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidArea`] for non-positive or
    /// non-finite areas.
    pub fn try_add_core(
        &mut self,
        name: impl Into<String>,
        area: f64,
        soft: bool,
    ) -> Result<CoreId, TrafficError> {
        if !(area.is_finite() && area > 0.0) {
            return Err(TrafficError::InvalidArea(area));
        }
        let id = CoreId(self.cores.len());
        self.cores.push(Core {
            name: name.into(),
            area,
            soft,
        });
        Ok(id)
    }

    /// Adds a directed communication demand of `bandwidth` MB/s from
    /// `src` to `dst`. Parallel demands between the same pair accumulate.
    ///
    /// # Errors
    ///
    /// Returns an error for self-edges, unknown endpoints, a
    /// non-positive or non-finite bandwidth, or a merged demand that is
    /// not finite; the graph is then unchanged.
    pub fn add_traffic(
        &mut self,
        src: CoreId,
        dst: CoreId,
        bandwidth: f64,
    ) -> Result<(), TrafficError> {
        if src == dst {
            return Err(TrafficError::SelfEdge(src));
        }
        for c in [src, dst] {
            if c.index() >= self.cores.len() {
                return Err(TrafficError::UnknownCore(c));
            }
        }
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(TrafficError::InvalidBandwidth(bandwidth));
        }
        if let Some(existing) = self.edges.iter_mut().find(|e| e.src == src && e.dst == dst) {
            let merged = existing.bandwidth + bandwidth;
            if !merged.is_finite() {
                return Err(TrafficError::InvalidBandwidth(merged));
            }
            existing.bandwidth = merged;
        } else {
            self.edges.push(Commodity {
                src,
                dst,
                bandwidth,
            });
        }
        Ok(())
    }

    /// Number of cores `|V|`.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of communication edges `|E|` (= number of commodities).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The core with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// All cores with their ids.
    pub fn cores(&self) -> impl Iterator<Item = (CoreId, &Core)> {
        self.cores.iter().enumerate().map(|(i, c)| (CoreId(i), c))
    }

    /// Looks a core up by name.
    pub fn core_by_name(&self, name: &str) -> Option<CoreId> {
        self.cores.iter().position(|c| c.name == name).map(CoreId)
    }

    /// The commodity set `D`, sorted by decreasing bandwidth — the order
    /// in which the mapping algorithm routes flows (Fig. 5 step 2).
    pub fn commodities(&self) -> Vec<Commodity> {
        let mut d = self.edges.clone();
        d.sort_by(|a, b| {
            b.bandwidth
                .total_cmp(&a.bandwidth)
                .then_with(|| (a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        d
    }

    /// Raw edge list in insertion order.
    pub fn edges(&self) -> &[Commodity] {
        &self.edges
    }

    /// Sum of all bandwidth demands (MB/s).
    pub fn total_traffic(&self) -> f64 {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// Total bandwidth a core sends plus receives. The greedy initial
    /// placement seeds the core maximising this (Fig. 5 step 1).
    pub fn communication_of(&self, core: CoreId) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.src == core || e.dst == core)
            .map(|e| e.bandwidth)
            .sum()
    }

    /// The core with maximum total communication.
    ///
    /// Returns `None` for an empty graph.
    pub fn max_communication_core(&self) -> Option<CoreId> {
        (0..self.core_count()).map(CoreId).max_by(|a, b| {
            self.communication_of(*a)
                .total_cmp(&self.communication_of(*b))
                // Deterministic tie-break: lower id wins (max_by keeps
                // the last maximal element, so order the tie that way).
                .then_with(|| b.cmp(a))
        })
    }

    /// Bandwidth communicated between `core` and a set of placed cores
    /// (in either direction). Drives the greedy "most communication with
    /// placed cores" selection.
    pub fn communication_with(&self, core: CoreId, placed: &[CoreId]) -> f64 {
        self.edges
            .iter()
            .filter(|e| {
                (e.src == core && placed.contains(&e.dst))
                    || (e.dst == core && placed.contains(&e.src))
            })
            .map(|e| e.bandwidth)
            .sum()
    }

    /// Bandwidth matrix view: `matrix[i][j]` is the demand from core `i`
    /// to core `j` in MB/s.
    pub fn bandwidth_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.core_count();
        let mut m = vec![vec![0.0; n]; n];
        for e in &self.edges {
            m[e.src.index()][e.dst.index()] += e.bandwidth;
        }
        m
    }

    /// Total area of all cores (mm²), the lower bound for any floorplan.
    pub fn total_core_area(&self) -> f64 {
        self.cores.iter().map(|c| c.area).sum()
    }

    /// Merges another graph's cores and traffic into `self`, returning
    /// the id offset that was applied to the other graph's cores.
    pub fn absorb(&mut self, other: &CoreGraph) -> usize {
        let offset = self.cores.len();
        self.cores.extend(other.cores.iter().cloned());
        for e in &other.edges {
            self.edges.push(Commodity {
                src: CoreId(e.src.index() + offset),
                dst: CoreId(e.dst.index() + offset),
                bandwidth: e.bandwidth,
            });
        }
        offset
    }
}

impl FromIterator<(String, f64)> for CoreGraph {
    /// Builds a graph of disconnected cores from `(name, area)` pairs.
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        let mut g = CoreGraph::new();
        for (name, area) in iter {
            g.add_core(name, area);
        }
        g
    }
}

/// Convenience: build a graph from `(name, area)` pairs and
/// `(src_name, dst_name, bandwidth)` triples.
///
/// # Panics
///
/// Panics on unknown names, self-edges or invalid values — intended for
/// statically known benchmark tables.
pub(crate) fn graph_from_tables(cores: &[(&str, f64)], traffic: &[(&str, &str, f64)]) -> CoreGraph {
    let mut g = CoreGraph::new();
    let mut ids = BTreeMap::new();
    for (name, area) in cores {
        ids.insert(*name, g.add_core(*name, *area));
    }
    for (src, dst, bw) in traffic {
        let s = ids[src];
        let d = ids[dst];
        g.add_traffic(s, d, *bw)
            .expect("benchmark tables are valid");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (CoreGraph, CoreId, CoreId, CoreId) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a", 1.0);
        let b = g.add_core("b", 2.0);
        let c = g.add_core("c", 3.0);
        g.add_traffic(a, b, 100.0).unwrap();
        g.add_traffic(b, c, 50.0).unwrap();
        g.add_traffic(c, a, 10.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn commodities_sorted_decreasing() {
        let (g, ..) = tiny();
        let d = g.commodities();
        let bws: Vec<f64> = d.iter().map(|c| c.bandwidth).collect();
        assert_eq!(bws, vec![100.0, 50.0, 10.0]);
    }

    #[test]
    fn parallel_demands_accumulate() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a", 1.0);
        let b = g.add_core("b", 1.0);
        g.add_traffic(a, b, 10.0).unwrap();
        g.add_traffic(a, b, 5.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_traffic(), 15.0);
        // A merged demand must stay finite; a refused merge leaves the
        // graph as it was.
        g.add_traffic(b, a, 1e308).unwrap();
        let before = g.clone();
        assert_eq!(
            g.add_traffic(b, a, 1e308),
            Err(TrafficError::InvalidBandwidth(f64::INFINITY))
        );
        assert_eq!(g, before);
    }

    #[test]
    fn self_edges_rejected() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a", 1.0);
        assert_eq!(g.add_traffic(a, a, 10.0), Err(TrafficError::SelfEdge(a)));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a", 1.0);
        let b = g.add_core("b", 1.0);
        assert!(g.add_traffic(a, b, 0.0).is_err());
        assert!(g.add_traffic(a, b, -1.0).is_err());
        assert!(g.add_traffic(a, b, f64::NAN).is_err());
        assert!(g.add_traffic(a, CoreId(9), 1.0).is_err());
        assert!(g.try_add_core("bad", -2.0, true).is_err());
        assert!(g.try_add_core("bad", f64::INFINITY, true).is_err());
    }

    #[test]
    fn communication_accounting() {
        let (g, a, b, c) = tiny();
        assert_eq!(g.communication_of(a), 110.0);
        assert_eq!(g.communication_of(b), 150.0);
        assert_eq!(g.max_communication_core(), Some(b));
        assert_eq!(g.communication_with(c, &[a]), 10.0);
        assert_eq!(g.communication_with(c, &[a, b]), 60.0);
        assert_eq!(g.communication_with(c, &[]), 0.0);
    }

    #[test]
    fn bandwidth_matrix_matches_edges() {
        let (g, a, b, _) = tiny();
        let m = g.bandwidth_matrix();
        assert_eq!(m[a.index()][b.index()], 100.0);
        assert_eq!(m[b.index()][a.index()], 0.0);
    }

    #[test]
    fn absorb_offsets_ids() {
        let (mut g, ..) = tiny();
        let (other, ..) = tiny();
        let offset = g.absorb(&other);
        assert_eq!(offset, 3);
        assert_eq!(g.core_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.total_traffic(), 2.0 * 160.0);
    }

    #[test]
    fn from_iterator_builds_disconnected_cores() {
        let g: CoreGraph = [("x".to_string(), 1.0), ("y".to_string(), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(g.core_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.core_by_name("y"), Some(CoreId(1)));
        assert_eq!(g.core_by_name("z"), None);
    }

    #[test]
    fn total_core_area_sums() {
        let (g, ..) = tiny();
        assert_eq!(g.total_core_area(), 6.0);
    }

    #[test]
    fn max_communication_tie_breaks_to_lowest_id() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a", 1.0);
        let b = g.add_core("b", 1.0);
        g.add_traffic(a, b, 10.0).unwrap();
        // Both cores have total communication 10: lowest id wins.
        assert_eq!(g.max_communication_core(), Some(a));
    }
}
