//! The cached evaluation fast path: per-topology route tables,
//! allocation-free scratch buffers, and a parallel swap sweep.
//!
//! The mapper's phase-3 search evaluates O(passes · n²) candidate
//! placements per topology. The reference evaluator
//! ([`crate::evaluate`]) rebuilds everything from scratch per candidate:
//! BFS/Dijkstra state, quadrant sets, enumerated path sets, `find_edge`
//! scans per path window and map-backed accumulators. This module
//! amortises all placement-independent work into a [`RouteTable`] built
//! once per topology, keeps the per-candidate working state in a
//! reusable [`EvalScratch`], and fans the swap sweep out across scoped
//! threads with a deterministic reduction.
//!
//! **Equivalence contract**: for any placement, [`EvalEngine::
//! evaluate_report`] returns a [`CostReport`] bit-identical to
//! `evaluate(..).report`, and errors exactly when the reference errors.
//! The routed-path *sets* are placement-independent per `(src, dst)`
//! pair (quadrants, enumerated min/simple paths, dimension-ordered
//! routes), which is what makes caching sound. Min-max chunk
//! assignment runs the reference's code ([`crate::routing::
//! assign_chunks`] backs `min_max_split`). MinPath routing does not:
//! the reference runs `paths::dijkstra` (whose body is
//! `paths::dijkstra_into`), while the engine runs the heap-free
//! `paths::level_search_into`, which returns Dijkstra's cost and path,
//! tie-breaking included, whenever every search level's cost spread
//! is below [`HOP_COST`]. It checks that at each level and otherwise
//! reports the commodity, which the engine then routes with
//! `paths::dijkstra_into` itself ([`EvalScratch::level_fallbacks`]
//! counts these). `tests/level_search_oracle.rs` in the topology crate
//! proves the pair against Dijkstra, fallbacks included, and the
//! proptest suite in `tests/fast_path_equivalence.rs` enforces the
//! contract across every topology builder, routing function and
//! objective.
//!
//! # One swap sweep, two scorers
//!
//! [`EvalEngine::sweep`] runs one phase-3 pass: it walks the candidate
//! pairs in fixed-size blocks, scores each block (fanned out across
//! workers) and reduces the scores in pair order. [`SwapStrategy`]
//! picks the per-pair scorer: a full evaluation of every swap, or the
//! incremental swap-delta scorer below.
//!
//! On large topologies even the cached full evaluation is too much work
//! per candidate: a pass over an `n`-vertex grid scores `n(n-1)/2`
//! swaps and each full evaluation re-routes every commodity. The
//! delta scorer keeps persistent per-edge link-load and per-switch
//! traffic accumulators for the pass's base placement and scores a
//! candidate swap of vertices `(a, b)` incrementally:
//!
//! 1. an **O(deg) pre-bound** — the bandwidth-weighted *minimum*
//!    switch-hop mass (and its switch-energy analogue) is updated by
//!    subtracting just the commodities incident to `a`/`b` and
//!    re-adding them under the swapped endpoints; if even this
//!    optimistic cost cannot beat the pass incumbent, the swap is
//!    abandoned without routing anything;
//! 2. for **placement-independent route sets** (dimension-ordered
//!    routing, where every pair's route is a cached enumerated path)
//!    the delta is exact up to float rounding: the incident
//!    commodities' old cached paths are subtracted from the base
//!    accumulators and their new paths re-added, yielding the
//!    candidate's loads, switch power and hop mass without touching the
//!    other `|E_app|` commodities;
//! 3. a **switch-cut pre-bound**, when bandwidth is enforced: every
//!    commodity that ejects at switch `s` but injects elsewhere enters
//!    `s` over one of its network in-links, under any routing function,
//!    so the busiest in-link carries at least that demand over the
//!    in-degree (out-links likewise). The base's per-switch demands are
//!    updated by the incident commodities only, and a swap whose bound
//!    certainly overloads a link (and, against an infeasible incumbent,
//!    clearly exceeds its max load) is dropped before any routing: its
//!    bounded evaluation would abandon it by the last commodity anyway;
//! 4. **load-dependent routing** (Dijkstra min-load `MP`, min-max
//!    split `SM`/`SA`) falls back to a full evaluation, but one with an
//!    **early-exit bound**: after every routed commodity the partial
//!    cost plus an optimistic bound for the unrouted suffix is compared
//!    against the incumbent — the evaluation is abandoned the moment it
//!    can no longer win. The partial cost (max load, overload, switch
//!    and link power) is tracked in the walk that accumulates the loads,
//!    as each flow lands. Under MinPath the commodities before the first
//!    one incident to the swap reuse the base's routes (**routed-prefix
//!    reuse**): their endpoints and the loads they see are the base's,
//!    so Dijkstra would find the same paths. As in the paper's Fig. 5,
//!    routing comes before the floorplan, so only a candidate that
//!    finishes routing pays for its layout, floorplan solve and area
//!    check. The exception is MinPower against a feasible incumbent:
//!    its bound prices link power by the candidate's link lengths, so it
//!    solves the floorplan first.
//!
//! Pruning is *sound*, never heuristic: a swap is only abandoned when a
//! margin-guarded lower bound proves it ranks strictly worse than an
//! already-evaluated candidate, and every surviving candidate is scored
//! by the same full evaluation the exhaustive scorer uses. Each pass's
//! chosen winner is then re-materialised through the reference
//! [`crate::evaluate`] (and `debug_assert`-checked against it) whichever
//! scorer ran, so pass winners, final placements and reports are
//! **bit-identical** to [`SwapStrategy::Exhaustive`] — only the number
//! of evaluations differs. The incumbent the delta scorer prunes
//! against is frozen at each block boundary, which keeps the pruning
//! decisions (and therefore the evaluation counts) deterministic at any
//! worker count.

use crate::routing::{
    assign_chunks, BANDWIDTH_TOLERANCE, DETOUR_SLACK, HOP_COST, MAX_SPLIT_PATHS, SPLIT_CHUNKS,
};
use crate::{
    layout_blocks, Constraints, CostReport, LayoutBlocks, MappingError, Objective, Placement,
    RoutingFunction,
};
use sunmap_floorplan::Floorplan;
use sunmap_power::{switch_power_from_energy, AreaPowerLibrary, SwitchConfig};
use sunmap_topology::paths::{AllowedSet, DijkstraScratch, NotLevelOrdered};
use sunmap_topology::{
    closed_form, dimension_order, paths, quadrant, AdjacencyMatrix, EdgeId, NodeId, NodeKind,
    TopologyGraph,
};
use sunmap_traffic::{Commodity, CoreGraph};

// lint:allow(hash-iter): LazyPairs memo below is keyed lookup only, never iterated
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Sentinel for "unreachable" in the hop-distance matrix, chosen so the
/// greedy placement cost matches the reference's
/// `hop_distance(..).unwrap_or(usize::MAX / 2)`.
///
/// The sentinel is **never summed in integer arithmetic**: every
/// consumer either tests for it explicitly or converts through
/// [`RouteTable::greedy_distance`] / [`EvalEngine::pair_masses`], which
/// widen to `f64` (matching the reference's `usize::MAX / 2` cost)
/// before any accumulation, and use saturating ops on the raw value —
/// adding several sentinel costs therefore cannot wrap and silently
/// prefer disconnected vertices (see `tests/disconnected_sentinel.rs`).
const UNREACHABLE_HOPS: u32 = u32::MAX;

/// Relative safety margin for the sweep's prune comparisons. Bounds are
/// computed with re-ordered float arithmetic, so they may drift from
/// the exact evaluation by a few ulps (≲1e-12 relative for the problem
/// sizes involved); pruning only when a bound exceeds the incumbent by
/// this much larger margin keeps every decision sound — near-ties are
/// always fully evaluated.
const PRUNE_MARGIN: f64 = 1e-9;

/// `bound` is so far above `target` (both non-negative) that no float
/// drift in the bound's computation can make the true value ≤ `target`.
fn clearly_above(bound: f64, target: f64) -> bool {
    bound > target * (1.0 + PRUNE_MARGIN) + f64::MIN_POSITIVE
}

/// The switch-cut pre-bound's margin, `PRUNE_MARGIN` taken twice: once
/// for the drift of its demand sums, once for that of the loads the
/// bounded evaluation checks, so a swap the cut drops is one whose
/// bounded evaluation would have returned `None`.
const CUT_MARGIN: f64 = (1.0 + PRUNE_MARGIN) * (1.0 + PRUNE_MARGIN);

/// How the mapper's phase-3 sweep scores candidate swaps. There is one
/// sweep ([`EvalEngine::sweep`]); the strategy only picks its per-pair
/// scorer. No user surface names a strategy: every surface runs `Auto`,
/// and tests force a scorer through
/// [`MapperConfig::swap_strategy`](crate::MapperConfig::swap_strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwapStrategy {
    /// [`SwapStrategy::Exhaustive`] up to
    /// [`SwapStrategy::AUTO_THRESHOLD`] mappable vertices,
    /// [`SwapStrategy::DeltaPruned`] above — the seed benchmarks keep
    /// their exact evaluation counts while large synthetic grids get
    /// the incremental engine.
    #[default]
    Auto,
    /// Fully evaluate every candidate swap (the paper's literal Fig. 5
    /// loop). Observers see every candidate report.
    Exhaustive,
    /// Incremental swap-delta scoring with sound early-exit bounds:
    /// bit-identical pass winners, final placements and reports, but
    /// candidates proven unable to win are never fully evaluated (and
    /// therefore not observed or counted).
    DeltaPruned,
}

impl SwapStrategy {
    /// Mappable-vertex count above which [`SwapStrategy::Auto`] selects
    /// the delta-pruned sweep. All seed benchmarks (≤ 16 cores) stay on
    /// the exhaustive sweep, preserving their pinned evaluation counts.
    pub const AUTO_THRESHOLD: usize = 24;

    /// The concrete strategy for a topology with `mappable` vertices.
    pub fn resolve(self, mappable: usize) -> SwapStrategy {
        match self {
            SwapStrategy::Auto if mappable > Self::AUTO_THRESHOLD => SwapStrategy::DeltaPruned,
            SwapStrategy::Auto => SwapStrategy::Exhaustive,
            other => other,
        }
    }
}

/// How a [`RouteTable`] materialises its per-pair routing state
/// (quadrant sets, enumerated path sets, hop distances).
///
/// `Lazy` is proven bit-identical to [`TablePrep::Eager`] by the
/// `table_prep_equivalence` suite; the two differ only in *when* (and
/// whether) each pair's state is computed. The code chooses: `Auto`
/// resolves per topology through [`TablePrep::resolve`], no user
/// surface names a preparation, and the explicit variants are for the
/// equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TablePrep {
    /// [`TablePrep::Eager`] up to [`TablePrep::EAGER_THRESHOLD`]
    /// mappable vertices (the regime where dense enumeration is cheap
    /// and the whole table is touched anyway), [`TablePrep::Lazy`]
    /// above it.
    #[default]
    Auto,
    /// Enumerate every pair's state up front, with hop distances by
    /// one BFS per source: the original dense preparation, kept as the
    /// oracle `Lazy` is checked against.
    Eager,
    /// Per-pair quadrant and path sets materialised on first use and
    /// memoised (only commodities that exist, plus pairs touched by
    /// swap deltas, ever pay for enumeration). Hop distances come from
    /// coordinate arithmetic (`sunmap_topology::closed_form`, no dense
    /// `m × n` matrix) where the topology kind has a closed form, and
    /// from one BFS per source up front otherwise (octagon, star,
    /// custom).
    Lazy,
}

impl TablePrep {
    /// Mappable-vertex count up to which [`TablePrep::Auto`] stays on
    /// the eager dense preparation. All seed benchmarks (≤ 16 cores)
    /// and the 64-core bench tier keep their original tables.
    pub const EAGER_THRESHOLD: usize = 64;

    /// The concrete preparation (never `Auto`) for a topology with
    /// `mappable` vertices.
    pub fn resolve(self, mappable: usize) -> TablePrep {
        match self {
            TablePrep::Auto if mappable <= Self::EAGER_THRESHOLD => TablePrep::Eager,
            TablePrep::Auto => TablePrep::Lazy,
            other => other,
        }
    }
}

/// One enumerated route with everything the accumulation loop needs
/// precomputed: the directed edge per path window, the network-link
/// subset (for min-max splitting) and the switch vertices in traversal
/// order (for traffic accumulation and hop counting).
///
/// `PartialEq` compares the full precomputed state — what the table
/// equivalence suite asserts across preparation strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPath {
    edges: Vec<EdgeId>,
    net_edges: Vec<usize>,
    switch_nodes: Vec<NodeId>,
}

impl CachedPath {
    fn build(g: &TopologyGraph, adj: &AdjacencyMatrix, nodes: &[NodeId]) -> Self {
        let edges: Vec<EdgeId> = nodes
            .windows(2)
            .map(|w| {
                adj.edge_between(w[0], w[1])
                    .expect("enumerated paths follow topology edges")
            })
            .collect();
        let net_edges = edges
            .iter()
            .filter(|e| g.edge(**e).is_network_link())
            .map(|e| e.index())
            .collect();
        let switch_nodes = nodes
            .iter()
            .copied()
            .filter(|n| g.node_kind(*n) == NodeKind::Switch)
            .collect();
        CachedPath {
            edges,
            net_edges,
            switch_nodes,
        }
    }
}

/// Shard count of [`LazyPairs`]. Pair indices stripe across shards so
/// concurrent sweep workers touching different pairs rarely contend.
const LAZY_SHARDS: usize = 64;

/// One [`LazyPairs`] shard: pair index → shared memoised value.
// lint:allow(hash-iter): perf-critical point-lookup memo, never iterated so order cannot leak
type LazyShard<T> = RwLock<HashMap<usize, Arc<T>>>;

/// Concurrent memo table for lazily materialised per-pair state: pair
/// index → shared value, sharded under reader-writer locks. Values are
/// pure functions of the pair, so a race at most computes the same
/// value twice and keeps whichever copy was inserted first.
#[derive(Debug)]
struct LazyPairs<T> {
    shards: Box<[LazyShard<T>]>,
}

impl<T> LazyPairs<T> {
    fn new() -> Self {
        LazyPairs {
            shards: (0..LAZY_SHARDS)
                // lint:allow(hash-iter): see LazyShard — keyed lookups only
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn get_or_insert_with(&self, pair: usize, make: impl FnOnce() -> T) -> Arc<T> {
        let shard = &self.shards[pair % LAZY_SHARDS];
        if let Some(hit) = shard.read().unwrap().get(&pair) {
            return hit.clone();
        }
        // Compute outside the write lock: enumeration can be expensive
        // and must not serialise unrelated pairs of the same shard.
        let value = Arc::new(make());
        shard.write().unwrap().entry(pair).or_insert(value).clone()
    }

    /// Pairs materialised so far (diagnostics and tests).
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}

/// One per-pair cache of a [`RouteTable`]: dense and fully enumerated
/// (eager), or memoised on first use (lazy).
#[derive(Debug)]
enum PairStore<T> {
    /// Not prepared for the owning routing function yet.
    Absent,
    Eager(Vec<T>),
    Lazy(LazyPairs<T>),
}

impl<T> PairStore<T> {
    fn ready(&self) -> bool {
        !matches!(self, PairStore::Absent)
    }
}

/// A handle to one pair's cached state: borrowed straight out of the
/// eager dense store, or a shared handle into the lazy memo table.
/// Dereferences to the cached value either way.
#[derive(Debug)]
pub struct PairRef<'a, T>(PairRefInner<'a, T>);

#[derive(Debug)]
enum PairRefInner<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T> std::ops::Deref for PairRef<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            PairRefInner::Borrowed(t) => t,
            PairRefInner::Shared(t) => t,
        }
    }
}

/// All-pairs hop distances of a [`RouteTable`]: a dense BFS matrix, or
/// coordinate arithmetic for topologies with closed-form distances.
#[derive(Debug)]
enum HopStore {
    /// Full-graph BFS hop distances, `m × node_count`, row per
    /// mappable source.
    Dense(Vec<u32>),
    /// No stored state: distances come from
    /// [`closed_form::distance`] on demand.
    Closed,
}

/// Placement-independent routing state of one topology, computed once
/// per [`crate::Mapper::run`] and reusable across runs on the same
/// graph (the Fig. 9 sweeps re-map one graph under four routing
/// functions; `core`'s exploration flow builds one table per library
/// candidate).
///
/// Contents:
///
/// * all-pairs hop distances — one BFS per *source* instead of one per
///   pair, or closed-form coordinate arithmetic (see [`TablePrep::Lazy`]);
/// * a dense `NodeId × NodeId → Option<EdgeId>` adjacency matrix
///   replacing linear `find_edge` scans;
/// * memoized quadrant sets per mappable pair;
/// * enumerated minimum-path / simple-path sets and dimension-ordered
///   routes per pair, filled per routing function by
///   [`RouteTable::prepare`] — all pairs up front under
///   [`TablePrep::Eager`], per pair on first use otherwise.
///
/// The simulator's plan compiler borrows the adjacency matrix and the
/// terminal order ([`RouteTable::mappable_nodes`]); every per-pair store
/// is the mapper's.
#[derive(Debug)]
pub struct RouteTable {
    /// [`TopologyGraph::fingerprint`] of `graph`, kept for
    /// [`RouteTable::matches`].
    fingerprint: u64,
    /// Owned copy of the topology, so lazily materialised pairs can be
    /// computed at query time without threading the graph through
    /// every accessor.
    graph: TopologyGraph,
    /// The resolved preparation strategy (never [`TablePrep::Auto`]).
    prep: TablePrep,
    mappable: Vec<NodeId>,
    /// Node index → dense mappable index (`u32::MAX` = not mappable).
    midx: Vec<u32>,
    adj: AdjacencyMatrix,
    hop: HopStore,
    quadrants: PairStore<Vec<NodeId>>,
    do_paths: PairStore<Option<CachedPath>>,
    sm_paths: PairStore<Vec<CachedPath>>,
    sa_paths: PairStore<Vec<CachedPath>>,
}

impl RouteTable {
    /// Builds the routing-function-independent parts for `g` under
    /// [`TablePrep::Auto`] (see [`RouteTable::with_prep`]).
    pub fn new(g: &TopologyGraph) -> Self {
        Self::with_prep(g, TablePrep::Auto)
    }

    /// Builds the routing-function-independent parts (adjacency matrix
    /// and hop distances) for `g` under the given preparation
    /// strategy. `prep` is [resolved](TablePrep::resolve) against the
    /// topology first; the result is queryable via
    /// [`RouteTable::prep`].
    pub fn with_prep(g: &TopologyGraph, prep: TablePrep) -> Self {
        let mappable = g.mappable_nodes().to_vec();
        let mut midx = vec![u32::MAX; g.node_count()];
        for (i, n) in mappable.iter().enumerate() {
            midx[n.index()] = i as u32;
        }
        let prep = prep.resolve(mappable.len());
        let hop = if prep == TablePrep::Lazy && closed_form::supported(g.kind()) {
            HopStore::Closed
        } else {
            let mut hop = vec![UNREACHABLE_HOPS; mappable.len() * g.node_count()];
            for (i, &src) in mappable.iter().enumerate() {
                let levels = paths::bfs_levels(g, src);
                let row = &mut hop[i * g.node_count()..(i + 1) * g.node_count()];
                for (slot, level) in row.iter_mut().zip(levels) {
                    if level != usize::MAX {
                        *slot = level as u32;
                    }
                }
            }
            HopStore::Dense(hop)
        };
        RouteTable {
            fingerprint: g.fingerprint(),
            graph: g.clone(),
            prep,
            mappable,
            midx,
            adj: g.adjacency_matrix(),
            hop,
            quadrants: PairStore::Absent,
            do_paths: PairStore::Absent,
            sm_paths: PairStore::Absent,
            sa_paths: PairStore::Absent,
        }
    }

    /// The resolved preparation strategy this table was built with
    /// (never [`TablePrep::Auto`]).
    pub fn prep(&self) -> TablePrep {
        self.prep
    }

    /// Raw minimum hop count between mappable `a` and any node `b`,
    /// `UNREACHABLE_HOPS` when unreachable.
    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        match &self.hop {
            HopStore::Dense(hop) => {
                let i = self.midx[a.index()] as usize;
                hop[i * self.graph.node_count() + b.index()]
            }
            HopStore::Closed => closed_form::distance(&self.graph, a, b)
                .expect("closed-form hop store queried for a pair without a closed form"),
        }
    }

    /// Minimum hop count between two mappable vertices, `None` when
    /// the pair is unreachable. Exposed for the table-preparation
    /// equivalence suite.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let h = self.hops(a, b);
        (h != UNREACHABLE_HOPS).then_some(h)
    }

    /// The dense adjacency matrix of the table's graph, identical
    /// across preparation strategies by construction. The simulator's
    /// plan compiler resolves its route windows through it.
    pub fn adjacency(&self) -> &AdjacencyMatrix {
        &self.adj
    }

    /// How many per-pair entries the store for `routing` has
    /// materialised so far — `m²` after an eager prepare, the touched
    /// pair count under lazy preparation. Diagnostics/tests only.
    pub fn materialized_pairs(&self, routing: RoutingFunction) -> usize {
        fn count<T>(store: &PairStore<T>) -> usize {
            match store {
                PairStore::Absent => 0,
                PairStore::Eager(v) => v.len(),
                PairStore::Lazy(l) => l.len(),
            }
        }
        match routing {
            RoutingFunction::DimensionOrdered => count(&self.do_paths),
            RoutingFunction::MinPath => count(&self.quadrants),
            RoutingFunction::SplitMinPaths => count(&self.sm_paths),
            RoutingFunction::SplitAllPaths => count(&self.sa_paths),
        }
    }

    /// The mappable vertices this table indexes pairs over, in the
    /// graph's canonical order (the simulator's terminal order).
    pub fn mappable_nodes(&self) -> &[NodeId] {
        &self.mappable
    }

    /// The cached dimension-ordered route between two mappable
    /// vertices (`None` inside the handle when no such route exists),
    /// materialising the pair first under lazy preparation.
    ///
    /// # Panics
    ///
    /// Panics unless [`RouteTable::prepare`] has run for
    /// [`RoutingFunction::DimensionOrdered`].
    pub fn dimension_ordered_route(&self, a: NodeId, b: NodeId) -> PairRef<'_, Option<CachedPath>> {
        Self::pair_entry(
            &self.do_paths,
            self.pair(a, b),
            "dimension-ordered routes",
            || self.compute_do(a, b),
        )
    }

    /// The memoised quadrant-graph vertex set of a mappable pair, in
    /// ascending node order (MinPath routing's search region;
    /// equivalence-suite probe).
    ///
    /// # Panics
    ///
    /// Panics unless [`RouteTable::prepare`] has run for
    /// [`RoutingFunction::MinPath`] (or `SplitMinPaths`, which
    /// prepares quadrants too).
    pub fn quadrant_pair(&self, a: NodeId, b: NodeId) -> PairRef<'_, Vec<NodeId>> {
        Self::pair_entry(&self.quadrants, self.pair(a, b), "quadrant sets", || {
            self.compute_quadrant(a, b)
        })
    }

    /// The enumerated quadrant-restricted minimum-path set of a
    /// mappable pair ([`RoutingFunction::SplitMinPaths`]'s candidates;
    /// empty = unreachable).
    ///
    /// # Panics
    ///
    /// Panics unless [`RouteTable::prepare`] has run for
    /// [`RoutingFunction::SplitMinPaths`].
    pub fn split_min_paths(&self, a: NodeId, b: NodeId) -> PairRef<'_, Vec<CachedPath>> {
        Self::pair_entry(&self.sm_paths, self.pair(a, b), "split-min paths", || {
            self.compute_split_min(a, b)
        })
    }

    /// The enumerated bounded-detour simple-path set of a mappable
    /// pair ([`RoutingFunction::SplitAllPaths`]'s candidates; empty =
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics unless [`RouteTable::prepare`] has run for
    /// [`RoutingFunction::SplitAllPaths`].
    pub fn split_all_paths(&self, a: NodeId, b: NodeId) -> PairRef<'_, Vec<CachedPath>> {
        Self::pair_entry(&self.sa_paths, self.pair(a, b), "split-all paths", || {
            self.compute_split_all(a, b)
        })
    }

    /// Whether this table was built for `g`: same kind, shape, and
    /// edge list (endpoints and capacities, order-sensitive).
    pub fn matches(&self, g: &TopologyGraph) -> bool {
        self.graph.kind() == g.kind()
            && self.graph.node_count() == g.node_count()
            && self.graph.edge_count() == g.edge_count()
            && self.fingerprint == g.fingerprint()
    }

    /// Whether [`RouteTable::prepare`] has run for `routing`.
    pub fn prepared(&self, routing: RoutingFunction) -> bool {
        match routing {
            RoutingFunction::DimensionOrdered => self.do_paths.ready(),
            RoutingFunction::MinPath => self.quadrants.ready(),
            RoutingFunction::SplitMinPaths => self.sm_paths.ready(),
            RoutingFunction::SplitAllPaths => self.sa_paths.ready(),
        }
    }

    /// Fills (eager) or installs (lazy) the per-pair caches `routing`
    /// needs (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the table was built for a different graph.
    pub fn prepare(&mut self, g: &TopologyGraph, routing: RoutingFunction) {
        assert!(self.matches(g), "route table built for a different graph");
        if self.prepared(routing) {
            return;
        }
        // Split-min paths are enumerated inside each pair's quadrant.
        if matches!(
            routing,
            RoutingFunction::MinPath | RoutingFunction::SplitMinPaths
        ) && !self.quadrants.ready()
        {
            self.quadrants = self.pair_store(|a, b| self.compute_quadrant(a, b));
        }
        match routing {
            RoutingFunction::MinPath => {}
            RoutingFunction::DimensionOrdered => {
                self.do_paths = self.pair_store(|a, b| self.compute_do(a, b));
            }
            RoutingFunction::SplitMinPaths => {
                self.sm_paths = self.pair_store(|a, b| self.compute_split_min(a, b));
            }
            RoutingFunction::SplitAllPaths => {
                self.sa_paths = self.pair_store(|a, b| self.compute_split_all(a, b));
            }
        }
    }

    /// One per-pair store: `compute` run over every ordered pair of
    /// mappable vertices up front under [`TablePrep::Eager`] (the
    /// diagonal holds its empty value for `a == b`), otherwise an empty
    /// memo the pair accessors fill on first use with the same
    /// computation.
    fn pair_store<T>(&self, compute: impl Fn(NodeId, NodeId) -> T) -> PairStore<T> {
        if self.prep != TablePrep::Eager {
            return PairStore::Lazy(LazyPairs::new());
        }
        let (nodes, m) = (&self.mappable, self.mappable.len());
        PairStore::Eager(
            (0..m * m)
                .map(|pair| compute(nodes[pair / m], nodes[pair % m]))
                .collect(),
        )
    }

    fn pair(&self, a: NodeId, b: NodeId) -> usize {
        let (i, j) = (self.midx[a.index()], self.midx[b.index()]);
        debug_assert!(i != u32::MAX && j != u32::MAX, "pair of mappable nodes");
        i as usize * self.mappable.len() + j as usize
    }

    /// Looks a pair up in `store`, materialising it with `make` under
    /// lazy preparation.
    fn pair_entry<'s, T>(
        store: &'s PairStore<T>,
        pair: usize,
        what: &str,
        make: impl FnOnce() -> T,
    ) -> PairRef<'s, T> {
        match store {
            PairStore::Absent => panic!("{what} not prepared"),
            PairStore::Eager(v) => PairRef(PairRefInner::Borrowed(&v[pair])),
            PairStore::Lazy(l) => PairRef(PairRefInner::Shared(l.get_or_insert_with(pair, make))),
        }
    }

    /// Hop distance between two mappable nodes as the greedy placement
    /// sees it (the reference used
    /// `hop_distance(..).unwrap_or(usize::MAX / 2) as f64`).
    pub(crate) fn greedy_distance(&self, a: NodeId, b: NodeId) -> f64 {
        let h = self.hops(a, b);
        if h == UNREACHABLE_HOPS {
            (usize::MAX / 2) as f64
        } else {
            h as f64
        }
    }

    /// One pair's quadrant set — the per-pair computation both the
    /// eager fill and the lazy accessors run, so every strategy runs
    /// identical per-pair code.
    fn compute_quadrant(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        if a == b {
            return Vec::new();
        }
        let mut q: Vec<NodeId> = quadrant::quadrant_set(&self.graph, a, b)
            .into_iter()
            .collect();
        q.sort_unstable();
        q
    }

    fn compute_do(&self, a: NodeId, b: NodeId) -> Option<CachedPath> {
        if a == b {
            return None;
        }
        dimension_order::route(&self.graph, a, b)
            .ok()
            .map(|p| CachedPath::build(&self.graph, &self.adj, &p))
    }

    fn compute_split_min(&self, a: NodeId, b: NodeId) -> Vec<CachedPath> {
        if a == b {
            return Vec::new();
        }
        let quad = self.quadrant_pair(a, b);
        let q: AllowedSet = quad.iter().copied().collect();
        paths::all_shortest_paths(&self.graph, a, b, Some(&q), MAX_SPLIT_PATHS)
            .into_iter()
            .map(|nodes| CachedPath::build(&self.graph, &self.adj, &nodes))
            .collect()
    }

    fn compute_split_all(&self, a: NodeId, b: NodeId) -> Vec<CachedPath> {
        if a == b {
            return Vec::new();
        }
        // "All paths" searches the whole NoC graph; the slack and cap
        // mirror route_commodity exactly. Unreachable pairs keep an
        // empty candidate list (= unroutable).
        let min_hops = self.hops(a, b);
        if min_hops == UNREACHABLE_HOPS {
            return Vec::new();
        }
        let min_len = min_hops as usize + 1;
        paths::all_simple_paths(
            &self.graph,
            a,
            b,
            None,
            min_len + DETOUR_SLACK,
            MAX_SPLIT_PATHS,
        )
        .into_iter()
        .map(|nodes| CachedPath::build(&self.graph, &self.adj, &nodes))
        .collect()
    }
}

/// Reusable per-worker buffers for one candidate evaluation. After the
/// first use every steady-state evaluation routes its commodities
/// without touching the allocator. A candidate that reaches its
/// floorplan allocates only block-count-sized vectors: no names, no
/// map, nothing sized by a grid coordinate.
#[derive(Debug)]
pub struct EvalScratch {
    link_loads: Vec<f64>,
    switch_traffic: Vec<f64>,
    /// Working copy of the loads for min-max chunk assignment.
    local: Vec<f64>,
    chunks: Vec<usize>,
    /// MinPath admission: a node is in the commodity being routed's
    /// quadrant when its entry equals `quad_stamp`, which each
    /// commodity advances, so nothing is cleared between commodities.
    quad_mask: Vec<u32>,
    quad_stamp: u32,
    dijkstra: DijkstraScratch,
    path: Vec<NodeId>,
    /// MinPath commodities whose level search was not level-ordered
    /// and so ran `paths::dijkstra_into` (see
    /// [`EvalScratch::level_fallbacks`]).
    level_fallbacks: u64,
    /// Swap-delta working state (delta sweep only): sparse per-edge /
    /// per-node deltas with their touched-index lists, the incident
    /// commodity indices of the candidate pair, candidate link lengths
    /// (filled only for the MinPower bound), and the optimistic suffix
    /// masses for the early-exit bound.
    delta_loads: Vec<f64>,
    touched_edges: Vec<usize>,
    delta_traffic: Vec<f64>,
    touched_nodes: Vec<usize>,
    incident: Vec<u32>,
    edge_len: Vec<f64>,
    min_suffix: Vec<f64>,
    rate_suffix: Vec<f64>,
    len_suffix: Vec<f64>,
    /// Per-node minimum outgoing / incoming powered network-link
    /// length of the current candidate floorplan (MinPower floor).
    out_min: Vec<f64>,
    in_min: Vec<f64>,
    /// Switch-cut pre-bound: per-node `[in, out]` demand deltas of the
    /// candidate swap, with the nodes they touch in `touched_nodes`.
    cut_delta: Vec<[f64; 2]>,
}

impl EvalScratch {
    fn new(node_count: usize, edge_count: usize) -> Self {
        EvalScratch {
            link_loads: vec![0.0; edge_count],
            switch_traffic: vec![0.0; node_count],
            local: vec![0.0; edge_count],
            chunks: Vec::new(),
            quad_mask: vec![0; node_count],
            quad_stamp: 0,
            dijkstra: DijkstraScratch::new(node_count),
            path: Vec::new(),
            level_fallbacks: 0,
            delta_loads: vec![0.0; edge_count],
            touched_edges: Vec::new(),
            delta_traffic: vec![0.0; node_count],
            touched_nodes: Vec::new(),
            incident: Vec::new(),
            edge_len: vec![0.0; edge_count],
            min_suffix: Vec::new(),
            rate_suffix: Vec::new(),
            len_suffix: Vec::new(),
            out_min: vec![0.0; node_count],
            in_min: vec![0.0; node_count],
            cut_delta: vec![[0.0; 2]; node_count],
        }
    }

    /// How many MinPath commodities this scratch routed with the
    /// heap-based `paths::dijkstra_into` because their level search
    /// (`paths::level_search_into`) met a level that was not
    /// level-ordered: a load of about `1e9` MB/s or more on the way.
    /// Realistic traffic keeps it at 0, which is what makes MinPath
    /// routing heap-free.
    pub fn level_fallbacks(&self) -> u64 {
        self.level_fallbacks
    }
}

/// The caching evaluation engine shared by the mapper's swap search and
/// the exploration flow. Holds the [`RouteTable`] plus every
/// placement-independent quantity of the cost model: sorted
/// commodities, per-switch areas and bit energies, the constant design
/// area and channel counts.
#[derive(Debug)]
pub struct EvalEngine<'a> {
    g: &'a TopologyGraph,
    app: &'a CoreGraph,
    table: &'a RouteTable,
    routing: RoutingFunction,
    constraints: Constraints,
    commodities: Vec<Commodity>,
    /// Node-indexed switch block areas (zero for non-switches).
    switch_areas: Vec<f64>,
    /// Node-indexed bit-traversal energies (J/bit).
    switch_energy: Vec<f64>,
    switch_area_total: f64,
    design_area: f64,
    /// Outgoing edges with their heads, flat (the MinPath level
    /// search).
    arcs: paths::OutArcs,
    /// Edge-indexed bandwidth capacities (min-max splitting hot path).
    edge_capacity: Vec<f64>,
    /// Edge-indexed "is a network link" flags (bound tracking).
    net_edge: Vec<bool>,
    /// Core-indexed lists of incident commodity indices (into
    /// `commodities`) — the commodities a swap of that core re-routes.
    core_commodities: Vec<Vec<u32>>,
    /// Node-indexed switch power rate in mW per MB/s of traffic
    /// (`switch_power_from_energy(energy, 1.0)`; zero for non-switches).
    switch_rate: Vec<f64>,
    /// Lazily built per-source rows of the minimum switch-power rate
    /// any *walk* between two mappable vertices can accrue
    /// (node-weighted Dijkstra over the switch rates; see
    /// [`EvalEngine::rate_walk_row`]). Row-lazy so MinDelay searches
    /// never build any of it.
    rate_walk: Vec<OnceLock<Box<[f64]>>>,
    /// Node index → index of its ingress switch (`u32::MAX` =
    /// unknown), cached for the length-aware MinPower floor: the first
    /// network link of any route departs the source's ingress switch.
    ingress: Vec<u32>,
    /// Node index → index of its egress switch (`u32::MAX` = unknown):
    /// the last network link of any route enters the destination's
    /// egress switch.
    egress: Vec<u32>,
    /// Node-indexed `[in, out]` network-link cuts (switch-cut
    /// pre-bound).
    cuts: Vec<[Cut; 2]>,
    /// Link power per MB/s per mm of length.
    link_rate_mm: f64,
    /// Total commodity bandwidth (the avg-hops denominator).
    total_bw_all: f64,
    switch_count: usize,
    link_count: usize,
    lib: AreaPowerLibrary,
}

impl<'a> EvalEngine<'a> {
    /// Creates an engine for `app` on `g`. `table` must already be
    /// [prepared](RouteTable::prepare) for `routing`; `lib` fills the
    /// per-switch area and energy arrays and is copied for link power.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not match `g` or is not prepared for
    /// `routing`.
    pub fn new(
        g: &'a TopologyGraph,
        app: &'a CoreGraph,
        table: &'a RouteTable,
        routing: RoutingFunction,
        lib: &AreaPowerLibrary,
        constraints: &Constraints,
    ) -> Self {
        assert!(table.matches(g), "route table built for a different graph");
        assert!(
            table.prepared(routing),
            "route table not prepared for {routing}"
        );
        let mut switch_areas = vec![0.0; g.node_count()];
        let mut switch_energy = vec![0.0; g.node_count()];
        let mut switch_area_total = 0.0;
        for (s, inp, outp) in g.switch_radices() {
            let cfg = SwitchConfig::new(inp, outp);
            let area = lib.area(cfg);
            switch_areas[s.index()] = area;
            switch_energy[s.index()] = lib.energy_per_bit(cfg);
            switch_area_total += area;
        }
        let design_area = (switch_area_total + app.total_core_area()) / constraints.utilization;
        let edge_capacity: Vec<f64> = g.edges().map(|(_, e)| e.capacity).collect();
        let net_edge: Vec<bool> = g.edges().map(|(_, e)| e.is_network_link()).collect();
        let mut cuts = vec![[Cut::default(); 2]; g.node_count()];
        for (_, e) in g.edges().filter(|(_, e)| e.is_network_link()) {
            for (node, dir) in [(e.dst, CUT_IN), (e.src, CUT_OUT)] {
                let cut = &mut cuts[node.index()][dir];
                cut.links += 1.0;
                cut.max_capacity = cut.max_capacity.max(e.capacity);
            }
        }
        let commodities = app.commodities();
        let mut core_commodities = vec![Vec::new(); app.core_count()];
        let mut total_bw_all = 0.0f64;
        for (i, c) in commodities.iter().enumerate() {
            core_commodities[c.src.index()].push(i as u32);
            core_commodities[c.dst.index()].push(i as u32);
            total_bw_all += c.bandwidth;
        }
        let switch_rate: Vec<f64> = switch_energy
            .iter()
            .map(|&e| switch_power_from_energy(e, 1.0))
            .collect();
        let mut rate_walk = Vec::new();
        rate_walk.resize_with(table.mappable_nodes().len(), OnceLock::new);
        let mut ingress = vec![u32::MAX; g.node_count()];
        let mut egress = vec![u32::MAX; g.node_count()];
        for &n in table.mappable_nodes() {
            if let Ok(s) = g.ingress_switch(n) {
                ingress[n.index()] = s.index() as u32;
            }
            if let Ok(s) = g.egress_switch(n) {
                egress[n.index()] = s.index() as u32;
            }
        }
        EvalEngine {
            g,
            app,
            table,
            routing,
            constraints: *constraints,
            commodities,
            switch_areas,
            switch_energy,
            switch_area_total,
            design_area,
            arcs: paths::OutArcs::new(g),
            edge_capacity,
            net_edge,
            core_commodities,
            switch_rate,
            rate_walk,
            ingress,
            egress,
            cuts,
            link_rate_mm: lib.link_power(1.0, 1.0),
            total_bw_all,
            switch_count: g.switch_count(),
            link_count: g.network_channel_count() + g.attach_channel_count(),
            lib: *lib,
        }
    }

    /// Fresh scratch buffers sized for this engine's graph.
    pub fn new_scratch(&self) -> EvalScratch {
        EvalScratch::new(self.g.node_count(), self.g.edge_count())
    }

    /// The report's area/aspect feasibility verdict for a floorplan
    /// with `chip_aspect` — one definition serving both
    /// [`EvalEngine::assemble_report`]'s `area_ok` and the bounded
    /// sweep's certain-infeasibility exit.
    fn area_feasible(&self, chip_aspect: f64) -> bool {
        self.constraints
            .max_area_mm2
            .is_none_or(|max| self.design_area <= max)
            && chip_aspect >= self.constraints.min_chip_aspect
            && chip_aspect <= self.constraints.max_chip_aspect
    }

    /// Evaluates `placement` and returns the cost report — bit-identical
    /// to `evaluate(..)?.report`, at a fraction of the cost and (outside
    /// the floorplan solve) without heap allocation.
    ///
    /// # Errors
    ///
    /// Exactly the reference's: [`MappingError::Unroutable`] when a
    /// commodity has no route, [`MappingError::Floorplan`] when the
    /// layout cannot be solved.
    pub fn evaluate_report(
        &self,
        placement: &Placement,
        scratch: &mut EvalScratch,
    ) -> Result<CostReport, MappingError> {
        scratch.link_loads.fill(0.0);
        scratch.switch_traffic.fill(0.0);

        let mut totals = RouteTotals::default();
        for c in &self.commodities {
            let src = placement.node_of(c.src);
            let dst = placement.node_of(c.dst);
            let hops = self
                .route_cached(src, dst, c.bandwidth, scratch, None)
                .ok_or(MappingError::Unroutable {
                    src: c.src.index(),
                    dst: c.dst.index(),
                })?;
            totals.add(c.bandwidth, hops);
        }

        let (layout, floorplan) = self.solve_floorplan(placement)?;
        Ok(self.assemble_report(placement, scratch, &layout, &floorplan, totals))
    }

    /// Fig. 5 step 7: lays out `placement`'s blocks and solves their
    /// floorplan, timed by the [`crate::timing`] hook.
    fn solve_floorplan(
        &self,
        placement: &Placement,
    ) -> Result<(LayoutBlocks, Floorplan), MappingError> {
        let layout = layout_blocks(self.g, self.app, placement, &self.switch_areas);
        let fp_timer = crate::timing::floorplan_start();
        let floorplan = layout.placement.floorplan()?;
        crate::timing::floorplan_finish(fp_timer);
        Ok((layout, floorplan))
    }

    /// Fig. 5 steps 7–8 on accumulated loads: power, feasibility and
    /// the metric report. Shared verbatim by [`EvalEngine::
    /// evaluate_report`] and the bounded sweep evaluation, so a
    /// candidate that survives its bounds produces a report
    /// bit-identical to the unbounded path's.
    fn assemble_report(
        &self,
        placement: &Placement,
        scratch: &EvalScratch,
        layout: &LayoutBlocks,
        floorplan: &Floorplan,
        totals: RouteTotals,
    ) -> CostReport {
        let g = self.g;
        let mut switch_power_mw = 0.0;
        for s in g.switches() {
            let traffic = scratch.switch_traffic[s.index()];
            if traffic > 0.0 {
                switch_power_mw += switch_power_from_energy(self.switch_energy[s.index()], traffic);
            }
        }

        let mut link_power_mw = 0.0;
        let mut length_sum = 0.0;
        let mut loaded_links = 0usize;
        for (eid, edge) in g.edges() {
            let load = scratch.link_loads[eid.index()];
            if load <= 0.0 || !edge.is_network_link() {
                continue;
            }
            let (Some(a), Some(b)) = (
                layout.block_of_node(placement, edge.src),
                layout.block_of_node(placement, edge.dst),
            ) else {
                continue;
            };
            let length = floorplan.link_length(a, b);
            link_power_mw += self.lib.link_power(load, length);
            length_sum += length;
            loaded_links += 1;
        }

        let bandwidth_ok = g.edges().all(|(eid, edge)| {
            !edge.is_network_link()
                || scratch.link_loads[eid.index()] <= edge.capacity * BANDWIDTH_TOLERANCE
        });
        let chip_aspect = floorplan.chip_aspect();
        let area_ok = self.area_feasible(chip_aspect);

        let avg_hops = if totals.total_bw > 0.0 {
            totals.bw_hops / totals.total_bw
        } else {
            0.0
        };
        let mean_hops = if self.commodities.is_empty() {
            0.0
        } else {
            totals.hops_sum / self.commodities.len() as f64
        };
        let max_link_load = g
            .edges()
            .filter(|(_, e)| e.is_network_link())
            .map(|(eid, _)| scratch.link_loads[eid.index()])
            .fold(0.0, f64::max);

        CostReport {
            avg_hops,
            mean_hops,
            design_area: self.design_area,
            floorplan_area: floorplan.chip_area(),
            switch_area: self.switch_area_total,
            power_mw: switch_power_mw + link_power_mw,
            switch_power_mw,
            link_power_mw,
            max_link_load,
            avg_link_length_mm: if loaded_links > 0 {
                length_sum / loaded_links as f64
            } else {
                0.0
            },
            chip_aspect,
            bandwidth_ok,
            area_ok,
            bandwidth_enforced: self.constraints.enforce_bandwidth,
            switch_count: self.switch_count,
            link_count: self.link_count,
        }
    }

    /// Routes one commodity using the cached per-pair state,
    /// accumulating loads and switch traffic into `scratch` and, in a
    /// bounded evaluation, its partial cost into `track` (see
    /// [`BoundTracker`]). Returns the commodity's fraction-weighted
    /// switch hops, or `None` when no route exists (the reference's
    /// `route_commodity` `None`).
    fn route_cached(
        &self,
        src: NodeId,
        dst: NodeId,
        bandwidth: f64,
        scratch: &mut EvalScratch,
        track: Option<&mut BoundTracker>,
    ) -> Option<f64> {
        let g = self.g;
        match self.routing {
            RoutingFunction::DimensionOrdered => {
                let entry = self.table.dimension_ordered_route(src, dst);
                let cached = entry.as_ref()?;
                Some(self.accumulate_cached(cached, 1.0, bandwidth, scratch, track))
            }
            RoutingFunction::MinPath => {
                let quad = self.table.quadrant_pair(src, dst);
                let EvalScratch {
                    link_loads,
                    quad_mask,
                    quad_stamp,
                    dijkstra,
                    path,
                    level_fallbacks,
                    ..
                } = scratch;
                *quad_stamp = quad_stamp.wrapping_add(1);
                if *quad_stamp == 0 {
                    quad_mask.fill(0);
                    *quad_stamp = 1;
                }
                let stamp = *quad_stamp;
                for n in quad.iter().chain([&src, &dst]) {
                    quad_mask[n.index()] = stamp;
                }
                let admit = |n: NodeId| quad_mask[n.index()] == stamp;
                let cost = |e: EdgeId| HOP_COST + link_loads[e.index()];
                // Loads are sums of non-negative bandwidths, so every
                // edge costs at least `HOP_COST`.
                let found = match paths::level_search_into(
                    &self.arcs, src, dst, admit, cost, HOP_COST, dijkstra, path,
                ) {
                    Ok(found) => found,
                    Err(NotLevelOrdered) => {
                        *level_fallbacks += 1;
                        paths::dijkstra_into(g, src, dst, admit, cost, dijkstra, path)
                    }
                };
                found?;
                Some(self.accumulate_dynamic(bandwidth, scratch, track))
            }
            RoutingFunction::SplitMinPaths => {
                let set = self.table.split_min_paths(src, dst);
                self.accumulate_split(&set, bandwidth, scratch, track)
            }
            RoutingFunction::SplitAllPaths => {
                let set = self.table.split_all_paths(src, dst);
                self.accumulate_split(&set, bandwidth, scratch, track)
            }
        }
    }

    /// Min-max water filling over cached candidates — the same chunk
    /// assignment as the reference's `min_max_split`, including its
    /// single-candidate shortcut.
    fn accumulate_split(
        &self,
        candidates: &[CachedPath],
        bandwidth: f64,
        scratch: &mut EvalScratch,
        mut track: Option<&mut BoundTracker>,
    ) -> Option<f64> {
        match candidates {
            [] => None,
            [only] => Some(self.accumulate_cached(only, 1.0, bandwidth, scratch, track)),
            _ => {
                {
                    let EvalScratch {
                        local,
                        chunks,
                        link_loads,
                        ..
                    } = &mut *scratch;
                    // The chunk assignment only ever touches candidate
                    // network edges, so only those entries of the
                    // working copy need refreshing (the reference
                    // copies the whole load vector; same values where
                    // it matters).
                    for cand in candidates {
                        for &e in &cand.net_edges {
                            local[e] = link_loads[e];
                        }
                    }
                    assign_chunks(
                        |e| self.edge_capacity[e],
                        candidates.len(),
                        |i| candidates[i].net_edges.as_slice(),
                        local,
                        bandwidth,
                        chunks,
                    );
                }
                let mut hops = 0.0;
                for (i, cand) in candidates.iter().enumerate() {
                    let n = scratch.chunks[i];
                    if n > 0 {
                        let fraction = n as f64 / SPLIT_CHUNKS as f64;
                        let track = track.as_deref_mut();
                        hops += self.accumulate_cached(cand, fraction, bandwidth, scratch, track);
                    }
                }
                Some(hops)
            }
        }
    }

    /// Adds one cached path's flow onto the load and switch-traffic
    /// accumulators, mirroring the reference's per-path loop order.
    fn accumulate_cached(
        &self,
        cached: &CachedPath,
        fraction: f64,
        bandwidth: f64,
        scratch: &mut EvalScratch,
        mut track: Option<&mut BoundTracker>,
    ) -> f64 {
        let flow = bandwidth * fraction;
        let EvalScratch {
            link_loads,
            switch_traffic,
            edge_len,
            ..
        } = scratch;
        for e in &cached.edges {
            self.land_on_edge(e.index(), flow, link_loads, edge_len, track.as_deref_mut());
        }
        for n in &cached.switch_nodes {
            switch_traffic[n.index()] += flow;
            if let Some(track) = track.as_deref_mut() {
                track.switch_power += flow * self.switch_rate[n.index()];
            }
        }
        fraction * cached.switch_nodes.len() as f64
    }

    /// Accumulates `flow`, a whole commodity, along the MinPath route
    /// held in `scratch.path`, as [`EvalEngine::accumulate_cached`] does
    /// along a cached one.
    fn accumulate_dynamic(
        &self,
        flow: f64,
        scratch: &mut EvalScratch,
        mut track: Option<&mut BoundTracker>,
    ) -> f64 {
        let EvalScratch {
            link_loads,
            switch_traffic,
            edge_len,
            path,
            ..
        } = scratch;
        for w in path.windows(2) {
            let e = self
                .table
                .adj
                .edge_between(w[0], w[1])
                .expect("routed paths follow topology edges");
            self.land_on_edge(e.index(), flow, link_loads, edge_len, track.as_deref_mut());
        }
        let mut switch_hops = 0usize;
        for n in path.iter() {
            if self.g.node_kind(*n) == NodeKind::Switch {
                switch_traffic[n.index()] += flow;
                if let Some(track) = track.as_deref_mut() {
                    track.switch_power += flow * self.switch_rate[n.index()];
                }
                switch_hops += 1;
            }
        }
        switch_hops as f64
    }

    /// Adds `flow` onto edge `edge`'s load, then folds the load it landed
    /// on into a bounded evaluation's tracker. Link power is tracked
    /// only while the power bound is live: only then does `edge_len`
    /// hold this candidate's link lengths. Always inlined: it runs for
    /// every edge of every routed path, and left a call it cost
    /// synth-scale about 2 % of `wall_s`.
    #[inline(always)]
    fn land_on_edge(
        &self,
        edge: usize,
        flow: f64,
        link_loads: &mut [f64],
        edge_len: &[f64],
        track: Option<&mut BoundTracker>,
    ) {
        link_loads[edge] += flow;
        let Some(track) = track else { return };
        if self.net_edge[edge] {
            let load = link_loads[edge];
            if load > track.max_load {
                track.max_load = load;
            }
            track.over |= load > self.edge_capacity[edge] * BANDWIDTH_TOLERANCE;
        }
        if let Some(link_power) = &mut track.link_power {
            *link_power += flow * self.link_rate_mm * edge_len[edge];
        }
    }

    /// The bandwidth-independent optimistic hop mass of a mappable
    /// pair: the minimum switch-hop count of any route between the
    /// vertices (any routing function's path crosses at least that
    /// many switches).
    ///
    /// `None` marks an unreachable pair — every routing function errors
    /// on it. The raw hop value uses saturating arithmetic and widens
    /// to `f64` before any summation, so the [`UNREACHABLE_HOPS`]
    /// sentinel can never wrap into a small, attractive-looking cost.
    fn pair_min_switches(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let h = self.table.hops(a, b);
        if h == UNREACHABLE_HOPS {
            return None;
        }
        // A minimum path has h+1 vertices; every intermediate is a
        // switch (core ports are degree-1 leaves), and each endpoint
        // counts iff it is itself a switch (direct topologies map cores
        // onto switch vertices, indirect ones onto ports).
        let non_switch_ends = (self.g.node_kind(a) != NodeKind::Switch) as u32
            + (self.g.node_kind(b) != NodeKind::Switch) as u32;
        Some(h.saturating_add(1).saturating_sub(non_switch_ends) as f64)
    }

    /// A lower bound on the switch-power rate any route of a mappable
    /// pair can accrue, from the per-source rate-walk row (built on
    /// first touch). Only the MinPower bound consumes this; MinDelay
    /// searches never pay for a single rate Dijkstra.
    fn pair_rate(&self, a: NodeId, b: NodeId) -> f64 {
        let si = self.table.midx[a.index()] as usize;
        let di = self.table.midx[b.index()] as usize;
        self.rate_walk_row(si)[di]
    }

    /// One source's minimum switch-power rate row (built on first
    /// use): entry `di` is the smallest Σ of node switch rates any
    /// *walk* from mappable source `si` to mappable destination `di`
    /// can accrue — a node-weighted Dijkstra over the switch rates.
    /// Every realised route is a walk, so this is a sound
    /// per-commodity power floor for every routing function — and on
    /// min-hop-routed functions it is nearly exact. Non-switch
    /// vertices weigh zero, so the value matches the report's
    /// switch-power accounting for both direct topologies (cores on
    /// switch vertices) and indirect ones (cores on ports).
    fn rate_walk_row(&self, si: usize) -> &[f64] {
        self.rate_walk[si].get_or_init(|| {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let g = self.g;
            let mappable = self.table.mappable_nodes();
            let s = mappable[si];
            let mut dist = vec![f64::INFINITY; g.node_count()];
            let mut heap: BinaryHeap<Reverse<(TotalF64, usize)>> = BinaryHeap::new();
            dist[s.index()] = self.switch_rate[s.index()];
            heap.push(Reverse((TotalF64(dist[s.index()]), s.index())));
            while let Some(Reverse((TotalF64(d), u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for v in g.successors(NodeId(u)) {
                    let next = d + self.switch_rate[v.index()];
                    if next < dist[v.index()] {
                        dist[v.index()] = next;
                        heap.push(Reverse((TotalF64(next), v.index())));
                    }
                }
            }
            mappable.iter().map(|d| dist[d.index()]).collect()
        })
    }

    /// Builds the persistent base-placement state one delta-sweep pass
    /// works against: link-load and switch-traffic accumulators, the
    /// base switch power, the bandwidth-weighted hop mass, the
    /// optimistic mass totals the pre-bound differentiates, the
    /// per-switch cut demands and, under MinPath, every commodity's
    /// route. `None` if the placement is unroutable (its report could
    /// then not exist).
    fn sweep_base(
        &self,
        placement: &Placement,
        objective: Objective,
        scratch: &mut EvalScratch,
    ) -> Option<SweepBase> {
        scratch.link_loads.fill(0.0);
        scratch.switch_traffic.fill(0.0);
        let mut bw_hops = 0.0f64;
        let mut min_mass = 0.0f64;
        let mut rate_mass = 0.0f64;
        let mut routes = Vec::new();
        let mut route_ends = Vec::new();
        let mut cut_demand = vec![[0.0f64; 2]; self.g.node_count()];
        for c in &self.commodities {
            let src = placement.node_of(c.src);
            let dst = placement.node_of(c.dst);
            let hops = self.route_cached(src, dst, c.bandwidth, scratch, None)?;
            if self.routing == RoutingFunction::MinPath {
                routes.extend_from_slice(&scratch.path);
                route_ends.push(routes.len());
            }
            if let Some(ends) = self.cut_ends(src, dst) {
                for dir in [CUT_IN, CUT_OUT] {
                    cut_demand[ends[dir]][dir] += c.bandwidth;
                }
            }
            bw_hops += c.bandwidth * hops;
            let m = self.pair_min_switches(src, dst)?;
            min_mass += c.bandwidth * m;
            // Only the MinPower pre-bound reads the rate mass; skipping
            // it here keeps MinDelay passes free of rate Dijkstras.
            if objective == Objective::MinPower {
                rate_mass += c.bandwidth * self.pair_rate(src, dst);
            }
        }
        let mut switch_power = 0.0;
        for s in self.g.switches() {
            let traffic = scratch.switch_traffic[s.index()];
            if traffic > 0.0 {
                switch_power += switch_power_from_energy(self.switch_energy[s.index()], traffic);
            }
        }
        Some(SweepBase {
            bw_hops,
            min_mass,
            rate_mass,
            switch_power,
            link_loads: scratch.link_loads.clone(),
            routes,
            route_ends,
            cut_demand,
        })
    }

    /// The switches a commodity from `src` to `dst` must enter and
    /// leave over network links, `[egress, ingress]` (indexed like
    /// [`CUT_IN`] / [`CUT_OUT`]); `None` when one switch serves both
    /// ends, so the commodity may cross no network link at all.
    fn cut_ends(&self, src: NodeId, dst: NodeId) -> Option<[usize; 2]> {
        let (ingress, egress) = (self.ingress[src.index()], self.egress[dst.index()]);
        (ingress != egress && ingress != u32::MAX && egress != u32::MAX)
            .then_some([egress as usize, ingress as usize])
    }

    /// How many `(switch, direction)` cuts of the pass base already
    /// fire against `inc` (zero when bandwidth is not enforced): a swap
    /// that leaves one of them untouched keeps it firing.
    fn base_cut_hot(&self, base: &SweepBase, inc: &Incumbent) -> usize {
        if !self.constraints.enforce_bandwidth {
            return 0;
        }
        let floor = inc.cut_floor();
        self.cuts
            .iter()
            .zip(&base.cut_demand)
            .map(|(cuts, demand)| {
                [CUT_IN, CUT_OUT]
                    .into_iter()
                    .filter(|&dir| cuts[dir].fires(demand[dir], floor))
                    .count()
            })
            .sum()
    }

    /// Fills `scratch.incident` with the commodities a swap of the
    /// vertices `a` and `b` of `local` re-routes: everything incident
    /// to either occupant, a commodity between them once. `false` when
    /// both vertices are empty (the swap is skipped).
    fn collect_incident(
        &self,
        local: &Placement,
        a: NodeId,
        b: NodeId,
        scratch: &mut EvalScratch,
    ) -> bool {
        let u = local.core_at(a);
        let v = local.core_at(b);
        scratch.incident.clear();
        if let Some(u) = u {
            scratch
                .incident
                .extend_from_slice(&self.core_commodities[u.index()]);
        }
        if let Some(v) = v {
            for &ci in &self.core_commodities[v.index()] {
                let c = &self.commodities[ci as usize];
                if Some(c.src) == u || Some(c.dst) == u {
                    continue;
                }
                scratch.incident.push(ci);
            }
        }
        u.is_some() || v.is_some()
    }

    /// The switch-cut pre-bound of the swap of `a` and `b` (the
    /// commodities in `scratch.incident`): whether some switch's cut
    /// demand under the swapped placement certainly overloads one of
    /// its links, and, against an infeasible incumbent, clearly exceeds
    /// the incumbent's max load. The base demands are updated by the
    /// incident commodities only; untouched cuts fire as counted in
    /// `ctx.cut_hot`. Always `false` when bandwidth is not enforced.
    fn switch_cut_prunes(
        &self,
        local: &Placement,
        a: NodeId,
        b: NodeId,
        ctx: &PassCtx<'_>,
        scratch: &mut EvalScratch,
    ) -> bool {
        if !self.constraints.enforce_bandwidth {
            return false;
        }
        let PassCtx { base, inc, .. } = *ctx;
        let EvalScratch {
            incident,
            touched_nodes,
            cut_delta,
            ..
        } = scratch;
        debug_assert!(touched_nodes.is_empty());
        let mut moved_bw = 0.0f64;
        for &ci in incident.iter() {
            let c = &self.commodities[ci as usize];
            let (os, od) = (local.node_of(c.src), local.node_of(c.dst));
            let old = self.cut_ends(os, od);
            let new = self.cut_ends(swapped(a, b, os), swapped(a, b, od));
            moved_bw += c.bandwidth;
            for dir in [CUT_IN, CUT_OUT] {
                let (from, to) = (old.map(|e| e[dir]), new.map(|e| e[dir]));
                if from == to {
                    continue;
                }
                if let Some(s) = from {
                    cut_delta[s][dir] -= c.bandwidth;
                    touched_nodes.push(s);
                }
                if let Some(s) = to {
                    cut_delta[s][dir] += c.bandwidth;
                    touched_nodes.push(s);
                }
            }
        }
        touched_nodes.sort_unstable();
        touched_nodes.dedup();
        let floor = inc.cut_floor();
        let mut touched_hot = 0usize;
        let mut fires = false;
        for &s in touched_nodes.iter() {
            for dir in [CUT_IN, CUT_OUT] {
                let delta = std::mem::take(&mut cut_delta[s][dir]);
                let (cut, demand) = (self.cuts[s][dir], base.cut_demand[s][dir]);
                touched_hot += cut.fires(demand, floor) as usize;
                // The base demand sums up to n commodities and the delta
                // up to n more, and the delta may cancel most of the
                // base: bound the rounding by the magnitudes summed.
                let drift =
                    (self.commodities.len() + 1) as f64 * f64::EPSILON * (demand + moved_bw);
                fires |= cut.fires(demand + delta - drift, floor);
            }
        }
        touched_nodes.clear();
        fires || ctx.cut_hot > touched_hot
    }

    /// The delta scorer: scores one candidate swap against the pass
    /// incumbent — pre-bound, then (for dimension-ordered routing) the
    /// exact incremental delta, then the switch-cut pre-bound, then,
    /// only for survivors, the bounded full evaluation, which reuses the
    /// base's routes up to the swap's first incident commodity. `None`
    /// when the swap is skipped, pruned or errors.
    fn score_swap(
        &self,
        local: &mut Placement,
        a: NodeId,
        b: NodeId,
        ctx: &PassCtx<'_>,
        scratch: &mut EvalScratch,
    ) -> Option<CostReport> {
        let PassCtx {
            base,
            inc,
            objective,
            ..
        } = *ctx;
        if !self.collect_incident(local, a, b, scratch) {
            return None;
        }

        // Pre-bound: subtract the incident commodities' optimistic
        // masses under the base endpoints, re-add them under the
        // swapped endpoints — O(deg) work, no routing.
        let swapped = |n: NodeId| swapped(a, b, n);
        // Only the delay and power objectives have an O(deg) mass
        // bound, and only against a feasible incumbent; otherwise the
        // loop is skipped entirely (unreachable new pairs are then
        // caught by the delta/bounded evaluation instead — with the
        // identical skip outcome).
        let pre_bound = inc.feasible
            && matches!(objective, Objective::MinDelay | Objective::MinPower)
            && self.total_bw_all > 0.0;
        if pre_bound {
            let mut d_mass = 0.0f64;
            for &ci in &scratch.incident {
                let c = &self.commodities[ci as usize];
                let (os, od) = (local.node_of(c.src), local.node_of(c.dst));
                let (ns, nd) = (swapped(os), swapped(od));
                let om = self
                    .pair_min_switches(os, od)
                    .expect("base placement routed, so its pairs are reachable");
                let Some(nm) = self.pair_min_switches(ns, nd) else {
                    // Unreachable new pair: the evaluation would error,
                    // and the search skips errored candidates.
                    return None;
                };
                d_mass += match objective {
                    Objective::MinDelay => c.bandwidth * (nm - om),
                    _ => c.bandwidth * (self.pair_rate(ns, nd) - self.pair_rate(os, od)),
                };
            }
            let lower = match objective {
                Objective::MinDelay => (base.min_mass + d_mass) / self.total_bw_all,
                _ => base.rate_mass + d_mass,
            };
            if clearly_above(lower, inc.cost) {
                return None;
            }
        }

        // Placement-independent route sets: the exact incremental delta
        // (subtract the incident commodities' cached paths, re-add the
        // re-routed ones) scores the swap without a full evaluation.
        if self.routing == RoutingFunction::DimensionOrdered {
            match self.dimension_ordered_delta(local, &swapped, ctx, scratch) {
                DeltaVerdict::WouldError | DeltaVerdict::Prune => return None,
                DeltaVerdict::Evaluate => {}
            }
        }

        if self.switch_cut_prunes(local, a, b, ctx, scratch) {
            return None;
        }

        // Survivor: full evaluation (identical arithmetic to the
        // exhaustive sweep) with the mid-evaluation early-exit bound.
        let first_incident = scratch
            .incident
            .iter()
            .min()
            .map_or(self.commodities.len(), |&ci| ci as usize);
        let swapped_ok = local.swap_nodes(a, b);
        debug_assert!(swapped_ok, "occupancy was checked above");
        let report = self.evaluate_bounded(
            local,
            scratch,
            &inc,
            objective,
            Some((base, first_incident)),
        );
        local.swap_nodes(a, b);
        report
    }

    /// The exact swap delta for dimension-ordered routing: every pair's
    /// route is a cached enumerated path, so the candidate's loads,
    /// switch power and hop mass follow from the base accumulators by
    /// subtracting the incident commodities' old paths and re-adding
    /// their new ones. The sparse deltas live in `scratch` and are
    /// zeroed exactly (no float-undo drift) before returning.
    fn dimension_ordered_delta(
        &self,
        local: &Placement,
        swapped: &impl Fn(NodeId) -> NodeId,
        ctx: &PassCtx<'_>,
        scratch: &mut EvalScratch,
    ) -> DeltaVerdict {
        let PassCtx {
            base,
            inc,
            objective,
            ..
        } = *ctx;
        let EvalScratch {
            incident,
            delta_loads,
            touched_edges,
            delta_traffic,
            touched_nodes,
            ..
        } = scratch;
        debug_assert!(touched_edges.is_empty() && touched_nodes.is_empty());
        let mut d_bw_hops = 0.0f64;
        let mut routable = true;
        'commodities: for &ci in incident.iter() {
            let c = &self.commodities[ci as usize];
            let (os, od) = (local.node_of(c.src), local.node_of(c.dst));
            let old_entry = self.table.dimension_ordered_route(os, od);
            let old = old_entry.as_ref().expect("base placement routed");
            let new_entry = self.table.dimension_ordered_route(swapped(os), swapped(od));
            let Some(new) = new_entry.as_ref() else {
                routable = false;
                break 'commodities;
            };
            d_bw_hops +=
                c.bandwidth * (new.switch_nodes.len() as f64 - old.switch_nodes.len() as f64);
            for (path, sign) in [(old, -1.0f64), (new, 1.0f64)] {
                let flow = sign * c.bandwidth;
                for e in &path.edges {
                    touched_edges.push(e.index());
                    delta_loads[e.index()] += flow;
                }
                for n in &path.switch_nodes {
                    touched_nodes.push(n.index());
                    delta_traffic[n.index()] += flow;
                }
            }
        }
        // Collapse the deltas (processing each touched index once and
        // resetting it to exactly zero) into the candidate estimates.
        let mut est_load = f64::NEG_INFINITY;
        let mut over = false;
        for &ei in touched_edges.iter() {
            let d = delta_loads[ei];
            if d == 0.0 {
                continue;
            }
            delta_loads[ei] = 0.0;
            if self.net_edge[ei] {
                let load = base.link_loads[ei] + d;
                if load > est_load {
                    est_load = load;
                }
                // The estimate can drift a few ulps from the true load,
                // so only a margin-clear overload counts as certain.
                over |= load > self.edge_capacity[ei] * BANDWIDTH_TOLERANCE * (1.0 + PRUNE_MARGIN);
            }
        }
        touched_edges.clear();
        let mut d_switch_power = 0.0f64;
        for &ni in touched_nodes.iter() {
            let d = delta_traffic[ni];
            if d == 0.0 {
                continue;
            }
            delta_traffic[ni] = 0.0;
            d_switch_power += self.switch_rate[ni] * d;
        }
        touched_nodes.clear();
        if !routable {
            return DeltaVerdict::WouldError;
        }

        if inc.feasible {
            if over && self.constraints.enforce_bandwidth {
                return DeltaVerdict::Prune;
            }
            let lower = match objective {
                Objective::MinDelay if self.total_bw_all > 0.0 => {
                    (base.bw_hops + d_bw_hops) / self.total_bw_all
                }
                // Switch power alone already lower-bounds total power.
                Objective::MinPower => base.switch_power + d_switch_power,
                Objective::MinBandwidth => est_load,
                Objective::MinArea | Objective::MinDelay => {
                    // MinArea ties on the constant design area; the
                    // max-load tie-break decides.
                    if objective == Objective::MinArea
                        && est_load > f64::NEG_INFINITY
                        && clearly_above(est_load, inc.load)
                    {
                        return DeltaVerdict::Prune;
                    }
                    f64::NEG_INFINITY
                }
            };
            if lower > f64::NEG_INFINITY && clearly_above(lower, inc.cost) {
                return DeltaVerdict::Prune;
            }
        } else if over
            && self.constraints.enforce_bandwidth
            && est_load > f64::NEG_INFINITY
            && clearly_above(est_load, inc.load)
        {
            return DeltaVerdict::Prune;
        }
        DeltaVerdict::Evaluate
    }

    /// Full candidate evaluation with the early-exit bound: identical
    /// accumulation arithmetic to [`EvalEngine::evaluate_report`] (a
    /// completed evaluation's report is bit-identical), but after every
    /// routed commodity the partial cost plus an optimistic suffix is
    /// checked against the incumbent. As in the paper's Fig. 5, it
    /// routes before it floorplans: only a candidate that finishes
    /// routing pays for its layout, floorplan solve and area check. The
    /// one exception is MinPower against a feasible incumbent, whose
    /// suffix bound prices link power by the candidate's link lengths
    /// and so needs the floorplan first. `None` means the candidate was
    /// abandoned as provably unable to win, or errored (the search
    /// skips it either way); the order changes what an abandoned
    /// candidate costs, never which candidates return `None`.
    ///
    /// `prefix` is the pass base and the index of the candidate's first
    /// incident commodity. Under MinPath every commodity before it has
    /// the base's endpoints and meets the base's loads, so its base
    /// route is copied instead of searched; the accumulation and checks
    /// that follow are unchanged, so the result is bit-identical to a
    /// call without `prefix`, which routes everything.
    fn evaluate_bounded(
        &self,
        placement: &Placement,
        scratch: &mut EvalScratch,
        inc: &Incumbent,
        objective: Objective,
        prefix: Option<(&SweepBase, usize)>,
    ) -> Option<CostReport> {
        // Optimistic suffix masses in routing order: after commodity i,
        // the unrouted remainder contributes at least `min_suffix[i+1]`
        // bandwidth-weighted switch hops, `rate_suffix[i+1]` mW of
        // switch power and `len_suffix[i+1]` bandwidth-weighted mm of
        // network-link length. Only the delay and power objectives
        // consume them (MinArea/MinBandwidth prune on the tracked max
        // load alone), so the other objectives skip the build — and
        // MinDelay skips the power-only arrays.
        let n = self.commodities.len();
        let suffix_bound = inc.feasible
            && matches!(objective, Objective::MinDelay | Objective::MinPower)
            && self.total_bw_all > 0.0;
        let power_bound = suffix_bound && objective == Objective::MinPower;
        // Lays out and floorplans the candidate: `None` on a floorplan
        // error, or on an area failure that makes it certainly
        // infeasible against a feasible incumbent.
        let solve = || {
            let (layout, floorplan) = self.solve_floorplan(placement).ok()?;
            let area_fails = inc.feasible && !self.area_feasible(floorplan.chip_aspect());
            (!area_fails).then_some((layout, floorplan))
        };
        // The MinPower bound prices link power by this candidate's link
        // lengths, so it alone solves the floorplan before routing.
        let mut solved = None;
        let mut len_min = 0.0;
        if power_bound {
            let (layout, floorplan) = solve()?;
            len_min = self.link_length_floors(placement, &layout, &floorplan, scratch);
            solved = Some((layout, floorplan));
        }
        if suffix_bound {
            scratch.min_suffix.clear();
            scratch.min_suffix.resize(n + 1, 0.0);
            scratch.rate_suffix.clear();
            scratch.rate_suffix.resize(n + 1, 0.0);
            scratch.len_suffix.clear();
            scratch.len_suffix.resize(n + 1, 0.0);
            for i in (0..n).rev() {
                let c = &self.commodities[i];
                let (src, dst) = (placement.node_of(c.src), placement.node_of(c.dst));
                let m = self.pair_min_switches(src, dst)?;
                scratch.min_suffix[i] = scratch.min_suffix[i + 1] + c.bandwidth * m;
                if power_bound {
                    scratch.rate_suffix[i] =
                        scratch.rate_suffix[i + 1] + c.bandwidth * self.pair_rate(src, dst);
                    // A route crossing `m` switches crosses at least
                    // `m - 1` network links: the first departs the
                    // ingress switch, the last enters the egress
                    // switch, intermediates cost at least `len_min`.
                    let links = m - 1.0;
                    let floor_len = if links <= 0.0 {
                        0.0
                    } else {
                        let first = self.ingress[src.index()];
                        let last = self.egress[dst.index()];
                        let out = if first == u32::MAX {
                            len_min
                        } else {
                            scratch.out_min[first as usize]
                        };
                        let inl = if last == u32::MAX {
                            len_min
                        } else {
                            scratch.in_min[last as usize]
                        };
                        if links <= 1.0 {
                            out.max(inl)
                        } else {
                            out + inl + (links - 2.0) * len_min
                        }
                    };
                    scratch.len_suffix[i] = scratch.len_suffix[i + 1] + c.bandwidth * floor_len;
                }
            }
            // The whole-candidate floor is already known before routing
            // a single commodity — abandon here when even it cannot
            // beat the incumbent.
            let lower = if objective == Objective::MinDelay {
                scratch.min_suffix[0] / self.total_bw_all
            } else {
                scratch.rate_suffix[0] + self.link_rate_mm * scratch.len_suffix[0]
            };
            if clearly_above(lower, inc.cost) {
                return None;
            }
        }

        let reuse = prefix.filter(|_| self.routing == RoutingFunction::MinPath);
        scratch.link_loads.fill(0.0);
        scratch.switch_traffic.fill(0.0);
        let mut totals = RouteTotals::default();
        let mut track = BoundTracker::new(power_bound);
        for i in 0..n {
            let c = self.commodities[i];
            let src = placement.node_of(c.src);
            let dst = placement.node_of(c.dst);
            let hops = match reuse {
                Some((base, first_incident)) if i < first_incident => {
                    scratch.path.clear();
                    scratch.path.extend_from_slice(base.route(i));
                    self.accumulate_dynamic(c.bandwidth, scratch, Some(&mut track))
                }
                _ => self.route_cached(src, dst, c.bandwidth, scratch, Some(&mut track))?,
            };
            totals.add(c.bandwidth, hops);
            let certainly_infeasible = track.over && self.constraints.enforce_bandwidth;
            if inc.feasible {
                if certainly_infeasible {
                    return None;
                }
                match objective {
                    // MinArea: cost ties on the engine-constant design
                    // area; the max-load tie-break decides.
                    Objective::MinArea
                        if track.max_load > f64::NEG_INFINITY
                            && clearly_above(track.max_load, inc.load) =>
                    {
                        return None;
                    }
                    Objective::MinBandwidth if clearly_above(track.max_load, inc.cost) => {
                        return None;
                    }
                    Objective::MinDelay | Objective::MinPower if suffix_bound => {
                        let lower = if objective == Objective::MinDelay {
                            (totals.bw_hops + scratch.min_suffix[i + 1]) / self.total_bw_all
                        } else {
                            track.switch_power
                                + track.link_power.expect("the power bound tracks link power")
                                + scratch.rate_suffix[i + 1]
                                + self.link_rate_mm * scratch.len_suffix[i + 1]
                        };
                        if clearly_above(lower, inc.cost) {
                            return None;
                        }
                    }
                    _ => {}
                }
            } else if certainly_infeasible
                && track.max_load > f64::NEG_INFINITY
                && clearly_above(track.max_load, inc.load)
            {
                return None;
            }
        }
        let (layout, floorplan) = solved.or_else(solve)?;
        Some(self.assemble_report(placement, scratch, &layout, &floorplan, totals))
    }

    /// The candidate link lengths the MinPower suffix bound prices link
    /// power by: fills `scratch.edge_len` (zero for edges the report's
    /// power loop skips) and, per node, the minimum outgoing / incoming
    /// powered network-link length (`scratch.out_min` / `in_min`), and
    /// returns the shortest powered length (zero if none).
    fn link_length_floors(
        &self,
        placement: &Placement,
        layout: &LayoutBlocks,
        floorplan: &Floorplan,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let g = self.g;
        let mut len_min = f64::INFINITY;
        for (eid, edge) in g.edges() {
            let mut len = 0.0;
            if edge.is_network_link() {
                if let (Some(x), Some(y)) = (
                    layout.block_of_node(placement, edge.src),
                    layout.block_of_node(placement, edge.dst),
                ) {
                    len = floorplan.link_length(x, y);
                    if len < len_min {
                        len_min = len;
                    }
                }
            }
            scratch.edge_len[eid.index()] = len;
        }
        if !len_min.is_finite() {
            len_min = 0.0;
        }
        // Any route's first network link departs the source's ingress
        // switch and its last enters the destination's egress switch,
        // so those two links cost at least `out_min[ingress]` /
        // `in_min[egress]` — a per-commodity floor strictly tighter
        // than `len_min` per link. Unpowered (block-less) links keep
        // length 0, which only loosens the floor; nodes without network
        // links fall back to `len_min`.
        scratch.out_min.fill(f64::INFINITY);
        scratch.in_min.fill(f64::INFINITY);
        for (eid, edge) in g.edges() {
            if !edge.is_network_link() {
                continue;
            }
            let len = scratch.edge_len[eid.index()];
            let (s, d) = (edge.src.index(), edge.dst.index());
            if len < scratch.out_min[s] {
                scratch.out_min[s] = len;
            }
            if len < scratch.in_min[d] {
                scratch.in_min[d] = len;
            }
        }
        for slot in scratch.out_min.iter_mut().chain(scratch.in_min.iter_mut()) {
            if !slot.is_finite() {
                *slot = len_min;
            }
        }
        len_min
    }

    /// One phase-3 pass: scores every `(a, b)` swap of `base_placement`
    /// in `pairs` and returns the pass winner (its index into `pairs`
    /// and its report: the best candidate that beats `base_report`, the
    /// earliest on ties) plus the number of candidates that were fully
    /// evaluated. `on_report` observes each fully evaluated candidate's
    /// report in pair order.
    ///
    /// `strategy`, resolved against the table's mappable-vertex count,
    /// picks the per-pair scorer: a full evaluation of every swap
    /// ([`SwapStrategy::Exhaustive`]), or the delta scorer
    /// ([`SwapStrategy::DeltaPruned`]), which fully evaluates only the
    /// candidates its bounds cannot rule out and finds the same winner
    /// with a bit-identical report.
    ///
    /// The pairs run in fixed-size blocks. Each block is scored across
    /// scoped worker threads, each with its own scratch and placement
    /// copy, and reduced in pair order. The delta scorer
    /// prunes against the incumbent frozen at the block boundary; a
    /// frozen incumbent only prunes *less* than a live one, so the
    /// winner is unaffected, and the evaluation count and `on_report`
    /// sequence are pure functions of the inputs at any worker count.
    pub fn sweep(
        &self,
        strategy: SwapStrategy,
        base_placement: &Placement,
        base_report: &CostReport,
        pairs: &[(NodeId, NodeId)],
        objective: Objective,
        on_report: impl FnMut(&CostReport),
    ) -> (Option<(usize, CostReport)>, usize) {
        self.sweep_with_workers(
            strategy,
            base_placement,
            base_report,
            pairs,
            objective,
            worker_count(pairs.len()),
            on_report,
        )
    }

    /// [`EvalEngine::sweep`] with an explicit worker count — how tests
    /// exercise the multi-worker path on single-CPU machines.
    #[allow(clippy::too_many_arguments)]
    fn sweep_with_workers(
        &self,
        strategy: SwapStrategy,
        base_placement: &Placement,
        base_report: &CostReport,
        pairs: &[(NodeId, NodeId)],
        objective: Objective,
        workers: usize,
        mut on_report: impl FnMut(&CostReport),
    ) -> (Option<(usize, CostReport)>, usize) {
        const BLOCK: usize = 512;
        let mut scratch = self.new_scratch();
        // Only the delta scorer works against base accumulators, and an
        // unroutable base placement leaves it nothing to work against.
        let base = match strategy.resolve(self.table.mappable.len()) {
            SwapStrategy::DeltaPruned => {
                let Some(base) = self.sweep_base(base_placement, objective, &mut scratch) else {
                    return (None, 0);
                };
                Some(base)
            }
            _ => None,
        };
        let mut local = base_placement.clone();
        let mut best: Option<(usize, CostReport)> = None;
        let mut evaluated = 0usize;
        for (block_idx, block) in pairs.chunks(BLOCK).enumerate() {
            let ctx = base.as_ref().map(|base| {
                let inc = Incumbent::of(best.as_ref().map_or(base_report, |(_, r)| r), objective);
                PassCtx {
                    base,
                    inc,
                    objective,
                    cut_hot: self.base_cut_hot(base, &inc),
                }
            });
            let ctx = ctx.as_ref();
            let score = move |pairs: &[(NodeId, NodeId)],
                              local: &mut Placement,
                              scratch: &mut EvalScratch| {
                pairs
                    .iter()
                    .map(|&(a, b)| match ctx {
                        Some(ctx) => self.score_swap(local, a, b, ctx, scratch),
                        None => self.swap_report(local, a, b, scratch),
                    })
                    .collect::<Vec<_>>()
            };
            let reports = if workers <= 1 || block.len() < 2 * workers {
                score(block, &mut local, &mut scratch)
            } else {
                let chunk = block.len().div_ceil(workers);
                std::thread::scope(|s| {
                    let handles: Vec<_> = block
                        .chunks(chunk)
                        .map(|chunk| {
                            s.spawn(move || {
                                score(chunk, &mut base_placement.clone(), &mut self.new_scratch())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("swap-sweep worker panicked"))
                        .collect()
                })
            };
            for (offset, report) in reports.into_iter().enumerate() {
                let Some(report) = report else { continue };
                evaluated += 1;
                on_report(&report);
                let improves_on = best.as_ref().map_or(base_report, |(_, r)| r);
                if report.better_than(improves_on, objective) {
                    best = Some((block_idx * BLOCK + offset, report));
                }
            }
        }
        (best, evaluated)
    }

    /// The exhaustive scorer: applies the swap, evaluates, and restores
    /// `local` (swapping the same pair twice is the identity). `None`
    /// when both vertices are empty or the evaluation errors.
    fn swap_report(
        &self,
        local: &mut Placement,
        a: NodeId,
        b: NodeId,
        scratch: &mut EvalScratch,
    ) -> Option<CostReport> {
        if !local.swap_nodes(a, b) {
            return None;
        }
        let report = self.evaluate_report(local, scratch).ok();
        local.swap_nodes(a, b);
        report
    }
}

/// Running totals of the routing loop (one `add` per commodity, in
/// routing order — the same three float ops the pre-refactor loop
/// performed, so the assembled averages are bit-identical).
#[derive(Debug, Default, Clone, Copy)]
struct RouteTotals {
    total_bw: f64,
    bw_hops: f64,
    hops_sum: f64,
}

impl RouteTotals {
    #[inline]
    fn add(&mut self, bandwidth: f64, hops: f64) {
        self.total_bw += bandwidth;
        self.bw_hops += bandwidth * hops;
        self.hops_sum += hops;
    }
}

/// The rank components of the pass incumbent a candidate must beat
/// (from [`CostReport::rank`]'s fields, pre-extracted for the bounds).
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    feasible: bool,
    cost: f64,
    load: f64,
}

impl Incumbent {
    fn of(report: &CostReport, objective: Objective) -> Self {
        Incumbent {
            feasible: report.feasible(),
            cost: report.cost(objective),
            load: report.max_link_load,
        }
    }

    /// The load a switch-cut bound must also exceed: none against a
    /// feasible incumbent (certain overload alone abandons a candidate
    /// then), the incumbent's max load with the doubled margin
    /// otherwise.
    fn cut_floor(&self) -> f64 {
        if self.feasible {
            f64::NEG_INFINITY
        } else {
            self.load * CUT_MARGIN + f64::MIN_POSITIVE
        }
    }
}

/// Everything a block of the delta sweep scores its candidates
/// against: the pass base state, the block-frozen incumbent rank, and
/// how many base switch cuts already fire against it.
#[derive(Clone, Copy)]
struct PassCtx<'a> {
    base: &'a SweepBase,
    inc: Incumbent,
    objective: Objective,
    cut_hot: usize,
}

/// Index of a switch's network in-link cut in [`Cut`] pairs.
const CUT_IN: usize = 0;
/// Index of a switch's network out-link cut in [`Cut`] pairs.
const CUT_OUT: usize = 1;

/// One side of a switch's network cut — its in-links or its out-links.
#[derive(Debug, Clone, Copy, Default)]
struct Cut {
    /// How many network links cross it.
    links: f64,
    /// The largest capacity among them.
    max_capacity: f64,
}

impl Cut {
    /// Whether `demand` MB/s through this cut certainly overloads one of
    /// its links: the busiest carries at least `demand / links`, which
    /// must clear the largest capacity and `floor` with [`CUT_MARGIN`].
    fn fires(self, demand: f64, floor: f64) -> bool {
        if self.links == 0.0 {
            return false;
        }
        let bound = demand / self.links;
        bound.is_finite()
            && bound > self.max_capacity * BANDWIDTH_TOLERANCE * CUT_MARGIN
            && bound > floor
    }
}

/// Persistent accumulators of the delta sweep's base placement — built
/// once per pass, shared read-only by every candidate's delta and by
/// the sweep's workers.
#[derive(Debug)]
struct SweepBase {
    /// Bandwidth-weighted switch hops of the base placement.
    bw_hops: f64,
    /// Σ bandwidth × minimum switch hops (pre-bound numerator).
    min_mass: f64,
    /// Σ bandwidth × optimistic switch power rate (power pre-bound).
    rate_mass: f64,
    /// Base switch power in mW.
    switch_power: f64,
    /// Per-edge link loads of the base placement.
    link_loads: Vec<f64>,
    /// MinPath only (empty otherwise): every commodity's base route,
    /// concatenated in routing order, and where each one ends.
    routes: Vec<NodeId>,
    route_ends: Vec<usize>,
    /// Per-node `[in, out]` cut demand: the bandwidth of the commodities
    /// that must enter (leave) the switch over a network link.
    cut_demand: Vec<[f64; 2]>,
}

impl SweepBase {
    /// Commodity `i`'s base route (MinPath passes only).
    fn route(&self, i: usize) -> &[NodeId] {
        let start = if i == 0 { 0 } else { self.route_ends[i - 1] };
        &self.routes[start..self.route_ends[i]]
    }
}

/// Partial-cost tracker of one bounded evaluation, updated by the
/// accumulators as each flow lands. All fields are monotone under
/// further routing, so comparing them against the incumbent
/// mid-evaluation is sound.
///
/// After each commodity the fields hold exactly what a walk of its
/// routes over its final loads would give:
///
/// * every flow is positive: `CoreGraph::add_traffic` admits only
///   finite bandwidths > 0, split fractions are `n / SPLIT_CHUNKS` with
///   `n > 0`, and rounded addition of a non-negative flow never lowers
///   a load;
/// * so within one commodity an edge's load only grows, and the
///   commodity's last visit of an edge reads its final load, also when
///   candidate paths of a split share the edge;
/// * `max_load` is a maximum and `over` an OR over those reads, so the
///   earlier, smaller reads change neither;
/// * `link_power` and `switch_power` add one `flow × rate` product per
///   edge and per switch crossed: per path, its edges and then its
///   switches, with split candidates in chunk order.
#[derive(Debug)]
struct BoundTracker {
    switch_power: f64,
    /// `None` unless the MinPower suffix bound is live, the only bound
    /// that reads link power (and the only time the candidate's link
    /// lengths are known before routing).
    link_power: Option<f64>,
    max_load: f64,
    over: bool,
}

impl BoundTracker {
    fn new(power_bound: bool) -> Self {
        BoundTracker {
            switch_power: 0.0,
            link_power: power_bound.then_some(0.0),
            max_load: f64::NEG_INFINITY,
            over: false,
        }
    }
}

/// Total-order f64 wrapper for the rate-walk Dijkstra heap.
#[derive(PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What the delta scorer decided about a candidate swap.
enum DeltaVerdict {
    /// A re-routed pair is unroutable — the evaluation would error.
    WouldError,
    /// Provably unable to beat the incumbent.
    Prune,
    /// Might win: run the (bounded) full evaluation.
    Evaluate,
}

/// Where the swap of vertices `a` and `b` moves the occupant of `n`.
fn swapped(a: NodeId, b: NodeId, n: NodeId) -> NodeId {
    if n == a {
        b
    } else if n == b {
        a
    } else {
        n
    }
}

/// How many sweep workers to spawn for `pairs` candidate swaps: one per
/// core, but never so many that a worker gets a trivial share (thread
/// spawn would dominate), and always 1 for tiny sweeps.
fn worker_count(pairs: usize) -> usize {
    const MIN_PAIRS_PER_WORKER: usize = 8;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cpus.min(pairs / MIN_PAIRS_PER_WORKER).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, Mapper, MapperConfig, Objective};
    use proptest::prelude::*;
    use sunmap_power::Technology;
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    fn engine_fixture(
        g: &TopologyGraph,
        routing: RoutingFunction,
    ) -> (RouteTable, AreaPowerLibrary, Constraints) {
        let mut table = RouteTable::new(g);
        table.prepare(g, routing);
        (
            table,
            AreaPowerLibrary::new(Technology::um_0_10()),
            Constraints::default(),
        )
    }

    #[test]
    fn delta_sweep_is_worker_count_invariant() {
        // Single-CPU CI never reaches the chunked thread::scope branch
        // of the sweep through worker_count(); force it and assert the
        // winner, its report, the evaluation count (the pruning
        // decisions) AND the observed report sequence agree with the
        // sequential scan under both scorers — the block-frozen
        // incumbent makes all four pure functions of the inputs.
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let inputs = [
            (SwapStrategy::DeltaPruned, RoutingFunction::MinPath),
            (SwapStrategy::DeltaPruned, RoutingFunction::DimensionOrdered),
            (SwapStrategy::Exhaustive, RoutingFunction::SplitMinPaths),
        ];
        for (strategy, routing) in inputs {
            for objective in [Objective::MinDelay, Objective::MinPower] {
                let (table, lib, constraints) = engine_fixture(&g, routing);
                let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
                let config = MapperConfig {
                    routing,
                    objective,
                    ..MapperConfig::default()
                };
                let base_placement = Mapper::new(&g, &app, config).greedy_placement();
                let mut scratch = engine.new_scratch();
                let base_report = engine
                    .evaluate_report(&base_placement, &mut scratch)
                    .unwrap();
                let pairs = all_pairs(&g);
                let run = |workers| {
                    let mut seen = Vec::new();
                    let (best, evaluated) = engine.sweep_with_workers(
                        strategy,
                        &base_placement,
                        &base_report,
                        &pairs,
                        objective,
                        workers,
                        |r| seen.push(r.clone()),
                    );
                    (best, evaluated, seen)
                };
                let sequential = run(1);
                assert_eq!(sequential.1, sequential.2.len());
                for workers in [2, 3, 5, 7] {
                    assert_eq!(
                        sequential,
                        run(workers),
                        "{strategy:?} {routing} {objective}: {workers} workers diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn report_matches_reference_on_greedy_placement() {
        for g in builders::standard_library(12, 500.0).unwrap() {
            let app = benchmarks::vopd();
            let routing = RoutingFunction::MinPath;
            let (table, lib, constraints) = engine_fixture(&g, routing);
            let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
            let placement = Mapper::new(&g, &app, MapperConfig::default()).greedy_placement();
            let mut scratch = engine.new_scratch();
            let fast = engine.evaluate_report(&placement, &mut scratch).unwrap();
            let reference = evaluate(&g, &app, placement, routing, &lib, &constraints)
                .unwrap()
                .report;
            assert_eq!(fast, reference, "{} diverged", g.kind());
        }
    }

    /// MinPath routing is heap-free only while the level search never
    /// falls back, and a silent fallback would change no byte. So the
    /// fallback count stays 0 on the four paper apps at their golden
    /// capacities and on `synth:seed=7,cores=64`, on every library
    /// topology, over the greedy seed and a walk of swaps from it.
    #[test]
    fn min_path_level_search_never_falls_back_on_the_benchmark_apps() {
        let synth: sunmap_traffic::synthetic::SyntheticSpec =
            "synth:seed=7,cores=64".parse().unwrap();
        let routing = RoutingFunction::MinPath;
        for (app, capacity) in [
            (benchmarks::vopd(), 500.0),
            (benchmarks::mpeg4(), 500.0),
            (benchmarks::dsp_filter(), 1000.0),
            (benchmarks::network_processor(100.0), 500.0),
            (synth.generate(), 500.0),
        ] {
            for g in builders::standard_library(app.core_count(), capacity).unwrap() {
                let (table, lib, constraints) = engine_fixture(&g, routing);
                let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
                let mut scratch = engine.new_scratch();
                let mut placement =
                    Mapper::new(&g, &app, MapperConfig::default()).greedy_placement();
                let nodes = g.mappable_nodes();
                for (i, &a) in nodes.iter().enumerate() {
                    // Infeasible placements count too: they route fully.
                    let _ = engine.evaluate_report(&placement, &mut scratch);
                    placement.swap_nodes(a, nodes[(7 * i + 3) % nodes.len()]);
                }
                assert_eq!(
                    scratch.level_fallbacks(),
                    0,
                    "{} cores on {}",
                    app.core_count(),
                    g.kind()
                );
            }
        }
    }

    #[test]
    fn route_table_rejects_same_shape_different_edges() {
        // Same kind, node count and edge count, different capacities:
        // matches() must reject via the edge fingerprint.
        let a = builders::mesh(3, 4, 500.0).unwrap();
        let b = builders::mesh(3, 4, 400.0).unwrap();
        let table = RouteTable::new(&a);
        assert!(table.matches(&a));
        assert!(!table.matches(&b));
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn prepare_panics_on_mismatched_graph() {
        let a = builders::mesh(3, 4, 500.0).unwrap();
        let b = builders::torus(3, 4, 500.0).unwrap();
        let mut table = RouteTable::new(&a);
        table.prepare(&b, RoutingFunction::MinPath);
    }

    #[test]
    fn sweep_handles_empty_vertices_and_errors_like_the_search() {
        // A 4x4 mesh with only 12 cores leaves empty vertices: pairs of
        // two empty slots are skipped (the search's swap_nodes() ==
        // false), and every other pair is fully evaluated by the
        // exhaustive scorer.
        let g = builders::mesh(4, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let routing = RoutingFunction::MinPath;
        let (table, lib, constraints) = engine_fixture(&g, routing);
        let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
        let base = Mapper::new(&g, &app, MapperConfig::new(routing, Objective::MinDelay))
            .greedy_placement();
        let base_report = engine
            .evaluate_report(&base, &mut engine.new_scratch())
            .unwrap();
        let pairs = all_pairs(&g);
        let occupied_pairs = pairs
            .iter()
            .filter(|&&(a, b)| base.core_at(a).is_some() || base.core_at(b).is_some())
            .count();
        assert!(
            occupied_pairs < pairs.len(),
            "fixture has empty-empty pairs"
        );
        let mut observed = 0usize;
        let (_, evaluated) = engine.sweep(
            SwapStrategy::Exhaustive,
            &base,
            &base_report,
            &pairs,
            Objective::MinDelay,
            |_| observed += 1,
        );
        assert_eq!(evaluated, occupied_pairs);
        assert_eq!(observed, occupied_pairs);
    }

    /// The placement that puts core `i` on the mappable vertex with the
    /// `i`-th smallest key (`keys[j]` keys the `j`-th mappable vertex).
    fn keyed_placement(g: &TopologyGraph, cores: usize, keys: &[u64]) -> Placement {
        let mut keyed: Vec<_> = g.mappable_nodes().iter().zip(keys).collect();
        assert_eq!(keyed.len(), g.mappable_nodes().len(), "a key per vertex");
        keyed.sort_by_key(|&(_, key)| key);
        let nodes = keyed.iter().take(cores).map(|&(&n, _)| n).collect();
        Placement::new(nodes, g).expect("distinct mappable vertices")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bounded evaluation routes before it floorplans; whatever
        /// the order, it must stay sound. On random VOPD placements over
        /// the 12-core library, every routing and objective, incumbents
        /// taken from another placement's report and three constraint
        /// regimes (default, relaxed bandwidth, and chip-aspect bounds
        /// tight enough to fail some floorplans, drawn twice as often
        /// because the deferred area check acts only there): a completed
        /// bounded evaluation equals the unbounded one bit for bit, a
        /// candidate that beats the incumbent is never abandoned, and
        /// against a feasible incumbent only feasible candidates
        /// complete.
        #[test]
        fn bounded_evaluation_is_sound(
            topology in 0usize..5,
            routing in 0usize..4,
            objective in 0usize..4,
            regime in 0usize..4,
            candidate_keys in proptest::collection::vec(0u64..u64::MAX, 16),
            incumbent_keys in proptest::collection::vec(0u64..u64::MAX, 16),
        ) {
            let g = builders::standard_library(12, 500.0).unwrap().swap_remove(topology);
            let app = benchmarks::vopd();
            let routing = RoutingFunction::ALL[routing];
            let objective = [
                Objective::MinDelay,
                Objective::MinPower,
                Objective::MinArea,
                Objective::MinBandwidth,
            ][objective];
            let constraints = match regime {
                0 => Constraints::default(),
                1 => Constraints::relaxed_bandwidth(),
                _ => Constraints {
                    min_chip_aspect: 0.9,
                    max_chip_aspect: 1.1,
                    ..Constraints::default()
                },
            };
            let (table, lib, _) = engine_fixture(&g, routing);
            let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
            let mut scratch = engine.new_scratch();
            let candidate = keyed_placement(&g, app.core_count(), &candidate_keys);
            let incumbent = keyed_placement(&g, app.core_count(), &incumbent_keys);
            let Ok(incumbent) = engine.evaluate_report(&incumbent, &mut scratch) else {
                return Err(TestCaseError::reject("unroutable incumbent"));
            };
            let inc = Incumbent::of(&incumbent, objective);
            let full = engine.evaluate_report(&candidate, &mut scratch);
            let bounded = engine.evaluate_bounded(&candidate, &mut scratch, &inc, objective, None);
            if let Some(r) = &bounded {
                let full = full.as_ref().expect("a completed bounded evaluation routed");
                // Debug prints each float's shortest round-trip form,
                // so equal text is equal bits (signed zeros included).
                prop_assert_eq!(format!("{r:?}"), format!("{full:?}"));
                prop_assert!(
                    !inc.feasible || r.feasible(),
                    "{routing} {objective}: an infeasible candidate completed \
                     against a feasible incumbent"
                );
            }
            if let Ok(full) = &full {
                prop_assert!(
                    bounded.is_some() || !full.better_than(&incumbent, objective),
                    "{routing} {objective}: a winning candidate was abandoned"
                );
            }
        }
    }

    /// The two-tier custom NoC of `examples/custom_topology.rs`: a
    /// 1 GB/s spine between two hubs with two core ports each, 500 MB/s
    /// spokes to two leaves with one port each.
    fn two_tier() -> TopologyGraph {
        let mut b = sunmap_topology::CustomTopologyBuilder::new("two-tier");
        let leaf_a = b.add_switch_at(0, 0);
        let hub_a = b.add_switch_at(0, 1);
        let hub_b = b.add_switch_at(0, 2);
        let leaf_b = b.add_switch_at(0, 3);
        b.add_link(hub_a, hub_b, 1000.0).unwrap();
        b.add_link(leaf_a, hub_a, 500.0).unwrap();
        b.add_link(hub_b, leaf_b, 500.0).unwrap();
        for sw in [hub_a, hub_a, hub_b, hub_b, leaf_a, leaf_b] {
            b.add_port(sw).unwrap();
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The two exact cuts of the delta scorer, on a random base
        /// placement and swap pair: VOPD on the 12-core library (at 500
        /// or, so that more cuts fire, 150 MB/s), and the DSP filter on
        /// a star and on the two-tier custom NoC (whose hubs hold two
        /// cores each, so some commodities inject and eject at one
        /// switch). Every routing function and objective, incumbents
        /// from the base itself, as at the start of a pass, or from
        /// another random placement (feasible or not), their max load
        /// scaled by 0.2–1.2, default and relaxed bandwidth. With the
        /// pass base, the bounded evaluation returns what it returns
        /// without it, bit for bit (routed-prefix reuse); whenever the
        /// switch cut fires, the bounded evaluation returns `None`; and
        /// under relaxed bandwidth the cut never fires.
        #[test]
        fn prefix_reuse_and_switch_cut_are_exact(
            topology in 0usize..7,
            routing in 0usize..4,
            objective in 0usize..4,
            flags in (0usize..2, 0usize..2, 0usize..2, 0.2f64..1.2),
            base_keys in proptest::collection::vec(0u64..u64::MAX, 16),
            incumbent_keys in proptest::collection::vec(0u64..u64::MAX, 16),
            pair in (0usize..16, 0usize..15),
        ) {
            let (low_capacity, relaxed, incumbent_is_base, load_scale) =
                (flags.0 == 1, flags.1 == 1, flags.2 == 1, flags.3);
            let capacity = if low_capacity { 150.0 } else { 500.0 };
            let (g, app) = match topology {
                0..=4 => (
                    builders::standard_library(12, capacity).unwrap().swap_remove(topology),
                    benchmarks::vopd(),
                ),
                5 => (builders::star(6, 500.0).unwrap(), benchmarks::dsp_filter()),
                _ => (two_tier(), benchmarks::dsp_filter()),
            };
            let routing = RoutingFunction::ALL[routing];
            let objective = [
                Objective::MinDelay,
                Objective::MinPower,
                Objective::MinArea,
                Objective::MinBandwidth,
            ][objective];
            let constraints = if relaxed {
                Constraints::relaxed_bandwidth()
            } else {
                Constraints::default()
            };
            let (table, lib, _) = engine_fixture(&g, routing);
            let engine = EvalEngine::new(&g, &app, &table, routing, &lib, &constraints);
            let mut scratch = engine.new_scratch();
            let base_placement = keyed_placement(&g, app.core_count(), &base_keys);
            let incumbent_keys = if incumbent_is_base {
                &base_keys
            } else {
                &incumbent_keys
            };
            let incumbent = keyed_placement(&g, app.core_count(), incumbent_keys);
            let Ok(incumbent) = engine.evaluate_report(&incumbent, &mut scratch) else {
                return Err(TestCaseError::reject("unroutable incumbent"));
            };
            // A scaled max load stands for a better incumbent, which is
            // what lets the cut fire against infeasible ones.
            let inc = Incumbent {
                load: incumbent.max_link_load * load_scale,
                ..Incumbent::of(&incumbent, objective)
            };
            let Some(base) = engine.sweep_base(&base_placement, objective, &mut scratch) else {
                return Err(TestCaseError::reject("unroutable base"));
            };
            let nodes = g.mappable_nodes();
            let m = nodes.len();
            let (a, b) = (nodes[pair.0 % m], nodes[(pair.0 + 1 + pair.1 % (m - 1)) % m]);
            if !engine.collect_incident(&base_placement, a, b, &mut scratch) {
                return Ok(());
            }
            let ctx = PassCtx {
                base: &base,
                inc,
                objective,
                cut_hot: engine.base_cut_hot(&base, &inc),
            };
            let cut = engine.switch_cut_prunes(&base_placement, a, b, &ctx, &mut scratch);
            let first_incident = scratch
                .incident
                .iter()
                .min()
                .map_or(engine.commodities.len(), |&ci| ci as usize);
            let mut candidate = base_placement.clone();
            prop_assert!(candidate.swap_nodes(a, b));
            let reused = engine.evaluate_bounded(
                &candidate,
                &mut scratch,
                &inc,
                objective,
                Some((&base, first_incident)),
            );
            let routed = engine.evaluate_bounded(&candidate, &mut scratch, &inc, objective, None);
            // Debug prints each float's shortest round-trip form, so
            // equal text is equal bits.
            prop_assert_eq!(format!("{reused:?}"), format!("{routed:?}"));
            prop_assert!(
                !cut || routed.is_none(),
                "{} {routing} {objective}: the switch cut dropped a candidate that completes",
                g.kind()
            );
            prop_assert!(!(relaxed && cut), "the switch cut fired under relaxed bandwidth");
        }
    }

    /// Every unordered pair of mappable vertices, in the mapper's order.
    fn all_pairs(g: &TopologyGraph) -> Vec<(NodeId, NodeId)> {
        let nodes = g.mappable_nodes();
        let mut pairs = Vec::new();
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                pairs.push((nodes[i], nodes[j]));
            }
        }
        pairs
    }
}
