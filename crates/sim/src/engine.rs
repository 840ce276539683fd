//! The simulator's shared vocabulary: the engine choice
//! ([`SimEngine`]), the model parameters ([`SimConfig`]), the `Copy`
//! flit record and the compiled [`RoutePlan`].
//!
//! * **flits are `Copy` records** (40 bytes: route id, hop index,
//!   packet id, next-edge demand, timestamps, flags) instead of heap
//!   nodes holding an `Rc<[NodeId]>` path — an engine's per-edge
//!   ring-buffer slab is the flit pool, indexed by `edge × slot`;
//! * **routes are resolved once per pair** through the mapper's
//!   [`RouteTable`] and compiled into a [`RoutePlan`] — a flat arena of
//!   per-hop records with the edge id, the bubble-rule space
//!   requirement and the arrival-latency increment precomputed, so the
//!   arbitration loop never touches the graph, never recomputes a turn
//!   axis and never hashes a pair key.

use sunmap_mapping::{Evaluation, RouteTable, RoutingFunction};
use sunmap_topology::{EdgeId, NodeCoords, NodeId, NodeKind, TopologyGraph, TopologyKind};

/// Per-pair cap on enumerated minimum paths for synthetic routing on
/// indirect topologies (the adaptive-routing fan-out of paper §6.2).
pub const SIM_PATH_CAP: usize = 8;

/// Which simulator a [`SimSession`](crate::SimSession) drives.
///
/// Production runs use the event-driven active-set engine (see the
/// [crate documentation](crate)); [`Reference`](SimEngine::Reference)
/// is the original implementation ([`crate::reference`]), kept as the
/// oracle. Both produce **bit-identical** [`LatencyStats`] for the same
/// seed — `tests/engine_equivalence.rs` checks this across topologies,
/// patterns, rates and trace mode.
///
/// This is a library value only: no command-line flag, manifest
/// directive or request field selects an engine, and every surface
/// simulates on [`SimConfig::default`]. Tests reach the oracle by
/// setting [`SimConfig::engine`]. `Auto` (the default), `Flat` and
/// `EventDriven` all [`resolve`](SimEngine::resolve) to the event
/// engine; `Auto`, `Flat` and [`SimEngine::AUTO_EVENT_MAX_LOAD`] remain
/// only because the `perfbench` benchmark reads them.
///
/// [`LatencyStats`]: crate::LatencyStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// The default; runs the event engine.
    #[default]
    Auto,
    /// The retired flat engine; runs the event engine.
    Flat,
    /// The event-driven active-set engine.
    EventDriven,
    /// The pre-rebuild oracle ([`crate::reference`]).
    Reference,
}

impl SimEngine {
    /// An offered load (flits/cycle/terminal) that selects nothing:
    /// every variant but `Reference` runs the event engine at any
    /// load. It only marks where `perfbench`'s sim-ladder splits its
    /// traced counts into low and high load.
    pub const AUTO_EVENT_MAX_LOAD: f64 = 0.15;

    /// The engine a run uses, whatever its offered load:
    /// [`EventDriven`](SimEngine::EventDriven) for `Auto`, `Flat` and
    /// `EventDriven`, [`Reference`](SimEngine::Reference) for itself.
    pub fn resolve(self, _load: f64) -> SimEngine {
        match self {
            SimEngine::Auto | SimEngine::Flat | SimEngine::EventDriven => SimEngine::EventDriven,
            SimEngine::Reference => SimEngine::Reference,
        }
    }

    /// The engine's name, as a top-k probe row's `"engine"` field
    /// reports the engine that ran.
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Auto => "auto",
            SimEngine::Flat => "flat",
            SimEngine::EventDriven => "event",
            SimEngine::Reference => "reference",
        }
    }
}

/// Simulator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Flits per packet (head + body + tail).
    pub packet_flits: usize,
    /// Input-buffer depth per link, in flits (credits).
    pub buffer_depth: usize,
    /// Extra cycles a flit spends traversing a switch. ×pipes switches
    /// are deeply pipelined (crossing one costs several cycles), which
    /// is why switch-hop count dominates NoC latency in the paper; the
    /// default of 3 models a four-cycle switch.
    pub switch_pipeline: u64,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles during which injected packets are measured.
    pub measure_cycles: u64,
    /// Extra cycles after the window so in-flight packets can finish.
    pub drain_cycles: u64,
    /// RNG seed (simulations are deterministic per seed).
    pub seed: u64,
    /// Which simulator runs: the event engine or the reference oracle
    /// (see [`SimEngine`]). Both are bit-identical for the same seed.
    pub engine: SimEngine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_flits: 4,
            buffer_depth: 4,
            switch_pipeline: 3,
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
            drain_cycles: 5_000,
            seed: 42,
            engine: SimEngine::Auto,
        }
    }
}

impl SimConfig {
    /// A short configuration for unit tests and doc examples.
    pub fn fast() -> Self {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            drain_cycles: 1_000,
            ..SimConfig::default()
        }
    }
}

pub(crate) const F_HEAD: u8 = 1;
pub(crate) const F_TAIL: u8 = 2;
pub(crate) const F_MEASURED: u8 = 4;

/// "No packet owns this output" sentinel for the wormhole allocator.
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// "This flit is at its final node" sentinel for [`Flit::next_edge`].
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// One flit in flight: 40 bytes, `Copy`, no indirection. The path is a
/// route id into the [`RoutePlan`]; `hop` indexes the route's steps.
/// The edge the flit wants next and the downstream space its transfer
/// needs are denormalised into the record when it is (re)queued, so the
/// arbitration scan compares plain fields without touching the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flit {
    pub(crate) ready_at: u64,
    pub(crate) inject_cycle: u64,
    pub(crate) route: u32,
    pub(crate) packet: u32,
    /// The edge this flit's next step crosses (`NO_EDGE` at the final
    /// node).
    pub(crate) next_edge: u32,
    /// Downstream slots its transfer requires (1 for body flits, the
    /// step's bubble-rule space for head flits).
    pub(crate) required: u32,
    pub(crate) hop: u16,
    pub(crate) flags: u8,
}

impl Flit {
    pub(crate) const EMPTY: Flit = Flit {
        ready_at: 0,
        inject_cycle: 0,
        route: 0,
        packet: 0,
        next_edge: NO_EDGE,
        required: 1,
        hop: 0,
        flags: 0,
    };
}

/// One precompiled hop of a route: everything the transfer loop needs,
/// resolved at plan-build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HopStep {
    /// The directed edge this step crosses.
    pub(crate) edge: u32,
    /// Cycles added to `ready_at` on arrival (link + downstream switch
    /// pipeline; attach links are NI wires folded into the switch).
    pub(crate) ready_add: u64,
    /// Free downstream space a *head* flit needs: one packet, or two
    /// when entering a new ring (injection or axis turn — the bubble
    /// condition keeping torus rings deadlock-free).
    pub(crate) head_space: u32,
    /// Whether a flit finishing this step leaves the network at a core
    /// port (indirect-topology egress) instead of entering the buffer.
    pub(crate) eject_at_dst: bool,
}

/// A route in the plan: a span of [`HopStep`]s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteSpan {
    pub(crate) first_step: u32,
    pub(crate) step_count: u16,
    /// The source vertex is a switch (injection pays its pipeline).
    pub(crate) start_at_switch: bool,
}

/// Flat arena of compiled routes.
#[derive(Debug, Default)]
pub(crate) struct RouteArena {
    pub(crate) steps: Vec<HopStep>,
    pub(crate) routes: Vec<RouteSpan>,
}

/// FNV-1a hash of a graph's directed edge list, capacities included
/// (the same identity check the mapper's `RouteTable` uses).
fn edge_fingerprint(g: &TopologyGraph) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (_, e) in g.edges() {
        mix(e.src.index() as u64);
        mix(e.dst.index() as u64);
        mix(e.capacity.to_bits());
    }
    hash
}

/// Axis of movement of the step `u -> v`, used to detect when a packet
/// turns into a new ring (grid column/row, hypercube dimension). `None`
/// for stage networks, which are acyclic anyway.
fn axis_of(g: &TopologyGraph, u: NodeId, v: NodeId) -> Option<u32> {
    match (g.coords(u), g.coords(v)) {
        (NodeCoords::Grid { row: r1, .. }, NodeCoords::Grid { row: r2, .. }) => {
            Some(if r1 == r2 { 0 } else { 1 })
        }
        (NodeCoords::Hyper { label: a }, NodeCoords::Hyper { label: b }) => {
            Some(2 + (a ^ b).trailing_zeros())
        }
        _ => None,
    }
}

impl RouteArena {
    /// Compiles the route `nodes`/`edges` (with `edges[i]` connecting
    /// `nodes[i]` to `nodes[i+1]`) and returns its route id.
    fn push_route(
        &mut self,
        g: &TopologyGraph,
        config: &SimConfig,
        nodes: &[NodeId],
        edges: &[EdgeId],
    ) -> u32 {
        debug_assert_eq!(nodes.len(), edges.len() + 1);
        let pf = config.packet_flits as u32;
        let first_step = self.steps.len() as u32;
        for (i, &e) in edges.iter().enumerate() {
            let (u, v) = (nodes[i], nodes[i + 1]);
            let attach =
                g.node_kind(u) == NodeKind::CorePort || g.node_kind(v) == NodeKind::CorePort;
            let ready_add = if attach {
                config.switch_pipeline
            } else {
                1 + config.switch_pipeline
            };
            let ring_entry = i == 0 || axis_of(g, nodes[i - 1], u) != axis_of(g, u, v);
            let head_space = if ring_entry { 2 * pf } else { pf };
            let eject_at_dst = i + 1 == edges.len() && g.node_kind(v) == NodeKind::CorePort;
            self.steps.push(HopStep {
                edge: e.index() as u32,
                ready_add,
                head_space,
                eject_at_dst,
            });
        }
        self.routes.push(RouteSpan {
            first_step,
            step_count: edges.len() as u16,
            start_at_switch: g.node_kind(nodes[0]) == NodeKind::Switch,
        });
        (self.routes.len() - 1) as u32
    }

    /// Compiles a route given as an edge sequence (the mapper
    /// [`RouteTable`]'s cached representation).
    fn push_edge_route(&mut self, g: &TopologyGraph, config: &SimConfig, edges: &[EdgeId]) -> u32 {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(g.edge(edges[0]).src);
        for &e in edges {
            nodes.push(g.edge(e).dst);
        }
        self.push_route(g, config, &nodes, edges)
    }
}

/// The compiled per-pair routes of one topology under one simulator
/// configuration: built once (through the mapper's [`RouteTable`]) and
/// shareable across simulators — the sweep driver builds one plan per
/// topology and hands clones of the `Arc` to every rate worker.
#[derive(Debug)]
pub struct RoutePlan {
    pub(crate) arena: RouteArena,
    /// Terminal-pair table: `pair_offsets[t*n+d]..pair_offsets[t*n+d+1]`
    /// indexes `route_ids`.
    pair_offsets: Vec<u32>,
    route_ids: Vec<u32>,
    /// Identity of the compiled-for graph: kind, shape and an FNV-1a
    /// fingerprint of the full directed edge list, so
    /// [`RoutePlan::compatible`] rejects a merely same-shaped graph
    /// whose edge ids mean different physical links.
    kind: TopologyKind,
    edge_fingerprint: u64,
    terminal_count: usize,
    edge_count: usize,
    /// Direct topologies take the single dimension-ordered route; on
    /// indirect ones the simulator picks uniformly among the set.
    pub(crate) direct: bool,
    packet_flits: usize,
    switch_pipeline: u64,
}

impl RoutePlan {
    /// Compiles the synthetic-traffic routes of `g` under `config`:
    /// dimension-ordered on direct topologies (deadlock-free with the
    /// bubble rule), all minimum paths (capped at [`SIM_PATH_CAP`]) on
    /// the acyclic multistage networks. Pair enumeration and caching go
    /// through the mapper's `table`, so a table prepared by the
    /// exploration flow is reused as-is.
    ///
    /// # Panics
    ///
    /// Panics if `table` was built for a different graph.
    pub fn synthetic(g: &TopologyGraph, table: &mut RouteTable, config: &SimConfig) -> RoutePlan {
        let direct = g.kind().is_direct();
        if direct {
            table.prepare(g, RoutingFunction::DimensionOrdered);
        } else {
            table.prepare_sim_routes(g, SIM_PATH_CAP);
        }
        let terminals = table.mappable_nodes().to_vec();
        let n = terminals.len();
        let mut arena = RouteArena::default();
        let mut pair_offsets = Vec::with_capacity(n * n + 1);
        let mut route_ids = Vec::new();
        pair_offsets.push(0u32);
        for &a in &terminals {
            for &b in &terminals {
                if a != b {
                    if direct {
                        if let Some(p) = table.dimension_ordered_route(a, b).as_ref() {
                            route_ids.push(arena.push_edge_route(g, config, p.edges()));
                        }
                    } else {
                        for p in table.sim_route_set(a, b).iter() {
                            route_ids.push(arena.push_edge_route(g, config, p.edges()));
                        }
                    }
                }
                pair_offsets.push(route_ids.len() as u32);
            }
        }
        RoutePlan {
            arena,
            pair_offsets,
            route_ids,
            kind: g.kind(),
            edge_fingerprint: edge_fingerprint(g),
            terminal_count: n,
            edge_count: g.edge_count(),
            direct,
            packet_flits: config.packet_flits,
            switch_pipeline: config.switch_pipeline,
        }
    }

    /// Compiles a trace plan from a mapping evaluation's chosen paths
    /// (no pair table; routes are addressed by id).
    pub(crate) fn trace(
        g: &TopologyGraph,
        config: &SimConfig,
        eval: &Evaluation,
    ) -> (RoutePlan, Vec<Trace>) {
        let adj = g.adjacency_matrix();
        let mut arena = RouteArena::default();
        let mut traces = Vec::with_capacity(eval.routes.len());
        let mut term_of = vec![u32::MAX; g.node_count()];
        for (i, t) in g.mappable_nodes().iter().enumerate() {
            term_of[t.index()] = i as u32;
        }
        for r in &eval.routes {
            let mut routes = Vec::with_capacity(r.paths.len());
            for (p, f) in &r.paths {
                let edges: Vec<EdgeId> = p
                    .windows(2)
                    .map(|w| {
                        adj.edge_between(w[0], w[1])
                            .expect("evaluated routes follow topology edges")
                    })
                    .collect();
                routes.push((arena.push_route(g, config, p, &edges), *f));
            }
            traces.push(Trace {
                terminal: term_of[r.src_node.index()] as usize,
                packet_prob: 0.0, // filled by the caller (needs intensity)
                bandwidth: r.commodity.bandwidth,
                routes,
            });
        }
        let plan = RoutePlan {
            arena,
            pair_offsets: Vec::new(),
            route_ids: Vec::new(),
            kind: g.kind(),
            edge_fingerprint: edge_fingerprint(g),
            terminal_count: g.mappable_nodes().len(),
            edge_count: g.edge_count(),
            direct: g.kind().is_direct(),
            packet_flits: config.packet_flits,
            switch_pipeline: config.switch_pipeline,
        };
        (plan, traces)
    }

    #[inline]
    pub(crate) fn routes_for(&self, src_terminal: usize, dst_terminal: usize) -> &[u32] {
        let p = src_terminal * self.terminal_count + dst_terminal;
        let lo = self.pair_offsets[p] as usize;
        let hi = self.pair_offsets[p + 1] as usize;
        &self.route_ids[lo..hi]
    }

    /// The FNV-1a fingerprint of the edge list this plan was compiled
    /// for. It equals the mapper `RouteTable::fingerprint` of the same
    /// graph, so warm caches can key tables and plans together.
    pub fn fingerprint(&self) -> u64 {
        self.edge_fingerprint
    }

    /// Whether this plan was compiled for `g` under `config`: same
    /// topology kind, shape, directed edge list (endpoints and
    /// capacities, order-sensitive) and timing-relevant parameters.
    pub fn compatible(&self, g: &TopologyGraph, config: &SimConfig) -> bool {
        self.kind == g.kind()
            && self.terminal_count == g.mappable_nodes().len()
            && self.edge_count == g.edge_count()
            && self.edge_fingerprint == edge_fingerprint(g)
            && self.packet_flits == config.packet_flits
            && self.switch_pipeline == config.switch_pipeline
    }
}

/// One trace-driven commodity: injection probability plus its weighted
/// compiled routes.
#[derive(Debug)]
pub(crate) struct Trace {
    pub(crate) terminal: usize,
    pub(crate) packet_prob: f64,
    pub(crate) bandwidth: f64,
    pub(crate) routes: Vec<(u32, f64)>,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::SimSession;
    use sunmap_topology::builders;
    use sunmap_traffic::patterns::TrafficPattern;

    #[test]
    fn zero_rate_delivers_nothing() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut session = SimSession::builder(&g).config(SimConfig::fast()).build();
        let stats = session.run_synthetic(&TrafficPattern::UniformRandom, 0.0);
        assert_eq!(stats.packets_offered, 0);
        assert_eq!(stats.packets_delivered, 0);
    }

    #[test]
    fn saturation_shows_undelivered_backlog() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut session = SimSession::builder(&g).config(SimConfig::fast()).build();
        let stats = session.run_synthetic(&TrafficPattern::BitComplement, 0.9);
        assert!(
            stats.saturated() || stats.avg_latency > 50.0,
            "bit-complement at 0.9 flits/cy should swamp a 3x3 mesh: {stats}"
        );
    }

    #[test]
    fn shared_plan_matches_owned_plan() {
        let g = builders::clos(4, 4, 4, 500.0).unwrap();
        let config = SimConfig::fast();
        let mut table = RouteTable::new(&g);
        let plan = Arc::new(RoutePlan::synthetic(&g, &mut table, &config));
        let mut shared = SimSession::builder(&g).config(config).plan(plan).build();
        let mut owned = SimSession::builder(&g).config(config).build();
        assert_eq!(
            shared.run_synthetic(&TrafficPattern::Transpose, 0.2),
            owned.run_synthetic(&TrafficPattern::Transpose, 0.2),
        );
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn mismatched_plan_is_rejected() {
        let a = builders::mesh(3, 3, 500.0).unwrap();
        let b = builders::mesh(4, 4, 500.0).unwrap();
        let config = SimConfig::fast();
        let mut table = RouteTable::new(&a);
        let plan = Arc::new(RoutePlan::synthetic(&a, &mut table, &config));
        let _ = SimSession::builder(&b).config(config).plan(plan).build();
    }

    #[test]
    fn compatible_rejects_same_shape_different_edges_and_config() {
        // Same kind, node count and edge count, different capacities:
        // the edge fingerprint must reject (edge ids would index
        // different physical links).
        let a = builders::mesh(3, 4, 500.0).unwrap();
        let b = builders::mesh(3, 4, 400.0).unwrap();
        let config = SimConfig::fast();
        let mut table = RouteTable::new(&a);
        let plan = RoutePlan::synthetic(&a, &mut table, &config);
        assert!(plan.compatible(&a, &config));
        assert!(!plan.compatible(&b, &config));
        // Transposed grid: same counts, different kind parameters.
        let c = builders::mesh(4, 3, 500.0).unwrap();
        assert!(!plan.compatible(&c, &config));
        // Timing-relevant config drift is rejected too; the engine
        // choice is not part of a plan's identity.
        let other = SimConfig {
            packet_flits: 2,
            ..config
        };
        assert!(!plan.compatible(&a, &other));
        let reference = SimConfig {
            engine: SimEngine::Reference,
            ..config
        };
        assert!(plan.compatible(&a, &reference));
    }
}
