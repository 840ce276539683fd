//! The simulator's shared vocabulary: the engine choice
//! ([`SimEngine`]), the model parameters ([`SimConfig`]), the `Copy`
//! flit record and the compiled [`RoutePlan`].
//!
//! * **flits in the network are `Copy` records** (40 bytes: route id,
//!   hop index, packet id, next-edge demand, timestamps, flags) instead
//!   of heap nodes holding an `Rc<[NodeId]>` path — an engine's
//!   per-edge ring-buffer slab is the flit pool, indexed by
//!   `edge × slot`. Packets still waiting to inject are not flits yet:
//!   the event engine queues one 16-byte record per packet and builds
//!   its flits one at a time as each reaches the queue's front;
//! * **routes are enumerated once per pair**, with the same topology
//!   calls the [`reference`](crate::reference) engine makes, and
//!   compiled into a [`RoutePlan`] — a flat arena of 8-byte per-hop
//!   records holding the edge id and the three facts the bubble-rule
//!   space requirement and the arrival-latency increment derive from,
//!   so the arbitration loop never touches the graph, never recomputes
//!   a turn axis and never hashes a pair key.

use sunmap_mapping::{Evaluation, RouteTable};
use sunmap_topology::{
    dimension_order, paths, EdgeId, NodeCoords, NodeId, NodeKind, TopologyGraph, TopologyKind,
};

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
/// Only the per-edge rings store flits; a terminal's backlog stores
/// packets and builds each flit when it becomes the queue's head.
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

/// One precompiled hop of a route, resolved at plan-build time: 8
/// bytes, the edge id and three flags. The arrival-latency increment
/// and a head flit's space requirement derive from the flags and the
/// two config fields the plan pins ([`RoutePlan::ready_add`],
/// [`RoutePlan::head_space`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HopStep {
    /// The directed edge this step crosses.
    pub(crate) edge: u32,
    /// The edge touches a core port: an NI wire folded into the switch,
    /// so arrival costs no link cycle.
    pub(crate) attach: bool,
    /// The step enters a new ring (injection or axis turn), where a head
    /// flit needs two packets of space — the bubble condition keeping
    /// torus rings deadlock-free.
    pub(crate) ring_entry: bool,
    /// Whether a flit finishing this step leaves the network at a core
    /// port (indirect-topology egress) instead of entering the buffer.
    pub(crate) eject_at_dst: bool,
}

const _: () = assert!(std::mem::size_of::<HopStep>() <= 8);

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
    /// Compiles the route through `nodes`, resolving each window's
    /// directed edge through `edge_of`, and returns its route id.
    fn push_route(
        &mut self,
        g: &TopologyGraph,
        edge_of: impl Fn(NodeId, NodeId) -> Option<EdgeId>,
        nodes: &[NodeId],
    ) -> u32 {
        let first_step = self.steps.len() as u32;
        let hops = nodes.len() - 1;
        for (i, w) in nodes.windows(2).enumerate() {
            let (u, v) = (w[0], w[1]);
            let edge = edge_of(u, v).expect("routes follow topology edges");
            self.steps.push(HopStep {
                edge: edge.index() as u32,
                attach: g.node_kind(u) == NodeKind::CorePort
                    || g.node_kind(v) == NodeKind::CorePort,
                ring_entry: i == 0 || axis_of(g, nodes[i - 1], u) != axis_of(g, u, v),
                eject_at_dst: i + 1 == hops && g.node_kind(v) == NodeKind::CorePort,
            });
        }
        self.routes.push(RouteSpan {
            first_step,
            step_count: hops as u16,
            start_at_switch: g.node_kind(nodes[0]) == NodeKind::Switch,
        });
        (self.routes.len() - 1) as u32
    }
}

/// The compiled per-pair routes of one topology under one simulator
/// configuration: built once and shareable across simulators — the
/// sweep driver builds one plan per topology and hands clones of the
/// `Arc` to every rate worker.
#[derive(Debug)]
pub struct RoutePlan {
    pub(crate) arena: RouteArena,
    /// Terminal-pair table: `pair_offsets[t*n+d]..pair_offsets[t*n+d+1]`
    /// indexes `route_ids`.
    pair_offsets: Vec<u32>,
    route_ids: Vec<u32>,
    /// Identity of the compiled-for graph: kind, shape and
    /// [`TopologyGraph::fingerprint`], so [`RoutePlan::compatible`]
    /// rejects a merely same-shaped graph whose edge ids mean different
    /// physical links.
    kind: TopologyKind,
    fingerprint: u64,
    terminal_count: usize,
    edge_count: usize,
    /// Direct topologies take the single dimension-ordered route; on
    /// indirect ones the simulator picks uniformly among the set.
    pub(crate) direct: bool,
    /// The config fields every [`HopStep`]'s derived timing and space
    /// read ([`RoutePlan::ready_add`], [`RoutePlan::head_space`]);
    /// [`RoutePlan::compatible`] pins both.
    packet_flits: usize,
    switch_pipeline: u64,
}

impl RoutePlan {
    /// Compiles the synthetic-traffic routes of `g` under `config`
    /// with the [`reference`](crate::reference) engine's calls:
    /// [`dimension_order::route`] on direct topologies (deadlock-free
    /// with the bubble rule), [`paths::all_shortest_paths`] capped at
    /// [`SIM_PATH_CAP`] on the acyclic multistage networks. `table`
    /// lends only its adjacency matrix and terminal order
    /// ([`RouteTable::mappable_nodes`]); its per-pair stores are the
    /// mapper's, and compiling a plan neither reads nor fills them.
    ///
    /// # Panics
    ///
    /// Panics if `table` was built for a different graph.
    pub fn synthetic(g: &TopologyGraph, table: &RouteTable, config: &SimConfig) -> RoutePlan {
        assert!(table.matches(g), "route table built for a different graph");
        let direct = g.kind().is_direct();
        let (terminals, adj) = (table.mappable_nodes(), table.adjacency());
        let n = terminals.len();
        let mut arena = RouteArena::default();
        let mut pair_offsets = Vec::with_capacity(n * n + 1);
        let mut route_ids = Vec::new();
        pair_offsets.push(0u32);
        for &a in terminals {
            for &b in terminals {
                if a != b {
                    let routes = if direct {
                        dimension_order::route(g, a, b).into_iter().collect()
                    } else {
                        paths::all_shortest_paths(g, a, b, None, SIM_PATH_CAP)
                    };
                    for nodes in &routes {
                        route_ids.push(arena.push_route(g, |u, v| adj.edge_between(u, v), nodes));
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
            fingerprint: g.fingerprint(),
            terminal_count: n,
            edge_count: g.edge_count(),
            direct,
            packet_flits: config.packet_flits,
            switch_pipeline: config.switch_pipeline,
        }
    }

    /// Compiles a trace plan from a mapping evaluation's chosen paths
    /// (no pair table; routes are addressed by id). Path windows resolve
    /// through [`TopologyGraph::find_edge`], which picks the same edge
    /// the adjacency matrix would, without its `node_count²` table.
    pub(crate) fn trace(
        g: &TopologyGraph,
        config: &SimConfig,
        eval: &Evaluation,
    ) -> (RoutePlan, Vec<Trace>) {
        let mut arena = RouteArena::default();
        let mut traces = Vec::with_capacity(eval.routes.len());
        let mut term_of = vec![u32::MAX; g.node_count()];
        for (i, t) in g.mappable_nodes().iter().enumerate() {
            term_of[t.index()] = i as u32;
        }
        for r in &eval.routes {
            let mut routes = Vec::with_capacity(r.paths.len());
            for (p, f) in &r.paths {
                routes.push((arena.push_route(g, |u, v| g.find_edge(u, v), p), *f));
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
            fingerprint: g.fingerprint(),
            terminal_count: g.mappable_nodes().len(),
            edge_count: g.edge_count(),
            direct: g.kind().is_direct(),
            packet_flits: config.packet_flits,
            switch_pipeline: config.switch_pipeline,
        };
        (plan, traces)
    }

    /// Cycles a flit finishing `step` adds to its `ready_at`: the
    /// downstream switch pipeline, plus one link cycle off attach links.
    #[inline]
    pub(crate) fn ready_add(&self, step: HopStep) -> u64 {
        if step.attach {
            self.switch_pipeline
        } else {
            1 + self.switch_pipeline
        }
    }

    /// Free downstream space a *head* flit needs to take `step`: one
    /// packet, or two on a ring entry.
    #[inline]
    pub(crate) fn head_space(&self, step: HopStep) -> u32 {
        let pf = self.packet_flits as u32;
        if step.ring_entry {
            2 * pf
        } else {
            pf
        }
    }

    #[inline]
    pub(crate) fn routes_for(&self, src_terminal: usize, dst_terminal: usize) -> &[u32] {
        let p = src_terminal * self.terminal_count + dst_terminal;
        let lo = self.pair_offsets[p] as usize;
        let hi = self.pair_offsets[p + 1] as usize;
        &self.route_ids[lo..hi]
    }

    /// Whether this plan was compiled for `g` under `config`: same
    /// topology kind, shape, directed edge list (endpoints and
    /// capacities, order-sensitive) and timing-relevant parameters.
    pub fn compatible(&self, g: &TopologyGraph, config: &SimConfig) -> bool {
        self.kind == g.kind()
            && self.terminal_count == g.mappable_nodes().len()
            && self.edge_count == g.edge_count()
            && self.fingerprint == g.fingerprint()
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
        let table = RouteTable::new(&g);
        let plan = Arc::new(RoutePlan::synthetic(&g, &table, &config));
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
        let table = RouteTable::new(&a);
        let plan = Arc::new(RoutePlan::synthetic(&a, &table, &config));
        let _ = SimSession::builder(&b).config(config).plan(plan).build();
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn synthetic_rejects_a_table_for_another_graph() {
        // Same kind and counts; only the capacities differ.
        let a = builders::mesh(3, 4, 500.0).unwrap();
        let b = builders::mesh(3, 4, 400.0).unwrap();
        let table = RouteTable::new(&b);
        let _ = RoutePlan::synthetic(&a, &table, &SimConfig::fast());
    }

    #[test]
    fn compatible_rejects_same_shape_different_edges_and_config() {
        // Same kind, node count and edge count, different capacities:
        // the edge fingerprint must reject (edge ids would index
        // different physical links).
        let a = builders::mesh(3, 4, 500.0).unwrap();
        let b = builders::mesh(3, 4, 400.0).unwrap();
        let config = SimConfig::fast();
        let table = RouteTable::new(&a);
        let plan = RoutePlan::synthetic(&a, &table, &config);
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
