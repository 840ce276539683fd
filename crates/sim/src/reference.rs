//! The pre-rebuild simulation engine, kept verbatim as the behavioral
//! oracle for the event-driven production engine.
//!
//! This is the original `Rc`-path, `VecDeque`-buffer implementation.
//! It allocates on the hot path (an `Rc<[NodeId]>` clone per flit, a
//! `HashMap` path cache) and walks the graph's edge iterator every
//! cycle, which is why it was replaced — but its *semantics* are the
//! contract: the equivalence suite in `tests/engine_equivalence.rs`
//! asserts the event engine's [`LatencyStats`] are bit-identical to
//! this engine's for the same seed, and the same suite requires the
//! event engine to stay at least 3× faster than it. Do not optimise
//! this module.

// lint:allow(hash-iter): frozen oracle module, kept byte-for-byte as the equivalence baseline
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{LatencyStats, SimConfig};
use sunmap_mapping::Evaluation;
use sunmap_topology::{dimension_order, paths, NodeId, NodeKind, TopologyGraph};
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::CoreGraph;

#[derive(Debug, Clone)]
struct Flit {
    packet: u64,
    inject_cycle: u64,
    path: Rc<[NodeId]>,
    /// Index into `path` of the node this flit currently occupies.
    hop: usize,
    is_head: bool,
    is_tail: bool,
    ready_at: u64,
    measured: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The injection queue of terminal `t` (index into `terminals`).
    Inject(usize),
    /// The input buffer fed by edge `e`.
    Buffer(usize),
}

/// The flit-level simulator. Create one per run; it borrows the
/// topology graph and owns all queues.
///
/// See the [crate documentation](crate) for the model and an example.
#[derive(Debug)]
pub struct NocSimulator<'a> {
    graph: &'a TopologyGraph,
    config: SimConfig,
    rng: SmallRng,
    terminals: Vec<NodeId>,
    /// Input buffer per directed edge (flits that crossed the edge).
    buffers: Vec<VecDeque<Flit>>,
    /// Injection queue per terminal.
    inject_queues: Vec<VecDeque<Flit>>,
    /// Wormhole output allocation per edge.
    owner: Vec<Option<u64>>,
    /// Round-robin pointer per edge.
    rr: Vec<usize>,
    /// Candidate flit sources at each node (indexed by node id).
    node_sources: Vec<Vec<Source>>,
    /// Minimum-path cache for synthetic routing.
    // lint:allow(hash-iter): frozen oracle — keyed cache, never iterated
    path_cache: HashMap<(NodeId, NodeId), Vec<Rc<[NodeId]>>>,
    next_packet: u64,
    now: u64,
    latencies: Vec<u64>,
    offered: usize,
    /// Flits transferred per edge during the measurement window.
    edge_flits: Vec<u64>,
}

impl<'a> NocSimulator<'a> {
    /// Creates a simulator over `graph` with terminals at its mappable
    /// nodes.
    pub fn new(graph: &'a TopologyGraph, config: SimConfig) -> Self {
        let terminals = graph.mappable_nodes().to_vec();
        let mut node_sources = vec![Vec::new(); graph.node_count()];
        for (i, t) in terminals.iter().enumerate() {
            node_sources[t.index()].push(Source::Inject(i));
        }
        for (eid, edge) in graph.edges() {
            node_sources[edge.dst.index()].push(Source::Buffer(eid.index()));
        }
        NocSimulator {
            graph,
            rng: SmallRng::seed_from_u64(config.seed),
            terminals,
            buffers: vec![VecDeque::new(); graph.edge_count()],
            inject_queues: Vec::new(),
            owner: vec![None; graph.edge_count()],
            rr: vec![0; graph.edge_count()],
            node_sources,
            // lint:allow(hash-iter): frozen oracle — keyed cache, never iterated
            path_cache: HashMap::new(),
            next_packet: 0,
            now: 0,
            latencies: Vec::new(),
            offered: 0,
            edge_flits: vec![0; graph.edge_count()],
            config,
        }
    }

    /// Number of terminals (injection points).
    pub fn terminal_count(&self) -> usize {
        self.terminals.len()
    }

    /// Runs a synthetic-traffic simulation: every terminal injects
    /// packets as a Bernoulli process of `injection_rate` flits per
    /// cycle, destinations drawn from `pattern`, routes drawn uniformly
    /// from the minimum paths.
    pub fn run_synthetic(&mut self, pattern: &TrafficPattern, injection_rate: f64) -> LatencyStats {
        self.reset();
        let n = self.terminals.len();
        let packet_prob = injection_rate / self.config.packet_flits as f64;
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let inject_until = self.config.warmup_cycles + self.config.measure_cycles;
        while self.now < total {
            self.eject();
            if self.now < inject_until {
                for t in 0..n {
                    if self.rng.gen_bool(packet_prob.clamp(0.0, 1.0)) {
                        let Some(dst) = pattern.destination(t, n, &mut self.rng) else {
                            continue;
                        };
                        let src_node = self.terminals[t];
                        let dst_node = self.terminals[dst];
                        if let Some(path) = self.pick_min_path(src_node, dst_node) {
                            self.inject(t, path);
                        }
                    }
                }
            }
            self.transfer();
            self.now += 1;
        }
        self.stats()
    }

    /// Runs a trace-driven simulation of a mapped application: each
    /// commodity injects packets at a rate proportional to its bandwidth
    /// demand, scaled so the heaviest commodity injects `intensity`
    /// flits per cycle, over the paths the mapping evaluation selected.
    pub fn run_trace(
        &mut self,
        eval: &Evaluation,
        app: &CoreGraph,
        intensity: f64,
    ) -> LatencyStats {
        self.reset();
        let max_bw = app
            .commodities()
            .first()
            .map(|c| c.bandwidth)
            .unwrap_or(1.0);
        // Per commodity: source terminal index, packet probability and
        // weighted route choices.
        struct Trace {
            terminal: usize,
            packet_prob: f64,
            routes: Vec<(Rc<[NodeId]>, f64)>,
        }
        // lint:allow(hash-iter): frozen oracle — keyed lookup of terminal indices, never iterated
        let term_index: HashMap<NodeId, usize> = self
            .terminals
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i))
            .collect();
        let traces: Vec<Trace> = eval
            .routes
            .iter()
            .map(|r| Trace {
                terminal: term_index[&r.src_node],
                packet_prob: (intensity * r.commodity.bandwidth
                    / max_bw
                    / self.config.packet_flits as f64)
                    .clamp(0.0, 1.0),
                routes: r
                    .paths
                    .iter()
                    .map(|(p, f)| (Rc::from(p.as_slice()), *f))
                    .collect(),
            })
            .collect();
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let inject_until = self.config.warmup_cycles + self.config.measure_cycles;
        while self.now < total {
            self.eject();
            if self.now < inject_until {
                for tr in &traces {
                    if self.rng.gen_bool(tr.packet_prob) {
                        let pick: f64 = self.rng.gen_range(0.0..1.0);
                        let mut acc = 0.0;
                        let mut chosen = tr.routes.last().expect("commodity has a route").0.clone();
                        for (p, f) in &tr.routes {
                            acc += f;
                            if pick <= acc {
                                chosen = p.clone();
                                break;
                            }
                        }
                        self.inject(tr.terminal, chosen);
                    }
                }
            }
            self.transfer();
            self.now += 1;
        }
        self.stats()
    }

    fn reset(&mut self) {
        self.buffers = vec![VecDeque::new(); self.graph.edge_count()];
        self.inject_queues = vec![VecDeque::new(); self.terminals.len()];
        self.owner = vec![None; self.graph.edge_count()];
        self.rr = vec![0; self.graph.edge_count()];
        self.next_packet = 0;
        self.now = 0;
        self.latencies.clear();
        self.offered = 0;
        self.edge_flits = vec![0; self.graph.edge_count()];
        self.rng = SmallRng::seed_from_u64(self.config.seed);
    }

    /// Route selection for synthetic traffic, deadlock-free by
    /// construction: dimension-ordered routes on direct topologies
    /// (acyclic channel dependencies together with bubble flow control
    /// on torus rings), a random minimum path on the acyclic multistage
    /// networks — which is precisely what gives the Clos its
    /// path-diversity advantage in the paper's §6.2 study.
    fn pick_min_path(&mut self, src: NodeId, dst: NodeId) -> Option<Rc<[NodeId]>> {
        if src == dst {
            return None;
        }
        let graph = self.graph;
        if graph.kind().is_direct() {
            let options = self.path_cache.entry((src, dst)).or_insert_with(|| {
                dimension_order::route(graph, src, dst)
                    .into_iter()
                    .map(|p| Rc::from(p.as_slice()))
                    .collect()
            });
            return options.first().cloned();
        }
        let options = self.path_cache.entry((src, dst)).or_insert_with(|| {
            paths::all_shortest_paths(graph, src, dst, None, 8)
                .into_iter()
                .map(|p| Rc::from(p.as_slice()))
                .collect()
        });
        if options.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..options.len());
        Some(options[i].clone())
    }

    /// Axis of movement of the step `u -> v`, used to detect when a
    /// packet turns into a new ring (grid column/row, hypercube
    /// dimension). `None` for stage networks, which are acyclic anyway.
    fn axis_of(&self, u: NodeId, v: NodeId) -> Option<u32> {
        use sunmap_topology::NodeCoords;
        match (self.graph.coords(u), self.graph.coords(v)) {
            (NodeCoords::Grid { row: r1, .. }, NodeCoords::Grid { row: r2, .. }) => {
                Some(if r1 == r2 { 0 } else { 1 })
            }
            (NodeCoords::Hyper { label: a }, NodeCoords::Hyper { label: b }) => {
                Some(2 + (a ^ b).trailing_zeros())
            }
            _ => None,
        }
    }

    fn inject(&mut self, terminal: usize, path: Rc<[NodeId]>) {
        let measured = self.now >= self.config.warmup_cycles
            && self.now < self.config.warmup_cycles + self.config.measure_cycles;
        if measured {
            self.offered += 1;
        }
        let pid = self.next_packet;
        self.next_packet += 1;
        // The head flit pays the source-switch pipeline before it can
        // leave (injection goes through the local switch for direct
        // topologies; core ports are plain wires).
        let ready = if self.graph.node_kind(path[0]) == NodeKind::Switch {
            self.now + self.config.switch_pipeline
        } else {
            self.now
        };
        for i in 0..self.config.packet_flits {
            self.inject_queues[terminal].push_back(Flit {
                packet: pid,
                inject_cycle: self.now,
                path: path.clone(),
                hop: 0,
                is_head: i == 0,
                is_tail: i + 1 == self.config.packet_flits,
                ready_at: ready,
                measured,
            });
        }
    }

    fn eject(&mut self) {
        for buf in &mut self.buffers {
            let Some(head) = buf.front() else { continue };
            if head.ready_at > self.now || head.hop + 1 != head.path.len() {
                continue;
            }
            let flit = buf.pop_front().expect("head exists");
            if flit.is_tail && flit.measured {
                self.latencies.push(self.now - flit.inject_cycle);
            }
        }
    }

    fn transfer(&mut self) {
        // One flit per edge per cycle; a source queue also releases at
        // most one flit per cycle.
        let terms = self.terminals.len();
        let mut source_moved = vec![false; terms + self.graph.edge_count()];
        let moved_key = |s: Source| match s {
            Source::Inject(t) => t,
            Source::Buffer(b) => terms + b,
        };
        // Virtual cut-through with bubble flow control: a head flit
        // needs space for the whole packet downstream (so tails always
        // drain behind their head), and a head *entering a new ring*
        // (injection or axis turn) must additionally leave one packet
        // of free space — the classic bubble condition that keeps torus
        // rings deadlock-free.
        let pf = self.config.packet_flits;
        let cap = self.config.buffer_depth * pf;
        for (eid, edge) in self.graph.edges() {
            let e = eid.index();
            let free = cap.saturating_sub(self.buffers[e].len());
            if free == 0 {
                continue;
            }
            let srcs = &self.node_sources[edge.src.index()];
            if srcs.is_empty() {
                continue;
            }
            // Find candidate sources whose head flit wants edge `e` now
            // and fits under the VCT/bubble space rule.
            let candidate_ok = |sim: &Self, s: Source| -> Option<u64> {
                let head = match s {
                    Source::Inject(t) => sim.inject_queues[t].front(),
                    Source::Buffer(b) => sim.buffers[b].front(),
                }?;
                if head.ready_at > sim.now {
                    return None;
                }
                if head.hop + 1 >= head.path.len() {
                    return None;
                }
                if head.path[head.hop + 1] != edge.dst || head.path[head.hop] != edge.src {
                    return None;
                }
                let required = if !head.is_head {
                    1
                } else {
                    let ring_entry = match s {
                        Source::Inject(_) => true,
                        Source::Buffer(_) => {
                            head.hop > 0
                                && sim.axis_of(head.path[head.hop - 1], head.path[head.hop])
                                    != sim.axis_of(head.path[head.hop], head.path[head.hop + 1])
                        }
                    };
                    if ring_entry {
                        2 * pf
                    } else {
                        pf
                    }
                };
                (free >= required).then_some(head.packet)
            };
            let chosen = if let Some(pid) = self.owner[e] {
                srcs.iter()
                    .copied()
                    .find(|s| !source_moved[moved_key(*s)] && candidate_ok(self, *s) == Some(pid))
            } else {
                let start = self.rr[e] % srcs.len();
                (0..srcs.len())
                    .map(|k| srcs[(start + k) % srcs.len()])
                    .find(|s| !source_moved[moved_key(*s)] && candidate_ok(self, *s).is_some())
            };
            let Some(src_slot) = chosen else { continue };
            let mut flit = match src_slot {
                Source::Inject(t) => self.inject_queues[t].pop_front(),
                Source::Buffer(b) => self.buffers[b].pop_front(),
            }
            .expect("candidate head exists");
            source_moved[moved_key(src_slot)] = true;
            if self.now >= self.config.warmup_cycles
                && self.now < self.config.warmup_cycles + self.config.measure_cycles
            {
                self.edge_flits[e] += 1;
            }
            self.rr[e] = self.rr[e].wrapping_add(1);
            self.owner[e] = if flit.is_tail {
                None
            } else {
                Some(flit.packet)
            };
            flit.hop += 1;
            let arrived = flit.path[flit.hop];
            // A flit reaching its destination core port leaves the
            // network right here: the egress attach link is an NI wire,
            // not a buffered channel.
            if flit.hop + 1 == flit.path.len()
                && self.graph.node_kind(arrived) == NodeKind::CorePort
            {
                if flit.is_tail && flit.measured {
                    self.latencies.push(self.now - flit.inject_cycle);
                }
                continue;
            }
            // Network links cost one cycle plus the downstream switch
            // pipeline; ingress attach links (from a core port) are short
            // NI wires folded into the adjacent switch traversal, so
            // indirect topologies are not double-charged for their
            // explicit port vertices.
            flit.ready_at = if g_is_attach(self.graph, edge.src, arrived) {
                self.now + self.config.switch_pipeline
            } else {
                self.now + 1 + self.config.switch_pipeline
            };
            self.buffers[e].push_back(flit);
        }
    }

    fn stats(&self) -> LatencyStats {
        let delivered = self.latencies.len();
        let avg = if delivered == 0 {
            0.0
        } else {
            self.latencies.iter().sum::<u64>() as f64 / delivered as f64
        };
        let window = self.config.measure_cycles.max(1) as f64;
        let mut max_util = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut network_edges = 0usize;
        for (eid, edge) in self.graph.edges() {
            if !edge.is_network_link() {
                continue;
            }
            let util = self.edge_flits[eid.index()] as f64 / window;
            max_util = max_util.max(util);
            util_sum += util;
            network_edges += 1;
        }
        LatencyStats {
            avg_latency: avg,
            max_latency: self.latencies.iter().copied().max().unwrap_or(0),
            packets_offered: self.offered,
            packets_delivered: delivered,
            throughput: delivered as f64 * self.config.packet_flits as f64
                / (self.config.measure_cycles as f64 * self.terminals.len().max(1) as f64),
            measured_cycles: self.config.measure_cycles,
            max_link_utilization: max_util,
            mean_link_utilization: if network_edges > 0 {
                util_sum / network_edges as f64
            } else {
                0.0
            },
        }
    }
}

/// Whether the step `src -> dst` is a core-attach link (one endpoint is
/// a core port).
fn g_is_attach(g: &TopologyGraph, src: NodeId, dst: NodeId) -> bool {
    g.node_kind(src) == NodeKind::CorePort || g.node_kind(dst) == NodeKind::CorePort
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_mapping::{Mapper, MapperConfig};
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    #[test]
    fn zero_rate_delivers_nothing() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let stats = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.0);
        assert_eq!(stats.packets_offered, 0);
        assert_eq!(stats.packets_delivered, 0);
    }

    #[test]
    fn low_load_delivers_everything() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let stats = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.02);
        assert!(stats.packets_offered > 0);
        assert!(
            stats.delivery_ratio() > 0.99,
            "low load must not saturate: {stats}"
        );
        // Zero-load-ish latency: a couple of switch traversals plus
        // serialization of a 4-flit packet.
        assert!(
            stats.avg_latency > 4.0 && stats.avg_latency < 30.0,
            "{stats}"
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let g = builders::mesh(4, 4, 500.0).unwrap();
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let low = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let high = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.35);
        assert!(
            high.avg_latency > low.avg_latency,
            "high {high} vs low {low}"
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let g = builders::torus(3, 3, 500.0).unwrap();
        let run = || {
            let mut sim = NocSimulator::new(&g, SimConfig::fast());
            sim.run_synthetic(&TrafficPattern::Tornado, 0.1)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut cfg = SimConfig::fast();
        let mut sim = NocSimulator::new(&g, cfg);
        let a = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.1);
        cfg.seed = 7;
        let mut sim = NocSimulator::new(&g, cfg);
        let b = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.1);
        assert_ne!(a, b);
    }

    #[test]
    fn butterfly_and_clos_terminals_work() {
        for g in [
            builders::butterfly(4, 2, 500.0).unwrap(),
            builders::clos(4, 4, 4, 500.0).unwrap(),
        ] {
            let mut sim = NocSimulator::new(&g, SimConfig::fast());
            assert_eq!(sim.terminal_count(), 16);
            let stats = sim.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
            assert!(stats.packets_delivered > 0, "{}: {stats}", g.kind());
        }
    }

    #[test]
    fn trace_driven_vopd_runs() {
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let mapping = Mapper::new(&g, &app, MapperConfig::default())
            .run()
            .unwrap();
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let stats = sim.run_trace(mapping.evaluation(), &app, 0.2);
        assert!(stats.packets_delivered > 0);
        assert!(stats.avg_latency > 0.0);
    }

    #[test]
    fn saturation_shows_undelivered_backlog() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let mut sim = NocSimulator::new(&g, SimConfig::fast());
        let stats = sim.run_synthetic(&TrafficPattern::BitComplement, 0.9);
        assert!(
            stats.saturated() || stats.avg_latency > 50.0,
            "bit-complement at 0.9 flits/cy should swamp a 3x3 mesh: {stats}"
        );
    }
}
