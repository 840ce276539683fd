//! The event-driven active-set cycle engine: the production simulator
//! behind every [`SimSession`](crate::SimSession) run except the
//! reference oracle's.
//!
//! A cycle costs `O(k)` in the number of active elements instead of
//! `O(V + E)` — a dense scan of every edge would pay for the whole
//! network even with one flit in flight, the regime that dominates the
//! paper's Fig. 8(b) curves (most of the x-axis is low load) and any
//! 256+-core grid:
//!
//! * **active sets** ([`ActiveSet`], a two-level dense bitset iterated
//!   in ascending index order) track the edges with at least one
//!   *ready* queued head flit wanting them, and the rings whose head
//!   flit is final and ready to eject. Both sets are maintained
//!   incrementally at every enqueue, dequeue and head change, next to
//!   a denormalised per-source mirror of each queue's head flit;
//! * an **event wheel** ([`WheelEvent`]) wakes the bookkeeping for
//!   in-flight hop completions: a head flit whose `ready_at` is still
//!   in the future is *not* kept in any scanned set — a wheel slot
//!   fires at exactly its readiness cycle and re-inserts it. The wheel
//!   needs only `switch_pipeline + 2` slots because no per-hop latency
//!   increment exceeds `switch_pipeline + 1` cycles.
//!
//! Tie-breaking and arbitration order are **bit-identical** to the
//! reference engine's: transfer and eject walk their sets in ascending
//! edge-id order (the order of the reference's edge-iterator scans),
//! the per-edge round-robin/owner arbitration is the same, and
//! the RNG is consumed in exactly the same order (the per-terminal
//! injection loop is inherently `O(terminals)`). Mid-cycle activations
//! are preserved too: the set iterator re-reads live words after each
//! element, so a ring that gains its first flit while edge `e`
//! transfers can make a later edge `e' > e` eligible in the same
//! cycle, exactly like the reference's live head reads.
//!
//! `tests/engine_equivalence.rs` checks reference == event across
//! topologies, patterns, rates and trace mode;
//! `tests/regression_fixtures.rs` replays the pinned fixtures through
//! this engine bit for bit.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Flit, RoutePlan, SimConfig, F_HEAD, F_MEASURED, F_TAIL, NO_EDGE, NO_OWNER};
use crate::LatencyStats;
use sunmap_mapping::Evaluation;
use sunmap_topology::{NodeId, TopologyGraph};
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::CoreGraph;

/// A two-level dense bitset over `0..n` supporting O(1) insert/remove
/// and sorted ascending iteration in `O(k + words visited)`. The
/// summary level marks nonzero words, so scanning an almost-empty set
/// over a large universe touches a handful of cache lines.
#[derive(Debug)]
struct ActiveSet {
    words: Vec<u64>,
    /// `summary[w >> 6]` bit `w & 63` set iff `words[w] != 0`.
    summary: Vec<u64>,
}

impl ActiveSet {
    fn new(n: usize) -> Self {
        let nw = n.div_ceil(64).max(1);
        ActiveSet {
            words: vec![0; nw],
            summary: vec![0; nw.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] |= 1u64 << (i & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] &= !(1u64 << (i & 63));
        if self.words[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
    }

    /// Smallest set element `>= from`, reading the live words — an
    /// element inserted mid-iteration at a position above the cursor
    /// is observed, matching the reference engine's in-cycle
    /// activations.
    #[inline]
    fn first_at_least(&self, from: usize) -> Option<usize> {
        let nw = self.words.len();
        let mut w = from >> 6;
        if w >= nw {
            return None;
        }
        let rem = self.words[w] & (!0u64 << (from & 63));
        if rem != 0 {
            return Some((w << 6) + rem.trailing_zeros() as usize);
        }
        w += 1;
        let mut sw = w >> 6;
        while sw < self.summary.len() {
            let mask = if sw == w >> 6 {
                !0u64 << (w & 63)
            } else {
                !0u64
            };
            let s = self.summary[sw] & mask;
            if s != 0 {
                let wi = (sw << 6) + s.trailing_zeros() as usize;
                let word = self.words[wi];
                debug_assert_ne!(word, 0, "summary bit set for an empty word");
                return Some((wi << 6) + word.trailing_zeros() as usize);
            }
            sw += 1;
        }
        None
    }
}

/// One scheduled wake-up. Both kinds carry a generation stamp taken
/// when they were scheduled; a fired event whose stamp no longer
/// matches is stale (the head it described changed first) and is
/// dropped — validation costs O(1) and stale events are bounded by
/// the number of head changes, i.e. by traffic.
#[derive(Debug, Clone, Copy)]
enum WheelEvent {
    /// Source slot `slot`'s pending head becomes ready: count it into
    /// its wanted edge's active entry.
    Want { slot: u32, gen: u32 },
    /// Ring `ring`'s final head becomes ready: it can eject.
    Eject { ring: u32, gen: u32 },
}

/// The event-driven flit-level simulator. Crate-private: built and
/// driven through [`crate::SimSession`].
#[derive(Debug)]
pub(crate) struct EventSimulator<'a> {
    graph: &'a TopologyGraph,
    config: SimConfig,
    rng: SmallRng,
    terminals: Vec<NodeId>,

    // Static per-graph arrays.
    edge_src: Vec<u32>,
    edge_is_net: Vec<bool>,
    ns_offsets: Vec<u32>,
    ns_items: Vec<u32>,

    // Ring buffers: one slab, `cap` slots per edge.
    cap: u32,
    ring_slots: Vec<Flit>,
    ring_head: Vec<u32>,
    ring_len: Vec<u32>,
    ring_ready: Vec<u64>,
    ring_final: Vec<bool>,

    inject: Vec<VecDeque<Flit>>,
    owner: Vec<u32>,
    rr: Vec<u32>,
    source_moved: Vec<bool>,
    /// Sources flagged in `source_moved` this cycle, so clearing the
    /// flags costs O(moved) instead of an O(sources) fill.
    moved_log: Vec<u32>,

    // Denormalised head-flit mirror per source, aligned with
    // `ns_items`: the edge the head wants (`NO_EDGE` = empty source or
    // a flit at its final node), its packet id, space requirement and
    // readiness timestamp, updated at every queue-head change.
    want_edge: Vec<u32>,
    want_packet: Vec<u32>,
    want_required: Vec<u32>,
    want_ready: Vec<u64>,
    source_slot: Vec<u32>,

    // Event-driven state.
    /// Per source slot: whether its (ready) head is currently counted
    /// in `want_ready_count[want_edge]`.
    counted: Vec<bool>,
    /// Per source slot: bumped at every head change; stale wheel
    /// events carry an older stamp and are dropped.
    desire_gen: Vec<u32>,
    /// Per ring: bumped at every head change (same invalidation role).
    ring_gen: Vec<u32>,
    /// Per edge: number of *ready* queued heads wanting it; the edge
    /// is in `active_edges` iff nonzero.
    want_ready_count: Vec<u32>,
    /// Edges with at least one ready head wanting them, iterated in
    /// ascending edge order by the transfer scan.
    active_edges: ActiveSet,
    /// Rings whose head flit is final and ready, iterated in ascending
    /// edge order by the eject scan.
    eject_ready: ActiveSet,
    /// Event wheel: slot `cycle % wheel.len()` holds the events firing
    /// at `cycle`. `switch_pipeline + 2` slots cover every possible
    /// in-flight completion delay.
    wheel: Vec<Vec<WheelEvent>>,

    next_packet: u32,
    now: u64,
    latencies: Vec<u64>,
    offered: usize,
    edge_flits: Vec<u64>,
    in_flight: u64,
}

impl<'a> EventSimulator<'a> {
    pub(crate) fn build(graph: &'a TopologyGraph, config: SimConfig) -> Self {
        let terminals = graph.mappable_nodes().to_vec();
        let terms = terminals.len();
        let edge_count = graph.edge_count();
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); graph.node_count()];
        for (i, t) in terminals.iter().enumerate() {
            per_node[t.index()].push(i as u32);
        }
        let mut edge_src = vec![0u32; edge_count];
        let mut edge_is_net = vec![false; edge_count];
        for (eid, edge) in graph.edges() {
            per_node[edge.dst.index()].push((terms + eid.index()) as u32);
            edge_src[eid.index()] = edge.src.index() as u32;
            edge_is_net[eid.index()] = edge.is_network_link();
        }
        let mut ns_offsets = Vec::with_capacity(graph.node_count() + 1);
        let mut ns_items = Vec::new();
        ns_offsets.push(0u32);
        for list in &per_node {
            ns_items.extend_from_slice(list);
            ns_offsets.push(ns_items.len() as u32);
        }
        let mut source_slot = vec![0u32; terms + edge_count];
        for (k, &s) in ns_items.iter().enumerate() {
            source_slot[s as usize] = k as u32;
        }
        let cap = (config.buffer_depth * config.packet_flits) as u32;
        let wheel_slots = (config.switch_pipeline + 2) as usize;
        EventSimulator {
            graph,
            rng: SmallRng::seed_from_u64(config.seed),
            terminals,
            edge_src,
            edge_is_net,
            ns_offsets,
            ns_items,
            cap,
            ring_slots: vec![Flit::EMPTY; edge_count * cap as usize],
            ring_head: vec![0; edge_count],
            ring_len: vec![0; edge_count],
            ring_ready: vec![0; edge_count],
            ring_final: vec![false; edge_count],
            inject: (0..terms).map(|_| VecDeque::new()).collect(),
            owner: vec![NO_OWNER; edge_count],
            rr: vec![0; edge_count],
            source_moved: vec![false; terms + edge_count],
            moved_log: Vec::new(),
            want_edge: vec![NO_EDGE; terms + edge_count],
            want_packet: vec![0; terms + edge_count],
            want_required: vec![1; terms + edge_count],
            want_ready: vec![0; terms + edge_count],
            source_slot,
            counted: vec![false; terms + edge_count],
            desire_gen: vec![0; terms + edge_count],
            ring_gen: vec![0; edge_count],
            want_ready_count: vec![0; edge_count],
            active_edges: ActiveSet::new(edge_count),
            eject_ready: ActiveSet::new(edge_count),
            wheel: (0..wheel_slots).map(|_| Vec::new()).collect(),
            next_packet: 0,
            now: 0,
            latencies: Vec::new(),
            offered: 0,
            edge_flits: vec![0; edge_count],
            in_flight: 0,
            config,
        }
    }

    /// Runs a synthetic-traffic simulation over the compiled `plan`
    /// (traffic model: [`SimSession::run_synthetic`](crate::SimSession::run_synthetic)).
    pub(crate) fn run_synthetic(
        &mut self,
        plan: &RoutePlan,
        pattern: &TrafficPattern,
        injection_rate: f64,
    ) -> LatencyStats {
        self.reset();
        let n = self.terminals.len();
        let packet_prob = (injection_rate / self.config.packet_flits as f64).clamp(0.0, 1.0);
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let inject_until = self.config.warmup_cycles + self.config.measure_cycles;
        while self.now < total {
            self.drain_wheel();
            self.eject();
            if self.now < inject_until {
                for t in 0..n {
                    if self.rng.gen_bool(packet_prob) {
                        let Some(dst) = pattern.destination(t, n, &mut self.rng) else {
                            continue;
                        };
                        let ids = plan.routes_for(t, dst);
                        if ids.is_empty() {
                            continue;
                        }
                        let rid = if plan.direct {
                            ids[0]
                        } else {
                            ids[self.rng.gen_range(0..ids.len())]
                        };
                        self.inject_packet(t, rid, plan);
                    }
                }
            } else if self.in_flight == 0 {
                break;
            }
            self.transfer(plan);
            self.now += 1;
        }
        self.stats()
    }

    /// Runs a trace-driven simulation of a mapped application (traffic
    /// model: [`SimSession::run_trace`](crate::SimSession::run_trace)).
    pub(crate) fn run_trace(
        &mut self,
        eval: &Evaluation,
        app: &CoreGraph,
        intensity: f64,
    ) -> LatencyStats {
        let (plan, mut traces) = RoutePlan::trace(self.graph, &self.config, eval);
        let max_bw = app
            .commodities()
            .first()
            .map(|c| c.bandwidth)
            .unwrap_or(1.0);
        for tr in &mut traces {
            tr.packet_prob = (intensity * tr.bandwidth / max_bw / self.config.packet_flits as f64)
                .clamp(0.0, 1.0);
        }
        self.reset();
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let inject_until = self.config.warmup_cycles + self.config.measure_cycles;
        while self.now < total {
            self.drain_wheel();
            self.eject();
            if self.now < inject_until {
                for tr in &traces {
                    if self.rng.gen_bool(tr.packet_prob) {
                        let pick: f64 = self.rng.gen_range(0.0..1.0);
                        let mut acc = 0.0;
                        let mut chosen = tr.routes.last().expect("commodity has a route").0;
                        for &(rid, f) in &tr.routes {
                            acc += f;
                            if pick <= acc {
                                chosen = rid;
                                break;
                            }
                        }
                        self.inject_packet(tr.terminal, chosen, &plan);
                    }
                }
            } else if self.in_flight == 0 {
                break;
            }
            self.transfer(&plan);
            self.now += 1;
        }
        self.stats()
    }

    fn reset(&mut self) {
        self.ring_head.fill(0);
        self.ring_len.fill(0);
        for q in &mut self.inject {
            q.clear();
        }
        self.owner.fill(NO_OWNER);
        self.rr.fill(0);
        self.want_edge.fill(NO_EDGE);
        self.counted.fill(false);
        self.desire_gen.fill(0);
        self.ring_gen.fill(0);
        self.want_ready_count.fill(0);
        self.active_edges.clear();
        self.eject_ready.clear();
        for slot in &mut self.wheel {
            slot.clear();
        }
        // The per-cycle clearing is log-driven, so a run that ended
        // mid-log must not leak moved flags into the next run.
        self.source_moved.fill(false);
        self.moved_log.clear();
        self.next_packet = 0;
        self.now = 0;
        self.latencies.clear();
        self.offered = 0;
        self.edge_flits.fill(0);
        self.in_flight = 0;
        self.rng = SmallRng::seed_from_u64(self.config.seed);
    }

    /// Schedules `ev` for cycle `at` (which must be within the wheel
    /// horizon: `at - now <= switch_pipeline + 1`).
    #[inline]
    fn schedule(&mut self, at: u64, ev: WheelEvent) {
        debug_assert!(at > self.now && at - self.now < self.wheel.len() as u64);
        let w = (at % self.wheel.len() as u64) as usize;
        self.wheel[w].push(ev);
    }

    /// Fires the events scheduled for this cycle, moving now-ready
    /// heads into the scanned sets. Runs before the eject phase so an
    /// ejection becoming ready this cycle happens this cycle — exactly
    /// when the reference engine's dense scan would have seen it.
    fn drain_wheel(&mut self) {
        let w = (self.now % self.wheel.len() as u64) as usize;
        if self.wheel[w].is_empty() {
            return;
        }
        let mut events = std::mem::take(&mut self.wheel[w]);
        for ev in events.drain(..) {
            match ev {
                WheelEvent::Want { slot, gen } => {
                    let k = slot as usize;
                    if self.desire_gen[k] == gen {
                        debug_assert!(
                            self.want_edge[k] != NO_EDGE
                                && self.want_ready[k] == self.now
                                && !self.counted[k]
                        );
                        self.count_ready(k);
                    }
                }
                WheelEvent::Eject { ring, gen } => {
                    let b = ring as usize;
                    if self.ring_gen[b] == gen {
                        debug_assert!(
                            self.ring_len[b] > 0
                                && self.ring_final[b]
                                && self.ring_ready[b] == self.now
                        );
                        self.eject_ready.insert(b);
                    }
                }
            }
        }
        // Hand the drained Vec's allocation back to the slot.
        self.wheel[w] = events;
    }

    /// Counts slot `k`'s ready head into its wanted edge, activating
    /// the edge when it is the first.
    #[inline]
    fn count_ready(&mut self, k: usize) {
        self.counted[k] = true;
        let e = self.want_edge[k] as usize;
        if self.want_ready_count[e] == 0 {
            self.active_edges.insert(e);
        }
        self.want_ready_count[e] += 1;
    }

    fn inject_packet(&mut self, terminal: usize, route: u32, plan: &RoutePlan) {
        let measured = self.now >= self.config.warmup_cycles
            && self.now < self.config.warmup_cycles + self.config.measure_cycles;
        if measured {
            self.offered += 1;
        }
        let packet = self.next_packet;
        self.next_packet += 1;
        let ready_at = if plan.arena.routes[route as usize].start_at_switch {
            self.now + self.config.switch_pipeline
        } else {
            self.now
        };
        let pf = self.config.packet_flits;
        let base = if measured { F_MEASURED } else { 0 };
        let fresh_head = self.inject[terminal].is_empty();
        let span = plan.arena.routes[route as usize];
        let (next_edge, head_space) = if span.step_count == 0 {
            (NO_EDGE, 1)
        } else {
            let step = plan.arena.steps[span.first_step as usize];
            (step.edge, step.head_space)
        };
        for i in 0..pf {
            let mut flags = base;
            let mut required = 1;
            if i == 0 {
                flags |= F_HEAD;
                required = head_space;
            }
            if i + 1 == pf {
                flags |= F_TAIL;
            }
            self.inject[terminal].push_back(Flit {
                ready_at,
                inject_cycle: self.now,
                route,
                packet,
                next_edge,
                required,
                hop: 0,
                flags,
            });
        }
        self.in_flight += pf as u64;
        if fresh_head {
            self.update_source_desire(terminal as u32);
        }
    }

    /// The head flit of encoded source `s`, if any.
    #[inline]
    fn source_head(&self, s: u32) -> Option<&Flit> {
        let s = s as usize;
        let terms = self.terminals.len();
        if s < terms {
            self.inject[s].front()
        } else {
            let b = s - terms;
            if self.ring_len[b] == 0 {
                None
            } else {
                Some(&self.ring_slots[b * self.cap as usize + self.ring_head[b] as usize])
            }
        }
    }

    /// Mirrors source `s`'s (possibly new) head flit into its desire
    /// entry, retiring the old head's active-set contribution and
    /// either counting the new head immediately (ready) or scheduling
    /// its readiness on the wheel (pending). Called at every
    /// queue-head change, so the sets always match a live read of the
    /// heads.
    fn update_source_desire(&mut self, s: u32) {
        let k = self.source_slot[s as usize] as usize;
        self.desire_gen[k] = self.desire_gen[k].wrapping_add(1);
        if self.counted[k] {
            self.counted[k] = false;
            let e = self.want_edge[k] as usize;
            self.want_ready_count[e] -= 1;
            if self.want_ready_count[e] == 0 {
                self.active_edges.remove(e);
            }
        }
        match self.source_head(s).copied() {
            Some(head) => {
                self.want_edge[k] = head.next_edge;
                self.want_packet[k] = head.packet;
                self.want_required[k] = head.required;
                self.want_ready[k] = head.ready_at;
                if head.next_edge != NO_EDGE {
                    if head.ready_at <= self.now {
                        self.count_ready(k);
                    } else {
                        let gen = self.desire_gen[k];
                        self.schedule(
                            head.ready_at,
                            WheelEvent::Want {
                                slot: k as u32,
                                gen,
                            },
                        );
                    }
                }
            }
            None => {
                self.want_edge[k] = NO_EDGE;
            }
        }
    }

    /// Refreshes ring `b`'s denormalised head metadata *and* its eject
    /// bookkeeping (set membership or a wheel wake-up). `b` must be
    /// nonempty.
    #[inline]
    fn sync_ring_head(&mut self, b: usize) {
        self.ring_gen[b] = self.ring_gen[b].wrapping_add(1);
        let head = self.ring_slots[b * self.cap as usize + self.ring_head[b] as usize];
        self.ring_ready[b] = head.ready_at;
        self.ring_final[b] = head.next_edge == NO_EDGE;
        if self.ring_final[b] {
            if head.ready_at <= self.now {
                self.eject_ready.insert(b);
            } else {
                self.eject_ready.remove(b);
                let gen = self.ring_gen[b];
                self.schedule(
                    head.ready_at,
                    WheelEvent::Eject {
                        ring: b as u32,
                        gen,
                    },
                );
            }
        } else {
            self.eject_ready.remove(b);
        }
    }

    fn pop_source(&mut self, s: u32) -> Flit {
        let s = s as usize;
        let terms = self.terminals.len();
        if s < terms {
            let flit = self.inject[s].pop_front().expect("candidate head exists");
            self.update_source_desire(s as u32);
            flit
        } else {
            let b = s - terms;
            let cap = self.cap;
            let flit = self.ring_slots[b * cap as usize + self.ring_head[b] as usize];
            self.ring_head[b] = (self.ring_head[b] + 1) % cap;
            self.ring_len[b] -= 1;
            if self.ring_len[b] == 0 {
                self.ring_gen[b] = self.ring_gen[b].wrapping_add(1);
                self.eject_ready.remove(b);
            } else {
                self.sync_ring_head(b);
            }
            self.update_source_desire((terms + b) as u32);
            flit
        }
    }

    /// Ejects every ready final head, walking only the rings in the
    /// eject set — ascending edge order, one pop per ring per cycle,
    /// identical to the reference engine's dense scan.
    fn eject(&mut self) {
        if self.in_flight == 0 {
            return;
        }
        let cap = self.cap as usize;
        let mut next = self.eject_ready.first_at_least(0);
        while let Some(e) = next {
            debug_assert!(
                self.ring_len[e] > 0 && self.ring_final[e] && self.ring_ready[e] <= self.now,
                "eject set holds only ready final heads"
            );
            let head = self.ring_slots[e * cap + self.ring_head[e] as usize];
            self.ring_head[e] = (self.ring_head[e] + 1) % self.cap;
            self.ring_len[e] -= 1;
            if self.ring_len[e] == 0 {
                self.ring_gen[e] = self.ring_gen[e].wrapping_add(1);
                self.eject_ready.remove(e);
            } else {
                self.sync_ring_head(e);
            }
            self.update_source_desire((self.terminals.len() + e) as u32);
            self.in_flight -= 1;
            if head.flags & F_TAIL != 0 && head.flags & F_MEASURED != 0 {
                self.latencies.push(self.now - head.inject_cycle);
            }
            // Advance strictly past `e`: a new final-and-ready head on
            // this ring keeps its bit but must wait for next cycle's
            // scan, matching the reference engine's single pass.
            next = self.eject_ready.first_at_least(e + 1);
        }
    }

    /// Transfers at most one flit per active edge, walking only the
    /// edges with a ready wanting head — ascending edge order with the
    /// reference engine's exact owner/round-robin arbitration. One flit
    /// per edge per cycle; a source queue also releases at most one
    /// flit per cycle. Virtual cut-through with bubble flow control
    /// (see `HopStep::head_space`).
    fn transfer(&mut self, plan: &RoutePlan) {
        if self.in_flight == 0 {
            return;
        }
        for &s in &self.moved_log {
            self.source_moved[s as usize] = false;
        }
        self.moved_log.clear();
        let measure_window = self.now >= self.config.warmup_cycles
            && self.now < self.config.warmup_cycles + self.config.measure_cycles;
        let mut next = self.active_edges.first_at_least(0);
        while let Some(e) = next {
            let free = self.cap - self.ring_len[e];
            if free == 0 {
                next = self.active_edges.first_at_least(e + 1);
                continue;
            }
            let node = self.edge_src[e] as usize;
            let s0 = self.ns_offsets[node] as usize;
            let s1 = self.ns_offsets[node + 1] as usize;
            let n_src = s1 - s0;
            let eu = e as u32;
            let eligible = |sim: &Self, k: usize| -> bool {
                sim.want_edge[k] == eu
                    && sim.want_ready[k] <= sim.now
                    && free >= sim.want_required[k]
                    && !sim.source_moved[sim.ns_items[k] as usize]
            };
            let chosen = if self.owner[e] != NO_OWNER {
                let pid = self.owner[e];
                (s0..s1).find(|&k| self.want_packet[k] == pid && eligible(self, k))
            } else {
                let start = self.rr[e] as usize % n_src;
                (0..n_src)
                    .map(|j| {
                        let mut k = start + j;
                        if k >= n_src {
                            k -= n_src;
                        }
                        s0 + k
                    })
                    .find(|&k| eligible(self, k))
            };
            let Some(k) = chosen else {
                next = self.active_edges.first_at_least(e + 1);
                continue;
            };
            let src_slot = self.ns_items[k];
            let mut flit = self.pop_source(src_slot);
            self.source_moved[src_slot as usize] = true;
            self.moved_log.push(src_slot);
            if measure_window {
                self.edge_flits[e] += 1;
            }
            self.rr[e] = self.rr[e].wrapping_add(1);
            let is_tail = flit.flags & F_TAIL != 0;
            self.owner[e] = if is_tail { NO_OWNER } else { flit.packet };
            let route = plan.arena.routes[flit.route as usize];
            let step = plan.arena.steps[route.first_step as usize + flit.hop as usize];
            flit.hop += 1;
            if u32::from(flit.hop) == u32::from(route.step_count) && step.eject_at_dst {
                self.in_flight -= 1;
                if is_tail && flit.flags & F_MEASURED != 0 {
                    self.latencies.push(self.now - flit.inject_cycle);
                }
                next = self.active_edges.first_at_least(e + 1);
                continue;
            }
            if u32::from(flit.hop) < u32::from(route.step_count) {
                let next_step = plan.arena.steps[route.first_step as usize + flit.hop as usize];
                flit.next_edge = next_step.edge;
                flit.required = if flit.flags & F_HEAD != 0 {
                    next_step.head_space
                } else {
                    1
                };
            } else {
                flit.next_edge = NO_EDGE;
            }
            flit.ready_at = self.now + step.ready_add;
            let cap = self.cap;
            let idx = e * cap as usize + ((self.ring_head[e] + self.ring_len[e]) % cap) as usize;
            let was_empty = self.ring_len[e] == 0;
            self.ring_slots[idx] = flit;
            self.ring_len[e] += 1;
            if was_empty {
                // The ring gained a head flit mid-cycle; with a
                // zero-cycle arrival increment it can already be
                // eligible at a later edge this same cycle — the live
                // set re-read below observes the activation, exactly
                // like the reference engine's dense scan.
                self.sync_ring_head(e);
                self.update_source_desire((self.terminals.len() + e) as u32);
            }
            next = self.active_edges.first_at_least(e + 1);
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
        for e in 0..self.edge_flits.len() {
            if !self.edge_is_net[e] {
                continue;
            }
            let util = self.edge_flits[e] as f64 / window;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_sorted_iteration_and_live_reread() {
        let mut set = ActiveSet::new(300);
        for i in [5usize, 64, 65, 130, 299] {
            set.insert(i);
        }
        let mut seen = Vec::new();
        let mut next = set.first_at_least(0);
        while let Some(i) = next {
            seen.push(i);
            if i == 64 {
                // Mid-iteration insertion above the cursor is observed.
                set.insert(100);
            }
            next = set.first_at_least(i + 1);
        }
        assert_eq!(seen, [5, 64, 65, 100, 130, 299]);
        set.remove(65);
        set.remove(5);
        assert_eq!(set.first_at_least(0), Some(64));
        assert_eq!(set.first_at_least(131), Some(299));
        assert_eq!(set.first_at_least(300), None);
        set.clear();
        assert_eq!(set.first_at_least(0), None);
    }

    #[test]
    fn active_set_summary_tracks_word_emptiness() {
        let mut set = ActiveSet::new(4096);
        set.insert(4095);
        assert_eq!(set.first_at_least(0), Some(4095));
        set.remove(4095);
        assert_eq!(set.first_at_least(0), None);
    }
}
