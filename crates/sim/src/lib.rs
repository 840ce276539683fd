//! Flit-level cycle-based NoC simulator for SUNMAP.
//!
//! The paper validates its mappings by generating the chosen network in
//! SystemC (×pipes soft macros) and simulating it cycle-accurately
//! (§6.2, §6.4). This crate is the Rust substitute for that substrate:
//! a wormhole-routed, input-buffered, credit-flow simulator operating
//! on the same [`TopologyGraph`]s the mapper uses.
//!
//! Model summary:
//!
//! * packets of `packet_flits` flits, source-routed along either random
//!   minimum paths (synthetic mode) or the paths chosen by a mapping
//!   evaluation (trace mode);
//! * one flit per link per cycle; per-edge input buffers of
//!   `buffer_depth` flits; transfers blocked when the downstream buffer
//!   is full (credit flow control);
//! * wormhole output allocation: once a packet's head flit wins an
//!   output link, the link stays allocated until the tail passes;
//! * round-robin arbitration among the input ports (and the local
//!   injection queue) competing for an output link;
//! * an extra pipeline cycle per switch traversal, matching the
//!   multi-cycle switches of ×pipes.
//!
//! Statistics are collected for packets injected inside the measurement
//! window, reproducing the latency-versus-injection-rate methodology of
//! paper Fig. 8(b) and the per-topology latency bars of Fig. 10(c).
//!
//! One production engine runs every simulation: the event-driven
//! active-set engine (a cycle costs `O(k)` in the number of active
//! edges and in-flight hop completions, not `O(V + E)`), fed by routes
//! the simulator enumerates once per topology, with the same
//! `dimension_order::route` and `paths::all_shortest_paths` calls the
//! reference engine makes, and compiles into a shareable [`RoutePlan`]
//! of `Copy` hop records. The mapper's
//! [`RouteTable`](sunmap_mapping::RouteTable) only lends the compiler
//! its adjacency matrix and terminal order. The pre-rebuild
//! [`reference`](mod@reference) engine is kept as the behavioral
//! oracle: the equivalence tests require bit-identical
//! [`LatencyStats`] per seed, and require the production engine to
//! stay at least 3× faster than it. Both are selected through
//! [`SimEngine`] on [`SimConfig`] and driven through a [`SimSession`].
//! Simulations are deterministic (everything is index-ordered; no
//! hash-map iteration anywhere), and [`sweep`] fans rate×topology grids
//! out across scoped threads with bit-identical results at any worker
//! count.
//!
//! # Examples
//!
//! ```
//! use sunmap_sim::{SimConfig, SimSession};
//! use sunmap_topology::builders;
//! use sunmap_traffic::patterns::TrafficPattern;
//!
//! let mesh = builders::mesh(4, 4, 500.0)?;
//! let mut session = SimSession::builder(&mesh).config(SimConfig::fast()).build();
//! let stats = session.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
//! assert!(stats.packets_delivered > 0);
//! assert!(stats.avg_latency >= 4.0); // at least serialization + a hop
//! # Ok::<(), sunmap_topology::TopologyError>(())
//! ```

pub mod engine;
mod event;
pub mod reference;
mod session;
mod stats;
pub mod sweep;

pub use engine::{RoutePlan, SimConfig, SimEngine, SIM_PATH_CAP};
pub use session::{SimSession, SimSessionBuilder};
pub use stats::LatencyStats;
pub use sweep::{adversarial_sweep, injection_sweep, SweepPoint, SweepRequest};

use sunmap_topology::TopologyGraph;
use sunmap_topology::TopologyKind;
use sunmap_traffic::patterns::TrafficPattern;

/// Picks the classic adversarial pattern for a topology (paper §6.2:
/// "traffic generators generate adversarial traffic pattern for each
/// topology"):
///
/// * **mesh** — bit-complement, which shoves every flow across the
///   bisection;
/// * **torus** — tornado, marching almost half-way around every ring so
///   the wrap channels cannot help;
/// * **hypercube** — transpose, the classic e-cube adversary (the
///   motivating example for Valiant routing);
/// * **butterfly** — tornado, whose shifted destinations collapse whole
///   ingress groups onto single inter-stage links (bit-reversal, by
///   contrast, is *benign* on a 2-stage butterfly);
/// * **Clos** — transpose; with random middle-stage selection the Clos
///   equalises any permutation, which is exactly the point of §6.2.
pub fn adversarial_pattern(kind: TopologyKind) -> TrafficPattern {
    match kind {
        TopologyKind::Mesh { .. } => TrafficPattern::BitComplement,
        TopologyKind::Torus { .. } => TrafficPattern::Tornado,
        TopologyKind::Hypercube { .. } => TrafficPattern::Transpose,
        TopologyKind::Clos { .. } => TrafficPattern::Transpose,
        TopologyKind::Butterfly { .. } => TrafficPattern::Tornado,
        // Extension topologies: the octagon is ring-like (tornado); the
        // star has no adversary beyond its per-port channels (uniform).
        TopologyKind::Octagon => TrafficPattern::Tornado,
        TopologyKind::Star { .. } | TopologyKind::Custom { .. } => TrafficPattern::UniformRandom,
    }
}

/// Convenience: sweep injection rates on one topology under a pattern,
/// returning `(rate, avg_latency)` pairs — one Fig. 8(b) curve. The
/// route plan is compiled once and shared across the rates; for
/// multi-topology or multi-threaded sweeps use [`sweep::injection_sweep`].
pub fn latency_sweep(
    graph: &TopologyGraph,
    config: SimConfig,
    pattern: &TrafficPattern,
    rates: &[f64],
) -> Vec<(f64, f64)> {
    let mut session = SimSession::builder(graph).config(config).build();
    rates
        .iter()
        .map(|&rate| {
            let stats = session.run_synthetic(pattern, rate);
            (rate, stats.avg_latency)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_topology::builders;

    #[test]
    fn adversarial_patterns_are_topology_specific() {
        let lib = builders::standard_library(16, 500.0).unwrap();
        let names: Vec<_> = lib
            .iter()
            .map(|g| adversarial_pattern(g.kind()).name())
            .collect();
        assert_eq!(
            names,
            [
                "bit-complement",
                "tornado",
                "transpose",
                "transpose",
                "tornado"
            ]
        );
    }

    #[test]
    fn latency_sweep_is_monotone_at_low_rates() {
        let g = builders::mesh(3, 3, 500.0).unwrap();
        // A longer window and well-separated load points keep the
        // comparison above sampling noise (short windows at very low
        // rates measure only a handful of packets).
        let config = SimConfig {
            measure_cycles: 4_000,
            ..SimConfig::fast()
        };
        let curve = latency_sweep(
            &g,
            config,
            &sunmap_traffic::patterns::TrafficPattern::UniformRandom,
            &[0.02, 0.45],
        );
        assert_eq!(curve.len(), 2);
        assert!(
            curve[1].1 >= curve[0].1,
            "latency should not fall with load: {curve:?}"
        );
    }
}
