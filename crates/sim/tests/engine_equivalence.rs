//! The engine equivalence contract: for any seed, topology, pattern,
//! rate and configuration, the event-driven production engine produces
//! [`LatencyStats`] bit-identical to the pre-rebuild engine's (kept as
//! [`sunmap_sim::reference`]). The implementations share nothing but
//! the `SimConfig` type, so agreement here pins the RNG consumption
//! order, the arbitration order, the bubble-rule spacing and the
//! timing model all at once.
//!
//! Set `SIM_EQUIV_CASES=<n>` to sweep `n` extra injection rates per
//! case on top of the defaults (`make sim-equiv` wires this up). The
//! event engine must also stay at least 3× faster than the reference.

use std::time::Instant;

use sunmap_mapping::{Evaluation, Mapper, MapperConfig};
use sunmap_sim::{adversarial_pattern, SimConfig, SimEngine, SimSession};
use sunmap_topology::builders;
use sunmap_traffic::benchmarks;
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::CoreGraph;

/// Extra rates requested through the `SIM_EQUIV_CASES` env knob:
/// `n` evenly spaced rates in (0, 0.5], deterministic, no RNG.
fn extra_rates() -> Vec<f64> {
    let n: usize = std::env::var("SIM_EQUIV_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (1..=n).map(|i| 0.5 * i as f64 / n as f64).collect()
}

fn assert_synthetic_equivalent(
    g: &sunmap_topology::TopologyGraph,
    config: SimConfig,
    pattern: &TrafficPattern,
    rate: f64,
) {
    let run = |engine: SimEngine| {
        SimSession::builder(g)
            .config(SimConfig { engine, ..config })
            .build()
            .run_synthetic(pattern, rate)
    };
    assert_eq!(
        run(SimEngine::Reference),
        run(SimEngine::EventDriven),
        "{} {} rate {rate}: reference and event engines diverged",
        g.kind(),
        pattern.name(),
    );
}

fn assert_trace_equivalent(
    g: &sunmap_topology::TopologyGraph,
    config: SimConfig,
    eval: &Evaluation,
    app: &CoreGraph,
    intensity: f64,
) {
    let run = |engine: SimEngine| {
        SimSession::builder(g)
            .config(SimConfig { engine, ..config })
            .build()
            .run_trace(eval, app, intensity)
    };
    assert_eq!(
        run(SimEngine::Reference),
        run(SimEngine::EventDriven),
        "trace intensity {intensity}: reference and event engines diverged",
    );
}

#[test]
fn standard_library_adversarial_rates() {
    let extra = extra_rates();
    for g in builders::standard_library(16, 500.0).unwrap() {
        let pattern = adversarial_pattern(g.kind());
        for rate in [0.05, 0.2, 0.45].iter().chain(extra.iter()) {
            assert_synthetic_equivalent(&g, SimConfig::fast(), &pattern, *rate);
        }
    }
}

#[test]
fn uniform_random_consumes_rng_identically() {
    // UniformRandom draws from the RNG for every destination, and the
    // indirect topologies draw again per path pick — the strictest
    // check that the event engine consumes randomness in the reference
    // order.
    for g in builders::standard_library(12, 500.0).unwrap() {
        assert_synthetic_equivalent(&g, SimConfig::fast(), &TrafficPattern::UniformRandom, 0.15);
    }
}

#[test]
fn every_pattern_on_mesh_and_clos() {
    let patterns = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::BitReverse,
        TrafficPattern::Tornado,
        TrafficPattern::Hotspot {
            target: 3,
            per_mille: 300,
        },
        TrafficPattern::Permutation((0..16).rev().collect()),
    ];
    let mesh = builders::mesh(4, 4, 500.0).unwrap();
    let clos = builders::clos(4, 4, 4, 500.0).unwrap();
    for pattern in &patterns {
        assert_synthetic_equivalent(&mesh, SimConfig::fast(), pattern, 0.1);
        assert_synthetic_equivalent(&clos, SimConfig::fast(), pattern, 0.1);
    }
}

#[test]
fn extension_topologies_agree() {
    let octagon = builders::octagon(500.0).unwrap();
    let star = builders::star(8, 500.0).unwrap();
    for g in [&octagon, &star] {
        assert_synthetic_equivalent(g, SimConfig::fast(), &adversarial_pattern(g.kind()), 0.1);
    }
}

#[test]
fn config_knobs_preserve_equivalence() {
    let g = builders::torus(4, 4, 500.0).unwrap();
    let configs = [
        SimConfig {
            packet_flits: 1,
            ..SimConfig::fast()
        },
        SimConfig {
            packet_flits: 6,
            buffer_depth: 2,
            ..SimConfig::fast()
        },
        SimConfig {
            switch_pipeline: 0,
            ..SimConfig::fast()
        },
        SimConfig {
            buffer_depth: 1,
            seed: 1234,
            ..SimConfig::fast()
        },
        SimConfig {
            drain_cycles: 0,
            ..SimConfig::fast()
        },
    ];
    for config in configs {
        assert_synthetic_equivalent(&g, config, &TrafficPattern::Tornado, 0.25);
    }
}

#[test]
fn saturated_network_agrees() {
    let g = builders::mesh(3, 3, 500.0).unwrap();
    assert_synthetic_equivalent(&g, SimConfig::fast(), &TrafficPattern::BitComplement, 0.9);
}

#[test]
fn deep_saturation_agrees() {
    // At 1.0 flits/cycle/terminal packets queue up at their terminals,
    // so flits leave the queue long after their packet was injected.
    // The standard library's indirect networks
    // (Clos, butterfly) start routes at core ports and pick a path per
    // packet; the torus turns into new rings, where head flits need
    // the bubble rule's double space.
    let uniform = TrafficPattern::UniformRandom;
    let indirect = builders::standard_library(16, 500.0).unwrap();
    for g in indirect.iter().filter(|g| !g.kind().is_direct()) {
        assert_synthetic_equivalent(g, SimConfig::fast(), &uniform, 1.0);
    }
    let torus = builders::torus(4, 4, 500.0).unwrap();
    for packet_flits in [1, 6] {
        let config = SimConfig {
            packet_flits,
            ..SimConfig::fast()
        };
        assert_synthetic_equivalent(&torus, config, &uniform, 1.0);
    }
}

#[test]
fn low_load_regime_agrees() {
    // Almost every edge idle, so most cycles touch a handful of
    // active-set entries.
    let g = builders::mesh(4, 4, 500.0).unwrap();
    for rate in [0.01, 0.05] {
        assert_synthetic_equivalent(&g, SimConfig::fast(), &TrafficPattern::UniformRandom, rate);
    }
}

#[test]
fn trace_mode_agrees_on_mapped_benchmarks() {
    let extra = extra_rates();
    for (app, rows, cols) in [(benchmarks::vopd(), 3, 4), (benchmarks::dsp_filter(), 2, 3)] {
        let g = builders::mesh(rows, cols, 1000.0).unwrap();
        let mapping = Mapper::new(&g, &app, MapperConfig::default())
            .run()
            .unwrap();
        for intensity in [0.1, 0.45].iter().chain(extra.iter()) {
            assert_trace_equivalent(
                &g,
                SimConfig::fast(),
                mapping.evaluation(),
                &app,
                *intensity,
            );
        }
    }
}

#[test]
fn trace_mode_agrees_at_full_intensity() {
    // Intensity 1.0 injects VOPD's heaviest flow at one flit per cycle,
    // past what its mapped path carries.
    let app = benchmarks::vopd();
    let g = builders::mesh(3, 4, 1000.0).unwrap();
    let mapping = Mapper::new(&g, &app, MapperConfig::default())
        .run()
        .unwrap();
    assert_trace_equivalent(&g, SimConfig::fast(), mapping.evaluation(), &app, 1.0);
}

#[test]
fn trace_mode_agrees_with_split_routing() {
    // Split routing produces multi-path route sets, exercising the
    // weighted path pick.
    use sunmap_mapping::RoutingFunction;
    let g = builders::mesh(3, 4, 1000.0).unwrap();
    let app = benchmarks::vopd();
    let config = MapperConfig {
        routing: RoutingFunction::SplitMinPaths,
        ..MapperConfig::default()
    };
    let mapping = Mapper::new(&g, &app, config).run().unwrap();
    assert_trace_equivalent(&g, SimConfig::fast(), mapping.evaluation(), &app, 0.4);
}

#[test]
fn zero_rate_is_empty_on_every_engine() {
    // Degenerate rate 0 (no packets at all) — offered/delivered
    // bookkeeping included.
    let g = builders::mesh(3, 3, 500.0).unwrap();
    let run = |engine: SimEngine| {
        SimSession::builder(&g)
            .config(SimConfig {
                engine,
                ..SimConfig::fast()
            })
            .build()
            .run_synthetic(&TrafficPattern::Tornado, 0.0)
    };
    let reference = run(SimEngine::Reference);
    assert_eq!(reference.packets_delivered, 0);
    assert_eq!(reference, run(SimEngine::EventDriven));
}

#[test]
fn event_engine_stays_3x_faster_than_reference() {
    // A 4×4 mesh under uniform traffic at 0.05. Without drain cycles
    // both engines simulate exactly the same cycles. They alternate,
    // each keeping its fastest of five runs, so load from other
    // processes slows both rather than one.
    let g = builders::mesh(4, 4, 500.0).unwrap();
    let config = |engine| SimConfig {
        engine,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mut sessions = [SimEngine::EventDriven, SimEngine::Reference]
        .map(|engine| SimSession::builder(&g).config(config(engine)).build());
    let mut fastest = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (session, best) in sessions.iter_mut().zip(&mut fastest) {
            let start = Instant::now();
            session.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let [event, reference] = fastest;
    assert!(
        reference >= 3.0 * event,
        "event engine is only {:.2}x the reference ({event:.4} s vs {reference:.4} s)",
        reference / event
    );
}
