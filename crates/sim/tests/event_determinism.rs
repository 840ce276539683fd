//! The event engine's determinism contract: same seed → bit-identical
//! stats across repeated runs, session reuse, and any sweep worker
//! count. Batch resume and the serve cache both hash simulation output.

use sunmap_sim::{sweep, SimConfig, SimEngine, SimSession};
use sunmap_topology::builders;
use sunmap_traffic::patterns::TrafficPattern;

fn event_config() -> SimConfig {
    SimConfig {
        engine: SimEngine::EventDriven,
        ..SimConfig::fast()
    }
}

#[test]
fn same_seed_repeats_bit_identically() {
    let g = builders::mesh(4, 4, 500.0).unwrap();
    let run = || {
        SimSession::builder(&g)
            .config(event_config())
            .build()
            .run_synthetic(&TrafficPattern::UniformRandom, 0.1)
    };
    let first = run();
    assert_eq!(first, run(), "fresh sessions with one seed diverged");
}

#[test]
fn session_reuse_resets_all_event_state() {
    // Re-running inside one session exercises `reset()`: stale wheel
    // events, active-set bits or moved flags from the previous run
    // would break this.
    let g = builders::torus(4, 4, 500.0).unwrap();
    let mut session = SimSession::builder(&g).config(event_config()).build();
    let first = session.run_synthetic(&TrafficPattern::Tornado, 0.2);
    for _ in 0..3 {
        assert_eq!(
            first,
            session.run_synthetic(&TrafficPattern::Tornado, 0.2),
            "session reuse leaked state between runs"
        );
    }
    // Interleave a different workload, then return to the original.
    session.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    assert_eq!(
        first,
        session.run_synthetic(&TrafficPattern::Tornado, 0.2),
        "a different interleaved run perturbed the next result"
    );
}

#[test]
fn sweep_is_worker_count_invariant_on_the_event_engine() {
    let graphs = [
        builders::mesh(4, 4, 500.0).unwrap(),
        builders::torus(4, 4, 500.0).unwrap(),
    ];
    let requests: Vec<sweep::SweepRequest<'_>> = graphs
        .iter()
        .map(|g| sweep::SweepRequest {
            graph: g,
            pattern: sunmap_sim::adversarial_pattern(g.kind()),
        })
        .collect();
    let rates = [0.01, 0.05, 0.12, 0.3];
    let one = sweep::injection_sweep(&requests, &rates, event_config(), 1);
    assert_eq!(one.len(), 8);
    for workers in [2, 8] {
        let many = sweep::injection_sweep(&requests, &rates, event_config(), workers);
        assert_eq!(one, many, "{workers} workers diverged on the event engine");
    }
    // The rendered bytes (what batch/serve hash) must match too.
    assert_eq!(
        sweep::sweep_csv(&one),
        sweep::sweep_csv(&sweep::injection_sweep(
            &requests,
            &rates,
            event_config(),
            8
        )),
    );
}

#[test]
fn auto_engine_sweep_is_worker_count_invariant() {
    // The default `auto` spelling, through the sweep driver, at a low
    // and a high load.
    let graphs = [builders::mesh(4, 4, 500.0).unwrap()];
    let requests = [sweep::SweepRequest {
        graph: &graphs[0],
        pattern: TrafficPattern::UniformRandom,
    }];
    let rates = [0.05, 0.3];
    let one = sweep::injection_sweep(&requests, &rates, SimConfig::fast(), 1);
    for workers in [2, 8] {
        let many = sweep::injection_sweep(&requests, &rates, SimConfig::fast(), workers);
        assert_eq!(one, many, "{workers} workers diverged under Auto");
    }
}
