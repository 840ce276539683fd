//! `sim_speed`: throughput of the event-driven production engine in
//! simulated cycles per second and delivered flits per second,
//! benchmarked against the pre-rebuild reference engine
//! (`sunmap::sim::reference`).
//!
//! The headline configuration is the acceptance one — a 4×4 mesh under
//! uniform traffic at 0.05 flits/cycle/terminal — plus a loaded torus
//! and a trace-driven VOPD replay. Both engines produce bit-identical
//! `LatencyStats` (enforced by
//! `crates/sim/tests/engine_equivalence.rs`), so every row here times
//! the production of the same result.
//!
//! Two throughput metrics are reported, because they answer different
//! questions:
//!
//! * **same-simulation** (default config): wall-clock to complete the
//!   standard 11k-cycle simulation. The event engine legitimately stops
//!   early once the post-injection network is provably empty (the
//!   remaining drain cycles cannot change any statistic), so this
//!   ratio credits both per-cycle speed *and* the skipped dead tail.
//! * **per-cycle** (drain-free config): injection runs to the last
//!   cycle, so the early exit cannot trigger and both engines simulate
//!   *exactly* the same number of cycles — the pure engine-speed
//!   ratio.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sunmap::sim::{SimConfig, SimEngine, SimSession};
use sunmap::topology::builders;
use sunmap::topology::TopologyGraph;
use sunmap::traffic::benchmarks;
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::{Mapper, MapperConfig};

/// Nominal cycles per run (warmup + measure + drain) for the default
/// configuration every engine simulates.
fn nominal_cycles(config: &SimConfig) -> u64 {
    config.warmup_cycles + config.measure_cycles + config.drain_cycles
}

/// A fresh session over `graph` pinned to `engine`.
fn session<'a>(graph: &'a TopologyGraph, config: SimConfig, engine: SimEngine) -> SimSession<'a> {
    SimSession::builder(graph)
        .config(SimConfig { engine, ..config })
        .build()
}

/// Median wall-clock of `runs` invocations of `f`.
fn median_secs<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_synthetic(c: &mut Criterion) {
    let config = SimConfig::default();
    let mesh = builders::mesh(4, 4, 500.0).unwrap();
    let torus = builders::torus(4, 4, 500.0).unwrap();

    let mut group = c.benchmark_group("sim_speed");
    group.sample_size(10);

    let mut event_mesh = session(&mesh, config, SimEngine::EventDriven);
    group.bench_function("event/mesh4x4_uniform_0.05", |b| {
        b.iter(|| event_mesh.run_synthetic(&TrafficPattern::UniformRandom, 0.05))
    });
    let mut ref_mesh = session(&mesh, config, SimEngine::Reference);
    group.bench_function("reference/mesh4x4_uniform_0.05", |b| {
        b.iter(|| ref_mesh.run_synthetic(&TrafficPattern::UniformRandom, 0.05))
    });

    let mut event_torus = session(&torus, config, SimEngine::EventDriven);
    group.bench_function("event/torus4x4_tornado_0.30", |b| {
        b.iter(|| event_torus.run_synthetic(&TrafficPattern::Tornado, 0.30))
    });
    let mut ref_torus = session(&torus, config, SimEngine::Reference);
    group.bench_function("reference/torus4x4_tornado_0.30", |b| {
        b.iter(|| ref_torus.run_synthetic(&TrafficPattern::Tornado, 0.30))
    });
    group.finish();

    // The acceptance numbers, in engine-meaningful units (see the
    // module docs for the two metrics).
    let event_s = median_secs(5, || {
        event_mesh.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    });
    let ref_s = median_secs(5, || {
        ref_mesh.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    });

    // Drain-free runs: both engines simulate exactly these cycles.
    let pc_config = SimConfig {
        drain_cycles: 0,
        ..config
    };
    let pc_cycles = nominal_cycles(&pc_config) as f64;
    let mut event_pc = session(&mesh, pc_config, SimEngine::EventDriven);
    let mut ref_pc = session(&mesh, pc_config, SimEngine::Reference);
    let stats = event_pc.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    let flits = (stats.packets_delivered * pc_config.packet_flits) as f64;
    ref_pc.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    let event_pc_s = median_secs(5, || {
        event_pc.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    });
    let ref_pc_s = median_secs(5, || {
        ref_pc.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
    });
    println!(
        "sim_speed summary (mesh 4x4, uniform, 0.05 flits/cy/term):\n\
           per-cycle (drain-free, identical cycle counts):\n\
             event     {:>12.0} cycles/s {:>12.0} flits/s\n\
             reference {:>12.0} cycles/s {:>12.0} flits/s\n\
             speedup   {:>11.2}x\n\
           same-simulation (default config; event skips the provably\n\
           empty drain tail):\n\
             speedup   {:>11.2}x  ({:.2} ms vs {:.2} ms per run)",
        pc_cycles / event_pc_s,
        flits / event_pc_s,
        pc_cycles / ref_pc_s,
        flits / ref_pc_s,
        ref_pc_s / event_pc_s,
        ref_s / event_s,
        event_s * 1e3,
        ref_s * 1e3,
    );
}

fn bench_trace(c: &mut Criterion) {
    let config = SimConfig::default();
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    let mapping = Mapper::new(&g, &app, MapperConfig::default())
        .run()
        .unwrap();

    let mut group = c.benchmark_group("sim_speed");
    group.sample_size(10);
    let mut event = session(&g, config, SimEngine::EventDriven);
    group.bench_function("event/trace_vopd_mesh3x4_0.35", |b| {
        b.iter(|| event.run_trace(mapping.evaluation(), &app, 0.35))
    });
    let mut old = session(&g, config, SimEngine::Reference);
    group.bench_function("reference/trace_vopd_mesh3x4_0.35", |b| {
        b.iter(|| old.run_trace(mapping.evaluation(), &app, 0.35))
    });
    group.finish();
}

criterion_group!(sim_speed, bench_synthetic, bench_trace);
criterion_main!(sim_speed);
