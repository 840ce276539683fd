//! Old-path regression fixtures: `LatencyStats` values captured from
//! the pre-rebuild engine (the `Rc`-path implementation the indexed
//! engines replaced), hardcoded here. The event-driven engine must
//! reproduce every field bit for bit — this guards the rebuild against
//! behavioral drift even if `reference` itself is ever touched.
//!
//! All fixtures use `SimConfig::fast()` (seed 42) unless noted.

use sunmap_mapping::{Mapper, MapperConfig};
use sunmap_sim::{adversarial_pattern, LatencyStats, SimConfig, SimEngine, SimSession};
use sunmap_topology::builders;
use sunmap_traffic::benchmarks;
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::CoreGraph;

/// The engines the fixtures pin. `Reference` is the source the values
/// were captured from; it is re-checked too, so a fixture mismatch
/// distinguishes "reference drifted" from "rebuild drifted".
const ENGINES: [SimEngine; 2] = [SimEngine::Reference, SimEngine::EventDriven];

#[allow(clippy::too_many_arguments)]
fn stats(
    avg_latency: f64,
    max_latency: u64,
    packets_offered: usize,
    packets_delivered: usize,
    throughput: f64,
    max_link_utilization: f64,
    mean_link_utilization: f64,
) -> LatencyStats {
    LatencyStats {
        avg_latency,
        max_latency,
        packets_offered,
        packets_delivered,
        throughput,
        measured_cycles: 1000,
        max_link_utilization,
        mean_link_utilization,
    }
}

fn assert_synthetic_fixture(
    g: &sunmap_topology::TopologyGraph,
    config: SimConfig,
    pattern: &TrafficPattern,
    rate: f64,
    fixture: &LatencyStats,
) {
    for engine in ENGINES {
        let got = SimSession::builder(g)
            .config(SimConfig { engine, ..config })
            .build()
            .run_synthetic(pattern, rate);
        assert_eq!(
            &got,
            fixture,
            "{} at rate {rate} drifted on the {} engine",
            g.kind(),
            engine.name()
        );
    }
}

#[test]
fn synthetic_adversarial_fixtures() {
    // (builder index in standard_library(16), rate) => captured stats.
    let expected: &[(usize, f64, LatencyStats)] = &[
        // Mesh 4x4, bit-complement.
        (
            0,
            0.05,
            stats(22.195, 37, 200, 200, 0.05, 0.136, 0.0654791666666667),
        ),
        (
            0,
            0.30,
            stats(
                30.00247320692498,
                156,
                1213,
                1213,
                0.30325,
                0.754,
                0.4053124999999999,
            ),
        ),
        // Torus 4x4, tornado.
        (
            1,
            0.05,
            stats(17.53, 26, 200, 200, 0.05, 0.136, 0.034906250000000014),
        ),
        (
            1,
            0.30,
            stats(
                23.788953009068425,
                97,
                1213,
                1213,
                0.30325,
                0.751,
                0.2103125,
            ),
        ),
        // Hypercube dim 4, transpose.
        (
            2,
            0.05,
            stats(17.0, 26, 154, 154, 0.0385, 0.144, 0.025593750000000005),
        ),
        (
            2,
            0.30,
            stats(
                21.232258064516127,
                75,
                930,
                930,
                0.2325,
                0.696,
                0.15535937500000002,
            ),
        ),
        // Clos 4,4,4, transpose.
        (
            3,
            0.05,
            stats(
                14.138686131386862,
                17,
                137,
                137,
                0.03425,
                0.064,
                0.03425000000000002,
            ),
        ),
        (
            3,
            0.30,
            stats(16.037585421412302, 37, 878, 878, 0.2195, 0.28, 0.2209375),
        ),
        // Butterfly 4-ary 2-fly, tornado.
        (
            4,
            0.05,
            stats(10.269035532994923, 14, 197, 197, 0.04925, 0.16, 0.0490625),
        ),
        (
            4,
            0.30,
            stats(
                21.889823380992432,
                182,
                1189,
                1189,
                0.29725,
                0.918,
                0.30156249999999996,
            ),
        ),
    ];
    let library = builders::standard_library(16, 500.0).unwrap();
    for (idx, rate, fixture) in expected {
        let g = &library[*idx];
        assert_synthetic_fixture(
            g,
            SimConfig::fast(),
            &adversarial_pattern(g.kind()),
            *rate,
            fixture,
        );
    }
}

#[test]
fn synthetic_uniform_fixture() {
    let g = builders::mesh(4, 4, 500.0).unwrap();
    assert_synthetic_fixture(
        &g,
        SimConfig::fast(),
        &TrafficPattern::UniformRandom,
        0.05,
        &stats(
            17.269035532994923,
            33,
            197,
            197,
            0.04925,
            0.08,
            0.044937500000000026,
        ),
    );
}

#[test]
fn trace_vopd_fixture() {
    let g = builders::mesh(3, 4, 500.0).unwrap();
    let app = benchmarks::vopd();
    let mapping = Mapper::new(&g, &app, MapperConfig::default())
        .run()
        .unwrap();
    let fixture = stats(
        11.49512987012987,
        21,
        616,
        616,
        0.20533333333333334,
        0.354,
        0.08841176470588238,
    );
    for engine in ENGINES {
        let got = SimSession::builder(&g)
            .config(SimConfig {
                engine,
                ..SimConfig::fast()
            })
            .build()
            .run_trace(mapping.evaluation(), &app, 0.35);
        assert_eq!(
            got,
            fixture,
            "vopd trace drifted on the {} engine",
            engine.name()
        );
    }
}

#[test]
fn non_default_config_fixture() {
    let g = builders::torus(4, 4, 500.0).unwrap();
    let config = SimConfig {
        packet_flits: 6,
        buffer_depth: 2,
        switch_pipeline: 1,
        seed: 7,
        ..SimConfig::fast()
    };
    assert_synthetic_fixture(
        &g,
        config,
        &TrafficPattern::Transpose,
        0.15,
        &stats(
            14.33228840125392,
            41,
            319,
            319,
            0.119625,
            0.418,
            0.077921875,
        ),
    );
}

/// Event-engine trace fixtures for the four seed applications, captured
/// from the event engine itself (and cross-checked against reference by
/// `engine_equivalence.rs`). These pin the event engine's output
/// directly, so a wheel/active-set regression cannot hide behind an
/// equally wrong oracle comparison.
#[test]
fn event_engine_seed_app_fixtures() {
    let apps: [(&str, CoreGraph, usize, usize, LatencyStats); 4] = [
        (
            "vopd",
            benchmarks::vopd(),
            3,
            4,
            stats(
                11.204322200392927,
                18,
                509,
                509,
                0.16966666666666666,
                0.324,
                0.07211764705882352,
            ),
        ),
        (
            "mpeg4",
            benchmarks::mpeg4(),
            3,
            4,
            stats(
                10.685294117647059,
                19,
                340,
                340,
                0.11333333333333333,
                0.324,
                0.04241176470588235,
            ),
        ),
        (
            "dsp",
            benchmarks::dsp_filter(),
            2,
            3,
            stats(
                10.873684210526315,
                19,
                285,
                285,
                0.19,
                0.323,
                0.08985714285714286,
            ),
        ),
        // 16 cores: the only seed app that fills a 4x4 grid, and at
        // intensity 0.3 the only fixture exercising the event engine
        // deep into the wheel (heavy contention, avg latency ~119).
        (
            "netproc",
            benchmarks::network_processor(100.0),
            4,
            4,
            stats(
                118.62517521726942,
                433,
                3567,
                3567,
                0.89175,
                0.821,
                0.49518750000000017,
            ),
        ),
    ];
    for (name, app, rows, cols, fixture) in &apps {
        let g = builders::mesh(*rows, *cols, 1000.0).unwrap();
        let mapping = Mapper::new(&g, app, MapperConfig::default()).run().unwrap();
        let got = SimSession::builder(&g)
            .config(SimConfig {
                engine: SimEngine::EventDriven,
                ..SimConfig::fast()
            })
            .build()
            .run_trace(mapping.evaluation(), app, 0.3);
        assert_eq!(&got, fixture, "{name} event-engine trace fixture drifted");
    }
}
