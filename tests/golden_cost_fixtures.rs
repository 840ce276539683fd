//! Golden regression fixtures for the analytical flow: the winning
//! topology and its `CostReport` (power, floorplan area) plus the
//! number of candidate mappings the search evaluated, pinned for every
//! seed benchmark under the MinPower and MinDelay objectives.
//!
//! The whole engine is deterministic (index-ordered arrays, positional
//! parallel reduction, no hash-map iteration), so these values must
//! reproduce **bit for bit** — in debug and release builds alike. A
//! mapper/floorplanner/power-model refactor that shifts any of them is
//! a behavioral change and must update this table *consciously*, with
//! the shift explained in the commit.
//!
//! Captured from the PR-4 tree; the per-app capacity/routing choices
//! are feasible configurations (MPEG4 needs split-traffic routing at
//! 500 MB/s links, §6.1).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sunmap::mapping::{Constraints, CostReport, MappingError, RouteTable};
use sunmap::sim::{RoutePlan, SimConfig, SimEngine, SimSession};
use sunmap::topology::{builders, paths};
use sunmap::traffic::benchmarks;
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::traffic::synthetic::SyntheticSpec;
use sunmap::{
    CoreGraph, Mapper, MapperConfig, Objective, RoutingFunction, Sunmap, TablePrep, TopologyGraph,
};

struct Fixture {
    app: &'static str,
    objective: Objective,
    winner: &'static str,
    power_mw: f64,
    floorplan_area: f64,
    evaluated_candidates: usize,
}

const fn fx(
    app: &'static str,
    objective: Objective,
    winner: &'static str,
    power_mw: f64,
    floorplan_area: f64,
    evaluated_candidates: usize,
) -> Fixture {
    Fixture {
        app,
        objective,
        winner,
        power_mw,
        floorplan_area,
        evaluated_candidates,
    }
}

/// The pinned table: `(app, objective) -> (winner, power, area, evals)`.
const FIXTURES: &[Fixture] = &[
    fx(
        "vopd",
        Objective::MinPower,
        "Butterfly",
        323.22820758493697,
        108.06924717925845,
        457,
    ),
    fx(
        "vopd",
        Objective::MinDelay,
        "Butterfly",
        331.0532711173108,
        108.06924717925845,
        343,
    ),
    fx(
        "mpeg4",
        Objective::MinPower,
        "Mesh",
        498.01477005170165,
        93.98015344210236,
        265,
    ),
    fx(
        "mpeg4",
        Objective::MinDelay,
        "Mesh",
        513.5475269329369,
        98.21885477809809,
        199,
    ),
    fx(
        "dsp",
        Objective::MinPower,
        "Butterfly",
        149.8352889503033,
        44.05147458360993,
        133,
    ),
    fx(
        "dsp",
        Objective::MinDelay,
        "Butterfly",
        161.19555402123052,
        61.91828364285431,
        34,
    ),
    fx(
        "netproc",
        Objective::MinPower,
        "Butterfly",
        442.748782863892,
        70.77312335632536,
        241,
    ),
    fx(
        "netproc",
        Objective::MinDelay,
        "Butterfly",
        450.121582863892,
        70.77312335632536,
        361,
    ),
];

/// The feasible exploration configuration of each seed benchmark.
fn app_config(name: &str) -> (CoreGraph, f64, RoutingFunction) {
    match name {
        "vopd" => (benchmarks::vopd(), 500.0, RoutingFunction::MinPath),
        "mpeg4" => (benchmarks::mpeg4(), 500.0, RoutingFunction::SplitAllPaths),
        "dsp" => (benchmarks::dsp_filter(), 1000.0, RoutingFunction::MinPath),
        "netproc" => (
            benchmarks::network_processor(100.0),
            500.0,
            RoutingFunction::SplitMinPaths,
        ),
        other => panic!("unknown fixture app {other}"),
    }
}

#[test]
fn seed_benchmark_explorations_match_the_pinned_goldens() {
    for f in FIXTURES {
        let (app, capacity, routing) = app_config(f.app);
        let tool = Sunmap::builder(app)
            .link_capacity(capacity)
            .routing(routing)
            .objective(f.objective)
            .build();
        let ex = tool.explore().expect("library builds for seed apps");
        let ctx = format!("{} / {:?}", f.app, f.objective);
        let best = ex
            .best_candidate()
            .unwrap_or_else(|| panic!("{ctx}: no feasible topology"));
        assert_eq!(best.kind.name(), f.winner, "{ctx}: winner drifted");
        let report = best.report().expect("winner is feasible");
        // Bit-exact: the flow is deterministic, so any difference at
        // all is a real behavioral change.
        assert_eq!(report.power_mw, f.power_mw, "{ctx}: power drifted");
        assert_eq!(
            report.floorplan_area, f.floorplan_area,
            "{ctx}: floorplan area drifted"
        );
        let mapping = best.outcome.as_ref().expect("winner is feasible");
        assert_eq!(
            mapping.evaluated_candidates(),
            f.evaluated_candidates,
            "{ctx}: candidate count drifted"
        );
    }
}

/// One pinned scale-tier mapping: `synth:seed=7,cores=<cores>` on one
/// library topology under MinDelay / dimension-ordered routing with
/// bandwidth relaxed (the large-mesh regime lazy route preparation
/// exists for; `TablePrep::Auto` resolves to `Lazy` on every topology
/// here, with closed-form hop distances).
struct ScaleFixture {
    cores: usize,
    /// Index into `builders::standard_library` (0 = mesh, 1 = torus,
    /// 2 = hypercube — the topologies whose delta search prunes at
    /// this scale; Clos/butterfly swaps all tie on hop count and
    /// defeat the bounds, see ROADMAP).
    topo: usize,
    kind: &'static str,
    power_mw: f64,
    floorplan_area: f64,
    evaluated_candidates: usize,
}

const fn sf(
    cores: usize,
    topo: usize,
    kind: &'static str,
    power_mw: f64,
    floorplan_area: f64,
    evaluated_candidates: usize,
) -> ScaleFixture {
    ScaleFixture {
        cores,
        topo,
        kind,
        power_mw,
        floorplan_area,
        evaluated_candidates,
    }
}

/// Captured from this tree, release build; the test also runs in the
/// debug tier-1 suite, so any debug/release divergence fails CI.
const SCALE_FIXTURES: &[ScaleFixture] = &[
    sf(256, 0, "Mesh", 38839.725349380074, 2654.8536160428516, 5),
    sf(256, 1, "Torus", 35218.79866803465, 2671.615158907521, 11),
    sf(
        256,
        2,
        "Hypercube",
        51488.06574020362,
        2857.5138937453785,
        5,
    ),
    sf(1024, 0, "Mesh", 267317.39912071684, 10944.405188740433, 34),
    sf(1024, 1, "Torus", 236281.63233211683, 10958.536845579782, 15),
    sf(
        1024,
        2,
        "Hypercube",
        318834.4472975451,
        12193.98233065516,
        4,
    ),
];

fn scale_config(prep: TablePrep) -> MapperConfig {
    MapperConfig {
        routing: RoutingFunction::DimensionOrdered,
        objective: Objective::MinDelay,
        constraints: Constraints::relaxed_bandwidth(),
        max_swap_passes: 1,
        table_prep: prep,
        ..MapperConfig::default()
    }
}

fn scale_topology(cores: usize, idx: usize) -> TopologyGraph {
    builders::standard_library(cores, 500.0)
        .expect("library builds")
        .swap_remove(idx)
}

fn scale_app(cores: usize) -> CoreGraph {
    let spec: SyntheticSpec = format!("synth:seed=7,cores={cores}")
        .parse()
        .expect("valid spec");
    spec.generate()
}

#[test]
fn scale_tier_mappings_match_the_pinned_goldens() {
    for tier in [256usize, 1024] {
        let app = scale_app(tier);
        let mut reports = Vec::new();
        for f in SCALE_FIXTURES.iter().filter(|f| f.cores == tier) {
            let g = scale_topology(tier, f.topo);
            assert_eq!(g.kind().name(), f.kind, "library order drifted");
            let mapping = Mapper::new(&g, &app, scale_config(TablePrep::Auto))
                .run()
                .expect("scale workload maps under relaxed bandwidth");
            let ctx = format!("{} / {}c", f.kind, f.cores);
            let report = mapping.report();
            assert_eq!(report.power_mw, f.power_mw, "{ctx}: power drifted");
            assert_eq!(
                report.floorplan_area, f.floorplan_area,
                "{ctx}: floorplan area drifted"
            );
            assert_eq!(
                mapping.evaluated_candidates(),
                f.evaluated_candidates,
                "{ctx}: candidate count drifted"
            );
            reports.push((f.kind, report.clone()));
        }
        // The tier's MinDelay winner is pinned too: the hypercube's
        // log-diameter beats the grids on average hops at every tier.
        let mut winner = 0;
        for i in 1..reports.len() {
            if reports[i]
                .1
                .better_than(&reports[winner].1, Objective::MinDelay)
            {
                winner = i;
            }
        }
        assert_eq!(reports[winner].0, "Hypercube", "{tier}c: winner drifted");
    }
}

/// One pinned delta-pruned search: a `synth:seed=<cores>` app on one
/// library topology at 500 MB/s links with strict constraints. Above
/// 24 mappable vertices the default search is the delta-pruned one, so
/// the reports it observes pin its pruning, including on topologies
/// whose search ends infeasible and prunes only through the mid-routing
/// max-load exit.
struct PruneFixture {
    kind: &'static str,
    /// Candidate reports `run_observed` saw (the greedy seed included).
    observed: usize,
    /// [`report_digest`] of those reports, in the order seen.
    digest: u64,
    /// `Ok` of the feasible winner's objective metric (`power_mw`
    /// under MinPower, `avg_hops` under MinDelay), or
    /// `Err(max_link_load)` of the least-infeasible mapping.
    outcome: Result<f64, f64>,
}

const fn pf(
    kind: &'static str,
    observed: usize,
    digest: u64,
    outcome: Result<f64, f64>,
) -> PruneFixture {
    PruneFixture {
        kind,
        observed,
        digest,
        outcome,
    }
}

/// FNV-1a, folding in the bits of each observed report's `avg_hops`,
/// `power_mw`, `max_link_load` and `floorplan_area`.
fn report_digest(hash: u64, report: &CostReport) -> u64 {
    [
        report.avg_hops,
        report.power_mw,
        report.max_link_load,
        report.floorplan_area,
    ]
    .iter()
    .flat_map(|v| v.to_bits().to_le_bytes())
    .fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs the search of `app` on `g` under `config` and checks it against
/// `f`: the observed count, the digest of every observed report and the
/// outcome.
fn assert_search_matches(
    g: &TopologyGraph,
    app: &CoreGraph,
    config: MapperConfig,
    f: &PruneFixture,
) {
    assert_eq!(g.kind().name(), f.kind, "library order drifted");
    let ctx = format!("{} / {}", f.kind, config.routing);
    let mut observed = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let outcome = match Mapper::new(g, app, config).run_observed(|r| {
        observed += 1;
        digest = report_digest(digest, r);
    }) {
        Ok(mapping) => {
            assert_eq!(mapping.evaluated_candidates(), observed, "{ctx}");
            let report = mapping.report();
            Ok(if config.objective == Objective::MinPower {
                report.power_mw
            } else {
                report.avg_hops
            })
        }
        Err(MappingError::NoFeasibleMapping(best)) => Err(best.max_link_load),
        Err(e) => panic!("{ctx}: unexpected error {e}"),
    };
    println!("{ctx}: {observed} candidates, digest {digest:#018x}, {outcome:?}");
    assert_eq!(observed, f.observed, "{ctx}: candidate count drifted");
    assert_eq!(digest, f.digest, "{ctx}: observed reports drifted");
    assert_eq!(outcome, f.outcome, "{ctx}: outcome drifted");
}

/// `synth:seed=7,cores=32` under MinPower, per routing function, in
/// library order. Captured in a release build; the test also runs in
/// the debug tier-1 suite, so any debug/release divergence fails it.
const PRUNE_FIXTURES: &[(RoutingFunction, [PruneFixture; 5])] = &[
    (
        RoutingFunction::DimensionOrdered,
        [
            pf("Mesh", 483, 0x7f860f6bcbcaa3de, Err(541.7089844989297)),
            pf("Torus", 423, 0xf571c39a757c0e53, Ok(2301.556757912213)),
            pf("Hypercube", 399, 0xa2ba9892b243703e, Ok(2819.8123006806527)),
            pf("Clos", 1396, 0xaf779f0550236269, Err(732.8258164143833)),
            pf("Butterfly", 1740, 0xe0e7ad36fa4d346a, Err(985.532951968849)),
        ],
    ),
    (
        RoutingFunction::MinPath,
        [
            pf("Mesh", 330, 0xdec7c19bc0248c25, Ok(2189.388936617785)),
            pf("Torus", 4, 0x87d77cf8f930aea7, Ok(2206.7052872467502)),
            pf("Hypercube", 13, 0xb099d2567a28fb9c, Ok(2779.054252434318)),
            pf("Clos", 643, 0x7674ca2432e609fa, Ok(3295.23984236653)),
            pf("Butterfly", 1740, 0xe0e7ad36fa4d346a, Err(985.532951968849)),
        ],
    ),
    (
        RoutingFunction::SplitMinPaths,
        [
            pf("Mesh", 469, 0xc8376ce912870394, Ok(2174.7986530445924)),
            pf("Torus", 4, 0x3726313dd02a9a9b, Ok(2206.8074615935498)),
            pf("Hypercube", 20, 0xa10f2680b9c61b8b, Ok(2761.4240205783526)),
            pf("Clos", 727, 0xbe4f73f1229439b9, Ok(3261.1247372373846)),
            pf("Butterfly", 1740, 0xe0e7ad36fa4d346a, Err(985.532951968849)),
        ],
    ),
    (
        RoutingFunction::SplitAllPaths,
        [
            pf("Mesh", 309, 0x2c6a2ba3bd8dfddc, Ok(2178.1608976710563)),
            pf("Torus", 4, 0xa93fcc0587c2b229, Ok(2212.469586972485)),
            pf("Hypercube", 21, 0xa7fbf12261d924a9, Ok(2753.5806391702936)),
            pf("Clos", 727, 0xbe4f73f1229439b9, Ok(3261.1247372373846)),
            pf("Butterfly", 1740, 0xe0e7ad36fa4d346a, Err(985.532951968849)),
        ],
    ),
];

#[test]
fn pruning_counters_match_the_pinned_goldens() {
    let app = scale_app(32);
    let library = builders::standard_library(32, 500.0).expect("library builds");
    for (routing, fixtures) in PRUNE_FIXTURES {
        assert_eq!(library.len(), fixtures.len());
        for (g, f) in library.iter().zip(fixtures) {
            let config = MapperConfig {
                routing: *routing,
                objective: Objective::MinPower,
                ..MapperConfig::default()
            };
            assert_search_matches(g, &app, config, f);
        }
    }
}

/// The MinPath scale smoke: `synth:seed=7,cores=128` explored under
/// MinDelay / MP at 500 MB/s links, the lazy-table regime in which
/// four of the five topologies end infeasible. Each topology's search
/// is pinned as [`PRUNE_FIXTURES`] pins them at 32 cores. The
/// run takes 15–16 s in release on a 2-vCPU box, so `make scale-smoke`
/// opts in through `SUNMAP_SCALE_SMOKE=1`, under the bound
/// [`MP_SMOKE_SECS`]. Counts and outcomes were captured in a release
/// build that routed every MinPath commodity with the heap-based
/// `paths::dijkstra_into`, the level search's oracle; the digests in a
/// later release build that reproduced them.
const MP_SCALE_FIXTURES: &[PruneFixture] = &[
    pf("Mesh", 373, 0xf3928a8fb8b200d1, Err(796.8364817914647)),
    pf("Torus", 904, 0xad1c35ce758a244c, Err(646.0785716954762)),
    pf("Hypercube", 361, 0x8b2522f633be8b6a, Ok(2.7697985011853308)),
    pf("Clos", 683, 0x7e484af73917201c, Err(589.6919303759391)),
    pf(
        "Butterfly",
        7400,
        0x5951725f7bd13902,
        Err(2190.390433345309),
    ),
];

/// Wall-clock bound of the MinPath scale smoke, about four times its
/// 15–16 s in release on a 2-vCPU box.
const MP_SMOKE_SECS: u64 = 60;

#[test]
fn min_path_scale_smoke_pins_the_128_core_explore() {
    if std::env::var_os("SUNMAP_SCALE_SMOKE").is_none() {
        eprintln!("skipping 128-core MinPath smoke (set SUNMAP_SCALE_SMOKE=1 to run)");
        return;
    }
    let app = scale_app(128);
    let library = builders::standard_library(128, 500.0).expect("library builds");
    assert_eq!(library.len(), MP_SCALE_FIXTURES.len());
    let start = Instant::now();
    for (g, f) in library.iter().zip(MP_SCALE_FIXTURES) {
        let config = MapperConfig {
            routing: RoutingFunction::MinPath,
            objective: Objective::MinDelay,
            ..MapperConfig::default()
        };
        assert_search_matches(g, &app, config, f);
    }
    let elapsed = start.elapsed();
    println!("128-core MinPath smoke took {elapsed:.1?}");
    assert!(
        elapsed < Duration::from_secs(MP_SMOKE_SECS),
        "128-core MinPath smoke took {elapsed:.1?} (bound: {MP_SMOKE_SECS} s)"
    );
}

/// The 4096-core acceptance smoke: a 64×64 mesh maps end to end under
/// a generous wall-clock bound (measured ~11 s cold in release on the
/// CI container), bit-identical to the pinned report. The run costs
/// minutes in a debug build, so `make scale-smoke` opts in through
/// `SUNMAP_SCALE_SMOKE=1` against the release binary.
#[test]
fn mesh_4096_smoke_maps_within_the_wall_clock_bound() {
    if std::env::var_os("SUNMAP_SCALE_SMOKE").is_none() {
        eprintln!("skipping 4096-core smoke (set SUNMAP_SCALE_SMOKE=1 to run)");
        return;
    }
    let app = scale_app(4096);
    let g = builders::mesh(64, 64, 500.0).expect("mesh builds");
    let start = std::time::Instant::now();
    let mapping = Mapper::new(&g, &app, scale_config(TablePrep::Auto))
        .run()
        .expect("4096-core mesh maps under relaxed bandwidth");
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 240,
        "4096-core mesh took {elapsed:.1?} (bound: 240 s)"
    );
    assert_eq!(mapping.report().power_mw, 2039084.202496331);
    assert_eq!(mapping.report().floorplan_area, 45464.20695604746);
    assert_eq!(mapping.evaluated_candidates(), 16);
    println!("4096-core mesh mapped in {elapsed:.1?}");
}

/// Route-enumeration scale smoke, part 1: the synthetic route plans of
/// a 32×32 mesh and a 32×32 torus (about a million dimension-ordered
/// routes each) compile, and a short uniform run at 0.02 on each plan
/// gives the reference engine's statistics, which route every packet
/// live. Opt-in like the 4096-core smoke, under the bound
/// [`PLAN_SMOKE_SECS`]; with a dimension-order step that scanned every
/// node, one such plan took about 18 s.
#[test]
fn route_enumeration_smoke_compiles_and_simulates_32x32_plans() {
    if std::env::var_os("SUNMAP_SCALE_SMOKE").is_none() {
        eprintln!("skipping 32x32 plan smoke (set SUNMAP_SCALE_SMOKE=1 to run)");
        return;
    }
    let start = Instant::now();
    for g in [
        builders::mesh(32, 32, 500.0).expect("mesh builds"),
        builders::torus(32, 32, 500.0).expect("torus builds"),
    ] {
        let config = SimConfig::fast();
        let compile = Instant::now();
        let plan = Arc::new(RoutePlan::synthetic(&g, &RouteTable::new(&g), &config));
        println!("{}: plan compiled in {:.1?}", g.kind(), compile.elapsed());
        let event = SimSession::builder(&g)
            .config(config)
            .plan(plan)
            .build()
            .run_synthetic(&TrafficPattern::UniformRandom, 0.02);
        let reference = SimSession::builder(&g)
            .config(SimConfig {
                engine: SimEngine::Reference,
                ..config
            })
            .build()
            .run_synthetic(&TrafficPattern::UniformRandom, 0.02);
        assert!(event.packets_delivered > 0, "{}", g.kind());
        assert_eq!(event, reference, "{}: engines disagree", g.kind());
    }
    let elapsed = start.elapsed();
    println!("32x32 plan smoke took {elapsed:.1?}");
    assert!(
        elapsed < Duration::from_secs(PLAN_SMOKE_SECS),
        "32x32 plan smoke took {elapsed:.1?} (bound: {PLAN_SMOKE_SECS} s)"
    );
}

/// Wall-clock bound of the 32×32 plan smoke: about four to five times
/// the 3.0–4.2 s it takes in release on a 2-vCPU box (each plan compiles
/// in 0.7–1.8 s), so enumerators that cost seconds per plan fail it.
const PLAN_SMOKE_SECS: u64 = 15;

/// Route-enumeration scale smoke, part 2: the split-all-paths (SA)
/// candidates from each corner of a 16×16 mesh to every other switch,
/// with SA's slack of two hops over the minimum and its cap of 32
/// paths, pinned as path counts per corner (the mesh's reflections map
/// corners onto each other, so all four agree), under the bound
/// [`SA_SMOKE_MILLIS`]. The search without a distance bound found the
/// same 7,782 paths from corner (0, 0) in about 12 s.
#[test]
fn route_enumeration_smoke_pins_sa_candidates_on_a_16x16_mesh() {
    if std::env::var_os("SUNMAP_SCALE_SMOKE").is_none() {
        eprintln!("skipping 16x16 SA smoke (set SUNMAP_SCALE_SMOKE=1 to run)");
        return;
    }
    let g = builders::mesh(16, 16, 500.0).expect("mesh builds");
    let start = Instant::now();
    let counts: Vec<usize> = [(0, 0), (0, 15), (15, 0), (15, 15)]
        .into_iter()
        .map(|(row, col)| {
            let a = g.switch_at_grid(row, col).expect("corner switch");
            g.mappable_nodes()
                .iter()
                .filter(|&&b| b != a)
                .map(|&b| {
                    let min_len = paths::shortest_path(&g, a, b, None)
                        .expect("mesh is connected")
                        .len();
                    paths::all_simple_paths(&g, a, b, None, min_len + 2, 32).len()
                })
                .sum()
        })
        .collect();
    let elapsed = start.elapsed();
    println!("16x16 SA corner smoke took {elapsed:.1?}: {counts:?}");
    assert_eq!(counts, [7782; 4]);
    assert!(
        elapsed < Duration::from_millis(SA_SMOKE_MILLIS),
        "16x16 SA corner smoke took {elapsed:.1?} (bound: {SA_SMOKE_MILLIS} ms)"
    );
}

/// Wall-clock bound of the 16×16 SA smoke: it takes 9–17 ms in release
/// on a 2-vCPU box, and a few milliseconds of scheduling noise would
/// trip an exact five-fold bound, so the margin is six- to ten-fold.
const SA_SMOKE_MILLIS: u64 = 100;

#[test]
fn goldens_are_reproducible_within_one_process() {
    // Double-checks the determinism assumption the table relies on:
    // two explorations in the same process agree bit for bit.
    let (app, capacity, routing) = app_config("vopd");
    let tool = Sunmap::builder(app)
        .link_capacity(capacity)
        .routing(routing)
        .objective(Objective::MinPower)
        .build();
    let a = tool.explore().unwrap();
    let b = tool.explore().unwrap();
    let ra = a.best_candidate().unwrap().report().unwrap();
    let rb = b.best_candidate().unwrap().report().unwrap();
    assert_eq!(ra, rb);
}
