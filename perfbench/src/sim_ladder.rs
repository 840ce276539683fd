//! `sim-ladder`: uniform-random traffic under the default `SimConfig`
//! (engine `Auto`) on the five `standard_library(64)` topologies and a
//! 16×16 mesh, at rates straddling Auto's 0.15 event/flat switch, plus
//! the phase-4 trace validation (`Sunmap::validate`, intensity 0.45)
//! of the paper applications at their feasible configurations.
//!
//! Covers synthetic and trace use of the simulator; the mapping layer
//! runs only in set-up (the explorations validation needs). Each
//! topology's `RoutePlan::synthetic` is compiled in set-up and handed
//! to `SimSessionBuilder::plan`. The workload seed is the simulator's
//! RNG seed.

use std::sync::Arc;
use std::time::Instant;

use sunmap::mapping::RouteTable;
use sunmap::sim::sweep::stats_json_fields;
use sunmap::sim::{RoutePlan, SimConfig, SimEngine, SimSession};
use sunmap::topology::builders;
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::{AppSource, Exploration, RoutingFunction, Sunmap, TablePrep, TopologyGraph};

use crate::check::{guarded, Checker};
use crate::layers::{count_materialized, label, outcome_record, traced_library, traced_map};
use crate::layers::{Counts, LayerTotals};
use crate::stats::median;
use crate::trace::{Phase, Tracer};
use crate::{end_to_end, more_passes, peak_rss_mb, Args, Metric, OpTimes, Report, SETUP_SECONDS};

/// Injection rates (flits/cycle/terminal).
const RATES: [f64; 5] = [0.02, 0.05, 0.15, 0.45, 1.0];

/// Trace intensity of the phase-4 validation.
const INTENSITY: f64 = 0.45;

/// The paper applications at their feasible configurations (link
/// capacity, routing), as in the golden fixtures.
const VALIDATED: [(&str, f64, RoutingFunction); 4] = [
    ("vopd", 500.0, RoutingFunction::MinPath),
    ("mpeg4", 500.0, RoutingFunction::SplitAllPaths),
    ("dsp", 1000.0, RoutingFunction::MinPath),
    ("netproc", 500.0, RoutingFunction::SplitMinPaths),
];

/// Set-up repetitions at least (an untraced run repeats set-up for at
/// least [`SETUP_SECS`]).
const MIN_SETUP_REPS: usize = 3;

/// How long an untraced run repeats set-up: four times
/// [`SETUP_SECONDS`]. A repetition builds about 160 MiB afresh, and on
/// a shared VM its fastest time over 2 s still ranged 0.31–0.53 s
/// across back-to-back runs.
const SETUP_SECS: f64 = 4.0 * SETUP_SECONDS;

/// Simulated cycles per run: warm-up + measurement + drain (the
/// `sim_speed` bench's same-simulation convention).
fn nominal_cycles(config: &SimConfig) -> f64 {
    (config.warmup_cycles + config.measure_cycles + config.drain_cycles) as f64
}

/// One application validated in every pass.
struct Validated {
    name: &'static str,
    tool: Sunmap,
    exploration: Exploration,
}

/// Everything set-up builds except the sessions, which borrow `graphs`.
struct Ladder {
    graphs: Vec<(String, TopologyGraph)>,
    plans: Vec<Arc<RoutePlan>>,
    apps: Vec<Validated>,
}

/// A tracer with its counts and the set-up repetition or pass index,
/// when the run is traced.
type Traced<'t> = Option<(&'t mut Tracer, &'t mut Counts, usize)>;

/// Runs `f` inside a span when traced.
fn maybe_span<R>(tr: &mut Traced<'_>, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some((t, _, _)) => t.span(name, label, f),
        None => f(),
    }
}

/// Builds the ladder; with a tracer, every layer call is a span of
/// set-up repetition `rep`, and the explorations are also broken into
/// their per-topology calls (checked against the untraced ones).
fn build(config: &SimConfig, mut tr: Traced<'_>, checker: &mut Checker) -> Ladder {
    if let Some((t, _, rep)) = &mut tr {
        t.at(Phase::Setup(*rep), 0);
    }
    let mut graphs: Vec<(String, TopologyGraph)> =
        maybe_span(&mut tr, "topology.library", "", || {
            let lib = builders::standard_library(64, 500.0).expect("the 64-core library builds");
            lib.into_iter().map(|g| (label(&g), g)).collect()
        });
    let big = maybe_span(&mut tr, "topology.library", "", || {
        builders::mesh(16, 16, 500.0)
    })
    .expect("a 16x16 mesh builds");
    graphs.push(("mesh16x16".to_string(), big));
    let plans = graphs
        .iter()
        .map(|(name, g)| {
            let mut table = maybe_span(&mut tr, "mapping.table.build", name, || {
                RouteTable::with_prep(g, TablePrep::Auto)
            });
            maybe_span(&mut tr, "sim.plan", name, || {
                Arc::new(RoutePlan::synthetic(g, &mut table, config))
            })
        })
        .collect();
    let mut apps = Vec::new();
    for (name, capacity, routing) in VALIDATED {
        let app = maybe_span(&mut tr, "traffic.load", name, || AppSource::load(name))
            .expect("paper applications load");
        let tool = Sunmap::builder(app)
            .link_capacity(capacity)
            .routing(routing)
            .build();
        let exploration = tool.explore().expect("paper applications explore");
        if let Some((t, counts, rep)) = &mut tr {
            let phase = Phase::Setup(*rep);
            let traced = traced_explore(t, counts, phase, &tool, capacity, &exploration);
            checker.record(traced);
        }
        apps.push(Validated {
            name,
            tool,
            exploration,
        });
    }
    Ladder {
        graphs,
        plans,
        apps,
    }
}

/// The per-topology calls of `tool.explore()` under spans; the
/// outcome must equal the untraced exploration's.
fn traced_explore(
    tr: &mut Tracer,
    counts: &mut Counts,
    phase: Phase,
    tool: &Sunmap,
    capacity: f64,
    untraced: &Exploration,
) -> Result<(), String> {
    let config = tool.mapper_config();
    let app = tool.application();
    guarded(|| {
        let mut cands = traced_library(tr, app.core_count(), capacity, config.table_prep)?;
        let mapped = traced_map(tr, counts, phase, &mut cands, app, config);
        count_materialized(counts, phase, &cands);
        let traced = outcome_record(cands.iter().zip(&mapped).map(|(c, m)| {
            let ok = m.outcome.as_ref().ok();
            (
                c.graph.kind().name(),
                ok.map(|o| o.report()),
                ok.map_or(0, |o| o.evaluated_candidates()),
            )
        }));
        let expected = outcome_record(untraced.candidates.iter().map(|c| {
            let ok = c.outcome.as_ref().ok();
            (
                c.kind.name(),
                ok.map(|o| o.report()),
                ok.map_or(0, |o| o.evaluated_candidates()),
            )
        }));
        if traced == expected {
            Ok(())
        } else {
            Err("traced exploration differs from Sunmap::explore".to_string())
        }
    })
}

/// The validation entries of an exploration as one text.
fn validation_text(ex: &Exploration) -> String {
    ex.validation.as_ref().map_or(String::new(), |v| {
        v.entries
            .iter()
            .map(|e| format!("{} {}\n", e.kind.name(), stats_json_fields(&e.stats)))
            .collect()
    })
}

/// What one pass measured.
struct Pass {
    wall: f64,
    cycles: f64,
    /// Each run's and validation's seconds, in pass order.
    op_secs: Vec<f64>,
    outputs: Vec<(String, Result<String, String>)>,
}

/// One pass over the ladder and the validations; with a tracer, each
/// run is a span and its counts are recorded.
fn pass(
    seed: u64,
    config: &SimConfig,
    graphs: &[(String, TopologyGraph)],
    sessions: &mut [SimSession<'_>],
    apps: &mut [Validated],
    mut tr: Traced<'_>,
) -> Pass {
    let cycles = nominal_cycles(config);
    let mut outputs = Vec::new();
    let mut op_secs = Vec::new();
    let mut total_cycles = 0.0;
    let start = Instant::now();
    for ((name, _), session) in graphs.iter().zip(sessions.iter_mut()) {
        for rate in RATES {
            let engine = session.engine_for(rate).name();
            let op = Instant::now();
            let mut run =
                || guarded(|| Ok(session.run_synthetic(&TrafficPattern::UniformRandom, rate)));
            let stats = match &mut tr {
                Some((t, counts, p)) => {
                    let phase = Phase::Pass(*p);
                    t.at(phase, outputs.len() as u64);
                    let id = t.begin("sim.run", engine);
                    let stats = run();
                    t.end(id);
                    let s = &t.spans()[id];
                    let load = if rate < SimEngine::AUTO_EVENT_MAX_LOAD {
                        "low"
                    } else {
                        "high"
                    };
                    counts.add(phase, &format!("sim.runs.{engine}"), 1.0);
                    counts.add(phase, &format!("sim.cycles.{load}"), cycles);
                    counts.add(
                        phase,
                        &format!("sim.ns.{load}"),
                        (s.end_ns - s.start_ns) as f64,
                    );
                    if let Ok(st) = &stats {
                        let flits = st.packets_delivered * config.packet_flits;
                        counts.add(phase, "sim.delivered_flits", flits as f64);
                    }
                    stats
                }
                None => run(),
            };
            op_secs.push(op.elapsed().as_secs_f64());
            total_cycles += cycles;
            let key = format!("sim-ladder seed={seed} {name}@{rate}");
            outputs.push((key, stats.map(|s| stats_json_fields(&s))));
        }
    }
    for app in apps.iter_mut() {
        if let Some((t, _, p)) = &mut tr {
            t.at(Phase::Pass(*p), outputs.len() as u64);
        }
        let op = Instant::now();
        let text = maybe_span(&mut tr, "sim.trace", app.name, || {
            guarded(|| {
                app.tool.validate(&mut app.exploration, *config, INTENSITY);
                Ok(validation_text(&app.exploration))
            })
        });
        op_secs.push(op.elapsed().as_secs_f64());
        let entries = app
            .exploration
            .validation
            .as_ref()
            .map_or(&[][..], |v| &v.entries[..]);
        if let Some((_, counts, p)) = &mut tr {
            let flits: usize = entries
                .iter()
                .map(|e| e.stats.packets_delivered * config.packet_flits)
                .sum();
            counts.add(Phase::Pass(*p), "sim.delivered_flits", flits as f64);
        }
        total_cycles += cycles * entries.len() as f64;
        outputs.push((
            format!("sim-ladder seed={seed} validate {}", app.name),
            text,
        ));
    }
    Pass {
        wall: start.elapsed().as_secs_f64(),
        cycles: total_cycles,
        op_secs,
        outputs,
    }
}

/// For a seed without pins: the engine Auto did not pick must give
/// bit-identical statistics on one topology's ladder and one
/// validation (chosen by the seed).
fn engine_agreement(
    seed: u64,
    config: &SimConfig,
    ladder: &mut Ladder,
    first: &[(String, Result<String, String>)],
    checker: &mut Checker,
) {
    let i = (seed % ladder.graphs.len() as u64) as usize;
    let (name, g) = &ladder.graphs[i];
    for rate in RATES {
        let other = match config.engine.resolve(rate) {
            SimEngine::Flat => SimEngine::EventDriven,
            _ => SimEngine::Flat,
        };
        let key = format!("sim-ladder seed={seed} {name}@{rate}");
        let expected = first
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, o)| o.clone());
        checker.record(guarded(|| {
            let mut session = SimSession::builder(g)
                .config(SimConfig {
                    engine: other,
                    ..*config
                })
                .plan(ladder.plans[i].clone())
                .build();
            let got =
                stats_json_fields(&session.run_synthetic(&TrafficPattern::UniformRandom, rate));
            match expected {
                Some(Ok(e)) if e == got => Ok(()),
                _ => Err(format!("{key}: {} engine disagrees", other.name())),
            }
        }));
    }
    let app = &mut ladder.apps[(seed % VALIDATED.len() as u64) as usize];
    let key = format!("sim-ladder seed={seed} validate {}", app.name);
    let expected = first
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, o)| o.clone());
    checker.record(guarded(|| {
        let event = SimConfig {
            engine: SimEngine::EventDriven,
            ..*config
        };
        app.tool.validate(&mut app.exploration, event, INTENSITY);
        match expected {
            Some(Ok(e)) if e == validation_text(&app.exploration) => Ok(()),
            _ => Err(format!("{key}: event engine disagrees")),
        }
    }));
}

fn sessions<'a>(
    config: &SimConfig,
    graphs: &'a [(String, TopologyGraph)],
    plans: &[Arc<RoutePlan>],
) -> Vec<SimSession<'a>> {
    graphs
        .iter()
        .zip(plans)
        .map(|((_, g), plan)| {
            SimSession::builder(g)
                .config(*config)
                .plan(plan.clone())
                .build()
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, checker: &mut Checker) -> Report {
    let config = SimConfig {
        seed: args.seed,
        ..SimConfig::default()
    };
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut setup_times = Vec::new();
    let mut ladder = None;
    sunmap::mapping::timing::set_floorplan_timing(args.trace);
    let setup_secs = if args.trace { 0.0 } else { SETUP_SECS };
    let setup_start = Instant::now();
    while setup_times.len() < MIN_SETUP_REPS || setup_start.elapsed().as_secs_f64() < setup_secs {
        let rep = setup_times.len();
        let t = Instant::now();
        let traced = args.trace.then_some((&mut tr, &mut counts, rep));
        let l = build(&config, traced, checker);
        drop(std::hint::black_box(sessions(&config, &l.graphs, &l.plans)));
        setup_times.push(t.elapsed().as_secs_f64());
        ladder = Some(l);
    }
    sunmap::mapping::timing::set_floorplan_timing(false);
    let mut ladder = ladder.expect("at least one set-up repetition");
    let mut sess = sessions(&config, &ladder.graphs, &ladder.plans);

    let mut walls = Vec::new();
    let mut ops = OpTimes::default();
    let mut pass_cycles = 0.0;
    let mut traced_walls = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while more_passes(start, args.seconds, walls.len(), 1) {
        let p = pass(
            args.seed,
            &config,
            &ladder.graphs,
            &mut sess,
            &mut ladder.apps,
            None,
        );
        walls.push(p.wall);
        ops.push_pass(p.op_secs);
        pass_cycles = p.cycles;
        for (key, out) in &p.outputs {
            checker.record_pinned(key, out.clone());
        }
        first.get_or_insert(p.outputs);
        if args.capture_pins {
            break;
        }
        if args.trace {
            let traced = Some((&mut tr, &mut counts, traced_walls.len()));
            let p = pass(
                args.seed,
                &config,
                &ladder.graphs,
                &mut sess,
                &mut ladder.apps,
                traced,
            );
            traced_walls.push(p.wall);
            for (key, out) in p.outputs {
                checker.record_pinned(&key, out);
            }
        }
    }
    let rss = peak_rss_mb();
    drop(sess);
    let first = first.expect("at least one pass");
    let pinned = first.iter().all(|(k, _)| checker.is_pinned(k));
    if !pinned {
        engine_agreement(args.seed, &config, &mut ladder, &first, checker);
    }

    let mut metrics;
    if !args.trace {
        metrics = end_to_end(&setup_times, &ops, rss);
        metrics.push(
            Metric::new(
                "sim_cycles_per_s",
                pass_cycles / ops.pass_wall(),
                "cycles/s",
            )
            .samples(ops.passes()),
        );
    } else {
        let t = LayerTotals::new(&tr, &counts, setup_times.len(), traced_walls.len());
        metrics = t.mapping_metrics();
        let per_s = |load: &str| {
            t.count(&format!("sim.cycles.{load}")) / (t.count(&format!("sim.ns.{load}")) * 1e-9)
        };
        metrics.extend([
            Metric::new("sim.plan_s", t.time("sim.plan"), "s"),
            Metric::new("sim.run_s.event", t.time("sim.run.event"), "s"),
            Metric::new("sim.run_s.flat", t.time("sim.run.flat"), "s"),
            Metric::new("sim.runs.event", t.count("sim.runs.event"), "count"),
            Metric::new("sim.runs.flat", t.count("sim.runs.flat"), "count"),
            Metric::new("sim.cycles_per_s.low_load", per_s("low"), "cycles/s"),
            Metric::new("sim.cycles_per_s.high_load", per_s("high"), "cycles/s"),
            Metric::new("sim.trace_s", t.time("sim.trace"), "s"),
            Metric::new(
                "sim.delivered_flits",
                t.count("sim.delivered_flits"),
                "count",
            ),
            Metric::new(
                "trace.overhead_s",
                median(&traced_walls) - median(&walls),
                "s",
            )
            .samples(traced_walls.len()),
        ]);
    }
    Report {
        metrics,
        passes: walls.len() + traced_walls.len(),
        setup_reps: setup_times.len(),
        spans: args.trace.then(|| tr.to_jsonl()),
    }
}
