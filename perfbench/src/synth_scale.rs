//! `synth-scale`: full-library `Sunmap::explore` with MP routing at
//! 500 MB/s links on three synthetic applications: `synth:seed=7` at
//! 64 cores under MinPower (two of five topologies end infeasible),
//! `synth:seed=13` at 64 cores under MinDelay (four of five end
//! infeasible, as at 128 cores) and a 32-core one generated from the
//! workload seed under MinPower.
//!
//! The workload where delta-pruned search and the time spent on
//! topologies that end infeasible dominate. The two 64-core
//! applications take about nine tenths of a pass and stay fixed, so the
//! pass repeats exactly whatever the seed; a pass takes about 3 s on
//! one CPU, so a run holds several and `wall_s` can take each explore's
//! fastest time. Past 64 cores an explore takes 7 s or more (closed-form
//! and lazy route tables start at 65 mappable vertices), too long to
//! repeat within a run.
//!
//! The traced run also maps `synth:seed=7,cores=128` under MinDelay
//! once (about 24 s on one CPU) and reports its per-topology split,
//! where about 98 % of the search time goes to topologies that end
//! infeasible.

use std::time::Instant;

use sunmap::request::{ExploreRequest, RequestRunner};
use sunmap::{AppSource, Exploration, Objective, RoutingFunction, Sunmap};

use crate::check::{guarded, Checker};
use crate::layers::{count_materialized, outcome_record, report_entry, traced_library};
use crate::layers::{label, traced_map, Counts, LayerTotals, TOPOLOGIES};
use crate::stats::median;
use crate::trace::{Phase, Tracer};
use crate::SETUP_SECONDS;
use crate::{
    end_to_end, fastest, more_passes, peak_rss_mb, repeat_setup, Args, Metric, OpTimes, Report,
};

const CAPACITY: f64 = 500.0;

/// Set-up repetitions in a traced run (an untraced run repeats set-up
/// for [`SETUP_SECONDS`]).
const TRACED_SETUP_REPS: usize = 5;

/// A synthetic application: generator seed, cores and objective.
type Spec = (u64, usize, Objective);

/// The application the traced run maps once, outside the passes.
const HEADLINE: Spec = (7, 128, Objective::MinDelay);

/// One application of the workload.
struct App {
    spec: String,
    /// `<cores>cores.seed<seed>`, naming its metrics.
    tag: String,
    objective: Objective,
    tool: Sunmap,
    cores: usize,
}

fn specs(seed: u64) -> [Spec; 3] {
    [
        (7, 64, Objective::MinPower),
        (13, 64, Objective::MinDelay),
        (seed, 32, Objective::MinPower),
    ]
}

/// Generates one application (traced as `traffic.load` in `phase` when
/// `tr` is given) and configures the tool for it.
fn load((seed, cores, objective): Spec, tr: Option<(&mut Tracer, Phase)>) -> App {
    let spec = format!("synth:seed={seed},cores={cores}");
    let app = match tr {
        Some((t, phase)) => {
            t.at(phase, 0);
            t.span("traffic.load", "", || AppSource::load(&spec))
        }
        None => AppSource::load(&spec),
    }
    .expect("synthetic specs are valid");
    let tag = format!("{cores}cores.seed{seed}");
    let cores = app.core_count();
    let tool = Sunmap::builder(app)
        .link_capacity(CAPACITY)
        .routing(RoutingFunction::MinPath)
        .objective(objective)
        .build();
    App {
        spec,
        tag,
        objective,
        tool,
        cores,
    }
}

/// The timed applications; with a tracer, each generation is a span of
/// set-up repetition `rep`.
fn setup(seed: u64, mut tr: Option<(&mut Tracer, usize)>) -> Vec<App> {
    specs(seed)
        .into_iter()
        .map(|spec| {
            let traced = tr.as_mut().map(|(t, rep)| (&mut **t, Phase::Setup(*rep)));
            load(spec, traced)
        })
        .collect()
}

fn pin_key(app: &App) -> String {
    let objective = sunmap::request::objective_name(app.objective);
    format!("synth-scale {}/{objective}", app.spec)
}

fn record_key(app: &App) -> String {
    format!("{}#record", pin_key(app))
}

/// Per-topology entries and evaluation counts of an exploration.
fn exploration_record(ex: &Exploration) -> String {
    outcome_record(ex.candidates.iter().map(|c| {
        let m = c.outcome.as_ref().ok();
        (
            c.kind.name(),
            m.map(|m| m.report()),
            m.map_or(0, |m| m.evaluated_candidates()),
        )
    }))
}

fn winner_name(ex: &Exploration) -> &'static str {
    ex.best_candidate().map_or("none", |c| c.kind.name())
}

/// One untraced pass; returns its wall time, each explore's time and
/// the pass's explorations.
fn untraced_pass(apps: &[App], checker: &mut Checker) -> (f64, Vec<f64>, Vec<Option<Exploration>>) {
    let start = Instant::now();
    let outs: Vec<(f64, Result<Exploration, String>)> = apps
        .iter()
        .map(|a| {
            let t = Instant::now();
            let out = guarded(|| a.tool.explore().map_err(|e| e.to_string()));
            (t.elapsed().as_secs_f64(), out)
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let mut times = Vec::new();
    let mut explorations = Vec::new();
    for (app, (secs, out)) in apps.iter().zip(outs) {
        times.push(secs);
        let record = out.as_ref().map(exploration_record).map_err(Clone::clone);
        // The traced pass must reproduce this record.
        if let Ok(r) = &record {
            let _ = checker.same_as_before(&record_key(app), r);
        }
        let text = record.map(|r| {
            let ex = out.as_ref().expect("recorded explorations succeeded");
            format!("{r}winner={}\n", winner_name(ex))
        });
        checker.record_pinned(&pin_key(app), text);
        explorations.push(out.ok());
    }
    (wall, times, explorations)
}

/// One traced pass in `phase`: each explore broken into its public
/// per-topology calls. Returns the pass's wall time and each
/// application's record.
fn traced_pass(
    phase: Phase,
    apps: &[App],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (f64, Vec<Result<String, String>>) {
    let start = Instant::now();
    let mut records = Vec::new();
    for (k, app) in apps.iter().enumerate() {
        tr.at(phase, k as u64);
        let explore = tr.begin("core.explore", "");
        let config = app.tool.mapper_config();
        let result = guarded(|| {
            let mut cands = traced_library(tr, app.cores, CAPACITY, config.table_prep)?;
            let mapped = traced_map(
                tr,
                counts,
                phase,
                &mut cands,
                app.tool.application(),
                config,
            );
            count_materialized(counts, phase, &cands);
            // The per-application split: where this explore's search
            // time went, and how much of it ended infeasible.
            for (c, m) in cands.iter().zip(&mapped) {
                let name = format!("mapping.search_ns.{}.{}", label(&c.graph), app.tag);
                counts.add(phase, &name, m.search_ns);
                counts.add(
                    phase,
                    &format!("mapping.search_ns.{}", app.tag),
                    m.search_ns,
                );
                if m.outcome.is_err() {
                    let name = format!("mapping.search_ns.infeasible.{}", app.tag);
                    counts.add(phase, &name, m.search_ns);
                }
            }
            Ok(outcome_record(cands.iter().zip(&mapped).map(|(c, m)| {
                let ok = m.outcome.as_ref().ok();
                (
                    c.graph.kind().name(),
                    ok.map(|o| o.report()),
                    ok.map_or(0, |o| o.evaluated_candidates()),
                )
            })))
        });
        tr.end(explore);
        records.push(result);
    }
    (start.elapsed().as_secs_f64(), records)
}

/// Checks an exploration without a pin against `RequestRunner`, which
/// must report the same winner and per-topology costs.
fn agrees_with_request_runner(app: &App, ex: &Exploration) -> Result<(), String> {
    let mut req = ExploreRequest::new(app.spec.parse().map_err(|e| format!("{e}"))?);
    req.objective = app.objective;
    req.routing = RoutingFunction::MinPath;
    req.capacity = CAPACITY;
    let line = RequestRunner::new(1).run(&req)?.line;
    let entries_match = ex
        .candidates
        .iter()
        .all(|c| line.contains(&report_entry(c.kind.name(), c.report())));
    let winner = match ex.best_candidate() {
        Some(c) => format!("\"winner\":{{\"topology\":\"{}\"", c.kind.name()),
        None => "\"winner\":null".to_string(),
    };
    if entries_match && line.contains(&winner) {
        Ok(())
    } else {
        Err(format!(
            "{}: RequestRunner and Sunmap::explore disagree",
            app.spec
        ))
    }
}

/// The 128-core application's per-topology search split: traced once
/// and checked against the record its untraced explore pinned. While
/// capturing pins, the untraced explore gives the record instead.
fn headline(
    args: &Args,
    tr: &mut Tracer,
    counts: &mut Counts,
    checker: &mut Checker,
) -> Vec<Metric> {
    let app = load(HEADLINE, Some((&mut *tr, Phase::Once)));
    if args.capture_pins {
        let record = guarded(|| app.tool.explore().map_err(|e| e.to_string()));
        checker.record_pinned(&record_key(&app), record.map(|ex| exploration_record(&ex)));
        return Vec::new();
    }
    let (_, records) = traced_pass(Phase::Once, std::slice::from_ref(&app), tr, counts);
    for record in records {
        checker.record_pinned(&record_key(&app), record);
    }
    let get = |name: &str| counts.get(Phase::Once, name);
    split_metrics(&app.tag, get, |num, den| get(num) / get(den))
}

/// An application's per-topology search seconds (`count` reduces a
/// count over the run) and the share of its search time spent on
/// topologies that ended infeasible (`ratio` reduces a ratio of two).
fn split_metrics(
    tag: &str,
    count: impl Fn(&str) -> f64,
    ratio: impl Fn(&str, &str) -> f64,
) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = TOPOLOGIES
        .iter()
        .map(|t| {
            let s = count(&format!("mapping.search_ns.{t}.{tag}")) * 1e-9;
            Metric::new(&format!("mapping.search_s.{t}.{tag}"), s, "s")
        })
        .collect();
    let share = ratio(
        &format!("mapping.search_ns.infeasible.{tag}"),
        &format!("mapping.search_ns.{tag}"),
    );
    let name = format!("mapping.infeasible_share.{tag}");
    metrics.push(Metric::new(&name, share, "ratio"));
    metrics
}

/// Runs the workload.
pub fn run(args: &Args, checker: &mut Checker) -> Report {
    let mut tr = Tracer::new();
    let setup_secs = if args.trace { 0.0 } else { SETUP_SECONDS };
    let (apps, setup_times) = repeat_setup(TRACED_SETUP_REPS, setup_secs, |rep| {
        setup(args.seed, args.trace.then_some((&mut tr, rep)))
    });
    let mut walls = Vec::new();
    let mut ops = OpTimes::default();
    let mut first: Option<Vec<Option<Exploration>>> = None;
    let mut counts = Counts::default();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    while more_passes(start, args.seconds, walls.len(), 1) {
        sunmap::mapping::timing::set_floorplan_timing(false);
        let (wall, times, explorations) = untraced_pass(&apps, checker);
        walls.push(wall);
        ops.push_pass(times);
        first.get_or_insert(explorations);
        if args.capture_pins {
            break;
        }
        if args.trace {
            sunmap::mapping::timing::set_floorplan_timing(true);
            let phase = Phase::Pass(traced_walls.len());
            let (wall, records) = traced_pass(phase, &apps, &mut tr, &mut counts);
            traced_walls.push(wall);
            sunmap::mapping::timing::set_floorplan_timing(false);
            for (app, record) in apps.iter().zip(records) {
                let key = record_key(app);
                let check = record.and_then(|r| checker.same_as_before(&key, &r));
                checker.record(check);
            }
        }
    }
    let rss = peak_rss_mb();

    // Outputs without a pin (the 32-core application at a seed other
    // than 7) must agree with the request path.
    for (app, ex) in apps.iter().zip(first.iter().flatten()) {
        if let Some(ex) = ex {
            if !checker.is_pinned(&pin_key(app)) {
                checker.record(guarded(|| agrees_with_request_runner(app, ex)));
            }
        }
    }

    let mut metrics;
    if !args.trace {
        metrics = end_to_end(&setup_times, &ops, rss);
    } else {
        let totals = LayerTotals::new(&tr, &counts, setup_times.len(), traced_walls.len());
        metrics = totals.mapping_metrics();
        for app in &apps {
            metrics.extend(split_metrics(
                &app.tag,
                |name| totals.count(name),
                |num, den| totals.ratio(num, den),
            ));
        }
        metrics.push(
            Metric::new(
                "trace.overhead_s",
                median(&traced_walls) - median(&walls),
                "s",
            )
            .samples(traced_walls.len()),
        );
    }
    if args.trace || args.capture_pins {
        sunmap::mapping::timing::set_floorplan_timing(args.trace);
        metrics.extend(headline(args, &mut tr, &mut counts, checker));
        sunmap::mapping::timing::set_floorplan_timing(false);
    }
    for (k, app) in apps.iter().enumerate() {
        let name = format!("explore_s.{}", app.tag);
        let times = ops.op(k);
        metrics.push(Metric::new(&name, fastest(times), "s").samples(times.len()));
    }
    Report {
        metrics,
        passes: walls.len() + traced_walls.len(),
        setup_reps: setup_times.len(),
        spans: args.trace.then(|| tr.to_jsonl()),
    }
}
