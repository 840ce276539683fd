//! The per-topology public calls that `RequestRunner::run` and
//! `Sunmap::explore` make, issued one at a time under spans, plus the
//! reduction of spans and counts to per-layer metrics.

use std::collections::BTreeMap;

use sunmap::mapping::{timing, RouteTable};
use sunmap::sim::sweep::{json_number, json_string};
use sunmap::topology::builders;
use sunmap::{CoreGraph, CostReport, Mapper, MapperConfig, Mapping, MappingError, RoutingFunction};
use sunmap::{TablePrep, TopologyGraph};

use crate::stats::median;
use crate::trace::{self_times, Phase, Tracer};
use crate::Metric;

/// The routing functions, in the order reports list them.
pub const ROUTINGS: [RoutingFunction; 4] = [
    RoutingFunction::DimensionOrdered,
    RoutingFunction::MinPath,
    RoutingFunction::SplitMinPaths,
    RoutingFunction::SplitAllPaths,
];

/// The standard-library topology labels, in library order.
pub const TOPOLOGIES: [&str; 5] = ["mesh", "torus", "hypercube", "clos", "butterfly"];

/// Per-run counts recorded at the same boundaries as the spans,
/// totalled per phase.
#[derive(Debug, Default)]
pub struct Counts {
    by_phase: BTreeMap<(Phase, String), f64>,
}

impl Counts {
    /// Adds `v` to count `name` in `phase`.
    pub fn add(&mut self, phase: Phase, name: &str, v: f64) {
        *self.by_phase.entry((phase, name.to_string())).or_default() += v;
    }

    /// Count `name` in `phase` (0 when nothing was added).
    pub fn get(&self, phase: Phase, name: &str) -> f64 {
        self.by_phase
            .get(&(phase, name.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// One library topology with its route table.
#[derive(Debug)]
pub struct Candidate {
    /// The topology.
    pub graph: TopologyGraph,
    /// Its route table, reused by every mapping onto it.
    pub table: RouteTable,
}

/// The lower-case label of a topology (`mesh`, ..., `butterfly`).
pub fn label(graph: &TopologyGraph) -> String {
    graph.kind().name().to_lowercase()
}

/// `builders::standard_library` plus one `RouteTable::with_prep` per
/// topology, each under its own span.
pub fn traced_library(
    tr: &mut Tracer,
    cores: usize,
    capacity: f64,
    prep: TablePrep,
) -> Result<Vec<Candidate>, String> {
    let graphs = tr
        .span("topology.library", "", || {
            builders::standard_library(cores, capacity)
        })
        .map_err(|e| e.to_string())?;
    Ok(graphs
        .into_iter()
        .map(|graph| {
            let table = tr.span("mapping.table.build", &label(&graph), || {
                RouteTable::with_prep(&graph, prep)
            });
            Candidate { graph, table }
        })
        .collect())
}

/// One topology's mapping outcome from [`traced_map`].
#[derive(Debug)]
pub struct Mapped {
    /// The mapping, or why none was feasible.
    pub outcome: Result<Mapping, MappingError>,
    /// Candidate mappings the search evaluated (observer calls),
    /// feasible or not.
    pub evaluated: usize,
    /// Nanoseconds in `Mapper::run_observed`.
    pub search_ns: f64,
}

/// Maps `app` onto every candidate the way `Mapper::run` does, one
/// public call per span: `RouteTable::prepare`, `Mapper::greedy_placement`
/// and `Mapper::run_observed`. Counts evaluations, floorplan time,
/// feasibility and the search time of topologies ending infeasible.
pub fn traced_map(
    tr: &mut Tracer,
    counts: &mut Counts,
    phase: Phase,
    cands: &mut [Candidate],
    app: &CoreGraph,
    config: MapperConfig,
) -> Vec<Mapped> {
    cands
        .iter_mut()
        .map(|c| {
            let topo = label(&c.graph);
            tr.span("mapping.table.prepare", &topo, || {
                c.table.prepare(&c.graph, config.routing)
            });
            let greedy = tr.span("mapping.greedy", &topo, || {
                Mapper::new(&c.graph, app, config)
                    .with_route_table(&mut c.table)
                    .greedy_placement()
            });
            std::hint::black_box(greedy);
            timing::take_floorplan_nanos();
            let mut evaluated = 0usize;
            let id = tr.begin("mapping.search", &topo);
            let outcome = Mapper::new(&c.graph, app, config)
                .with_route_table(&mut c.table)
                .run_observed(|_| evaluated += 1);
            tr.end(id);
            let span = &tr.spans()[id];
            let search_ns = (span.end_ns - span.start_ns) as f64;
            counts.add(phase, "floorplan_ns", timing::take_floorplan_nanos() as f64);
            counts.add(
                phase,
                &format!("mapping.evaluated.{topo}"),
                evaluated as f64,
            );
            counts.add(phase, "mapping.topologies", 1.0);
            counts.add(phase, "mapping.search_ns", search_ns);
            if outcome.is_ok() {
                counts.add(phase, "mapping.feasible", 1.0);
            } else {
                counts.add(phase, "mapping.search_ns.infeasible", search_ns);
            }
            Mapped {
                outcome,
                evaluated,
                search_ns,
            }
        })
        .collect()
}

/// Adds the per-pair route entries every candidate's table holds.
pub fn count_materialized(counts: &mut Counts, phase: Phase, cands: &[Candidate]) {
    let pairs: usize = cands
        .iter()
        .flat_map(|c| ROUTINGS.iter().map(|&r| c.table.materialized_pairs(r)))
        .sum();
    counts.add(phase, "mapping.table.materialized_pairs", pairs as f64);
}

/// One topology entry of a `sunmap-report/1` line, rendered exactly as
/// the request executor renders it.
pub fn report_entry(topology: &str, report: Option<&CostReport>) -> String {
    match report {
        Some(r) => format!(
            "{{\"topology\":{},\"feasible\":true,\"avg_hops\":{},\
             \"design_area\":{},\"power_mw\":{}}}",
            json_string(topology),
            json_number(r.avg_hops),
            json_number(r.design_area),
            json_number(r.power_mw),
        ),
        None => format!(
            "{{\"topology\":{},\"feasible\":false}}",
            json_string(topology)
        ),
    }
}

/// Every topology's entry plus the evaluation counts of a set of
/// outcomes: the record the untraced and traced paths must agree on.
pub fn outcome_record<'a>(
    outcomes: impl IntoIterator<Item = (&'a str, Option<&'a CostReport>, usize)>,
) -> String {
    outcomes
        .into_iter()
        .map(|(name, report, evaluated)| {
            format!("{} evaluated={evaluated}\n", report_entry(name, report))
        })
        .collect()
}

/// Span self times and counts reduced to metrics: for each quantity,
/// the median over set-up repetitions of its per-repetition total plus
/// the median over traced passes of its per-pass total.
pub struct LayerTotals<'a> {
    setups: usize,
    passes: usize,
    spans: BTreeMap<(Phase, String), f64>,
    counts: &'a Counts,
}

impl<'a> LayerTotals<'a> {
    /// Totals `tracer`'s span self times (seconds) by `name` and
    /// `name.label`, over `setups` set-up repetitions and `passes`
    /// traced passes.
    pub fn new(tracer: &Tracer, counts: &'a Counts, setups: usize, passes: usize) -> Self {
        let mut spans: BTreeMap<(Phase, String), f64> = BTreeMap::new();
        for (s, self_ns) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            let secs = self_ns as f64 * 1e-9;
            *spans.entry((s.phase, s.name.to_string())).or_default() += secs;
            if !s.label.is_empty() {
                let key = format!("{}.{}", s.name, s.label);
                *spans.entry((s.phase, key)).or_default() += secs;
            }
        }
        LayerTotals {
            setups,
            passes,
            spans,
            counts,
        }
    }

    fn reduce(&self, map: &BTreeMap<(Phase, String), f64>, name: &str) -> f64 {
        let per = |phase: Phase| map.get(&(phase, name.to_string())).copied().unwrap_or(0.0);
        let setup: Vec<f64> = (0..self.setups).map(|i| per(Phase::Setup(i))).collect();
        let pass: Vec<f64> = (0..self.passes).map(|i| per(Phase::Pass(i))).collect();
        let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        m(&setup) + m(&pass)
    }

    /// The median of `num / den` over the set-up repetitions and passes
    /// that counted some `den`: a share taken within each repetition,
    /// so it stays within 0..=1 when `num` is part of `den`.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let phases = (0..self.setups)
            .map(Phase::Setup)
            .chain((0..self.passes).map(Phase::Pass));
        let shares: Vec<f64> = phases
            .filter_map(|p| {
                let d = self.counts.get(p, den);
                (d > 0.0).then(|| self.counts.get(p, num) / d)
            })
            .collect();
        if shares.is_empty() {
            f64::NAN
        } else {
            median(&shares)
        }
    }

    /// Self time (s) of the spans named `name` (or `name.label`).
    pub fn time(&self, name: &str) -> f64 {
        self.reduce(&self.spans, name)
    }

    /// The count recorded under `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.reduce(&self.counts.by_phase, name)
    }

    /// The mapping, topology, traffic and floorplan metrics every
    /// workload's traced run reports.
    pub fn mapping_metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("topology.library_s", self.time("topology.library"), "s"),
            Metric::new("traffic.load_s", self.time("traffic.load"), "s"),
            Metric::new(
                "mapping.table.build_s",
                self.time("mapping.table.build"),
                "s",
            ),
            Metric::new(
                "mapping.table.prepare_s",
                self.time("mapping.table.prepare"),
                "s",
            ),
            Metric::new(
                "mapping.table.materialized_pairs",
                self.count("mapping.table.materialized_pairs"),
                "count",
            ),
            Metric::new("mapping.greedy_s", self.time("mapping.greedy"), "s"),
        ];
        let search = self.time("mapping.search");
        out.push(Metric::new("mapping.search_s", search, "s"));
        let mut evaluated = 0.0;
        for t in TOPOLOGIES {
            out.push(Metric::new(
                &format!("mapping.search_s.{t}"),
                self.time(&format!("mapping.search.{t}")),
                "s",
            ));
        }
        for t in TOPOLOGIES {
            let n = self.count(&format!("mapping.evaluated.{t}"));
            evaluated += n;
            out.push(Metric::new(&format!("mapping.evaluated.{t}"), n, "count"));
        }
        let floorplan_s = self.count("floorplan_ns") * 1e-9;
        out.extend([
            Metric::new(
                "mapping.infeasible_share",
                self.ratio("mapping.search_ns.infeasible", "mapping.search_ns"),
                "ratio",
            ),
            Metric::new(
                "mapping.feasible_frac",
                self.count("mapping.feasible") / self.count("mapping.topologies"),
                "ratio",
            ),
            Metric::new("mapping.evals_per_s", evaluated / search, "1/s"),
            Metric::new("floorplan_s", floorplan_s, "s"),
            Metric::new("floorplan.share", floorplan_s / search, "ratio"),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_taken_within_each_repetition_before_the_median() {
        let mut counts = Counts::default();
        // Pass totals (infeasible, all): (9, 10), (1, 100), (5, 5).
        for (p, (num, den)) in [(9.0, 10.0), (1.0, 100.0), (5.0, 5.0)]
            .into_iter()
            .enumerate()
        {
            counts.add(Phase::Pass(p), "num", num);
            counts.add(Phase::Pass(p), "den", den);
        }
        let totals = LayerTotals::new(&Tracer::new(), &counts, 0, 3);
        // Shares 0.9, 0.01 and 1.0: the median is 0.9, where the ratio
        // of the medians (5 / 10) would be 0.5.
        assert_eq!(totals.ratio("num", "den"), 0.9);
        assert!(totals.ratio("num", "missing").is_nan());
    }
}
