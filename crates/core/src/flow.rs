//! The three-phase SUNMAP flow (paper Fig. 4), plus the optional
//! phase-4 simulation validation of §6.2, with one phase 1–2 executor.

use std::borrow::BorrowMut;
use std::sync::Arc;

use crate::request::{ConstraintMode, ExploreRequest};
use sunmap_gen::{build_netlist, emit_dot, emit_systemc, Netlist, SourceFile};
use sunmap_mapping::{
    CostReport, Mapper, MapperConfig, Mapping, MappingError, Objective, RouteTable,
    RoutingFunction, SwapStrategy, TablePrep,
};
use sunmap_sim::{LatencyStats, SimConfig, SimSession};
use sunmap_topology::{builders, TopologyError, TopologyGraph, TopologyKind};
use sunmap_traffic::CoreGraph;

/// Errors of the end-to-end flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum SunmapError {
    /// The topology library could not be built for this application.
    Topology(TopologyError),
    /// Every topology in the library failed to produce a feasible
    /// mapping; the per-topology failures are carried for diagnosis.
    NoFeasibleTopology(Vec<(TopologyKind, MappingError)>),
}

impl std::fmt::Display for SunmapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SunmapError::Topology(e) => write!(f, "topology library error: {e}"),
            SunmapError::NoFeasibleTopology(fails) => {
                write!(f, "no topology produced a feasible mapping (")?;
                for (i, (kind, e)) in fails.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{}: {e}", kind.name())?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for SunmapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SunmapError::Topology(e) => Some(e),
            SunmapError::NoFeasibleTopology(_) => None,
        }
    }
}

impl From<TopologyError> for SunmapError {
    fn from(e: TopologyError) -> Self {
        SunmapError::Topology(e)
    }
}

/// One topology of the library with its mapping outcome.
#[derive(Debug)]
pub struct TopologyCandidate {
    /// Which topology this is.
    pub kind: TopologyKind,
    /// The built topology graph (shared with the request route cache).
    pub graph: Arc<TopologyGraph>,
    /// The mapping, or why none was feasible (e.g. the butterfly row of
    /// paper Fig. 7b).
    pub outcome: Result<Mapping, MappingError>,
}

impl TopologyCandidate {
    /// The mapping's cost report, if feasible.
    pub fn report(&self) -> Option<&CostReport> {
        self.outcome.as_ref().ok().map(|m| m.report())
    }
}

/// One phase-4 measurement: a candidate simulated under its mapping's
/// traffic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationEntry {
    /// Index of the simulated candidate in `Exploration::candidates`.
    pub candidate: usize,
    /// Which topology was simulated.
    pub kind: TopologyKind,
    /// The measured statistics.
    pub stats: LatencyStats,
}

/// Phase-4 result: trace simulations of the top-ranked candidates (the
/// winner first, then the runner-up), annotating the selection report
/// with *measured* latency the way §6.2 backs the analytical table with
/// cycle-accurate numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Validation {
    /// Measured entries, in rank order (winner first).
    pub entries: Vec<ValidationEntry>,
    /// The trace intensity used (flits/cycle for the heaviest
    /// commodity).
    pub intensity: f64,
}

/// Phase 1+2 result: every candidate plus the selected best — the one
/// value every report, generation and validation renders from.
#[derive(Debug)]
pub struct Exploration {
    /// All evaluated topologies, in library order.
    pub candidates: Vec<TopologyCandidate>,
    /// Index of the selected topology in `candidates`, if any mapping
    /// was feasible.
    pub best: Option<usize>,
    /// Phase-4 measurements, when [`Sunmap::validate`] has run.
    pub validation: Option<Validation>,
}

impl Exploration {
    /// The selected candidate (phase 2 winner).
    pub fn best_candidate(&self) -> Option<&TopologyCandidate> {
        self.best.map(|i| &self.candidates[i])
    }

    /// Phase 2, the paper's "the various topologies are evaluated for
    /// several design objectives and the best topology is chosen": each
    /// feasible candidate's delay, area and power are normalised to the
    /// per-metric minimum and summed, and the feasible indices come back
    /// lowest total first (ties keep library order). This is what makes
    /// the mesh beat the lower-power Clos for MPEG4 (Fig. 7b) while the
    /// butterfly still sweeps VOPD. The head is the winner; phase 4 also
    /// simulates the runner-up, and a probe the top `k`.
    pub(crate) fn ranked(&self) -> Vec<usize> {
        let feasible: Vec<(usize, &CostReport)> = self
            .candidates
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.report().map(|r| (i, r)))
            .collect();
        let min_of = |f: fn(&CostReport) -> f64| {
            feasible
                .iter()
                .map(|(_, r)| f(r))
                .fold(f64::INFINITY, f64::min)
                .max(1e-12)
        };
        let (dmin, amin, pmin) = (
            min_of(|r| r.avg_hops),
            min_of(|r| r.design_area),
            min_of(|r| r.power_mw),
        );
        let score = |r: &CostReport| r.avg_hops / dmin + r.design_area / amin + r.power_mw / pmin;
        let mut ranked: Vec<(usize, f64)> = feasible.iter().map(|(i, r)| (*i, score(r))).collect();
        // Stable sort under a total order (NaN scores sort last instead of
        // feeding sort_by an intransitive comparator); equal scores keep
        // library order, so the winner matches a min-scan selection.
        ranked.sort_by(|(_, a), (_, b)| a.total_cmp(b));
        ranked.into_iter().map(|(i, _)| i).collect()
    }

    /// The measured latency of candidate `i`, if phase 4 simulated it.
    pub fn measured_stats(&self, i: usize) -> Option<&LatencyStats> {
        self.validation
            .as_ref()?
            .entries
            .iter()
            .find(|e| e.candidate == i)
            .map(|e| &e.stats)
    }

    /// Formats the exploration as a paper-style table (one row per
    /// topology: avg hops, design area, design power, feasibility).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>12} {:>11} {:>9}",
            "Topo", "avg hops", "area (mm2)", "power (mW)", "feasible"
        );
        for (i, c) in self.candidates.iter().enumerate() {
            match &c.outcome {
                Ok(m) => {
                    let r = m.report();
                    let best = if Some(i) == self.best { " <= best" } else { "" };
                    let measured = match self.measured_stats(i) {
                        Some(s) => format!(" [measured {:.1} cy]", s.avg_latency),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "{:<10} {:>9.2} {:>12.2} {:>11.1} {:>9}{best}{measured}",
                        c.kind.name(),
                        r.avg_hops,
                        r.design_area,
                        r.power_mw,
                        "yes"
                    );
                }
                Err(_) => {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>9} {:>12} {:>11} {:>9}",
                        c.kind.name(),
                        "-",
                        "-",
                        "-",
                        "no"
                    );
                }
            }
        }
        out
    }
}

/// Phase 3 result: the generated design.
#[derive(Debug)]
pub struct GeneratedDesign {
    /// Structural netlist of the chosen NoC.
    pub netlist: Netlist,
    /// SystemC-style sources.
    pub files: Vec<SourceFile>,
    /// Graphviz rendering of the netlist.
    pub dot: String,
}

/// Builder for [`Sunmap`] (see the crate-level quickstart). Every value
/// it sets is also an [`ExploreRequest`] field with the same default;
/// [`Sunmap::for_request`] takes them from a request instead. How the
/// search scores swaps and prepares route tables is not a builder
/// setting: a built tool always runs `Auto`.
#[derive(Debug, Clone)]
pub struct SunmapBuilder {
    app: Arc<CoreGraph>,
    link_capacity: f64,
    routing: RoutingFunction,
    objective: Objective,
    constraints: ConstraintMode,
    swap_strategy: SwapStrategy,
    table_prep: TablePrep,
}

impl SunmapBuilder {
    /// Maximum link bandwidth of the NoC in MB/s (the paper
    /// conservatively assumes 500 MB/s for the video benchmarks).
    pub fn link_capacity(mut self, mbs: f64) -> Self {
        self.link_capacity = mbs;
        self
    }

    /// Routing function for the mapping phase.
    pub fn routing(mut self, routing: RoutingFunction) -> Self {
        self.routing = routing;
        self
    }

    /// Design objective for mapping.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Feasibility regime (default [`ConstraintMode::Strict`];
    /// [`ConstraintMode::Relaxed`] is the paper's §6.2 mode).
    pub fn constraints(mut self, constraints: ConstraintMode) -> Self {
        self.constraints = constraints;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> Sunmap {
        Sunmap { inner: self }
    }
}

/// The SUNMAP tool: an application plus the design-space parameters,
/// ready to explore the topology library and generate the winner.
#[derive(Debug, Clone)]
pub struct Sunmap {
    inner: SunmapBuilder,
}

impl Sunmap {
    /// Starts configuring a run for `app`.
    pub fn builder(app: CoreGraph) -> SunmapBuilder {
        SunmapBuilder {
            app: Arc::new(app),
            link_capacity: 500.0,
            routing: RoutingFunction::MinPath,
            objective: Objective::MinDelay,
            constraints: ConstraintMode::Strict,
            swap_strategy: SwapStrategy::Auto,
            table_prep: TablePrep::Auto,
        }
    }

    /// The tool `req` describes for its resolved application `app`,
    /// including the library-only [`ExploreRequest::swap`] and
    /// [`ExploreRequest::table_prep`] (the request's probe is the
    /// caller's to apply).
    pub fn for_request(req: &ExploreRequest, app: Arc<CoreGraph>) -> Sunmap {
        Sunmap {
            inner: SunmapBuilder {
                app,
                link_capacity: req.capacity,
                routing: req.routing,
                objective: req.objective,
                constraints: req.constraints,
                swap_strategy: req.swap,
                table_prep: req.table_prep,
            },
        }
    }

    /// The application being mapped.
    pub fn application(&self) -> &CoreGraph {
        &self.inner.app
    }

    /// The mapper configuration this tool uses — the one place the
    /// exploration values become a [`MapperConfig`] (4 swap passes; the
    /// mapper prices with the paper's 0.1 µm area–power library).
    pub fn mapper_config(&self) -> MapperConfig {
        let s = &self.inner;
        MapperConfig {
            routing: s.routing,
            objective: s.objective,
            constraints: s.constraints.constraints(),
            swap_strategy: s.swap_strategy,
            table_prep: s.table_prep,
            ..MapperConfig::default()
        }
    }

    /// Phases 1 and 2: maps the application onto the standard library
    /// sized for it and selects the best feasible topology.
    ///
    /// # Errors
    ///
    /// Returns [`SunmapError::Topology`] if the library cannot be built
    /// (e.g. an empty application). An exploration where *no* topology
    /// is feasible is **not** an error here — inspect
    /// [`Exploration::best`]; [`Sunmap::run`] does turn it into one.
    pub fn explore(&self) -> Result<Exploration, SunmapError> {
        let library =
            builders::standard_library(self.inner.app.core_count(), self.inner.link_capacity)?;
        Ok(self.explore_library(library))
    }

    /// Phase 1+2 over a caller-supplied topology list (the paper notes
    /// other topologies "can be easily added to the topology library").
    /// One route table is resident at a time: each is built, used, dropped.
    pub fn explore_library(&self, library: Vec<TopologyGraph>) -> Exploration {
        let prep = self.inner.table_prep;
        self.explore_candidates(library.into_iter().map(|graph| {
            let table = RouteTable::with_prep(&graph, prep);
            (Arc::new(graph), table)
        }))
    }

    /// Phases 1 and 2 for every surface: maps the application onto each
    /// candidate through its route table (owned per call, or borrowed
    /// warm from the request cache) and ranks the outcomes.
    pub(crate) fn explore_candidates<T: BorrowMut<RouteTable>>(
        &self,
        candidates: impl IntoIterator<Item = (Arc<TopologyGraph>, T)>,
    ) -> Exploration {
        let config = self.mapper_config();
        let candidates = candidates
            .into_iter()
            .map(|(graph, mut table)| TopologyCandidate {
                kind: graph.kind(),
                outcome: Mapper::new(&graph, &self.inner.app, config)
                    .with_route_table(table.borrow_mut())
                    .run(),
                graph,
            })
            .collect();
        let mut exploration = Exploration {
            candidates,
            best: None,
            validation: None,
        };
        exploration.best = exploration.ranked().first().copied();
        exploration
    }

    /// Phase 4 (paper §6.2): trace-simulates the phase-2 winner and the
    /// runner-up under their mapped traffic at `intensity` and attaches
    /// the measured latencies to `exploration` — the selection table
    /// then carries simulated numbers next to the analytical ones. A
    /// no-op when nothing is feasible.
    pub fn validate(&self, exploration: &mut Exploration, config: SimConfig, intensity: f64) {
        let entries: Vec<ValidationEntry> = exploration
            .ranked()
            .into_iter()
            .take(2)
            .map(|i| {
                let c = &exploration.candidates[i];
                let mapping = c.outcome.as_ref().expect("ranked candidates are feasible");
                let mut sim = SimSession::builder(&c.graph).config(config).build();
                ValidationEntry {
                    candidate: i,
                    kind: c.kind,
                    stats: sim.run_trace(mapping.evaluation(), &self.inner.app, intensity),
                }
            })
            .collect();
        exploration.validation = (!entries.is_empty()).then_some(Validation { entries, intensity });
    }

    /// Phase 3: generates the network components for a mapped
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's outcome is infeasible; generate only
    /// winners.
    pub fn generate(&self, candidate: &TopologyCandidate, design_name: &str) -> GeneratedDesign {
        let mapping = candidate
            .outcome
            .as_ref()
            .expect("generate() requires a feasible candidate");
        let netlist = build_netlist(&candidate.graph, &self.inner.app, mapping.placement());
        let files = emit_systemc(&netlist, design_name);
        let dot = emit_dot(&netlist);
        GeneratedDesign {
            netlist,
            files,
            dot,
        }
    }

    /// The complete flow: explore, select, generate.
    ///
    /// # Errors
    ///
    /// [`SunmapError::NoFeasibleTopology`] if nothing in the library can
    /// carry the application under the constraints.
    pub fn run(&self, design_name: &str) -> Result<(Exploration, GeneratedDesign), SunmapError> {
        let exploration = self.explore()?;
        let Some(best) = exploration.best else {
            // Without a winner every outcome is an error.
            let failures = exploration
                .candidates
                .into_iter()
                .filter_map(|c| c.outcome.err().map(|e| (c.kind, e)))
                .collect();
            return Err(SunmapError::NoFeasibleTopology(failures));
        };
        let design = self.generate(&exploration.candidates[best], design_name);
        Ok((exploration, design))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_traffic::benchmarks;

    #[test]
    fn vopd_exploration_finds_butterfly_best_for_power() {
        let tool = Sunmap::builder(benchmarks::vopd())
            .objective(Objective::MinPower)
            .build();
        let ex = tool.explore().unwrap();
        assert_eq!(ex.candidates.len(), 5);
        let best = ex.best_candidate().expect("VOPD is feasible");
        assert_eq!(best.kind.name(), "Butterfly");
    }

    #[test]
    fn mpeg4_butterfly_row_is_infeasible_with_split_routing() {
        let tool = Sunmap::builder(benchmarks::mpeg4())
            .routing(RoutingFunction::SplitAllPaths)
            .build();
        let ex = tool.explore().unwrap();
        let bfly = ex
            .candidates
            .iter()
            .find(|c| c.kind.name() == "Butterfly")
            .unwrap();
        assert!(bfly.outcome.is_err(), "butterfly must be infeasible");
        // All direct topologies and the Clos are feasible.
        let feasible = ex.candidates.iter().filter(|c| c.outcome.is_ok()).count();
        assert_eq!(feasible, 4);
    }

    #[test]
    fn full_run_generates_systemc() {
        let tool = Sunmap::builder(benchmarks::dsp_filter())
            .link_capacity(1000.0)
            .build();
        let (ex, design) = tool.run("dsp").unwrap();
        assert!(ex.best.is_some());
        assert!(!design.files.is_empty());
        assert!(design.dot.contains("digraph"));
        assert!(design.netlist.ni_count() == 6);
    }

    #[test]
    fn exploration_table_renders_all_rows() {
        let tool = Sunmap::builder(benchmarks::vopd()).build();
        let ex = tool.explore().unwrap();
        let table = ex.table();
        for name in ["Mesh", "Torus", "Hypercube", "Clos", "Butterfly"] {
            assert!(table.contains(name), "{name} missing from table");
        }
        assert!(table.contains("<= best"));
    }

    #[test]
    fn validate_simulates_winner_and_runner_up() {
        let tool = Sunmap::builder(benchmarks::vopd()).build();
        let mut ex = tool.explore().unwrap();
        assert!(ex.validation.is_none());
        tool.validate(&mut ex, SimConfig::fast(), 0.3);
        let v = ex.validation.as_ref().expect("VOPD validates");
        assert_eq!(v.entries.len(), 2);
        assert_eq!(Some(v.entries[0].candidate), ex.best);
        assert_ne!(v.entries[1].candidate, v.entries[0].candidate);
        for e in &v.entries {
            assert!(e.stats.packets_delivered > 0, "{}: {}", e.kind, e.stats);
            assert!(e.stats.avg_latency > 0.0);
        }
        // The annotated table carries the measured numbers.
        let table = ex.table();
        assert!(table.contains("[measured "), "{table}");
        // Determinism: validating again yields identical measurements.
        let mut ex2 = tool.explore().unwrap();
        tool.validate(&mut ex2, SimConfig::fast(), 0.3);
        assert_eq!(ex.validation, ex2.validation);
    }

    #[test]
    fn validate_on_infeasible_exploration_is_a_noop() {
        let tool = Sunmap::builder(benchmarks::vopd())
            .link_capacity(1.0)
            .build();
        let mut ex = tool.explore().unwrap();
        assert!(ex.best.is_none());
        tool.validate(&mut ex, SimConfig::fast(), 0.3);
        assert!(ex.validation.is_none());
    }

    #[test]
    fn empty_application_is_a_topology_error() {
        let err = Sunmap::builder(CoreGraph::new())
            .build()
            .explore()
            .unwrap_err();
        assert!(matches!(err, SunmapError::Topology(_)), "{err}");
    }

    #[test]
    fn no_feasible_topology_is_reported() {
        // 1 MB/s links cannot carry VOPD anywhere.
        let tool = Sunmap::builder(benchmarks::vopd())
            .link_capacity(1.0)
            .build();
        let err = tool.run("x").unwrap_err();
        assert!(matches!(err, SunmapError::NoFeasibleTopology(_)));
        assert!(err.to_string().contains("Mesh"));
    }

    #[test]
    fn custom_library_exploration() {
        let tool = Sunmap::builder(benchmarks::dsp_filter())
            .link_capacity(1000.0)
            .build();
        let lib = vec![
            builders::mesh(2, 3, 1000.0).unwrap(),
            builders::torus(2, 3, 1000.0).unwrap(),
        ];
        let ex = tool.explore_library(lib);
        assert_eq!(ex.candidates.len(), 2);
        assert!(ex.best.is_some());
    }
}
