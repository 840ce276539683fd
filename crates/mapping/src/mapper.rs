//! The three-phase mapping heuristic of paper Fig. 5.

use crate::{
    evaluate, Constraints, CostReport, EvalEngine, Evaluation, MappingError, Objective, Placement,
    RouteTable, RoutingFunction, SwapStrategy, TablePrep,
};
use sunmap_power::{AreaPowerLibrary, Technology};
use sunmap_topology::{NodeId, TopologyGraph};
use sunmap_traffic::{Commodity, CoreGraph, CoreId};

/// Configuration of one mapping run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperConfig {
    /// Routing function (paper input parameter).
    pub routing: RoutingFunction,
    /// Design objective (paper input parameter).
    pub objective: Objective,
    /// Bandwidth/area feasibility constraints.
    pub constraints: Constraints,
    /// Maximum pair-wise-swap improvement passes. The paper performs
    /// one pass over all vertex pairs; additional passes repeat the
    /// sweep from the improved mapping until no swap helps. `0`
    /// disables phase 3 entirely (useful for ablation studies).
    pub max_swap_passes: usize,
    /// How phase 3 scores its candidate swaps: exhaustively, or through
    /// the incremental swap-delta engine with sound early-exit bounds
    /// ([`SwapStrategy::Auto`] picks by topology size). Pass winners,
    /// final placements and reports are bit-identical either way; only
    /// the evaluation count (and thus the observed report sequence)
    /// differs.
    pub swap_strategy: SwapStrategy,
    /// How the per-topology [`RouteTable`] prepares its pair-wise
    /// structures: eagerly over all m×m pairs, or lazily on first touch
    /// with closed-form hop distances where the topology has them
    /// ([`TablePrep::Auto`] picks by topology size). Both answer
    /// queries bit-identically; only preparation time and memory
    /// differ. Ignored when a caller-owned table is attached
    /// via [`Mapper::with_route_table`] (that table's own policy wins).
    pub table_prep: TablePrep,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            routing: RoutingFunction::MinPath,
            objective: Objective::MinDelay,
            constraints: Constraints::default(),
            max_swap_passes: 4,
            swap_strategy: SwapStrategy::Auto,
            table_prep: TablePrep::Auto,
        }
    }
}

impl MapperConfig {
    /// Convenience constructor fixing routing and objective.
    pub fn new(routing: RoutingFunction, objective: Objective) -> Self {
        MapperConfig {
            routing,
            objective,
            ..MapperConfig::default()
        }
    }
}

/// The result of a mapping run.
#[derive(Debug, Clone)]
pub struct Mapping {
    evaluation: Evaluation,
    evaluated_candidates: usize,
}

impl Mapping {
    /// The metric report of the chosen mapping.
    pub fn report(&self) -> &CostReport {
        &self.evaluation.report
    }

    /// The chosen core→vertex assignment.
    pub fn placement(&self) -> &Placement {
        &self.evaluation.placement
    }

    /// The full evaluation (routes, loads, floorplan).
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// Consumes the mapping, returning the evaluation.
    pub fn into_evaluation(self) -> Evaluation {
        self.evaluation
    }

    /// How many candidate mappings the search evaluated.
    pub fn evaluated_candidates(&self) -> usize {
        self.evaluated_candidates
    }
}

/// Maps an application core graph onto one topology (paper Fig. 5).
///
/// # Examples
///
/// ```
/// use sunmap_mapping::{Mapper, MapperConfig, Objective, RoutingFunction};
/// use sunmap_topology::builders;
/// use sunmap_traffic::benchmarks;
///
/// let torus = builders::torus(3, 4, 500.0)?;
/// let vopd = benchmarks::vopd();
/// let cfg = MapperConfig::new(RoutingFunction::MinPath, Objective::MinPower);
/// let mapping = Mapper::new(&torus, &vopd, cfg).run()?;
/// assert!(mapping.report().feasible());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Mapper<'a> {
    graph: &'a TopologyGraph,
    app: &'a CoreGraph,
    config: MapperConfig,
    lib: AreaPowerLibrary,
    /// Optional caller-owned route table, reused across runs on the
    /// same graph (the Fig. 9 sweeps re-map one topology under several
    /// routing functions and objectives).
    table: Option<&'a mut RouteTable>,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper with the paper's 0.1 µm area-power library.
    pub fn new(graph: &'a TopologyGraph, app: &'a CoreGraph, config: MapperConfig) -> Self {
        Mapper {
            graph,
            app,
            config,
            lib: AreaPowerLibrary::new(Technology::um_0_10()),
            table: None,
        }
    }

    /// Creates a mapper with an explicit area-power library.
    pub fn with_library(
        graph: &'a TopologyGraph,
        app: &'a CoreGraph,
        config: MapperConfig,
        lib: AreaPowerLibrary,
    ) -> Self {
        Mapper {
            graph,
            app,
            config,
            lib,
            table: None,
        }
    }

    /// Attaches a caller-owned [`RouteTable`] so its per-topology caches
    /// (hop distances, adjacency matrix, quadrants, enumerated path
    /// sets) survive across multiple runs on the same graph.
    ///
    /// # Panics
    ///
    /// [`Mapper::run`] panics if the table was built for a different
    /// graph.
    pub fn with_route_table(mut self, table: &'a mut RouteTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Runs the three phases and returns the best feasible mapping.
    ///
    /// # Errors
    ///
    /// * [`MappingError::TooManyCores`] / [`MappingError::EmptyApplication`]
    ///   for size mismatches;
    /// * [`MappingError::NoFeasibleMapping`] when every evaluated
    ///   mapping violates the constraints (the error carries the
    ///   least-infeasible report).
    pub fn run(&mut self) -> Result<Mapping, MappingError> {
        self.run_observed(|_| {})
    }

    /// Like [`Mapper::run`], additionally invoking `observer` with the
    /// cost report of **every** candidate mapping the search evaluates
    /// (the greedy seed and each pair-wise swap). This is how the
    /// Fig. 9b Pareto study collects its cloud of design points.
    ///
    /// Every pass is one [`EvalEngine::sweep`]; the swap strategy only
    /// picks its per-pair scorer. Under [`SwapStrategy::DeltaPruned`]
    /// (or [`SwapStrategy::Auto`] on a large topology), candidates the
    /// incremental bounds prove unable to win are never evaluated — the
    /// observer sees exactly the candidates that were, still in pair
    /// order.
    pub fn run_observed(
        &mut self,
        mut observer: impl FnMut(&CostReport),
    ) -> Result<Mapping, MappingError> {
        let graph = self.graph;
        let app = self.app;
        let config = self.config;
        let slots = graph.mappable_nodes().len();
        let cores = app.core_count();
        if cores == 0 {
            return Err(MappingError::EmptyApplication);
        }
        if cores > slots {
            return Err(MappingError::TooManyCores { cores, slots });
        }

        // The per-topology route table: either the caller's (reused
        // across runs) or a run-local one.
        let mut local_table = None;
        let table: &mut RouteTable = match self.table.as_deref_mut() {
            Some(t) => t,
            None => local_table.insert(RouteTable::with_prep(graph, config.table_prep)),
        };
        table.prepare(graph, config.routing);
        let table: &RouteTable = table;

        let mut evaluated = 0usize;
        // Phase 1: greedy initial mapping, evaluated by the reference
        // path (the search keeps the full Evaluation of the incumbent).
        let initial = initial_placement(graph, app, table);
        let mut best = evaluate(
            graph,
            app,
            initial,
            config.routing,
            &self.lib,
            &config.constraints,
        )?;
        observer(&best.report);
        evaluated += 1;

        // Phase 3 (steps 9-10): pair-wise swaps, steepest-descent
        // passes. Each pass is one sweep through the cached fast path
        // (parallel, reduced in pair order — bit-identical to a
        // sequential reference scan); only each pass's winner is
        // re-materialised into a full Evaluation.
        let engine = EvalEngine::new(
            graph,
            app,
            table,
            config.routing,
            &self.lib,
            &config.constraints,
        );
        let nodes = graph.mappable_nodes();
        let mut pairs = Vec::with_capacity(nodes.len() * nodes.len().saturating_sub(1) / 2);
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                pairs.push((nodes[i], nodes[j]));
            }
        }
        for _pass in 0..config.max_swap_passes {
            let (best_swap, pass_evaluated) = engine.sweep(
                config.swap_strategy,
                &best.placement,
                &best.report,
                &pairs,
                config.objective,
                &mut observer,
            );
            evaluated += pass_evaluated;
            let Some((k, report)) = best_swap else { break };
            let (a, b) = pairs[k];
            let mut placement = best.placement.clone();
            placement.swap_nodes(a, b);
            let eval = evaluate(
                graph,
                app,
                placement,
                config.routing,
                &self.lib,
                &config.constraints,
            )
            .expect("fast path evaluated this placement");
            debug_assert_eq!(eval.report, report, "fast path diverged from reference");
            best = eval;
        }

        if best.report.feasible() {
            Ok(Mapping {
                evaluation: best,
                evaluated_candidates: evaluated,
            })
        } else {
            Err(MappingError::NoFeasibleMapping(Box::new(best.report)))
        }
    }

    /// Phase 1 in isolation: the greedy constructive placement of
    /// Fig. 5 step 1. Exposed so the equivalence suite can replay the
    /// reference search from the same starting point as [`Mapper::run`].
    ///
    /// # Panics
    ///
    /// Panics if the application is empty, has more cores than the
    /// topology has mappable slots ([`Mapper::run`] reports these as
    /// errors before placing), or an attached route table was built for
    /// a different graph (the same guard [`Mapper::run`] applies).
    pub fn greedy_placement(&self) -> Placement {
        match &self.table {
            Some(t) => {
                assert!(
                    t.matches(self.graph),
                    "route table built for a different graph"
                );
                initial_placement(self.graph, self.app, t)
            }
            None => initial_placement(
                self.graph,
                self.app,
                &RouteTable::with_prep(self.graph, self.config.table_prep),
            ),
        }
    }
}

/// Phase 1: the greedy constructive placement of Fig. 5 step 1. Hop
/// distances come from the route table's matrix (one BFS per source)
/// instead of the former per-pair BFS (O(n³) total).
///
/// The selection loop recomputes each unplaced core's communication
/// with the placed set in a single pass over the edge list per step
/// (the same edge-order summation [`CoreGraph::communication_with`]
/// performs, so the floating-point totals — and therefore every argmax
/// decision — are bit-identical to querying it per core), and scores
/// candidate nodes over per-core incident edge lists instead of the
/// full edge set. Together these drop phase 1 from O(n²·|E|·n) to
/// O(n·(|E| + n)) edge visits, which is what makes 1024+ core meshes
/// mappable in seconds.
fn initial_placement(graph: &TopologyGraph, app: &CoreGraph, table: &RouteTable) -> Placement {
    let cores = app.core_count();
    let nodes = graph.mappable_nodes().to_vec();
    let edges = app.edges();

    // Per-core incident commodities in edge order, pre-resolved to the
    // (partner, direction) pair `greedy_cost` derives per edge. An
    // edge's `src` arm wins when both endpoints are the same core,
    // matching the if/else-if chain in `greedy_cost`.
    let mut incident: Vec<Vec<(usize, CoreId, bool)>> = vec![Vec::new(); cores];
    for (i, e) in edges.iter().enumerate() {
        if e.src.index() < cores {
            incident[e.src.index()].push((i, e.dst, true));
        }
        if e.dst != e.src && e.dst.index() < cores {
            incident[e.dst.index()].push((i, e.src, false));
        }
    }

    let mut assignment: Vec<Option<NodeId>> = vec![None; cores];
    let mut free: Vec<NodeId> = nodes.clone();
    let mut placed_mask: Vec<bool> = vec![false; cores];
    let mut placed_count = 0usize;
    let mut comm: Vec<f64> = vec![0.0; cores];

    // Seed: the core with maximum communication goes to the node
    // with maximum neighbours.
    let seed_core = app.max_communication_core().expect("non-empty application");
    let seed_node = *free
        .iter()
        .max_by_key(|n| {
            graph
                .ingress_switch(**n)
                .map(|s| graph.neighbor_count(s))
                .unwrap_or(0)
        })
        .expect("topology has mappable nodes");
    assignment[seed_core.index()] = Some(seed_node);
    free.retain(|n| *n != seed_node);
    placed_mask[seed_core.index()] = true;
    placed_count += 1;

    while placed_count < cores {
        // Next: the unplaced core communicating most with placed
        // cores. One edge-order pass accumulates the same filtered
        // bandwidth sums `communication_with` would produce per core.
        comm.fill(0.0);
        for e in edges {
            if e.src.index() < cores && placed_mask[e.dst.index()] {
                comm[e.src.index()] += e.bandwidth;
            }
            if e.dst != e.src && e.dst.index() < cores && placed_mask[e.src.index()] {
                comm[e.dst.index()] += e.bandwidth;
            }
        }
        let next_core = (0..cores)
            .map(CoreId)
            .filter(|c| assignment[c.index()].is_none())
            .max_by(|a, b| {
                comm[a.index()]
                    .total_cmp(&comm[b.index()])
                    .then_with(|| b.cmp(a))
            })
            .expect("an unplaced core remains");
        // Its node: minimise bandwidth-weighted distance to the
        // placed communication partners.
        let best_node = *free
            .iter()
            .min_by(|x, y| {
                let cx = greedy_cost(edges, &incident, table, next_core, **x, &assignment);
                let cy = greedy_cost(edges, &incident, table, next_core, **y, &assignment);
                cx.total_cmp(&cy).then_with(|| x.cmp(y))
            })
            .expect("a free node remains (|V| <= |U|)");
        assignment[next_core.index()] = Some(best_node);
        free.retain(|n| *n != best_node);
        placed_mask[next_core.index()] = true;
        placed_count += 1;
    }

    let assignment: Vec<NodeId> = assignment
        .into_iter()
        .map(|n| n.expect("all cores placed"))
        .collect();
    Placement::new(assignment, graph).expect("greedy placement is valid")
}

fn greedy_cost(
    edges: &[Commodity],
    incident: &[Vec<(usize, CoreId, bool)>],
    table: &RouteTable,
    core: CoreId,
    node: NodeId,
    assignment: &[Option<NodeId>],
) -> f64 {
    let mut cost = 0.0;
    for &(i, other, forward) in &incident[core.index()] {
        let Some(Some(other_node)) = assignment.get(other.index()) else {
            continue;
        };
        let d = if forward {
            table.greedy_distance(node, *other_node)
        } else {
            table.greedy_distance(*other_node, node)
        };
        cost += edges[i].bandwidth * d;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    #[test]
    fn vopd_maps_feasibly_on_all_five_topologies() {
        let vopd = benchmarks::vopd();
        for g in builders::standard_library(12, 500.0).unwrap() {
            let mapping = Mapper::new(&g, &vopd, MapperConfig::default())
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", g.kind()));
            assert!(mapping.report().feasible(), "{} infeasible", g.kind());
            assert!(mapping.report().avg_hops >= 2.0);
        }
    }

    #[test]
    fn swaps_never_worsen_the_initial_mapping() {
        let vopd = benchmarks::vopd();
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let mut config = MapperConfig::default();
        let runs = [0, 1, 4].map(|passes| {
            config.max_swap_passes = passes;
            Mapper::new(&g, &vopd, config).run().unwrap()
        });
        // More passes never add hops (2.278, 2.264 and 2.194).
        let hops = runs.each_ref().map(|m| m.report().avg_hops);
        assert!(
            hops.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "swaps worsened delay: {hops:?}"
        );
        assert!(runs[2].evaluated_candidates() > runs[0].evaluated_candidates());
        // The greedy seed is no worse than placing core i on the i-th
        // mappable vertex (2.278 vs 2.658 hops).
        let identity = Placement::new(g.mappable_nodes()[..12].to_vec(), &g).unwrap();
        let naive = evaluate(
            &g,
            &vopd,
            identity,
            RoutingFunction::MinPath,
            &AreaPowerLibrary::new(Technology::um_0_10()),
            &Constraints::default(),
        )
        .unwrap()
        .report
        .avg_hops;
        assert!(
            hops[0] <= naive,
            "greedy seed {} > identity {naive}",
            hops[0]
        );
    }

    #[test]
    fn butterfly_mpeg4_has_no_feasible_mapping() {
        // The paper's Fig. 7b headline: the butterfly cannot split the
        // 910 MB/s SDRAM flow across multiple paths, so MPEG4 has no
        // feasible butterfly mapping at 500 MB/s links.
        let mpeg4 = benchmarks::mpeg4();
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        let cfg = MapperConfig::new(RoutingFunction::SplitAllPaths, Objective::MinDelay);
        let err = Mapper::new(&g, &mpeg4, cfg).run().unwrap_err();
        match err {
            MappingError::NoFeasibleMapping(report) => {
                assert!(report.max_link_load > 500.0);
            }
            other => panic!("expected NoFeasibleMapping, got {other}"),
        }
    }

    #[test]
    fn mpeg4_feasible_on_mesh_with_split_routing() {
        let mpeg4 = benchmarks::mpeg4();
        let g = builders::mesh(3, 4, 500.0).unwrap();
        // Min-path routing cannot carry the 910 MB/s flow...
        let mp = MapperConfig::new(RoutingFunction::MinPath, Objective::MinDelay);
        assert!(Mapper::new(&g, &mpeg4, mp).run().is_err());
        // ...but split-traffic routing can (paper §6.1).
        let sa = MapperConfig::new(RoutingFunction::SplitAllPaths, Objective::MinDelay);
        let mapping = Mapper::new(&g, &mpeg4, sa).run().unwrap();
        assert!(mapping.report().feasible());
    }

    #[test]
    fn size_mismatches_are_rejected() {
        let vopd = benchmarks::vopd();
        let g = builders::mesh(2, 2, 500.0).unwrap();
        assert!(matches!(
            Mapper::new(&g, &vopd, MapperConfig::default()).run(),
            Err(MappingError::TooManyCores {
                cores: 12,
                slots: 4
            })
        ));
        let empty = sunmap_traffic::CoreGraph::new();
        assert!(matches!(
            Mapper::new(&g, &empty, MapperConfig::default()).run(),
            Err(MappingError::EmptyApplication)
        ));
    }

    #[test]
    fn objectives_steer_the_search() {
        let vopd = benchmarks::vopd();
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let delay = Mapper::new(
            &g,
            &vopd,
            MapperConfig::new(RoutingFunction::MinPath, Objective::MinDelay),
        )
        .run()
        .unwrap();
        let power = Mapper::new(
            &g,
            &vopd,
            MapperConfig::new(RoutingFunction::MinPath, Objective::MinPower),
        )
        .run()
        .unwrap();
        // The delay-optimised mapping is at least as good on delay.
        assert!(delay.report().avg_hops <= power.report().avg_hops + 1e-9);
        // The power-optimised mapping is at least as good on power.
        assert!(power.report().power_mw <= delay.report().power_mw + 1e-9);
    }

    #[test]
    fn mapper_is_deterministic() {
        let vopd = benchmarks::vopd();
        let g = builders::torus(3, 4, 500.0).unwrap();
        let a = Mapper::new(&g, &vopd, MapperConfig::default())
            .run()
            .unwrap();
        let b = Mapper::new(&g, &vopd, MapperConfig::default())
            .run()
            .unwrap();
        assert_eq!(a.placement().assignment(), b.placement().assignment());
    }
}
