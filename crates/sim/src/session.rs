//! One-stop simulation sessions: engine selection, plan reuse and
//! trace mode configured in a single builder.

use std::sync::Arc;

use crate::engine::{RoutePlan, SimConfig, SimEngine};
use crate::event::EventSimulator;
use crate::{reference, LatencyStats};
use sunmap_mapping::{Evaluation, RouteTable};
use sunmap_topology::TopologyGraph;
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::CoreGraph;

/// Builder for a [`SimSession`]: `graph → config → optional plan →
/// build()`. Obtained from [`SimSession::builder`].
#[derive(Debug)]
pub struct SimSessionBuilder<'a> {
    graph: &'a TopologyGraph,
    config: SimConfig,
    plan: Option<Arc<RoutePlan>>,
}

impl<'a> SimSessionBuilder<'a> {
    /// Sets the simulator parameters, including the engine choice
    /// ([`SimConfig::engine`]). Defaults to [`SimConfig::default`].
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Reuses a precompiled synthetic route [`RoutePlan`] (the sweep
    /// and probe drivers compile one per topology and share it across
    /// runs). Ignored by the reference engine, which resolves routes
    /// live.
    pub fn plan(mut self, plan: Arc<RoutePlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Builds the session.
    ///
    /// # Panics
    ///
    /// Panics if a supplied plan is not
    /// [`compatible`](RoutePlan::compatible) with the graph and config.
    pub fn build(self) -> SimSession<'a> {
        if let Some(plan) = &self.plan {
            assert!(
                plan.compatible(self.graph, &self.config),
                "route plan compiled for a different graph or configuration"
            );
        }
        SimSession {
            graph: self.graph,
            config: self.config,
            plan: self.plan,
            event: None,
            reference: None,
        }
    }
}

/// A simulation session over one topology: owns the (lazily created)
/// engine and its compiled route plan, and runs every simulation on
/// the event-driven engine — or, when [`SimConfig::engine`] is
/// [`SimEngine::Reference`], on the reference oracle.
///
/// Both produce bit-identical [`LatencyStats`] for the same seed (see
/// [`SimEngine`]).
///
/// # Examples
///
/// ```
/// use sunmap_sim::{SimConfig, SimEngine, SimSession};
/// use sunmap_topology::builders;
/// use sunmap_traffic::patterns::TrafficPattern;
///
/// let mesh = builders::mesh(4, 4, 500.0)?;
/// let config = SimConfig {
///     engine: SimEngine::EventDriven,
///     ..SimConfig::fast()
/// };
/// let mut session = SimSession::builder(&mesh).config(config).build();
/// let stats = session.run_synthetic(&TrafficPattern::UniformRandom, 0.05);
/// assert!(stats.packets_delivered > 0);
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct SimSession<'a> {
    graph: &'a TopologyGraph,
    config: SimConfig,
    plan: Option<Arc<RoutePlan>>,
    event: Option<EventSimulator<'a>>,
    reference: Option<reference::NocSimulator<'a>>,
}

impl<'a> SimSession<'a> {
    /// Starts building a session over `graph`.
    pub fn builder(graph: &'a TopologyGraph) -> SimSessionBuilder<'a> {
        SimSessionBuilder {
            graph,
            config: SimConfig::default(),
            plan: None,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Number of terminals (injection points).
    pub fn terminal_count(&self) -> usize {
        self.graph.mappable_nodes().len()
    }

    /// The engine a run at `load` flits/cycle/terminal uses (see
    /// [`SimEngine::resolve`]; the load does not change it).
    pub fn engine_for(&self, load: f64) -> SimEngine {
        self.config.engine.resolve(load)
    }

    /// The session's synthetic route plan, compiling it on first use.
    /// The reference engine never consumes it, so a reference-engine
    /// session does not compile one.
    fn synthetic_plan(&mut self) -> Arc<RoutePlan> {
        let (graph, config) = (self.graph, &self.config);
        self.plan
            .get_or_insert_with(|| {
                let mut table = RouteTable::new(graph);
                Arc::new(RoutePlan::synthetic(graph, &mut table, config))
            })
            .clone()
    }

    /// The event engine, built on first use.
    fn event(&mut self) -> &mut EventSimulator<'a> {
        let (graph, config) = (self.graph, self.config);
        self.event
            .get_or_insert_with(|| EventSimulator::build(graph, config))
    }

    /// The reference oracle, built on first use.
    fn reference(&mut self) -> &mut reference::NocSimulator<'a> {
        let (graph, config) = (self.graph, self.config);
        self.reference
            .get_or_insert_with(|| reference::NocSimulator::new(graph, config))
    }

    /// Runs a synthetic-traffic simulation: every terminal injects
    /// packets as a Bernoulli process of `injection_rate` flits per
    /// cycle, destinations drawn from `pattern`, routes drawn uniformly
    /// from the minimum paths.
    pub fn run_synthetic(&mut self, pattern: &TrafficPattern, injection_rate: f64) -> LatencyStats {
        if self.config.engine == SimEngine::Reference {
            return self.reference().run_synthetic(pattern, injection_rate);
        }
        let plan = self.synthetic_plan();
        self.event().run_synthetic(&plan, pattern, injection_rate)
    }

    /// Runs a trace-driven simulation of a mapped application: each
    /// commodity injects packets at a rate proportional to its bandwidth
    /// demand, scaled so the heaviest commodity injects `intensity`
    /// flits per cycle, over the paths the mapping evaluation selected.
    pub fn run_trace(
        &mut self,
        eval: &Evaluation,
        app: &CoreGraph,
        intensity: f64,
    ) -> LatencyStats {
        if self.config.engine == SimEngine::Reference {
            return self.reference().run_trace(eval, app, intensity);
        }
        self.event().run_trace(eval, app, intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_topology::builders;

    #[test]
    fn auto_resolves_by_load_threshold() {
        // Every spelling but `reference` runs the event engine at every
        // load; the threshold constant selects nothing.
        let g = builders::mesh(3, 3, 500.0).unwrap();
        let loads = [0.0, 0.01, SimEngine::AUTO_EVENT_MAX_LOAD, 0.5, 1.0];
        for engine in [SimEngine::Auto, SimEngine::Flat, SimEngine::EventDriven] {
            let session = SimSession::builder(&g)
                .config(SimConfig {
                    engine,
                    ..SimConfig::fast()
                })
                .build();
            for load in loads {
                assert_eq!(session.engine_for(load), SimEngine::EventDriven, "{load}");
            }
        }
        for load in loads {
            assert_eq!(SimEngine::Reference.resolve(load), SimEngine::Reference);
        }
    }

    #[test]
    fn engines_agree_through_the_session() {
        let g = builders::torus(3, 3, 500.0).unwrap();
        let run = |engine: SimEngine, rate: f64| {
            let config = SimConfig {
                engine,
                ..SimConfig::fast()
            };
            SimSession::builder(&g)
                .config(config)
                .build()
                .run_synthetic(&TrafficPattern::Tornado, rate)
        };
        for rate in [0.05, 0.3] {
            let reference = run(SimEngine::Reference, rate);
            for engine in [SimEngine::Auto, SimEngine::Flat, SimEngine::EventDriven] {
                assert_eq!(reference, run(engine, rate), "{}", engine.name());
            }
        }
    }
}
