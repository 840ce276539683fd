//! One request type for every exploration surface.
//!
//! Historically each surface parsed its own configuration: the batch
//! manifest ([`crate::batch::BatchManifest`]), the CLI's `explore` /
//! `simulate` flag handling, and (new) serve frames. An
//! [`ExploreRequest`] is the one serializable description of a mapping
//! exploration — application source, objective, routing function, link
//! capacity, constraint regime, swap strategy and an optional
//! simulation probe — with a single validate path and a canonical JSON
//! form that round-trips ([`ExploreRequest::to_json`] /
//! [`ExploreRequest::from_json`]).
//!
//! The module also owns the shared *execution* path: [`execute`]
//! renders the report body every producer wraps —
//!
//! * `{"schema":"sunmap-batch/1","job":<id>,` + body + `}` per batch
//!   JSONL line;
//! * `{"schema":"sunmap-report/1",` + body + `}` for the one-shot CLI
//!   and the serve daemon —
//!
//! so a request submitted through the daemon is byte-identical to the
//! same request run one-shot, by construction rather than by test.
//!
//! Per-topology route state ([`TopoState`]) is cached in an
//! [`LruLibraryCache`] keyed by `(core count, link capacity)`; the
//! [`LruLibraryCache::checkout`] / [`LruLibraryCache::checkin`] pair
//! lets a daemon worker take a library out of a shared `Mutex`'d cache
//! for the duration of a request instead of serializing all mapping
//! work behind the lock.
//!
//! # Examples
//!
//! ```
//! use sunmap::request::{ExploreRequest, RequestRunner};
//! use sunmap::Objective;
//!
//! let mut req = ExploreRequest::new("dsp".parse()?);
//! req.objective = Objective::MinPower;
//! // The canonical JSON form round-trips.
//! assert_eq!(ExploreRequest::from_json(&req.to_json())?, req);
//!
//! let mut runner = RequestRunner::new(4);
//! let outcome = runner.run(&req)?;
//! assert!(outcome.line.starts_with("{\"schema\":\"sunmap-report/1\""));
//! assert!(!outcome.cache_hit);
//! // Same topology again: the route tables are served warm.
//! assert!(runner.run(&req)?.cache_hit);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::flow::{rank_reports, SelectionPolicy};
use crate::json::Json;
use crate::schema::REPORT_SCHEMA;
use sunmap_mapping::{
    Constraints, CostReport, Mapper, MapperConfig, Objective, RouteTable, RoutingFunction,
    SwapStrategy, TablePrep,
};
use sunmap_sim::sweep::{json_number, json_string, stats_json_fields};
use sunmap_sim::{LatencyStats, RoutePlan, SimConfig, SimEngine, SimSession};
use sunmap_topology::{builders, TopologyGraph};
use sunmap_traffic::patterns::TrafficPattern;
use sunmap_traffic::{AppSource, CoreGraph};

/// One constraint regime of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConstraintMode {
    /// Bandwidth feasibility enforced ([`Constraints::default`]).
    #[default]
    Strict,
    /// Bandwidth feasibility relaxed
    /// ([`Constraints::relaxed_bandwidth`], the paper's §6.2 mode).
    Relaxed,
}

impl ConstraintMode {
    /// The mapper constraints this mode selects.
    pub fn constraints(self) -> Constraints {
        match self {
            ConstraintMode::Strict => Constraints::default(),
            ConstraintMode::Relaxed => Constraints::relaxed_bandwidth(),
        }
    }

    /// Manifest/JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintMode::Strict => "strict",
            ConstraintMode::Relaxed => "relaxed",
        }
    }

    /// Parses the manifest/JSON spelling (`strict`, `relaxed`).
    ///
    /// # Errors
    ///
    /// The message lists the valid names.
    pub fn parse(text: &str) -> Result<ConstraintMode, String> {
        match text {
            "strict" => Ok(ConstraintMode::Strict),
            "relaxed" => Ok(ConstraintMode::Relaxed),
            other => Err(format!(
                "unknown constraints '{other}' (valid: strict, relaxed)"
            )),
        }
    }
}

/// An optional simulation probe: the `top_k` best-ranked topologies
/// are simulated under this synthetic pattern and injection rate,
/// through the request's shared per-topology [`RoutePlan`]s, on the
/// engine the request selects ([`ExploreRequest::engine`]).
///
/// With `top_k == 1` (the default) only the winner is probed and the
/// report keeps its historical `"sim"` object byte for byte; above 1
/// the report grows a `"probes"` array with one entry per candidate,
/// each carrying the analytical-latency drift.
#[derive(Debug, Clone, PartialEq)]
pub struct SimProbe {
    /// Destination pattern for the probe.
    pub pattern: TrafficPattern,
    /// Injection rate in flits/cycle/terminal.
    pub rate: f64,
    /// How many ranked candidates to simulate (min 1).
    pub top_k: usize,
}

impl SimProbe {
    /// Parses `<pattern> <rate> [top_k]` (the manifest's `simulate`
    /// directive and the CLI's `--probe` value share this). `top_k`
    /// defaults to 1 — winner only.
    ///
    /// # Errors
    ///
    /// Messages list the valid pattern names or name the bad value.
    pub fn parse(text: &str) -> Result<SimProbe, String> {
        let mut parts = text.split_whitespace();
        let pattern = parts
            .next()
            .ok_or_else(|| "probe needs a pattern and a rate".to_string())?;
        let pattern = TrafficPattern::from_name(pattern).ok_or_else(|| {
            format!(
                "unknown pattern '{pattern}' (valid: {})",
                TrafficPattern::NAMES.join(", ")
            )
        })?;
        let rate = parts
            .next()
            .ok_or_else(|| "probe needs a pattern and a rate".to_string())?;
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("'{rate}' is not a rate"))?;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err("rate must be non-negative".to_string());
        }
        let top_k = match parts.next() {
            None => 1,
            Some(k) => {
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("'{k}' is not a top-k count"))?;
                if k == 0 {
                    return Err("top-k must be at least 1".to_string());
                }
                k
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected probe token '{extra}'"));
        }
        Ok(SimProbe {
            pattern,
            rate,
            top_k,
        })
    }
}

/// Parses an objective name (`delay`, `area`, `power`, `bandwidth`),
/// case-insensitively — shared by the manifest parser, the CLI's
/// `--objective` flag and the request JSON reader.
///
/// # Errors
///
/// The message lists the valid names.
pub fn parse_objective(text: &str) -> Result<Objective, String> {
    match text.to_ascii_lowercase().as_str() {
        "delay" => Ok(Objective::MinDelay),
        "area" => Ok(Objective::MinArea),
        "power" => Ok(Objective::MinPower),
        "bandwidth" => Ok(Objective::MinBandwidth),
        other => Err(format!(
            "unknown objective '{other}' (valid: delay, area, power, bandwidth)"
        )),
    }
}

/// The short objective name [`parse_objective`] accepts — the inverse
/// used by the canonical request JSON.
pub fn objective_name(objective: Objective) -> &'static str {
    match objective {
        Objective::MinDelay => "delay",
        Objective::MinArea => "area",
        Objective::MinPower => "power",
        Objective::MinBandwidth => "bandwidth",
    }
}

/// Parses a routing-function abbreviation (`DO`, `MP`, `SM`, `SA`),
/// case-insensitively — shared by the manifest parser, the CLI's
/// `--routing` flag and the request JSON reader.
///
/// # Errors
///
/// The message lists the valid names.
pub fn parse_routing(text: &str) -> Result<RoutingFunction, String> {
    match text.to_ascii_uppercase().as_str() {
        "DO" => Ok(RoutingFunction::DimensionOrdered),
        "MP" => Ok(RoutingFunction::MinPath),
        "SM" => Ok(RoutingFunction::SplitMinPaths),
        "SA" => Ok(RoutingFunction::SplitAllPaths),
        other => Err(format!("unknown routing '{other}' (valid: DO, MP, SM, SA)")),
    }
}

/// Parses a swap-strategy name (`auto`, `exhaustive`, `delta`),
/// case-insensitively.
///
/// # Errors
///
/// The message lists the valid names.
pub fn parse_swap(text: &str) -> Result<SwapStrategy, String> {
    match text.to_ascii_lowercase().as_str() {
        "auto" => Ok(SwapStrategy::Auto),
        "exhaustive" => Ok(SwapStrategy::Exhaustive),
        "delta" => Ok(SwapStrategy::DeltaPruned),
        other => Err(format!(
            "unknown swap strategy '{other}' (valid: auto, exhaustive, delta)"
        )),
    }
}

/// The name [`parse_swap`] accepts — the inverse used by the canonical
/// request JSON.
pub fn swap_name(swap: SwapStrategy) -> &'static str {
    match swap {
        SwapStrategy::Auto => "auto",
        SwapStrategy::Exhaustive => "exhaustive",
        SwapStrategy::DeltaPruned => "delta",
    }
}

/// Parses a simulation-engine name (`auto`, `flat`, `event`,
/// `reference`), case-insensitively — shared by the manifest parser,
/// the CLI's `--engine` flag and the request JSON reader.
///
/// # Errors
///
/// The message lists the valid names.
pub fn parse_engine(text: &str) -> Result<SimEngine, String> {
    SimEngine::parse(&text.to_ascii_lowercase())
        .ok_or_else(|| format!("unknown engine '{text}' (valid: auto, flat, event, reference)"))
}

/// Parses a table-preparation name (`auto`, `eager`, `lazy`,
/// `closed-form`), case-insensitively — shared by the manifest parser,
/// the CLI's `--table-prep` flag and the request JSON reader.
///
/// # Errors
///
/// The message lists the valid names.
pub fn parse_table_prep(text: &str) -> Result<TablePrep, String> {
    TablePrep::parse(&text.to_ascii_lowercase()).ok_or_else(|| {
        format!("unknown table prep '{text}' (valid: auto, eager, lazy, closed-form)")
    })
}

/// One exploration request: everything the flow needs to map an
/// application across the standard topology library and report the
/// winner.
///
/// All surfaces construct this type — the CLI from flags, the batch
/// manifest from its grid axes, the serve daemon from frame JSON — so
/// there is exactly one set of defaults and one validate path.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreRequest {
    /// What to map.
    pub app: AppSource,
    /// Mapping/selection objective (default `delay`).
    pub objective: Objective,
    /// Routing function (default `MP`).
    pub routing: RoutingFunction,
    /// Link capacity in MB/s (default `500`).
    pub capacity: f64,
    /// Constraint regime (default `strict`).
    pub constraints: ConstraintMode,
    /// Phase-3 swap strategy (default `auto`).
    pub swap: SwapStrategy,
    /// Simulation engine for probes and validation runs (default
    /// `auto`; `auto`, `flat` and `event` all run the event-driven
    /// engine, `reference` the oracle — see [`SimEngine`]).
    pub engine: SimEngine,
    /// Route-table preparation policy (default `auto`: eager on small
    /// topologies, lazy/closed-form at scale — reports are
    /// bit-identical either way).
    pub table_prep: TablePrep,
    /// Winner simulation probe, if any.
    pub probe: Option<SimProbe>,
}

impl ExploreRequest {
    /// A request for `app` under the default configuration (the same
    /// defaults every surface documents: objective `delay`, routing
    /// `MP`, capacity `500`, constraints `strict`, swap `auto`, engine
    /// `auto`, table prep `auto`, no probe).
    pub fn new(app: AppSource) -> ExploreRequest {
        ExploreRequest {
            app,
            objective: Objective::MinDelay,
            routing: RoutingFunction::MinPath,
            capacity: 500.0,
            constraints: ConstraintMode::Strict,
            swap: SwapStrategy::Auto,
            engine: SimEngine::Auto,
            table_prep: TablePrep::Auto,
            probe: None,
        }
    }

    /// Validates field ranges (capacity positive and finite; probe rate
    /// non-negative and finite). Parsing surfaces enforce these on
    /// entry; this guards requests built in code.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.capacity.is_finite() && self.capacity > 0.0) {
            return Err("capacity must be positive".to_string());
        }
        if let Some(p) = &self.probe {
            if !(p.rate.is_finite() && p.rate >= 0.0) {
                return Err("rate must be non-negative".to_string());
            }
            if p.top_k == 0 {
                return Err("top-k must be at least 1".to_string());
            }
        }
        Ok(())
    }

    /// The canonical JSON form, with a fixed field order:
    ///
    /// ```json
    /// {"app":"vopd","objective":"delay","routing":"MP","capacity":500,
    ///  "constraints":"strict","swap":"auto","engine":"auto",
    ///  "table_prep":"auto","probe":null}
    /// ```
    ///
    /// Round-trips through [`ExploreRequest::from_json`]. Note the app
    /// source is serialized canonically (via [`AppSource`]'s `Display`),
    /// so two requests that compare equal serialize identically.
    pub fn to_json(&self) -> String {
        let probe = match &self.probe {
            Some(p) => format!(
                "{{\"pattern\":{},\"rate\":{},\"top_k\":{}}}",
                json_string(p.pattern.name()),
                json_number(p.rate),
                p.top_k,
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"app\":{},\"objective\":{},\"routing\":{},\"capacity\":{},\
             \"constraints\":{},\"swap\":{},\"engine\":{},\"table_prep\":{},\
             \"probe\":{probe}}}",
            json_string(&self.app.to_string()),
            json_string(objective_name(self.objective)),
            json_string(self.routing.abbrev()),
            json_number(self.capacity),
            json_string(self.constraints.name()),
            json_string(swap_name(self.swap)),
            json_string(self.engine.name()),
            json_string(self.table_prep.name()),
        )
    }

    /// Parses the JSON form. `app` is required; every other field is
    /// optional and falls back to its default (`probe` may be `null`).
    /// Unknown fields are rejected — a typo'd field silently meaning
    /// "default" is the failure mode this type exists to delete.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn from_json(text: &str) -> Result<ExploreRequest, String> {
        Self::from_json_value(&Json::parse(text)?)
    }

    pub(crate) fn from_json_value(value: &Json) -> Result<ExploreRequest, String> {
        let Json::Object(fields) = value else {
            return Err("request must be a JSON object".to_string());
        };
        for key in fields.keys() {
            if !matches!(
                key.as_str(),
                "app"
                    | "objective"
                    | "routing"
                    | "capacity"
                    | "constraints"
                    | "swap"
                    | "engine"
                    | "table_prep"
                    | "probe"
            ) {
                return Err(format!("unknown request field '{key}'"));
            }
        }
        let str_field = |key: &str| -> Result<Option<&str>, String> {
            match fields.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a string")),
            }
        };
        let app: AppSource = str_field("app")?
            .ok_or_else(|| "request needs an 'app'".to_string())?
            .parse()
            .map_err(|e| format!("app: {e}"))?;
        let mut req = ExploreRequest::new(app);
        if let Some(text) = str_field("objective")? {
            req.objective = parse_objective(text)?;
        }
        if let Some(text) = str_field("routing")? {
            req.routing = parse_routing(text)?;
        }
        if let Some(v) = fields.get("capacity") {
            req.capacity = v
                .as_f64()
                .ok_or_else(|| "'capacity' must be a number".to_string())?;
        }
        if let Some(text) = str_field("constraints")? {
            req.constraints = ConstraintMode::parse(text)?;
        }
        if let Some(text) = str_field("swap")? {
            req.swap = parse_swap(text)?;
        }
        if let Some(text) = str_field("engine")? {
            req.engine = parse_engine(text)?;
        }
        if let Some(text) = str_field("table_prep")? {
            req.table_prep = parse_table_prep(text)?;
        }
        match fields.get("probe") {
            None | Some(Json::Null) => {}
            Some(probe) => {
                let pattern = probe
                    .get("pattern")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "'probe' needs a string 'pattern'".to_string())?;
                let rate = probe
                    .get("rate")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| "'probe' needs a numeric 'rate'".to_string())?;
                let top_k = match probe.get("top_k") {
                    None => 1,
                    Some(v) => {
                        let k = v
                            .as_f64()
                            .filter(|k| k.fract() == 0.0 && *k >= 1.0)
                            .ok_or_else(|| "'top_k' must be a positive integer".to_string())?;
                        k as usize
                    }
                };
                let mut parsed = SimProbe::parse(&format!("{pattern} {rate}"))?;
                parsed.top_k = top_k;
                req.probe = Some(parsed);
            }
        }
        req.validate()?;
        Ok(req)
    }
}

/// Per-topology route state shared across every request mapping onto
/// that topology: the graph, its [`RouteTable`] (reused via
/// [`Mapper::with_route_table`]) and, lazily, the simulation
/// [`RoutePlan`] compiled from that same table.
#[derive(Debug)]
pub struct TopoState {
    /// The candidate topology.
    pub graph: TopologyGraph,
    /// Its route table, warmed a little more by every request.
    pub table: RouteTable,
    /// The compiled probe plan, if a probe has run on this topology.
    pub plan: Option<Arc<RoutePlan>>,
}

/// A checked-out candidate library: the [`TopoState`] of every standard
/// topology for one `(core count, link capacity)` key.
#[derive(Debug)]
pub struct CandidateLibrary {
    key: (usize, u64),
    /// The per-topology states, in standard-library order.
    pub topos: Vec<TopoState>,
}

impl CandidateLibrary {
    /// Builds the cold library for `cores` mappable cores at
    /// `capacity` MB/s links (route tables constructed under `prep`,
    /// no plans).
    pub fn build(cores: usize, capacity: f64, prep: TablePrep) -> CandidateLibrary {
        let topos = builders::standard_library(cores, capacity)
            .expect("requests carry non-empty applications")
            .into_iter()
            .map(|graph| TopoState {
                table: RouteTable::with_prep(&graph, prep),
                graph,
                plan: None,
            })
            .collect();
        CandidateLibrary {
            key: (cores, capacity.to_bits()),
            topos,
        }
    }

    /// Whether this library's route tables were prepared exactly as a
    /// request asking for `prep` would prepare them. `Auto` and an
    /// explicit variant share cache entries whenever they resolve to
    /// the same concrete preparation per topology (e.g. `auto` and
    /// `eager` on a small library), while distinct resolved variants
    /// never reuse each other's tables — a library advertising eager
    /// dense state must actually hold it.
    fn serves_prep(&self, prep: TablePrep) -> bool {
        self.topos.iter().all(|tc| {
            tc.table.prep() == prep.resolve(tc.graph.kind(), tc.graph.mappable_nodes().len())
        })
    }
}

/// An LRU cache of [`CandidateLibrary`]s keyed by `(core count, link
/// capacity)` — the warm heart of the serve daemon, and the same
/// structure the batch engine keeps per worker.
///
/// Single-threaded callers use [`LruLibraryCache::with_library`]; the
/// daemon's workers share one cache behind a `Mutex` and use
/// [`LruLibraryCache::checkout`] / [`LruLibraryCache::checkin`] so the
/// lock is held only for the lookup, not for the mapping work. If two
/// workers check out the same key concurrently the second builds a
/// fresh library (and the later check-in is dropped) — route tables
/// are warmth, not correctness, so losing one costs a rebuild, never
/// a wrong answer.
#[derive(Debug)]
pub struct LruLibraryCache {
    max_entries: usize,
    entries: Vec<CandidateLibrary>,
    hits: u64,
    misses: u64,
}

impl LruLibraryCache {
    /// An empty cache holding at most `max_entries` libraries (min 1).
    pub fn new(max_entries: usize) -> LruLibraryCache {
        LruLibraryCache {
            max_entries: max_entries.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Libraries served warm so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Libraries built cold so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Takes the library for `(cores, capacity)` out of the cache,
    /// building it under `prep` if no compatible entry is resident —
    /// compatible meaning every resident route table already carries
    /// the preparation `prep` *resolves to* on its topology, so
    /// spellings that resolve alike (`auto`/`eager` at seed sizes)
    /// share one entry while distinct resolved variants coexist.
    /// Returns the library, whether it was a hit, and the build time
    /// in nanoseconds (0 on a hit).
    pub fn checkout(
        &mut self,
        cores: usize,
        capacity: f64,
        prep: TablePrep,
    ) -> (CandidateLibrary, bool, u64) {
        let key = (cores, capacity.to_bits());
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.key == key && e.serves_prep(prep))
        {
            self.hits += 1;
            (self.entries.remove(i), true, 0)
        } else {
            self.misses += 1;
            // lint:allow(wall-clock): cache-build latency instrumentation only; no logic branches on time
            let start = Instant::now();
            let library = CandidateLibrary::build(cores, capacity, prep);
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (library, false, nanos)
        }
    }

    /// Returns a checked-out library to the front of the LRU order,
    /// evicting from the back beyond capacity. If an identically
    /// prepared library for the key was re-built by a concurrent
    /// checkout and already checked back in, the returned copy is
    /// dropped (the resident one is equally warm). Libraries for the
    /// same key under *different* resolved preparations coexist.
    pub fn checkin(&mut self, library: CandidateLibrary) {
        if self.entries.iter().any(|e| {
            e.key == library.key
                && e.topos.len() == library.topos.len()
                && e.topos
                    .iter()
                    .zip(&library.topos)
                    .all(|(a, b)| a.table.prep() == b.table.prep())
        }) {
            return;
        }
        self.entries.insert(0, library);
        self.entries.truncate(self.max_entries);
    }

    /// Runs `f` on the library for `(cores, capacity)` prepared under
    /// `prep` — the single-threaded convenience over checkout/checkin.
    pub fn with_library<R>(
        &mut self,
        cores: usize,
        capacity: f64,
        prep: TablePrep,
        f: impl FnOnce(&mut [TopoState]) -> R,
    ) -> R {
        let (mut library, _, _) = self.checkout(cores, capacity, prep);
        let result = f(&mut library.topos);
        self.checkin(library);
        result
    }
}

/// Counters and timings from one executed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Topology candidates tried (the standard library size).
    pub candidates: usize,
    /// Candidates that mapped feasibly.
    pub feasible: usize,
    /// Mapping candidates evaluated across all topologies.
    pub evaluated: usize,
    /// Wall-clock nanoseconds in the mapping/swap search (includes
    /// floorplanning; subtract the timing module's floorplan share for
    /// pure search time).
    pub mapping_nanos: u64,
    /// Wall-clock nanoseconds in the simulation probe (0 without one).
    pub probe_nanos: u64,
}

/// Executes `req` for the already-resolved `app` against the
/// per-topology states `topos` and renders the report *body*: the
/// fields from `"app":` through `"winner":...` without surrounding
/// braces, ready to be wrapped in a schema envelope. `spec` is the
/// application spelling to report (batch passes the manifest's
/// as-written spec; the one-shot and serve paths pass the canonical
/// [`AppSource`] form).
pub fn execute(
    spec: &str,
    app: &CoreGraph,
    req: &ExploreRequest,
    topos: &mut [TopoState],
) -> (String, ExecStats) {
    let config = MapperConfig {
        routing: req.routing,
        objective: req.objective,
        constraints: req.constraints.constraints(),
        swap_strategy: req.swap,
        table_prep: req.table_prep,
        ..MapperConfig::default()
    };
    // lint:allow(wall-clock): phase-latency instrumentation feeding the report; no logic branches on time
    let mapping_start = Instant::now();
    let outcomes: Vec<_> = topos
        .iter_mut()
        .map(|tc| {
            Mapper::new(&tc.graph, app, config)
                .with_route_table(&mut tc.table)
                .run()
        })
        .collect();
    let mapping_nanos = u64::try_from(mapping_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let reports: Vec<Option<&CostReport>> = outcomes
        .iter()
        .map(|o| o.as_ref().ok().map(|m| m.report()))
        .collect();
    let ranked = rank_reports(&reports, SelectionPolicy::Balanced, req.objective);
    let winner = ranked.first().copied();

    let mut body = format!(
        "\"app\":{},\"cores\":{},\"capacity\":{},\"objective\":{},\"routing\":{},\
         \"constraints\":{}",
        json_string(spec),
        app.core_count(),
        json_number(req.capacity),
        json_string(&req.objective.to_string()),
        json_string(req.routing.abbrev()),
        json_string(req.constraints.name()),
    );
    let feasible = reports.iter().filter(|r| r.is_some()).count();
    let evaluated: usize = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().map(|m| m.evaluated_candidates()))
        .sum();
    body.push_str(&format!(
        ",\"candidates\":{},\"feasible\":{feasible},\"evaluated\":{evaluated}",
        topos.len()
    ));
    body.push_str(",\"topologies\":[");
    for (i, tc) in topos.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match reports[i] {
            Some(r) => body.push_str(&format!(
                "{{\"topology\":{},\"feasible\":true,\"avg_hops\":{},\
                 \"design_area\":{},\"power_mw\":{}}}",
                json_string(tc.graph.kind().name()),
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.power_mw),
            )),
            None => body.push_str(&format!(
                "{{\"topology\":{},\"feasible\":false}}",
                json_string(tc.graph.kind().name())
            )),
        }
    }
    body.push(']');
    let mut probe_nanos = 0u64;
    match winner {
        Some(w) => {
            let r = reports[w].expect("ranked candidates are feasible");
            body.push_str(&format!(
                ",\"winner\":{{\"topology\":{},\"avg_hops\":{},\"design_area\":{},\
                 \"floorplan_area\":{},\"power_mw\":{},\"max_link_load\":{},\
                 \"evaluated\":{}}}",
                json_string(topos[w].graph.kind().name()),
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.floorplan_area),
                json_number(r.power_mw),
                json_number(r.max_link_load),
                outcomes[w]
                    .as_ref()
                    .map(|m| m.evaluated_candidates())
                    .expect("winner is feasible"),
            ));
            if let Some(probe) = &req.probe {
                // lint:allow(wall-clock): probe-latency instrumentation feeding the report; no logic branches on time
                let probe_start = Instant::now();
                let config = SimConfig {
                    engine: req.engine,
                    ..SimConfig::default()
                };
                let k = probe.top_k.min(ranked.len());
                let probed: Vec<(usize, LatencyStats)> = ranked
                    .iter()
                    .take(k)
                    .map(|&cand| {
                        let tc = &mut topos[cand];
                        let mut builder = SimSession::builder(&tc.graph).config(config);
                        if req.engine != SimEngine::Reference {
                            // The probe plan comes from the same shared
                            // table the mapper used; compiled once per
                            // topology, reused by every later request
                            // that probes the same candidate. The
                            // reference engine never consumes a plan.
                            let plan = match &tc.plan {
                                Some(plan) => plan.clone(),
                                None => {
                                    let plan = Arc::new(RoutePlan::synthetic(
                                        &tc.graph,
                                        &mut tc.table,
                                        &config,
                                    ));
                                    tc.plan = Some(plan.clone());
                                    plan
                                }
                            };
                            builder = builder.plan(plan);
                        }
                        let stats = builder.build().run_synthetic(&probe.pattern, probe.rate);
                        (cand, stats)
                    })
                    .collect();
                let (_, winner_stats) = &probed[0];
                body.push_str(&format!(
                    ",\"sim\":{{\"pattern\":{},\"rate\":{},{}}}",
                    json_string(probe.pattern.name()),
                    json_number(probe.rate),
                    stats_json_fields(winner_stats),
                ));
                if probe.top_k > 1 {
                    // Per-candidate analytical-vs-measured drift: the
                    // zero-load latency model is avg_hops switch
                    // traversals plus serialization of the body flits.
                    body.push_str(",\"probes\":[");
                    for (i, (cand, stats)) in probed.iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        let r = reports[*cand].expect("ranked candidates are feasible");
                        let analytical = r.avg_hops * (1.0 + config.switch_pipeline as f64)
                            + (config.packet_flits as f64 - 1.0);
                        let drift = if analytical > 0.0 {
                            (stats.avg_latency - analytical) / analytical
                        } else {
                            0.0
                        };
                        body.push_str(&format!(
                            "{{\"rank\":{},\"topology\":{},\"engine\":{},{},\
                             \"analytical_latency_cycles\":{},\"latency_drift\":{}}}",
                            i + 1,
                            json_string(topos[*cand].graph.kind().name()),
                            json_string(req.engine.resolve(probe.rate).name()),
                            stats_json_fields(stats),
                            json_number(analytical),
                            json_number(drift),
                        ));
                    }
                    body.push(']');
                }
                probe_nanos = u64::try_from(probe_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        }
        None => body.push_str(",\"winner\":null"),
    }
    (
        body,
        ExecStats {
            candidates: topos.len(),
            feasible,
            evaluated,
            mapping_nanos,
            probe_nanos,
        },
    )
}

/// Everything [`RequestRunner::run`] produces for one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The one-line report: `{"schema":"sunmap-report/1",...}`.
    pub line: String,
    /// Execution counters and phase timings.
    pub stats: ExecStats,
    /// Whether the candidate library (route tables) was served warm.
    pub cache_hit: bool,
    /// Nanoseconds spent building route tables (0 on a cache hit).
    pub route_table_nanos: u64,
}

/// A socketless request executor over an owned warm cache — the
/// one-shot CLI path, the replay verifier and the throughput bench all
/// run requests through this; the serve daemon inlines the same
/// checkout/execute/checkin sequence against its shared cache.
#[derive(Debug)]
pub struct RequestRunner {
    cache: LruLibraryCache,
}

impl RequestRunner {
    /// A runner whose cache holds at most `cache_entries` candidate
    /// libraries.
    pub fn new(cache_entries: usize) -> RequestRunner {
        RequestRunner {
            cache: LruLibraryCache::new(cache_entries),
        }
    }

    /// Validates, resolves and executes `req`, returning the wrapped
    /// report line. The same request always produces the same bytes —
    /// warm or cold cache, here or through the daemon.
    ///
    /// # Errors
    ///
    /// Validation and application-resolution failures, as
    /// human-readable messages.
    pub fn run(&mut self, req: &ExploreRequest) -> Result<RequestOutcome, String> {
        req.validate()?;
        let app = req.app.resolve()?;
        let spec = req.app.to_string();
        let (mut library, cache_hit, route_table_nanos) =
            self.cache
                .checkout(app.core_count(), req.capacity, req.table_prep);
        let (body, stats) = execute(&spec, &app, req, &mut library.topos);
        self.cache.checkin(library);
        Ok(RequestOutcome {
            line: format!("{{\"schema\":\"{REPORT_SCHEMA}\",{body}}}"),
            stats,
            cache_hit,
            route_table_nanos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsp_request() -> ExploreRequest {
        let mut req = ExploreRequest::new("dsp".parse().unwrap());
        req.capacity = 1000.0;
        req
    }

    #[test]
    fn json_round_trips_every_field() {
        let mut req = ExploreRequest::new("synth:seed=7,cores=12".parse().unwrap());
        req.objective = Objective::MinPower;
        req.routing = RoutingFunction::DimensionOrdered;
        req.capacity = 750.0;
        req.constraints = ConstraintMode::Relaxed;
        req.swap = SwapStrategy::DeltaPruned;
        req.engine = SimEngine::EventDriven;
        req.table_prep = TablePrep::ClosedForm;
        req.probe = Some(SimProbe {
            pattern: TrafficPattern::Transpose,
            rate: 0.125,
            top_k: 3,
        });
        let json = req.to_json();
        assert_eq!(ExploreRequest::from_json(&json).unwrap(), req);
        // And the canonical form is stable (serialize twice).
        assert_eq!(ExploreRequest::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn json_defaults_match_new() {
        let req = ExploreRequest::from_json("{\"app\":\"vopd\"}").unwrap();
        assert_eq!(req, ExploreRequest::new("vopd".parse().unwrap()));
    }

    #[test]
    fn json_errors_name_the_field() {
        let err = ExploreRequest::from_json("{}").unwrap_err();
        assert!(err.contains("app"), "{err}");
        let err =
            ExploreRequest::from_json("{\"app\":\"vopd\",\"objectiv\":\"delay\"}").unwrap_err();
        assert!(err.contains("unknown request field"), "{err}");
        let err =
            ExploreRequest::from_json("{\"app\":\"vopd\",\"objective\":\"speed\"}").unwrap_err();
        assert!(err.contains("delay, area, power, bandwidth"), "{err}");
        let err = ExploreRequest::from_json("{\"app\":\"vopd\",\"capacity\":-1}").unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = ExploreRequest::from_json("{\"app\":\"synth:wat=1\"}").unwrap_err();
        assert!(err.contains("wat"), "{err}");
        let err = ExploreRequest::from_json(
            "{\"app\":\"vopd\",\"probe\":{\"pattern\":\"warp\",\"rate\":0.1}}",
        )
        .unwrap_err();
        assert!(err.contains("uniform"), "error lists patterns: {err}");
        let err = ExploreRequest::from_json("{\"app\":\"vopd\",\"engine\":\"warp\"}").unwrap_err();
        assert!(err.contains("auto, flat, event, reference"), "{err}");
        let err =
            ExploreRequest::from_json("{\"app\":\"vopd\",\"table_prep\":\"dense\"}").unwrap_err();
        assert!(err.contains("auto, eager, lazy, closed-form"), "{err}");
        let err = ExploreRequest::from_json(
            "{\"app\":\"vopd\",\"probe\":{\"pattern\":\"uniform\",\"rate\":0.1,\"top_k\":0}}",
        )
        .unwrap_err();
        assert!(err.contains("top_k"), "{err}");
    }

    #[test]
    fn probe_parse_accepts_an_optional_top_k() {
        assert_eq!(SimProbe::parse("uniform 0.05").unwrap().top_k, 1);
        assert_eq!(SimProbe::parse("uniform 0.05 4").unwrap().top_k, 4);
        let err = SimProbe::parse("uniform 0.05 zero").unwrap_err();
        assert!(err.contains("top-k"), "{err}");
        let err = SimProbe::parse("uniform 0.05 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = SimProbe::parse("uniform 0.05 2 extra").unwrap_err();
        assert!(err.contains("unexpected"), "{err}");
    }

    #[test]
    fn validate_guards_code_built_requests() {
        let mut req = ExploreRequest::new("dsp".parse().unwrap());
        req.capacity = f64::INFINITY;
        assert!(req.validate().is_err());
        req.capacity = 500.0;
        req.probe = Some(SimProbe {
            pattern: TrafficPattern::UniformRandom,
            rate: f64::NAN,
            top_k: 1,
        });
        assert!(req.validate().is_err());
        req.probe = Some(SimProbe {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            top_k: 0,
        });
        assert!(req.validate().is_err());
    }

    #[test]
    fn runner_reports_are_deterministic_and_cache_aware() {
        let req = dsp_request();
        let mut runner = RequestRunner::new(2);
        let first = runner.run(&req).unwrap();
        assert!(!first.cache_hit);
        assert!(first.route_table_nanos > 0);
        assert!(first
            .line
            .starts_with("{\"schema\":\"sunmap-report/1\",\"app\":\"dsp\""));
        assert!(first.stats.candidates >= 5);
        assert!(first.stats.evaluated > 0);
        let second = runner.run(&req).unwrap();
        assert!(second.cache_hit, "same topology must be served warm");
        assert_eq!(second.route_table_nanos, 0);
        assert_eq!(second.line, first.line, "warm and cold bytes must match");
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        let mut cache = LruLibraryCache::new(1);
        cache.with_library(6, 500.0, TablePrep::Auto, |_| ());
        cache.with_library(6, 1000.0, TablePrep::Auto, |_| ()); // evicts the 500.0 entry
        cache.with_library(6, 500.0, TablePrep::Auto, |_| ());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        // With room for both, the second pass is all hits.
        let mut cache = LruLibraryCache::new(2);
        for _ in 0..2 {
            cache.with_library(6, 500.0, TablePrep::Auto, |_| ());
            cache.with_library(6, 1000.0, TablePrep::Auto, |_| ());
        }
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn checkin_drops_duplicates_from_concurrent_rebuilds() {
        let mut cache = LruLibraryCache::new(4);
        let (a, _, _) = cache.checkout(6, 500.0, TablePrep::Auto);
        let (b, hit, _) = cache.checkout(6, 500.0, TablePrep::Auto);
        assert!(!hit, "checked-out key rebuilds cold");
        cache.checkin(a);
        cache.checkin(b);
        let (_, hit, _) = cache.checkout(6, 500.0, TablePrep::Auto);
        assert!(hit, "exactly one copy survives");
    }

    #[test]
    fn cache_distinguishes_table_preps_only_when_resolved_differently() {
        let mut cache = LruLibraryCache::new(4);
        // 6 cores is far below the eager threshold: `auto` resolves to
        // `eager`, so the two spellings share one entry.
        cache.with_library(6, 500.0, TablePrep::Auto, |_| ());
        cache.with_library(6, 500.0, TablePrep::Eager, |_| ());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // An explicit lazy request must not reuse the eager tables...
        cache.with_library(6, 500.0, TablePrep::Lazy, |topos| {
            for tc in topos {
                assert_eq!(tc.table.prep(), TablePrep::Lazy);
            }
        });
        assert_eq!(cache.misses(), 2);
        // ...and both resolved variants stay resident side by side.
        cache.with_library(6, 500.0, TablePrep::Eager, |_| ());
        cache.with_library(6, 500.0, TablePrep::Lazy, |_| ());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn probe_requests_append_sim_results() {
        let mut req = dsp_request();
        req.probe = Some(SimProbe::parse("uniform 0.05").unwrap());
        let mut runner = RequestRunner::new(2);
        let outcome = runner.run(&req).unwrap();
        assert!(
            outcome.line.contains(",\"sim\":{\"pattern\":\"uniform\""),
            "{}",
            outcome.line
        );
        assert!(
            !outcome.line.contains("\"probes\":"),
            "winner-only probes keep the historical report shape: {}",
            outcome.line
        );
        assert!(outcome.stats.probe_nanos > 0);
    }

    #[test]
    fn top_k_probes_append_per_candidate_drift() {
        let mut req = dsp_request();
        req.engine = SimEngine::EventDriven;
        // 99 candidates requested, clamped to the feasible count.
        req.probe = Some(SimProbe::parse("uniform 0.05 99").unwrap());
        let mut runner = RequestRunner::new(2);
        let outcome = runner.run(&req).unwrap();
        let line = &outcome.line;
        assert!(line.contains("\"probes\":[{\"rank\":1,"), "{line}");
        assert!(line.contains("\"engine\":\"event\""), "{line}");
        assert!(line.contains("\"analytical_latency_cycles\":"), "{line}");
        assert!(line.contains("\"latency_drift\":"), "{line}");
        let ranks = line.matches("\"rank\":").count();
        assert!(
            (2..=5).contains(&ranks),
            "drift entries clamp to the feasible candidates: {line}"
        );
        // The winner's "sim" object stays, bytes shared with the k=1
        // form (probes[0] is the same run).
        assert!(line.contains(",\"sim\":{\"pattern\":\"uniform\""), "{line}");
    }
}
