//! One request type for every exploration surface.
//!
//! An [`ExploreRequest`] is the one serializable description of a
//! mapping exploration — application source, objective, routing
//! function, link capacity, constraint regime and an optional
//! simulation probe — with a single validate path and a canonical JSON
//! form that round-trips ([`ExploreRequest::to_json`] /
//! [`ExploreRequest::from_json`]). It names *what* to map; how the
//! search scores swaps, how route tables are prepared and which
//! simulator runs a probe are choices the code makes.
//!
//! The module also owns the cached execution path: [`execute`] runs
//! [`Sunmap::explore`]'s executor over warm route tables and renders
//! the report body every producer wraps —
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
//! [`LruLibraryCache`] keyed by `(core count, link capacity, table
//! preparation)`; the [`LruLibraryCache::checkout`] /
//! [`LruLibraryCache::checkin`] pair lets a daemon worker take a
//! library out of a shared `Mutex`'d cache for the duration of a
//! request instead of serializing all mapping work behind the lock.
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

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::flow::{Exploration, Sunmap};
use crate::json::Json;
use crate::schema::REPORT_SCHEMA;
use sunmap_mapping::{
    Constraints, Mapping, Objective, RouteTable, RoutingFunction, SwapStrategy, TablePrep,
};
use sunmap_sim::sweep::{json_number, json_string, stats_json_fields};
use sunmap_sim::{LatencyStats, RoutePlan, SimConfig, SimSession};
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
/// through the request's shared per-topology [`RoutePlan`]s, under
/// [`SimConfig::default`] (the event-driven engine).
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
        let pattern = parse_pattern(pattern)?;
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

/// Looks up a probe's pattern name, case-insensitively.
///
/// # Errors
///
/// The message lists the valid names.
fn parse_pattern(name: &str) -> Result<TrafficPattern, String> {
    TrafficPattern::from_name(name).ok_or_else(|| {
        format!(
            "unknown pattern '{name}' (valid: {})",
            TrafficPattern::NAMES.join(", ")
        )
    })
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

/// One exploration request: everything the flow needs to map an
/// application across the standard topology library and report the
/// winner.
///
/// All surfaces construct this type — the CLI from flags, the batch
/// manifest from its grid axes, the serve daemon from frame JSON — so
/// there is exactly one set of defaults and one validate path. Only
/// `swap` and `table_prep` are not part of the JSON form: they are
/// library values that every surface leaves `Auto`.
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
    /// Phase-3 swap strategy. Library only: every surface leaves it
    /// [`SwapStrategy::Auto`], and the JSON form does not carry it.
    pub swap: SwapStrategy,
    /// Route-table preparation, which also keys the cached library.
    /// Library only: every surface leaves it [`TablePrep::Auto`] (eager
    /// on small topologies, lazy/closed-form at scale; reports are
    /// bit-identical either way), and the JSON form does not carry it.
    pub table_prep: TablePrep,
    /// Winner simulation probe, if any.
    pub probe: Option<SimProbe>,
}

impl ExploreRequest {
    /// A request for `app` under the default configuration (the same
    /// defaults every surface documents: objective `delay`, routing
    /// `MP`, capacity `500`, constraints `strict`, no probe; swap and
    /// table preparation `Auto`).
    pub fn new(app: AppSource) -> ExploreRequest {
        ExploreRequest {
            app,
            objective: Objective::MinDelay,
            routing: RoutingFunction::MinPath,
            capacity: 500.0,
            constraints: ConstraintMode::Strict,
            swap: SwapStrategy::Auto,
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
    ///  "constraints":"strict","probe":null}
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
             \"constraints\":{},\"probe\":{probe}}}",
            json_string(&self.app.to_string()),
            json_string(objective_name(self.objective)),
            json_string(self.routing.abbrev()),
            json_number(self.capacity),
            json_string(self.constraints.name()),
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
                "app" | "objective" | "routing" | "capacity" | "constraints" | "probe"
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
                // The rate is checked with the other ranges by
                // `validate` below.
                req.probe = Some(SimProbe {
                    pattern: parse_pattern(pattern)?,
                    rate,
                    top_k,
                });
            }
        }
        req.validate()?;
        Ok(req)
    }
}

/// Per-topology route state shared across every request mapping onto
/// that topology: the graph, its [`RouteTable`] (reused via
/// [`sunmap_mapping::Mapper::with_route_table`]) and, lazily, the
/// simulation [`RoutePlan`] compiled from that same table.
#[derive(Debug)]
pub struct TopoState {
    /// The candidate topology.
    pub graph: Arc<TopologyGraph>,
    /// Its route table, warmed a little more by every request.
    pub table: RouteTable,
    /// The compiled probe plan, if a probe has run on this topology.
    pub plan: Option<Arc<RoutePlan>>,
}

/// A checked-out candidate library: the [`TopoState`] of every standard
/// topology for one `(core count, link capacity, table preparation)`
/// key.
#[derive(Debug)]
pub struct CandidateLibrary {
    key: (usize, u64, TablePrep),
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
                graph: Arc::new(graph),
                plan: None,
            })
            .collect();
        CandidateLibrary {
            key: (cores, capacity.to_bits(), prep),
            topos,
        }
    }
}

/// An LRU cache of [`CandidateLibrary`]s keyed by `(core count, link
/// capacity, table preparation)` — the warm heart of the serve daemon,
/// and the same structure the batch engine keeps per worker. The key
/// holds the *requested* preparation, so libraries built under
/// different requested preparations never share an entry.
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

    /// Takes the library for `(cores, capacity, prep)` out of the
    /// cache, building it under `prep` if none is resident. Returns the
    /// library, whether it was a hit, and the build time in
    /// nanoseconds (0 on a hit).
    pub fn checkout(
        &mut self,
        cores: usize,
        capacity: f64,
        prep: TablePrep,
    ) -> (CandidateLibrary, bool, u64) {
        let key = (cores, capacity.to_bits(), prep);
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
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
    /// evicting from the back beyond capacity. If a library for the key
    /// was re-built by a concurrent checkout and already checked back
    /// in, the returned copy is dropped (the resident one is equally
    /// warm).
    pub fn checkin(&mut self, library: CandidateLibrary) {
        if self.entries.iter().any(|e| e.key == library.key) {
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
/// fields from `"app":` through `"winner":...` (and any probe results)
/// without surrounding braces, ready to be wrapped in a schema
/// envelope. `spec` is the application spelling to report (batch passes
/// the manifest's as-written spec; the one-shot and serve paths pass
/// the canonical [`AppSource`] form).
pub fn execute(
    spec: &str,
    app: Arc<CoreGraph>,
    req: &ExploreRequest,
    topos: &mut [TopoState],
) -> (String, ExecStats) {
    let cores = app.core_count();
    let tool = Sunmap::for_request(req, app);
    // lint:allow(wall-clock): phase-latency instrumentation feeding the report; no logic branches on time
    let mapping_start = Instant::now();
    let exploration =
        tool.explore_candidates(topos.iter_mut().map(|tc| (tc.graph.clone(), &mut tc.table)));
    let mapping_nanos = nanos_since(mapping_start);
    let mut body = report_body(spec, cores, req, &exploration);
    let mut probe_nanos = 0;
    if let (Some(probe), Some(_)) = (&req.probe, exploration.best) {
        // lint:allow(wall-clock): probe-latency instrumentation feeding the report; no logic branches on time
        let probe_start = Instant::now();
        body.push_str(&probe_fields(probe, &exploration, topos));
        probe_nanos = nanos_since(probe_start);
    }
    let (feasible, evaluated) = feasible_and_evaluated(&exploration);
    let stats = ExecStats {
        candidates: exploration.candidates.len(),
        feasible,
        evaluated,
        mapping_nanos,
        probe_nanos,
    };
    (body, stats)
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The feasible candidates' count and their total evaluated mappings.
fn feasible_and_evaluated(exploration: &Exploration) -> (usize, usize) {
    let feasible = exploration
        .candidates
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok());
    let evaluated = feasible.clone().map(Mapping::evaluated_candidates).sum();
    (feasible.count(), evaluated)
}

/// Renders an exploration's report body up to the winner object;
/// `cores` is the application's core count.
pub(crate) fn report_body(
    spec: &str,
    cores: usize,
    req: &ExploreRequest,
    exploration: &Exploration,
) -> String {
    let (feasible, evaluated) = feasible_and_evaluated(exploration);
    let mut body = format!(
        "\"app\":{},\"cores\":{cores},\"capacity\":{},\"objective\":{},\"routing\":{},\
         \"constraints\":{},\"candidates\":{},\"feasible\":{feasible},\
         \"evaluated\":{evaluated},\"topologies\":[",
        json_string(spec),
        json_number(req.capacity),
        json_string(&req.objective.to_string()),
        json_string(req.routing.abbrev()),
        json_string(req.constraints.name()),
        exploration.candidates.len(),
    );
    for (i, c) in exploration.candidates.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let topology = json_string(c.kind.name());
        match c.report() {
            Some(r) => body.push_str(&format!(
                "{{\"topology\":{topology},\"feasible\":true,\"avg_hops\":{},\
                 \"design_area\":{},\"power_mw\":{}}}",
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.power_mw),
            )),
            None => body.push_str(&format!("{{\"topology\":{topology},\"feasible\":false}}")),
        }
    }
    body.push(']');
    match exploration.best_candidate() {
        Some(c) => {
            let mapping = c.outcome.as_ref().expect("the winner is feasible");
            let r = mapping.report();
            body.push_str(&format!(
                ",\"winner\":{{\"topology\":{},\"avg_hops\":{},\"design_area\":{},\
                 \"floorplan_area\":{},\"power_mw\":{},\"max_link_load\":{},\
                 \"evaluated\":{}}}",
                json_string(c.kind.name()),
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.floorplan_area),
                json_number(r.power_mw),
                json_number(r.max_link_load),
                mapping.evaluated_candidates(),
            ));
        }
        None => body.push_str(",\"winner\":null"),
    }
    body
}

/// Renders a probe's report fields: the winner's `"sim"` object and,
/// for `top_k > 1`, the `"probes"` array. Each probed topology's plan is
/// compiled once from the table the mapper used and reused by every
/// later request probing it.
fn probe_fields(probe: &SimProbe, exploration: &Exploration, topos: &mut [TopoState]) -> String {
    let config = SimConfig::default();
    let probed: Vec<(usize, LatencyStats)> = exploration
        .ranked()
        .into_iter()
        .take(probe.top_k)
        .map(|cand| {
            let tc = &mut topos[cand];
            let plan = tc.plan.get_or_insert_with(|| {
                Arc::new(RoutePlan::synthetic(&tc.graph, &mut tc.table, &config))
            });
            let stats = SimSession::builder(&tc.graph)
                .config(config)
                .plan(plan.clone())
                .build()
                .run_synthetic(&probe.pattern, probe.rate);
            (cand, stats)
        })
        .collect();
    let mut out = format!(
        ",\"sim\":{{\"pattern\":{},\"rate\":{},{}}}",
        json_string(probe.pattern.name()),
        json_number(probe.rate),
        stats_json_fields(&probed[0].1),
    );
    if probe.top_k > 1 {
        // Per-candidate analytical-vs-measured drift: the zero-load
        // latency model is avg_hops switch traversals plus
        // serialization of the body flits.
        out.push_str(",\"probes\":[");
        for (i, (cand, stats)) in probed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = &exploration.candidates[*cand];
            let r = c.report().expect("ranked candidates are feasible");
            let analytical = r.avg_hops * (1.0 + config.switch_pipeline as f64)
                + (config.packet_flits as f64 - 1.0);
            let drift = if analytical > 0.0 {
                (stats.avg_latency - analytical) / analytical
            } else {
                0.0
            };
            out.push_str(&format!(
                "{{\"rank\":{},\"topology\":{},\"engine\":{},{},\
                 \"analytical_latency_cycles\":{},\"latency_drift\":{}}}",
                i + 1,
                json_string(c.kind.name()),
                json_string(config.engine.resolve(probe.rate).name()),
                stats_json_fields(stats),
                json_number(analytical),
                json_number(drift),
            ));
        }
        out.push(']');
    }
    out
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

/// A socketless request executor over a warm cache — the one-shot CLI
/// path, the replay verifier and (shared by its worker threads) the
/// serve daemon all run requests through this.
#[derive(Debug)]
pub struct RequestRunner {
    cache: Mutex<LruLibraryCache>,
}

impl RequestRunner {
    /// A runner whose cache holds at most `cache_entries` candidate
    /// libraries.
    pub fn new(cache_entries: usize) -> RequestRunner {
        RequestRunner {
            cache: Mutex::new(LruLibraryCache::new(cache_entries)),
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
        self.run_shared(req)
    }

    /// [`RequestRunner::run`] through a shared reference, for threads
    /// sharing one cache: the lock is held only for the lookup and the
    /// check-in, never for the mapping.
    pub(crate) fn run_shared(&self, req: &ExploreRequest) -> Result<RequestOutcome, String> {
        req.validate()?;
        let app = req.app.resolve()?;
        let (mut library, cache_hit, route_table_nanos) = self
            .cache
            .lock()
            .expect("cache lock")
            .checkout(app.core_count(), req.capacity, req.table_prep);
        let (body, stats) = execute(&req.app.to_string(), Arc::new(app), req, &mut library.topos);
        self.cache.lock().expect("cache lock").checkin(library);
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
        // The pattern is one name: it cannot smuggle in a rate.
        let err = ExploreRequest::from_json(
            "{\"app\":\"vopd\",\"probe\":{\"pattern\":\"uniform 0.2\",\"rate\":3}}",
        )
        .unwrap_err();
        assert!(err.starts_with("unknown pattern 'uniform 0.2'"), "{err}");
        // The fields that chose how to compute, not what to map, are
        // gone: each is refused by name, whatever its value.
        for field in ["swap", "engine", "table_prep"] {
            let err =
                ExploreRequest::from_json(&format!("{{\"app\":\"vopd\",\"{field}\":\"auto\"}}"))
                    .unwrap_err();
            assert_eq!(err, format!("unknown request field '{field}'"));
        }
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
    fn cache_distinguishes_table_preps_by_request() {
        let mut cache = LruLibraryCache::new(4);
        // Different requested preparations never alias, even where they
        // resolve alike: at 6 cores `Auto` resolves to eager tables, yet
        // an explicit `Eager` request builds its own library.
        let preps = [TablePrep::Auto, TablePrep::Eager, TablePrep::Lazy];
        for prep in preps {
            cache.with_library(6, 500.0, prep, |topos| {
                for tc in topos {
                    let mappable = tc.graph.mappable_nodes().len();
                    assert_eq!(tc.table.prep(), prep.resolve(tc.graph.kind(), mappable));
                }
            });
        }
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        // Each requested preparation then serves its own repeat warm.
        for prep in preps {
            cache.with_library(6, 500.0, prep, |_| ());
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);
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
