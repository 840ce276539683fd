//! Batch exploration: many applications × configurations in one
//! sharded invocation.
//!
//! A [`BatchManifest`] names the grid — applications (any
//! [`AppSource`] spelling: built-in benchmarks, `synth:` specs,
//! `inline:` graphs or `.app` files), objectives, routing functions,
//! link capacities and constraint regimes — and expands each cell into
//! an [`ExploreRequest`] (see [`crate::request`]; the manifest parser
//! is one of the surfaces that construct it). [`run_batch`] executes
//! the requests across `std::thread::scope` workers. Each worker keeps
//! a [`crate::request::LruLibraryCache`]: **one route table per
//! distinct topology** (reused across every job mapping onto that
//! topology) and, when the manifest requests a simulation probe, **one
//! route plan per topology** compiled from that same table.
//!
//! Results stream as JSON-lines in job order — a positional reorder
//! buffer delivers line *k* only after lines `0..k`, so the output is
//! **byte-identical at any worker count** and a killed run leaves a
//! clean prefix that a resumed run extends to the same bytes.
//!
//! # Examples
//!
//! ```
//! use sunmap::batch::{run_batch, BatchManifest};
//!
//! let manifest = BatchManifest::parse(
//!     "app dsp\napp synth:seed=1,cores=8\nobjective power\nrouting MP\ncapacity 1000\n",
//! )?;
//! let jobs = manifest.jobs()?;
//! assert_eq!(jobs.len(), 2);
//! let mut lines = Vec::new();
//! run_batch(&jobs, 2, |_, line| {
//!     lines.push(line.to_string());
//!     true // keep going; false cancels the run
//! });
//! assert_eq!(lines.len(), 2);
//! assert!(lines[0].starts_with("{\"schema\":\"sunmap-batch/1\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use crate::json::Json;
use crate::request::{
    execute, parse_objective, parse_routing, ConstraintMode, ExploreRequest, LruLibraryCache,
    SimProbe,
};
use crate::schema::BATCH_SCHEMA;
use sunmap_mapping::{Objective, RoutingFunction};
use sunmap_sim::sweep::json_string;
use sunmap_traffic::{AppSource, CoreGraph};

/// Errors from manifest parsing and job expansion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ManifestError {
    /// A line did not match any directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending word.
        word: String,
    },
    /// A directive carried a bad value.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The manifest declares no applications.
    NoApps,
    /// An application spec failed to resolve.
    BadApp {
        /// The application spec.
        spec: String,
        /// The resolver's message.
        message: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::UnknownDirective { line, word } => write!(
                f,
                "line {line}: unknown directive '{word}' (valid: app, objective, \
                 routing, capacity, constraints, simulate)"
            ),
            ManifestError::BadValue { line, message } => write!(f, "line {line}: {message}"),
            ManifestError::NoApps => write!(f, "manifest declares no applications"),
            ManifestError::BadApp { spec, message } => {
                write!(f, "application '{spec}': {message}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// A parsed job manifest: the axes of the exploration grid.
///
/// The text format is line based; `#` starts a comment. Each directive
/// adds one value to its axis, and the job list is the cross product
/// `apps × capacities × objectives × routings × constraints` in that
/// nesting order. Axes left empty fall back to a single default
/// (objective `delay`, routing `MP`, capacity `500`, constraints
/// `strict`); repeated values within an axis are deduplicated (first
/// occurrence wins), keeping job ids unique.
///
/// ```text
/// # 2 apps x 2 objectives x 1 routing = 4 jobs
/// app vopd
/// app synth:seed=7,cores=16
/// objective power
/// objective delay
/// routing MP
/// capacity 500
/// constraints strict
/// simulate uniform 0.1 3    # optional: simulate each job's 3 best
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchManifest {
    /// Application specs, in declaration order.
    pub apps: Vec<String>,
    /// Objective axis (empty = `[MinDelay]`).
    pub objectives: Vec<Objective>,
    /// Routing axis (empty = `[MinPath]`).
    pub routings: Vec<RoutingFunction>,
    /// Link-capacity axis in MB/s (empty = `[500.0]`).
    pub capacities: Vec<f64>,
    /// Constraint-regime axis (empty = `[Strict]`).
    pub constraints: Vec<ConstraintMode>,
    /// Winner simulation probe, if requested.
    pub probe: Option<SimProbe>,
}

impl BatchManifest {
    /// Parses the manifest text.
    ///
    /// # Errors
    ///
    /// Returns the first offending line.
    pub fn parse(text: &str) -> Result<BatchManifest, ManifestError> {
        let mut m = BatchManifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let bad = |message: String| ManifestError::BadValue { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let (word, rest) = match content.split_once(char::is_whitespace) {
                Some((w, r)) => (w, r.trim()),
                None => (content, ""),
            };
            if rest.is_empty() {
                return Err(bad(format!("'{word}' needs a value")));
            }
            match word {
                "app" => m.apps.push(rest.to_string()),
                "objective" => m.objectives.push(parse_objective(rest).map_err(bad)?),
                "routing" => m.routings.push(parse_routing(rest).map_err(bad)?),
                "capacity" => {
                    let cap: f64 = rest
                        .parse()
                        .map_err(|_| bad(format!("'{rest}' is not a capacity in MB/s")))?;
                    if !(cap.is_finite() && cap > 0.0) {
                        return Err(bad("capacity must be positive".to_string()));
                    }
                    m.capacities.push(cap);
                }
                "constraints" => m
                    .constraints
                    .push(ConstraintMode::parse(rest).map_err(bad)?),
                "simulate" => m.probe = Some(SimProbe::parse(rest).map_err(bad)?),
                other => {
                    return Err(ManifestError::UnknownDirective {
                        line,
                        word: other.to_string(),
                    })
                }
            }
        }
        Ok(m)
    }

    /// Expands the grid into its job list, loading each application
    /// once (shared by `Arc` across its jobs).
    ///
    /// # Errors
    ///
    /// [`ManifestError::NoApps`] for an app-less manifest,
    /// [`ManifestError::BadApp`] for an unresolvable spec.
    pub fn jobs(&self) -> Result<Vec<BatchJob>, ManifestError> {
        if self.apps.is_empty() {
            return Err(ManifestError::NoApps);
        }
        // Every axis is deduplicated (first occurrence wins): repeated
        // directives would otherwise mint jobs with identical ids,
        // which breaks the resume bookkeeping's one-line-per-id
        // contract and with it the byte-identity guarantee.
        let apps = dedup(&self.apps, |a, b| a == b);
        let objectives = non_empty(&self.objectives, Objective::MinDelay);
        let routings = non_empty(&self.routings, RoutingFunction::MinPath);
        let capacities = non_empty(&self.capacities, 500.0);
        let constraints = non_empty(&self.constraints, ConstraintMode::Strict);
        let mut jobs = Vec::new();
        for spec in &apps {
            let bad_app = |message: String| ManifestError::BadApp {
                spec: spec.clone(),
                message,
            };
            let source: AppSource = spec.parse().map_err(|e| bad_app(format!("{e}")))?;
            let app = Arc::new(source.resolve().map_err(bad_app)?);
            for &capacity in &capacities {
                for &objective in &objectives {
                    for &routing in &routings {
                        for &mode in &constraints {
                            let mut request = ExploreRequest::new(source.clone());
                            request.objective = objective;
                            request.routing = routing;
                            request.capacity = capacity;
                            request.constraints = mode;
                            request.probe = self.probe.clone();
                            jobs.push(BatchJob {
                                id: format!(
                                    "{spec}|{capacity}|{objective}|{}|{}",
                                    routing.abbrev(),
                                    mode.name()
                                ),
                                app_spec: spec.clone(),
                                app: app.clone(),
                                request,
                            });
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }
}

fn non_empty<T: Copy + PartialEq>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        dedup(axis, |a, b| a == b)
    }
}

fn dedup<T: Clone>(values: &[T], eq: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for v in values {
        if !out.iter().any(|seen| eq(seen, v)) {
            out.push(v.clone());
        }
    }
    out
}

/// One cell of the exploration grid, ready to run.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Stable identifier (`app|capacity|objective|routing|mode`) used
    /// for resume bookkeeping and carried in the JSONL line.
    pub id: String,
    /// The application spec as written in the manifest — reported
    /// verbatim (and used in the id) so resumed outputs from older
    /// manifests keep their bytes even when the spec is a
    /// non-canonical spelling of its [`AppSource`].
    pub app_spec: String,
    /// The loaded application, shared across the spec's jobs.
    pub app: Arc<CoreGraph>,
    /// The unified request this cell executes.
    pub request: ExploreRequest,
}

/// Runs one job against the worker's shared cache and renders its
/// JSONL line: the schema/job prefix plus the shared report body of
/// [`crate::request::execute`]. Fully deterministic: the same job
/// renders the same bytes in any process, which is what lets the shard
/// coordinator byte-compare duplicate results (see [`crate::shard`]).
pub(crate) fn run_job(job: &BatchJob, cache: &mut LruLibraryCache) -> String {
    let body = cache.with_library(
        job.app.core_count(),
        job.request.capacity,
        job.request.table_prep,
        |topos| execute(&job.app_spec, job.app.clone(), &job.request, topos).0,
    );
    format!(
        "{{\"schema\":\"{BATCH_SCHEMA}\",\"job\":{},{body}}}",
        json_string(&job.id)
    )
}

/// Executes `jobs` across at most `workers` scoped threads (`0` = one
/// per available CPU) and delivers each job's JSONL line through
/// `on_line(position, line)` **in job order** — line `k` is delivered
/// only after lines `0..k`, whatever the sharding, so streaming the
/// lines straight to a file yields byte-identical output at any worker
/// count.
///
/// `on_line` returns whether to keep going: `false` (e.g. the sink
/// hit a write error) cancels the run — in-flight jobs finish, queued
/// ones are abandoned, and `on_line` is not called again.
///
/// Jobs are split into contiguous chunks (jobs of the same application
/// and capacity sit next to each other in manifest order, so a chunk's
/// worker reuses its per-topology route tables across them).
pub fn run_batch(jobs: &[BatchJob], workers: usize, mut on_line: impl FnMut(usize, &str) -> bool) {
    // Workers never evict: a batch's grid is finite and grouped by
    // application/capacity, so the old unbounded per-worker cache
    // behaviour is exactly an LRU that never reaches its limit.
    let workers = effective_workers(workers, jobs.len());
    if workers <= 1 {
        let mut cache = LruLibraryCache::new(usize::MAX);
        for (i, job) in jobs.iter().enumerate() {
            let line = run_job(job, &mut cache);
            if !on_line(i, &line) {
                return;
            }
        }
        return;
    }
    let chunk = jobs.len().div_ceil(workers);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    std::thread::scope(|s| {
        for (c, chunk_jobs) in jobs.chunks(chunk).enumerate() {
            let tx = tx.clone();
            let abort = &abort;
            s.spawn(move || {
                let mut cache = LruLibraryCache::new(usize::MAX);
                for (i, job) in chunk_jobs.iter().enumerate() {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let line = run_job(job, &mut cache);
                    // A send fails only after a cancelled receiver has
                    // hung up; the abort flag then ends the loop.
                    let _ = tx.send((c * chunk + i, line));
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, String> = BTreeMap::new();
        let mut next = 0usize;
        for (idx, line) in rx {
            pending.insert(idx, line);
            while let Some(line) = pending.remove(&next) {
                if !on_line(next, &line) {
                    abort.store(true, Ordering::Relaxed);
                    return; // drops rx; workers drain via abort/send-fail
                }
                next += 1;
            }
        }
        debug_assert_eq!(next, jobs.len(), "all jobs reduced in order");
    });
}

/// The top-level `"job"` string of a batch JSONL line, read with the
/// crate's JSON reader: `None` unless the whole line is a JSON object
/// with a string `job`, so a line cut short never passes for a result.
pub fn job_id_of_line(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("job")?
        .as_str()
        .map(str::to_string)
}

/// How a `--resume` run picks up from an interrupted output file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePlan {
    /// Bytes of the existing file to keep: the complete-line prefix. A
    /// kill mid-write may leave a trailing fragment with no newline —
    /// even one whose bytes happen to parse as a full JSON object —
    /// and it is always discarded and its job re-run, because only the
    /// newline proves the writer finished the line.
    pub keep_bytes: usize,
    /// How many leading jobs of the manifest those lines cover; the
    /// resumed run executes the remainder and appends.
    pub completed_jobs: usize,
}

/// Validates an interrupted `batch.jsonl` against the manifest's job
/// list and returns the [`ResumePlan`]. Because `run_batch` delivers
/// lines strictly in job order, a killed run leaves a prefix of the
/// uninterrupted output (possibly plus a partial trailing line);
/// resuming from the plan therefore reproduces the uninterrupted bytes
/// exactly.
///
/// # Errors
///
/// Refuses to resume when the existing complete lines are *not* the
/// manifest's job prefix — a carried-over file from a different
/// manifest would otherwise be silently extended with out-of-order
/// lines, breaking the byte-identity contract.
pub fn plan_resume(jobs: &[BatchJob], existing: &str) -> Result<ResumePlan, String> {
    let keep_bytes = existing.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let mut completed = 0usize;
    for line in existing[..keep_bytes].lines() {
        let id = job_id_of_line(line).ok_or_else(|| {
            format!(
                "existing output line {} carries no job id; refusing to resume",
                completed + 1
            )
        })?;
        let Some(job) = jobs.get(completed) else {
            return Err(format!(
                "existing output has more complete lines than the manifest has jobs \
                 ({}); refusing to resume",
                jobs.len()
            ));
        };
        if job.id != id {
            return Err(format!(
                "existing output line {} is job '{}' but the manifest's job {} is '{}'; \
                 the output is not a prefix of this manifest — refusing to resume",
                completed + 1,
                id,
                completed + 1,
                job.id
            ));
        }
        completed += 1;
    }
    Ok(ResumePlan {
        keep_bytes,
        completed_jobs: completed,
    })
}

/// The contiguous job range shard `k` of `n` owns (1-based `k`,
/// matching the CLI's `--shard k/n` spelling): jobs are split as
/// evenly as possible, earlier shards taking the remainder, so
/// concatenating every shard's output in `k` order reproduces the
/// unsharded bytes. The same math sizes the coordinator's lease grain
/// windows, so static shards and coordinated leases agree on
/// boundaries.
///
/// # Errors
///
/// Rejects `k` outside `1..=n` and `n == 0` with a human-readable
/// message.
pub fn shard_range(jobs: usize, k: usize, n: usize) -> Result<std::ops::Range<usize>, String> {
    if n == 0 {
        return Err("--shard needs at least one shard (k/n with n >= 1)".to_string());
    }
    if k == 0 || k > n {
        return Err(format!("shard index {k} is outside 1..={n}"));
    }
    let base = jobs / n;
    let extra = jobs % n;
    // Shards 1..=extra carry base+1 jobs, the rest carry base.
    let start = (k - 1) * base + (k - 1).min(extra);
    let len = base + usize::from(k <= extra);
    Ok(start..start + len)
}

/// A stable fingerprint of a manifest's expanded job list (FNV-1a over
/// the job ids), used by the shard protocol to reject a worker that
/// loaded a different manifest before any job is leased to it.
pub fn manifest_fingerprint(jobs: &[BatchJob]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for job in jobs {
        for byte in job.id.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{:016x}-{}", hash, jobs.len())
}

fn effective_workers(requested: usize, jobs: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let w = if requested == 0 { cpus } else { requested };
    w.min(jobs).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::report_body;
    use crate::Sunmap;
    use sunmap_mapping::{SwapStrategy, TablePrep};
    use sunmap_traffic::patterns::TrafficPattern;

    const SMALL_GRID: &str = "\
# two apps x two objectives
app dsp
app synth:seed=3,cores=8
objective power
objective delay
routing MP
capacity 1000
";

    fn collect(jobs: &[BatchJob], workers: usize) -> Vec<String> {
        let mut lines = Vec::new();
        run_batch(jobs, workers, |i, line| {
            assert_eq!(i, lines.len(), "lines must arrive in job order");
            lines.push(line.to_string());
            true
        });
        lines
    }

    #[test]
    fn manifest_cross_product_order_and_ids() {
        let m = BatchManifest::parse(SMALL_GRID).unwrap();
        let jobs = m.jobs().unwrap();
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "dsp|1000|min-power|MP|strict",
                "dsp|1000|min-delay|MP|strict",
                "synth:seed=3,cores=8|1000|min-power|MP|strict",
                "synth:seed=3,cores=8|1000|min-delay|MP|strict",
            ]
        );
        // The app graph is loaded once and shared across its jobs.
        assert!(Arc::ptr_eq(&jobs[0].app, &jobs[1].app));
        assert!(!Arc::ptr_eq(&jobs[1].app, &jobs[2].app));
    }

    #[test]
    fn manifest_defaults_fill_empty_axes() {
        let m = BatchManifest::parse("app dsp\n").unwrap();
        let jobs = m.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        let req = &jobs[0].request;
        assert_eq!(*req, ExploreRequest::new("dsp".parse().unwrap()));
        assert_eq!(req.objective, Objective::MinDelay);
        assert_eq!(req.routing, RoutingFunction::MinPath);
        assert_eq!(req.capacity, 500.0);
        assert_eq!(req.constraints, ConstraintMode::Strict);
        assert_eq!(req.swap, SwapStrategy::Auto);
        assert_eq!(req.probe, None);
    }

    #[test]
    fn manifest_swap_engine_and_probe_reach_every_request() {
        let m = BatchManifest::parse(
            "app dsp\napp vopd\nconstraints relaxed\nsimulate transpose 0.2 3\n",
        )
        .unwrap();
        for job in m.jobs().unwrap() {
            assert_eq!(job.request.constraints, ConstraintMode::Relaxed);
            assert_eq!(
                job.request.probe,
                Some(SimProbe {
                    pattern: TrafficPattern::Transpose,
                    rate: 0.2,
                    top_k: 3,
                })
            );
            // No directive chooses how a job is computed: every job
            // keeps the `Auto` swap scorer and table preparation, and
            // its probe runs the default engine.
            assert_eq!(job.request.swap, SwapStrategy::Auto);
            assert_eq!(job.request.table_prep, TablePrep::Auto);
        }
    }

    #[test]
    fn manifest_errors_name_the_line() {
        let e = BatchManifest::parse("frob vopd\n").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(e.to_string().contains("unknown directive"), "{e}");
        let e = BatchManifest::parse("app vopd\nobjective speed\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = BatchManifest::parse("app vopd\nrouting XY\n").unwrap_err();
        assert!(e.to_string().contains("unknown routing"), "{e}");
        let e = BatchManifest::parse("capacity -5\n").unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        let e = BatchManifest::parse("simulate warp 0.1\n").unwrap_err();
        assert!(e.to_string().contains("uniform"), "error lists names: {e}");
        // Words that chose how to compute, not what to map, are unknown
        // directives at their line, and the valid list does not offer
        // them.
        for (text, word, line) in [
            ("app vopd\nengine event\n", "engine", 2),
            ("app vopd\n\ntable-prep lazy\n", "table-prep", 3),
            ("swap exhaustive\n", "swap", 1),
        ] {
            let e = BatchManifest::parse(text).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!(
                    "line {line}: unknown directive '{word}' (valid: app, objective, routing, \
                     capacity, constraints, simulate)"
                )
            );
        }
        assert!(matches!(
            BatchManifest::parse("").unwrap().jobs(),
            Err(ManifestError::NoApps)
        ));
        let e = BatchManifest::parse("app nope.app\n")
            .unwrap()
            .jobs()
            .unwrap_err();
        assert!(matches!(e, ManifestError::BadApp { .. }));
    }

    #[test]
    fn repeated_axis_values_are_deduplicated() {
        // Duplicate directives would mint identical job ids, breaking
        // the resume bookkeeping's one-line-per-id contract.
        let m = BatchManifest::parse(
            "app dsp\napp dsp\nobjective power\nobjective power\ncapacity 1000\ncapacity 1000\n",
        )
        .unwrap();
        let jobs = m.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        let ids: std::collections::BTreeSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), jobs.len(), "job ids must be unique");
    }

    #[test]
    fn empty_applications_are_rejected_at_load_time() {
        let dir = std::env::temp_dir().join("sunmap_batch_empty_app");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.app");
        std::fs::write(&path, "# no cores declared\n").unwrap();
        let err = AppSource::load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("declares no cores"), "{err}");
        let m = BatchManifest::parse(&format!("app {}\n", path.display())).unwrap();
        assert!(matches!(m.jobs(), Err(ManifestError::BadApp { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_false_sink_cancels_the_run() {
        let m = BatchManifest::parse(
            "app dsp\nobjective power\nobjective delay\nrouting MP\nrouting DO\ncapacity 1000\n",
        )
        .unwrap();
        let jobs = m.jobs().unwrap();
        assert_eq!(jobs.len(), 4);
        for workers in [1, 2] {
            let mut delivered = Vec::new();
            run_batch(&jobs, workers, |i, line| {
                delivered.push((i, line.to_string()));
                delivered.len() < 2
            });
            assert_eq!(delivered.len(), 2, "{workers} workers: not cancelled");
            assert_eq!(delivered[0].0, 0);
            assert_eq!(delivered[1].0, 1);
        }
    }

    /// Replays a kill-and-resume at byte offset `cut` of the
    /// uninterrupted output and asserts the recovered run reproduces
    /// the exact bytes.
    fn assert_resume_reproduces(jobs: &[BatchJob], full: &str, cut: usize) {
        let existing = &full[..cut];
        let plan = plan_resume(jobs, existing).expect("prefix output resumes");
        assert!(plan.keep_bytes <= existing.len());
        let mut rebuilt = existing[..plan.keep_bytes].to_string();
        run_batch(&jobs[plan.completed_jobs..], 1, |_, line| {
            rebuilt.push_str(line);
            rebuilt.push('\n');
            true
        });
        assert_eq!(rebuilt, full, "cut at byte {cut} did not reproduce");
    }

    #[test]
    fn resume_recovers_newline_boundary_and_midline_kills() {
        let jobs = BatchManifest::parse(SMALL_GRID).unwrap().jobs().unwrap();
        let mut full = String::new();
        run_batch(&jobs, 1, |_, line| {
            full.push_str(line);
            full.push('\n');
            true
        });
        let line_ends: Vec<usize> = full
            .char_indices()
            .filter(|(_, c)| *c == '\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(line_ends.len(), jobs.len());

        // Killed exactly at a newline boundary: every complete line
        // survives, only the missing jobs re-run.
        for &end in &line_ends {
            assert_resume_reproduces(&jobs, &full, end);
        }
        // Killed mid-line: the partial trailing fragment is dropped and
        // its job re-runs. The most treacherous cut is one byte short
        // of the newline — the fragment is a complete JSON object whose
        // prefix parses, but without the newline it must not count.
        let mut prev = 0usize;
        for &end in &line_ends {
            assert_resume_reproduces(&jobs, &full, end - 1);
            assert_resume_reproduces(&jobs, &full, prev + (end - prev) / 2);
            prev = end;
        }
        // Empty file (a kill before the first write).
        assert_resume_reproduces(&jobs, &full, 0);
    }

    #[test]
    fn resume_refuses_foreign_or_oversized_output() {
        let jobs = BatchManifest::parse(SMALL_GRID).unwrap().jobs().unwrap();
        let mut full = String::new();
        run_batch(&jobs, 1, |_, line| {
            full.push_str(line);
            full.push('\n');
            true
        });
        // Output whose first line is some other manifest's job.
        let foreign = "{\"schema\":\"sunmap-batch/1\",\"job\":\"other|500|min-delay|MP|strict\"}\n";
        let err = plan_resume(&jobs, foreign).unwrap_err();
        assert!(err.contains("not a prefix"), "{err}");
        // A complete line with no job id at all.
        let err = plan_resume(&jobs, "{\"schema\":\"sunmap-batch/1\"}\n").unwrap_err();
        assert!(err.contains("no job id"), "{err}");
        // A line cut right after its job id that still ends in a
        // newline is not a result: it is refused, not kept for good.
        let head = format!(
            "{{\"schema\":\"{BATCH_SCHEMA}\",\"job\":{},",
            json_string(&jobs[0].id)
        );
        assert!(full.starts_with(&head), "{full}");
        let err = plan_resume(&jobs, &format!("{head}\n")).unwrap_err();
        assert!(err.contains("line 1 carries no job id"), "{err}");
        // More lines than the manifest has jobs.
        let mut oversized = full.clone();
        oversized.push_str(&full[..full.find('\n').unwrap() + 1]);
        let err = plan_resume(&jobs, &oversized).unwrap_err();
        assert!(err.contains("more complete lines"), "{err}");
    }

    #[test]
    fn job_id_extraction_honours_escapes() {
        assert_eq!(
            job_id_of_line("{\"schema\":\"x\",\"job\":\"dsp|500|min-delay|MP|strict\",\"a\":1}"),
            Some("dsp|500|min-delay|MP|strict".to_string())
        );
        assert_eq!(
            job_id_of_line("{\"job\":\"a\\\"b\\\\c\"}"),
            Some("a\"b\\c".to_string())
        );
        // Control-character escapes decode to the character, not the
        // escape letter, so ids with tabs/newlines round-trip.
        assert_eq!(
            job_id_of_line("{\"job\":\"a\\tb\\nc\\u0007d\"}"),
            Some("a\tb\nc\u{7}d".to_string())
        );
        assert_eq!(job_id_of_line("{\"schema\":\"sunmap-ba"), None);
        assert_eq!(job_id_of_line("{\"job\":\"unterminated"), None);
        assert_eq!(job_id_of_line("{\"job\":\"bad\\u00"), None);
    }

    #[test]
    fn shard_ranges_partition_every_job_exactly_once() {
        for jobs in [0usize, 1, 4, 7, 16, 33] {
            for n in [1usize, 2, 3, 5, 8] {
                let mut covered = Vec::new();
                for k in 1..=n {
                    let range = shard_range(jobs, k, n).unwrap();
                    covered.extend(range.clone());
                    if k > 1 {
                        let prev = shard_range(jobs, k - 1, n).unwrap();
                        assert_eq!(prev.end, range.start, "shards must be contiguous");
                        assert!(
                            prev.len() >= range.len(),
                            "earlier shards take the remainder"
                        );
                    }
                }
                assert_eq!(covered, (0..jobs).collect::<Vec<_>>(), "{jobs} jobs / {n}");
            }
        }
        assert!(shard_range(4, 0, 2).is_err(), "k is 1-based");
        assert!(shard_range(4, 3, 2).is_err(), "k must not exceed n");
        assert!(shard_range(4, 1, 0).is_err(), "n must be positive");
    }

    #[test]
    fn manifest_fingerprint_tracks_the_job_list() {
        let jobs = BatchManifest::parse(SMALL_GRID).unwrap().jobs().unwrap();
        let again = BatchManifest::parse(SMALL_GRID).unwrap().jobs().unwrap();
        assert_eq!(manifest_fingerprint(&jobs), manifest_fingerprint(&again));
        let other = BatchManifest::parse("app dsp\n").unwrap().jobs().unwrap();
        assert_ne!(manifest_fingerprint(&jobs), manifest_fingerprint(&other));
        assert!(manifest_fingerprint(&jobs).ends_with("-4"), "carries count");
    }

    #[test]
    fn batch_output_is_worker_count_invariant() {
        let jobs = BatchManifest::parse(SMALL_GRID).unwrap().jobs().unwrap();
        let one = collect(&jobs, 1);
        assert_eq!(one.len(), jobs.len());
        for workers in [2, 4] {
            assert_eq!(one, collect(&jobs, workers), "{workers} workers");
        }
    }

    #[test]
    fn batch_lines_carry_the_result_schema() {
        let m = BatchManifest::parse("app dsp\ncapacity 1000\nsimulate uniform 0.05\n").unwrap();
        let jobs = m.jobs().unwrap();
        let lines = collect(&jobs, 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"schema\":\"sunmap-batch/1\""), "{line}");
        assert!(line.contains("\"job\":\"dsp|1000|min-delay|MP|strict\""));
        assert!(line.contains("\"candidates\":5"));
        assert!(line.contains("\"winner\":{\"topology\":"), "{line}");
        assert!(line.contains("\"sim\":{\"pattern\":\"uniform\""), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn top_k_probes_report_drift_per_candidate() {
        let m = BatchManifest::parse("app dsp\ncapacity 1000\nsimulate uniform 0.05 3\n").unwrap();
        let lines = collect(&m.jobs().unwrap(), 1);
        let line = &lines[0];
        assert!(line.contains("\"sim\":{\"pattern\":\"uniform\""), "{line}");
        assert!(line.contains("\"probes\":[{\"rank\":1,"), "{line}");
        assert!(line.contains("\"rank\":3"), "{line}");
        // A probe names the engine that ran: the default resolves to
        // `event`.
        assert!(line.contains("\"engine\":\"event\""), "{line}");
        assert!(line.contains("\"analytical_latency_cycles\":"), "{line}");
        assert!(line.contains("\"latency_drift\":"), "{line}");
    }

    #[test]
    fn infeasible_jobs_report_a_null_winner() {
        // 1 MB/s links cannot carry the DSP filter anywhere.
        let m = BatchManifest::parse("app dsp\ncapacity 1\n").unwrap();
        let lines = collect(&m.jobs().unwrap(), 1);
        assert!(lines[0].contains("\"feasible\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"winner\":null"), "{}", lines[0]);
    }

    #[test]
    fn batch_winner_agrees_with_the_flow() {
        // The golden cost fixtures' (app, objective) cells at their
        // feasible configurations, plus DSP at 1 MB/s where nothing is
        // feasible: each batch line must carry exactly the JSON report of
        // the builder-made tool's `Sunmap::explore` — every per-topology
        // entry and the winner object.
        for cell in [
            "vopd\nrouting MP\ncapacity 500",
            "mpeg4\nrouting SA\ncapacity 500",
            "dsp\nrouting MP\ncapacity 1000",
            "netproc\nrouting SM\ncapacity 500",
            "dsp\nrouting MP\ncapacity 1",
        ] {
            let manifest = format!("app {cell}\nobjective power\nobjective delay\n");
            let jobs = BatchManifest::parse(&manifest).unwrap().jobs().unwrap();
            for (job, line) in jobs.iter().zip(collect(&jobs, 1)) {
                let req = &job.request;
                let ex = Sunmap::builder((*job.app).clone())
                    .link_capacity(req.capacity)
                    .routing(req.routing)
                    .objective(req.objective)
                    .build()
                    .explore()
                    .unwrap();
                assert_eq!(ex.best.is_some(), req.capacity > 1.0, "{}", job.id);
                let body = report_body(&job.app_spec, job.app.core_count(), req, &ex);
                let batch = format!(
                    "{{\"schema\":\"{BATCH_SCHEMA}\",\"job\":{},",
                    json_string(&job.id)
                );
                assert_eq!(line, format!("{batch}{body}}}"), "{}", job.id);
            }
        }
    }
}
