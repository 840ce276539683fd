//! Subcommand implementations.

use std::error::Error;
use std::fs;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::args::{Cli, ClientOp, Command};
use sunmap::batch::{
    manifest_fingerprint, plan_resume, run_batch, shard_range, BatchJob, BatchManifest, ResumePlan,
};
use sunmap::request::{ExploreRequest, RequestRunner};
use sunmap::schema::{SERVE_SCHEMA, SIMULATE_SCHEMA};
use sunmap::serve::{read_frame, report_slice, serve, verify_replay, write_frame, ServeConfig};
use sunmap::shard::{run_coordinator, run_worker, CoordConfig};
use sunmap::sim::sweep::{injection_sweep, stats_json_fields, sweep_csv, sweep_json, SweepRequest};
use sunmap::sim::{adversarial_pattern, SimConfig, SimSession};
use sunmap::topology::builders;
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::traffic::CoreGraph;
use sunmap::{
    pareto_exploration, routing_bandwidth_sweep, AppSource, Exploration, Sunmap, TopologyGraph,
};

type CliResult = Result<(), Box<dyn Error>>;

/// Dispatches a parsed command line.
pub fn run(cli: &Cli) -> CliResult {
    // Application commands parse their one application through the same
    // `AppSource` path as batch manifests and serve frames.
    let load = || AppSource::load(&cli.app);
    let app = match cli.command {
        Command::Batch => return batch(cli),
        Command::BatchCoordinator => return batch_coordinator(cli),
        Command::BatchWorker => return batch_worker(cli),
        Command::Serve => return serve_daemon(cli),
        Command::Replay => return replay(cli),
        Command::Client => return client(cli),
        Command::Explore if cli.json => {
            // The one-shot report line, byte-identical to what the daemon
            // returns for the same request.
            let outcome = RequestRunner::new(cli.cache).run(&explore_request(cli)?)?;
            println!("{}", outcome.line);
            return Ok(());
        }
        Command::Sweep => return sweep(cli, load()?),
        Command::DesignSweep => return design_sweep(cli, load()?),
        Command::Explore | Command::Generate | Command::Simulate => load()?,
    };
    // `explore`, `generate` and `simulate` render one exploration of the
    // command line's request over its candidate library.
    let tool = Sunmap::for_request(&explore_request(cli)?, Arc::new(app));
    let exploration = tool.explore_library(library(cli, tool.application().core_count())?);
    match cli.command {
        Command::Explore => explore(cli, &tool, exploration),
        Command::Generate => generate(cli, &tool, &exploration),
        _ => simulate(cli, &tool, &exploration),
    }
}

/// The [`ExploreRequest`] a command line describes — the same type a
/// batch manifest cell or a serve frame produces, so every explore-family
/// command, `client explore` and the daemon agree on defaults and
/// validation by construction.
fn explore_request(cli: &Cli) -> Result<ExploreRequest, Box<dyn Error>> {
    let mut req = ExploreRequest::new(cli.app.parse()?);
    req.objective = cli.objective;
    req.routing = cli.routing;
    req.capacity = cli.capacity;
    req.constraints = cli.constraints;
    req.probe = cli.probe.clone();
    req.validate()?;
    Ok(req)
}

fn library(cli: &Cli, cores: usize) -> Result<Vec<TopologyGraph>, Box<dyn Error>> {
    let mut lib = builders::standard_library(cores, cli.capacity)?;
    if cli.extended {
        if cores <= 8 {
            lib.push(builders::octagon(cli.capacity)?);
        }
        lib.push(builders::star(cores, cli.capacity)?);
    }
    Ok(lib)
}

/// `serve`: runs the daemon until a `shutdown` frame or SIGTERM drains
/// it, then dumps the final metrics snapshot.
fn serve_daemon(cli: &Cli) -> CliResult {
    let workers = if cli.workers == 0 {
        std::thread::available_parallelism().map_or(2, usize::from)
    } else {
        cli.workers
    };
    let config = ServeConfig {
        listen: cli.listen.clone(),
        workers,
        cache_entries: cli.cache,
        log_path: (!cli.log_path.is_empty()).then(|| PathBuf::from(&cli.log_path)),
    };
    let summary = serve(&config, |addr| {
        // Flushed before the first frame is accepted, so wrappers (and
        // the smoke script) can poll stdout for the bound address.
        println!("sunmap-serve listening on {addr}");
        let _ = std::io::stdout().flush();
    })?;
    println!("{}", summary.metrics_json);
    Ok(())
}

/// `client`: one frame against a running daemon. Explore responses
/// print only the raw report line (the daemon envelope's trailing
/// object), so piping to a file yields the same bytes as
/// `explore --json`.
fn client(cli: &Cli) -> CliResult {
    let frame = match cli.client_op {
        ClientOp::Explore => format!(
            "{{\"op\":\"explore\",\"request\":{}}}",
            explore_request(cli)?.to_json()
        ),
        ClientOp::Stats => "{\"op\":\"stats\"}".to_string(),
        ClientOp::Ping => "{\"op\":\"ping\"}".to_string(),
        ClientOp::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
    };
    let mut stream = TcpStream::connect(&cli.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", cli.addr))?;
    write_frame(&mut stream, &frame)?;
    let response = read_frame(&mut stream)?.ok_or("daemon closed the connection")?;
    if !response.starts_with(&format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true")) {
        return Err(format!("daemon refused the request: {response}").into());
    }
    match cli.client_op {
        ClientOp::Explore => {
            let report = report_slice(&response).ok_or("response carries no report")?;
            println!("{report}");
        }
        _ => println!("{response}"),
    }
    Ok(())
}

/// `replay`: re-runs a serve request log through the one-shot path and
/// fails (non-zero exit) unless every report reproduces byte-for-byte.
fn replay(cli: &Cli) -> CliResult {
    let summary = verify_replay(Path::new(&cli.log_path), cli.cache)
        .map_err(|e| -> Box<dyn Error> { e.into() })?;
    println!(
        "replay ok: {} request(s) reproduced byte-identically from {}",
        summary.replayed, cli.log_path
    );
    Ok(())
}

fn explore(cli: &Cli, tool: &Sunmap, mut ex: Exploration) -> CliResult {
    if cli.validate {
        tool.validate(&mut ex, SimConfig::default(), cli.intensity);
    }
    print!("{}", ex.table());
    match ex.best_candidate() {
        Some(best) => println!("selected: {}", best.kind),
        None => println!("no feasible topology under these constraints"),
    }
    Ok(())
}

fn generate(cli: &Cli, tool: &Sunmap, ex: &Exploration) -> CliResult {
    print!("{}", ex.table());
    let best = ex
        .best_candidate()
        .ok_or("no feasible topology to generate")?;
    let design = tool.generate(best, &cli.design_name);
    let out = Path::new(&cli.out_dir);
    fs::create_dir_all(out)?;
    for f in &design.files {
        fs::write(out.join(&f.name), &f.content)?;
    }
    fs::write(out.join("noc.dot"), &design.dot)?;
    println!(
        "wrote {} SystemC files + noc.dot for the {} to {}",
        design.files.len(),
        best.kind,
        out.display()
    );
    Ok(())
}

/// Fig. 8(b): latency-versus-injection-rate curves for every topology
/// in the library under adversarial (or a chosen) synthetic traffic,
/// written as `sweep.csv` and `sweep.json` in the output directory.
fn sweep(cli: &Cli, app: CoreGraph) -> CliResult {
    let lib = library(cli, app.core_count())?;
    let pattern = cli
        .pattern
        .as_deref()
        .map(|name| TrafficPattern::from_name(name).expect("pattern validated at parse time"));
    let requests: Vec<SweepRequest<'_>> = lib
        .iter()
        .map(|g| SweepRequest {
            graph: g,
            pattern: pattern
                .clone()
                .unwrap_or_else(|| adversarial_pattern(g.kind())),
        })
        .collect();
    let points = injection_sweep(&requests, &cli.rates, SimConfig::default(), cli.workers);
    let out = Path::new(&cli.out_dir);
    fs::create_dir_all(out)?;
    fs::write(out.join("sweep.csv"), sweep_csv(&points))?;
    fs::write(out.join("sweep.json"), sweep_json(&points))?;
    println!(
        "{:<12} {:<15} {:>6} {:>10} {:>9}",
        "topology", "pattern", "rate", "lat (cy)", "delivery"
    );
    for p in &points {
        println!(
            "{:<12} {:<15} {:>6} {:>10.1} {:>8.0}%",
            p.topology.name(),
            p.pattern,
            p.rate,
            p.stats.avg_latency,
            p.stats.delivery_ratio() * 100.0
        );
    }
    println!(
        "wrote {} points to {} (sweep.csv, sweep.json)",
        points.len(),
        out.display()
    );
    Ok(())
}

/// Batch exploration: runs the manifest's job grid across workers and
/// streams JSONL to `<out>/batch.jsonl`. With `--resume`, the existing
/// file's complete-line prefix is validated against the manifest (see
/// `sunmap::batch::plan_resume`), a partial trailing line is dropped,
/// and only the missing jobs run — because lines are always written in
/// job order, the resumed file is byte-identical to an uninterrupted
/// one.
fn batch(cli: &Cli) -> CliResult {
    let mut jobs = load_manifest_jobs(cli)?;
    if let Some((k, n)) = cli.shard {
        let range = shard_range(jobs.len(), k, n)?;
        jobs = jobs[range].to_vec();
    }
    let (path, plan) = open_batch_output(cli, &jobs)?;

    let remaining = &jobs[plan.completed_jobs..];
    let skipped = plan.completed_jobs;

    let mut file = fs::OpenOptions::new().append(true).open(&path)?;
    let mut write_error: Option<std::io::Error> = None;
    run_batch(remaining, cli.workers, |_, line| {
        write_error = writeln!(file, "{line}").and_then(|()| file.flush()).err();
        // A failed write (e.g. disk full) cancels the run instead
        // of computing results that can no longer be recorded.
        write_error.is_none()
    });
    if let Some(e) = write_error {
        return Err(format!("writing {}: {e}", path.display()).into());
    }
    let shard = match cli.shard {
        Some((k, n)) => format!(" [shard {k}/{n}]"),
        None => String::new(),
    };
    println!(
        "batch{shard}: {} jobs ({} run, {} skipped via --resume) -> {}",
        jobs.len(),
        remaining.len(),
        skipped,
        path.display()
    );
    Ok(())
}

fn load_manifest_jobs(cli: &Cli) -> Result<Vec<BatchJob>, Box<dyn Error>> {
    let text = fs::read_to_string(&cli.jobs_path)
        .map_err(|e| format!("cannot read manifest '{}': {e}", cli.jobs_path))?;
    let manifest = BatchManifest::parse(&text)?;
    Ok(manifest.jobs()?)
}

/// Prepares `<out>/batch.jsonl` for appending: honors `--resume` by
/// keeping the validated complete-line prefix, truncates otherwise.
fn open_batch_output(
    cli: &Cli,
    jobs: &[BatchJob],
) -> Result<(PathBuf, ResumePlan), Box<dyn Error>> {
    let out = Path::new(&cli.out_dir);
    fs::create_dir_all(out)?;
    let path = out.join("batch.jsonl");
    let plan = if cli.resume && path.exists() {
        let existing = fs::read_to_string(&path)?;
        let plan = plan_resume(jobs, &existing)
            .map_err(|e| format!("--resume on {}: {e}", path.display()))?;
        if plan.keep_bytes != existing.len() {
            fs::write(&path, &existing[..plan.keep_bytes])?;
        }
        plan
    } else {
        fs::write(&path, "")?;
        ResumePlan {
            keep_bytes: 0,
            completed_jobs: 0,
        }
    };
    Ok((path, plan))
}

/// `batch-coordinator`: leases the manifest's job ranges to connected
/// `batch-worker` processes and appends their results to
/// `<out>/batch.jsonl` strictly in job order, so the file is
/// byte-identical to a single-process `batch` run. A `SIGTERM` drain
/// leaves a clean prefix that `--resume` completes identically.
fn batch_coordinator(cli: &Cli) -> CliResult {
    let jobs = load_manifest_jobs(cli)?;
    let fingerprint = manifest_fingerprint(&jobs);
    let (path, plan) = open_batch_output(cli, &jobs)?;
    let config = CoordConfig {
        first_job: plan.completed_jobs,
        total_jobs: jobs.len(),
        grain: cli.grain,
        fingerprint,
        ..CoordConfig::default()
    };
    let mut file = fs::OpenOptions::new().append(true).open(&path)?;
    let mut write_error: Option<std::io::Error> = None;
    let outcome = run_coordinator(
        config,
        &cli.listen,
        |addr| {
            // Flushed before the first worker is accepted, so wrappers
            // (and the smoke script) can poll stdout for the address.
            println!("sunmap-coordinator listening on {addr}");
            let _ = std::io::stdout().flush();
        },
        |_, line| {
            write_error = writeln!(file, "{line}").and_then(|()| file.flush()).err();
            write_error.is_none()
        },
    );
    if let Some(e) = write_error {
        return Err(format!("writing {}: {e}", path.display()).into());
    }
    let summary = outcome?;
    let status = if summary.drained {
        " (drained; rerun with --resume to finish)"
    } else {
        ""
    };
    println!(
        "coordinator: {} of {} job(s) delivered this run, {} resumed{status} -> {}",
        summary.jobs_delivered,
        jobs.len() - plan.completed_jobs,
        plan.completed_jobs,
        path.display()
    );
    println!("{}", summary.counters.to_json());
    Ok(())
}

/// `batch-worker`: computes leased ranges of the same manifest for a
/// running coordinator until drained.
fn batch_worker(cli: &Cli) -> CliResult {
    let jobs = load_manifest_jobs(cli)?;
    let fingerprint = manifest_fingerprint(&jobs);
    let summary = run_worker(
        &jobs,
        &fingerprint,
        &cli.design_name,
        &cli.addr,
        WORKER_HEARTBEAT_INTERVAL_MS,
    )?;
    println!(
        "worker '{}': {} job(s) computed",
        cli.design_name, summary.jobs_computed
    );
    Ok(())
}

/// Heartbeat cadence for `batch-worker` — comfortably inside the
/// coordinator's default 30 s silence threshold.
const WORKER_HEARTBEAT_INTERVAL_MS: u64 = 5_000;

/// Fig. 9: routing-function bandwidth staircase and area-power Pareto
/// front on the application's mesh.
fn design_sweep(cli: &Cli, app: CoreGraph) -> CliResult {
    let (rows, cols) = builders::grid_dims(app.core_count());
    let mesh = builders::mesh(rows, cols, cli.capacity)?;
    println!(
        "== minimum link bandwidth per routing function ({}) ==",
        mesh.kind()
    );
    for e in routing_bandwidth_sweep(&app, &mesh) {
        let fits = if e.min_bandwidth <= cli.capacity {
            format!("  <= fits {} MB/s links", cli.capacity)
        } else {
            String::new()
        };
        println!(
            "  {:<3} {:>9.1} MB/s{fits}",
            e.routing.abbrev(),
            e.min_bandwidth
        );
    }
    println!("\n== area-power Pareto front (mesh mappings) ==");
    let (points, front) = pareto_exploration(&app, &mesh);
    println!("{} candidate mappings evaluated; front:", points.len());
    for p in &front {
        println!("  {:>9.2} mm2 {:>9.1} mW   [{}]", p.x, p.y, p.label);
    }
    Ok(())
}

/// Fig. 10(c): trace-driven latency of every feasible candidate, with a
/// JSON report (`simulate.json`) in the output directory.
fn simulate(cli: &Cli, tool: &Sunmap, ex: &Exploration) -> CliResult {
    use sunmap::sim::sweep::{json_number, json_string};
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "topology", "lat (cy)", "packets", "delivery"
    );
    let mut json = format!(
        "{{\"schema\":\"{SIMULATE_SCHEMA}\",\"app\":{},\"intensity\":{},\"topologies\":[",
        json_string(&cli.app),
        json_number(cli.intensity)
    );
    for (i, c) in ex.candidates.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        match &c.outcome {
            Ok(mapping) => {
                let mut sim = SimSession::builder(&c.graph).build();
                let stats = sim.run_trace(mapping.evaluation(), tool.application(), cli.intensity);
                println!(
                    "{:<12} {:>10.1} {:>10} {:>8.0}%",
                    c.kind.name(),
                    stats.avg_latency,
                    stats.packets_delivered,
                    stats.delivery_ratio() * 100.0
                );
                json.push_str(&format!(
                    "{{\"topology\":{},\"feasible\":true,{}}}",
                    json_string(c.kind.name()),
                    stats_json_fields(&stats)
                ));
            }
            Err(_) => {
                println!("{:<12} {:>10}", c.kind.name(), "infeasible");
                json.push_str(&format!(
                    "{{\"topology\":{},\"feasible\":false}}",
                    json_string(c.kind.name())
                ));
            }
        }
    }
    json.push_str("]}");
    let out = Path::new(&cli.out_dir);
    fs::create_dir_all(out)?;
    fs::write(out.join("simulate.json"), json)?;
    println!("wrote {}", out.join("simulate.json").display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn cli(words: &[&str]) -> Cli {
        Cli::parse(words.iter().copied()).unwrap()
    }

    #[test]
    fn builtin_apps_load() {
        for name in ["vopd", "mpeg4", "dsp", "netproc"] {
            let app = AppSource::load(name).unwrap();
            assert!(app.core_count() >= 6, "{name}");
        }
        assert!(AppSource::load("/does/not/exist.app").is_err());
        // Synthetic specs resolve anywhere an application name does.
        assert_eq!(
            AppSource::load("synth:seed=2,cores=9")
                .unwrap()
                .core_count(),
            9
        );
        assert!(AppSource::load("synth:cores=0").is_err());
    }

    #[test]
    fn batch_runs_resumes_and_streams_jsonl() {
        let dir = std::env::temp_dir().join("sunmap_cli_test_batch");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("grid.manifest");
        fs::write(
            &manifest,
            "app dsp\napp synth:seed=1,cores=8\nobjective delay\ncapacity 1000\n",
        )
        .unwrap();
        let out = dir.join("out");
        let args = [
            "batch",
            "--jobs",
            manifest.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--workers",
            "2",
        ];
        run(&cli(&args)).unwrap();
        let full = fs::read_to_string(out.join("batch.jsonl")).unwrap();
        assert_eq!(full.lines().count(), 2);
        assert!(full.ends_with('\n'));

        // Kill-and-resume: keep only the first line (plus a partial
        // trailing fragment), then resume — final bytes identical.
        let first_line_end = full.find('\n').unwrap() + 1;
        fs::write(
            out.join("batch.jsonl"),
            format!("{}{{\"schema\":\"sunmap-ba", &full[..first_line_end]),
        )
        .unwrap();
        let mut resume_args = args.to_vec();
        resume_args.push("--resume");
        run(&cli(&resume_args)).unwrap();
        assert_eq!(fs::read_to_string(out.join("batch.jsonl")).unwrap(), full);

        // Resuming a complete file re-runs nothing and changes nothing.
        run(&cli(&resume_args)).unwrap();
        assert_eq!(fs::read_to_string(out.join("batch.jsonl")).unwrap(), full);

        // An output that is not a prefix of this manifest is refused
        // instead of silently extended out of order.
        fs::write(
            out.join("batch.jsonl"),
            "{\"schema\":\"sunmap-batch/1\",\"job\":\"other|1|min-delay|MP|strict\"}\n",
        )
        .unwrap();
        let err = run(&cli(&resume_args)).unwrap_err();
        assert!(err.to_string().contains("not a prefix"), "{err}");

        // A missing manifest is a clean error.
        assert!(run(&cli(&["batch", "--jobs", "/no/such.manifest"])).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    // Job-id escape decoding is covered by sunmap::batch's unit tests
    // (the extractor moved there with the shared resume planner).

    #[test]
    fn explore_runs_on_builtin() {
        run(&cli(&["explore", "vopd"])).unwrap();
    }

    #[test]
    fn explore_extended_runs() {
        run(&cli(&[
            "explore",
            "dsp",
            "--capacity",
            "1000",
            "--extended",
        ]))
        .unwrap();
    }

    #[test]
    fn design_sweep_runs_on_mpeg4() {
        run(&cli(&["design-sweep", "mpeg4"])).unwrap();
    }

    #[test]
    fn injection_sweep_writes_csv_and_json() {
        let dir = std::env::temp_dir().join("sunmap_cli_test_sweep");
        let _ = fs::remove_dir_all(&dir);
        run(&cli(&[
            "sweep",
            "dsp",
            "--capacity",
            "1000",
            "--rates",
            "0.05,0.2",
            "--workers",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let csv = fs::read_to_string(dir.join("sweep.csv")).unwrap();
        assert!(csv.starts_with("topology,pattern,rate"));
        assert!(csv.contains("Mesh,") && csv.contains("Torus,"));
        let json = fs::read_to_string(dir.join("sweep.json")).unwrap();
        assert!(json.contains("\"Mesh\"") && json.contains("\"rate\":0.2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_writes_json_report() {
        let dir = std::env::temp_dir().join("sunmap_cli_test_sim");
        let _ = fs::remove_dir_all(&dir);
        run(&cli(&[
            "simulate",
            "dsp",
            "--capacity",
            "1000",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let json = fs::read_to_string(dir.join("simulate.json")).unwrap();
        assert!(json.starts_with("{\"schema\":\"sunmap-simulate/1\""));
        assert!(json.contains("\"feasible\":true"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_with_validation_annotates_table() {
        run(&cli(&[
            "explore",
            "dsp",
            "--capacity",
            "1000",
            "--validate",
        ]))
        .unwrap();
    }

    #[test]
    fn generate_writes_files() {
        let dir = std::env::temp_dir().join("sunmap_cli_test_out");
        let _ = fs::remove_dir_all(&dir);
        run(&cli(&[
            "generate",
            "dsp",
            "--capacity",
            "1000",
            "--out",
            dir.to_str().unwrap(),
            "--name",
            "t",
        ]))
        .unwrap();
        assert!(dir.join("noc.dot").exists());
        assert!(dir.join("top_t.cpp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn app_file_round_trip_through_cli() {
        let dir = std::env::temp_dir().join("sunmap_cli_app_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.app");
        fs::write(&path, "core a 2.0\ncore b 2.0\ntraffic a b 100\n").unwrap();
        run(&cli(&["explore", path.to_str().unwrap()])).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasible_generate_fails_cleanly() {
        let err = run(&cli(&["generate", "vopd", "--capacity", "1"])).unwrap_err();
        assert!(err.to_string().contains("no feasible topology"));
    }
}
