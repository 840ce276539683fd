//! Hand-rolled argument parsing for the `sunmap` binary (kept
//! dependency-free; the option surface is small).

use sunmap::request::{
    parse_engine, parse_objective, parse_routing, parse_swap, parse_table_prep, ConstraintMode,
    SimProbe,
};
use sunmap::sim::SimEngine;
use sunmap::{Objective, RoutingFunction, SwapStrategy, TablePrep};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Application source: a file path or a built-in benchmark name
    /// (`vopd`, `mpeg4`, `dsp`, `netproc`).
    pub app: String,
    /// Link capacity in MB/s.
    pub capacity: f64,
    /// Routing function.
    pub routing: RoutingFunction,
    /// Mapping objective.
    pub objective: Objective,
    /// Constraint regime (`--relax-bandwidth`: the paper's §6.2 mode).
    pub constraints: ConstraintMode,
    /// Include the octagon/star extension topologies (text commands).
    pub extended: bool,
    /// Output directory for `generate`, `simulate` and `sweep`.
    pub out_dir: String,
    /// Design name for `generate`.
    pub design_name: String,
    /// Trace intensity for `simulate` (flits/cycle for the heaviest
    /// commodity).
    pub intensity: f64,
    /// Injection rates for `sweep` (flits/cycle/terminal).
    pub rates: Vec<f64>,
    /// Synthetic pattern for `sweep` (`None` = each topology's
    /// adversarial pattern, paper §6.2).
    pub pattern: Option<String>,
    /// Sweep/batch worker threads (`0` = one per CPU). Results are
    /// bit-identical at any setting.
    pub workers: usize,
    /// Run the phase-4 simulation validation after `explore`.
    pub validate: bool,
    /// Manifest path for `batch` / `batch-coordinator` / `batch-worker`.
    pub jobs_path: String,
    /// Skip `batch` jobs already present in the output file.
    pub resume: bool,
    /// Run only the `k`-th of `n` contiguous manifest slices
    /// (`--shard k/n`, 1-based; concatenating the n outputs in order
    /// reproduces the unsharded file byte-for-byte).
    pub shard: Option<(usize, usize)>,
    /// Jobs per lease for `batch-coordinator`.
    pub grain: usize,
    /// Phase-3 swap strategy (explore, generate, simulate and `client
    /// explore`; `batch` jobs always run `auto`).
    pub swap: SwapStrategy,
    /// Simulation engine for `simulate`, `sweep`, `explore --validate`
    /// and probes (`--engine auto|flat|event|reference`).
    pub engine: SimEngine,
    /// Route-table preparation policy
    /// (`--table-prep auto|eager|lazy|closed-form`).
    pub table_prep: TablePrep,
    /// Winner simulation probe for `explore --json` / `client explore`
    /// (`--probe <pattern> <rate> [top_k]`).
    pub probe: Option<SimProbe>,
    /// Print the one-shot JSON report instead of the table (`explore`).
    pub json: bool,
    /// Bind address for `serve`.
    pub listen: String,
    /// Candidate libraries kept warm (`serve` / `replay`).
    pub cache: usize,
    /// Request-replay log path (`serve --log` writes it, `replay --log`
    /// verifies it).
    pub log_path: String,
    /// Daemon address for `client` (positional).
    pub addr: String,
    /// Operation for `client` (positional).
    pub client_op: ClientOp,
}

/// The operation a `client` invocation sends to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientOp {
    /// Submit an exploration request and print the raw report line.
    Explore,
    /// Fetch the live metrics snapshot.
    Stats,
    /// Liveness check.
    #[default]
    Ping,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// The `sunmap` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Phase 1+2: per-topology table and selection (optionally with the
    /// phase-4 validation).
    Explore,
    /// Full flow: explore, select and write SystemC sources.
    Generate,
    /// Fig. 8b: latency-vs-injection-rate curves (CSV + JSON).
    Sweep,
    /// Fig. 9 design-space sweeps (routing bandwidth + Pareto).
    DesignSweep,
    /// Trace-driven simulation of every feasible candidate (Fig. 10c),
    /// with a JSON report.
    Simulate,
    /// Batch exploration: a manifest-driven grid of applications ×
    /// configurations, sharded across workers, streamed as JSONL.
    Batch,
    /// Distributed batch: lease job ranges to `batch-worker` processes
    /// and assemble the byte-identical JSONL.
    BatchCoordinator,
    /// Distributed batch: compute leased ranges for a coordinator.
    BatchWorker,
    /// Warm-cache mapping daemon answering length-prefixed JSON frames.
    Serve,
    /// One frame against a running daemon (explore/stats/ping/shutdown).
    Client,
    /// Re-run a serve request log and verify byte-identical reports.
    Replay,
}

/// Parse errors with the usage line callers print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl std::fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseCliError {}

/// Usage text.
pub const USAGE: &str = "\
usage: sunmap <command> <app> [options]

commands:
  explore       map the application onto the topology library, print the table
  generate      full flow: explore, select, write SystemC sources
  simulate      trace-driven latency of every feasible candidate (+ JSON)
  sweep         latency-vs-injection-rate curves (Fig. 8b; CSV + JSON)
  design-sweep  routing-function bandwidth staircase + area-power Pareto front
  batch         run a manifest's application x configuration grid, streamed
                as JSONL (batch --jobs <manifest>; no <app> argument)
  batch-coordinator
                distributed batch: lease job ranges of the manifest to
                batch-worker processes over TCP, retry failed ranges, and
                assemble <out>/batch.jsonl byte-identically to a local run
                (batch-coordinator --jobs <manifest> [--listen <addr>]
                [--grain <n>] [--resume]; no <app>)
  batch-worker  distributed batch: connect to a coordinator, compute leased
                ranges of the SAME manifest, stream results back
                (batch-worker <addr> --jobs <manifest> [--name <s>])
  serve         warm-cache mapping daemon: length-prefixed JSON frames over
                TCP (serve [--listen <addr>] [--log <file>]; no <app>)
  client        send one frame to a daemon:
                client <addr> explore <app> [options] | stats | ping | shutdown
  replay        re-run a serve request log through the one-shot path and
                verify byte-identical reports (replay --log <file>)

<app> is a .app file (core/traffic lines), a built-in benchmark, or a
seeded synthetic workload spec:
  vopd | mpeg4 | dsp | netproc | synth:seed=<n>[,cores=..,locality=..,
  hotspot=..,degree=..,bwmin=..,bwmax=..]

options:
  --capacity <MB/s>     link bandwidth       (default 500)
  --routing <fn>        DO | MP | SM | SA    (default MP)
  --objective <obj>     delay|area|power|bandwidth (default delay)
  --relax-bandwidth     do not enforce link capacities
  --extended            add octagon and star to the library (text commands:
                        explore without --json, generate, simulate, sweep)
  --out <dir>           output directory     (generate/simulate/sweep;
                        default sunmap-out)
  --name <name>         design name (generate) or worker name shown in
                        coordinator logs (batch-worker); default 'design'
  --intensity <f>       injection intensity  (simulate/explore --validate;
                        default 0.45)
  --validate            text explore: simulate winner + runner-up (phase 4)
  --rates <r1,r2,..>    sweep injection rates (default 0.02..0.45)
  --pattern <name>      sweep pattern: uniform|transpose|bit-complement|
                        bit-reverse|tornado (default: per-topology adversary)
  --workers <n>         sweep/batch threads, 0 = one per CPU (default 0;
                        results identical at any setting)
  --jobs <manifest>     batch job manifest file (required for batch)
  --resume              batch/batch-coordinator: skip jobs already present
                        in the output file (<out>/batch.jsonl), append the
                        rest
  --shard <k>/<n>       batch: run only the k-th of n contiguous manifest
                        slices (1-based); concatenating the n shard outputs
                        in order reproduces the unsharded file exactly
  --grain <n>           batch-coordinator: jobs per lease (default 2)
  --swap <s>            auto|exhaustive|delta (default auto; explore,
                        generate, simulate and client explore)
  --engine <e>          simulation engine: auto|flat|event|reference
                        (default auto; auto, flat and event all run the
                        event-driven engine, reference the slow oracle it
                        is bit-identical to; applies to simulate/sweep/
                        explore --validate and probes)
  --table-prep <p>      route-table preparation: auto|eager|lazy|closed-form
                        (default auto: eager up to 64 mappable vertices,
                        closed-form/lazy above; all variants answer
                        bit-identically — this is a speed/memory knob
                        for large topologies)
  --probe <pat> <rate> [k]
                        simulate the k best candidates (default 1: winner
                        only) under a synthetic pattern at <rate>
                        flits/cycle/terminal (explore --json,
                        client explore)
  --json                explore: print the one-shot report line
                        ({\"schema\":\"sunmap-report/1\",...}) instead of
                        the table
  --listen <addr>       serve bind address (default 127.0.0.1:7420;
                        port 0 picks a free port)
  --cache <n>           serve/replay: candidate libraries kept warm
                        (default 8)
  --log <file>          serve: append-only request-replay log;
                        replay: the log to verify (required)
";

impl Cli {
    /// Parses `args` (without the executable name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseCliError`] describing the first problem.
    pub fn parse<I, S>(args: I) -> Result<Cli, ParseCliError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
        let mut it = args.iter();
        let command = match it.next().map(String::as_str) {
            Some("explore") => Command::Explore,
            Some("generate") => Command::Generate,
            Some("sweep") => Command::Sweep,
            Some("design-sweep") => Command::DesignSweep,
            Some("simulate") => Command::Simulate,
            Some("batch") => Command::Batch,
            Some("batch-coordinator") => Command::BatchCoordinator,
            Some("batch-worker") => Command::BatchWorker,
            Some("serve") => Command::Serve,
            Some("client") => Command::Client,
            Some("replay") => Command::Replay,
            Some(other) => return Err(ParseCliError(format!("unknown command '{other}'"))),
            None => return Err(ParseCliError("missing command".to_string())),
        };
        // `batch`/`serve`/`replay` take no positional application;
        // `client` takes an address and an operation first.
        let mut addr = String::new();
        let mut client_op = ClientOp::default();
        let app = match command {
            Command::Batch | Command::BatchCoordinator | Command::Serve | Command::Replay => {
                String::new()
            }
            Command::BatchWorker => {
                addr = it
                    .next()
                    .ok_or_else(|| {
                        ParseCliError("batch-worker needs a coordinator <addr>".to_string())
                    })?
                    .clone();
                String::new()
            }
            Command::Client => {
                addr = it
                    .next()
                    .ok_or_else(|| ParseCliError("client needs a daemon <addr>".to_string()))?
                    .clone();
                client_op = match it.next().map(String::as_str) {
                    Some("explore") => ClientOp::Explore,
                    Some("stats") => ClientOp::Stats,
                    Some("ping") => ClientOp::Ping,
                    Some("shutdown") => ClientOp::Shutdown,
                    Some(other) => {
                        return Err(ParseCliError(format!(
                            "unknown client operation '{other}' \
                             (valid: explore, stats, ping, shutdown)"
                        )))
                    }
                    None => {
                        return Err(ParseCliError(
                            "client needs an operation: explore, stats, ping or shutdown"
                                .to_string(),
                        ))
                    }
                };
                if client_op == ClientOp::Explore {
                    it.next()
                        .ok_or_else(|| ParseCliError("missing application".to_string()))?
                        .clone()
                } else {
                    String::new()
                }
            }
            _ => it
                .next()
                .ok_or_else(|| ParseCliError("missing application".to_string()))?
                .clone(),
        };
        let mut cli = Cli {
            command,
            app,
            capacity: 500.0,
            routing: RoutingFunction::MinPath,
            objective: Objective::MinDelay,
            constraints: ConstraintMode::Strict,
            extended: false,
            out_dir: "sunmap-out".to_string(),
            design_name: "design".to_string(),
            intensity: 0.45,
            rates: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
            pattern: None,
            workers: 0,
            validate: false,
            jobs_path: String::new(),
            resume: false,
            shard: None,
            grain: 2,
            swap: SwapStrategy::Auto,
            engine: SimEngine::Auto,
            table_prep: TablePrep::Auto,
            probe: None,
            json: false,
            listen: "127.0.0.1:7420".to_string(),
            cache: 8,
            log_path: String::new(),
            addr,
            client_op,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| ParseCliError(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--capacity" => {
                    cli.capacity = parse_f64(&value("--capacity")?)?;
                }
                // Routing/objective names parse through the same
                // helpers the batch manifest uses, so the two surfaces
                // cannot drift.
                "--routing" => {
                    cli.routing = parse_routing(&value("--routing")?).map_err(ParseCliError)?;
                }
                "--objective" => {
                    cli.objective =
                        parse_objective(&value("--objective")?).map_err(ParseCliError)?;
                }
                "--relax-bandwidth" => cli.constraints = ConstraintMode::Relaxed,
                "--extended" => cli.extended = true,
                "--out" => cli.out_dir = value("--out")?,
                "--name" => cli.design_name = value("--name")?,
                "--intensity" => cli.intensity = parse_f64(&value("--intensity")?)?,
                "--validate" => cli.validate = true,
                "--rates" => {
                    let list = value("--rates")?;
                    cli.rates = list
                        .split(',')
                        .map(|s| parse_f64(s.trim()))
                        .collect::<Result<Vec<f64>, _>>()?;
                    if cli.rates.is_empty() {
                        return Err(ParseCliError("--rates needs at least one rate".to_string()));
                    }
                }
                "--pattern" => {
                    use sunmap::traffic::patterns::TrafficPattern;
                    let name = value("--pattern")?;
                    if TrafficPattern::from_name(&name).is_none() {
                        return Err(ParseCliError(format!(
                            "unknown pattern '{name}' (valid: {})",
                            TrafficPattern::NAMES.join(", ")
                        )));
                    }
                    cli.pattern = Some(name.to_lowercase());
                }
                "--workers" => {
                    let text = value("--workers")?;
                    cli.workers = text
                        .parse()
                        .map_err(|_| ParseCliError(format!("'{text}' is not a worker count")))?;
                }
                "--jobs" => cli.jobs_path = value("--jobs")?,
                "--resume" => cli.resume = true,
                "--shard" => {
                    let text = value("--shard")?;
                    let parse_part = |part: Option<&str>| {
                        part.and_then(|p| p.trim().parse::<usize>().ok())
                            .filter(|&v| v > 0)
                    };
                    let mut parts = text.split('/');
                    let (k, n, extra) = (parts.next(), parts.next(), parts.next());
                    cli.shard = match (parse_part(k), parse_part(n), extra) {
                        (Some(k), Some(n), None) if k <= n => Some((k, n)),
                        _ => {
                            return Err(ParseCliError(format!(
                                "'{text}' is not a shard: --shard <k>/<n> with 1 <= k <= n"
                            )))
                        }
                    };
                }
                "--grain" => {
                    let text = value("--grain")?;
                    cli.grain = text.parse().ok().filter(|&g| g > 0).ok_or_else(|| {
                        ParseCliError(format!("'{text}' is not a lease grain (need >= 1)"))
                    })?;
                }
                "--swap" => {
                    cli.swap = parse_swap(&value("--swap")?).map_err(ParseCliError)?;
                }
                "--engine" => {
                    cli.engine = parse_engine(&value("--engine")?).map_err(ParseCliError)?;
                }
                "--table-prep" => {
                    cli.table_prep =
                        parse_table_prep(&value("--table-prep")?).map_err(ParseCliError)?;
                }
                "--probe" => {
                    let pattern = value("--probe")?;
                    let rate = value("--probe")?;
                    let mut spec = format!("{pattern} {rate}");
                    // A bare-integer third token is the optional top-k
                    // count; anything else belongs to the next flag.
                    let peeked = it
                        .clone()
                        .next()
                        .filter(|t| !t.is_empty() && t.chars().all(|c| c.is_ascii_digit()));
                    if peeked.is_some() {
                        spec.push(' ');
                        spec.push_str(it.next().expect("peeked token present"));
                    }
                    cli.probe = Some(SimProbe::parse(&spec).map_err(ParseCliError)?);
                }
                "--json" => cli.json = true,
                "--listen" => cli.listen = value("--listen")?,
                "--cache" => {
                    let text = value("--cache")?;
                    cli.cache = text
                        .parse()
                        .map_err(|_| ParseCliError(format!("'{text}' is not a cache size")))?;
                }
                "--log" => cli.log_path = value("--log")?,
                other => return Err(ParseCliError(format!("unknown option '{other}'"))),
            }
        }
        if !(cli.capacity.is_finite() && cli.capacity > 0.0) {
            return Err(ParseCliError("--capacity must be positive".to_string()));
        }
        if cli.rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(ParseCliError(
                "--rates must be non-negative numbers".to_string(),
            ));
        }
        if !cli.intensity.is_finite() || cli.intensity < 0.0 {
            return Err(ParseCliError(
                "--intensity must be a non-negative number".to_string(),
            ));
        }
        // Refuse explore flags the chosen path would ignore: the JSON
        // report has no table to extend or annotate, and only it carries
        // probes.
        let json_explore =
            (cli.command == Command::Explore && cli.json) || cli.client_op == ClientOp::Explore;
        let refused = match (json_explore, &cli.probe) {
            (true, _) if cli.extended => Some(
                "--extended needs a text command (explore without --json, generate, simulate, \
                 sweep)",
            ),
            (true, _) if cli.validate => {
                Some("--validate needs text explore (explore without --json)")
            }
            (false, Some(_)) => {
                Some("--probe needs a JSON explore (explore --json or client explore)")
            }
            _ => None,
        };
        if let Some(message) = refused {
            return Err(ParseCliError(message.to_string()));
        }
        if matches!(
            cli.command,
            Command::Batch | Command::BatchCoordinator | Command::BatchWorker
        ) && cli.jobs_path.is_empty()
        {
            return Err(ParseCliError(
                "this command needs a manifest: --jobs <file>".to_string(),
            ));
        }
        if cli.command == Command::Replay && cli.log_path.is_empty() {
            return Err(ParseCliError(
                "replay needs a request log: --log <file>".to_string(),
            ));
        }
        Ok(cli)
    }
}

fn parse_f64(text: &str) -> Result<f64, ParseCliError> {
    text.parse()
        .map_err(|_| ParseCliError(format!("'{text}' is not a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_explore() {
        let cli = Cli::parse(["explore", "vopd"]).unwrap();
        assert_eq!(cli.command, Command::Explore);
        assert_eq!(cli.app, "vopd");
        assert_eq!(cli.capacity, 500.0);
        assert_eq!(cli.routing, RoutingFunction::MinPath);
    }

    #[test]
    fn all_options_parse() {
        let cli = Cli::parse([
            "generate",
            "my.app",
            "--capacity",
            "1000",
            "--routing",
            "sa",
            "--objective",
            "power",
            "--relax-bandwidth",
            "--extended",
            "--out",
            "/tmp/x",
            "--name",
            "demo",
            "--intensity",
            "0.3",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Generate);
        assert_eq!(cli.capacity, 1000.0);
        assert_eq!(cli.routing, RoutingFunction::SplitAllPaths);
        assert_eq!(cli.objective, Objective::MinPower);
        assert_eq!(cli.constraints, ConstraintMode::Relaxed);
        assert!(cli.extended);
        assert_eq!(cli.out_dir, "/tmp/x");
        assert_eq!(cli.design_name, "demo");
        assert_eq!(cli.intensity, 0.3);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Cli::parse::<[&str; 0], &str>([])
            .unwrap_err()
            .0
            .contains("missing command"));
        assert!(Cli::parse(["frobnicate", "x"])
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(Cli::parse(["explore"])
            .unwrap_err()
            .0
            .contains("missing application"));
        assert!(Cli::parse(["explore", "vopd", "--routing", "XY"])
            .unwrap_err()
            .0
            .contains("unknown routing"));
        assert!(Cli::parse(["explore", "vopd", "--capacity"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(Cli::parse(["explore", "vopd", "--capacity", "-1"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(Cli::parse(["explore", "vopd", "--wat"])
            .unwrap_err()
            .0
            .contains("unknown option"));
        // Explore flags the chosen path would ignore name themselves
        // and the mode they need.
        assert_refused(
            "explore vopd --json --extended",
            "--extended",
            "text command",
        );
        assert_refused(
            "explore vopd --json --validate",
            "--validate",
            "text explore",
        );
        for command in ["explore", "generate", "simulate", "sweep"] {
            let words = format!("{command} vopd --probe uniform 0.1");
            assert_refused(&words, "--probe", "explore --json or client explore");
        }
    }

    /// Asserts that parsing the space-separated `words` fails with an
    /// error that starts with `flag` and names `mode`.
    fn assert_refused(words: &str, flag: &str, mode: &str) {
        let err = Cli::parse(words.split(' ')).unwrap_err().0;
        assert!(
            err.starts_with(flag) && err.contains(mode),
            "{words}: {err}"
        );
    }

    #[test]
    fn sweep_options_parse() {
        let cli = Cli::parse([
            "sweep",
            "netproc",
            "--rates",
            "0.05, 0.1,0.2",
            "--pattern",
            "Tornado",
            "--workers",
            "3",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Sweep);
        assert_eq!(cli.rates, vec![0.05, 0.1, 0.2]);
        assert_eq!(cli.pattern.as_deref(), Some("tornado"));
        assert_eq!(cli.workers, 3);
    }

    #[test]
    fn design_sweep_and_validate_parse() {
        let cli = Cli::parse(["design-sweep", "mpeg4"]).unwrap();
        assert_eq!(cli.command, Command::DesignSweep);
        let cli = Cli::parse(["explore", "vopd", "--validate"]).unwrap();
        assert!(cli.validate);
    }

    #[test]
    fn batch_options_parse() {
        let cli = Cli::parse([
            "batch",
            "--jobs",
            "grid.manifest",
            "--workers",
            "4",
            "--resume",
            "--out",
            "target/batch",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Batch);
        assert_eq!(cli.jobs_path, "grid.manifest");
        assert_eq!(cli.workers, 4);
        assert!(cli.resume);
        assert_eq!(cli.out_dir, "target/batch");
        assert!(cli.app.is_empty(), "batch takes no positional app");
    }

    #[test]
    fn shard_and_distributed_batch_parse() {
        let cli = Cli::parse(["batch", "--jobs", "g.manifest", "--shard", "2/3"]).unwrap();
        assert_eq!(cli.shard, Some((2, 3)));

        let cli = Cli::parse([
            "batch-coordinator",
            "--jobs",
            "g.manifest",
            "--listen",
            "127.0.0.1:0",
            "--grain",
            "4",
            "--resume",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::BatchCoordinator);
        assert_eq!(cli.grain, 4);
        assert!(cli.resume);
        assert!(cli.app.is_empty(), "batch-coordinator takes no app");

        let cli = Cli::parse([
            "batch-worker",
            "127.0.0.1:7421",
            "--jobs",
            "g.manifest",
            "--name",
            "w1",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::BatchWorker);
        assert_eq!(cli.addr, "127.0.0.1:7421");
        assert_eq!(cli.design_name, "w1");
    }

    #[test]
    fn shard_and_distributed_batch_errors() {
        for bad in ["0/3", "4/3", "2", "a/b", "1/2/3", "/"] {
            let err = Cli::parse(["batch", "--jobs", "g", "--shard", bad]).unwrap_err();
            assert!(err.0.contains("shard"), "{bad}: {}", err.0);
        }
        assert!(Cli::parse(["batch-coordinator"])
            .unwrap_err()
            .0
            .contains("--jobs"));
        assert!(Cli::parse(["batch-worker", "127.0.0.1:7421"])
            .unwrap_err()
            .0
            .contains("--jobs"));
        assert!(Cli::parse(["batch-worker"])
            .unwrap_err()
            .0
            .contains("coordinator <addr>"));
        assert!(
            Cli::parse(["batch-coordinator", "--jobs", "g", "--grain", "0"])
                .unwrap_err()
                .0
                .contains("lease grain")
        );
    }

    #[test]
    fn batch_requires_a_manifest() {
        assert!(Cli::parse(["batch"]).unwrap_err().0.contains("--jobs"));
        assert!(Cli::parse(["batch", "--resume"])
            .unwrap_err()
            .0
            .contains("--jobs"));
    }

    #[test]
    fn pattern_errors_list_valid_names() {
        let err = Cli::parse(["sweep", "vopd", "--pattern", "warp"]).unwrap_err();
        for name in sunmap::traffic::patterns::TrafficPattern::NAMES {
            assert!(err.0.contains(name), "'{name}' missing from: {}", err.0);
        }
        // Case-insensitive acceptance, normalised for reports.
        let cli = Cli::parse(["sweep", "vopd", "--pattern", "TORNADO"]).unwrap();
        assert_eq!(cli.pattern.as_deref(), Some("tornado"));
    }

    #[test]
    fn bad_sweep_options_error() {
        assert!(Cli::parse(["sweep", "vopd", "--rates", "0.1,x"])
            .unwrap_err()
            .0
            .contains("not a number"));
        assert!(Cli::parse(["sweep", "vopd", "--rates", "-0.1"])
            .unwrap_err()
            .0
            .contains("non-negative"));
        assert!(Cli::parse(["sweep", "vopd", "--pattern", "hotspot"])
            .unwrap_err()
            .0
            .contains("unknown pattern"));
        assert!(Cli::parse(["sweep", "vopd", "--workers", "many"])
            .unwrap_err()
            .0
            .contains("worker count"));
    }

    #[test]
    fn serve_client_and_replay_parse() {
        let cli = Cli::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--cache",
            "4",
            "--log",
            "req.jsonl",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.listen, "127.0.0.1:0");
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.cache, 4);
        assert_eq!(cli.log_path, "req.jsonl");
        assert!(cli.app.is_empty(), "serve takes no positional app");

        let cli = Cli::parse([
            "client",
            "127.0.0.1:7420",
            "explore",
            "vopd",
            "--objective",
            "power",
            "--swap",
            "delta",
            "--probe",
            "uniform",
            "0.1",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Client);
        assert_eq!(cli.addr, "127.0.0.1:7420");
        assert_eq!(cli.client_op, ClientOp::Explore);
        assert_eq!(cli.app, "vopd");
        assert_eq!(cli.objective, Objective::MinPower);
        assert_eq!(cli.swap, SwapStrategy::DeltaPruned);
        assert_eq!(cli.probe.as_ref().unwrap().rate, 0.1);

        let cli = Cli::parse(["client", "127.0.0.1:7420", "shutdown"]).unwrap();
        assert_eq!(cli.client_op, ClientOp::Shutdown);
        assert!(cli.app.is_empty());

        let cli = Cli::parse(["replay", "--log", "req.jsonl"]).unwrap();
        assert_eq!(cli.command, Command::Replay);
        assert_eq!(cli.log_path, "req.jsonl");

        let cli = Cli::parse(["explore", "vopd", "--json"]).unwrap();
        assert!(cli.json);
    }

    #[test]
    fn serve_family_errors_are_descriptive() {
        assert!(Cli::parse(["client"])
            .unwrap_err()
            .0
            .contains("daemon <addr>"));
        assert!(Cli::parse(["client", "127.0.0.1:7420"])
            .unwrap_err()
            .0
            .contains("operation"));
        assert!(Cli::parse(["client", "127.0.0.1:7420", "warp"])
            .unwrap_err()
            .0
            .contains("unknown client operation"));
        assert!(Cli::parse(["client", "127.0.0.1:7420", "explore"])
            .unwrap_err()
            .0
            .contains("missing application"));
        assert!(Cli::parse(["replay"]).unwrap_err().0.contains("--log"));
        assert!(Cli::parse(["serve", "--cache", "lots"])
            .unwrap_err()
            .0
            .contains("cache size"));
        assert!(Cli::parse(["explore", "vopd", "--swap", "sideways"])
            .unwrap_err()
            .0
            .contains("auto, exhaustive, delta"));
        assert!(Cli::parse(["explore", "vopd", "--probe", "uniform"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(Cli::parse(["explore", "vopd", "--probe", "warp", "0.1"])
            .unwrap_err()
            .0
            .contains("unknown pattern"));
        assert_refused("client :7420 explore vopd --extended", "--extended", "text");
        assert_refused("client :7420 explore vopd --validate", "--validate", "text");
        for words in [
            "client :7420 stats --probe uniform 0.1",
            "serve --probe uniform 0.1",
            "batch --jobs g --probe uniform 0.1",
        ] {
            assert_refused(words, "--probe", "client explore");
        }
    }

    #[test]
    fn engine_flag_parses_and_defaults_to_auto() {
        assert_eq!(
            Cli::parse(["simulate", "vopd"]).unwrap().engine,
            SimEngine::Auto
        );
        for (text, expected) in [
            ("auto", SimEngine::Auto),
            ("flat", SimEngine::Flat),
            ("event", SimEngine::EventDriven),
            ("Reference", SimEngine::Reference),
        ] {
            let cli = Cli::parse(["simulate", "vopd", "--engine", text]).unwrap();
            assert_eq!(cli.engine, expected, "{text}");
        }
        let err = Cli::parse(["sweep", "vopd", "--engine", "warp"]).unwrap_err();
        assert!(err.0.contains("auto, flat, event, reference"), "{}", err.0);
    }

    #[test]
    fn table_prep_flag_parses_and_defaults_to_auto() {
        assert_eq!(
            Cli::parse(["explore", "vopd"]).unwrap().table_prep,
            TablePrep::Auto
        );
        for (text, expected) in [
            ("auto", TablePrep::Auto),
            ("eager", TablePrep::Eager),
            ("lazy", TablePrep::Lazy),
            ("Closed-Form", TablePrep::ClosedForm),
        ] {
            let cli = Cli::parse(["explore", "vopd", "--table-prep", text]).unwrap();
            assert_eq!(cli.table_prep, expected, "{text}");
        }
        let err = Cli::parse(["explore", "vopd", "--table-prep", "dense"]).unwrap_err();
        assert!(
            err.0.contains("auto, eager, lazy, closed-form"),
            "{}",
            err.0
        );
    }

    #[test]
    fn probe_takes_an_optional_top_k() {
        let cli = Cli::parse(["explore", "vopd", "--json", "--probe", "uniform", "0.1"]).unwrap();
        assert_eq!(cli.probe.as_ref().unwrap().top_k, 1);
        // The third token is consumed only when it is a bare integer...
        let cli = Cli::parse([
            "explore", "vopd", "--probe", "uniform", "0.1", "3", "--json",
        ])
        .unwrap();
        assert_eq!(cli.probe.as_ref().unwrap().top_k, 3);
        assert!(cli.json);
        // ...so a following flag still parses as itself.
        let cli = Cli::parse(["explore", "vopd", "--probe", "uniform", "0.1", "--json"]).unwrap();
        assert_eq!(cli.probe.as_ref().unwrap().top_k, 1);
        assert!(cli.json);
        let err = Cli::parse(["explore", "vopd", "--probe", "uniform", "0.1", "0"]).unwrap_err();
        assert!(err.0.contains("at least 1"), "{}", err.0);
    }

    #[test]
    fn routing_names_are_case_insensitive() {
        for (text, expected) in [
            ("do", RoutingFunction::DimensionOrdered),
            ("Mp", RoutingFunction::MinPath),
            ("SM", RoutingFunction::SplitMinPaths),
            ("sA", RoutingFunction::SplitAllPaths),
        ] {
            let cli = Cli::parse(["explore", "vopd", "--routing", text]).unwrap();
            assert_eq!(cli.routing, expected);
        }
    }
}
