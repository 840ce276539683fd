//! The SUNMAP benchmark: three workloads timed from outside through the
//! workspace's public API, with a separate traced run for the
//! per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|synth-scale|sim-ladder> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <dir>] [--capture-pins]
//! ```
//!
//! Load is a closed loop with one client: one operation at a time,
//! from one process pinned to one CPU (see [`affinity`]), so the
//! mapper's swap sweep, capped at `available_parallelism`, runs one
//! worker.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. Every other metric is printed by name and unit above
//! it, and everything goes to a result file (`perfbench-result/1`)
//! together with the run's provenance; a traced run also writes its
//! spans.

mod affinity;
mod check;
mod layers;
mod paper_grid;
mod sim_ladder;
mod stats;
mod synth_scale;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use check::Checker;

/// The end-to-end metrics `BENCHMARK.json` lists (`--trace 0`).
const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// The per-layer metrics `BENCHMARK.json` lists (`--trace 1`): those
/// every workload's traced run measures.
const PER_LAYER: [&str; 22] = [
    "topology.library_s",
    "traffic.load_s",
    "mapping.table.build_s",
    "mapping.table.prepare_s",
    "mapping.table.materialized_pairs",
    "mapping.greedy_s",
    "mapping.search_s",
    "mapping.search_s.mesh",
    "mapping.search_s.torus",
    "mapping.search_s.hypercube",
    "mapping.search_s.clos",
    "mapping.search_s.butterfly",
    "mapping.evaluated.mesh",
    "mapping.evaluated.torus",
    "mapping.evaluated.hypercube",
    "mapping.evaluated.clos",
    "mapping.evaluated.butterfly",
    "mapping.infeasible_share",
    "mapping.feasible_frac",
    "mapping.evals_per_s",
    "floorplan_s",
    "floorplan.share",
];

/// One measured quantity.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` and the result file spell it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarises, when it summarises any.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    /// The same metric, summarising `n` samples.
    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed: the inputs are a function of it.
    pub seed: u64,
    /// How long the timed region runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the result file goes.
    pub out: PathBuf,
    /// Print the outputs' digests as `pins.txt` lines instead of
    /// checking them.
    pub capture_pins: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// Timed passes made (untraced and traced).
    pub passes: usize,
    /// Set-up repetitions made.
    pub setup_reps: usize,
    /// The traced run's spans as JSON lines.
    pub spans: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|synth-scale|sim-ladder> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--capture-pins]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/results"),
        capture_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--capture-pins" {
            args.capture_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper-grid", "synth-scale", "sim-ladder"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// How long untraced set-up repetitions run at least. `setup_s` is the
/// fastest repetition, for the reason `wall_s` takes each operation's
/// fastest time (see [`OpTimes::pass_wall`]).
pub const SETUP_SECONDS: f64 = 2.0;

/// Repeats `setup` at least `min_reps` times and until `min_secs` have
/// passed; returns the last result and each repetition's seconds.
pub fn repeat_setup<S>(
    min_reps: usize,
    min_secs: f64,
    mut setup: impl FnMut(usize) -> S,
) -> (S, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        let s = setup(times.len());
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Each operation's times across passes (operation `k` of every pass
/// is the same call on the same input).
#[derive(Debug, Default)]
pub struct OpTimes(Vec<Vec<f64>>);

impl OpTimes {
    /// Adds one pass's operation times, in operation order.
    pub fn push_pass(&mut self, times: impl IntoIterator<Item = f64>) {
        for (k, t) in times.into_iter().enumerate() {
            if k == self.0.len() {
                self.0.push(Vec::new());
            }
            self.0[k].push(t);
        }
    }

    /// One pass's wall time: the sum of each operation's fastest time
    /// across passes. A slow spell on a shared host stretches every
    /// operation it overlaps, often for more than half of a run's
    /// passes, so a median still moves with it; the fastest time does
    /// not.
    pub fn pass_wall(&self) -> f64 {
        self.0.iter().map(|t| fastest(t)).sum()
    }

    /// Operation `k`'s times, one per pass.
    pub fn op(&self, k: usize) -> &[f64] {
        &self.0[k]
    }

    /// Every operation time recorded.
    pub fn all(&self) -> Vec<f64> {
        self.0.iter().flatten().copied().collect()
    }

    /// Passes recorded.
    pub fn passes(&self) -> usize {
        self.0.first().map_or(0, Vec::len)
    }
}

/// The smallest of `xs` (infinite when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics `BENCHMARK.json` lists, for an untraced run
/// whose resident peak after its passes was `rss`.
pub fn end_to_end(setup_times: &[f64], ops: &OpTimes, rss: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", fastest(setup_times), "s").samples(setup_times.len()),
        Metric::new("wall_s", ops.pass_wall(), "s").samples(ops.passes()),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ]
}

/// Whether the timed region should run another pass: until `min` are
/// done, then while another pass as long as the mean one so far still
/// ends within `seconds`, so a run does not overshoot by a whole pass.
pub fn more_passes(start: Instant, seconds: f64, done: usize, min: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let mean = if done == 0 {
        0.0
    } else {
        elapsed / done as f64
    };
    done < min || elapsed + mean <= seconds
}

/// The process's resident-memory high-water mark in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    sunmap::sim::sweep::json_string(s)
}

fn json_num(v: f64) -> String {
    sunmap::sim::sweep::json_number(v)
}

fn metrics_json(metrics: &[&Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
        if let (true, Some(n)) = (with_samples, m.samples) {
            let _ = write!(out, ",\"samples\":{n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (cpu, nproc) = match affinity::pin_to_one_cpu() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("error: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checker = Checker::new(args.capture_pins);
    let report = match args.workload.as_str() {
        "paper-grid" => paper_grid::run(&args, &mut checker),
        "synth-scale" => synth_scale::run(&args, &mut checker),
        _ => sim_ladder::run(&args, &mut checker),
    };
    if let Some(lines) = checker.captured_lines() {
        print!("{lines}");
        return ExitCode::SUCCESS;
    }

    let (attempted, failed) = (checker.attempted(), checker.failed());
    for note in checker.notes() {
        eprintln!("failed: {note}");
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let mut metrics = report.metrics;
    metrics.push(Metric::new("error_rate", error_rate, "ratio").samples(attempted as usize));
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !bad.is_empty() {
        eprintln!("error: non-finite metrics: {}", bad.join(", "));
        return ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed={} trace={} passes={} setup_reps={} attempted={attempted} failed={failed}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.passes,
        report.setup_reps
    );
    for m in &metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!(
            "  {:<36} {:>16} {}{samples}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }

    let stem = format!(
        "{}.seed{}.trace{}.{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let all: Vec<&Metric> = metrics.iter().collect();
    let record = format!(
        "{{\"schema\":\"perfbench-result/1\",\"workload\":{},\"seed\":{},\"trace\":{},\
         \"provenance\":{{\"commit\":{},\"nproc\":{nproc},\"pinned_cpu\":{cpu},\
         \"rustc\":{},\"profile\":{},\
         \"seed\":{},\"seconds\":{},\"passes\":{},\"setup_reps\":{}}},\
         \"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}\n",
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        args.seed,
        json_num(args.seconds),
        report.passes,
        report.setup_reps,
        failed == 0,
        metrics_json(&all, true),
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{stem}.json")), &record))
        .and_then(|()| match &report.spans {
            Some(spans) => std::fs::write(args.out.join(format!("{stem}.spans.jsonl")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("error: cannot write results to {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut last = Vec::with_capacity(wanted.len());
    for name in wanted {
        match metrics.iter().find(|m| m.name == *name) {
            Some(m) => last.push(m),
            None => {
                eprintln!("error: metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&last, false)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn a_pass_is_the_sum_of_its_operations_fastest_times() {
        let mut ops = OpTimes::default();
        ops.push_pass([1.0, 10.0]);
        ops.push_pass([9.0, 11.0]);
        ops.push_pass([2.0, 12.0]);
        assert_eq!(ops.passes(), 3);
        assert_eq!(ops.pass_wall(), 1.0 + 10.0);
    }

    #[test]
    fn passes_stop_before_one_would_overrun() {
        // One 10 s pass done: another would end at about 20 s.
        let start = Instant::now() - std::time::Duration::from_secs(10);
        assert!(!more_passes(start, 15.0, 1, 1));
        assert!(more_passes(start, 25.0, 1, 1));
        // The minimum pass count runs regardless.
        assert!(more_passes(start, 15.0, 1, 2));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark directory");
        let section = |key: &str| -> Vec<String> {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":")
                .skip(1)
                .map(|s| s.trim().split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
    }
}
