//! Injection-rate sweep driver: the latency-versus-load curves of paper
//! Fig. 8(b), run across rates and topologies on scoped threads.
//!
//! Every `(topology, rate)` job owns an independent simulator seeded
//! from its [`SimConfig`], and the per-topology [`RoutePlan`] is
//! compiled once and shared by `Arc` across that topology's rate
//! workers. Results are written positionally, so the output is
//! **bit-identical for any worker count** — one thread, one per job, or
//! anything in between.

use std::sync::Arc;

use crate::engine::{RoutePlan, SimConfig, SimEngine};
use crate::session::SimSession;
use crate::{adversarial_pattern, LatencyStats};
use sunmap_mapping::RouteTable;
use sunmap_topology::{TopologyGraph, TopologyKind};
use sunmap_traffic::patterns::TrafficPattern;

/// One topology to sweep, with the pattern driving it.
#[derive(Debug)]
pub struct SweepRequest<'a> {
    /// The network under test.
    pub graph: &'a TopologyGraph,
    /// The synthetic destination pattern its generators follow.
    pub pattern: TrafficPattern,
}

/// One measured point of a latency-versus-injection-rate curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Which topology this point belongs to.
    pub topology: TopologyKind,
    /// Pattern name (e.g. `tornado`).
    pub pattern: String,
    /// Offered load in flits per cycle per terminal.
    pub rate: f64,
    /// The measured statistics.
    pub stats: LatencyStats,
}

/// Sweeps `rates` over every request, fanning the `requests × rates`
/// job grid out across at most `workers` scoped threads (`0` = one per
/// available CPU). Points come back grouped by request, then by rate —
/// the same order and the same bit-exact values at any worker count.
///
/// # Examples
///
/// ```
/// use sunmap_sim::{sweep, SimConfig};
/// use sunmap_topology::builders;
/// use sunmap_traffic::patterns::TrafficPattern;
///
/// let mesh = builders::mesh(4, 4, 500.0)?;
/// let requests = [sweep::SweepRequest {
///     graph: &mesh,
///     pattern: TrafficPattern::BitComplement,
/// }];
/// let points = sweep::injection_sweep(&requests, &[0.02, 0.1], SimConfig::fast(), 0);
/// assert_eq!(points.len(), 2);
/// assert!(points[1].stats.avg_latency >= points[0].stats.avg_latency);
/// # Ok::<(), sunmap_topology::TopologyError>(())
/// ```
pub fn injection_sweep(
    requests: &[SweepRequest<'_>],
    rates: &[f64],
    config: SimConfig,
    workers: usize,
) -> Vec<SweepPoint> {
    // Compile each topology's route plan once, up front (cheap next to
    // the simulations, and shared by every rate worker). The reference
    // engine resolves routes live and never consumes a plan.
    let plans: Vec<Option<Arc<RoutePlan>>> = requests
        .iter()
        .map(|r| {
            (config.engine != SimEngine::Reference).then(|| {
                Arc::new(RoutePlan::synthetic(
                    r.graph,
                    &RouteTable::new(r.graph),
                    &config,
                ))
            })
        })
        .collect();
    let jobs: Vec<(usize, usize)> = (0..requests.len())
        .flat_map(|g| (0..rates.len()).map(move |r| (g, r)))
        .collect();
    let workers = effective_workers(workers, jobs.len());
    let run_job = |&(g, r): &(usize, usize)| -> SweepPoint {
        let req = &requests[g];
        let mut builder = SimSession::builder(req.graph).config(config);
        if let Some(plan) = &plans[g] {
            builder = builder.plan(plan.clone());
        }
        let mut sim = builder.build();
        let stats = sim.run_synthetic(&req.pattern, rates[r]);
        SweepPoint {
            topology: req.graph.kind(),
            pattern: req.pattern.name().to_string(),
            rate: rates[r],
            stats,
        }
    };
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.iter().map(run_job).collect();
    }
    let chunk = jobs.len().div_ceil(workers);
    let mut out = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|chunk_jobs| {
                let run_job = &run_job;
                s.spawn(move || chunk_jobs.iter().map(run_job).collect::<Vec<_>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("sweep worker panicked"));
        }
    });
    out
}

/// [`injection_sweep`] with each topology driven by its classic
/// adversarial pattern (paper §6.2).
pub fn adversarial_sweep(
    graphs: &[TopologyGraph],
    rates: &[f64],
    config: SimConfig,
    workers: usize,
) -> Vec<SweepPoint> {
    let requests: Vec<SweepRequest<'_>> = graphs
        .iter()
        .map(|g| SweepRequest {
            graph: g,
            pattern: adversarial_pattern(g.kind()),
        })
        .collect();
    injection_sweep(&requests, rates, config, workers)
}

fn effective_workers(requested: usize, jobs: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let w = if requested == 0 { cpus } else { requested };
    w.min(jobs).max(1)
}

/// Renders sweep points as a CSV table (one row per point) — the
/// Fig. 8(b) curve data.
pub fn sweep_csv(points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "topology,pattern,rate,avg_latency_cycles,max_latency_cycles,\
         throughput_flits_per_cycle,delivery_ratio,packets_offered,\
         packets_delivered,max_link_utilization,mean_link_utilization\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            p.topology.name(),
            p.pattern,
            p.rate,
            p.stats.avg_latency,
            p.stats.max_latency,
            p.stats.throughput,
            p.stats.delivery_ratio(),
            p.stats.packets_offered,
            p.stats.packets_delivered,
            p.stats.max_link_utilization,
            p.stats.mean_link_utilization,
        );
    }
    out
}

/// The wire schema identifier stamped on every sweep JSON document.
pub const SWEEP_SCHEMA: &str = "sunmap-sweep/1";

/// Renders sweep points as JSON:
/// `{"schema":"sunmap-sweep/1","points":[...]}`.
pub fn sweep_json(points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"schema\":\"{SWEEP_SCHEMA}\",\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"topology\":{},\"pattern\":{},\"rate\":{},{}}}",
            json_string(p.topology.name()),
            json_string(&p.pattern),
            json_number(p.rate),
            stats_json_fields(&p.stats),
        );
    }
    out.push_str("]}");
    out
}

/// The shared JSON rendering of one [`LatencyStats`] (an object body
/// without braces, so callers can prepend identifying fields).
pub fn stats_json_fields(stats: &LatencyStats) -> String {
    format!(
        "\"avg_latency_cycles\":{},\"max_latency_cycles\":{},\
         \"packets_offered\":{},\"packets_delivered\":{},\
         \"throughput_flits_per_cycle\":{},\"delivery_ratio\":{},\
         \"max_link_utilization\":{},\"mean_link_utilization\":{}",
        json_number(stats.avg_latency),
        stats.max_latency,
        stats.packets_offered,
        stats.packets_delivered,
        json_number(stats.throughput),
        json_number(stats.delivery_ratio()),
        json_number(stats.max_link_utilization),
        json_number(stats.mean_link_utilization),
    )
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// render as `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_topology::builders;

    fn tiny_requests(graphs: &[TopologyGraph]) -> Vec<SweepRequest<'_>> {
        graphs
            .iter()
            .map(|g| SweepRequest {
                graph: g,
                pattern: adversarial_pattern(g.kind()),
            })
            .collect()
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let graphs = vec![
            builders::mesh(3, 3, 500.0).unwrap(),
            builders::torus(3, 3, 500.0).unwrap(),
        ];
        let rates = [0.02, 0.1, 0.25];
        let requests = tiny_requests(&graphs);
        let one = injection_sweep(&requests, &rates, SimConfig::fast(), 1);
        assert_eq!(one.len(), 6);
        for workers in [2, 3, 6] {
            let many = injection_sweep(&requests, &rates, SimConfig::fast(), workers);
            assert_eq!(one, many, "{workers} workers diverged");
        }
    }

    #[test]
    fn points_are_grouped_by_topology_then_rate() {
        let graphs = vec![
            builders::mesh(3, 3, 500.0).unwrap(),
            builders::torus(3, 3, 500.0).unwrap(),
        ];
        let points = adversarial_sweep(&graphs, &[0.05, 0.2], SimConfig::fast(), 0);
        let labels: Vec<(String, f64)> = points
            .iter()
            .map(|p| (p.topology.name().to_string(), p.rate))
            .collect();
        assert_eq!(
            labels,
            [
                ("Mesh".to_string(), 0.05),
                ("Mesh".to_string(), 0.2),
                ("Torus".to_string(), 0.05),
                ("Torus".to_string(), 0.2),
            ]
        );
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let graphs = vec![builders::mesh(3, 3, 500.0).unwrap()];
        let points = adversarial_sweep(&graphs, &[0.05, 0.2], SimConfig::fast(), 1);
        let csv = sweep_csv(&points);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("topology,pattern,rate"));
        assert!(lines[1].starts_with("Mesh,bit-complement,0.05,"));
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn json_output_mentions_every_topology() {
        let graphs = vec![
            builders::mesh(3, 3, 500.0).unwrap(),
            builders::torus(3, 3, 500.0).unwrap(),
        ];
        let points = adversarial_sweep(&graphs, &[0.05], SimConfig::fast(), 1);
        let json = sweep_json(&points);
        assert!(json.starts_with("{\"schema\":\"sunmap-sweep/1\""));
        assert!(json.contains("\"Mesh\"") && json.contains("\"Torus\""));
        assert!(json.ends_with("]}"));
    }
}
