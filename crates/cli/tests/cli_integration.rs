//! End-to-end tests of the `sunmap` binary itself: exit codes, stdout
//! shape, and machine-readable artifacts. `CARGO_BIN_EXE_sunmap` points
//! at the compiled binary under test.

mod common;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use common::{sunmap, temp_dir, Json, Parser};

fn topology_names(points: &[Json], key: &str) -> Vec<String> {
    points
        .iter()
        .filter_map(|p| Some(p.get(key)?.as_str()?.to_string()))
        .collect()
}

#[test]
fn explore_selects_a_topology() {
    let out = sunmap(&["explore", "vopd"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["Mesh", "Torus", "Hypercube", "Clos", "Butterfly"] {
        assert!(stdout.contains(name), "{name} missing:\n{stdout}");
    }
    assert!(stdout.contains("selected: "), "{stdout}");

    // The text renderer's exact bytes for one exploration.
    let out = sunmap(&["explore", "dsp", "--capacity", "1000"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "\
Topo        avg hops   area (mm2)  power (mW)  feasible
Mesh            2.08        36.35       191.7       yes
Torus           2.08        37.08       240.4       yes
Hypercube       2.08        38.21       235.7       yes
Clos            3.00        35.91       210.1       yes
Butterfly       2.00        35.99       161.2       yes <= best
selected: Butterfly 3-ary 2-fly
"
    );

    // A demand or core areas near f64::MAX overflow the cost sums: no
    // topology is feasible, rather than five "feasible" rows of
    // infinite or null costs.
    let dir = temp_dir("sunmap_it_overflow");
    fs::create_dir_all(&dir).unwrap();
    for (name, text, constraints) in [
        (
            "demand.app",
            "core a 1\ncore b 1\ntraffic a b 1e308\n",
            Some("--relax-bandwidth"),
        ),
        (
            "area.app",
            "core a 1e308\ncore b 1e308\ntraffic a b 1\n",
            None,
        ),
    ] {
        let path = dir.join(name);
        fs::write(&path, text).unwrap();
        let mut args = vec!["explore", path.to_str().unwrap()];
        args.extend(constraints);
        let out = sunmap(&args);
        assert!(out.status.success(), "{out:?}");
        let table = String::from_utf8(out.stdout).unwrap();
        assert!(
            table.ends_with("no feasible topology under these constraints\n"),
            "{name}: {table}"
        );
        args.push("--json");
        let out = sunmap(&args);
        assert!(out.status.success(), "{out:?}");
        let line = String::from_utf8(out.stdout).unwrap();
        assert!(line.contains("\"feasible\":0,"), "{name}: {line}");
        assert!(line.contains("\"winner\":null"), "{name}: {line}");
        assert_eq!(line.matches("null").count(), 1, "{name}: {line}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_emits_parsable_csv_and_json() {
    let dir = temp_dir("sunmap_it_sweep");
    let out = sunmap(&[
        "sweep",
        "dsp",
        "--capacity",
        "1000",
        "--rates",
        "0.05,0.2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let json_text = fs::read_to_string(dir.join("sweep.json")).unwrap();
    let json = Parser::parse(&json_text).expect("sweep.json parses");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("sunmap-sweep/1")
    );
    let points = json.get("points").and_then(Json::as_array).unwrap();
    let names = topology_names(points, "topology");
    assert!(names.iter().any(|n| n == "Mesh"), "{names:?}");
    assert!(names.iter().any(|n| n == "Torus"), "{names:?}");
    // Every (topology, rate) cell is present.
    let libraries = names.len() / 2;
    assert_eq!(points.len(), libraries * 2);

    let csv = fs::read_to_string(dir.join("sweep.csv")).unwrap();
    assert_eq!(csv.lines().count(), points.len() + 1, "header + rows");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn simulate_emits_parsable_json() {
    let dir = temp_dir("sunmap_it_simulate");
    let out = sunmap(&[
        "simulate",
        "dsp",
        "--capacity",
        "1000",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let json_text = fs::read_to_string(dir.join("simulate.json")).unwrap();
    let json = Parser::parse(&json_text).expect("simulate.json parses");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("sunmap-simulate/1")
    );
    let topologies = json.get("topologies").and_then(Json::as_array).unwrap();
    let names = topology_names(topologies, "topology");
    for expected in ["Mesh", "Torus"] {
        assert!(names.iter().any(|n| n == expected), "{names:?}");
    }
    // Feasible rows carry measured latency numbers.
    assert!(topologies.iter().any(|t| {
        t.get("feasible") == Some(&Json::Bool(true))
            && matches!(t.get("avg_latency_cycles"), Some(Json::Number(v)) if *v > 0.0)
    }));
    let _ = fs::remove_dir_all(&dir);
}

/// The committed 20-job sample manifest (4 seed benchmarks + 16
/// synthetic workloads) the README documents and CI smoke-runs.
fn sample_manifest() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/batch.manifest")
}

fn run_batch_to(dir: &std::path::Path, workers: &str, resume: bool) -> String {
    let manifest = sample_manifest();
    let mut args = vec![
        "batch",
        "--jobs",
        manifest.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
        "--workers",
        workers,
    ];
    if resume {
        args.push("--resume");
    }
    let out = sunmap(&args);
    assert!(out.status.success(), "{out:?}");
    fs::read_to_string(dir.join("batch.jsonl")).unwrap()
}

#[test]
fn batch_is_worker_invariant_resumable_and_parsable() {
    let dir = temp_dir("sunmap_it_batch");

    // ≥ 20 jobs: the 4 seed apps + 16 synthetic workloads.
    let baseline = run_batch_to(&dir, "1", false);
    assert_eq!(baseline.lines().count(), 20);

    // Every line is valid JSON with the batch schema and a winner or
    // an explicit null.
    for line in baseline.lines() {
        let json = Parser::parse(line).expect("batch line parses");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("sunmap-batch/1")
        );
        assert!(json.get("job").and_then(Json::as_str).is_some());
        assert!(json.get("winner").is_some(), "{line}");
        let topologies = json.get("topologies").and_then(Json::as_array).unwrap();
        assert_eq!(topologies.len(), 5);
    }
    // The seed apps lead the manifest; VOPD under MinPower selects the
    // butterfly (the paper's §6.1 headline).
    assert!(
        baseline
            .lines()
            .next()
            .unwrap()
            .contains("\"winner\":{\"topology\":\"Butterfly\""),
        "first line: {}",
        baseline.lines().next().unwrap()
    );

    // Byte-identical output at any worker count.
    for workers in ["2", "8"] {
        let rerun = run_batch_to(&dir, workers, false);
        assert_eq!(rerun, baseline, "--workers {workers} diverged");
    }

    // Kill-and-resume: truncate to a 7-line prefix plus a partial
    // trailing line, resume, and the bytes come back identical.
    let prefix_end = baseline
        .char_indices()
        .filter(|(_, c)| *c == '\n')
        .nth(6)
        .map(|(i, _)| i + 1)
        .unwrap();
    fs::write(
        dir.join("batch.jsonl"),
        format!("{}{{\"schema\":\"sunm", &baseline[..prefix_end]),
    )
    .unwrap();
    let resumed = run_batch_to(&dir, "4", true);
    assert_eq!(resumed, baseline, "kill-and-resume diverged");

    // A second resume over the complete file re-runs nothing.
    let out = sunmap(&[
        "batch",
        "--jobs",
        sample_manifest().to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
        "--resume",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 run, 20 skipped"), "{stdout}");
    assert_eq!(
        fs::read_to_string(dir.join("batch.jsonl")).unwrap(),
        baseline
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A small manifest (4 jobs) for the shard/distributed tests, written
/// into `dir`.
fn small_manifest(dir: &std::path::Path) -> PathBuf {
    fs::create_dir_all(dir).unwrap();
    let path = dir.join("small.manifest");
    fs::write(
        &path,
        "app dsp\napp synth:seed=3,cores=8\nobjective delay\nobjective power\ncapacity 1000\n",
    )
    .unwrap();
    path
}

#[test]
fn shard_outputs_concatenate_to_the_unsharded_file() {
    let dir = temp_dir("sunmap_it_shard");
    let manifest = small_manifest(&dir);

    let whole = dir.join("whole");
    let out = sunmap(&[
        "batch",
        "--jobs",
        manifest.to_str().unwrap(),
        "--out",
        whole.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let baseline = fs::read_to_string(whole.join("batch.jsonl")).unwrap();
    assert_eq!(baseline.lines().count(), 4);

    // 3 shards over 4 jobs: sizes 2, 1, 1 — every job exactly once,
    // and the in-order concatenation is byte-identical.
    let mut concatenated = String::new();
    for k in 1..=3 {
        let shard_out = dir.join(format!("shard{k}"));
        let shard = format!("{k}/3");
        let out = sunmap(&[
            "batch",
            "--jobs",
            manifest.to_str().unwrap(),
            "--out",
            shard_out.to_str().unwrap(),
            "--shard",
            &shard,
        ]);
        assert!(out.status.success(), "shard {k}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(&format!("[shard {k}/3]")), "{stdout}");
        concatenated.push_str(&fs::read_to_string(shard_out.join("batch.jsonl")).unwrap());
    }
    assert_eq!(
        concatenated, baseline,
        "concatenated shards must reproduce the unsharded bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn distributed_batch_reproduces_the_single_process_bytes() {
    use std::io::BufRead as _;
    use std::process::{Command, Stdio};

    let dir = temp_dir("sunmap_it_dist_batch");
    let manifest = small_manifest(&dir);

    let whole = dir.join("whole");
    let out = sunmap(&[
        "batch",
        "--jobs",
        manifest.to_str().unwrap(),
        "--out",
        whole.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let baseline = fs::read_to_string(whole.join("batch.jsonl")).unwrap();

    let dist = dir.join("dist");
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_sunmap"))
        .args([
            "batch-coordinator",
            "--jobs",
            manifest.to_str().unwrap(),
            "--out",
            dist.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--grain",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let mut stdout = std::io::BufReader::new(coordinator.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("coordinator announces");
    let addr = line
        .trim()
        .strip_prefix("sunmap-coordinator listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_sunmap"))
                .args([
                    "batch-worker",
                    &addr,
                    "--jobs",
                    manifest.to_str().unwrap(),
                    "--name",
                    &format!("w{i}"),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("worker spawns")
        })
        .collect();

    let status = coordinator.wait().expect("coordinator runs");
    assert!(status.success(), "coordinator failed");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(
        rest.contains("\"schema\":\"sunmap-shard-metrics/1\""),
        "missing counters dump: {rest}"
    );
    for worker in workers {
        let out = worker.wait_with_output().expect("worker runs");
        assert!(
            out.status.success(),
            "worker failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        fs::read_to_string(dist.join("batch.jsonl")).unwrap(),
        baseline,
        "distributed assembly must be byte-identical to a local run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_without_manifest_fails_cleanly() {
    let out = sunmap(&["batch"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--jobs"));

    let out = sunmap(&["batch", "--jobs", "/no/such.manifest"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read manifest"));
}

/// Checks brace/paren balance of an emitted C++-style source.
fn assert_balanced(name: &str, content: &str) {
    let mut braces = 0i64;
    let mut parens = 0i64;
    for c in content.chars() {
        match c {
            '{' => braces += 1,
            '}' => braces -= 1,
            '(' => parens += 1,
            ')' => parens -= 1,
            _ => {}
        }
        assert!(braces >= 0 && parens >= 0, "{name}: closes before opens");
    }
    assert_eq!(braces, 0, "{name}: unbalanced braces");
    assert_eq!(parens, 0, "{name}: unbalanced parentheses");
}

#[test]
fn generate_emits_nonempty_wellformed_systemc() {
    let dir = temp_dir("sunmap_it_generate");
    let out = sunmap(&[
        "generate",
        "dsp",
        "--capacity",
        "1000",
        "--name",
        "dspnoc",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let mut sources = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let content = fs::read_to_string(&path).unwrap();
        assert!(!content.trim().is_empty(), "{name} is empty");
        if name.ends_with(".h") || name.ends_with(".cpp") {
            sources += 1;
            assert_balanced(&name, &content);
            assert!(
                content.contains("SC_MODULE") || content.contains("sc_main"),
                "{name} lacks SystemC structure"
            );
            assert!(content.contains("#include <systemc.h>"), "{name}");
        }
    }
    // At least a switch header, the network interface and the top level.
    assert!(sources >= 3, "only {sources} SystemC sources emitted");

    // The top level instantiates the network interface per mapped core
    // (the DSP filter has 6 cores).
    let top = fs::read_to_string(dir.join("top_dspnoc.cpp")).unwrap();
    assert_eq!(top.matches("network_interface ").count(), 6, "{top}");

    let dot = fs::read_to_string(dir.join("noc.dot")).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert_balanced("noc.dot", &dot);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_fail_with_nonzero_exit() {
    let out = sunmap(&["frobnicate", "vopd"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"), "{stderr}");

    let out = sunmap(&["explore", "/does/not/exist.app"]);
    assert!(!out.status.success());

    // The options that chose how to compute, not what to map, are gone:
    // each is an unknown option on every command, printed with usage.
    for flag in ["--swap", "--engine", "--table-prep"] {
        for command in [
            &["explore", "vopd"][..],
            &["simulate", "dsp"],
            &["sweep", "dsp"],
        ] {
            let mut args = command.to_vec();
            args.extend([flag, "auto"]);
            let out = sunmap(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(
                stderr.starts_with(&format!("error: unknown option '{flag}'\n\nusage: sunmap")),
                "{stderr}"
            );
            assert_eq!(
                stderr.matches(flag).count(),
                1,
                "usage offers {flag}: {stderr}"
            );
        }
    }

    // Infeasible generation surfaces as a clean error, not a panic.
    let out = sunmap(&["generate", "vopd", "--capacity", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("no feasible topology"));
}

#[test]
fn help_prints_usage() {
    let out = sunmap(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("usage: sunmap"));
    assert!(stdout.contains("design-sweep"));
}

#[test]
fn closed_stdout_ends_the_process_without_a_panic() {
    // The reader closes its end before the binary prints its table,
    // like `sunmap explore vopd | head -0`: every write then fails.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sunmap"))
        .args(["explore", "vopd"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
