//! End-to-end tests of the `sunmap serve` daemon through the real
//! binary: byte-identity with the one-shot CLI, warm-cache accounting,
//! graceful drain of in-flight jobs, and request-log replay.

mod common;

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use common::{sunmap, temp_dir, Json, Parser};
use sunmap::serve::{read_frame, report_slice, write_frame};

/// The daemon under test; killed on drop so a failed assertion never
/// leaks a background process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

impl Daemon {
    /// Spawns `sunmap serve` on a free port and waits for its
    /// flushed `listening on <addr>` line.
    fn spawn(log_path: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sunmap"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache",
                "4",
                "--log",
                log_path.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .expect("daemon announces its address");
        daemon.addr = line
            .trim()
            .strip_prefix("sunmap-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        daemon
    }

    /// Waits (bounded) for the daemon to exit cleanly and returns the
    /// rest of its stdout (the final metrics dump).
    fn wait(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not drain within the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("stdout drains");
        rest
    }
}

fn stdout_line(args: &[&str]) -> String {
    let out = sunmap(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap().trim().to_string()
}

#[test]
fn daemon_matches_one_shot_serves_warm_drains_and_replays() {
    let dir = temp_dir("sunmap_it_serve");
    fs::create_dir_all(&dir).unwrap();
    let log = dir.join("requests.jsonl");
    let daemon = Daemon::spawn(&log);
    let addr: &str = &daemon.addr.clone();

    // (a) The daemon's answer is byte-identical to the one-shot CLI
    // report for the same request.
    let one_shot = stdout_line(&["explore", "dsp", "--capacity", "1000", "--json"]);
    assert!(
        one_shot.starts_with("{\"schema\":\"sunmap-report/1\""),
        "{one_shot}"
    );
    let served = stdout_line(&["client", addr, "explore", "dsp", "--capacity", "1000"]);
    assert_eq!(served, one_shot, "daemon and one-shot bytes must match");
    // The request carries the canonical spec text, which drops
    // `hotspot=-0` as the default, so `-0` must seed like `0` does.
    let spec = "synth:seed=1,cores=8,hotspot=-0";
    let one_shot_synth = stdout_line(&["explore", spec, "--json"]);
    let served_synth = stdout_line(&["client", addr, "explore", spec]);
    assert_eq!(
        served_synth, one_shot_synth,
        "{spec}: daemon and one-shot bytes must match"
    );

    // (b) The same topology again is a recorded cache hit.
    let served_again = stdout_line(&["client", addr, "explore", "dsp", "--capacity", "1000"]);
    assert_eq!(served_again, one_shot);
    let stats_line = stdout_line(&["client", addr, "stats"]);
    let stats = Parser::parse(&stats_line).expect("stats frame parses");
    let metrics = stats.get("metrics").expect("stats carries metrics");
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("sunmap-serve-metrics/1")
    );
    let cache = metrics.get("cache").expect("cache section");
    assert!(
        cache.get("hits").and_then(Json::as_f64) >= Some(1.0),
        "{stats_line}"
    );
    assert!(
        metrics.get("evaluations").and_then(Json::as_f64) > Some(0.0),
        "{stats_line}"
    );

    // (c) Graceful drain: submit a long job over a raw connection,
    // then ask for shutdown from a second connection; the in-flight
    // job's full response must still arrive.
    let mut slow = TcpStream::connect(addr).expect("raw connect");
    write_frame(
        &mut slow,
        "{\"op\":\"explore\",\"request\":{\"app\":\"synth:seed=3,cores=64\"}}",
    )
    .expect("frame sent");
    std::thread::sleep(Duration::from_millis(150)); // let a worker pick it up
    let bye = stdout_line(&["client", addr, "shutdown"]);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    let slow_response = read_frame(&mut slow)
        .expect("in-flight response readable")
        .expect("in-flight response arrives despite the drain");
    let slow_report = report_slice(&slow_response).expect("carries a report");
    assert!(
        slow_report.contains("\"app\":\"synth:seed=3,cores=64\""),
        "{slow_report}"
    );

    // The daemon exits cleanly and dumps a final metrics snapshot.
    let dump = daemon.wait();
    assert!(
        dump.contains("\"schema\":\"sunmap-serve-metrics/1\""),
        "{dump}"
    );
    assert!(dump.contains("\"explore\":4"), "{dump}");

    // (d) Replaying the request log through the one-shot path
    // reproduces every report byte-for-byte...
    let replay = stdout_line(&["replay", "--log", log.to_str().unwrap()]);
    assert!(replay.contains("replay ok: 4 request(s)"), "{replay}");

    // ...and a tampered log is rejected with a non-zero exit. The
    // first `capacity` on line one is the logged *request*'s: bumping
    // it makes the replayed report diverge from the logged bytes.
    let tampered =
        fs::read_to_string(&log)
            .unwrap()
            .replacen("\"capacity\":1000", "\"capacity\":1001", 1);
    fs::write(&log, tampered).unwrap();
    let out = sunmap(&["replay", "--log", log.to_str().unwrap()]);
    assert!(!out.status.success(), "tampered log must fail the replay");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("mismatch"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn client_against_no_daemon_fails_cleanly() {
    // Port 9 (discard) is almost never listening; connect must fail
    // with a clean error, not a panic or a hang.
    let out = sunmap(&["client", "127.0.0.1:9", "ping"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot connect"), "{stderr}");
}
