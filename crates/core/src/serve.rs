//! `sunmap serve`: a warm-cache mapping daemon.
//!
//! The daemon listens on TCP and answers length-prefixed JSON frames
//! (schema `sunmap-serve/1`). Each frame is a 4-byte big-endian length
//! followed by that many bytes of UTF-8 JSON:
//!
//! ```text
//! -> {"op":"ping"}
//! <- {"schema":"sunmap-serve/1","ok":true,"op":"ping"}
//! -> {"op":"explore","request":{"app":"vopd","objective":"power"}}
//! <- {"schema":"sunmap-serve/1","ok":true,"op":"explore",
//!     "cache_hit":false,"report":{"schema":"sunmap-report/1",...}}
//! -> {"op":"stats"}
//! <- {"schema":"sunmap-serve/1","ok":true,"op":"stats",
//!     "metrics":{"schema":"sunmap-serve-metrics/1",...}}
//! -> {"op":"shutdown"}
//! <- {"schema":"sunmap-serve/1","ok":true,"op":"shutdown","draining":true}
//! ```
//!
//! The `report` (and `metrics`) object is always the envelope's *last*
//! field, so clients can recover the raw report bytes with
//! [`report_slice`] instead of re-serializing — which is how the serve
//! integration test asserts byte-identity against the one-shot CLI.
//!
//! Explore frames parse into the same [`ExploreRequest`] as every
//! other surface and run through one [`RequestRunner`] shared by the
//! worker threads, its route tables served from one warm cache — the
//! warm cache is the point of running a daemon instead of a process per
//! request. Counters and per-phase latency histograms live in a shared
//! [`Metrics`], answered live by `stats` frames and returned (and
//! dumped by the CLI) on shutdown.
//!
//! When configured with a log path the daemon appends one line per
//! explore request (schema `sunmap-serve-log/1`); [`verify_replay`]
//! re-runs every logged request through the one-shot
//! [`RequestRunner`] and fails unless each reproduces its logged
//! report byte-for-byte.
//!
//! Shutdown is graceful: a `shutdown` frame (or `SIGTERM` on Unix)
//! stops the accept loop, in-flight requests run to completion and
//! their responses are written, then the workers exit.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::frame::read_frame_draining;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::request::{ExploreRequest, RequestRunner};
use crate::schema::{SERVE_LOG_SCHEMA, SERVE_SCHEMA};
use sunmap_mapping::timing;

pub use crate::frame::{read_frame, write_frame, MAX_FRAME_BYTES};

/// How long a worker blocks on the connection queue or a socket read
/// before re-checking the drain flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// The process-wide drain flag: set by a `shutdown` frame or by
/// `SIGTERM`. Static because a signal handler cannot capture state;
/// one daemon per process is the supported shape — enforced by
/// [`DAEMON_GUARD`], which [`serve`] and the shard coordinator/worker
/// shims hold for their whole run so concurrent tests cannot trip each
/// other's drain.
pub(crate) static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Serializes daemons within one process (see [`SHUTDOWN`]).
pub(crate) static DAEMON_GUARD: Mutex<()> = Mutex::new(());

/// Takes the daemon slot for this process: resets the drain flag and
/// returns the guard that keeps other daemons out until dropped.
pub(crate) fn claim_daemon_slot() -> std::sync::MutexGuard<'static, ()> {
    // A test that panicked while holding the slot poisons the lock;
    // the slot itself is still perfectly usable.
    let guard = DAEMON_GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    SHUTDOWN.store(false, Ordering::SeqCst);
    guard
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7420` (`:0` picks a free port).
    pub listen: String,
    /// Worker threads answering frames.
    pub workers: usize,
    /// Candidate libraries kept warm in the LRU cache.
    pub cache_entries: usize,
    /// Append-only request-replay log, if any.
    pub log_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_entries: 8,
            log_path: None,
        }
    }
}

/// What a finished daemon reports back to its caller.
#[derive(Debug)]
pub struct ServeSummary {
    /// The final metrics snapshot (schema `sunmap-serve-metrics/1`).
    pub metrics_json: String,
    /// Explore requests answered successfully.
    pub explore_requests: u64,
}

/// The raw bytes of a serve envelope's trailing `report` object — the
/// exact line the one-shot CLI would print for the same request.
/// (Works on replay-log lines too; their `report` field is also last.)
/// `None` if `envelope` has no `"report"` field or is an error
/// response.
pub fn report_slice(envelope: &str) -> Option<&str> {
    // Safe as a byte search: the emitter escapes quotes inside JSON
    // strings, so the unescaped `,"report":` sequence only ever
    // appears as the field delimiter.
    let start = envelope.find(",\"report\":")? + ",\"report\":".len();
    let body = envelope.get(start..envelope.len() - 1)?;
    body.starts_with('{').then_some(body)
}

/// Runs the daemon until a `shutdown` frame or `SIGTERM` drains it.
/// `on_ready` fires once with the bound address (which matters when
/// `listen` ends in `:0`), before any frame is accepted.
///
/// # Errors
///
/// Bind/accept failures and replay-log creation failures, as
/// human-readable messages.
pub fn serve<F>(config: &ServeConfig, on_ready: F) -> Result<ServeSummary, String>
where
    F: FnOnce(SocketAddr),
{
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", config.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set non-blocking accept: {e}"))?;
    let log = match &config.log_path {
        Some(path) => {
            let file = File::create(path)
                .map_err(|e| format!("cannot create log {}: {e}", path.display()))?;
            Some(Mutex::new(BufWriter::new(file)))
        }
        None => None,
    };

    let _daemon_slot = claim_daemon_slot();
    #[cfg(unix)]
    install_sigterm_handler();
    timing::set_floorplan_timing(true);
    timing::take_floorplan_nanos(); // discard anything accumulated before

    let metrics = Metrics::new();
    let runner = RequestRunner::new(config.cache_entries);
    let log_seq = AtomicU64::new(0);
    let server = Server {
        metrics: &metrics,
        runner: &runner,
        log: log.as_ref(),
        log_seq: &log_seq,
    };

    on_ready(addr);
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
    let rx = Mutex::new(rx);
    let mut accept_error = None;
    thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| server.worker_loop(&rx));
        }
        while !SHUTDOWN.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Accept failures are fatal: flag the drain so the
                    // workers exit, then report the failure.
                    SHUTDOWN.store(true, Ordering::SeqCst);
                    accept_error = Some(format!("accept failed: {e}"));
                }
            }
        }
        drop(tx); // workers drain queued connections, then exit
    });
    timing::set_floorplan_timing(false);
    if let Some(error) = accept_error {
        return Err(error);
    }

    if let Some(log) = &log {
        let _ = log.lock().expect("log lock").flush();
    }
    Ok(ServeSummary {
        metrics_json: metrics.to_json(),
        explore_requests: metrics.explore_requests.load(Ordering::Relaxed),
    })
}

/// Installs a `SIGTERM` handler that flags the drain, so `kill <pid>`
/// gets the same graceful shutdown as a `shutdown` frame.
#[cfg(unix)]
pub(crate) fn install_sigterm_handler() {
    use std::os::raw::c_int;
    const SIGTERM: c_int = 15;
    // SAFETY: the handler does only async-signal-safe work — a single
    // atomic store, no allocation, no locks.
    unsafe extern "C" fn on_sigterm(_signum: c_int) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // `signal(2)` from the platform C library, declared here to
        // avoid a libc crate dependency for one call.
        // SAFETY: the signature matches the POSIX prototype
        // `void (*signal(int, void (*)(int)))(int)` up to the opaque
        // return value, which is never dereferenced.
        fn signal(signum: c_int, handler: unsafe extern "C" fn(c_int)) -> usize;
    }
    // SAFETY: both arguments are valid for the declared prototype and
    // the handler is async-signal-safe (see above).
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// The shared state a worker thread sees.
struct Server<'a> {
    metrics: &'a Metrics,
    runner: &'a RequestRunner,
    log: Option<&'a Mutex<BufWriter<File>>>,
    log_seq: &'a AtomicU64,
}

impl Server<'_> {
    fn worker_loop(&self, rx: &Mutex<Receiver<TcpStream>>) {
        loop {
            let next = rx
                .lock()
                .expect("connection queue lock")
                .recv_timeout(POLL_INTERVAL);
            match next {
                Ok(stream) => self.handle_connection(stream),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Serves one connection until the peer hangs up, a fatal frame
    /// error occurs, or the drain flag is set between frames. A peer
    /// that stalls mid-payload past the drain's patience is counted in
    /// `write_timeouts` rather than dropped silently.
    fn handle_connection(&self, mut stream: TcpStream) {
        loop {
            match read_frame_draining(&mut stream, &SHUTDOWN, Some(&self.metrics.write_timeouts)) {
                Ok(Some(payload)) => {
                    let (response, last) = self.process_frame(&payload);
                    if write_frame(&mut stream, &response).is_err() || last {
                        return;
                    }
                }
                Ok(None) | Err(_) => return,
            }
        }
    }

    /// Answers one frame. Returns the response and whether this
    /// connection should close afterwards (shutdown acknowledged).
    fn process_frame(&self, payload: &str) -> (String, bool) {
        let error = |message: String| {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            (
                format!(
                    "{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":false,\"error\":{}}}",
                    sunmap_sim::sweep::json_string(&message)
                ),
                false,
            )
        };
        let frame = match Json::parse(payload) {
            Ok(frame) => frame,
            Err(e) => return error(format!("bad frame: {e}")),
        };
        match frame.get("op").and_then(Json::as_str) {
            Some("ping") => {
                self.metrics.ping_requests.fetch_add(1, Ordering::Relaxed);
                (
                    format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true,\"op\":\"ping\"}}"),
                    false,
                )
            }
            Some("stats") => {
                self.metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
                (
                    format!(
                        "{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true,\"op\":\"stats\",\
                         \"metrics\":{}}}",
                        self.metrics.to_json()
                    ),
                    false,
                )
            }
            Some("shutdown") => {
                SHUTDOWN.store(true, Ordering::SeqCst);
                (
                    format!(
                        "{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true,\"op\":\"shutdown\",\
                         \"draining\":true}}"
                    ),
                    true,
                )
            }
            Some("explore") => {
                let request = match frame.get("request") {
                    Some(value) => match ExploreRequest::from_json_value(value) {
                        Ok(request) => request,
                        Err(e) => return error(format!("bad request: {e}")),
                    },
                    None => return error("explore frame needs a 'request'".to_string()),
                };
                match self.run_explore(&request) {
                    Ok((report, cache_hit)) => (
                        format!(
                            "{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true,\"op\":\"explore\",\
                             \"cache_hit\":{cache_hit},\"report\":{report}}}"
                        ),
                        false,
                    ),
                    Err(e) => error(e),
                }
            }
            Some(other) => error(format!(
                "unknown op '{other}' (valid: explore, stats, ping, shutdown)"
            )),
            None => error("frame needs a string 'op'".to_string()),
        }
    }

    /// The daemon's explore path: [`RequestRunner::run`]'s request
    /// function on the shared runner, plus metrics and the replay log.
    fn run_explore(&self, req: &ExploreRequest) -> Result<(String, bool), String> {
        let started = Instant::now();
        let outcome = self.runner.run_shared(req)?;
        let stats = outcome.stats;
        let m = self.metrics;
        m.explore_requests.fetch_add(1, Ordering::Relaxed);
        m.evaluations
            .fetch_add(stats.evaluated as u64, Ordering::Relaxed);
        if outcome.cache_hit {
            m.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            m.cache_misses.fetch_add(1, Ordering::Relaxed);
            m.route_table_build.record_nanos(outcome.route_table_nanos);
        }
        m.swap_search.record_nanos(stats.mapping_nanos);
        // Process-level attribution: under concurrent requests the
        // drained floorplan time includes other workers' share.
        let floorplan_nanos = timing::take_floorplan_nanos();
        if floorplan_nanos > 0 {
            m.floorplan.record_nanos(floorplan_nanos);
        }
        if stats.probe_nanos > 0 {
            m.probe.record_nanos(stats.probe_nanos);
        }
        m.request
            .record_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));

        if let Some(log) = self.log {
            let seq = self.log_seq.fetch_add(1, Ordering::Relaxed);
            let entry = format!(
                "{{\"schema\":\"{SERVE_LOG_SCHEMA}\",\"seq\":{seq},\"request\":{},\
                 \"report\":{}}}",
                req.to_json(),
                outcome.line
            );
            let mut log = log.lock().expect("log lock");
            // Flush per line: the log must survive an abrupt kill.
            let _ = writeln!(log, "{entry}").and_then(|()| log.flush());
        }
        Ok((outcome.line, outcome.cache_hit))
    }
}

/// Re-runs every request in a replay log through the one-shot
/// [`RequestRunner`] and checks each reproduces its logged report
/// byte-for-byte.
#[derive(Debug, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Log entries replayed and verified.
    pub replayed: usize,
}

/// Verifies a request-replay log written by [`serve`].
///
/// # Errors
///
/// Unreadable or malformed logs, and — the interesting case — any
/// entry whose replayed report differs from the logged bytes; the
/// message names the line and its `seq`.
pub fn verify_replay(path: &Path, cache_entries: usize) -> Result<ReplaySummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read log {}: {e}", path.display()))?;
    let mut runner = RequestRunner::new(cache_entries);
    let mut replayed = 0usize;
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let entry = Json::parse(line).map_err(|e| format!("log line {lineno} is not JSON: {e}"))?;
        match entry.get("schema").and_then(Json::as_str) {
            Some(SERVE_LOG_SCHEMA) => {}
            other => {
                return Err(format!(
                    "log line {lineno} has schema {other:?}, expected {SERVE_LOG_SCHEMA}"
                ));
            }
        }
        let seq = entry
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("log line {lineno} has no seq"))?;
        let request = entry
            .get("request")
            .ok_or_else(|| format!("log line {lineno} has no request"))
            .and_then(|v| {
                ExploreRequest::from_json_value(v)
                    .map_err(|e| format!("log line {lineno}: bad request: {e}"))
            })?;
        let logged =
            report_slice(line).ok_or_else(|| format!("log line {lineno} has no report object"))?;
        let outcome = runner
            .run(&request)
            .map_err(|e| format!("log line {lineno}: replay failed: {e}"))?;
        if outcome.line != logged {
            return Err(format!(
                "replay mismatch at log line {lineno} (seq {seq}): replayed report \
                 differs from logged bytes"
            ));
        }
        replayed += 1;
    }
    Ok(ReplaySummary { replayed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn request_frame(request_json: &str) -> String {
        format!("{{\"op\":\"explore\",\"request\":{request_json}}}")
    }

    fn roundtrip(stream: &mut TcpStream, frame: &str) -> String {
        write_frame(stream, frame).expect("write frame");
        read_frame(stream).expect("read frame").expect("a response")
    }

    #[test]
    fn report_slice_extracts_the_trailing_object() {
        let envelope = "{\"schema\":\"sunmap-serve/1\",\"ok\":true,\"op\":\"explore\",\
                        \"cache_hit\":true,\"report\":{\"schema\":\"sunmap-report/1\",\"x\":1}}";
        assert_eq!(
            report_slice(envelope),
            Some("{\"schema\":\"sunmap-report/1\",\"x\":1}")
        );
        assert_eq!(report_slice("{\"ok\":false,\"error\":\"nope\"}"), None);
    }

    /// A peer that sends a length prefix but stalls mid-payload during
    /// a drain is abandoned after the stall cap — and the drop surfaces
    /// in the `write_timeouts` counter instead of vanishing silently.
    #[test]
    fn stalled_half_sent_payload_bumps_write_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut peer = TcpStream::connect(addr).expect("connect");
        let (mut stream, _) = listener.accept().expect("accept");
        // A short timeout keeps the 50-stall cap fast in a unit test.
        stream
            .set_read_timeout(Some(Duration::from_millis(2)))
            .expect("read timeout");

        // Length prefix promises 8 bytes; only 3 ever arrive.
        peer.write_all(&8u32.to_be_bytes()).unwrap();
        peer.write_all(b"abc").unwrap();
        peer.flush().unwrap();

        let drain = AtomicBool::new(true);
        let metrics = Metrics::new();
        let got = read_frame_draining(&mut stream, &drain, Some(&metrics.write_timeouts))
            .expect("stall is not an IO error");
        assert_eq!(got, None, "the stalled frame is abandoned");
        assert_eq!(metrics.write_timeouts.load(Ordering::Relaxed), 1);
        assert!(
            metrics.to_json().contains("\"write_timeouts\":1"),
            "{}",
            metrics.to_json()
        );
    }

    /// A frame nested past the JSON reader's depth cap is answered with
    /// an error, and the same connection keeps serving.
    #[test]
    fn deep_frame_gets_an_error_and_the_connection_survives() {
        let (addr_tx, addr_rx) = channel();
        thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve(&ServeConfig::default(), |addr| {
                    addr_tx.send(addr).expect("report addr")
                })
            });
            let addr = addr_rx.recv().expect("server comes up");
            let mut stream = TcpStream::connect(addr).expect("connect");

            let deep = roundtrip(&mut stream, &"[".repeat(50_000));
            assert!(deep.contains("\"ok\":false"), "{deep}");
            assert!(deep.contains("nesting deeper than"), "{deep}");
            let pong = roundtrip(&mut stream, "{\"op\":\"ping\"}");
            assert!(pong.contains("\"op\":\"ping\""), "{pong}");

            roundtrip(&mut stream, "{\"op\":\"shutdown\"}");
            server.join().expect("no panic").expect("clean shutdown");
        });
    }

    /// End-to-end in-process: ping, two explores (second is warm),
    /// stats, shutdown — and the log replays byte-identically.
    #[test]
    fn daemon_serves_warm_reports_and_a_replayable_log() {
        let log_path =
            std::env::temp_dir().join(format!("sunmap-serve-unit-{}.jsonl", std::process::id()));
        let config = ServeConfig {
            log_path: Some(log_path.clone()),
            ..ServeConfig::default()
        };
        let (addr_tx, addr_rx) = channel();
        // thread::scope (not bare spawn): the daemon thread is joined
        // before the scope ends and its panics propagate to the test.
        let summary = thread::scope(|scope| {
            let server =
                scope.spawn(|| serve(&config, |addr| addr_tx.send(addr).expect("report addr")));
            let addr = addr_rx.recv().expect("server comes up");
            let mut stream = TcpStream::connect(addr).expect("connect");

            let pong = roundtrip(&mut stream, "{\"op\":\"ping\"}");
            assert!(pong.contains("\"op\":\"ping\""), "{pong}");

            let req = ExploreRequest::new("dsp".parse().unwrap());
            let first = roundtrip(&mut stream, &request_frame(&req.to_json()));
            assert!(first.contains("\"cache_hit\":false"), "{first}");
            let second = roundtrip(&mut stream, &request_frame(&req.to_json()));
            assert!(second.contains("\"cache_hit\":true"), "{second}");
            assert_eq!(report_slice(&first), report_slice(&second));

            // The daemon's bytes match the one-shot runner's bytes.
            let oneshot = RequestRunner::new(1).run(&req).unwrap();
            assert_eq!(report_slice(&first), Some(oneshot.line.as_str()));

            // Bad frames are errors, not disconnects.
            let err = roundtrip(&mut stream, "{\"op\":\"warp\"}");
            assert!(err.contains("\"ok\":false"), "{err}");

            let stats = roundtrip(&mut stream, "{\"op\":\"stats\"}");
            assert!(
                stats.contains("\"schema\":\"sunmap-serve-metrics/1\""),
                "{stats}"
            );
            assert!(stats.contains("\"hits\":1"), "{stats}");

            let bye = roundtrip(&mut stream, "{\"op\":\"shutdown\"}");
            assert!(bye.contains("\"draining\":true"), "{bye}");
            server.join().expect("no panic").expect("clean shutdown")
        });
        assert_eq!(summary.explore_requests, 2);
        assert!(
            summary.metrics_json.contains("\"explore\":2"),
            "{}",
            summary.metrics_json
        );

        let replay = verify_replay(&log_path, 2).expect("log replays");
        assert_eq!(replay, ReplaySummary { replayed: 2 });

        // Tampering with a logged entry must fail the replay. The
        // first "capacity" on each line is the request's: bump it and
        // the replayed report no longer matches the logged bytes.
        let tampered = std::fs::read_to_string(&log_path).unwrap().replacen(
            "\"capacity\":500",
            "\"capacity\":501",
            1,
        );
        std::fs::write(&log_path, tampered).unwrap();
        assert!(
            verify_replay(&log_path, 2).is_err(),
            "tampered log must not verify"
        );
        let _ = std::fs::remove_file(&log_path);
    }
}
