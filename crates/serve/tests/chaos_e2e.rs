//! Fault-injection end-to-end tests: the daemon under a seeded chaos plan
//! must answer every request with either exact bytes or a structured,
//! retryable error — and must survive all of it.

use cme_serve::client::{call_with_retry, RetryPolicy};
use cme_serve::json::Json;
use cme_serve::server::MAX_LINE_BYTES;
use cme_serve::{Client, FaultPlan, Server, ServerOptions};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cme-chaos-{tag}-{}", std::process::id()))
}

struct Daemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Boots a daemon with the given chaos spec (empty = no faults) and a
    /// tweak hook for the rest of the options.
    fn start(chaos: &str, tweak: impl FnOnce(&mut ServerOptions)) -> Daemon {
        let mut options = ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        };
        if !chaos.is_empty() {
            options.faults = Some(Arc::new(FaultPlan::parse(chaos).expect("chaos spec")));
        }
        tweak(&mut options);
        let server = Server::bind(options).expect("bind");
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }

    fn stats(&self) -> Json {
        self.client()
            .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
            .unwrap()
            .get("stats")
            .unwrap()
            .clone()
    }

    fn shutdown(mut self) {
        let resp = self
            .client()
            .request(&Json::parse(r#"{"cmd":"shutdown"}"#).unwrap())
            .expect("shutdown response");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("server thread")
            .expect("server exit");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            if let Ok(mut c) = Client::connect(self.addr) {
                let _ = c.request_line(r#"{"cmd":"shutdown"}"#);
            }
            let _ = t.join();
        }
    }
}

fn report_bytes(line: &str) -> &str {
    let start = line.find(r#""report":"#).expect("has report") + r#""report":"#.len();
    let end = line.find(r#","metrics":"#).expect("has metrics");
    &line[start..end]
}

/// Injected worker panics are answered with a structured `internal_error`
/// and the daemon keeps serving; once the cap is spent the same request
/// succeeds with correct bytes.
#[test]
fn worker_panics_are_isolated_and_counted() {
    let daemon = Daemon::start("seed=3,panic=1000x2", |_| {});
    let mut client = daemon.client();
    let req = r#"{"cmd":"analyze","workload":"mmt","n":16,"mode":"exact","cache":4096}"#;

    for attempt in 0..2 {
        let resp = Json::parse(&client.request_line(req).unwrap()).unwrap();
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "attempt {attempt}"
        );
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("internal_error"));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
    }
    // Cap exhausted: the job now runs and the connection survived both
    // panics (same client object throughout).
    let ok_line = client.request_line(req).unwrap();
    let ok = Json::parse(&ok_line).unwrap();
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok_line}");

    let stats = daemon.stats();
    assert_eq!(stats.get("panics_caught").unwrap().as_u64(), Some(2));

    // Fault-free daemon: byte-identity of the post-panic answer.
    let clean = Daemon::start("", |_| {});
    let clean_line = clean.client().request_line(req).unwrap();
    assert_eq!(report_bytes(&ok_line), report_bytes(&clean_line));
    clean.shutdown();
    daemon.shutdown();
}

/// Identical concurrent cold queries run the analysis once; everyone gets
/// the same bytes (single-flight followers or store hits).
#[test]
fn single_flight_coalesces_identical_cold_queries() {
    // Every compute sleeps 10–100 ms, giving followers a window to pile in.
    let daemon = Daemon::start("seed=11,analysis-delay=1000", |o| o.workers = 4);
    let req = r#"{"cmd":"analyze","workload":"hydro","n":24,"mode":"exact","cache":4096}"#;

    let lines: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| daemon.client().request_line(req).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for line in &lines {
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(report_bytes(line), report_bytes(&lines[0]), "same bytes");
    }
    let stats = daemon.stats();
    assert_eq!(
        stats.get("store_misses").unwrap().as_u64(),
        Some(1),
        "the analysis ran exactly once"
    );
    let hits = stats.get("store_hits").unwrap().as_u64().unwrap();
    let waits = stats.get("single_flight_waits").unwrap().as_u64().unwrap();
    assert_eq!(hits + waits, 3, "everyone else coalesced or hit");
    daemon.shutdown();
}

/// With one worker busy and a zero-length queue, the next analysis is shed
/// with a structured `retry_after` — and the daemon recovers once the
/// worker frees up.
#[test]
fn overload_sheds_with_retry_after() {
    let daemon = Daemon::start("", |o| {
        o.workers = 1;
        o.max_queue = 0;
    });

    // Occupy the only worker for ~1 s (big exact job, bounded by deadline).
    let busy = {
        let mut c = daemon.client();
        std::thread::spawn(move || {
            // Exact MMT at n=128 takes several seconds even on the default
            // pipeline (n=100 alone takes ~3.7 s on 2 cores), so the worker
            // is reliably busy until the 1 s deadline trips.
            c.request_line(
                r#"{"cmd":"analyze","workload":"mmt","n":128,"mode":"exact","store":false,"timeout_ms":1000}"#,
            )
            .unwrap()
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));

    let shed = Json::parse(
        &daemon
            .client()
            .request_line(r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact"}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(shed.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(shed.get("kind").unwrap().as_str(), Some("retry_after"));
    assert_eq!(shed.get("retryable"), Some(&Json::Bool(true)));
    assert!(shed.get("retry_after_ms").unwrap().as_u64().unwrap() >= 1);

    let busy_resp = Json::parse(&busy.join().unwrap()).unwrap();
    assert_eq!(busy_resp.get("kind").unwrap().as_str(), Some("timeout"));

    // Worker free again: the shed job now runs.
    let retry = Json::parse(
        &daemon
            .client()
            .request_line(r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact"}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(retry.get("ok"), Some(&Json::Bool(true)));

    let stats = daemon.stats();
    assert!(stats.get("shed_requests").unwrap().as_u64().unwrap() >= 1);
    daemon.shutdown();
}

/// Injected dropped connections look like mid-stream EOF to the client;
/// `call_with_retry` reconnects and lands the request.
#[test]
fn client_retries_through_dropped_connections() {
    let daemon = Daemon::start("seed=5,drop-conn=1000x2", |_| {});

    // No retries: the first attempt dies with a transport error.
    let bare = call_with_retry(
        daemon.addr,
        r#"{"cmd":"ping"}"#,
        &RetryPolicy::with_retries(0),
    );
    assert!(bare.is_err(), "dropped connection surfaces without retries");

    // With retries: the cap (2 drops) is outlasted.
    let mut policy = RetryPolicy::with_retries(4);
    policy.base = std::time::Duration::from_millis(1);
    let line = call_with_retry(daemon.addr, r#"{"cmd":"ping"}"#, &policy).expect("retried through");
    let v = Json::parse(&line).unwrap();
    assert_eq!(v.get("pong"), Some(&Json::Bool(true)));
    daemon.shutdown();
}

/// An oversized request line gets a structured `line_too_long` error, not
/// unbounded buffering — and the daemon stays up for the next client.
#[test]
fn oversized_line_is_rejected_structurally() {
    let daemon = Daemon::start("", |_| {});
    let mut client = daemon.client();

    let mut line = vec![b'x'; MAX_LINE_BYTES + 16];
    line.push(b'\n');
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(daemon.addr).unwrap();
    raw.write_all(&line).unwrap();
    raw.flush().unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let v = Json::parse(resp.trim()).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(v.get("kind").unwrap().as_str(), Some("line_too_long"));
    // The connection is closed after the error...
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0);

    // ...but the daemon is fine.
    let pong = client
        .request(&Json::parse(r#"{"cmd":"ping"}"#).unwrap())
        .unwrap();
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
    daemon.shutdown();
}

/// `ping` exposes queue and store gauges; `compact` rewrites the log live
/// and reports what it dropped.
#[test]
fn ping_gauges_and_live_compaction() {
    let dir = temp_path("compact-live");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start("", |o| o.store_dir = Some(dir.clone()));
    let mut client = daemon.client();

    let req = r#"{"cmd":"analyze","workload":"mmt","n":16,"mode":"exact","cache":4096}"#;
    let first = Json::parse(&client.request_line(req).unwrap()).unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));

    let ping = client
        .request(&Json::parse(r#"{"cmd":"ping"}"#).unwrap())
        .unwrap();
    assert_eq!(ping.get("pong"), Some(&Json::Bool(true)));
    assert_eq!(ping.get("store_entries").unwrap().as_u64(), Some(1));
    let disk = ping.get("store_disk_bytes").unwrap().as_u64().unwrap();
    assert!(disk > 0, "the result landed on disk");
    assert_eq!(ping.get("store_live_bytes").unwrap().as_u64(), Some(disk));
    assert_eq!(ping.get("store_dead_bytes").unwrap().as_u64(), Some(0));

    let compact = client
        .request(&Json::parse(r#"{"cmd":"compact"}"#).unwrap())
        .unwrap();
    assert_eq!(compact.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(compact.get("after_bytes").unwrap().as_u64(), Some(disk));
    assert_eq!(compact.get("frames").unwrap().as_u64(), Some(1));
    assert_eq!(compact.get("dropped_bytes").unwrap().as_u64(), Some(0));

    // The store still answers (hot) after compaction.
    let hot = Json::parse(&client.request_line(req).unwrap()).unwrap();
    assert_eq!(
        hot.get("metrics").unwrap().get("store").unwrap().as_str(),
        Some("hit")
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
