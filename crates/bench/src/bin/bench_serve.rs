//! Timing harness for the analysis service's content-addressed result
//! store: runs the same exact MMT analysis twice through one `Engine` —
//! cold (full classification) then hot (store fetch) — verifies the two
//! payloads are byte-identical, then repeats the hot query over TCP
//! through an in-process `Server` and `Client`, and writes the numbers to
//! `BENCH_serve.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_serve --release -- \
//!     [--scale small|medium|paper] [--threads N] [--out BENCH_serve.json]
//! ```
//!
//! At `--scale paper` (MMT N=BJ=100, BK=50 on the paper's 32KB/32B/2-way
//! cache) the harness asserts the hot query is at least 100x faster than
//! the cold one — the whole point of a persistent service: the second
//! asker pays a hash lookup, not a whole-program analysis. At every scale
//! it asserts the median hot round trip over the wire is under 20 ms:
//! each NDJSON frame leaves in one write with Nagle off, so no segment
//! waits out the peer's delayed ACK (about 40 ms).

use cme_bench::{timed, Scale};
use cme_cache::CacheConfig;
use cme_serve::{Client, Job, Server, ServerOptions};
use std::time::Duration;

/// Hot queries per leg, each verified byte-identical.
const HOT_QUERIES: usize = 200;

/// Median and 99th percentile of a latency sample.
fn p50_p99(mut lat: Vec<Duration>) -> (Duration, Duration) {
    lat.sort();
    (lat[lat.len() / 2], lat[lat.len() * 99 / 100])
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let threads = cme_bench::threads_from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let (n, bj, bk) = match scale {
        Scale::Small => (24, 12, 6),
        Scale::Medium => (48, 24, 12),
        Scale::Paper => (100, 100, 50),
    };
    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    let program = cme_workloads::mmt(n, bj, bk);
    eprintln!(
        "MMT (N={n}, BJ={bj}, BK={bk}): {} accesses, cache {cfg}, {} threads",
        program.total_accesses(),
        threads.count()
    );

    // The in-process legs run on the server's own engine, so the wire leg
    // answers from the store the cold run filled.
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServerOptions::default()
    })
    .expect("bind the in-process server");
    let addr = server.local_addr().expect("server address");
    let engine = server.engine();
    let job = {
        let mut j = Job::exact(&program, cfg);
        j.threads = threads;
        j
    };

    let (cold, cold_t) = timed(|| engine.run(&job).expect("no deadline"));
    assert!(!cold.from_store, "first run must be cold");
    eprintln!("cold: {cold_t:?} ({} points)", cold.points);

    // The hot path measured properly: N repeat queries, each verified
    // byte-identical (the tentpole guarantee — repeat queries return the
    // stored bytes), with the latency distribution rather than a single
    // possibly-lucky sample.
    let mut hot_lat = Vec::with_capacity(HOT_QUERIES);
    for _ in 0..HOT_QUERIES {
        let (hot, hot_t) = timed(|| engine.run(&job).expect("no deadline"));
        assert!(hot.from_store, "repeat run must hit the store");
        assert_eq!(
            cold.payload.as_str(),
            hot.payload.as_str(),
            "hot payload must be byte-identical to the cold one"
        );
        assert_eq!(cold.fingerprint, hot.fingerprint);
        hot_lat.push(hot_t);
    }
    let (hot_t, hot_p99) = p50_p99(hot_lat);
    let (p50_us, p99_us) = (micros(hot_t), micros(hot_p99));
    eprintln!("hot:  p50 {p50_us:.1}us  p99 {p99_us:.1}us over {HOT_QUERIES} queries");

    // The same hot query over TCP: request frame, store hit, response
    // frame. The report is spliced verbatim, so the stored payload must
    // appear byte for byte behind the fingerprint.
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    let request = format!(
        r#"{{"cmd":"analyze","workload":"mmt","n":{n},"bj":{bj},"bk":{bk},"mode":"exact","geometry":"{}"}}"#,
        cfg.geometry_string()
    );
    let expected = format!(
        r#"{{"ok":true,"fingerprint":"{}","report":{},"metrics":{{"store":"hit","#,
        cold.fingerprint,
        cold.payload.as_str()
    );
    let mut wire_lat = Vec::with_capacity(HOT_QUERIES);
    for _ in 0..HOT_QUERIES {
        let (line, t) = timed(|| client.request_line(&request).expect("wire round trip"));
        assert!(
            line.starts_with(&expected),
            "wire hot answer must be a store hit carrying the cold payload byte for byte"
        );
        wire_lat.push(t);
    }
    let (wire_p50, wire_p99) = p50_p99(wire_lat);
    let (wire_p50_us, wire_p99_us) = (micros(wire_p50), micros(wire_p99));
    eprintln!("wire: p50 {wire_p50_us:.1}us  p99 {wire_p99_us:.1}us over {HOT_QUERIES} queries");
    client
        .request_line(r#"{"cmd":"shutdown"}"#)
        .expect("shutdown the in-process server");
    daemon.join().expect("server thread").expect("server exit");
    assert!(
        wire_p50_us < 20_000.0,
        "median hot round trip over the wire must be under 20 ms, got {wire_p50_us:.0}us"
    );

    let speedup = cold_t.as_secs_f64() / hot_t.as_secs_f64().max(1e-9);
    if scale == Scale::Paper {
        assert!(
            speedup >= 100.0,
            "paper-size hot query must be >=100x faster than cold, got {speedup:.1}x"
        );
    }

    let json = format!(
        "{{\n  \"workload\": \"mmt(N={n},BJ={bj},BK={bk})\",\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"mode\": \"exact\",\n  \"points\": {},\n  \"cold_ms\": {:.3},\n  \"hot_ms\": {:.3},\n  \"hot_queries\": {HOT_QUERIES},\n  \"hot_p50_us\": {p50_us:.1},\n  \"hot_p99_us\": {p99_us:.1},\n  \"wire_hot_p50_us\": {wire_p50_us:.1},\n  \"wire_hot_p99_us\": {wire_p99_us:.1},\n  \"speedup\": {speedup:.1},\n  \"threads\": {},\n  \"hw_threads\": {},\n  \"strategy\": \"set-skip\",\n  \"fingerprint\": \"{}\"\n}}\n",
        scale.label(),
        cold.points,
        cold_t.as_secs_f64() * 1e3,
        hot_t.as_secs_f64() * 1e3,
        threads.count(),
        cme_bench::hw_threads(),
        cold.fingerprint,
    );
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    eprintln!("speedup {speedup:.1}x -> {out}");
    print!("{json}");
}
