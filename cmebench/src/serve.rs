//! `serve-mixed`: a live `cme_serve::Server` on an ephemeral localhost port
//! with a disk store in a fresh directory, driven by a closed loop of
//! [`CONNECTIONS`] `cme_serve::Client`s (the client `cme query` uses).
//!
//! The seed builds a schedule of batches. Every batch holds the same mix:
//! 70 % hot exact `analyze` repeats of a warm set computed during set-up,
//! 20 % cold exact `analyze` on Hydro and MMT sizes drawn without
//! replacement, and 10 % two-cell `sweep`s of a warm program, one cell
//! already stored and one new. The loop is closed because serve's callers
//! (IDEs, `cme-opt`, sweeps) each wait for their reply. The wire, the store
//! and the queue dominate; classification is a minor share.

use crate::oracle::{Expected, Oracle};
use crate::{stats, Ctx, Outcome, Rng, CLASSES};
use cme_cache::{CacheConfig, Simulator};
use cme_ir::Program;
use cme_serve::{Client, Json, ProgramSpec, Server, ServerOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Client connections in the closed loop.
pub const CONNECTIONS: usize = 2;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;
/// One batch: hot repeats, cold Hydro, cold MMT and sweeps.
const BATCH: (usize, usize, usize, usize) = (28, 4, 4, 4);
/// Cold Hydro sizes (`JN = KN = n`, warm sizes excluded), each drawn at
/// most once per run.
const COLD_HYDRO: std::ops::Range<i64> = 20..100;
/// Cold MMT sizes: `N` in this range with `BJ` in `{N, N/2}` and `BK` in
/// `{N/2, N/4}`, each drawn at most once per run. Default-blocked MMT at
/// odd `N` past 30 costs seconds, which would make the tail a lottery.
const COLD_MMT_N: std::ops::RangeInclusive<i64> = 16..=28;
/// New geometries for the second cell of a sweep.
const SWEEP_GEOMETRIES: [&str; 18] = [
    "8K:1:32", "8K:2:32", "8K:4:32", "16K:1:32", "16K:2:32", "16K:4:32", "64K:1:32", "64K:2:32",
    "64K:4:32", "8K:1:64", "8K:2:64", "8K:4:64", "16K:1:64", "16K:2:64", "16K:4:64", "64K:1:64",
    "64K:2:64", "64K:4:64",
];

pub const INPUTS: &str = "warm set hydro 24/40, mgrid 12/20, mmt 24/40 (exact, 32K:2:32); \
                          batches of 28 hot + 4 cold Hydro (n 20..100) + 4 cold MMT (N 16..=28, \
                          BJ N or N/2, BK N/2 or N/4) + 4 two-cell sweeps; disk store; \
                          closed loop";

/// Server analysis workers: one per hardware thread.
pub fn workers() -> usize {
    cme_analysis::Threads::Auto.count()
}

pub fn geometry() -> CacheConfig {
    crate::exact::geometry()
}

/// The warm set: computed during set-up, repeated as hot requests. MMT
/// uses the protocol's default blocking (`BJ = N/2`, `BK = N/4`).
pub const WARM: [Size; 6] = [
    Size {
        kernel: "hydro",
        n: 24,
        blocks: None,
    },
    Size {
        kernel: "hydro",
        n: 40,
        blocks: None,
    },
    Size {
        kernel: "mgrid",
        n: 12,
        blocks: None,
    },
    Size {
        kernel: "mgrid",
        n: 20,
        blocks: None,
    },
    Size {
        kernel: "mmt",
        n: 24,
        blocks: None,
    },
    Size {
        kernel: "mmt",
        n: 40,
        blocks: None,
    },
];

/// A bundled kernel at one size; `blocks` are MMT's `(BJ, BK)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Size {
    pub kernel: &'static str,
    pub n: i64,
    pub blocks: Option<(i64, i64)>,
}

impl Size {
    /// The program exactly as the server builds it.
    pub fn program(&self) -> Result<Program, String> {
        ProgramSpec::Workload {
            name: self.kernel.to_string(),
            n: self.n,
            iters: 1,
            bj: self.blocks.map(|b| b.0),
            bk: self.blocks.map(|b| b.1),
        }
        .build()
    }

    /// The same program with MMT's default blocking spelled out, so equal
    /// programs compare equal.
    fn canonical(&self) -> Size {
        let blocks = match (self.kernel, self.blocks) {
            ("mmt", None) => Some(((self.n / 2).max(1), (self.n / 4).max(1))),
            (_, b) => b,
        };
        Size { blocks, ..*self }
    }

    /// The request fields naming this program.
    fn fields(&self) -> String {
        let blocks = self.blocks.map_or(String::new(), |(bj, bk)| {
            format!(",\"bj\":{bj},\"bk\":{bk}")
        });
        format!("\"workload\":\"{}\",\"n\":{}{blocks}", self.kernel, self.n)
    }

    fn analyze_line(&self) -> String {
        format!(
            "{{\"cmd\":\"analyze\",{},\"mode\":\"exact\",\"geometry\":\"{}\"}}",
            self.fields(),
            geometry().geometry_string()
        )
    }
}

/// The oracle key of warm-set entry `w`.
pub fn warm_key(w: &Size) -> String {
    format!("warm.{}.{}", w.kernel, w.n)
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Repeat of warm-set entry `i`.
    Hot(usize),
    /// A never-seen size of a kernel.
    Cold(Size),
    /// Warm-set entry `i` at its stored geometry and at a new one.
    Sweep(usize, &'static str),
}

impl Job {
    /// Index into [`CLASSES`].
    fn class(&self) -> usize {
        match self {
            Job::Hot(_) => 0,
            Job::Cold(..) => 1,
            Job::Sweep(..) => 2,
        }
    }

    fn line(&self) -> String {
        match self {
            Job::Hot(i) => WARM[*i].analyze_line(),
            Job::Cold(size) => size.analyze_line(),
            Job::Sweep(i, g) => format!(
                "{{\"cmd\":\"sweep\",{},\"geometries\":[\"{}\",\"{g}\"]}}",
                WARM[*i].fields(),
                geometry().geometry_string()
            ),
        }
    }
}

/// The request schedule for `seed`: batches with a fixed mix, in a seeded
/// order, drawing cold sizes and new sweep geometries without replacement.
pub fn schedule(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed);
    let is_warm = |s: &Size| WARM.iter().any(|w| w.canonical() == s.canonical());
    let mut hydro: Vec<Size> = COLD_HYDRO
        .map(|n| Size {
            kernel: "hydro",
            n,
            blocks: None,
        })
        .filter(|s| !is_warm(s))
        .collect();
    let mut mmt: Vec<Size> = COLD_MMT_N
        .flat_map(|n| {
            [(n, n / 2), (n, n / 4), (n / 2, n / 2), (n / 2, n / 4)].map(|blocks| Size {
                kernel: "mmt",
                n,
                blocks: Some(blocks),
            })
        })
        .filter(|s| !is_warm(s))
        .collect();
    let mut sweeps: Vec<(usize, &'static str)> = (0..WARM.len())
        .flat_map(|w| SWEEP_GEOMETRIES.iter().map(move |g| (w, *g)))
        .collect();
    rng.shuffle(&mut hydro);
    rng.shuffle(&mut mmt);
    rng.shuffle(&mut sweeps);
    let (hot, ch, cm, sw) = BATCH;
    let count = (hydro.len() / ch)
        .min(mmt.len() / cm)
        .min(sweeps.len() / sw);
    (0..count)
        .map(|b| {
            let mut jobs: Vec<Job> = (0..hot).map(|_| Job::Hot(rng.below(WARM.len()))).collect();
            jobs.extend(hydro[b * ch..(b + 1) * ch].iter().map(|&s| Job::Cold(s)));
            jobs.extend(mmt[b * cm..(b + 1) * cm].iter().map(|&s| Job::Cold(s)));
            jobs.extend(
                sweeps[b * sw..(b + 1) * sw]
                    .iter()
                    .map(|&(w, g)| Job::Sweep(w, g)),
            );
            rng.shuffle(&mut jobs);
            jobs
        })
        .collect()
}

/// The byte span of the JSON value of top-level key `key` in `line`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let bytes = line.as_bytes();
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A running server with its connected clients and warm set.
struct Live {
    addr: std::net::SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    /// Raw report bytes of each warm-set entry's first answer.
    warm: Vec<String>,
    /// Exact miss count of each warm-set entry.
    warm_misses: Vec<u64>,
    dir: PathBuf,
}

impl Live {
    fn start(index: usize, oracle: &Oracle) -> Result<Live, String> {
        let dir = crate::out_dir().join(format!("serve-{}-{index}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: workers(),
            store_dir: Some(dir.clone()),
            store_capacity: 4096,
            ..ServerOptions::default()
        })
        .map_err(|e| format!("server bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let mut live = Live {
            addr,
            server: Some(std::thread::spawn(move || server.run())),
            clients: Vec::new(),
            warm: Vec::new(),
            warm_misses: Vec::new(),
            dir,
        };
        for _ in 0..CONNECTIONS {
            live.clients
                .push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        for w in WARM {
            let key = warm_key(&w);
            let line = live.clients[0]
                .request_line(&w.analyze_line())
                .map_err(|e| format!("warm {key}: {e}"))?;
            let misses =
                exact_misses(&line).ok_or_else(|| format!("warm {key}: bad response {line}"))?;
            let want = oracle.get(&key)?;
            if Some(misses) != want.excess.map(|e| want.misses + e) {
                return Err(format!("warm {key}: {misses} misses, oracle disagrees"));
            }
            live.warm
                .push(raw_field(&line, "report").unwrap_or_default().to_string());
            live.warm_misses.push(misses);
        }
        Ok(live)
    }

    fn stats(&mut self) -> Result<Json, String> {
        let line = self.clients[0]
            .request_line("{\"cmd\":\"stats\"}")
            .map_err(|e| format!("stats: {e}"))?;
        let v = Json::parse(&line).map_err(|e| e.to_string())?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats: {line}"))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.request_line("{\"cmd\":\"shutdown\"}");
        }
        self.clients.clear();
        if let Some(handle) = self.server.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The exact miss count in an `analyze` response.
fn exact_misses(line: &str) -> Option<u64> {
    let v = Json::parse(line).ok()?;
    (v.get("ok")?.as_bool()? && v.get("report")?.get("mode")?.as_str()? == "exact")
        .then(|| v.get("report")?.get("exact_misses")?.as_u64())
        .flatten()
}

/// One completed request.
struct Record {
    job: Job,
    rtt: f64,
    response: Result<String, String>,
}

/// Runs one batch over the connections; returns the records and the
/// batch's wall time.
fn run_batch(
    live: &mut Live,
    jobs: &[Job],
    first_rid: u64,
    ctx: &Ctx,
    root: Option<u64>,
) -> (Vec<Record>, f64) {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    let addr = live.addr;
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in live.clients.iter_mut() {
            let (next, records) = (&next, &records);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let line = job.line();
                let t = Instant::now();
                let response = ctx
                    .rec
                    .span("serve.request", root, first_rid + i as u64, |_| {
                        client.request_line(&line)
                    });
                let rtt = t.elapsed().as_secs_f64();
                if response.is_err() {
                    if let Ok(c) = Client::connect(addr) {
                        *client = c;
                    }
                }
                records.lock().expect("records lock").push(Record {
                    job: job.clone(),
                    rtt,
                    response: response.map_err(|e| e.to_string()),
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (records.into_inner().expect("records lock"), wall)
}

/// Checks one record against the oracle; cold answers are checked later
/// against the simulator and returned for that.
fn check(live: &Live, rec: &Record) -> Result<Option<(Size, u64)>, String> {
    let line = rec.response.as_ref()?;
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response {line}"));
    }
    match &rec.job {
        Job::Hot(w) => {
            if raw_field(line, "report") != Some(live.warm[*w].as_str()) {
                return Err(format!(
                    "hot {} differs from its first answer",
                    warm_key(&WARM[*w])
                ));
            }
            Ok(None)
        }
        Job::Cold(size) => {
            let m = exact_misses(line).ok_or_else(|| format!("cold {size:?}: no exact count"))?;
            Ok(Some((*size, m)))
        }
        Job::Sweep(w, g) => {
            let cells = v.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
            let misses = |geom: &str| {
                cells
                    .iter()
                    .find(|c| c.get("geometry").and_then(Json::as_str) == Some(geom))
                    .and_then(|c| c.get("misses")?.as_u64())
            };
            let stored = misses(&geometry().geometry_string());
            if cells.len() != 2 || stored != Some(live.warm_misses[*w]) || misses(g).is_none() {
                return Err(format!(
                    "sweep {} {g}: bad cells {line}",
                    warm_key(&WARM[*w])
                ));
            }
            Ok(None)
        }
    }
}

/// A cold exact answer must equal the simulator on Hydro and may only
/// overestimate on MMT (its transposed pair is not uniformly generated).
fn check_cold(size: Size, misses: u64) -> Result<(), String> {
    let sim = Simulator::new(geometry())
        .run(&size.program()?)
        .total_misses();
    let ok = if size.kernel == "hydro" {
        misses == sim
    } else {
        misses >= sim
    };
    ok.then_some(())
        .ok_or_else(|| format!("cold {size:?}: exact {misses}, simulator {sim}"))
}

fn response_metric(rec: &Record, key: &str) -> Option<f64> {
    let v = Json::parse(rec.response.as_ref().ok()?).ok()?;
    Some(v.get("metrics")?.get(key)?.as_f64()? / 1000.0)
}

fn stat_delta(before: &Json, after: &Json, key: &str) -> f64 {
    let g = |j: &Json| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    g(after) - g(before)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::load()?;
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        drop(live.take());
        let t = Instant::now();
        live = Some(Live::start(i, &oracle)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let setup_s = stats::median(&setups).ok_or("no set-ups")?;

    let batches = schedule(ctx.seed);
    let before = live.stats()?;
    let mut records: Vec<(Record, bool)> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let untraced_until = if ctx.traced() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let start = Instant::now();
    for (b, jobs) in batches.iter().enumerate() {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= ctx.seconds {
            break;
        }
        let first_rid = (b * jobs.len()) as u64 + 1;
        let traced_batch = elapsed >= untraced_until;
        let recs = if traced_batch {
            let (recs, wall, root) = ctx.rec.span("bench.pass", None, 0, |root| {
                let (r, w) = run_batch(&mut live, jobs, first_rid, ctx, Some(root));
                (r, w, root)
            });
            traced.push((root, wall));
            recs
        } else {
            let (recs, wall) = run_batch(&mut live, jobs, first_rid, ctx, None);
            untraced.push(wall);
            recs
        };
        records.extend(recs.into_iter().map(|r| (r, traced_batch)));
    }
    let after = live.stats()?;
    if untraced.is_empty() {
        return Err("no untraced batch completed".into());
    }

    // Oracle checks, outside the measured window.
    for (rec, _) in &records {
        let verdict = check(&live, rec).and_then(|cold| match cold {
            Some((size, m)) => check_cold(size, m),
            None => Ok(()),
        });
        if let Err(e) = &verdict {
            eprintln!("serve-mixed: {e}");
        }
        out.tally(verdict.is_ok());
    }

    let rtts: Vec<f64> = records.iter().map(|(r, _)| r.rtt * 1000.0).collect();
    let window: f64 = untraced.iter().sum::<f64>() + traced.iter().map(|t| t.1).sum::<f64>();
    let p50 = stats::tail_percentile(&rtts, 50.0);
    let p90 = stats::tail_percentile(&rtts, 90.0);
    let rps = records.len() as f64 / window;
    crate::report_passes("serve-mixed batches", &untraced);
    println!(
        "serve-mixed: setup {setup_s:.4}s, {} requests, p50 {} ms, p90 {} ms, {rps:.2} req/s",
        records.len(),
        p50.map_or("n/a".into(), |v| format!("{v:.3}")),
        p90.map_or("n/a (fewer than 100 requests)".into(), |v| format!(
            "{v:.3}"
        )),
    );

    if ctx.traced() {
        let med_untraced = stats::median(&untraced).ok_or("no untraced batch")?;
        for (root, _) in &traced {
            out.add_self_times(&ctx.rec, *root, med_untraced);
        }
        for (c, class) in CLASSES.iter().enumerate() {
            let recs: Vec<&Record> = records
                .iter()
                .filter(|(r, t)| *t && r.job.class() == c)
                .map(|(r, _)| r)
                .collect();
            let series = |f: &dyn Fn(&Record) -> Option<f64>| -> f64 {
                let v: Vec<f64> = recs.iter().filter_map(|r| f(r)).collect();
                stats::median(&v).unwrap_or(0.0)
            };
            let engine = |r: &Record| response_metric(r, "wall_us");
            let queue = |r: &Record| response_metric(r, "queue_wait_us");
            out.set(
                format!("serve.rtt_ms.{class}"),
                series(&|r| Some(r.rtt * 1000.0)),
            );
            out.set(format!("serve.engine_ms.{class}"), series(&engine));
            out.set(format!("serve.queue_ms.{class}"), series(&queue));
            out.set(
                format!("serve.wire_ms.{class}"),
                series(&|r| Some(r.rtt * 1000.0 - engine(r)? - queue(r)?)),
            );
        }
        out.set("serve.req_p50_ms", p50.unwrap_or(0.0));
        out.set("serve.req_p90_ms", p90.unwrap_or(0.0));
        out.set("serve.rps", rps);
        let hits = stat_delta(&before, &after, "store_hits");
        let lookups = hits + stat_delta(&before, &after, "store_misses");
        out.set("serve.store_hit_pct", 100.0 * hits / lookups.max(1.0));
        let disk = after
            .get("store_disk_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        out.set("serve.store_disk_kb", disk / 1024.0);
        let cells = stat_delta(&before, &after, "sweep_cells");
        let cell_hits = stat_delta(&before, &after, "sweep_cell_store_hits");
        out.set(
            "serve.sweep_cell_hit_pct",
            100.0 * cell_hits / cells.max(1.0),
        );
        for key in ["single_flight_waits", "shed_requests"] {
            out.set(format!("serve.{key}"), stat_delta(&before, &after, key));
        }
    } else {
        let mut abs_err = 0u64;
        let mut err_pts: f64 = 0.0;
        for (w, misses) in WARM.iter().zip(&live.warm_misses) {
            let want: Expected = oracle.get(&warm_key(w))?;
            let err = misses.abs_diff(want.misses);
            abs_err += err;
            err_pts = err_pts.max(100.0 * err as f64 / want.accesses as f64);
        }
        out.set("setup_s", setup_s);
        out.set("pass_s", stats::median(&untraced).ok_or("no batches")?);
        out.set("miss_abs_err", abs_err as f64);
        out.set("miss_err_pts", err_pts);
    }
    drop(live);
    out.finish_common()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colds(batches: &[Vec<Job>]) -> Vec<Size> {
        batches
            .iter()
            .flatten()
            .filter_map(|j| match j {
                Job::Cold(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7), schedule(7));
    }

    #[test]
    fn different_seed_different_cold_sizes() {
        assert_ne!(colds(&schedule(7)), colds(&schedule(8)));
    }

    #[test]
    fn batches_have_the_fixed_mix_and_colds_never_repeat() {
        let batches = schedule(3);
        assert!(batches.len() >= 12);
        for b in &batches {
            let count = |c| b.iter().filter(|j| j.class() == c).count();
            assert_eq!((count(0), count(1), count(2)), (28, 8, 4));
        }
        let mut seen = colds(&batches);
        let n = seen.len();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), n);
        // No cold program is a warm one under another name.
        let warm: Vec<Size> = WARM.iter().map(Size::canonical).collect();
        assert!(seen.iter().all(|s| !warm.contains(&s.canonical())));
    }

    #[test]
    fn raw_field_extracts_nested_objects() {
        let line = r#"{"ok":true,"report":{"a":"}\"{","b":[1,{"c":2}]},"metrics":{}}"#;
        assert_eq!(
            raw_field(line, "report"),
            Some(r#"{"a":"}\"{","b":[1,{"c":2}]}"#)
        );
        assert_eq!(raw_field(line, "nope"), None);
    }
}
