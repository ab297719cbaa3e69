//! Timing harness for the definitely-hit/definitely-miss pre-pass: times
//! cold serial `FindMisses` (whose pipeline runs the pre-pass) against the
//! same classification without it — a serial
//! `Classifier::classify_with_scratch` loop over every point — verifies
//! the per-reference tallies agree, records the resolution rate (share of
//! points the pre-pass settled without an interference walk) and writes
//! the numbers to `BENCH_prepass.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_prepass --release -- \
//!     [--scale small|medium|paper] [--out BENCH_prepass.json]
//! ```
//!
//! `--scale paper` uses the paper's problem sizes (MMT N=BJ=100, BK=50,
//! Hydro 100×100, MGRID 100); the default `small` is a CI smoke size.
//!
//! Floors (hard process-exit failures, used by `scripts/ci.sh`):
//! * MMT resolution rate ≥ 50% — the pre-pass must settle at least half of
//!   the blocked-matmul points, else it has regressed into Unknown.
//! * Pre-pass-on wall ≤ pre-pass-off wall on MMT (best-of-2 each) — the
//!   pre-pass must pay for itself where it resolves.

use cme_analysis::parallel::Tally;
use cme_analysis::{Classifier, FindMisses, Report, Scratch, Threads};
use cme_bench::{timed, Scale, Table};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::time::Duration;

struct Row {
    workload: String,
    points: u64,
    resolved: u64,
    off: Duration,
    on: Duration,
}

/// Best of two runs: the second rides warm caches, which is what the
/// serve engine's steady state looks like.
fn best_of_two<T>(f: impl Fn() -> T) -> (T, Duration) {
    let (a, ta) = timed(&f);
    let (_, tb) = timed(&f);
    (a, ta.min(tb))
}

/// The pipeline with the pre-pass on: serial `FindMisses`.
fn with_prepass(program: &Program, reuse: &ReuseAnalysis, cfg: CacheConfig) -> Report {
    FindMisses::with_reuse(program, cfg, reuse.clone())
        .threads(Threads::Fixed(1))
        .run()
}

/// The same classification with the pre-pass off: every point of every
/// reference through the set-skip walk, serially.
fn without_prepass(program: &Program, reuse: &ReuseAnalysis, cfg: CacheConfig) -> Vec<Tally> {
    let classifier = Classifier::new(program, reuse, cfg);
    let mut scratch = Scratch::new();
    (0..program.references().len())
        .map(|r| {
            let mut tally = Tally::default();
            program.ris(r).for_each_point(|point| {
                tally.bump(classifier.classify_with_scratch(r, point, &mut scratch));
            });
            tally
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_prepass.json".to_string());

    let workloads: Vec<(String, Program)> = match scale {
        Scale::Small => vec![
            ("mmt(N=16,BJ=16,BK=8)".into(), cme_workloads::mmt(16, 16, 8)),
            ("hydro(24x24)".into(), cme_workloads::hydro(24, 24)),
            ("mgrid(12)".into(), cme_workloads::mgrid(12)),
        ],
        Scale::Medium => vec![
            (
                "mmt(N=40,BJ=40,BK=20)".into(),
                cme_workloads::mmt(40, 40, 20),
            ),
            ("hydro(60x60)".into(), cme_workloads::hydro(60, 60)),
            ("mgrid(40)".into(), cme_workloads::mgrid(40)),
        ],
        Scale::Paper => vec![
            (
                "mmt(N=100,BJ=100,BK=50)".into(),
                cme_workloads::mmt(100, 100, 50),
            ),
            ("hydro(100x100)".into(), cme_workloads::hydro(100, 100)),
            ("mgrid(100)".into(), cme_workloads::mgrid(100)),
        ],
    };

    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    eprintln!(
        "bench_prepass: scale {}, cache {cfg}, serial set-skip",
        scale.label()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, program) in &workloads {
        // Reuse vectors are shared; only classification is being timed.
        let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());

        let (off, off_t) = best_of_two(|| without_prepass(program, &reuse, cfg));
        eprintln!("{name}: prepass-off {off_t:?}");
        let (on, on_t) = best_of_two(|| with_prepass(program, &reuse, cfg));
        let points: u64 = on.references().iter().map(|r| r.analyzed).sum();
        eprintln!(
            "{name}: prepass-on {on_t:?} ({}/{points} resolved)",
            on.prepass_resolved()
        );
        let on_tallies: Vec<Tally> = on
            .references()
            .iter()
            .map(|r| Tally {
                cold: r.cold,
                replacement: r.replacement,
                hits: r.hits,
            })
            .collect();
        assert_eq!(
            off, on_tallies,
            "{name}: prepass-on and prepass-off tallies diverged"
        );

        rows.push(Row {
            workload: name.clone(),
            points,
            resolved: on.prepass_resolved(),
            off: off_t,
            on: on_t,
        });
    }

    let mut table = Table::new(&[
        "workload",
        "points",
        "resolved %",
        "off (s)",
        "on (s)",
        "speedup",
    ]);
    let mut json_rows = Vec::new();
    for r in &rows {
        let rate = r.resolved as f64 / r.points.max(1) as f64;
        let speedup = r.off.as_secs_f64() / r.on.as_secs_f64().max(1e-9);
        table.row(vec![
            r.workload.clone(),
            r.points.to_string(),
            format!("{:.1}", 100.0 * rate),
            cme_bench::secs(r.off),
            cme_bench::secs(r.on),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"points\": {}, \"resolved\": {}, \
             \"resolved_rate\": {:.4}, \"off_ms\": {:.1}, \"on_ms\": {:.1}, \
             \"speedup\": {:.2}}}",
            r.workload,
            r.points,
            r.resolved,
            rate,
            r.off.as_secs_f64() * 1e3,
            r.on.as_secs_f64() * 1e3,
            speedup,
        ));
    }
    table.print();

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"threads\": 1,\n  \"hw_threads\": {},\n  \"strategy\": \"set-skip\",\n  \"prepass\": \"on-vs-off\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        scale.label(),
        cme_bench::hw_threads(),
        json_rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_prepass.json");
    eprintln!("-> {out}");

    // CI floors. MMT is the workload the pre-pass is built for: long
    // streaming rows with uniform verdicts.
    let mmt = rows
        .iter()
        .find(|r| r.workload.starts_with("mmt"))
        .expect("mmt row");
    let rate = mmt.resolved as f64 / mmt.points.max(1) as f64;
    assert!(
        rate >= 0.5,
        "pre-pass resolution regressed on {}: {:.1}% < 50%",
        mmt.workload,
        100.0 * rate
    );
    // At small scale the MMT walls are single-digit milliseconds, where
    // scheduler noise on a 1-CPU host swamps the real margin; allow 10%
    // there and stay strict where the measurement is meaningful.
    let tolerance = if scale == Scale::Small { 1.10 } else { 1.0 };
    assert!(
        mmt.on.as_secs_f64() <= mmt.off.as_secs_f64() * tolerance,
        "pre-pass no longer pays for itself on {}: on {:?} > off {:?}",
        mmt.workload,
        mmt.on,
        mmt.off
    );
}
