//! Timing harness for the symbolic miss-equation tier: runs cold
//! `FindMisses` (serial set-skip, pre-pass on) with the tier off and on,
//! verifies the reports are byte-identical, records the fraction of
//! references answered in closed form and the formula-vs-enumeration wall
//! time, and writes the numbers to `BENCH_symbolic.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_symbolic --release -- \
//!     [--scale small|medium|paper] [--out BENCH_symbolic.json]
//! ```
//!
//! Beyond the per-workload rows the harness exercises the tier's two
//! clients end to end:
//!
//! * a padding sweep (`cme-opt`) over a streaming conflict program, with
//!   sampling width forced tiny so every model evaluation is planned
//!   exhaustively — the regime where closed forms replace enumeration;
//! * a parametric serve job: the second, never-before-seen problem size
//!   must be answered from closed forms (certificate hit, zero points
//!   enumerated) with a payload byte-identical to an enumerated run.
//!
//! Floors (hard process-exit failures, used by `scripts/ci.sh`; the wall
//! ratios are enforced at `--scale paper` only, where enumeration is
//! expensive enough for the ratio to be meaningful):
//! * evaluating the closed forms must beat the enumeration they replace by
//!   ≥ 100× on the best-closing workload;
//! * the padding sweep with the tier on must run ≥ 10× faster than the
//!   enumerated sweep, with an identical plan;
//! * at every scale: byte-identical reports, a fully closed streaming
//!   workload, a parametric certificate hit with zero enumerated points.

use cme_analysis::{
    CancelToken, Classifier, FindMisses, Report, SamplingOptions, Symbolic, SymbolicMode, Threads,
};
use cme_bench::{secs, timed, Scale, Table};
use cme_cache::CacheConfig;
use cme_ir::{LinExpr, Program, ProgramBuilder, SNode, SRef};
use cme_opt::{search_padding, PaddingOptions};
use cme_reuse::ReuseAnalysis;
use cme_serve::{CertStatus, Engine, Job};
use std::time::Duration;

struct Row {
    workload: String,
    points: u64,
    refs_total: u64,
    refs_closed: u64,
    points_closed: u64,
    off: Duration,
    on: Duration,
    formula: Duration,
}

/// Three equal streaming arrays — the tier's best case: every reference
/// closes, so the whole analysis reduces to formula evaluation.
fn stream3(elems: i64) -> Program {
    let mut b = ProgramBuilder::new("stream3");
    b.array("A", &[elems], 8);
    b.array("B", &[elems], 8);
    b.array("C", &[elems], 8);
    let i = LinExpr::var("I");
    b.push(SNode::loop_(
        "I",
        1,
        elems,
        vec![SNode::assign(
            SRef::new("C", vec![i.clone()]),
            vec![
                SRef::new("A", vec![i.clone()]),
                SRef::new("B", vec![i.clone()]),
            ],
        )],
    ));
    b.build().unwrap()
}

fn run(
    program: &Program,
    reuse: &ReuseAnalysis,
    cfg: CacheConfig,
    symbolic: SymbolicMode,
) -> (Report, Duration) {
    // Best of two: the second run rides warm caches, matching the serve
    // engine's steady state.
    let once = || {
        FindMisses::with_reuse(program, cfg, reuse.clone())
            .threads(Threads::Fixed(1))
            .symbolic(symbolic)
            .run()
    };
    let (a, ta) = timed(once);
    let (_, tb) = timed(once);
    (a, ta.min(tb))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_symbolic.json".to_string());

    let (stream_elems, sweep_elems) = match scale {
        Scale::Small => (4096i64, 8192i64),
        Scale::Medium => (16384, 24576),
        Scale::Paper => (65536, 65536),
    };
    let mut workloads: Vec<(String, Program)> = match scale {
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
    workloads.push((format!("stream3({stream_elems})"), stream3(stream_elems)));

    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    eprintln!(
        "bench_symbolic: scale {}, cache {cfg}, serial set-skip, prepass on",
        scale.label()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, program) in &workloads {
        // Reuse vectors are shared; only classification is being timed.
        let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());

        let (off, off_t) = run(program, &reuse, cfg, SymbolicMode::Off);
        eprintln!("{name}: symbolic-off {off_t:?}");
        let (on, on_t) = run(program, &reuse, cfg, SymbolicMode::On);
        let points: u64 = on.references().iter().map(|r| r.analyzed).sum();
        eprintln!(
            "{name}: symbolic-on {on_t:?} ({}/{} refs closed, {} of {points} points)",
            on.symbolic_refs_closed(),
            on.references().len(),
            on.symbolic_points_closed(),
        );
        assert_eq!(
            off.references(),
            on.references(),
            "{name}: symbolic-on and symbolic-off reports diverged"
        );
        assert_eq!(
            off.symbolic_refs_closed(),
            0,
            "{name}: off mode ran the tier"
        );

        // Formula-only wall time: build the closed forms directly (the
        // fallback decision is part of the cost; fallback refs are cheap to
        // reject and are *not* enumerated here).
        let cl = Classifier::new(program, &reuse, cfg);
        let (_, fa) = timed(|| Symbolic::build(&cl, &CancelToken::never()).unwrap());
        let (sym, fb) = timed(|| Symbolic::build(&cl, &CancelToken::never()).unwrap());
        assert_eq!(
            sym.refs_closed() as u64,
            on.symbolic_refs_closed(),
            "{name}"
        );

        rows.push(Row {
            workload: name.clone(),
            points,
            refs_total: on.references().len() as u64,
            refs_closed: on.symbolic_refs_closed(),
            points_closed: on.symbolic_points_closed(),
            off: off_t,
            on: on_t,
            formula: fa.min(fb),
        });
    }

    // --- cme-opt padding sweep, enumerated vs symbolic -------------------
    // Tiny interval width forces every model evaluation onto the
    // exhaustive plan, so the sweep is pure enumeration with the tier off
    // and pure formula evaluation with it on.
    let sweep_program = stream3(sweep_elems);
    let sweep_cfg = CacheConfig::new(2048, 32, 1).expect("valid geometry");
    let sweep_opts = |symbolic: SymbolicMode| PaddingOptions {
        sampling: SamplingOptions {
            width: 0.001,
            symbolic,
            ..PaddingOptions::default().sampling
        },
        ..PaddingOptions::default()
    };
    let (plan_off, sweep_off) =
        timed(|| search_padding(&sweep_program, sweep_cfg, &sweep_opts(SymbolicMode::Off)));
    eprintln!(
        "padding sweep: enumerated {sweep_off:?} ({} evaluations)",
        plan_off.evaluations
    );
    let (plan_on, sweep_on) =
        timed(|| search_padding(&sweep_program, sweep_cfg, &sweep_opts(SymbolicMode::On)));
    eprintln!("padding sweep: symbolic {sweep_on:?}");
    assert_eq!(plan_off, plan_on, "symbolic sweep picked a different plan");
    let sweep_speedup = sweep_off.as_secs_f64() / sweep_on.as_secs_f64().max(1e-9);

    // --- parametric serve job: never-seen size, zero enumeration ---------
    let engine = Engine::in_memory(64);
    let first = stream3(stream_elems);
    let mut job = Job::exact(&first, cfg);
    job.threads = Threads::Fixed(1);
    let (_, status, cert) = engine.run_parametric(&job).expect("parametric job");
    assert_eq!(
        status,
        CertStatus::New,
        "first size must mint the certificate"
    );
    assert!(cert.fully_closed(), "stream3 must close fully");
    let second = stream3(stream_elems + 1111);
    let mut job2 = Job::exact(&second, cfg);
    job2.threads = Threads::Fixed(1);
    let (outcome, status2, _) = engine.run_parametric(&job2).expect("parametric job");
    assert_eq!(
        status2,
        CertStatus::Hit,
        "second size must hit the certificate"
    );
    assert!(!outcome.from_store, "a new size cannot be a store hit");
    assert_eq!(
        outcome.enumerated_points, 0,
        "certificate hit must not enumerate"
    );
    // The closed-form answer must be byte-identical to an enumerated one.
    let mut plain = Job::exact(&second, cfg);
    plain.use_store = false;
    plain.threads = Threads::Fixed(1);
    let enumerated = engine.run(&plain).expect("enumerated reference run");
    assert!(enumerated.enumerated_points > 0);
    assert_eq!(
        *outcome.payload, *enumerated.payload,
        "parametric payload diverged from the enumerated payload"
    );
    eprintln!(
        "parametric serve: stream3({}) answered from the certificate, 0 of {} points enumerated",
        stream_elems + 1111,
        outcome.points
    );

    // --- report ----------------------------------------------------------
    let mut table = Table::new(&[
        "workload",
        "points",
        "refs closed",
        "points closed %",
        "off (s)",
        "on (s)",
        "formula (s)",
        "speedup",
        "closed-ref speedup",
    ]);
    let mut json_rows = Vec::new();
    let mut best_closed_speedup = 0.0f64;
    for r in &rows {
        let share = r.points_closed as f64 / r.points.max(1) as f64;
        let speedup = r.off.as_secs_f64() / r.on.as_secs_f64().max(1e-9);
        // Enumeration wall attributable to the points the tier closed,
        // against the cost of building + evaluating the formulas.
        let closed_speedup = r.off.as_secs_f64() * share / r.formula.as_secs_f64().max(1e-9);
        best_closed_speedup = best_closed_speedup.max(closed_speedup);
        table.row(vec![
            r.workload.clone(),
            r.points.to_string(),
            format!("{}/{}", r.refs_closed, r.refs_total),
            format!("{:.1}", 100.0 * share),
            secs(r.off),
            secs(r.on),
            secs(r.formula),
            format!("{speedup:.2}x"),
            format!("{closed_speedup:.0}x"),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"points\": {}, \"refs_total\": {}, \
             \"refs_closed\": {}, \"points_closed\": {}, \"closed_rate\": {:.4}, \
             \"off_ms\": {:.1}, \"on_ms\": {:.1}, \"formula_ms\": {:.3}, \
             \"speedup\": {:.2}, \"closed_ref_speedup\": {:.0}}}",
            r.workload,
            r.points,
            r.refs_total,
            r.refs_closed,
            r.points_closed,
            r.points_closed as f64 / r.points.max(1) as f64,
            r.off.as_secs_f64() * 1e3,
            r.on.as_secs_f64() * 1e3,
            r.formula.as_secs_f64() * 1e3,
            speedup,
            closed_speedup,
        ));
    }
    table.print();
    eprintln!(
        "padding sweep: {} -> {} ({sweep_speedup:.1}x), plans identical",
        secs(sweep_off),
        secs(sweep_on)
    );

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"threads\": 1,\n  \
         \"hw_threads\": {},\n  \"strategy\": \"set-skip\",\n  \"prepass\": \"on\",\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"padding_sweep\": {{\"workload\": \"stream3({})\", \"evaluations\": {}, \
         \"off_ms\": {:.1}, \"on_ms\": {:.1}, \"speedup\": {:.1}}},\n  \
         \"parametric\": {{\"workload\": \"stream3\", \"certificate\": \"hit\", \
         \"enumerated_points\": 0}}\n}}\n",
        scale.label(),
        cme_bench::hw_threads(),
        json_rows.join(",\n"),
        sweep_elems,
        plan_off.evaluations,
        sweep_off.as_secs_f64() * 1e3,
        sweep_on.as_secs_f64() * 1e3,
        sweep_speedup,
    );
    std::fs::write(&out, &json).expect("write BENCH_symbolic.json");
    eprintln!("-> {out}");

    // CI floors. The streaming workload must close fully at every scale.
    let stream = rows.last().expect("stream3 row");
    assert_eq!(
        stream.refs_closed, stream.refs_total,
        "stream3 no longer closes fully"
    );
    // Wall-clock ratios are only meaningful where enumeration is slow.
    if scale == Scale::Paper {
        assert!(
            best_closed_speedup >= 100.0,
            "closed forms no longer beat enumeration 100x: best {best_closed_speedup:.0}x"
        );
        assert!(
            sweep_speedup >= 10.0,
            "symbolic padding sweep below the 10x floor: {sweep_speedup:.1}x"
        );
    }
}
