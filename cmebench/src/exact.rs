//! `paper-exact`: the Table 3 row at the paper's 32KB/32B/2-way geometry.
//! Exact `FindMisses` with the default pipeline on Hydro, MGRID and MMT,
//! plus render. The pre-pass and the walk do almost all the work; reuse
//! generation costs milliseconds. The seed is ignored: the inputs are the
//! paper's.

use crate::oracle::{Expected, Oracle};
use crate::span::Recorder;
use crate::{Ctx, Outcome, KERNELS};
use cme_analysis::{CancelToken, Classifier, FindMisses, Prepass, Report, Symbolic};
use cme_cache::{CacheConfig, Simulator};
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::time::Instant;

pub const INPUTS: &str = "Hydro JN=KN=100, MGRID M=100, MMT N=BJ=100 BK=50; \
                          exact FindMisses, default pipeline; cache 32K:2:32";

/// The Table 3 geometry.
pub fn geometry() -> CacheConfig {
    CacheConfig::new(32 * 1024, 32, 2).expect("paper geometry")
}

/// The three kernels at the paper's sizes, keyed as in [`KERNELS`].
pub fn kernels() -> Vec<(&'static str, Program)> {
    vec![
        (KERNELS[0], cme_workloads::hydro(100, 100)),
        (KERNELS[1], cme_workloads::mgrid(100)),
        (KERNELS[2], cme_workloads::mmt(100, 100, 50)),
    ]
}

/// Checks one exact report against the oracle: it must exceed the
/// simulator by exactly the recorded overcount.
fn check(key: &str, report: &Report, want: Expected) -> Result<(), String> {
    let found = report
        .exact_misses()
        .ok_or_else(|| format!("{key}: no exact count"))?;
    let excess = want
        .excess
        .ok_or_else(|| format!("{key}: oracle has no excess"))?;
    if report.total_accesses() != want.accesses || found != want.misses + excess {
        return Err(format!(
            "{key}: exact {found} misses of {} accesses, oracle expects {} + {excess} of {}",
            report.total_accesses(),
            want.misses,
            want.accesses
        ));
    }
    Ok(())
}

struct Input {
    key: &'static str,
    program: Program,
    want: Expected,
}

/// Builds the kernels and confirms the oracle against the simulator.
fn setup() -> Result<Vec<Input>, String> {
    let oracle = Oracle::load()?;
    kernels()
        .into_iter()
        .map(|(key, program)| {
            let want = oracle.confirm(&format!("paper.{key}"), &program, geometry())?;
            Ok(Input { key, program, want })
        })
        .collect()
}

/// One kernel's result in a pass.
struct Analysis<'p> {
    find: FindMisses<'p>,
    report: Report,
    text: String,
}

/// One pass: reuse generation, exact `FindMisses` and render per kernel,
/// each call in a span of `rec` (a disabled recorder records nothing).
/// Returns the wall time, the results and the root span's id.
fn pass<'p>(inputs: &'p [Input], rec: &Recorder) -> (f64, Vec<Analysis<'p>>, u64) {
    let cfg = geometry();
    let start = Instant::now();
    let (results, root) = rec.span("bench.pass", None, 0, |root| {
        let results = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let (rid, p) = (i as u64 + 1, &input.program);
                let reuse = rec.span("reuse.analyze", Some(root), rid, |_| {
                    ReuseAnalysis::analyze(p, cfg.line_bytes())
                });
                let find = FindMisses::with_reuse(p, cfg, reuse);
                let report = rec.span("analysis.find", Some(root), rid, |_| find.run());
                let text = rec.span("analysis.render", Some(root), rid, |_| report.render(p));
                Analysis { find, report, text }
            })
            .collect();
        (results, root)
    });
    (start.elapsed().as_secs_f64(), results, root)
}

/// Checks a pass against the oracle and against the first pass's bytes;
/// returns Σ(exact − simulator) and the largest error in points.
fn tally(
    out: &mut Outcome,
    inputs: &[Input],
    results: &[Analysis],
    first: &mut Vec<String>,
) -> (u64, f64) {
    let (mut abs_err, mut err_pts) = (0u64, 0.0f64);
    for (i, (input, a)) in inputs.iter().zip(results).enumerate() {
        let checked = check(input.key, &a.report, input.want);
        if let Err(e) = &checked {
            eprintln!("paper-exact: {e}");
        }
        if first.len() == i {
            first.push(a.text.clone());
        }
        let stable = first[i] == a.text;
        if !stable {
            eprintln!(
                "paper-exact: {}: report differs from the first pass",
                input.key
            );
        }
        out.tally(checked.is_ok() && stable);
        let err = a
            .report
            .exact_misses()
            .unwrap_or(0)
            .abs_diff(input.want.misses);
        abs_err += err;
        err_pts = err_pts.max(100.0 * err as f64 / input.want.accesses as f64);
    }
    (abs_err, err_pts)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = crate::set_up(&mut setups, setup)?;
    let mut first = Vec::new();
    if ctx.traced() {
        let (untraced, results, _) = pass(&inputs, &Recorder::new(false));
        tally(&mut out, &inputs, &results, &mut first);
        drop(results);
        let (_, results, root) = pass(&inputs, &ctx.rec);
        tally(&mut out, &inputs, &results, &mut first);
        out.add_self_times(&ctx.rec, root, untraced);
        extras(ctx, &inputs, &results, &mut out)?;
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut errs = (0, 0.0);
        while passes.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
            if !passes.is_empty() {
                inputs = crate::set_up(&mut setups, setup)?;
            }
            let (t, results, _) = pass(&inputs, &ctx.rec);
            passes.push(t);
            errs = tally(&mut out, &inputs, &results, &mut first);
        }
        crate::report_passes("paper-exact", &passes);
        let setup_s = crate::stats::median(&setups).ok_or("no set-ups")?;
        println!(
            "paper-exact: setup {setup_s:.6}s, exact - simulator = {} misses",
            errs.0
        );
        out.set("setup_s", setup_s);
        out.set("pass_s", crate::stats::median(&passes).ok_or("no passes")?);
        out.set("miss_abs_err", errs.0 as f64);
        out.set("miss_err_pts", errs.1);
    }
    out.finish_common()?;
    Ok(out)
}

/// The measurement-only calls of the traced run, under a root of their own:
/// stand-alone pre-pass and symbolic builds, the simulator, and the trace
/// generator and replayer. Each result is checked against the oracle.
fn extras(
    ctx: &Ctx,
    inputs: &[Input],
    results: &[Analysis],
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = &ctx.rec;
    let cfg = geometry();
    let never = CancelToken::never();
    let (mut accesses, mut vectors) = (0u64, 0usize);
    rec.span("bench.extra", None, 0, |x| -> Result<(), String> {
        for (i, (input, a)) in inputs.iter().zip(results).enumerate() {
            let (rid, k, p) = (i as u64 + 1, input.key, &input.program);
            let (find, report) = (&a.find, &a.report);
            let cl = Classifier::new(p, find.reuse(), cfg);
            let prepass = rec
                .span("analysis.prepass", Some(x), rid, |_| {
                    Prepass::build(&cl, &never)
                })
                .map_err(|_| "pre-pass cancelled")?;
            let symbolic = rec
                .span("analysis.symbolic", Some(x), rid, |_| {
                    Symbolic::build(&cl, &never)
                })
                .map_err(|_| "symbolic tier cancelled")?;
            let sim = rec.span("cache.sim", Some(x), rid, |_| Simulator::new(cfg).run(p));
            let trace = rec
                .span("trace.gen", Some(x), rid, |_| cme_trace::generate(p))
                .map_err(|e| format!("{k}: trace generation: {e}"))?;
            let stats = rec.span("trace.replay", Some(x), rid, |_| {
                let mut sim = cme_trace::TraceSim::new(cfg);
                sim.replay(&trace);
                sim.stats()
            });
            let t = |name| rec.total(name, Some(rid));
            let (find_s, prepass_s, sim_s) =
                (t("analysis.find"), t("analysis.prepass"), t("cache.sim"));
            let oracle_ok = sim.total_misses() == input.want.misses
                && stats.misses() == input.want.misses
                && stats.accesses == input.want.accesses;
            if !oracle_ok {
                eprintln!("paper-exact: {k}: simulator or replay disagrees with the oracle");
            }
            out.tally(oracle_ok);
            accesses += stats.accesses;
            vectors += find.reuse().vectors().len();

            let total = prepass.total_points().max(1) as f64;
            out.set(format!("analysis.prepass_s.{k}"), prepass_s);
            out.set(
                format!("analysis.prepass_resolved_pct.{k}"),
                100.0 * prepass.resolved_points() as f64 / total,
            );
            out.set(format!("analysis.walk_s.{k}"), find_s - prepass_s);
            out.set(
                format!("analysis.walk_points.{k}"),
                (report.total_accesses() - report.prepass_resolved()) as f64,
            );
            out.set(format!("analysis.symbolic_s.{k}"), t("analysis.symbolic"));
            out.set(
                format!("analysis.symbolic_closed_pct.{k}"),
                100.0 * symbolic.points_closed() as f64 / symbolic.points_total().max(1) as f64,
            );
            out.set(format!("cache.sim_s.{k}"), sim_s);
            out.set(format!("trace.gen_s.{k}"), t("trace.gen"));
            out.set(format!("trace.replay_s.{k}"), t("trace.replay"));
            out.set(format!("analysis_over_sim.{k}"), find_s / sim_s);
            println!(
                "paper-exact {k}: find {find_s:.4}s (pre-pass {prepass_s:.4}s, {:.1}% resolved), \
                 simulator {sim_s:.4}s, analysis/simulation {:.1}x",
                100.0 * prepass.resolved_points() as f64 / total,
                find_s / sim_s
            );
        }
        Ok(())
    })?;
    out.set("reuse.s", rec.total("reuse.analyze", None));
    out.set("reuse.vectors", vectors as f64);
    out.set("analysis.render_s", rec.total("analysis.render", None));
    out.set(
        "trace.macc_per_s",
        accesses as f64 / rec.total("trace.replay", None) / 1e6,
    );
    Ok(())
}
