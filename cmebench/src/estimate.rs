//! `whole-estimate`: the Table 6 path a user runs with `analyze --file`.
//! FORTRAN text goes through parse, inline and normalise to a sampled
//! `EstimateMisses` (the paper's c = 95 %, w = 0.05) and a rendered report.
//! Reuse generation and sampled classification do almost all the work.
//!
//! The seed orders the three programs. The sampling RNG keeps the
//! `paper_default` seed, so the reported accuracy repeats exactly.

use crate::oracle::{Expected, Oracle};
use crate::span::Recorder;
use crate::{Ctx, Outcome, Rng};
use cme_analysis::{EstimateMisses, Report, SamplingOptions};
use cme_cache::CacheConfig;
use cme_ir::{Program, SourceProgram};
use cme_reuse::ReuseAnalysis;
use std::time::Instant;

pub const INPUTS: &str = "tomcatv-like N=64 T=30, swim-like N=64 T=30, applu-like N=8 T=2 as \
                          FORTRAN text; EstimateMisses paper_default (c=0.95, w=0.05); \
                          cache 32K:2:32; seed orders the programs";

pub fn geometry() -> CacheConfig {
    crate::exact::geometry()
}

/// The three whole programs in source form.
pub fn sources() -> Vec<(&'static str, SourceProgram)> {
    vec![
        ("tomcatv", cme_workloads::tomcatv_like_source(64, 30)),
        ("swim", cme_workloads::swim_like_source(64, 30)),
        ("applu", cme_workloads::applu_like_source(8, 2)),
    ]
}

/// The front end a user's file goes through: parse, inline, normalise.
pub fn lower(text: &str) -> Result<Program, String> {
    let source = cme_fortran::parse_with_params(text, &[]).map_err(|e| e.to_string())?;
    let inlined = cme_inline::Inliner::new()
        .inline(&source)
        .map_err(|e| e.to_string())?;
    cme_ir::normalize(&inlined, &Default::default()).map_err(|e| e.to_string())
}

struct Input {
    key: &'static str,
    text: String,
    want: Expected,
}

/// Writes the programs as FORTRAN text and confirms the oracle against a
/// simulator run of each text's lowered program.
fn setup(seed: u64) -> Result<Vec<Input>, String> {
    let oracle = Oracle::load()?;
    let mut inputs = sources()
        .into_iter()
        .map(|(key, src)| {
            let text = cme_ir::unparse::unparse(&src);
            let want = oracle.confirm(&format!("whole.{key}"), &lower(&text)?, geometry())?;
            Ok(Input { key, text, want })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Rng::new(seed).shuffle(&mut inputs);
    Ok(inputs)
}

/// Checks an estimate against the simulator count: the miss ratio must be
/// within the sampling width `w`.
fn check(key: &str, report: &Report, want: Expected) -> Result<(), String> {
    let width = SamplingOptions::paper_default().width;
    let err = (report.miss_ratio() - want.ratio()).abs();
    if report.total_accesses() != want.accesses || err > width {
        return Err(format!(
            "{key}: estimate {:.4} of {} accesses, simulator {:.4} of {} (w = {width})",
            report.miss_ratio(),
            report.total_accesses(),
            want.ratio(),
            want.accesses
        ));
    }
    Ok(())
}

/// One program's result in a pass.
struct Analysis {
    report: Report,
    text: String,
    vectors: usize,
}

/// One pass: text to rendered report for every program, each layer call in
/// a span of `rec` (a disabled recorder records nothing). Returns the wall
/// time, the results and the root span's id.
fn pass(inputs: &[Input], rec: &Recorder) -> Result<(f64, Vec<Analysis>, u64), String> {
    let cfg = geometry();
    let start = Instant::now();
    let (results, root) = rec.span("bench.pass", None, 0, |root| {
        let mut results = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let rid = i as u64 + 1;
            let source = rec
                .span("fortran.parse", Some(root), rid, |_| {
                    cme_fortran::parse_with_params(&input.text, &[])
                })
                .map_err(|e| format!("{}: {e}", input.key))?;
            let inlined = rec
                .span("inline.inline", Some(root), rid, |_| {
                    cme_inline::Inliner::new().inline(&source)
                })
                .map_err(|e| format!("{}: {e}", input.key))?;
            let program = rec
                .span("ir.normalise", Some(root), rid, |_| {
                    cme_ir::normalize(&inlined, &Default::default())
                })
                .map_err(|e| format!("{}: {e}", input.key))?;
            let reuse = rec.span("reuse.analyze", Some(root), rid, |_| {
                ReuseAnalysis::analyze(&program, cfg.line_bytes())
            });
            let vectors = reuse.vectors().len();
            let report = rec.span("analysis.sample", Some(root), rid, |_| {
                EstimateMisses::with_reuse(&program, cfg, SamplingOptions::paper_default(), reuse)
                    .run()
            });
            let text = rec.span("analysis.render", Some(root), rid, |_| {
                report.render(&program)
            });
            results.push(Analysis {
                report,
                text,
                vectors,
            });
        }
        Ok::<_, String>((results, root))
    })?;
    Ok((start.elapsed().as_secs_f64(), results, root))
}

/// Checks a pass against the oracle and against the first pass's bytes;
/// returns Σ|estimate − simulator| and the largest error in points.
fn tally(
    out: &mut Outcome,
    inputs: &[Input],
    results: &[Analysis],
    first: &mut Vec<String>,
) -> (f64, f64) {
    let (mut abs_err, mut err_pts) = (0.0, 0.0f64);
    for (i, (input, a)) in inputs.iter().zip(results).enumerate() {
        let checked = check(input.key, &a.report, input.want);
        if let Err(e) = &checked {
            eprintln!("whole-estimate: {e}");
        }
        if first.len() == i {
            first.push(a.text.clone());
        }
        let stable = first[i] == a.text;
        if !stable {
            eprintln!(
                "whole-estimate: {}: report differs from the first pass",
                input.key
            );
        }
        out.tally(checked.is_ok() && stable);
        abs_err += (a.report.estimated_misses() - input.want.misses as f64).abs();
        err_pts = err_pts.max(100.0 * (a.report.miss_ratio() - input.want.ratio()).abs());
    }
    (abs_err, err_pts)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = crate::set_up(&mut setups, || setup(ctx.seed))?;
    let mut first = Vec::new();
    if ctx.traced() {
        let (untraced, results, _) = pass(&inputs, &Recorder::new(false))?;
        tally(&mut out, &inputs, &results, &mut first);
        drop(results);
        let (_, results, root) = pass(&inputs, &ctx.rec)?;
        tally(&mut out, &inputs, &results, &mut first);
        out.add_self_times(&ctx.rec, root, untraced);
        for (metric, span) in [
            ("fortran.parse_s", "fortran.parse"),
            ("inline.s", "inline.inline"),
            ("ir.normalise_s", "ir.normalise"),
            ("reuse.s", "reuse.analyze"),
            ("analysis.sample_s", "analysis.sample"),
            ("analysis.render_s", "analysis.render"),
        ] {
            out.set(metric, ctx.rec.total(span, None));
        }
        let vectors: usize = results.iter().map(|a| a.vectors).sum();
        let points: u64 = results
            .iter()
            .flat_map(|a| a.report.references())
            .map(|r| r.analyzed)
            .sum();
        out.set("reuse.vectors", vectors as f64);
        out.set("analysis.sample_points", points as f64);
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut errs = (0.0, 0.0);
        while passes.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
            if !passes.is_empty() {
                inputs = crate::set_up(&mut setups, || setup(ctx.seed))?;
            }
            let (t, results, _) = pass(&inputs, &ctx.rec)?;
            passes.push(t);
            errs = tally(&mut out, &inputs, &results, &mut first);
        }
        crate::report_passes("whole-estimate", &passes);
        let setup_s = crate::stats::median(&setups).ok_or("no set-ups")?;
        println!(
            "whole-estimate: setup {setup_s:.6}s, |estimate - simulator| = {:.1} misses, \
             largest error {:.4} points",
            errs.0, errs.1
        );
        out.set("setup_s", setup_s);
        out.set("pass_s", crate::stats::median(&passes).ok_or("no passes")?);
        out.set("miss_abs_err", errs.0);
        out.set("miss_err_pts", errs.1);
    }
    out.finish_common()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_orders_the_programs_and_text_round_trips() {
        // `setup` also lowers each text and confirms it against the oracle.
        let order = |seed| -> Vec<&str> { setup(seed).unwrap().iter().map(|i| i.key).collect() };
        assert_eq!(order(1), order(1));
        let orders: std::collections::BTreeSet<Vec<&str>> = (1..=4).map(order).collect();
        assert!(orders.len() > 1);
    }
}
