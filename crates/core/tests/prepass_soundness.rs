//! Differential soundness for the definitely-hit/definitely-miss pre-pass.
//!
//! The pre-pass promises more than soundness: every verdict it emits must
//! equal what the classifier's exact interference walk would return for
//! that point — that is what keeps reports byte-identical with the
//! pre-pass on or off. These tests enforce the contract three ways on
//! fuzzed workloads:
//!
//! 1. **vs the exact walk** — for every point of every reference,
//!    `RefVerdicts::lookup` either returns `None` (unresolved) or the
//!    classifier's own verdict. Any mismatch is a hard failure.
//! 2. **vs the LRU simulator** — a pre-pass `Hit` must be a simulator hit
//!    on *every* program (the model never under-counts misses). On
//!    guard-free uniformly-generated nests the reuse-vector set is
//!    complete, so there `Cold`/`Replacement` must be simulator misses
//!    too.
//! 3. **under cancellation** — an expired deadline aborts inside the
//!    pre-pass itself, before any verdict tier is published.

use cme_analysis::{prepass, CancelToken, Classifier, FindMisses, PointClass, Scratch, Verdict};
use cme_cache::{Cache, CacheConfig};
use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};
use cme_poly::rng::{Rng, SeededRng};
use cme_reuse::ReuseAnalysis;
use std::ops::ControlFlow;

/// A random guard-free two-deep nest with uniformly generated references
/// (same shape as `classifier_sim_fuzz`): complete reuse vectors, so the
/// model matches the simulator access-for-access.
fn arb_perfect_program(rng: &mut SeededRng) -> Program {
    let n = rng.gen_range(4..=9);
    let elem = [4u32, 8, 8][rng.gen_below(3) as usize];
    let mut b = ProgramBuilder::new("prepass-fuzz");
    b.array("X", &[16, 16], elem);
    b.array("Y", &[16, 16], elem);
    b.array("Z", &[16], elem);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));

    let flip_x = rng.gen_bool();
    let flip_y = rng.gen_bool();
    let mk = |name: &str, flip: bool, di: i64, dj: i64| {
        let (a, bo) = (i.offset(di + 2), j.offset(dj + 2));
        if flip {
            SRef::new(name, vec![bo, a])
        } else {
            SRef::new(name, vec![a, bo])
        }
    };

    let nreads = rng.gen_range(1..=3) as usize;
    let mut reads: Vec<SRef> = (0..nreads)
        .map(|_| {
            let (di, dj) = (rng.gen_range(-1..=1), rng.gen_range(-1..=1));
            mk("X", flip_x, di, dj)
        })
        .collect();
    if rng.gen_bool() {
        let v = if rng.gen_bool() { &i } else { &j };
        reads.push(SRef::new("Z", vec![v.offset(2)]));
    }
    b.push(SNode::loop_(
        "J",
        1,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::assign(mk("Y", flip_y, 0, 0), reads)],
        )],
    ));
    b.build().expect("fuzz program normalises")
}

/// A random *guarded* two-deep nest: triangular and banded IF conditions
/// split rows and force the pre-pass through non-rectangular row
/// segmentation and guard-aware window evaluation.
fn arb_guarded_program(rng: &mut SeededRng) -> Program {
    let n = rng.gen_range(6..=12);
    let mut b = ProgramBuilder::new("prepass-guarded-fuzz");
    b.array("A", &[24, 24], 8);
    b.array("B", &[24, 24], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));

    let guard = match rng.gen_below(3) {
        // Triangular: I <= J.
        0 => LinRel::new(i.clone(), RelOp::Le, j.clone()),
        // Band: I <= J + 2.
        1 => LinRel::new(i.clone(), RelOp::Le, j.offset(2)),
        // Skip one diagonal: I /= J.
        _ => LinRel::new(i.clone(), RelOp::Ne, j.clone()),
    };
    let (di, dj) = (rng.gen_range(-1..=1), rng.gen_range(-1..=1));
    b.push(SNode::loop_(
        "J",
        2,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![
                SNode::assign(
                    SRef::new("A", vec![i.offset(2), j.offset(2)]),
                    vec![SRef::new("A", vec![i.offset(di + 2), j.offset(dj + 2)])],
                ),
                SNode::if_(
                    vec![guard],
                    vec![SNode::reads_only(vec![SRef::new(
                        "B",
                        vec![j.offset(2), i.offset(2)],
                    )])],
                ),
            ],
        )],
    ));
    b.build().expect("guarded fuzz program normalises")
}

fn arb_config(rng: &mut SeededRng) -> CacheConfig {
    if rng.gen_bool() {
        let size_log = rng.gen_range(8..=11) as u32;
        let assoc = [1u32, 2, 4][rng.gen_below(3) as usize];
        CacheConfig::new(1u64 << size_log, 32, assoc).unwrap()
    } else {
        // Non-power-of-two geometries: division/rem fallbacks everywhere.
        let (line, sets, assoc) = [(32u64, 12u64, 2u32), (24, 16, 1), (16, 12, 2), (24, 12, 4)]
            [rng.gen_below(4) as usize];
        CacheConfig::with_geometry(line, sets, assoc).unwrap()
    }
}

/// Asserts verdict-for-verdict equality with the classifier for every
/// point of every reference, and returns `(resolved, total)`.
fn assert_matches_classifier(program: &Program, cfg: CacheConfig, ctx: &str) -> (u64, u64) {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let classifier = Classifier::new(program, &reuse, cfg);
    let cancel = CancelToken::never();
    let mut scratch = Scratch::new();
    let (mut resolved, mut total) = (0u64, 0u64);
    for r in 0..program.references().len() {
        let vd = prepass::analyze_reference(&classifier, r, &cancel).expect("never cancelled");
        resolved += vd.resolved();
        total += vd.total();
        let mut cursor = 0usize;
        let mut seen = 0u64;
        program.ris(r).for_each_point(|p| {
            seen += 1;
            let Some(v) = vd.lookup(p, &mut cursor) else {
                return;
            };
            let exact = classifier.classify_with_scratch(r, p, &mut scratch);
            let want = match exact {
                PointClass::Hit { .. } => Verdict::Hit,
                PointClass::Cold => Verdict::Cold,
                PointClass::ReplacementMiss { .. } => Verdict::Replacement,
            };
            assert_eq!(
                v, want,
                "{ctx}: ref {r} point {p:?}: pre-pass {v:?} vs walk {exact:?}"
            );
        });
        assert_eq!(seen, vd.total(), "{ctx}: ref {r} RIS volume mismatch");
    }
    (resolved, total)
}

/// Replays the program's access trace through the LRU cache and checks
/// each resolved point's verdict against the simulated outcome. `strict`
/// demands misses match too (complete reuse vectors only); otherwise only
/// the universally-sound direction (`Hit` ⇒ simulator hit) is enforced.
fn assert_matches_simulator(program: &Program, cfg: CacheConfig, strict: bool, ctx: &str) {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let classifier = Classifier::new(program, &reuse, cfg);
    let cancel = CancelToken::never();
    let verdicts: Vec<_> = (0..program.references().len())
        .map(|r| prepass::analyze_reference(&classifier, r, &cancel).expect("never cancelled"))
        .collect();
    let mut cache = Cache::new(cfg);
    let mut cursors = vec![0usize; verdicts.len()];
    cme_ir::walk::for_each_access(program, |a| {
        let miss = cache.access(a.addr);
        if let Some(v) = verdicts[a.r].lookup(a.point, &mut cursors[a.r]) {
            match v {
                Verdict::Hit => assert!(
                    !miss,
                    "{ctx}: ref {} point {:?}: pre-pass Hit but the simulator missed",
                    a.r, a.point
                ),
                Verdict::Cold | Verdict::Replacement => {
                    if strict {
                        assert!(
                            miss,
                            "{ctx}: ref {} point {:?}: pre-pass {v:?} but the simulator hit",
                            a.r, a.point
                        );
                    }
                }
            }
        }
        ControlFlow::Continue(())
    });
}

#[test]
fn matches_classifier_on_perfect_nests() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0001);
    let (mut resolved, mut total) = (0u64, 0u64);
    for case in 0..48 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        let (r, t) = assert_matches_classifier(&program, cfg, &format!("case {case} cfg {cfg}"));
        resolved += r;
        total += t;
    }
    // The fuzz pool as a whole must not silently degrade to Unknown.
    assert!(
        resolved * 2 > total,
        "pre-pass resolved only {resolved}/{total} fuzz points"
    );
}

#[test]
fn matches_classifier_on_guarded_nests() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0002);
    let mut resolved = 0u64;
    for case in 0..32 {
        let program = arb_guarded_program(&mut rng);
        let cfg = arb_config(&mut rng);
        let (r, _) = assert_matches_classifier(&program, cfg, &format!("case {case} cfg {cfg}"));
        resolved += r;
    }
    assert!(resolved > 0, "guarded nests never resolved anything");
}

#[test]
fn verdicts_match_simulator_on_complete_vector_programs() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0003);
    for case in 0..32 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        // Guard-free uniformly-generated nests: complete vectors, so every
        // resolved verdict (hit or miss) must equal the simulator's.
        assert_matches_simulator(&program, cfg, true, &format!("case {case} cfg {cfg}"));
    }
}

#[test]
fn hits_are_simulator_hits_on_guarded_programs() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0004);
    for case in 0..24 {
        let program = arb_guarded_program(&mut rng);
        let cfg = arb_config(&mut rng);
        // Guards can hide facet reuse (§3.5), so the model may miss where
        // the simulator hits — but a pre-pass Hit must never be a miss.
        assert_matches_simulator(&program, cfg, false, &format!("case {case} cfg {cfg}"));
    }
}

/// A FORTRAN kernel whose inner statement lives in a CALLed subroutine:
/// the pre-pass must stay exact across the inliner's renamed loop
/// variables and merged statement lists.
#[test]
fn matches_classifier_on_inlined_call_program() {
    let src = "
      PROGRAM DRIVE
      REAL*8 U(40,40), V(40,40)
      DO J = 1, 39
        CALL BODY(U(1,J), V(1,J))
      ENDDO
      END
      SUBROUTINE BODY(UC, VC)
      REAL*8 UC(80), VC(40)
      DO I = 1, 39
        VC(I) = UC(I) + UC(I+1) + UC(I+40)
      ENDDO
      END
";
    let params = std::collections::HashMap::new();
    let source = cme_fortran::parse_program(src, &params).expect("parses");
    let inlined = cme_inline::Inliner::new().inline(&source).expect("inlines");
    let program = cme_ir::normalize(&inlined, &Default::default()).expect("normalises");
    assert!(
        !program.references().is_empty(),
        "inlined program has references"
    );
    for cfg in [
        CacheConfig::new(4096, 32, 2).unwrap(),
        CacheConfig::with_geometry(24, 12, 2).unwrap(),
    ] {
        let (resolved, total) = assert_matches_classifier(&program, cfg, &format!("cfg {cfg}"));
        assert!(resolved > 0, "cfg {cfg}: nothing resolved ({total} points)");
    }
}

/// The blocked-matmul workload the CI floor watches: at least half of the
/// points must resolve, mirroring `bench_prepass`'s assertion at test
/// scale.
#[test]
fn mmt_resolution_rate_floor() {
    let program = cme_workloads::mmt(16, 16, 8);
    let cfg = CacheConfig::new(32 * 1024, 32, 2).unwrap();
    let (resolved, total) = assert_matches_classifier(&program, cfg, "mmt(16,16,8)");
    assert!(
        resolved * 2 >= total,
        "mmt resolution regressed: {resolved}/{total}"
    );
}

/// An already-expired deadline aborts inside the pre-pass itself — the
/// verdict analysis is cancellable, not just the walk that follows it.
#[test]
fn expired_deadline_aborts_inside_prepass() {
    // A single reference with a 16384-point RIS: well past the pre-pass's
    // cancellation grain, so the deadline check must fire mid-analysis.
    let mut b = ProgramBuilder::new("big");
    b.array("A", &[128, 128], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        1,
        128,
        vec![SNode::loop_(
            "I",
            1,
            128,
            vec![SNode::reads_only(vec![SRef::new("A", vec![i, j])])],
        )],
    ));
    let big = b.build().unwrap();
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    let reuse = ReuseAnalysis::analyze(&big, cfg.line_bytes());
    let classifier = Classifier::new(&big, &reuse, cfg);

    let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
    assert!(
        prepass::analyze_reference(&classifier, 0, &expired).is_err(),
        "expired deadline must abort analyze_reference"
    );

    let program = cme_workloads::mmt(24, 24, 12);
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();

    // End-to-end: a 1ms deadline on a multi-hundred-ms workload errors
    // out through FindMisses, whose pipeline always runs the pre-pass.
    let started = std::time::Instant::now();
    let result = FindMisses::new(&program, cfg).run_cancellable(&CancelToken::with_timeout(
        std::time::Duration::from_millis(1),
    ));
    assert!(result.is_err(), "1ms deadline must cancel the analysis");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "cancellation took {:?}",
        started.elapsed()
    );
}
