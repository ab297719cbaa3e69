//! Point classification: the cold and replacement equations (§4.1).
//!
//! For a consumer reference `R_c` at iteration `i`, the reuse vectors of
//! `R_c` are tried in increasing lexicographic order. Along a vector `r`
//! from producer `R_p`:
//!
//! * the **cold equations** (§4.1.1) leave the point *indeterminate* when
//!   `i − r ∉ RIS_p` or the two accesses touch different memory lines —
//!   the next vector is tried;
//! * otherwise the **replacement equations** (§4.1.2) decide: the point is
//!   a hit unless `k` *distinct* memory lines mapping to the reused line's
//!   cache set are accessed in the interference interval between `i − r`
//!   and `i` (LRU in a `k`-way set needs `k` distinct contentions to evict).
//!
//! The interval's ends are open or closed per lexical position: an access at
//! `i − r` intervenes only if its reference is lexically *after* `R_p`; one
//! at `i` only if lexically *before* `R_c`.
//!
//! Points indeterminate after every vector are cold misses.
//!
//! Per-reference invariants (producer bounding boxes, lexical ranks, the
//! vector list itself) are hoisted into [`Classifier::new`] so the per-point
//! loop touches only flat precomputed slices, and callers on hot paths can
//! supply a reusable [`Scratch`] via [`Classifier::classify_with_scratch`]
//! to avoid per-point allocation entirely.

use cme_cache::CacheConfig;
use cme_ir::{Program, RefId, SetFilter, SetWalker};
use cme_reuse::ReuseAnalysis;
use std::ops::ControlFlow;

/// How the replacement equations enumerate the interference interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkStrategy {
    /// The set-conscious walk: per-reference line plans, congruence-based
    /// set skipping and the contention-bound early exit. The default.
    #[default]
    SetSkip,
    /// The pre-plan full interval scan (`walk_range_rev` over every access,
    /// filtering by set in the callback). Kept only as the reference the
    /// tests and `bench_classify` compare against: no analysis entry point
    /// selects it, and its verdicts are bit-identical to
    /// [`WalkStrategy::SetSkip`].
    LegacyScan,
}

/// The verdict for one iteration point of one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// No reuse vector supplied the line: first touch of the memory line.
    Cold,
    /// Reuse existed along the vector at the given position in the sorted
    /// list, but ≥ k distinct set contentions evicted the line.
    ReplacementMiss {
        /// Index into the consumer's sorted vector list.
        vector_idx: usize,
    },
    /// The line survived: a cache hit.
    Hit {
        /// Index into the consumer's sorted vector list.
        vector_idx: usize,
    },
}

impl PointClass {
    /// Whether the point is a miss of either kind.
    pub fn is_miss(&self) -> bool {
        !matches!(self, PointClass::Hit { .. })
    }
}

/// Reusable per-worker buffers for [`Classifier::classify_with_scratch`].
///
/// `classify` allocates these afresh on every call; a hot loop (exact
/// analysis visits every iteration point) should construct one `Scratch`
/// per thread and pass it to `classify_with_scratch` instead. Buffers grow
/// on demand, so one scratch serves programs of any depth.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// The consumer's interleaved iteration vector (2n entries).
    i_vec: Vec<i64>,
    /// `i − r`, interleaved label/index form (2n entries).
    prev: Vec<i64>,
    /// Index part of `i − r` (n entries).
    prev_idx: Vec<i64>,
    /// Distinct contending lines seen in the interference interval.
    lines: Vec<i64>,
    /// Reusable state for the set-skipping interference walk.
    walker: SetWalker,
}

impl Scratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Precomputed per-vector invariants: everything the cold equations need
/// that does not depend on the iteration point. Shared with the pre-pass
/// (`crate::prepass`), which reduces the same screens to one dimension.
#[derive(Debug, Clone)]
pub(crate) struct VectorPlan<'p> {
    pub(crate) producer: RefId,
    /// The reuse vector in interleaved label/index form (2n entries).
    pub(crate) vector: &'p [i64],
    /// Bounding box of `RIS_p`, for the cheap containment pre-screen.
    pub(crate) producer_bbox: &'p [(i64, i64)],
    pub(crate) producer_rank: usize,
}

/// All vectors of one consumer, in lexicographic order, plus its rank.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerPlan<'p> {
    pub(crate) vectors: Vec<VectorPlan<'p>>,
    pub(crate) consumer_rank: usize,
}

/// Per-reference invariants of the contention bound: everything needed to
/// bound, in O(1) arithmetic per reference, how many distinct memory lines
/// the reference can map to one cache set inside an interference interval.
#[derive(Debug, Clone)]
struct RefBoundPlan<'p> {
    /// The owning statement's loop label vector (n entries).
    label: &'p [i64],
    /// Bounding box of the reference's RIS (n dims).
    bbox: &'p [(i64, i64)],
    /// The reference's byte-address affine form.
    plan: &'p cme_poly::Affine,
}

/// Shared state for classifying points of one program under one cache
/// geometry.
#[derive(Debug, Clone)]
pub struct Classifier<'p> {
    program: &'p Program,
    config: CacheConfig,
    /// One plan per reference, indexed by `RefId`.
    plans: Vec<ConsumerPlan<'p>>,
    /// One contention-bound plan per reference, indexed by `RefId`.
    bounds: Vec<RefBoundPlan<'p>>,
    walk: WalkStrategy,
}

impl<'p> Classifier<'p> {
    /// Creates a classifier; `reuse` must have been generated for the same
    /// program and the same line size as `config`.
    ///
    /// Construction hoists every per-reference invariant (producer bounding
    /// boxes, lexical ranks, vector slices) out of the per-point loop.
    pub fn new(program: &'p Program, reuse: &'p ReuseAnalysis, config: CacheConfig) -> Self {
        let plans = (0..program.references().len())
            .map(|r| ConsumerPlan {
                consumer_rank: program.reference(r).lex_rank,
                vectors: reuse
                    .for_consumer(r)
                    .map(|rv| VectorPlan {
                        producer: rv.producer,
                        vector: rv.vector.as_slice(),
                        producer_bbox: program.ris(rv.producer).bounding_box(),
                        producer_rank: program.reference(rv.producer).lex_rank,
                    })
                    .collect(),
            })
            .collect();
        let bounds = (0..program.references().len())
            .map(|r| RefBoundPlan {
                label: program
                    .statement(program.reference(r).stmt)
                    .label
                    .as_slice(),
                bbox: program.ris(r).bounding_box(),
                plan: program.addr_plan(r),
            })
            .collect();
        Classifier {
            program,
            config,
            plans,
            bounds,
            walk: WalkStrategy::default(),
        }
    }

    /// Selects the interference-walk strategy (default
    /// [`WalkStrategy::SetSkip`], the only one the analyses use). Verdicts
    /// are bit-identical for every strategy; [`WalkStrategy::LegacyScan`]
    /// exists as the reference implementation for differential testing.
    pub fn with_strategy(mut self, walk: WalkStrategy) -> Self {
        self.walk = walk;
        self
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The consumer plan of reference `r` (for the pre-pass, which walks
    /// the same vectors in the same order).
    pub(crate) fn plan(&self, r: RefId) -> &ConsumerPlan<'p> {
        &self.plans[r]
    }

    /// Classifies the access of reference `r` at index point `point`
    /// (which must lie in `RIS_r`).
    ///
    /// Allocates fresh scratch buffers; hot loops should hold a [`Scratch`]
    /// and call [`Classifier::classify_with_scratch`].
    pub fn classify(&self, r: RefId, point: &[i64]) -> PointClass {
        let mut scratch = Scratch::new();
        self.classify_with_scratch(r, point, &mut scratch)
    }

    /// Classifies the access of reference `r` at index point `point`,
    /// reusing the caller's buffers. Allocation-free after warm-up; the
    /// workhorse of both the serial and parallel exact analyses.
    pub fn classify_with_scratch(
        &self,
        r: RefId,
        point: &[i64],
        scratch: &mut Scratch,
    ) -> PointClass {
        let program = self.program;
        let config = &self.config;
        let n = program.depth();
        // Interleave the statement label with the index point, reusing the
        // scratch buffer (the legacy path allocated a vector per point).
        scratch.i_vec.resize(2 * n, 0);
        let label = &program.statement(program.reference(r).stmt).label;
        for d in 0..n {
            scratch.i_vec[2 * d] = label[d];
            scratch.i_vec[2 * d + 1] = point[d];
        }
        let line_c = config.mem_line(program.byte_address(r, point));
        let plan = &self.plans[r];

        scratch.prev.resize(2 * n, 0);
        scratch.prev_idx.resize(n, 0);
        let Scratch {
            i_vec,
            prev,
            prev_idx,
            lines,
            walker,
        } = scratch;
        'vectors: for (vector_idx, vp) in plan.vectors.iter().enumerate() {
            // i − r, split back into label and index parts.
            for d in 0..2 * n {
                prev[d] = i_vec[d] - vp.vector[d];
            }
            for d in 0..n {
                prev_idx[d] = prev[2 * d + 1];
            }

            // Cold equations: producer instance must exist …
            for (d, &(lo, hi)) in vp.producer_bbox.iter().enumerate() {
                if prev_idx[d] < lo || prev_idx[d] > hi {
                    continue 'vectors; // cheap pre-screen
                }
            }
            if !program.ris(vp.producer).contains(prev_idx) {
                continue;
            }
            // … and touch the same memory line.
            let line_p = config.mem_line(program.byte_address(vp.producer, prev_idx));
            if line_p != line_c {
                continue;
            }

            // Replacement equations along this vector decide the point.
            let evicted = self.evicted_between(
                prev,
                i_vec,
                line_c,
                vp.producer_rank,
                plan.consumer_rank,
                lines,
                walker,
            );
            return if evicted {
                PointClass::ReplacementMiss { vector_idx }
            } else {
                PointClass::Hit { vector_idx }
            };
        }
        PointClass::Cold
    }

    /// Whether the reused line is evicted before the consumer access:
    /// scans the interference interval *backward* from `to`, counting
    /// distinct memory lines mapped to the reused line's cache set. The scan
    /// stops early at the first re-touch of the reused line (any access to
    /// it renews its LRU recency — fewer than `k` distinct contentions since
    /// then means the line survived) or at the `k`-th distinct contention
    /// (eviction proof). The producer's own access at `from` is the final
    /// implicit touch, so reaching it decides by the contention count.
    ///
    /// Interval ends honour the lexical rules of §4.1.2: an access at
    /// `from` intervenes only if lexically after `R_p`; one at `to` only if
    /// lexically before `R_c`.
    ///
    /// Under [`WalkStrategy::SetSkip`] the interval is processed in three
    /// tiers: the contention bound may prove survival without walking at
    /// all; otherwise the set-skipping walk visits only accesses that map
    /// to the reused line's set. [`WalkStrategy::LegacyScan`] walks every
    /// access and filters in the callback. Both orders visit the matching
    /// accesses identically, so the verdicts are bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn evicted_between(
        &self,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
        lines: &mut Vec<i64>,
        walker: &mut SetWalker,
    ) -> bool {
        let program = self.program;
        let config = &self.config;
        let target_set = config.set_of_line(reused_line);
        let k = config.assoc() as usize;
        // Distinct contending lines; associativities are small, linear scan
        // beats hashing.
        lines.clear();
        let mut evicted = false;
        match self.walk {
            WalkStrategy::LegacyScan => {
                cme_ir::walk::walk_range_rev(program, from, to, |a, tag| {
                    let rank = program.reference(a.r).lex_rank;
                    if tag.at_start && rank <= producer_rank {
                        return ControlFlow::Continue(());
                    }
                    if tag.at_end && rank >= consumer_rank {
                        return ControlFlow::Continue(());
                    }
                    let line = config.mem_line(a.addr);
                    if line == reused_line {
                        // Re-touch: the line was resident here with the
                        // current contention count since; the verdict is
                        // already decided.
                        return ControlFlow::Break(());
                    }
                    if config.set_of_line(line) != target_set {
                        return ControlFlow::Continue(());
                    }
                    if !lines.contains(&line) {
                        lines.push(line);
                        if lines.len() >= k {
                            evicted = true;
                            return ControlFlow::Break(());
                        }
                    }
                    ControlFlow::Continue(())
                });
            }
            WalkStrategy::SetSkip => {
                if self.hit_by_contention_bound(from, to, reused_line, target_set) {
                    return false;
                }
                let filter = SetFilter::new(
                    config.line_bytes() as i64,
                    config.num_sets() as i64,
                    target_set,
                );
                walker.walk_range_rev_in_set(program, from, to, &filter, |a, tag| {
                    let rank = program.reference(a.r).lex_rank;
                    if tag.at_start && rank <= producer_rank {
                        return ControlFlow::Continue(());
                    }
                    if tag.at_end && rank >= consumer_rank {
                        return ControlFlow::Continue(());
                    }
                    // Every visited access already maps to `target_set`.
                    let line = config.mem_line(a.addr);
                    if line == reused_line {
                        return ControlFlow::Break(());
                    }
                    if !lines.contains(&line) {
                        lines.push(line);
                        if lines.len() >= k {
                            evicted = true;
                            return ControlFlow::Break(());
                        }
                    }
                    ControlFlow::Continue(())
                });
            }
        }
        evicted
    }

    /// The contention-bound early exit: a sufficient condition for a hit
    /// checked in O(references · depth) arithmetic before any walking.
    ///
    /// For every reference, the lexicographic interval `[from, to]` is
    /// over-approximated by a box (prefix positions where the endpoints
    /// agree pin a label or index, the first differing position gives a
    /// range, deeper dimensions fall back to the RIS bounding box). The
    /// reference's address plan turns the box into a memory-line window,
    /// and the lines of that window congruent to `target_set` bound the
    /// distinct lines the reference can contribute to the set. When the sum
    /// over all references (minus the reused line when some window covers
    /// it) stays below `k`, the LRU stack can never fill — the point is a
    /// hit without walking.
    fn hit_by_contention_bound(
        &self,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        target_set: i64,
    ) -> bool {
        let k = self.config.assoc() as i64;
        let nsets = self.config.num_sets() as i64;
        let n = self.program.depth();
        let diff = from
            .iter()
            .zip(to)
            .position(|(a, b)| a != b)
            .unwrap_or(2 * n);
        let mut sum: i64 = 0;
        let mut reused_counted = false;
        for bp in &self.bounds {
            let Some((l_min, l_max)) = self.ref_line_window(bp, from, to, diff) else {
                continue;
            };
            // Lines ≡ target_set (mod nsets) within [l_min, l_max].
            let cnt =
                (l_max - target_set).div_euclid(nsets) - (l_min - 1 - target_set).div_euclid(nsets);
            if cnt <= 0 {
                continue;
            }
            if (l_min..=l_max).contains(&reused_line) {
                reused_counted = true;
            }
            sum += cnt;
            if sum - (reused_counted as i64) >= k {
                return false;
            }
        }
        sum - (reused_counted as i64) < k
    }

    /// The memory-line window one reference can touch within the
    /// lexicographic interval `[from, to]`, or `None` when the reference
    /// cannot execute in the interval at all. `diff` is the first position
    /// where the endpoints differ (precomputed by the callers). Shared by
    /// [`Classifier::hit_by_contention_bound`] and the pre-pass's
    /// row-uniform bound so both screens stay in lock-step.
    fn ref_line_window(
        &self,
        bp: &RefBoundPlan<'_>,
        from: &[i64],
        to: &[i64],
        diff: usize,
    ) -> Option<(i64, i64)> {
        let n = self.program.depth();
        let mut w_min = bp.plan.constant_term();
        let mut w_max = w_min;
        for d in 0..n {
            // Interleaved positions: label at 2d, index at 2d + 1.
            let lpos = 2 * d;
            if lpos < diff {
                if bp.label[d] != from[lpos] {
                    return None;
                }
            } else if lpos == diff && (bp.label[d] < from[lpos] || bp.label[d] > to[lpos]) {
                return None;
            }
            let ipos = 2 * d + 1;
            let (mut lo, mut hi) = bp.bbox[d];
            if ipos < diff {
                lo = lo.max(from[ipos]);
                hi = hi.min(from[ipos]);
            } else if ipos == diff {
                lo = lo.max(from[ipos]);
                hi = hi.min(to[ipos]);
            }
            if lo > hi {
                return None;
            }
            let c = bp.plan.coeff(d);
            if c >= 0 {
                w_min += c * lo;
                w_max += c * hi;
            } else {
                w_min += c * hi;
                w_max += c * lo;
            }
        }
        Some((self.config.mem_line(w_min), self.config.mem_line(w_max)))
    }

    /// A row-uniform variant of the contention bound for the pre-pass: the
    /// interval `[from, to]` covers a whole row's interference windows, and
    /// the per-set line count drops the congruence residue (any class of an
    /// interval of lines `[l_min, l_max]` has at most
    /// `⌊(l_max − l_min)/nsets⌋ + 1` members) and the reused-line
    /// subtraction. The result is therefore an upper bound on the exact
    /// walk's distinct-contention count for *every* point of the row along
    /// the vector that produced `[from, to]`: `true` means each such point
    /// is a classifier hit.
    pub(crate) fn row_contention_hit(&self, from: &[i64], to: &[i64]) -> bool {
        let k = self.config.assoc() as i64;
        let nsets = self.config.num_sets() as i64;
        let n = self.program.depth();
        let diff = from
            .iter()
            .zip(to)
            .position(|(a, b)| a != b)
            .unwrap_or(2 * n);
        let mut sum: i64 = 0;
        for bp in &self.bounds {
            let Some((l_min, l_max)) = self.ref_line_window(bp, from, to, diff) else {
                continue;
            };
            sum += (l_max - l_min).div_euclid(nsets) + 1;
            if sum >= k {
                return false;
            }
        }
        sum < k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    fn classify_all(program: &Program, config: CacheConfig) -> Vec<(RefId, Vec<i64>, PointClass)> {
        let reuse = ReuseAnalysis::analyze(program, config.line_bytes());
        let cl = Classifier::new(program, &reuse, config);
        let mut out = Vec::new();
        let mut scratch = Scratch::new();
        for r in 0..program.references().len() {
            program.ris(r).for_each_point(|p| {
                out.push((r, p.to_vec(), cl.classify_with_scratch(r, p, &mut scratch)));
            });
        }
        out
    }

    /// A sequential scan: one cold miss per line, spatial hits in between.
    #[test]
    fn stream_classification() {
        let mut b = ProgramBuilder::new("stream");
        b.array("A", &[32], 8);
        b.push(SNode::loop_(
            "I",
            1,
            32,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let p = b.build().unwrap();
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let verdicts = classify_all(&p, cfg);
        let cold = verdicts
            .iter()
            .filter(|(_, _, c)| matches!(c, PointClass::Cold))
            .count();
        let hits = verdicts
            .iter()
            .filter(|(_, _, c)| matches!(c, PointClass::Hit { .. }))
            .count();
        assert_eq!(cold, 8); // 32 elements × 8B / 32B lines
        assert_eq!(hits, 24);
    }

    /// Temporal reuse with an interfering conflicting line: direct-mapped
    /// evicts, 2-way keeps.
    #[test]
    fn conflict_sensitivity_to_associativity() {
        // Loop: read A(1); read B(1); A and B are 1024B apart so their first
        // lines conflict in a 1KB direct-mapped cache (32 sets).
        let mut b = ProgramBuilder::new("conflict");
        b.array("A", &[128], 8); // 1024 bytes
        b.array("B", &[128], 8);
        b.push(SNode::loop_(
            "I",
            1,
            4,
            vec![SNode::reads_only(vec![
                SRef::new("A", vec![LinExpr::constant(1)]),
                SRef::new("B", vec![LinExpr::constant(1)]),
            ])],
        ));
        let p = b.build().unwrap();
        assert_eq!(p.base_address(1) - p.base_address(0), 1024);

        let direct = CacheConfig::new(1024, 32, 1).unwrap();
        let verdicts = classify_all(&p, direct);
        // Every re-read of A(1) finds its line evicted by B(1) (and vice
        // versa): 2 cold + 6 replacement misses.
        let miss = verdicts.iter().filter(|(_, _, c)| c.is_miss()).count();
        assert_eq!(miss, 8);

        let twoway = CacheConfig::new(1024, 32, 2).unwrap();
        let verdicts = classify_all(&p, twoway);
        let miss = verdicts.iter().filter(|(_, _, c)| c.is_miss()).count();
        assert_eq!(miss, 2); // only the two cold misses
    }

    /// Classification agrees exactly with the LRU simulator on a program
    /// with mixed reuse (the ground-truth cross-check).
    #[test]
    fn agrees_with_simulator_on_small_kernel() {
        let n = 12i64;
        let mut b = ProgramBuilder::new("mix");
        b.array("A", &[n], 8);
        b.array("B", &[n, n], 8);
        let i1 = LinExpr::var("I1");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I1",
            2,
            n,
            vec![SNode::loop_(
                "I2",
                1,
                n,
                vec![SNode::assign(
                    SRef::new("B", vec![i2.clone(), i1.clone()]),
                    vec![
                        SRef::new("A", vec![i2.clone()]),
                        SRef::new("B", vec![i2.clone(), i1.offset(-1)]),
                    ],
                )],
            )],
        ));
        let p = b.build().unwrap();
        for assoc in [1u32, 2, 4] {
            let cfg = CacheConfig::new(512, 32, assoc).unwrap();
            let predicted: u64 = classify_all(&p, cfg)
                .iter()
                .filter(|(_, _, c)| c.is_miss())
                .count() as u64;
            let sim = cme_cache::Simulator::new(cfg).run(&p);
            assert_eq!(
                predicted,
                sim.total_misses(),
                "assoc {assoc}: prediction != simulation"
            );
        }
    }

    /// `classify` and `classify_with_scratch` agree point-for-point, and a
    /// single scratch serves programs of different depths in sequence.
    #[test]
    fn scratch_path_matches_allocating_path() {
        let mut b = ProgramBuilder::new("mix3");
        b.array("A", &[16, 16], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            2,
            10,
            vec![SNode::loop_(
                "I",
                1,
                10,
                vec![SNode::assign(
                    SRef::new("A", vec![i.clone(), j.clone()]),
                    vec![SRef::new("A", vec![i.clone(), j.offset(-1)])],
                )],
            )],
        ));
        let deep = b.build().unwrap();

        let mut b = ProgramBuilder::new("flat");
        b.array("A", &[64], 8);
        b.push(SNode::loop_(
            "I",
            1,
            64,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let flat = b.build().unwrap();

        let cfg = CacheConfig::new(512, 32, 2).unwrap();
        let mut scratch = Scratch::new();
        // Deliberately alternate programs so buffer sizes change between
        // calls: 2-deep (n=2) then 1-deep (n=1).
        for program in [&deep, &flat, &deep] {
            let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
            let cl = Classifier::new(program, &reuse, cfg);
            for r in 0..program.references().len() {
                program.ris(r).for_each_point(|p| {
                    assert_eq!(
                        cl.classify(r, p),
                        cl.classify_with_scratch(r, p, &mut scratch),
                        "r={r} p={p:?}"
                    );
                });
            }
        }
    }
}
