//! The exact per-reference ladder: symbolic tier, then pre-pass, then the
//! set-skip walk.
//!
//! [`FindMisses`](crate::FindMisses), the exhaustive branch of
//! [`EstimateMisses`](crate::EstimateMisses) and
//! [`SweepPlan`](crate::SweepPlan) answer a reference the same way, so
//! they all climb this one ladder. When the symbolic tier is enabled and
//! closes the reference, its counts are the answer. Otherwise the pre-pass
//! resolves what it can and the walk classifies the remaining points. Each
//! tier returns exactly what the walk would tally, so the ladder changes
//! cost, never a count.

use crate::cancel::{CancelToken, Cancelled};
use crate::classify::Classifier;
use crate::options::SymbolicMode;
use crate::parallel::{self, Tally};
use crate::prepass::{self, RefVerdicts};
use crate::report::{Coverage, RefReport, Report};
use crate::symbolic::{self, RefCounts};
use cme_ir::RefId;
use std::time::Duration;

/// Where a reference leaves the ladder before the walk.
pub(crate) enum Rung {
    /// The symbolic tier closed the reference: these are its totals.
    Closed(RefCounts),
    /// The reference is walked; the pre-pass verdicts resolve what they
    /// can and the walk decides the rest.
    Walk(RefVerdicts),
}

/// Runs the tiers ahead of the walk for reference `r`. The symbolic tier
/// runs only under [`SymbolicMode::On`]; the pre-pass always runs on a
/// reference the tier did not close.
pub(crate) fn climb(
    cl: &Classifier<'_>,
    r: RefId,
    symbolic: SymbolicMode,
    cancel: &CancelToken,
) -> Result<Rung, Cancelled> {
    if symbolic == SymbolicMode::On {
        if let Some(counts) = symbolic::analyze_reference(cl, r, cancel)?.counts() {
            return Ok(Rung::Closed(counts));
        }
    }
    prepass::analyze_reference(cl, r, cancel).map(Rung::Walk)
}

/// Per-reference results plus the tier diagnostics, accumulated in
/// reference order into one [`Report`].
#[derive(Debug, Default)]
pub(crate) struct Tallies {
    reports: Vec<RefReport>,
    points_done: u64,
    prepass_resolved: u64,
    symbolic_refs: u64,
    symbolic_points: u64,
}

impl Tallies {
    /// The cancellation error for this run: points of the references
    /// completed so far.
    pub(crate) fn cancelled(&self) -> Cancelled {
        Cancelled {
            points_done: self.points_done,
        }
    }

    /// Points of the references completed so far.
    pub(crate) fn points_done(&self) -> u64 {
        self.points_done
    }

    /// Records one reference.
    pub(crate) fn push(&mut self, r: RefId, ris_size: u64, tally: Tally, coverage: Coverage) {
        self.points_done += tally.analyzed();
        self.reports.push(RefReport {
            r,
            ris_size,
            analyzed: tally.analyzed(),
            cold: tally.cold,
            replacement: tally.replacement,
            hits: tally.hits,
            coverage,
        });
    }

    /// Records a reference the symbolic tier closed.
    pub(crate) fn push_closed(&mut self, r: RefId, counts: RefCounts) {
        self.symbolic_refs += 1;
        self.symbolic_points += counts.total();
        let tally = Tally {
            cold: counts.cold,
            replacement: counts.replacement,
            hits: counts.hits,
        };
        self.push(r, tally.analyzed(), tally, Coverage::Exhaustive);
    }

    /// Records a reference the walk finished under `verdicts`.
    pub(crate) fn push_walked(&mut self, r: RefId, tally: Tally, verdicts: &RefVerdicts) {
        self.prepass_resolved += verdicts.resolved();
        self.push(r, tally.analyzed(), tally, Coverage::Exhaustive);
    }

    /// Climbs the whole ladder for reference `r`, walking its unresolved
    /// points on `threads` workers, and records the result.
    pub(crate) fn exhaustive(
        &mut self,
        cl: &Classifier<'_>,
        r: RefId,
        symbolic: SymbolicMode,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<(), Cancelled> {
        match climb(cl, r, symbolic, cancel).map_err(|_| self.cancelled())? {
            Rung::Closed(counts) => self.push_closed(r, counts),
            Rung::Walk(verdicts) => {
                let tally = parallel::classify_exhaustive(cl, r, threads, cancel, &verdicts)
                    .ok_or(self.cancelled())?;
                self.push_walked(r, tally, &verdicts);
            }
        }
        Ok(())
    }

    /// The finished report.
    pub(crate) fn finish(self, elapsed: Duration) -> Report {
        Report::new(self.reports, elapsed)
            .with_prepass_resolved(self.prepass_resolved)
            .with_symbolic_closed(self.symbolic_refs, self.symbolic_points)
    }
}
