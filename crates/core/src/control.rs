//! Cooperative run control for the sampling estimators: deadlines and
//! cancellation flags checked between sampled worlds.
//!
//! The estimators of [`crate::estimate`] and [`crate::nds`] are long,
//! seed-deterministic loops (θ worlds, each a full densest-subgraph solve).
//! A serving layer needs two things a batch run does not: the ability to
//! abandon a query whose client gave up (deadline) and the ability to drain
//! in-flight work on shutdown (cancellation flag). Both are *cooperative*:
//! the loop polls [`RunControl::interruption`] once per sampled world — a
//! per-world `Instant::now()` plus one relaxed atomic load, negligible next
//! to a world's densest-subgraph solve — and returns [`Interrupted`] instead
//! of a partial (and therefore biased-looking) estimate.
//!
//! Deadlines come in two flavors. [`RunControl::with_deadline`] is the hard,
//! *abortive* one above: the run returns [`Interrupted`] and no estimate.
//! [`RunControl::with_budget`] is the graceful, *anytime* one: once the
//! budget instant passes, the sampling loop finishes the current world and
//! returns the best-so-far estimate over the worlds actually sampled (the
//! divisor shrinks with it, so the estimate stays unbiased for the achieved
//! world count) with [`crate::api::StopReason::Budget`] in its stats. A run
//! with both stops at whichever fires first — cancellation, then hard
//! deadline, then budget.

use mpds_obs::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an estimator run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The [`RunControl`] deadline passed.
    DeadlineExceeded,
    /// The [`RunControl`] cancellation flag was raised.
    Cancelled,
}

/// Error returned when a controlled estimator run stops before sampling all
/// θ worlds. No partial estimate is returned: a truncated sample would have
/// a different (smaller) θ than requested, and callers that want partial
/// results should request fewer worlds instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// Why the run stopped.
    pub reason: InterruptReason,
    /// Worlds fully processed before the stop (out of the requested θ).
    pub completed_worlds: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.reason {
            InterruptReason::DeadlineExceeded => "deadline exceeded",
            InterruptReason::Cancelled => "cancelled",
        };
        write!(f, "{what} after {} sampled worlds", self.completed_worlds)
    }
}

impl std::error::Error for Interrupted {}

/// Deadline + cancellation-flag pair polled by the controlled estimators.
///
/// The default [`RunControl::unbounded`] never interrupts, so an
/// uncontrolled [`crate::api::Query`] run is exactly a controlled one with
/// an unbounded control.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    budget: Option<Instant>,
    recorder: Option<Arc<Recorder>>,
    helpers: usize,
}

impl RunControl {
    /// A control that never interrupts.
    pub fn unbounded() -> Self {
        RunControl::default()
    }

    /// Interrupt the run once `deadline` has passed.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Interrupt the run once `flag` reads `true` (shared with the party
    /// that may raise it, e.g. a server's shutdown path).
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Stop the run *gracefully* once `budget` has passed: instead of
    /// aborting with [`Interrupted`], the sampling loop returns the
    /// best-so-far estimate over the worlds sampled up to that point. At
    /// least one world is always sampled, even when the budget is already
    /// in the past, so the estimate is never empty.
    pub fn with_budget(mut self, budget: Instant) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attach a stage-timing [`Recorder`]: the sampling loop wraps world
    /// materialization, estimator accumulation, and stability tracking in
    /// [`mpds_obs::Span`]s against it. A *disabled* recorder (or none at
    /// all) keeps the loop on its fast path — no clock reads per world.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Lend the run up to `helpers` threads besides the calling one. A
    /// fixed-θ, all-densest MPDS [`crate::api::Query`] under
    /// [`crate::api::Exec::Serial`] then solves its worlds in *lanes*: the
    /// calling thread and the helpers claim world indices in order and draw
    /// each world from the query's one sampler under the claim, so the
    /// answer, the per-world counts and the budget and interruption
    /// semantics are those of one lane; only the wall time changes. Other
    /// runs (NDS, [`crate::api::Stop::Stable`], the one-densest ablation,
    /// [`crate::api::Exec::Threads`], [`crate::api::Query::run_with_sampler`],
    /// batches) ignore it. Helpers record no stage spans. Default: 0.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use mpds::control::RunControl;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.9), (1, 2, 0.4)]);
    /// let q = Query::mpds(DensityNotion::Edge).theta(50).seed(3);
    /// let one = q.clone().run(&g).unwrap();
    /// let two = q.control(RunControl::unbounded().with_helpers(1)).run(&g).unwrap();
    /// assert_eq!(one.top_k, two.top_k);
    /// ```
    pub fn with_helpers(mut self, helpers: usize) -> Self {
        self.helpers = helpers;
        self
    }

    /// Helper threads lent to the run ([`RunControl::with_helpers`]).
    pub(crate) fn helpers(&self) -> usize {
        self.helpers
    }

    /// The attached stage recorder, if any.
    #[inline]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// `true` once the graceful budget (if any) has passed. Unlike
    /// [`RunControl::interruption`] this never aborts a run; the sampling
    /// loop reads it between worlds and wraps up with whatever it has.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.is_some_and(|b| Instant::now() >= b)
    }

    /// Polls the control. `None` means keep going. Cancellation is checked
    /// before the deadline so a shutdown is reported as such even when the
    /// deadline has also passed.
    pub fn interruption(&self) -> Option<InterruptReason> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(InterruptReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptReason::DeadlineExceeded);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_never_interrupts() {
        assert_eq!(RunControl::unbounded().interruption(), None);
    }

    #[test]
    fn deadline_in_the_past_interrupts() {
        let ctrl = RunControl::unbounded().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(ctrl.interruption(), Some(InterruptReason::DeadlineExceeded));
        let far = RunControl::unbounded().with_deadline(Instant::now() + Duration::from_secs(600));
        assert_eq!(far.interruption(), None);
    }

    #[test]
    fn budget_is_graceful_not_an_interruption() {
        let ctrl = RunControl::unbounded().with_budget(Instant::now() - Duration::from_secs(1));
        assert!(ctrl.budget_exhausted());
        assert_eq!(ctrl.interruption(), None);
        let far = RunControl::unbounded().with_budget(Instant::now() + Duration::from_secs(600));
        assert!(!far.budget_exhausted());
        assert!(!RunControl::unbounded().budget_exhausted());
    }

    #[test]
    fn cancel_flag_interrupts_and_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctrl = RunControl::unbounded()
            .with_cancel_flag(Arc::clone(&flag))
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(ctrl.interruption(), Some(InterruptReason::DeadlineExceeded));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(ctrl.interruption(), Some(InterruptReason::Cancelled));
    }
}
