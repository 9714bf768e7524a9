//! Batch multi-query evaluation over **one shared possible-world stream**.
//!
//! World materialization dominates every estimator's cost: sampling a world
//! means flipping every edge and rebuilding a CSR, while accumulating one
//! estimator from it is comparatively cheap. The paper's own evaluation
//! sweeps families of related settings — many `(notion, k, l_m, score)`
//! combinations — over the *same* sampled worlds, yet running them as
//! standalone [`Query`]s pays θ world materializations per member.
//!
//! [`QuerySet`] amortizes that: it holds many `Query` members and **one**
//! `(sampler, θ, seed)` world stream. Each world is materialized exactly once
//! (mask and CSR storage recycled, [`RunControl`] polled, [`ProgressSink`]
//! fed) and every member estimator accumulates from it, so an n-member batch
//! costs θ world materializations instead of n·θ.
//!
//! # Bit-identity contract
//!
//! A standalone [`Query::run`] builds its sampler from the query's
//! `(sampler kind, seed)` pair — the world stream does not depend on the
//! estimator at all. A `QuerySet` builds the *same* stream once and feeds
//! every member, so **each member's [`Run`] is bit-identical to the
//! standalone run** of that member with the set's `(sampler, θ, seed)` —
//! MPDS and NDS members simultaneously, for every [`SamplerKind`]. This is
//! the same common-random-numbers discipline [`crate::recompute`] uses
//! across graph versions, applied across estimators.
//!
//! # Execution model
//!
//! A `QuerySet` runs through the same loop as a standalone [`Query`] (which
//! runs as a set of one): every lane solves each world it claims for every
//! member. A fixed-θ set whose members are all NDS or all-densest MPDS takes
//! the helpers [`RunControl::with_helpers`] lends it; a stable stop or a
//! one-densest ablation member keeps the set on one ordered lane. Either
//! way each member's run is its standalone run.
//!
//! # Example
//!
//! ```
//! use densest::DensityNotion;
//! use mpds::api::queryset::QuerySet;
//! use mpds::api::Query;
//! use ugraph::UncertainGraph;
//!
//! // The paper's Fig. 1 example graph (A = 0, B = 1, C = 2, D = 3).
//! let g = UncertainGraph::from_weighted_edges(
//!     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
//!
//! // One world stream, two estimator families, three result sizes.
//! let batch = QuerySet::new()
//!     .theta(400)
//!     .seed(7)
//!     .push(Query::mpds(DensityNotion::Edge).k(1))
//!     .push(Query::mpds(DensityNotion::Edge).k(3))
//!     .push(Query::nds(DensityNotion::Edge).k(2))
//!     .run(&g)
//!     .expect("valid batch");
//! assert_eq!(batch.runs.len(), 3);
//! assert_eq!(batch.stats.worlds_sampled, 400); // θ worlds for all members
//!
//! // Bit-identical to the standalone run of each member:
//! let standalone = Query::mpds(DensityNotion::Edge)
//!     .k(1).theta(400).seed(7).run(&g).unwrap();
//! assert_eq!(batch.runs[0].top_k, standalone.top_k);
//! ```

use super::{
    run_members, ApiError, ProgressSink, Query, Run, SamplerKind, Stop, StopReason, Stream,
};
use crate::control::RunControl;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugraph::UncertainGraph;

/// A validated collection of [`Query`] members evaluated in a single
/// sampling loop over one shared `(sampler, θ, seed)` world stream.
///
/// Members keep their own estimator knobs (`kind`, `notion`, `k`, `l_m`,
/// `heuristic`, …); the stream knobs (`sampler`, `theta`, `seed`) and the
/// run hooks (`control`, `progress`) are **owned by the set** and supersede
/// whatever the members carry — that is what makes every member's result
/// bit-identical to its standalone run with the set's stream parameters
/// (see the [module docs](self)).
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::queryset::QuerySet;
/// use mpds::api::Query;
///
/// let set = QuerySet::new()
///     .theta(64)
///     .push(Query::mpds(DensityNotion::Edge))
///     .push(Query::nds(DensityNotion::Edge));
/// assert!(format!("{set:?}").contains("Nds"));
/// ```
#[derive(Clone)]
pub struct QuerySet {
    sampler: SamplerKind,
    theta: usize,
    seed: u64,
    stop: Stop,
    control: RunControl,
    progress: Option<Arc<dyn ProgressSink>>,
    members: Vec<Query>,
}

impl std::fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySet")
            .field("sampler", &self.sampler)
            .field("theta", &self.theta)
            .field("seed", &self.seed)
            .field("stop", &self.stop)
            .field("control", &self.control)
            .field("progress", &self.progress.as_ref().map(|_| "<sink>"))
            .field("members", &self.members)
            .finish()
    }
}

impl Default for QuerySet {
    /// Same as [`QuerySet::new`].
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// assert_eq!(format!("{:?}", QuerySet::default()), format!("{:?}", QuerySet::new()));
    /// ```
    fn default() -> Self {
        QuerySet::new()
    }
}

impl QuerySet {
    /// An empty set with the paper-default stream: Monte-Carlo sampling,
    /// θ = 320, seed 42 (the same defaults as a standalone [`Query`]).
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// let set = QuerySet::new();
    /// assert!(format!("{set:?}").contains("members: []"));
    /// assert!(format!("{set:?}").contains("theta: 320"));
    /// ```
    pub fn new() -> Self {
        QuerySet {
            sampler: SamplerKind::MonteCarlo,
            theta: 320,
            seed: 42,
            stop: Stop::FixedTheta,
            control: RunControl::unbounded(),
            progress: None,
            members: Vec::new(),
        }
    }

    /// Chooses the shared sampling strategy (default
    /// [`SamplerKind::MonteCarlo`]).
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::SamplerKind;
    /// let set = QuerySet::new().sampler(SamplerKind::Rss);
    /// assert!(format!("{set:?}").contains("Rss"));
    /// ```
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets θ, the number of worlds sampled **once for the whole batch**
    /// (default 320).
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// let set = QuerySet::new().theta(64);
    /// assert!(format!("{set:?}").contains("theta: 64"));
    /// ```
    pub fn theta(mut self, theta: usize) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the shared stream's RNG seed (default 42). Equal
    /// `(sampler, θ, seed)` ⇒ equal worlds ⇒ every member equals its
    /// standalone run.
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// let set = QuerySet::new().seed(9);
    /// assert!(format!("{set:?}").contains("seed: 9"));
    /// ```
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses the shared termination policy (default
    /// [`Stop::FixedTheta`]), superseding whatever the members carry — like
    /// every stream knob. Under [`Stop::Stable`] the batch stops at the
    /// first world where **every** member's top-k has been unchanged for
    /// the window; each member's result is then bit-identical to its
    /// standalone fixed-θ run at that joint stop point.
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::Stop;
    /// let set = QuerySet::new().stop(Stop::Stable {
    ///     window: 16,
    ///     min_theta: 16,
    ///     theta_cap: 4000,
    /// });
    /// assert!(format!("{set:?}").contains("Stable"));
    /// ```
    pub fn stop(mut self, stop: Stop) -> Self {
        self.stop = stop;
        self
    }

    /// Attaches a cooperative deadline / cancellation control, polled once
    /// per sampled world (default: unbounded). One interruption aborts the
    /// whole batch — members never return partial results. A graceful
    /// [`RunControl::with_budget`] budget instead stops the shared stream
    /// and every member reports [`StopReason::Budget`] over the same
    /// (shorter) world prefix.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::{ApiError, Query};
    /// use mpds::control::RunControl;
    /// use std::time::{Duration, Instant};
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let expired = RunControl::unbounded()
    ///     .with_deadline(Instant::now() - Duration::from_millis(1));
    /// let err = QuerySet::new()
    ///     .control(expired)
    ///     .push(Query::mpds(DensityNotion::Edge))
    ///     .run(&g);
    /// assert!(matches!(err, Err(ApiError::Interrupted(_))));
    /// ```
    pub fn control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Attaches a [`ProgressSink`], notified once per sampled world — once
    /// per **world**, not once per world per member, because each world is
    /// materialized exactly once.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::{ProgressCounter, Query};
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let c = ProgressCounter::new();
    /// QuerySet::new()
    ///     .theta(10)
    ///     .progress(c.clone())
    ///     .push(Query::mpds(DensityNotion::Edge))
    ///     .push(Query::nds(DensityNotion::Edge))
    ///     .run(&g)
    ///     .unwrap();
    /// assert_eq!(c.done(), 10); // θ, not members × θ
    /// ```
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Appends a member query. Its estimator knobs are kept; its stream
    /// knobs (`sampler`, `theta`, `seed`) and run hooks are superseded by
    /// the set's at [`QuerySet::run`] time.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::Query;
    /// let set = QuerySet::new()
    ///     .push(Query::mpds(DensityNotion::Edge).k(1))
    ///     .push(Query::mpds(DensityNotion::Edge).k(2));
    /// assert!(format!("{set:?}").contains("k: 2"));
    /// ```
    pub fn push(mut self, query: Query) -> Self {
        self.members.push(query);
        self
    }

    /// Validates the set, builds the shared sampler from
    /// `(sampler kind, seed)`, and evaluates every member from one pass over
    /// θ worlds.
    ///
    /// Each returned [`Run`] is bit-identical (`top_k`, details, counters —
    /// wall time and `helper_worlds` excepted) to the standalone
    /// [`Query::run`] of that member with the set's stream parameters.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::Query;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(
    ///     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    /// let batch = QuerySet::new()
    ///     .theta(300)
    ///     .seed(17)
    ///     .push(Query::mpds(DensityNotion::Edge).k(1))
    ///     .push(Query::nds(DensityNotion::Edge).k(2))
    ///     .run(&g)
    ///     .unwrap();
    /// let alone = Query::nds(DensityNotion::Edge)
    ///     .k(2).theta(300).seed(17).run(&g).unwrap();
    /// assert_eq!(batch.runs[1].top_k, alone.top_k);
    /// ```
    pub fn run(&self, g: &UncertainGraph) -> Result<BatchRun, ApiError> {
        if self.members.is_empty() {
            return Err(ApiError::InvalidParameter {
                param: "members",
                message: "a QuerySet needs at least one member query".to_string(),
            });
        }
        let started = Instant::now();
        let (runs, outcome) = run_members(
            &self.members,
            g,
            Stream::Shared(&mut *self.sampler.build(g, self.seed)),
            self.stop,
            self.theta,
            &self.control,
            self.progress.as_deref(),
        )?;
        Ok(BatchRun {
            stats: BatchStats {
                worlds_sampled: outcome.worlds,
                stop_reason: outcome.reason,
                converged_at: outcome.converged_at,
                members: runs.len(),
                wall: started.elapsed(),
            },
            runs,
        })
    }
}

/// Shared-stream measurements of a [`BatchRun`]. Per-member statistics
/// (empty worlds, truncation, densest-count summaries) live in each member
/// [`Run::stats`]; this type records what the batch amortized.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::queryset::QuerySet;
/// use mpds::api::Query;
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.9), (1, 2, 0.9)]);
/// let batch = QuerySet::new()
///     .theta(40)
///     .push(Query::mpds(DensityNotion::Edge))
///     .push(Query::nds(DensityNotion::Edge))
///     .run(&g)
///     .unwrap();
/// assert_eq!(batch.stats.worlds_sampled, 40);
/// assert_eq!(batch.stats.members, 2);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchStats {
    /// Worlds materialized for the whole batch — independent of the member
    /// count (standalone runs would pay `members × worlds`). Equals θ under
    /// [`Stop::FixedTheta`] with no budget; smaller when [`Stop::Stable`]
    /// fired or the shared budget expired.
    pub worlds_sampled: usize,
    /// Why the shared stream stopped (every member shares it).
    pub stop_reason: StopReason,
    /// For stable stops: the world count after which no member's top-k
    /// changed again. `None` otherwise.
    pub converged_at: Option<usize>,
    /// Number of member queries evaluated.
    pub members: usize,
    /// Wall-clock time of the batch (sampling + every member's
    /// aggregation).
    pub wall: Duration,
}

/// The result of [`QuerySet::run`]: one [`Run`] per member (in push order)
/// plus the shared-stream [`BatchStats`].
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::queryset::QuerySet;
/// use mpds::api::{Query, Score};
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.3)]);
/// let batch = QuerySet::new()
///     .theta(50)
///     .push(Query::mpds(DensityNotion::Edge).k(1))
///     .push(Query::nds(DensityNotion::Edge).k(1))
///     .run(&g)
///     .unwrap();
/// assert_eq!(batch.runs[0].score, Score::TauHat);
/// assert_eq!(batch.runs[1].score, Score::GammaHat);
/// assert_eq!(batch.runs[0].top_k[0].0, vec![0, 1]); // the certain edge
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchRun {
    /// Per-member results, in the order the members were pushed.
    pub runs: Vec<Run>,
    /// What the shared stream did.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RunDetails;
    use crate::control::InterruptReason;
    use densest::DensityNotion;

    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    /// The load-bearing contract: every member of a mixed-family batch is
    /// bit-identical to its standalone run at the set's (sampler, θ, seed),
    /// for all three samplers.
    #[test]
    fn members_match_standalone_runs_for_every_sampler() {
        let g = fig1();
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let members = [
                Query::mpds(DensityNotion::Edge).k(2),
                Query::mpds(DensityNotion::Edge).k(4).heuristic(true),
                Query::nds(DensityNotion::Edge).k(3).min_size(2),
                Query::nds(DensityNotion::Edge).k(2).min_size(0),
            ];
            let mut set = QuerySet::new().sampler(kind).theta(150).seed(23);
            for m in &members {
                set = set.push(m.clone());
            }
            let batch = set.run(&g).unwrap();
            assert_eq!(batch.runs.len(), members.len());
            for (run, member) in batch.runs.iter().zip(&members) {
                let alone = member
                    .clone()
                    .sampler(kind)
                    .theta(150)
                    .seed(23)
                    .run(&g)
                    .unwrap();
                assert_eq!(run.top_k, alone.top_k, "{}", kind.name());
                assert_eq!(run.stats.empty_worlds, alone.stats.empty_worlds);
                match (&run.details, &alone.details) {
                    (RunDetails::Mpds(a), RunDetails::Mpds(b)) => {
                        assert_eq!(a.candidates, b.candidates);
                        assert_eq!(a.densest_counts, b.densest_counts);
                    }
                    (RunDetails::Nds(a), RunDetails::Nds(b)) => {
                        assert_eq!(a.transactions, b.transactions);
                    }
                    _ => panic!("family mismatch"),
                }
            }
        }
    }

    /// Members' own stream knobs are superseded by the set's.
    #[test]
    fn set_stream_knobs_supersede_member_knobs() {
        let g = fig1();
        let batch = QuerySet::new()
            .theta(80)
            .seed(5)
            .push(
                Query::mpds(DensityNotion::Edge)
                    .theta(9999)
                    .seed(12345)
                    .sampler(SamplerKind::Rss)
                    .k(2),
            )
            .run(&g)
            .unwrap();
        let alone = Query::mpds(DensityNotion::Edge)
            .theta(80)
            .seed(5)
            .k(2)
            .run(&g)
            .unwrap();
        assert_eq!(batch.runs[0].top_k, alone.top_k);
        assert_eq!(batch.runs[0].stats.worlds_sampled, 80);
    }

    #[test]
    fn empty_set_and_zero_theta_are_invalid() {
        let g = fig1();
        let err = QuerySet::new().run(&g).unwrap_err();
        assert!(
            matches!(
                err,
                ApiError::InvalidParameter {
                    param: "members",
                    ..
                }
            ),
            "{err}"
        );
        let err = QuerySet::new()
            .theta(0)
            .push(Query::mpds(DensityNotion::Edge))
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(err, ApiError::InvalidParameter { param: "theta", .. }),
            "{err}"
        );
    }

    #[test]
    fn interruption_aborts_the_whole_batch() {
        use std::time::Duration;
        let g = fig1();
        let expired =
            RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = QuerySet::new()
            .theta(1000)
            .control(expired)
            .push(Query::mpds(DensityNotion::Edge))
            .push(Query::nds(DensityNotion::Edge))
            .run(&g)
            .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, InterruptReason::DeadlineExceeded);
                assert_eq!(i.completed_worlds, 0);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    /// Under `Stop::Stable` the batch stops at the first world where every
    /// member is simultaneously stable, and each member equals its
    /// standalone fixed-θ run at that joint stop point.
    #[test]
    fn stable_batch_stops_jointly_and_members_match_fixed_theta() {
        use crate::api::Stop;
        let g = fig1();
        let members = [
            Query::mpds(DensityNotion::Edge).k(2),
            Query::nds(DensityNotion::Edge).k(2).min_size(2),
        ];
        let mut set = QuerySet::new().seed(19).stop(Stop::Stable {
            window: 24,
            min_theta: 24,
            theta_cap: 6000,
        });
        for m in &members {
            set = set.push(m.clone());
        }
        let batch = set.run(&g).unwrap();
        assert_eq!(batch.stats.stop_reason, StopReason::Stable);
        let t = batch.stats.worlds_sampled;
        assert!(t < 6000, "expected an early stop, sampled {t}");
        assert_eq!(batch.stats.converged_at, Some(t - 24));
        for (run, member) in batch.runs.iter().zip(&members) {
            assert_eq!(run.stats.worlds_sampled, t);
            assert_eq!(run.stats.stop_reason, StopReason::Stable);
            let alone = member.clone().theta(t).seed(19).run(&g).unwrap();
            assert_eq!(run.top_k, alone.top_k);
        }
    }

    /// An expired shared budget stops the batch gracefully after one world;
    /// every member reports Budget over the same prefix.
    #[test]
    fn expired_budget_stops_the_batch_after_one_world() {
        use std::time::Duration;
        let g = fig1();
        let spent = RunControl::unbounded().with_budget(Instant::now() - Duration::from_millis(1));
        let batch = QuerySet::new()
            .theta(5000)
            .control(spent)
            .push(Query::mpds(DensityNotion::Edge))
            .push(Query::nds(DensityNotion::Edge))
            .run(&g)
            .unwrap();
        assert_eq!(batch.stats.stop_reason, StopReason::Budget);
        assert_eq!(batch.stats.worlds_sampled, 1);
        for run in &batch.runs {
            assert_eq!(run.stats.stop_reason, StopReason::Budget);
            assert_eq!(run.stats.worlds_sampled, 1);
        }
    }

    #[test]
    fn invalid_set_stop_is_rejected() {
        use crate::api::Stop;
        let g = fig1();
        let err = QuerySet::new()
            .stop(Stop::Stable {
                window: 0,
                min_theta: 1,
                theta_cap: 10,
            })
            .push(Query::mpds(DensityNotion::Edge))
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(err, ApiError::InvalidParameter { param: "stop", .. }),
            "{err}"
        );
    }

    #[test]
    fn batch_stats_record_amortization() {
        let g = fig1();
        let mut set = QuerySet::new().theta(60);
        for k in 1..=6 {
            set = set.push(Query::mpds(DensityNotion::Edge).k(k));
        }
        let batch = set.run(&g).unwrap();
        assert_eq!(batch.stats.worlds_sampled, 60);
        assert_eq!(batch.stats.members, 6);
        assert!(batch.stats.wall.as_nanos() > 0);
        for run in &batch.runs {
            assert_eq!(run.stats.worlds_sampled, 60);
        }
    }
}
