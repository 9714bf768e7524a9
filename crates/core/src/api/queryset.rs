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
//! A standalone serial [`Query::run`] builds its sampler from the query's
//! `(sampler kind, seed)` pair — the world stream does not depend on the
//! estimator at all. A `QuerySet` builds the *same* stream once and feeds
//! every member, so **each member's [`Run`] is bit-identical to the
//! standalone run** of that member with the set's `(sampler, θ, seed)` —
//! MPDS and NDS members simultaneously, for every [`SamplerKind`]. This is
//! the same common-random-numbers discipline [`crate::recompute`] uses
//! across graph versions, applied across estimators; pair the two with
//! [`QuerySet::run_with_sampler`] and a
//! [`crate::recompute::CommonRandomNumbers`] stream to get both at once.
//!
//! # Execution model
//!
//! A `QuerySet` is strictly serial: [`Exec::Threads`] splits θ into
//! per-worker sub-streams that members cannot share, so members configured
//! with it are rejected with a typed [`ApiError::Unsupported`] (the same
//! precedent as [`Query::run_with_sampler`] and [`crate::recompute`]).
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
    sample_worlds, Accum, ApiError, Exec, Kind, MpdsAccum, NdsAccum, NoProgress, ProgressSink,
    Query, Run, SamplerKind, StableTracker, Stop, StopReason,
};
use crate::control::RunControl;
use sampling::WorldSampler;
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
/// assert_eq!(set.len(), 2);
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
    /// assert!(QuerySet::default().is_empty());
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
    /// assert!(set.is_empty());
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

    /// Alias of [`QuerySet::theta`] for readers who think in "#worlds".
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// let set = QuerySet::new().worlds(48);
    /// assert!(format!("{set:?}").contains("theta: 48"));
    /// ```
    pub fn worlds(self, worlds: usize) -> Self {
        self.theta(worlds)
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
    /// assert_eq!(set.len(), 2);
    /// ```
    pub fn push(mut self, query: Query) -> Self {
        self.members.push(query);
        self
    }

    /// Number of member queries.
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// assert_eq!(QuerySet::new().len(), 0);
    /// ```
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members (running an empty set is an
    /// [`ApiError::InvalidParameter`]).
    ///
    /// ```
    /// use mpds::api::queryset::QuerySet;
    /// assert!(QuerySet::new().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Validates the set and rewrites every member onto the shared stream:
    /// estimator knobs kept, stream knobs and run hooks superseded.
    fn normalized_members(&self) -> Result<Vec<Query>, ApiError> {
        if self.members.is_empty() {
            return Err(ApiError::InvalidParameter {
                param: "members",
                message: "a QuerySet needs at least one member query".to_string(),
            });
        }
        if self.theta == 0 {
            return Err(ApiError::InvalidParameter {
                param: "theta",
                message: "need at least one sampled world".to_string(),
            });
        }
        if let Stop::Stable {
            window,
            min_theta,
            theta_cap,
        } = self.stop
        {
            let invalid = |message: String| {
                Err(ApiError::InvalidParameter {
                    param: "stop",
                    message,
                })
            };
            if window == 0 {
                return invalid("Stable window must be at least 1".to_string());
            }
            if theta_cap == 0 {
                return invalid("Stable theta_cap must be at least 1".to_string());
            }
            if min_theta > theta_cap {
                return invalid(format!(
                    "Stable min_theta {min_theta} exceeds theta_cap {theta_cap}"
                ));
            }
        }
        let mut members = Vec::with_capacity(self.members.len());
        for member in &self.members {
            if let Exec::Threads(_) = member.exec {
                return Err(ApiError::Unsupported {
                    message: "QuerySet members share one serial world stream; \
                              Exec::Threads splits θ into per-worker sub-streams no \
                              batch member can share — run threaded queries standalone \
                              via Query::run"
                        .to_string(),
                });
            }
            let mut q = member.clone();
            q.sampler = self.sampler;
            q.theta = self.theta;
            q.seed = self.seed;
            // Stability is decided jointly by the set (see run_serial), so
            // members run as plain fixed-θ estimators over the shared
            // stream.
            q.stop = Stop::FixedTheta;
            q.control = self.control.clone();
            q.progress = None;
            q.validate()?;
            members.push(q);
        }
        Ok(members)
    }

    /// Validates the set, builds the shared sampler from
    /// `(sampler kind, seed)`, and evaluates every member from one pass over
    /// θ worlds.
    ///
    /// Each returned [`Run`] is bit-identical (`top_k`, details, counters —
    /// wall time excepted) to the standalone [`Query::run`] of that member
    /// with the set's stream parameters.
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
        let mut sampler = self.sampler.build(g, self.seed);
        self.run_serial(g, &mut *sampler)
    }

    /// Like [`QuerySet::run`] with a caller-supplied world stream instead of
    /// one resolved from `(sampler kind, seed)` — e.g. a
    /// [`crate::recompute::CommonRandomNumbers`] stream, so a whole batch
    /// can be re-evaluated against two graph versions under common random
    /// numbers.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::Query;
    /// use mpds::recompute::CommonRandomNumbers;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(
    ///     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    /// let mut crn = CommonRandomNumbers::new(&g, 7);
    /// let batch = QuerySet::new()
    ///     .theta(200)
    ///     .push(Query::mpds(DensityNotion::Edge).k(1))
    ///     .run_with_sampler(&g, &mut crn)
    ///     .unwrap();
    /// // Same stream, standalone: bit-identical member result.
    /// let mut crn = CommonRandomNumbers::new(&g, 7);
    /// let alone = Query::mpds(DensityNotion::Edge)
    ///     .k(1).theta(200).run_with_sampler(&g, &mut crn).unwrap();
    /// assert_eq!(batch.runs[0].top_k, alone.top_k);
    /// ```
    pub fn run_with_sampler<S: WorldSampler + ?Sized>(
        &self,
        g: &UncertainGraph,
        sampler: &mut S,
    ) -> Result<BatchRun, ApiError> {
        self.run_serial(g, sampler)
    }

    fn run_serial<S: WorldSampler + ?Sized>(
        &self,
        g: &UncertainGraph,
        sampler: &mut S,
    ) -> Result<BatchRun, ApiError> {
        let members = self.normalized_members()?;
        let started = Instant::now();
        let progress: &dyn ProgressSink = match &self.progress {
            Some(sink) => sink.as_ref(),
            None => &NoProgress,
        };
        let limit = match self.stop {
            Stop::FixedTheta => self.theta,
            Stop::Stable { theta_cap, .. } => theta_cap,
        };
        progress.begin(limit);
        enum MemberAccum {
            Mpds(MpdsAccum),
            Nds(NdsAccum),
        }
        let mut accums: Vec<MemberAccum> = members
            .iter()
            .map(|q| match q.kind {
                Kind::Mpds => MemberAccum::Mpds(MpdsAccum::new(q, g.num_nodes())),
                Kind::Nds => MemberAccum::Nds(NdsAccum::new(q)),
            })
            .collect();
        // One tracker per member under Stop::Stable: the batch stops at the
        // first world where every member is simultaneously stable.
        let mut trackers: Option<Vec<StableTracker>> = match self.stop {
            Stop::FixedTheta => None,
            Stop::Stable {
                window, min_theta, ..
            } => Some(
                members
                    .iter()
                    .map(|_| StableTracker::new(window, min_theta))
                    .collect(),
            ),
        };
        let mut outcome = sample_worlds(g, sampler, limit, &self.control, progress, |world| {
            for (accum, q) in accums.iter_mut().zip(&members) {
                match accum {
                    MemberAccum::Mpds(a) => a.consume(world, q),
                    MemberAccum::Nds(a) => a.consume(world, q),
                }
            }
            match &mut trackers {
                None => true,
                Some(ts) => {
                    let mut all_stable = true;
                    for ((t, accum), q) in ts.iter_mut().zip(&mut accums).zip(&members) {
                        let current = match accum {
                            MemberAccum::Mpds(a) => a.top_k_sets(q.k),
                            MemberAccum::Nds(a) => itemset::top_k_closed(
                                &a.transactions,
                                q.k,
                                q.min_size,
                                q.miner_node_cap,
                            )
                            .0
                            .into_iter()
                            .map(|c| c.items)
                            .collect(),
                        };
                        all_stable &= t.observe(current);
                    }
                    !all_stable
                }
            }
        })?;
        if outcome.reason == StopReason::Stable {
            if let Stop::Stable { window, .. } = self.stop {
                outcome.converged_at = Some(outcome.worlds.saturating_sub(window));
            }
        }
        let runs: Vec<Run> = accums
            .into_iter()
            .zip(&members)
            .map(|(accum, q)| match accum {
                MemberAccum::Mpds(a) => q.finish_mpds(a, outcome, started),
                MemberAccum::Nds(a) => q.finish_nds(a, outcome, started),
            })
            .collect();
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
/// assert_eq!(batch.stats.worlds_per_member(), 20.0); // vs 40 standalone
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

impl BatchStats {
    /// Worlds materialized per member — the amortization metric
    /// (`θ / members`; a standalone run costs θ per member).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::queryset::QuerySet;
    /// use mpds::api::Query;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let mut set = QuerySet::new().theta(32);
    /// for k in 1..=4 {
    ///     set = set.push(Query::mpds(DensityNotion::Edge).k(k));
    /// }
    /// let batch = set.run(&g).unwrap();
    /// assert_eq!(batch.stats.worlds_per_member(), 8.0);
    /// ```
    pub fn worlds_per_member(&self) -> f64 {
        self.worlds_sampled as f64 / self.members as f64
    }
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
    fn threads_member_is_rejected_with_unsupported() {
        let g = fig1();
        let err = QuerySet::new()
            .theta(40)
            .push(Query::mpds(DensityNotion::Edge).exec(Exec::Threads(2)))
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, ApiError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("serial world stream"), "{err}");
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
        assert_eq!(batch.stats.worlds_per_member(), 10.0);
        assert!(batch.stats.wall.as_nanos() > 0);
        for run in &batch.runs {
            assert_eq!(run.stats.worlds_sampled, 60);
        }
    }
}
