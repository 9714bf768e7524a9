//! One typed entry point for every estimator, sampler, and execution mode.
//!
//! The paper's experimental surface is a single parameter space — density
//! notion ρ, sample count θ, result count k, minimum nucleus size `l_m`,
//! sampling strategy, heuristic mode, seed, parallelism — but the historical
//! entry points exposed it as six free functions that every consumer wired
//! up by hand. [`Query`] collapses them: build a query once, validate once,
//! and run any combination through one code path.
//!
//! | Builder knob | Paper symbol / section |
//! |---|---|
//! | [`Query::mpds`] / [`Query::nds`] | Algorithm 1 (τ) / Algorithm 5 (γ) |
//! | constructor argument | density notion ρ: edge, h-clique, pattern ψ (§II) |
//! | [`Query::theta`] | θ, the number of sampled possible worlds |
//! | [`Query::k`] | k, how many top node sets to return |
//! | [`Query::min_size`] | `l_m` (a.k.a. Λ), minimum nucleus size (§IV) |
//! | [`Query::sampler`] | MC / LP / RSS sampling strategies (§V, §VI-G) |
//! | [`Query::seed`] | the run's RNG seed — equal seeds mean equal results |
//! | [`Query::heuristic`] | the core-based heuristic of §III-C |
//! | [`Query::all_densest`] | the "all vs one densest per world" ablation (§VI-D) |
//! | [`Query::stop`] | termination policy: fixed θ, or the §VI-I "sample until the top-k stops changing" rule ([`Stop::Stable`]) |
//! | [`Query::control`] | cooperative deadline / cancellation / graceful time budget / helper threads ([`crate::control`]) |
//! | [`Query::progress`] | per-world progress callback ([`ProgressSink`]) |
//!
//! # Example
//!
//! The paper's running example (Fig. 1): `{B, D}` is the most probable
//! densest subgraph with τ ≈ 0.42.
//!
//! ```
//! use densest::DensityNotion;
//! use mpds::api::Query;
//! use ugraph::UncertainGraph;
//!
//! // A = 0, B = 1, C = 2, D = 3.
//! let g = UncertainGraph::from_weighted_edges(
//!     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
//! let run = Query::mpds(DensityNotion::Edge)
//!     .theta(2000)
//!     .k(1)
//!     .seed(42)
//!     .run(&g)
//!     .expect("valid query");
//! assert_eq!(run.top_k[0].0, vec![1, 3]); // {B, D}
//! assert!((run.top_k[0].1 - 0.42).abs() < 0.04);
//! ```
//!
//! # Determinism contract
//!
//! * A run with sampler kind `K`, seed `s` and θ draws exactly the first θ
//!   worlds of `K` seeded with `s` — bit-identical to
//!   [`Query::run_with_sampler`] over `K::new(g, StdRng::seed_from_u64(s))`
//!   — so its answer depends on sampler, seed and θ, never on the helper
//!   threads [`RunControl::with_helpers`] lends it.
//!
//! Because the world stream depends only on `(sampler kind, seed)` — never
//! on the estimator — many queries can share one stream: see
//! [`queryset::QuerySet`] for batch evaluation that materializes each world
//! once while staying bit-identical to standalone runs.

pub mod queryset;

use crate::control::{InterruptReason, Interrupted, RunControl};
use crate::estimate::{
    densest_count_stats, merge_top_k, Batch, CandidateTable, LaneTable, MpdsResult, Shard,
};
use crate::nds::NdsResult;
use densest::{for_each_densest, heuristic::with_candidates, max_sized_densest, DensityNotion};
use mpds_obs::{Recorder, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sampling::{LazyPropagation, MonteCarlo, RecursiveStratified, WorldSampler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ugraph::{EdgeMask, Graph, NodeId, NodeSet, UncertainGraph};

/// Which possible-world sampling strategy a [`Query`] uses (paper §V and the
/// §VI-G comparison).
///
/// ```
/// use mpds::api::SamplerKind;
/// assert_ne!(SamplerKind::MonteCarlo, SamplerKind::Rss);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerKind {
    /// Monte Carlo: one independent Bernoulli flip per edge per world — the
    /// paper's default, no auxiliary state.
    MonteCarlo,
    /// Lazy Propagation \[54\]: per-edge geometric skip counters.
    Lp,
    /// Recursive Stratified Sampling \[55\] with the paper's pivot arity
    /// `r = 3`.
    Rss,
}

impl SamplerKind {
    /// Builds the sampler seeded directly with `seed` — the seeding of
    /// every run (see the module-level determinism contract).
    ///
    /// ```
    /// use mpds::api::SamplerKind;
    /// use sampling::WorldSampler;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
    /// let mut s = SamplerKind::MonteCarlo.build(&g, 7);
    /// assert_eq!(s.num_edges(), 2);
    /// assert_eq!(s.next_mask().len(), 2);
    /// ```
    pub fn build(self, g: &UncertainGraph, seed: u64) -> Box<dyn WorldSampler + Send> {
        match self {
            SamplerKind::MonteCarlo => Box::new(MonteCarlo::new(g, StdRng::seed_from_u64(seed))),
            SamplerKind::Lp => Box::new(LazyPropagation::new(g, StdRng::seed_from_u64(seed))),
            SamplerKind::Rss => {
                Box::new(RecursiveStratified::new(g, 3, StdRng::seed_from_u64(seed)))
            }
        }
    }

    /// Human-readable strategy name (`"MC"`, `"LP"`, `"RSS"`).
    ///
    /// ```
    /// assert_eq!(mpds::api::SamplerKind::Lp.name(), "LP");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::MonteCarlo => "MC",
            SamplerKind::Lp => "LP",
            SamplerKind::Rss => "RSS",
        }
    }
}

/// When a [`Query`] stops sampling worlds (the paper's §VI-I: θ is picked
/// empirically by sampling until the returned top-k stops changing —
/// [`Stop::Stable`] folds that rule into the run itself).
///
/// ```
/// use mpds::api::Stop;
/// assert_eq!(Stop::default(), Stop::FixedTheta);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stop {
    /// Sample exactly θ worlds ([`Query::theta`]) — the historical behavior,
    /// bit-identical to every run before stop policies existed.
    #[default]
    FixedTheta,
    /// Early-stop once the current top-k node sets are unchanged for
    /// `window` consecutive worlds (compared with
    /// [`ugraph::nodeset::set_family_similarity`] == 1.0), after at least
    /// `min_theta` worlds; give up and finish at `theta_cap` worlds if the
    /// ranking never settles. [`Query::theta`] is ignored. The run keeps one
    /// lane: the rule reads the estimate after every world, in order.
    Stable {
        /// Consecutive unchanged-top-k worlds required to stop.
        window: usize,
        /// Never stop before this many worlds (guards tiny-sample flukes).
        min_theta: usize,
        /// Hard ceiling on sampled worlds.
        theta_cap: usize,
    },
}

/// Why a run stopped sampling, carried in [`RunStats::stop_reason`].
///
/// ```
/// use mpds::api::StopReason;
/// assert_eq!(StopReason::Completed.as_str(), "completed");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The full world limit was sampled (fixed θ, or a [`Stop::Stable`] run
    /// that hit `theta_cap` without settling).
    Completed,
    /// [`Stop::Stable`] fired: the top-k was unchanged for `window` worlds.
    Stable,
    /// The [`RunControl::with_budget`] time budget expired; the estimate
    /// covers the worlds sampled up to that point.
    Budget,
}

impl StopReason {
    /// Wire/display name — the same strings the serving layer emits.
    ///
    /// ```
    /// assert_eq!(mpds::api::StopReason::Budget.as_str(), "budget");
    /// ```
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Stable => "stable",
            StopReason::Budget => "budget",
        }
    }
}

/// Observer polled once per sampled world, alongside [`RunControl`] — the
/// hook a serving layer uses for live progress and a harness for reporting,
/// without forking the sampling loop.
///
/// Implementations must be `Send + Sync`: the helper threads of a run
/// ([`RunControl::with_helpers`]) share its sink.
///
/// ```
/// use mpds::api::ProgressSink;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// struct Count(AtomicUsize);
/// impl ProgressSink for Count {
///     fn world_done(&self) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
/// }
/// let c = Count(AtomicUsize::new(0));
/// c.world_done();
/// assert_eq!(c.0.load(Ordering::Relaxed), 1);
/// ```
pub trait ProgressSink: Send + Sync {
    /// Called once when a run starts, with its total world budget θ.
    fn begin(&self, total_worlds: usize) {
        let _ = total_worlds;
    }

    /// Called after each sampled world has been fully processed.
    fn world_done(&self);
}

/// The default [`ProgressSink`]: ignores every notification.
///
/// ```
/// use mpds::api::{NoProgress, ProgressSink};
/// NoProgress.begin(100);
/// NoProgress.world_done(); // no-op
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl ProgressSink for NoProgress {
    fn world_done(&self) {}
}

/// A ready-made atomic [`ProgressSink`]: counts requested and completed
/// worlds across every run it is attached to (so one shared counter can
/// report engine-wide totals).
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{ProgressCounter, Query};
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.9), (1, 2, 0.9)]);
/// let counter = ProgressCounter::new();
/// Query::mpds(DensityNotion::Edge)
///     .theta(50)
///     .progress(counter.clone())
///     .run(&g)
///     .unwrap();
/// assert_eq!(counter.done(), 50);
/// assert_eq!(counter.requested(), 50);
/// ```
#[derive(Debug, Default)]
pub struct ProgressCounter {
    requested: AtomicUsize,
    done: AtomicUsize,
}

impl ProgressCounter {
    /// Creates a counter behind an [`Arc`], ready for [`Query::progress`].
    ///
    /// ```
    /// let c = mpds::api::ProgressCounter::new();
    /// assert_eq!(c.done(), 0);
    /// ```
    pub fn new() -> Arc<Self> {
        Arc::new(ProgressCounter::default())
    }

    /// Total worlds requested by runs attached to this counter.
    ///
    /// ```
    /// use mpds::api::{ProgressCounter, ProgressSink};
    /// let c = ProgressCounter::new();
    /// c.begin(32);
    /// assert_eq!(c.requested(), 32);
    /// ```
    pub fn requested(&self) -> usize {
        self.requested.load(Ordering::Relaxed)
    }

    /// Total worlds fully processed so far.
    ///
    /// ```
    /// use mpds::api::{ProgressCounter, ProgressSink};
    /// let c = ProgressCounter::new();
    /// c.world_done();
    /// assert_eq!(c.done(), 1);
    /// ```
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }
}

impl ProgressSink for ProgressCounter {
    fn begin(&self, total_worlds: usize) {
        self.requested.fetch_add(total_worlds, Ordering::Relaxed);
    }

    fn world_done(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// Why a [`Query`] failed. Marked `#[non_exhaustive]`: new failure modes may
/// be added without a breaking change, so match with a wildcard arm.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{ApiError, Query};
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
/// let err = Query::mpds(DensityNotion::Edge).theta(0).run(&g).unwrap_err();
/// assert!(matches!(err, ApiError::InvalidParameter { param: "theta", .. }));
/// assert!(err.to_string().contains("theta"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApiError {
    /// A builder knob holds an out-of-range or contradictory value.
    InvalidParameter {
        /// The offending builder knob.
        param: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The run's [`RunControl`] deadline passed or its cancellation flag was
    /// raised before all θ worlds were sampled.
    Interrupted(Interrupted),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::InvalidParameter { param, message } => {
                write!(f, "invalid {param}: {message}")
            }
            ApiError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for ApiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApiError::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

impl From<Interrupted> for ApiError {
    fn from(i: Interrupted) -> Self {
        ApiError::Interrupted(i)
    }
}

/// Which probability estimate a [`Run`]'s scores are.
///
/// ```
/// use mpds::api::Score;
/// assert_eq!(Score::TauHat.as_str(), "tau_hat");
/// assert_eq!(Score::GammaHat.as_str(), "gamma_hat");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Score {
    /// Estimated densest subgraph probability `τ̂` (Algorithm 1).
    TauHat,
    /// Estimated containment probability `γ̂` (Algorithm 5).
    GammaHat,
}

impl Score {
    /// Wire/display name — the same strings the serving layer emits.
    ///
    /// ```
    /// assert_eq!(mpds::api::Score::TauHat.as_str(), "tau_hat");
    /// ```
    pub fn as_str(self) -> &'static str {
        match self {
            Score::TauHat => "tau_hat",
            Score::GammaHat => "gamma_hat",
        }
    }
}

/// Per-run measurements shared by every estimator.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::Query;
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)]);
/// let run = Query::mpds(DensityNotion::Edge).theta(40).run(&g).unwrap();
/// assert_eq!(run.stats.worlds_sampled, 40);
/// assert_eq!(run.stats.empty_worlds, 0); // edge (0,1) is certain
/// assert!(!run.stats.truncated);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunStats {
    /// Worlds actually sampled — and the divisor of every score in the run.
    /// Equals the requested θ under [`Stop::FixedTheta`] with no budget;
    /// smaller when [`Stop::Stable`] fired or a
    /// [`RunControl::with_budget`] budget expired (see
    /// [`RunStats::stop_reason`]). Hard-deadline / cancelled runs still
    /// return [`ApiError::Interrupted`] instead of partial stats.
    pub worlds_sampled: usize,
    /// Why sampling stopped: the full limit, top-k stability, or an
    /// exhausted time budget.
    pub stop_reason: StopReason,
    /// For [`StopReason::Stable`]: the world count after which the top-k
    /// never changed again (`worlds_sampled - window`). `None` otherwise.
    pub converged_at: Option<usize>,
    /// Sampled worlds containing no instance of the density notion.
    pub empty_worlds: usize,
    /// Wall-clock time of the run (sampling + aggregation).
    pub wall: Duration,
    /// MPDS: some world's densest-subgraph enumeration hit the cap.
    /// NDS: the closed-itemset miner hit its node cap.
    pub truncated: bool,
    /// MPDS: how many worlds' enumerations hit the cap (each credited only
    /// the first `enumeration_cap` of its densest subgraphs). Always 0 for
    /// NDS, which never enumerates.
    pub truncated_worlds: usize,
    /// Convergence diagnostic — per-world densest-subgraph counts summarized
    /// as `(mean, std, [q1, median, q3])`, the paper's Table VIII statistic.
    /// `None` for NDS runs (they keep one transaction per world instead).
    pub densest_count_summary: Option<(f64, f64, [usize; 3])>,
    /// Worlds solved by helper threads ([`RunControl::with_helpers`]). Like
    /// `wall`, it describes how the run was executed, never its answer.
    pub helper_worlds: usize,
}

/// Estimator-specific raw output carried inside a [`Run`].
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{Query, RunDetails};
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.8), (1, 2, 0.8)]);
/// let run = Query::nds(DensityNotion::Edge).theta(30).run(&g).unwrap();
/// match &run.details {
///     RunDetails::Nds(r) => assert_eq!(r.theta, 30),
///     RunDetails::Mpds(_) => unreachable!("built with Query::nds"),
/// }
/// ```
#[derive(Debug, Clone)]
pub enum RunDetails {
    /// Full Algorithm 1 output (candidate table, per-world counts).
    Mpds(MpdsResult),
    /// Full Algorithm 5 output (transaction multiset, miner state).
    Nds(NdsResult),
}

/// The unified result of a [`Query`]: ranked patterns with scores, plus
/// per-run statistics and the estimator-specific details.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{Query, Score};
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.2)]);
/// let run = Query::mpds(DensityNotion::Edge).theta(100).k(2).run(&g).unwrap();
/// assert_eq!(run.score, Score::TauHat);
/// assert_eq!(run.top_k[0].0, vec![0, 1]); // the certain edge
/// assert!(run.stats.wall.as_nanos() > 0);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Run {
    /// Top-k node sets with their estimated probability (`τ̂` or `γ̂` per
    /// [`Run::score`]), sorted by score descending with deterministic
    /// tie-breaking (smaller set first, then lexicographic).
    pub top_k: Vec<(NodeSet, f64)>,
    /// Which estimate the scores are.
    pub score: Score,
    /// Per-run measurements.
    pub stats: RunStats,
    /// Estimator-specific raw output.
    pub details: RunDetails,
}

impl Run {
    /// Estimated score of an arbitrary node set: `τ̂(U)` for MPDS runs
    /// (frequency of inducing a densest subgraph), `γ̂(U)` for NDS runs
    /// (fraction of transactions containing `U`). `nodes` may come in any
    /// order and repeat ids.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0)]);
    /// let run = Query::mpds(DensityNotion::Edge).theta(50).run(&g).unwrap();
    /// assert_eq!(run.score_of(&[0, 1]), 1.0);
    /// assert_eq!(run.score_of(&[1, 0]), 1.0); // order and repeats don't matter
    /// assert_eq!(run.score_of(&[1, 2]), 0.0);
    /// ```
    pub fn score_of(&self, nodes: &[NodeId]) -> f64 {
        match &self.details {
            RunDetails::Mpds(r) => r.tau_hat(nodes),
            RunDetails::Nds(r) => r.gamma_hat(nodes),
        }
    }
}

/// Which estimator a [`Query`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mpds,
    Nds,
}

/// A fully-parameterized estimator invocation: the builder.
///
/// Start from [`Query::mpds`] or [`Query::nds`], chain the knobs you need
/// (defaults are the paper's), then [`Query::run`]. See the
/// [module docs](self) for the knob ↔ paper-symbol map.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{Query, SamplerKind};
/// use mpds::control::RunControl;
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(
///     4, &[(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9), (2, 3, 0.2)]);
/// let run = Query::nds(DensityNotion::Edge)
///     .theta(64)
///     .k(3)
///     .min_size(2)
///     .sampler(SamplerKind::MonteCarlo)
///     .seed(7)
///     .control(RunControl::unbounded().with_helpers(1))
///     .run(&g)
///     .expect("valid query");
/// assert!(run.top_k.len() <= 3);
/// ```
#[derive(Clone)]
pub struct Query {
    kind: Kind,
    notion: DensityNotion,
    theta: usize,
    k: usize,
    min_size: usize,
    sampler: SamplerKind,
    seed: u64,
    heuristic: bool,
    all_densest: bool,
    enumeration_cap: usize,
    miner_node_cap: usize,
    stop: Stop,
    control: RunControl,
    progress: Option<Arc<dyn ProgressSink>>,
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("kind", &self.kind)
            .field("notion", &self.notion)
            .field("theta", &self.theta)
            .field("k", &self.k)
            .field("min_size", &self.min_size)
            .field("sampler", &self.sampler)
            .field("seed", &self.seed)
            .field("heuristic", &self.heuristic)
            .field("all_densest", &self.all_densest)
            .field("enumeration_cap", &self.enumeration_cap)
            .field("miner_node_cap", &self.miner_node_cap)
            .field("stop", &self.stop)
            .field("control", &self.control)
            .field("progress", &self.progress.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

impl Query {
    fn new(kind: Kind, notion: DensityNotion) -> Self {
        Query {
            kind,
            notion,
            theta: 320,
            k: 5,
            min_size: 2,
            sampler: SamplerKind::MonteCarlo,
            seed: 42,
            heuristic: false,
            all_densest: true,
            enumeration_cap: 100_000,
            miner_node_cap: 5_000_000,
            stop: Stop::FixedTheta,
            control: RunControl::unbounded(),
            progress: None,
        }
    }

    /// A top-k **MPDS** query (Algorithm 1): rank node sets by estimated
    /// densest subgraph probability `τ̂` under density notion ρ.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Clique(3)).theta(100).k(2);
    /// assert!(format!("{q:?}").contains("Mpds"));
    /// ```
    pub fn mpds(notion: DensityNotion) -> Self {
        Query::new(Kind::Mpds, notion)
    }

    /// A top-k **NDS** query (Algorithm 5): rank closed node sets of size ≥
    /// `l_m` by estimated containment probability `γ̂`.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::nds(DensityNotion::Edge).min_size(4);
    /// assert!(format!("{q:?}").contains("Nds"));
    /// ```
    pub fn nds(notion: DensityNotion) -> Self {
        Query::new(Kind::Nds, notion)
    }

    /// Sets θ, the number of sampled possible worlds (default 320).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).theta(640);
    /// assert!(format!("{q:?}").contains("theta: 640"));
    /// ```
    pub fn theta(mut self, theta: usize) -> Self {
        self.theta = theta;
        self
    }

    /// Sets k, how many top node sets to return (default 5; `k = 0` is the
    /// degenerate "rank nothing" query and yields an empty `top_k`).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).k(10);
    /// assert!(format!("{q:?}").contains("k: 10"));
    /// ```
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `l_m`, the minimum size of a returned nucleus (default 2; `0`
    /// imposes no size floor). NDS only; MPDS queries ignore it, exactly as
    /// Algorithm 1 does.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::nds(DensityNotion::Edge).min_size(4);
    /// assert!(format!("{q:?}").contains("min_size: 4"));
    /// ```
    pub fn min_size(mut self, min_size: usize) -> Self {
        self.min_size = min_size;
        self
    }

    /// Chooses the sampling strategy (default [`SamplerKind::MonteCarlo`]).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::{Query, SamplerKind};
    /// let q = Query::mpds(DensityNotion::Edge).sampler(SamplerKind::Rss);
    /// assert!(format!("{q:?}").contains("Rss"));
    /// ```
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the run's RNG seed (default 42). Equal seeds ⇒ equal worlds ⇒
    /// equal results (see the module docs).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).seed(7);
    /// assert!(format!("{q:?}").contains("seed: 7"));
    /// ```
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured RNG seed (read-only counterpart of [`Query::seed`] —
    /// used by [`crate::recompute`] to build common-random-number samplers
    /// that share the query's seed).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// assert_eq!(Query::mpds(DensityNotion::Edge).seed(9).seed_value(), 9);
    /// ```
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Uses the §III-C heuristic (innermost core + denser peeling suffixes)
    /// per world instead of the exact enumeration (default `false`).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).heuristic(true);
    /// assert!(format!("{q:?}").contains("heuristic: true"));
    /// ```
    pub fn heuristic(mut self, heuristic: bool) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// MPDS only: `true` (default, the paper's method) counts **all**
    /// densest subgraphs per world; `false` counts one uniformly random one
    /// — the §VI-D ablation.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).all_densest(false);
    /// assert!(format!("{q:?}").contains("all_densest: false"));
    /// ```
    pub fn all_densest(mut self, all_densest: bool) -> Self {
        self.all_densest = all_densest;
        self
    }

    /// MPDS only: cap on densest subgraphs enumerated per world (default
    /// 100 000 — they can explode, paper Table VIII).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).enumeration_cap(1000);
    /// assert!(format!("{q:?}").contains("enumeration_cap: 1000"));
    /// ```
    pub fn enumeration_cap(mut self, cap: usize) -> Self {
        self.enumeration_cap = cap;
        self
    }

    /// NDS only: cap on closed-itemset search nodes (default 5 000 000).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::nds(DensityNotion::Edge).miner_node_cap(200_000);
    /// assert!(format!("{q:?}").contains("miner_node_cap: 200000"));
    /// ```
    pub fn miner_node_cap(mut self, cap: usize) -> Self {
        self.miner_node_cap = cap;
        self
    }

    /// Chooses the termination policy (default [`Stop::FixedTheta`]).
    /// [`Stop::Stable`] samples until the top-k ranking is unchanged for a
    /// window of consecutive worlds — the paper's §VI-I convergence rule,
    /// folded into the run. A run that stops at `t` worlds is bit-identical
    /// to a [`Stop::FixedTheta`] run with `theta(t)` and the same seed.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::{Query, Stop, StopReason};
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.2)]);
    /// let run = Query::mpds(DensityNotion::Edge)
    ///     .k(1)
    ///     .stop(Stop::Stable { window: 16, min_theta: 16, theta_cap: 4000 })
    ///     .run(&g)
    ///     .unwrap();
    /// assert_eq!(run.stats.stop_reason, StopReason::Stable);
    /// assert!(run.stats.worlds_sampled < 4000);
    /// ```
    pub fn stop(mut self, stop: Stop) -> Self {
        self.stop = stop;
        self
    }

    /// Attaches a cooperative deadline / cancellation control, polled once
    /// per sampled world (default: unbounded). [`RunControl::with_deadline`]
    /// aborts with [`ApiError::Interrupted`]; [`RunControl::with_budget`]
    /// instead finishes gracefully with the worlds sampled so far and
    /// [`StopReason::Budget`] in the stats; [`RunControl::with_helpers`]
    /// lends the run threads that never change its answer.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::{ApiError, Query};
    /// use mpds::control::RunControl;
    /// use std::time::{Duration, Instant};
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let expired = RunControl::unbounded()
    ///     .with_deadline(Instant::now() - Duration::from_millis(1));
    /// let err = Query::mpds(DensityNotion::Edge).control(expired).run(&g);
    /// assert!(matches!(err, Err(ApiError::Interrupted(_))));
    /// ```
    pub fn control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Attaches a [`ProgressSink`], notified once per sampled world
    /// (default: none). A run's helper threads share the sink.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::{ProgressCounter, Query};
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let c = ProgressCounter::new();
    /// Query::mpds(DensityNotion::Edge).theta(10).progress(c.clone()).run(&g).unwrap();
    /// assert_eq!(c.done(), 10);
    /// ```
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Validates, resolves the execution plan, and runs the query, building
    /// the sampler internally from [`Query::sampler`] + [`Query::seed`].
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.3)]);
    /// let run = Query::mpds(DensityNotion::Edge).theta(64).k(1).run(&g).unwrap();
    /// assert_eq!(run.top_k[0].0, vec![0, 1]);
    /// ```
    pub fn run(&self, g: &UncertainGraph) -> Result<Run, ApiError> {
        self.run_on(g, Stream::Shared(&mut *self.sampler.build(g, self.seed)))
    }

    /// Runs the query with a caller-supplied sampler instead of resolving
    /// one from [`Query::sampler`] + [`Query::seed`]: world *i* of the run is
    /// the sampler's *i*-th draw. The sampler need not be `Send`, so it stays
    /// on the calling thread, and the run keeps one lane whatever
    /// [`RunControl::with_helpers`] lends it; its answer is the one helpers
    /// would give.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use sampling::MonteCarlo;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.3)]);
    /// let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(9));
    /// let run = Query::mpds(DensityNotion::Edge)
    ///     .theta(64)
    ///     .run_with_sampler(&g, &mut mc)
    ///     .unwrap();
    /// assert_eq!(run.top_k[0].0, vec![0, 1]);
    /// ```
    pub fn run_with_sampler<S: WorldSampler + ?Sized>(
        &self,
        g: &UncertainGraph,
        mut sampler: &mut S,
    ) -> Result<Run, ApiError> {
        self.run_on(g, Stream::Local(&mut sampler))
    }

    /// Runs the query as a set of one member over `stream`.
    pub(crate) fn run_on(&self, g: &UncertainGraph, stream: Stream<'_>) -> Result<Run, ApiError> {
        let (mut runs, _) = run_members(
            std::slice::from_ref(self),
            g,
            stream,
            self.stop,
            self.theta,
            &self.control,
            self.progress.as_deref(),
        )?;
        Ok(runs.pop().expect("one member, one run"))
    }

    /// Finishes an MPDS member from its table and the table's top `k`.
    fn finish_mpds<'s>(
        &self,
        table: CandidateTable,
        top_k: Vec<(NodeSet, u32)>,
        slots: impl Iterator<Item = &'s mut Slot>,
        outcome: WorldsOutcome,
        started: Instant,
    ) -> Run {
        // The divisor is the achieved world count, so an early-stopped run
        // is exactly the fixed-θ run at that θ (same stream prefix).
        let worlds = outcome.worlds;
        let top_k: Vec<(NodeSet, f64)> = top_k
            .into_iter()
            .map(|(set, c)| (set, c as f64 / worlds as f64))
            .collect();
        let mut densest_counts = Vec::with_capacity(worlds);
        let mut truncated_worlds = 0;
        for slot in slots {
            densest_counts.push(slot.count);
            truncated_worlds += usize::from(slot.truncated);
        }
        let summary = if densest_counts.is_empty() {
            None
        } else {
            Some(densest_count_stats(&densest_counts))
        };
        let result = MpdsResult {
            top_k: top_k.clone(),
            candidates: table,
            theta: worlds,
            empty_worlds: densest_counts.iter().filter(|&&count| count == 0).count(),
            densest_counts,
            truncated: truncated_worlds > 0,
        };
        Run {
            top_k,
            score: Score::TauHat,
            stats: RunStats {
                worlds_sampled: worlds,
                stop_reason: outcome.reason,
                converged_at: outcome.converged_at,
                empty_worlds: result.empty_worlds,
                wall: started.elapsed(),
                truncated: result.truncated,
                truncated_worlds,
                densest_count_summary: summary,
                helper_worlds: 0,
            },
            details: RunDetails::Mpds(result),
        }
    }

    fn finish_nds<'s>(
        &self,
        slots: impl Iterator<Item = &'s mut Slot>,
        outcome: WorldsOutcome,
        started: Instant,
    ) -> Run {
        let worlds = outcome.worlds;
        let mut transactions = Vec::with_capacity(worlds);
        let mut empty_worlds = 0;
        for slot in slots {
            match slot.nucleus.take() {
                Some(set) => transactions.push(set),
                None => empty_worlds += 1,
            }
        }
        let (mined, miner_capped) =
            itemset::top_k_closed(&transactions, self.k, self.min_size, self.miner_node_cap);
        let top_k: Vec<(NodeSet, f64)> = mined
            .into_iter()
            .map(|c| (c.items, c.support as f64 / worlds as f64))
            .collect();
        let result = NdsResult {
            top_k: top_k.clone(),
            transactions,
            theta: worlds,
            empty_worlds,
            miner_capped,
        };
        Run {
            top_k,
            score: Score::GammaHat,
            stats: RunStats {
                worlds_sampled: worlds,
                stop_reason: outcome.reason,
                converged_at: outcome.converged_at,
                empty_worlds,
                wall: started.elapsed(),
                truncated: miner_capped,
                truncated_worlds: 0,
                densest_count_summary: None,
                helper_worlds: 0,
            },
            details: RunDetails::Nds(result),
        }
    }
}

/// Validates the stream knobs θ and [`Stop`] of a query or a set, and each
/// MPDS member's enumeration cap; the one checkpoint before a run.
fn check_run(members: &[Query], theta: usize, stop: Stop) -> Result<(), ApiError> {
    let invalid =
        |param: &'static str, message: String| Err(ApiError::InvalidParameter { param, message });
    if theta == 0 {
        return invalid("theta", "need at least one sampled world".to_string());
    }
    // A zero cap would stop every world's enumeration before its first set
    // and report each world as empty and truncated.
    if members
        .iter()
        .any(|q| q.kind == Kind::Mpds && q.enumeration_cap == 0)
    {
        return invalid(
            "enumeration_cap",
            "need at least one densest subgraph per world".to_string(),
        );
    }
    if let Stop::Stable {
        window,
        min_theta,
        theta_cap,
    } = stop
    {
        if window == 0 {
            return invalid("stop", "Stable window must be at least 1".to_string());
        }
        if theta_cap == 0 {
            return invalid("stop", "Stable theta_cap must be at least 1".to_string());
        }
        if min_theta > theta_cap {
            return invalid(
                "stop",
                format!("Stable min_theta {min_theta} exceeds theta_cap {theta_cap}"),
            );
        }
    }
    Ok(())
}

/// Runs `members` over one world stream and finishes each member's
/// [`Run`]: the one member dispatch behind [`Query::run`],
/// [`queryset::QuerySet`] and [`crate::recompute::Recompute`] (a query runs
/// as a set of one). Every member's run is the run it would get alone.
///
/// The worlds are solved in `1 + min(helpers, θ − 1)` lanes
/// ([`WorldLoop`]) when the stream is shared, the stop is fixed-θ and every
/// member is NDS or all-densest MPDS: the worlds are then independent units
/// of order-free estimates. Otherwise one lane solves them in order: a
/// stable stop reads every member's estimate after each world, and the
/// one-densest ablation draws from one choice stream in world order. Lane
/// *i* owns key shard *i* of every MPDS member's table ([`LaneTable`]) and
/// ranks it; the calling thread merges the lanes' top lists.
fn run_members(
    members: &[Query],
    g: &UncertainGraph,
    stream: Stream<'_>,
    stop: Stop,
    theta: usize,
    ctrl: &RunControl,
    progress: Option<&dyn ProgressSink>,
) -> Result<(Vec<Run>, WorldsOutcome), ApiError> {
    check_run(members, theta, stop)?;
    let started = Instant::now();
    let (limit, mut tracker) = match stop {
        Stop::FixedTheta => (theta, None),
        Stop::Stable {
            window,
            min_theta,
            theta_cap,
        } => (
            theta_cap,
            Some(StableTracker::new(window, min_theta, members.len())),
        ),
    };
    let order_free = members.iter().all(|q| q.kind == Kind::Nds || q.all_densest);
    let lanes = match stream {
        Stream::Shared(_) if tracker.is_none() && order_free => 1 + ctrl.helpers().min(limit - 1),
        _ => 1,
    };
    // Lanes are made here, so their buffers come from this thread.
    let lanes: Vec<Lane> = Post::for_lanes(lanes, ctrl)
        .into_iter()
        .enumerate()
        .map(|(index, post)| Lane {
            tallies: members
                .iter()
                .map(|q| Tally::new(q, g.num_nodes(), index, lanes))
                .collect(),
            post,
        })
        .collect();
    let mut observe = tracker
        .as_mut()
        .map(|t| |lane: &mut Lane, solved: &[Slot]| t.observe(members, &mut lane.tallies, solved));
    let solved = WorldLoop {
        g,
        limit,
        stride: members.len(),
        ctrl,
        progress: progress.unwrap_or(&NoProgress),
        ranks: members.iter().any(|q| q.kind == Kind::Mpds),
    }
    .run(
        stream,
        lanes,
        |lane: &mut Lane, world, out| lane.solve(members, world, out),
        observe.as_mut().map(|o| o as _),
        Lane::join,
        |lane| lane.finish(members),
    )?;
    let Solved {
        mut slots,
        mut outcome,
        helper_worlds,
        finished,
    } = solved;
    if let (StopReason::Stable, Stop::Stable { window, .. }) = (outcome.reason, stop) {
        // The top-k last changed `window` worlds before the stop.
        outcome.converged_at = Some(outcome.worlds.saturating_sub(window));
    }
    // Per member, the lanes' shards of its table in lane order, each with
    // its top list (none for NDS).
    let mut ranked: Vec<Vec<RankedShard>> = members.iter().map(|_| Vec::new()).collect();
    for lane in finished {
        for (member, shard) in ranked.iter_mut().zip(lane) {
            member.extend(shard);
        }
    }
    let runs = members
        .iter()
        .zip(ranked)
        .enumerate()
        .map(|(m, (q, ranked))| {
            let slots = slots.iter_mut().skip(m).step_by(members.len());
            let mut run = match q.kind {
                Kind::Mpds => {
                    let (shards, tops): (Vec<Shard>, Vec<_>) = ranked.into_iter().unzip();
                    let table = CandidateTable::from_shards(shards);
                    q.finish_mpds(table, merge_top_k(tops, q.k), slots, outcome, started)
                }
                Kind::Nds => q.finish_nds(slots, outcome, started),
            };
            run.stats.helper_worlds = helper_worlds;
            run
        })
        .collect();
    Ok((runs, outcome))
}

/// How a run's world loop ended: how many worlds it drew and why it
/// stopped, and for a stable stop the world count after which the top-k
/// was frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorldsOutcome {
    /// Worlds fully sampled and solved.
    pub worlds: usize,
    /// Why the loop stopped.
    pub reason: StopReason,
    /// For stable stops: the world count after which the top-k was frozen.
    pub converged_at: Option<usize>,
}

/// The sampler a run draws its worlds from.
pub(crate) enum Stream<'s> {
    /// A sampler that the run's helper lanes may draw from.
    Shared(&'s mut (dyn WorldSampler + Send)),
    /// A caller's sampler, which stays on the calling thread: one lane.
    Local(&'s mut dyn WorldSampler),
}

/// The one loop that draws worlds: every estimator run in this crate,
/// fixed-θ or stable, one member or many, goes through [`WorldLoop::run`].
pub(crate) struct WorldLoop<'a> {
    /// The uncertain graph the worlds are drawn from.
    pub g: &'a UncertainGraph,
    /// The most worlds the run draws.
    pub limit: usize,
    /// Slots each world leaves.
    pub stride: usize,
    /// Polled before each world is claimed.
    pub ctrl: &'a RunControl,
    /// Told the limit, then each solved world.
    pub progress: &'a dyn ProgressSink,
    /// Whether the lanes' `finish` ranks what they tallied, timed as
    /// [`Stage::RankSelect`].
    pub ranks: bool,
}

impl WorldLoop<'_> {
    /// Runs one lane per entry of `lanes`, the first on the calling thread
    /// and each other on a helper thread (a [`Stream::Local`] run takes one
    /// lane). The lanes claim world indices in order, each world drawn
    /// from the one sampler under its claim, so world *i* is the sampler's
    /// *i*-th draw whatever the lane count. `solve` writes what a world
    /// leaves into its `stride` slots, which land at its index. On the
    /// calling thread, `stop` sees the lane and those slots after each
    /// world; `true` ends the run with [`StopReason::Stable`], which wins
    /// over an interruption or budget polled before the next world.
    ///
    /// Once claiming stops, each lane runs `join` and then `finish` on its
    /// own thread. `join` is where the lanes meet: it must return once
    /// every lane has stopped claiming, and also once a lane has died (a
    /// lane's state is dropped when it panics), so that the panic reaches
    /// the caller through the helper's join instead of leaving the run
    /// waiting. The calling lane's `join` is timed as [`Stage::LaneJoin`]
    /// (next to nothing when the lane is alone); its `finish` and the wait
    /// for the helpers' are [`Stage::RankSelect`] when the loop `ranks`.
    pub fn run<L: Send, T: Default + Send, F: Send>(
        &self,
        stream: Stream<'_>,
        lanes: Vec<L>,
        solve: impl Fn(&mut L, &Graph, &mut [T]) + Sync,
        stop: Option<StopHook<'_, L, T>>,
        join: impl Fn(&mut L) + Sync,
        finish: impl Fn(L) -> F + Sync,
    ) -> Result<Solved<T, F>, Interrupted> {
        self.progress.begin(self.limit);
        let slots = std::iter::repeat_with(T::default)
            .take(self.limit * self.stride)
            .collect();
        let mut lanes = lanes.into_iter();
        let own = lanes.next().expect("the calling thread's lane");
        let rec = self.ctrl.recorder();
        let rank = || {
            rec.filter(|_| self.ranks)
                .map(|r| r.span(Stage::RankSelect))
        };
        let (ended, helper_worlds, finished) = match stream {
            Stream::Shared(sampler) => {
                let claims = Mutex::new(Claims::new(sampler, self.limit, slots));
                let (helper_worlds, finished) = std::thread::scope(|scope| {
                    let handles: Vec<_> = lanes
                        .map(|lane| {
                            let (claims, solve, join, finish) = (&claims, &solve, &join, &finish);
                            scope.spawn(move || {
                                let (worlds, lane) =
                                    self.lane(claims, lane, None, solve, None, join);
                                (worlds, finish(lane))
                            })
                        })
                        .collect();
                    let (_, own) = self.lane(&claims, own, rec, &solve, stop, &join);
                    let _span = rank();
                    let mut finished = vec![finish(own)];
                    let mut helper_worlds = 0;
                    for handle in handles {
                        let (worlds, lane) = handle.join().expect("estimator lane panicked");
                        helper_worlds += worlds;
                        finished.push(lane);
                    }
                    (helper_worlds, finished)
                });
                (Claims::end(claims), helper_worlds, finished)
            }
            Stream::Local(sampler) => {
                debug_assert_eq!(lanes.len(), 0, "a caller's sampler keeps one lane");
                let claims = Mutex::new(Claims::new(sampler, self.limit, slots));
                let (_, own) = self.lane(&claims, own, rec, &solve, stop, &join);
                let _span = rank();
                (Claims::end(claims), 0, vec![finish(own)])
            }
        };
        let (mut slots, outcome) = ended?;
        slots.truncate(outcome.worlds * self.stride);
        Ok(Solved {
            slots,
            outcome,
            helper_worlds,
            finished,
        })
    }

    /// One lane of [`WorldLoop::run`]: claims the next world and draws it,
    /// leaving the previous world's slots under the same lock, then solves
    /// it outside the lock, until claiming stops; then joins the other
    /// lanes. Returns how many worlds it solved, and the lane. Only a lane
    /// given `rec` records stage spans.
    fn lane<W: WorldSampler + ?Sized, L, T: Default>(
        &self,
        claims: &Mutex<Claims<'_, W, T>>,
        mut lane: L,
        rec: Option<&Recorder>,
        solve: &impl Fn(&mut L, &Graph, &mut [T]),
        mut stop: Option<StopHook<'_, L, T>>,
        join: &impl Fn(&mut L),
    ) -> (usize, L) {
        let stride = self.stride;
        let mut out: Vec<T> = std::iter::repeat_with(T::default).take(stride).collect();
        let mut mask = EdgeMask::new(self.g.num_edges());
        let mut world = Graph::default();
        let mut solved = None;
        let mut stable = false;
        let mut worlds = 0;
        loop {
            let index = {
                let _span = rec.map(|r| r.span(Stage::WorldMaterialize));
                let index = {
                    let mut c = claims.lock().expect("a lane panicked while claiming");
                    if let Some(index) = solved.take() {
                        c.slots[index * stride..][..stride].swap_with_slice(&mut out);
                    }
                    if stable {
                        c.stopped = Some(Ok(StopReason::Stable));
                    }
                    let Some(index) = c.claim(self.ctrl) else {
                        break;
                    };
                    c.sampler.next_mask_into(&mut mask);
                    index
                };
                world = self.g.world_from_bitmap(&mask, world);
                index
            };
            {
                let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
                solve(&mut lane, &world, &mut out);
            }
            if let Some(stop) = stop.as_mut() {
                let _span = rec.map(|r| r.span(Stage::StableTracker));
                stable = stop(&mut lane, &out);
            }
            solved = Some(index);
            worlds += 1;
            self.progress.world_done();
        }
        let _span = rec.map(|r| r.span(Stage::LaneJoin));
        join(&mut lane);
        (worlds, lane)
    }
}

/// Reads a one-lane run after each world: the lane and the world's slots;
/// `true` stops the run as stable.
pub(crate) type StopHook<'h, L, T> = &'h mut dyn FnMut(&mut L, &[T]) -> bool;

/// What [`WorldLoop::run`] hands back: each claimed world's slots in world
/// order, how the run stopped, how many worlds the helpers solved, and what
/// each lane finished with, in lane order (the calling thread's first).
pub(crate) struct Solved<T, F> {
    pub slots: Vec<T>,
    pub outcome: WorldsOutcome,
    pub helper_worlds: usize,
    pub finished: Vec<F>,
}

/// What the lanes of [`WorldLoop::run`] share under one lock: the run's one
/// sampler, how many world indices were claimed, why claiming stopped, and
/// each world's slots at its index.
struct Claims<'s, W: ?Sized, T> {
    sampler: &'s mut W,
    limit: usize,
    claimed: usize,
    /// `Ok` for a graceful stop (stable, budget), `Err` for an abortive one.
    stopped: Option<Result<StopReason, InterruptReason>>,
    slots: Vec<T>,
}

impl<'s, W: ?Sized, T> Claims<'s, W, T> {
    fn new(sampler: &'s mut W, limit: usize, slots: Vec<T>) -> Self {
        Claims {
            sampler,
            limit,
            claimed: 0,
            stopped: None,
            slots,
        }
    }

    /// The next world index, or `None` once every world is claimed or the
    /// run stopped (stable, then cancellation, then deadline, then budget —
    /// never before the first world).
    fn claim(&mut self, ctrl: &RunControl) -> Option<usize> {
        if self.stopped.is_some() || self.claimed == self.limit {
            return None;
        }
        if let Some(reason) = ctrl.interruption() {
            self.stopped = Some(Err(reason));
            return None;
        }
        if self.claimed > 0 && ctrl.budget_exhausted() {
            self.stopped = Some(Ok(StopReason::Budget));
            return None;
        }
        self.claimed += 1;
        Some(self.claimed - 1)
    }

    /// The slots and how the run ended, or how it was interrupted.
    fn end(claims: Mutex<Self>) -> Result<(Vec<T>, WorldsOutcome), Interrupted> {
        let c = claims.into_inner().expect("a lane panicked while claiming");
        let reason = match c.stopped {
            Some(Err(reason)) => {
                return Err(Interrupted {
                    reason,
                    completed_worlds: c.claimed,
                })
            }
            Some(Ok(reason)) => reason,
            None => StopReason::Completed,
        };
        Ok((
            c.slots,
            WorldsOutcome {
                worlds: c.claimed,
                reason,
                converged_at: None,
            },
        ))
    }
}

/// What one world leaves for one member at the world's index: for MPDS how
/// many densest sets it credited and whether their enumeration stopped at
/// the cap, for NDS its max-sized densest set (`None` for an empty world).
#[derive(Default)]
struct Slot {
    count: usize,
    truncated: bool,
    nucleus: Option<NodeSet>,
}

/// One lane of [`run_members`]: a tally per member and, in a run of several
/// lanes, its post to the other lanes.
struct Lane {
    tallies: Vec<Tally>,
    post: Option<Post>,
}

impl Lane {
    /// Credits the batches already handed to this lane, then solves one
    /// world for every member, handing over each batch that fills up.
    fn solve(&mut self, members: &[Query], world: &Graph, out: &mut [Slot]) {
        let Lane { tallies, post } = self;
        if let Some(post) = post {
            post.receive_ready(tallies);
        }
        for (m, ((tally, q), slot)) in tallies.iter_mut().zip(members).zip(out).enumerate() {
            *slot = tally.solve(world, q, &mut |to, batch| {
                post.as_ref()
                    .expect("a one-shard table hands nothing over")
                    .send(to, m, batch);
            });
        }
    }

    /// The lanes' meeting point: hands over every batch not yet full, then
    /// credits the batches handed to this lane until every other lane has
    /// done the same (or died).
    fn join(&mut self) {
        let Some(post) = self.post.take() else {
            return;
        };
        for (m, tally) in self.tallies.iter_mut().enumerate() {
            if let Some(table) = &mut tally.table {
                for (to, batch) in table.flush() {
                    post.send(to, m, batch);
                }
            }
        }
        for (m, batch) in post.close() {
            self.tallies[m].receive(batch);
        }
    }

    /// Folds and ranks this lane's shard of every MPDS member's table:
    /// `None` for an NDS member.
    fn finish(self, members: &[Query]) -> Vec<Option<RankedShard>> {
        let tables = self.tallies.into_iter().map(|tally| tally.table);
        tables
            .zip(members)
            .map(|(table, q)| table.map(|table| table.finish(q.k)))
            .collect()
    }
}

/// A lane's folded shard of an MPDS member's table, with the shard's top k.
type RankedShard = (Shard, Vec<(NodeSet, u32)>);

/// A member's batch of sets, handed from one lane to another.
type Parcel = (usize, Batch);

/// A lane's link to the other lanes of a run: a sender into each other
/// lane's inbox, and its own inbox. Only lanes hold senders, so an inbox
/// ends once every other lane has closed its post or died.
struct Post {
    /// By lane; `None` at this lane's own index.
    outs: Vec<Option<Sender<Parcel>>>,
    inbox: Receiver<Parcel>,
    /// Test-only: this lane panics when it hands sets over or closes.
    #[cfg(test)]
    panic_on_send: bool,
}

impl Post {
    /// The posts of a run of `lanes` lanes, one per lane; a lone lane has
    /// none. (`ctrl` arms the helpers' injected panics in tests.)
    #[cfg_attr(not(test), allow(unused_variables))]
    fn for_lanes(lanes: usize, ctrl: &RunControl) -> Vec<Option<Post>> {
        if lanes == 1 {
            return vec![None];
        }
        let (senders, inboxes): (Vec<Sender<Parcel>>, Vec<_>) =
            (0..lanes).map(|_| channel()).unzip();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(lane, inbox)| {
                Some(Post {
                    outs: senders
                        .iter()
                        .enumerate()
                        .map(|(to, sender)| (to != lane).then(|| sender.clone()))
                        .collect(),
                    inbox,
                    #[cfg(test)]
                    panic_on_send: lane > 0 && ctrl.panic_in_handoff,
                })
            })
            .collect()
    }

    /// Hands member `m`'s `batch` to lane `to`. A lane that is gone has
    /// panicked, and the run fails when that lane is joined.
    fn send(&self, to: usize, m: usize, batch: Batch) {
        #[cfg(test)]
        assert!(!self.panic_on_send, "injected hand-off panic");
        let out = self.outs[to].as_ref().expect("a lane owns its own shard");
        let _ = out.send((m, batch));
    }

    /// Credits every batch already handed to this lane.
    fn receive_ready(&self, tallies: &mut [Tally]) {
        while let Ok((m, batch)) = self.inbox.try_recv() {
            tallies[m].receive(batch);
        }
    }

    /// Drops this lane's senders and returns its inbox, which yields each
    /// batch still to come and ends once no other lane can send.
    fn close(self) -> Receiver<Parcel> {
        #[cfg(test)]
        assert!(!self.panic_on_send, "injected hand-off panic");
        self.inbox
    }
}

/// A lane's state for one member: an MPDS member's share of the candidate
/// table ([`LaneTable`]), and for the one-densest ablation its choice
/// stream; neither for NDS, whose worlds leave their sets in slots.
struct Tally {
    table: Option<LaneTable>,
    pick: Option<Pick>,
}

impl Tally {
    /// Lane `lane`'s tally, of `lanes`, for member `q` over a graph of
    /// `num_nodes` nodes.
    fn new(q: &Query, num_nodes: usize, lane: usize, lanes: usize) -> Self {
        let mpds = q.kind == Kind::Mpds;
        Tally {
            table: mpds.then(|| LaneTable::new(num_nodes, lane, lanes)),
            pick: (mpds && !q.all_densest).then(|| Pick {
                rng: StdRng::seed_from_u64(CHOICE_SEED),
                family: Vec::new(),
            }),
        }
    }

    /// Solves one world for member `q`; `send` hands over each batch of
    /// sets that fills up for another lane's shard.
    fn solve(&mut self, world: &Graph, q: &Query, send: &mut dyn FnMut(usize, Batch)) -> Slot {
        let (count, truncated) = match (&mut self.table, &mut self.pick) {
            (Some(table), None) => credit_all(table, world, q, send),
            (Some(table), Some(pick)) => pick.credit_one(table, world, q, send),
            (None, _) => {
                return Slot {
                    nucleus: max_sized(world, q),
                    ..Slot::default()
                }
            }
        };
        Slot {
            count,
            truncated,
            nucleus: None,
        }
    }

    /// Credits a batch of sets that another lane handed over.
    fn receive(&mut self, batch: Batch) {
        self.table
            .as_mut()
            .expect("batches are for MPDS members")
            .receive(batch);
    }
}

/// Credits every densest set of `world` to `table` (every dense set the
/// §III-C heuristic finds, in heuristic mode), handing full batches to
/// `send`. Returns how many there were and whether the enumeration stopped
/// at the cap.
fn credit_all(
    table: &mut LaneTable,
    world: &Graph,
    q: &Query,
    send: &mut dyn FnMut(usize, Batch),
) -> (usize, bool) {
    if q.heuristic {
        let count = with_candidates(world, &q.notion, |c| {
            let Some(c) = c else { return 0 };
            for i in 0..c.len() {
                hand_over(send, table.credit_nodes(c.nodes(i)));
            }
            c.len()
        });
        return (count, false);
    }
    match for_each_densest(world, &q.notion, q.enumeration_cap, &mut |mask| {
        hand_over(send, table.credit_mask(mask))
    }) {
        Some(f) => (f.count, f.truncated),
        None => (0, false),
    }
}

/// Passes a batch that a credit filled up to `send`, with its lane.
#[inline]
fn hand_over(send: &mut dyn FnMut(usize, Batch), full: Option<(usize, Batch)>) {
    if let Some((to, batch)) = full {
        send(to, batch);
    }
}

/// Seed of the §VI-D ablation's choice stream, which picks the one densest
/// set an `all_densest(false)` run counts in each world.
const CHOICE_SEED: u64 = 0x5eed;

/// The §VI-D ablation's choice stream, and one world's densest family as
/// packed masks (reused across worlds) to pick from.
struct Pick {
    rng: StdRng,
    family: Vec<u64>,
}

impl Pick {
    /// Credits one uniformly random densest set of `world` to `table` (one
    /// random dense set, in heuristic mode). Returns the family size and
    /// whether its enumeration stopped at the cap.
    fn credit_one(
        &mut self,
        table: &mut LaneTable,
        world: &Graph,
        q: &Query,
        send: &mut dyn FnMut(usize, Batch),
    ) -> (usize, bool) {
        if q.heuristic {
            let count = with_candidates(world, &q.notion, |c| {
                let Some(c) = c else { return 0 };
                let pick = self.rng.gen_range(0..c.len());
                hand_over(send, table.credit_nodes(c.nodes(c.ranked()[pick])));
                c.len()
            });
            return (count, false);
        }
        let family = &mut self.family;
        family.clear();
        let Some(f) = for_each_densest(world, &q.notion, q.enumeration_cap, &mut |mask| {
            family.extend_from_slice(mask)
        }) else {
            return (0, false);
        };
        if let Some(width) = family.len().checked_div(f.count) {
            let pick = self.rng.gen_range(0..f.count);
            hand_over(
                send,
                table.credit_mask(&family[pick * width..(pick + 1) * width]),
            );
        }
        (f.count, f.truncated)
    }
}

/// Watches every member's top-k under [`Stop::Stable`]: counts, per member,
/// how many consecutive worlds left its ranking unchanged (family
/// similarity 1.0), and says stop once every streak reaches the window past
/// `min_theta`. It reads the one lane's tallies after each world.
struct StableTracker {
    window: usize,
    min_theta: usize,
    worlds: usize,
    /// Per member: the streak and the top-k after the last world.
    streaks: Vec<(usize, Option<Vec<NodeSet>>)>,
    /// Per member: the NDS transactions so far, in world order.
    nuclei: Vec<Vec<NodeSet>>,
}

impl StableTracker {
    fn new(window: usize, min_theta: usize, members: usize) -> Self {
        StableTracker {
            window,
            min_theta,
            worlds: 0,
            streaks: vec![(0, None); members],
            nuclei: vec![Vec::new(); members],
        }
    }

    /// Feeds every member's top-k after one more world; `true` means stop
    /// now.
    fn observe(&mut self, members: &[Query], lane: &mut [Tally], solved: &[Slot]) -> bool {
        self.worlds += 1;
        let mut stable = self.worlds >= self.min_theta;
        let per_member = members
            .iter()
            .zip(lane)
            .zip(solved)
            .zip(self.streaks.iter_mut().zip(&mut self.nuclei));
        for (((q, tally), slot), ((streak, prev), nuclei)) in per_member {
            let current: Vec<NodeSet> = match &mut tally.table {
                Some(table) => {
                    table.fold();
                    table.top_k(q.k).into_iter().map(|(set, _)| set).collect()
                }
                None => {
                    nuclei.extend(slot.nucleus.clone());
                    itemset::top_k_closed(nuclei, q.k, q.min_size, q.miner_node_cap)
                        .0
                        .into_iter()
                        .map(|c| c.items)
                        .collect()
                }
            };
            match prev {
                Some(prev) if ugraph::nodeset::set_family_similarity(prev, &current) >= 1.0 => {
                    *streak += 1;
                }
                _ => *streak = 0,
            }
            *prev = Some(current);
            stable &= *streak >= self.window;
        }
        stable
    }
}

/// The max-sized densest set of `world` — NDS's transaction for it — or
/// `None` when the world holds no instance of the density notion.
fn max_sized(world: &Graph, q: &Query) -> Option<NodeSet> {
    if q.heuristic {
        // Heuristic stand-in: the densest subgraph found by core peeling.
        with_candidates(world, &q.notion, |c| c.map(|c| c.collect(c.densest())))
    } else {
        max_sized_densest(world, &q.notion).map(|(_, ms)| ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::InterruptReason;

    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    /// Unwraps a run's MPDS details.
    fn mpds_details(run: Run) -> MpdsResult {
        match run.details {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!("built with Query::mpds"),
        }
    }

    /// Unwraps a run's NDS details.
    fn nds_details(run: Run) -> NdsResult {
        match run.details {
            RunDetails::Nds(r) => r,
            RunDetails::Mpds(_) => unreachable!("built with Query::nds"),
        }
    }

    /// The compile-time snapshot of the exported `mpds::api` surface: if a
    /// public item is renamed or removed, this use-list stops compiling and
    /// tier-1 fails. Extend it when the surface grows.
    #[test]
    fn public_api_surface_snapshot() {
        #[allow(unused_imports)]
        use crate::api::{
            queryset::{BatchRun, BatchStats, QuerySet},
            ApiError, NoProgress, ProgressCounter, ProgressSink, Query, Run, RunDetails, RunStats,
            SamplerKind, Score, Stop, StopReason,
        };
        // Constructor and terminal signatures are part of the contract.
        let _mpds: fn(DensityNotion) -> Query = Query::mpds;
        let _nds: fn(DensityNotion) -> Query = Query::nds;
        let _run: fn(&Query, &UncertainGraph) -> Result<Run, ApiError> = Query::run;
        let _build: fn(SamplerKind, &UncertainGraph, u64) -> Box<dyn WorldSampler + Send> =
            SamplerKind::build;
        let _set: fn() -> QuerySet = QuerySet::new;
        let _push: fn(QuerySet, Query) -> QuerySet = QuerySet::push;
        let _batch: fn(&QuerySet, &UncertainGraph) -> Result<BatchRun, ApiError> = QuerySet::run;
        let _variants = [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss];
        let _scores = [Score::TauHat, Score::GammaHat];
        let _stops = [
            Stop::FixedTheta,
            Stop::Stable {
                window: 8,
                min_theta: 8,
                theta_cap: 100,
            },
        ];
        let _reasons = [
            StopReason::Completed,
            StopReason::Stable,
            StopReason::Budget,
        ];
    }

    /// The serial seeding contract: `run()` with seed `s` is bit-identical
    /// to `run_with_sampler` over an equally-seeded external sampler — the
    /// behavior the deleted `top_k_mpds` free function pinned.
    #[test]
    fn serial_mpds_matches_equally_seeded_external_sampler() {
        let g = fig1();
        let q = Query::mpds(DensityNotion::Edge).theta(300).k(3);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(17));
        let external = mpds_details(q.clone().run_with_sampler(&g, &mut mc).unwrap());
        let run = q.seed(17).run(&g).unwrap();
        let internal = mpds_details(run);
        assert_eq!(internal.top_k, external.top_k);
        assert_eq!(internal.candidates, external.candidates);
        assert_eq!(internal.densest_counts, external.densest_counts);
        assert_eq!(internal.empty_worlds, external.empty_worlds);
    }

    /// The serial seeding contract for NDS (the behavior the deleted
    /// `top_k_nds` free function pinned).
    #[test]
    fn serial_nds_matches_equally_seeded_external_sampler() {
        let g = fig1();
        let q = Query::nds(DensityNotion::Edge).theta(200).k(4).min_size(2);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(8));
        let external = nds_details(q.clone().run_with_sampler(&g, &mut mc).unwrap());
        let run = q.seed(8).run(&g).unwrap();
        let internal = nds_details(run);
        assert_eq!(internal.top_k, external.top_k);
        assert_eq!(internal.transactions, external.transactions);
        assert_eq!(internal.empty_worlds, external.empty_worlds);
    }

    /// Regression carried over from the deleted `parallel` module, whose
    /// `seed + w` worker seeding let a run rooted at seed 1 share half its
    /// world stream with a run rooted at seed 2. Adjacent seeds must draw
    /// genuinely different world multisets, helpers or not.
    #[test]
    fn adjacent_root_seeds_draw_different_worlds() {
        let g = fig1();
        let q = Query::mpds(DensityNotion::Edge)
            .theta(64)
            .k(3)
            .control(RunControl::unbounded().with_helpers(1));
        let a = mpds_details(q.clone().seed(1).run(&g).unwrap());
        let b = mpds_details(q.seed(2).run(&g).unwrap());
        // Identical per-world densest counts in order would mean shared
        // streams; the halves must not line up under any shift either.
        assert_ne!(a.densest_counts[..32], b.densest_counts[..32]);
        assert_ne!(a.densest_counts[32..], b.densest_counts[..32]);
    }

    /// Carried over from the deleted `parallel` module: the estimator with
    /// helper threads stays unbiased — it converges to the exact MPDS.
    #[test]
    fn threads_converge_to_exact() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge)
            .theta(8000)
            .k(1)
            .seed(3)
            .control(RunControl::unbounded().with_helpers(3))
            .run(&g)
            .unwrap();
        assert_eq!(run.top_k[0].0, vec![1, 3]);
        assert!((run.top_k[0].1 - 0.42).abs() < 0.03);
        assert_eq!(mpds_details(run).densest_counts.len(), 8000);
    }

    #[test]
    fn validation_rejects_bad_knobs_once() {
        let g = fig1();
        let bad = |q: Query, param: &str| match q.run(&g) {
            Err(ApiError::InvalidParameter { param: p, .. }) => assert_eq!(p, param),
            other => panic!("expected invalid {param}, got {other:?}"),
        };
        bad(Query::mpds(DensityNotion::Edge).theta(0), "theta");
        bad(
            Query::nds(DensityNotion::Edge)
                .theta(0)
                .control(RunControl::unbounded().with_helpers(2)),
            "theta",
        );
        // No helper count is invalid: more helpers than worlds, or the
        // one-densest ablation (which keeps its one ordered lane), still run.
        let many = Query::mpds(DensityNotion::Edge)
            .theta(2)
            .control(RunControl::unbounded().with_helpers(3));
        assert!(many.run(&g).unwrap().stats.helper_worlds <= 1);
        let one_densest = Query::mpds(DensityNotion::Edge)
            .theta(10)
            .all_densest(false);
        let lent = one_densest
            .clone()
            .control(RunControl::unbounded().with_helpers(2))
            .run(&g)
            .unwrap();
        assert_eq!(lent.stats.helper_worlds, 0);
        assert_eq!(lent.top_k, one_densest.run(&g).unwrap().top_k);
    }

    /// A zero enumeration cap used to run and report every karate world as
    /// empty and truncated (θ = 8, seed 1: `top_k` empty, 8 and 8); it is
    /// rejected for a query, a set member and a recompute alike.
    #[test]
    fn a_zero_enumeration_cap_is_rejected_at_every_entry() {
        let karate = ugraph::datasets::karate_club().graph;
        let zero = Query::mpds(DensityNotion::Edge)
            .theta(8)
            .seed(1)
            .enumeration_cap(0);
        let is_cap = |r: Result<(), ApiError>| {
            assert!(
                matches!(
                    r,
                    Err(ApiError::InvalidParameter {
                        param: "enumeration_cap",
                        ..
                    })
                ),
                "got {r:?}"
            )
        };
        is_cap(zero.run(&karate).map(drop));
        is_cap(
            zero.clone()
                .control(RunControl::unbounded().with_helpers(1))
                .run(&karate)
                .map(drop),
        );
        is_cap(
            queryset::QuerySet::new()
                .theta(8)
                .push(Query::nds(DensityNotion::Edge).k(1))
                .push(zero.clone())
                .run(&karate)
                .map(drop),
        );
        is_cap(
            crate::recompute::Recompute::new(zero.clone())
                .run(&karate, &karate)
                .map(drop),
        );
        // One set a world is enough, and NDS never enumerates.
        let one = zero.clone().enumeration_cap(1).run(&karate).unwrap();
        assert_eq!(one.stats.empty_worlds, 0);
        assert!(!one.top_k.is_empty());
        Query::nds(DensityNotion::Edge)
            .theta(8)
            .enumeration_cap(0)
            .run(&karate)
            .unwrap();
    }

    /// The builder accepts degenerate `k = 0` ("rank nothing") and NDS
    /// `min_size = 0` (no size floor) instead of panicking on an
    /// "unreachable" validation error — behavior inherited from the deleted
    /// legacy entry points.
    #[test]
    fn degenerate_k_and_min_size_stay_legal() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge)
            .theta(20)
            .k(0)
            .run(&g)
            .unwrap();
        assert!(run.top_k.is_empty());
        let run = Query::nds(DensityNotion::Edge)
            .theta(20)
            .k(2)
            .min_size(0)
            .run(&g)
            .unwrap();
        assert!(run.top_k.len() <= 2);
    }

    /// A caller's sampler need not be `Send`: its run keeps one lane and
    /// turns helper threads away.
    #[test]
    fn external_sampler_rejects_threads() {
        let g = fig1();
        let q = Query::mpds(DensityNotion::Edge).theta(10);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let lent = q
            .clone()
            .control(RunControl::unbounded().with_helpers(2))
            .run_with_sampler(&g, &mut mc)
            .unwrap();
        assert_eq!(lent.stats.helper_worlds, 0);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let alone = q.run_with_sampler(&g, &mut mc).unwrap();
        assert_eq!(lent.top_k, alone.top_k);
    }

    #[test]
    fn a_helper_that_panics_at_the_hand_off_fails_the_run_without_a_hang() {
        // The heaviest `cold-exact` karate query: its helper hands sets to
        // the calling lane while both still claim worlds, and again when it
        // stops. Either hand-off panics; the calling lane must still get
        // past the meeting point and fail the run with the helper's panic.
        let (done, outcome) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let karate = ugraph::datasets::karate_club();
            let mut ctrl = RunControl::unbounded().with_helpers(1);
            ctrl.panic_in_handoff = true;
            let query = Query::mpds(DensityNotion::Edge)
                .theta(64)
                .k(3)
                .seed(16_648_020_456_594_380_155)
                .control(ctrl);
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| query.run(&karate.graph)));
            let message = run.err().map(|payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(_) => "a panic without a message".to_string(),
            });
            done.send(message).unwrap();
        });
        let message = outcome
            .recv_timeout(Duration::from_secs(120))
            .expect("the run ends");
        runner.join().expect("the run's panic was caught");
        assert!(
            message
                .as_deref()
                .is_some_and(|m| m.starts_with("estimator lane panicked")),
            "{message:?}"
        );
    }

    #[test]
    fn interrupted_run_reports_reason_serial_and_threads() {
        use std::time::Duration;
        let g = fig1();
        let expired =
            RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        for helpers in [0, 2] {
            let err = Query::mpds(DensityNotion::Edge)
                .theta(1000)
                .control(expired.clone().with_helpers(helpers))
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
    }

    #[test]
    fn progress_counts_worlds_under_both_exec_modes() {
        let g = fig1();
        let mut runs = Vec::new();
        for helpers in [0, 2] {
            let counter = ProgressCounter::new();
            let run = Query::mpds(DensityNotion::Edge)
                .theta(60)
                .progress(counter.clone())
                .control(RunControl::unbounded().with_helpers(helpers))
                .run(&g)
                .unwrap();
            assert_eq!(counter.done(), 60, "{helpers} helpers");
            assert_eq!(counter.requested(), 60, "{helpers} helpers");
            runs.push(mpds_details(run));
        }
        assert_eq!(runs[0].candidates, runs[1].candidates);
        assert_eq!(runs[0].densest_counts, runs[1].densest_counts);
    }

    #[test]
    fn samplers_are_selectable_and_deterministic() {
        let g = fig1();
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let q = Query::mpds(DensityNotion::Edge)
                .theta(400)
                .k(1)
                .sampler(kind)
                .seed(5);
            let a = q.run(&g).unwrap();
            let b = q.run(&g).unwrap();
            assert_eq!(a.top_k, b.top_k, "{}", kind.name());
            // All strategies find the true MPDS {B, D} at this θ.
            assert_eq!(a.top_k[0].0, vec![1, 3], "{}", kind.name());
        }
    }

    #[test]
    fn heuristic_parallel_is_deterministic() {
        let g = fig1();
        let q = Query::mpds(DensityNotion::Edge)
            .theta(200)
            .k(2)
            .heuristic(true);
        let a = q
            .clone()
            .control(RunControl::unbounded().with_helpers(2))
            .run(&g)
            .unwrap();
        let b = q.run(&g).unwrap();
        assert_eq!(a.top_k, b.top_k);
        assert!(!a.top_k.is_empty());
    }

    /// An already-expired budget still samples exactly one world and the
    /// result is bit-identical to a fixed-θ run with θ = 1 — the graceful
    /// counterpart of the abortive expired-deadline test above.
    #[test]
    fn expired_budget_returns_a_one_world_estimate() {
        use std::time::Duration;
        let g = fig1();
        let spent = RunControl::unbounded().with_budget(Instant::now() - Duration::from_millis(1));
        let run = Query::mpds(DensityNotion::Edge)
            .theta(10_000)
            .k(3)
            .seed(7)
            .control(spent)
            .run(&g)
            .unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Budget);
        assert_eq!(run.stats.worlds_sampled, 1);
        assert_eq!(run.stats.converged_at, None);
        let one = Query::mpds(DensityNotion::Edge)
            .theta(1)
            .k(3)
            .seed(7)
            .run(&g)
            .unwrap();
        assert_eq!(run.top_k, one.top_k);
        assert_eq!(mpds_details(run).candidates, mpds_details(one).candidates);
    }

    /// A run with helper threads under an expired budget still returns its
    /// first world instead of aborting, as one lane does.
    #[test]
    fn expired_budget_under_threads_is_graceful() {
        use std::time::Duration;
        let g = fig1();
        let spent = RunControl::unbounded().with_budget(Instant::now() - Duration::from_millis(1));
        let run = Query::mpds(DensityNotion::Edge)
            .theta(1000)
            .k(3)
            .control(spent.with_helpers(1))
            .run(&g)
            .unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Budget);
        assert_eq!(run.stats.worlds_sampled, 1);
    }

    /// The tentpole guarantee: a `Stop::Stable` run that stops at `t`
    /// worlds is bit-identical to `Stop::FixedTheta` with `theta(t)` under
    /// the same seed (same stream prefix, same divisor).
    #[test]
    fn stable_stop_is_bit_identical_to_fixed_theta_at_the_stop_point() {
        let g = fig1();
        let stable = Query::mpds(DensityNotion::Edge)
            .k(2)
            .seed(11)
            .stop(Stop::Stable {
                window: 24,
                min_theta: 24,
                theta_cap: 6000,
            })
            .run(&g)
            .unwrap();
        assert_eq!(stable.stats.stop_reason, StopReason::Stable);
        let t = stable.stats.worlds_sampled;
        assert!(t < 6000, "expected an early stop, sampled {t}");
        assert_eq!(stable.stats.converged_at, Some(t - 24));
        let fixed = Query::mpds(DensityNotion::Edge)
            .k(2)
            .seed(11)
            .theta(t)
            .run(&g)
            .unwrap();
        assert_eq!(stable.top_k, fixed.top_k);
        assert_eq!(
            mpds_details(stable).candidates,
            mpds_details(fixed).candidates
        );
    }

    /// `min_theta` floors the stop even when the top-k is stable from the
    /// first world (a certain graph never changes its ranking).
    #[test]
    fn stable_respects_the_min_theta_floor() {
        let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let run = Query::mpds(DensityNotion::Edge)
            .k(1)
            .stop(Stop::Stable {
                window: 4,
                min_theta: 50,
                theta_cap: 500,
            })
            .run(&g)
            .unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Stable);
        assert!(run.stats.worlds_sampled >= 50);
    }

    /// A ranking that never settles runs to `theta_cap` and reports
    /// `Completed`, exactly like a fixed-θ run at the cap.
    #[test]
    fn stable_that_never_settles_completes_at_the_cap() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge)
            .k(4)
            .seed(5)
            .stop(Stop::Stable {
                window: 1000,
                min_theta: 1,
                theta_cap: 20,
            })
            .run(&g)
            .unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Completed);
        assert_eq!(run.stats.worlds_sampled, 20);
        assert_eq!(run.stats.converged_at, None);
        let fixed = Query::mpds(DensityNotion::Edge)
            .k(4)
            .seed(5)
            .theta(20)
            .run(&g)
            .unwrap();
        assert_eq!(run.top_k, fixed.top_k);
    }

    /// NDS supports `Stop::Stable` too, with the same fixed-θ equivalence.
    #[test]
    fn stable_nds_matches_fixed_theta_at_the_stop_point() {
        let g = fig1();
        let stable = Query::nds(DensityNotion::Edge)
            .k(2)
            .min_size(2)
            .seed(3)
            .stop(Stop::Stable {
                window: 24,
                min_theta: 24,
                theta_cap: 4000,
            })
            .run(&g)
            .unwrap();
        assert_eq!(stable.stats.stop_reason, StopReason::Stable);
        let t = stable.stats.worlds_sampled;
        let fixed = Query::nds(DensityNotion::Edge)
            .k(2)
            .min_size(2)
            .seed(3)
            .theta(t)
            .run(&g)
            .unwrap();
        assert_eq!(stable.top_k, fixed.top_k);
        assert_eq!(
            nds_details(stable).transactions,
            nds_details(fixed).transactions
        );
    }

    #[test]
    fn stable_stop_validation_and_threads_rejection() {
        let g = fig1();
        let bad = |stop: Stop| {
            let err = Query::mpds(DensityNotion::Edge).stop(stop).run(&g);
            assert!(
                matches!(err, Err(ApiError::InvalidParameter { param: "stop", .. })),
                "{stop:?}"
            );
        };
        bad(Stop::Stable {
            window: 0,
            min_theta: 1,
            theta_cap: 10,
        });
        bad(Stop::Stable {
            window: 1,
            min_theta: 1,
            theta_cap: 0,
        });
        bad(Stop::Stable {
            window: 1,
            min_theta: 20,
            theta_cap: 10,
        });
        // A stable stop watches one ordered world stream: it turns helper
        // threads away.
        let stable = Query::mpds(DensityNotion::Edge).stop(Stop::Stable {
            window: 8,
            min_theta: 8,
            theta_cap: 100,
        });
        let lent = stable
            .clone()
            .control(RunControl::unbounded().with_helpers(2))
            .run(&g)
            .unwrap();
        assert_eq!(lent.stats.helper_worlds, 0);
        assert_eq!(lent.top_k, stable.run(&g).unwrap().top_k);
    }

    /// Fixed-θ runs report `Completed` and the full θ — the default stats
    /// shape every pre-existing caller relies on.
    #[test]
    fn fixed_theta_stats_report_completed() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge).theta(30).run(&g).unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Completed);
        assert_eq!(run.stats.worlds_sampled, 30);
        assert_eq!(run.stats.converged_at, None);
    }

    #[test]
    fn stats_carry_convergence_diagnostics() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge).theta(100).run(&g).unwrap();
        let (mean, _std, q) = run.stats.densest_count_summary.unwrap();
        assert!(mean >= 0.0 && q[0] <= q[1] && q[1] <= q[2]);
        let nds = Query::nds(DensityNotion::Edge).theta(50).run(&g).unwrap();
        assert!(nds.stats.densest_count_summary.is_none());
        assert_eq!(nds.stats.worlds_sampled, 50);
    }
}
