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
//! | [`Query::theta`] (alias [`Query::worlds`]) | θ, the number of sampled possible worlds |
//! | [`Query::k`] | k, how many top node sets to return |
//! | [`Query::min_size`] | `l_m` (a.k.a. Λ), minimum nucleus size (§IV) |
//! | [`Query::sampler`] | MC / LP / RSS sampling strategies (§V, §VI-G) |
//! | [`Query::seed`] | the run's RNG seed — equal seeds mean equal results |
//! | [`Query::heuristic`] | the core-based heuristic of §III-C |
//! | [`Query::all_densest`] | the "all vs one densest per world" ablation (§VI-D) |
//! | [`Query::exec`] | serial, or θ split across worker threads (helper lanes, which keep the serial answer, come from [`RunControl::with_helpers`]) |
//! | [`Query::stop`] | termination policy: fixed θ, or the §VI-I "sample until the top-k stops changing" rule ([`Stop::Stable`]) |
//! | [`Query::control`] | cooperative deadline / cancellation / graceful time budget ([`crate::control`]) |
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
//! * `Exec::Serial` with sampler kind `K` and seed `s` draws exactly the
//!   worlds of `K` seeded with `s` — bit-identical to
//!   [`Query::run_with_sampler`] over `K::new(g, StdRng::seed_from_u64(s))`.
//! * `Exec::Threads(n)` gives worker `w` sub-stream `w` of the root seed
//!   ([`sampling::stream_seed`]), partial results merged in worker order. A
//!   serial run and a 1-thread run therefore draw *different* (both
//!   deterministic) world streams.
//!
//! Because the world stream depends only on `(sampler kind, seed)` — never
//! on the estimator — many queries can share one stream: see
//! [`queryset::QuerySet`] for batch evaluation that materializes each world
//! once while staying bit-identical to standalone runs.

pub mod queryset;

use crate::control::{InterruptReason, Interrupted, RunControl};
use crate::estimate::{densest_count_stats, CandidateTable, LaneTally, MpdsResult, Tally};
use crate::nds::NdsResult;
use densest::{
    for_each_densest, heuristic::heuristic_dense_subgraphs, max_sized_densest, DensityNotion,
};
use mpds_obs::{Recorder, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sampling::{stream_seed, LazyPropagation, MonteCarlo, RecursiveStratified, WorldSampler};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Builds the sampler seeded directly with `seed` — the serial-execution
    /// seeding (see the module-level determinism contract).
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
    pub fn build(self, g: &UncertainGraph, seed: u64) -> Box<dyn WorldSampler> {
        self.build_shared(g, seed)
    }

    /// [`SamplerKind::build`] as a sampler that lanes may share.
    fn build_shared(self, g: &UncertainGraph, seed: u64) -> Box<dyn WorldSampler + Send> {
        match self {
            SamplerKind::MonteCarlo => Box::new(MonteCarlo::new(g, StdRng::seed_from_u64(seed))),
            SamplerKind::Lp => Box::new(LazyPropagation::new(g, StdRng::seed_from_u64(seed))),
            SamplerKind::Rss => {
                Box::new(RecursiveStratified::new(g, 3, StdRng::seed_from_u64(seed)))
            }
        }
    }

    /// Builds the sampler for sub-stream `stream` of `root_seed` — the
    /// per-worker seeding of `Exec::Threads` ([`sampling::stream_seed`]
    /// decorrelates every `(root, stream)` pair).
    ///
    /// ```
    /// use mpds::api::SamplerKind;
    /// use sampling::WorldSampler;
    /// use ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
    /// let a = SamplerKind::MonteCarlo.build_stream(&g, 1, 0).next_mask();
    /// let b = SamplerKind::MonteCarlo.build_stream(&g, 1, 0).next_mask();
    /// assert_eq!(a, b); // reproducible per (root, stream)
    /// ```
    pub fn build_stream(
        self,
        g: &UncertainGraph,
        root_seed: u64,
        stream: u64,
    ) -> Box<dyn WorldSampler> {
        self.build(g, stream_seed(root_seed, stream))
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

/// How a [`Query`] executes its θ world samples.
///
/// [`Exec::Threads`] changes the answer with its thread count: worker `w`
/// draws sub-stream `w` of the root seed. Helper *lanes*
/// ([`RunControl::with_helpers`]) never change it: under [`Exec::Serial`],
/// a fixed-θ, all-densest MPDS query may solve its one world stream on
/// several threads, each world drawn in order from the one sampler, and
/// returns exactly the run it returns on one thread.
///
/// ```
/// use mpds::api::Exec;
/// assert_eq!(Exec::default(), Exec::Serial);
/// assert_ne!(Exec::Threads(4), Exec::Serial);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// One thread samples all θ worlds (the paper's setup).
    #[default]
    Serial,
    /// θ split across this many scoped worker threads, each drawing an
    /// independent sub-stream of the root seed. Deterministic for a fixed
    /// `(seed, thread count)` pair.
    Threads(usize),
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
    /// ranking never settles. [`Query::theta`] is ignored. Serial only: the
    /// rule watches one ordered world stream.
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
/// Implementations must be `Send + Sync`: under [`Exec::Threads`] all
/// workers share one sink.
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
    /// The requested combination is not supported (e.g. the one-densest
    /// ablation under `Exec::Threads`, whose tie-breaking RNG is a single
    /// serial stream).
    Unsupported {
        /// Human-readable description of the unsupported combination.
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
            ApiError::Unsupported { message } => write!(f, "unsupported: {message}"),
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
/// use mpds::api::{Exec, Query, SamplerKind};
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
///     .exec(Exec::Threads(2))
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
    choice_seed: u64,
    miner_node_cap: usize,
    exec: Exec,
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
            .field("choice_seed", &self.choice_seed)
            .field("miner_node_cap", &self.miner_node_cap)
            .field("exec", &self.exec)
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
            choice_seed: 0x5eed,
            miner_node_cap: 5_000_000,
            exec: Exec::Serial,
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

    /// Alias of [`Query::theta`] for readers who think in "#worlds".
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).worlds(64);
    /// assert!(format!("{q:?}").contains("theta: 64"));
    /// ```
    pub fn worlds(self, worlds: usize) -> Self {
        self.theta(worlds)
    }

    /// Sets k, how many top node sets to return (default 5; `k = 0` is the
    /// degenerate "rank nothing" query and yields an empty `top_k`, exactly
    /// as the legacy entry points did).
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

    /// Sets `l_m`, the minimum size of a returned nucleus (default 2;
    /// `0` imposes no size floor, exactly as the legacy entry point did).
    /// NDS only; MPDS queries ignore it, exactly as Algorithm 1 does.
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
    /// equal results, per execution mode (see the module docs).
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

    /// MPDS only: seed of the tie-breaking RNG used by the
    /// `all_densest(false)` ablation (default `0x5eed`).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// let q = Query::mpds(DensityNotion::Edge).choice_seed(1);
    /// assert!(format!("{q:?}").contains("choice_seed: 1"));
    /// ```
    pub fn choice_seed(mut self, choice_seed: u64) -> Self {
        self.choice_seed = choice_seed;
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

    /// Chooses serial or multi-threaded execution (default
    /// [`Exec::Serial`]).
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::{Exec, Query};
    /// let q = Query::mpds(DensityNotion::Edge).exec(Exec::Threads(4));
    /// assert!(format!("{q:?}").contains("Threads(4)"));
    /// ```
    pub fn exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
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
    /// [`StopReason::Budget`] in the stats.
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
    /// (default: none). Under [`Exec::Threads`] all workers share the sink.
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

    /// Validates every knob once; the single checkpoint before execution.
    fn validate(&self) -> Result<(), ApiError> {
        let invalid = |param: &'static str, message: String| {
            Err(ApiError::InvalidParameter { param, message })
        };
        if self.theta == 0 {
            return invalid("theta", "need at least one sampled world".to_string());
        }
        if let Stop::Stable {
            window,
            min_theta,
            theta_cap,
        } = self.stop
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
            if let Exec::Threads(_) = self.exec {
                return Err(ApiError::Unsupported {
                    message: "Stop::Stable watches one ordered world stream; \
                              run it with Exec::Serial"
                        .to_string(),
                });
            }
        }
        if let Exec::Threads(workers) = self.exec {
            if workers == 0 {
                return invalid("exec", "Threads(0) has no workers".to_string());
            }
            if self.theta < workers {
                return invalid(
                    "exec",
                    format!("theta {} < {workers} worker threads", self.theta),
                );
            }
            if self.kind == Kind::Mpds && !self.all_densest {
                return Err(ApiError::Unsupported {
                    message: "the one-densest-per-world ablation draws from a single \
                              serial tie-breaking RNG stream; run it with Exec::Serial"
                        .to_string(),
                });
            }
        }
        Ok(())
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
        self.validate()?;
        let started = Instant::now();
        match self.exec {
            Exec::Serial if self.solves_in_lanes() => self.run_lanes(g, started),
            Exec::Serial => {
                let mut sampler = self.sampler.build(g, self.seed);
                self.run_serial(g, &mut *sampler, started)
            }
            Exec::Threads(workers) => self.run_threads(g, workers, started),
        }
    }

    /// Runs the query with a caller-supplied sampler instead of resolving
    /// one from [`Query::sampler`] + [`Query::seed`]. Serial only: an
    /// external sampler is a single mutable stream, so [`Exec::Threads`]
    /// returns [`ApiError::Unsupported`].
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
        sampler: &mut S,
    ) -> Result<Run, ApiError> {
        self.validate()?;
        if let Exec::Threads(_) = self.exec {
            return Err(ApiError::Unsupported {
                message: "an external sampler is a single mutable stream; \
                          Exec::Threads needs per-worker sub-streams (use Query::run)"
                    .to_string(),
            });
        }
        self.run_serial(g, sampler, Instant::now())
    }

    fn progress_sink(&self) -> &dyn ProgressSink {
        match &self.progress {
            Some(sink) => sink.as_ref(),
            None => &NoProgress,
        }
    }

    /// The sampling loop's iteration ceiling: θ under [`Stop::FixedTheta`],
    /// `theta_cap` under [`Stop::Stable`].
    fn world_limit(&self) -> usize {
        match self.stop {
            Stop::FixedTheta => self.theta,
            Stop::Stable { theta_cap, .. } => theta_cap,
        }
    }

    /// A fresh [`StableTracker`] when this query early-stops on stability.
    fn stable_tracker(&self) -> Option<StableTracker> {
        match self.stop {
            Stop::FixedTheta => None,
            Stop::Stable {
                window, min_theta, ..
            } => Some(StableTracker::new(window, min_theta)),
        }
    }

    /// Stamps `converged_at` once the outcome is known: a stable stop at
    /// `worlds` means the top-k last changed at `worlds - window`.
    fn note_convergence(&self, outcome: &mut WorldsOutcome) {
        if outcome.reason == StopReason::Stable {
            if let Stop::Stable { window, .. } = self.stop {
                outcome.converged_at = Some(outcome.worlds.saturating_sub(window));
            }
        }
    }

    fn run_serial<S: WorldSampler + ?Sized>(
        &self,
        g: &UncertainGraph,
        sampler: &mut S,
        started: Instant,
    ) -> Result<Run, ApiError> {
        let progress = self.progress_sink();
        let limit = self.world_limit();
        progress.begin(limit);
        let mut tracker = self.stable_tracker();
        // Stage recorder (if attached): a disabled recorder hands out inert
        // spans, so the un-profiled loop pays one branch per stage, no
        // clock reads.
        let rec = self.control.recorder();
        match self.kind {
            Kind::Mpds => {
                let mut acc = MpdsAccum::new(self, g.num_nodes());
                let mut outcome =
                    sample_worlds(g, sampler, limit, &self.control, progress, |world| {
                        {
                            let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
                            acc.consume(world, self);
                        }
                        match &mut tracker {
                            None => true,
                            Some(t) => {
                                let _span = rec.map(|r| r.span(Stage::StableTracker));
                                !t.observe(acc.top_k_sets(self.k))
                            }
                        }
                    })?;
                self.note_convergence(&mut outcome);
                Ok(self.finish_mpds(acc, outcome, started))
            }
            Kind::Nds => {
                let mut acc = NdsAccum::new(self);
                let mut outcome =
                    sample_worlds(g, sampler, limit, &self.control, progress, |world| {
                        {
                            let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
                            acc.consume(world, self);
                        }
                        match &mut tracker {
                            None => true,
                            Some(t) => {
                                let _span = rec.map(|r| r.span(Stage::StableTracker));
                                let (mined, _) = itemset::top_k_closed(
                                    &acc.transactions,
                                    self.k,
                                    self.min_size,
                                    self.miner_node_cap,
                                );
                                let current: Vec<NodeSet> =
                                    mined.into_iter().map(|c| c.items).collect();
                                !t.observe(current)
                            }
                        }
                    })?;
                self.note_convergence(&mut outcome);
                Ok(self.finish_nds(acc, outcome, started))
            }
        }
    }

    /// Whether the worlds of this query are independent units of one
    /// order-free tally, so that lanes may solve them: a fixed-θ MPDS run
    /// crediting all densest sets. Stable stops read the tally after every
    /// world and the one-densest ablation draws from one choice stream in
    /// world order, so both keep their one ordered lane.
    fn solves_in_lanes(&self) -> bool {
        self.kind == Kind::Mpds && self.all_densest && self.stop == Stop::FixedTheta
    }

    /// Solves the worlds in lanes: the calling thread and the
    /// [`RunControl::with_helpers`] helpers claim world indices in order,
    /// each world drawn from the query's one sampler under its claim (see
    /// [`Claims`]), and credit one shared table ([`LaneTally`]). Each
    /// world's densest count lands at its index, so the run equals the
    /// one-lane run in everything but its wall time; with no helpers it is
    /// the one-lane run.
    fn run_lanes(&self, g: &UncertainGraph, started: Instant) -> Result<Run, ApiError> {
        let progress = self.progress_sink();
        progress.begin(self.theta);
        let claims = Mutex::new(Claims {
            sampler: self.sampler.build_shared(g, self.seed),
            claimed: 0,
            stopped: None,
            densest_counts: vec![0; self.theta],
        });
        let mut acc = MpdsAccum::new(self, g.num_nodes());
        let shared = Mutex::new(acc.candidates.for_lane());
        // Lanes are made here, so their buffers come from this thread.
        let mut lanes = (0..=self.control.helpers()).map(|_| Lane::new(&shared));
        let mut own = lanes.next().expect("the calling thread's lane");
        let helpers: Vec<Lane> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .map(|mut lane| {
                    let claims = &claims;
                    scope.spawn(move || {
                        self.lane(g, claims, &mut lane, None, progress);
                        lane
                    })
                })
                .collect();
            self.lane(g, &claims, &mut own, self.control.recorder(), progress);
            handles
                .into_iter()
                .map(|h| h.join().expect("estimator lane panicked"))
                .collect()
        });
        let Claims {
            claimed,
            stopped,
            mut densest_counts,
            ..
        } = claims.into_inner().expect("a lane panicked while claiming");
        let reason = match stopped {
            Some(Err(reason)) => {
                return Err(ApiError::Interrupted(Interrupted {
                    reason,
                    completed_worlds: claimed,
                }))
            }
            Some(Ok(reason)) => reason,
            None => StopReason::Completed,
        };
        densest_counts.truncate(claimed);
        acc.densest_counts = densest_counts;
        let helper_worlds = helpers.iter().map(|lane| lane.worlds).sum();
        for lane in std::iter::once(own).chain(helpers) {
            acc.empty_worlds += lane.empty_worlds;
            acc.truncated_worlds += lane.truncated_worlds;
        }
        acc.truncated = acc.truncated_worlds > 0;
        acc.candidates = shared
            .into_inner()
            .expect("a lane panicked while crediting");
        let mut run = self.finish_mpds(
            acc,
            WorldsOutcome {
                worlds: claimed,
                reason,
                converged_at: None,
            },
            started,
        );
        run.stats.helper_worlds = helper_worlds;
        Ok(run)
    }

    /// One lane of [`Query::run_lanes`]: claims the next world and draws it,
    /// reporting the previous world's densest count under the same lock,
    /// then solves it outside the lock, until claiming stops; then adds its
    /// last credits to the shared table. Only a lane given `rec` records
    /// stage spans.
    fn lane(
        &self,
        g: &UncertainGraph,
        claims: &Mutex<Claims>,
        lane: &mut Lane,
        rec: Option<&Recorder>,
        progress: &dyn ProgressSink,
    ) {
        let mut mask = EdgeMask::new(g.num_edges());
        let mut world = Graph::default();
        let mut solved: Option<(usize, usize)> = None;
        loop {
            let index = {
                let _span = rec.map(|r| r.span(Stage::WorldMaterialize));
                let index = {
                    let mut c = claims.lock().expect("a lane panicked while claiming");
                    if let Some((index, count)) = solved.take() {
                        c.densest_counts[index] = count;
                    }
                    let Some(index) = c.claim(&self.control) else {
                        break;
                    };
                    c.sampler.next_mask_into(&mut mask);
                    index
                };
                world = g.world_from_bitmap(&mask, world);
                index
            };
            let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
            let (count, truncated) = credit_all(&mut lane.tally, &world, self);
            lane.empty_worlds += usize::from(count == 0);
            lane.truncated_worlds += usize::from(truncated);
            lane.worlds += 1;
            progress.world_done();
            solved = Some((index, count));
        }
        let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
        lane.tally.finish();
    }

    fn run_threads(
        &self,
        g: &UncertainGraph,
        workers: usize,
        started: Instant,
    ) -> Result<Run, ApiError> {
        let progress = self.progress_sink();
        progress.begin(self.theta);
        match self.kind {
            Kind::Mpds => {
                let (acc, outcome) =
                    self.run_workers(g, workers, progress, MpdsAccum::new(self, g.num_nodes()))?;
                Ok(self.finish_mpds(acc, outcome, started))
            }
            Kind::Nds => {
                let (acc, outcome) = self.run_workers(g, workers, progress, NdsAccum::new(self))?;
                Ok(self.finish_nds(acc, outcome, started))
            }
        }
    }

    /// Splits θ across `workers` scoped threads (worker `w` gets sub-stream
    /// `w` of the root seed and an even share of θ, the first `θ mod n`
    /// workers one extra), then merges the partial accumulators in worker
    /// order — so the merged state is position-for-position the state one
    /// worker would have produced from the concatenated streams.
    fn run_workers<A: Accum>(
        &self,
        g: &UncertainGraph,
        workers: usize,
        progress: &dyn ProgressSink,
        seed_acc: A,
    ) -> Result<(A, WorldsOutcome), ApiError> {
        let per = self.theta / workers;
        let extra = self.theta % workers;
        let results: Vec<(A, Result<WorldsOutcome, Interrupted>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let quota = per + usize::from(w < extra);
                    let mut acc = seed_acc.fresh();
                    scope.spawn(move || {
                        let rec = self.control.recorder();
                        let mut sampler = self.sampler.build_stream(g, self.seed, w as u64);
                        let outcome = sample_worlds(
                            g,
                            &mut *sampler,
                            quota,
                            &self.control,
                            progress,
                            |world| {
                                let _span = rec.map(|r| r.span(Stage::EstimatorAccumulate));
                                acc.consume(world, self);
                                true
                            },
                        );
                        (acc, outcome)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("estimator worker panicked"))
                .collect()
        });
        let completed: usize = results
            .iter()
            .map(|(_, r)| match r {
                Ok(o) => o.worlds,
                Err(i) => i.completed_worlds,
            })
            .sum();
        if let Some(reason) = results
            .iter()
            .find_map(|(_, r)| r.as_ref().err().map(|i| i.reason))
        {
            return Err(ApiError::Interrupted(Interrupted {
                reason,
                completed_worlds: completed,
            }));
        }
        // Workers stop gracefully at different counts when a shared budget
        // expires; the merged run is Budget if any worker was.
        let reason = if results
            .iter()
            .any(|(_, r)| matches!(r, Ok(o) if o.reason == StopReason::Budget))
        {
            StopReason::Budget
        } else {
            StopReason::Completed
        };
        let mut merged = seed_acc;
        for (partial, _) in results {
            merged.merge(partial);
        }
        Ok((
            merged,
            WorldsOutcome {
                worlds: completed,
                reason,
                converged_at: None,
            },
        ))
    }

    fn finish_mpds(&self, mut acc: MpdsAccum, outcome: WorldsOutcome, started: Instant) -> Run {
        // The divisor is the achieved world count, so an early-stopped run
        // is exactly the fixed-θ run at that θ (same stream prefix).
        let worlds = outcome.worlds;
        acc.candidates.fold();
        let top_k: Vec<(NodeSet, f64)> = acc
            .candidates
            .top_k(self.k)
            .into_iter()
            .map(|(set, c)| (set, c as f64 / worlds as f64))
            .collect();
        let summary = if acc.densest_counts.is_empty() {
            None
        } else {
            Some(densest_count_stats(&acc.densest_counts))
        };
        let result = MpdsResult {
            top_k: top_k.clone(),
            candidates: acc.candidates,
            theta: worlds,
            empty_worlds: acc.empty_worlds,
            densest_counts: acc.densest_counts,
            truncated: acc.truncated,
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
                truncated_worlds: acc.truncated_worlds,
                densest_count_summary: summary,
                helper_worlds: 0,
            },
            details: RunDetails::Mpds(result),
        }
    }

    fn finish_nds(&self, acc: NdsAccum, outcome: WorldsOutcome, started: Instant) -> Run {
        let worlds = outcome.worlds;
        let (mined, miner_capped) = itemset::top_k_closed(
            &acc.transactions,
            self.k,
            self.min_size,
            self.miner_node_cap,
        );
        let top_k: Vec<(NodeSet, f64)> = mined
            .into_iter()
            .map(|c| (c.items, c.support as f64 / worlds as f64))
            .collect();
        let result = NdsResult {
            top_k: top_k.clone(),
            transactions: acc.transactions,
            theta: worlds,
            empty_worlds: acc.empty_worlds,
            miner_capped,
        };
        Run {
            top_k,
            score: Score::GammaHat,
            stats: RunStats {
                worlds_sampled: worlds,
                stop_reason: outcome.reason,
                converged_at: outcome.converged_at,
                empty_worlds: result.empty_worlds,
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

/// How a [`sample_worlds`] loop ended: how many worlds it drew and why it
/// stopped. `converged_at` is stamped by the caller (only it knows the
/// stable window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorldsOutcome {
    /// Worlds fully sampled and consumed.
    pub worlds: usize,
    /// Why the loop stopped.
    pub reason: StopReason,
    /// For stable stops: the world count after which the top-k was frozen.
    pub converged_at: Option<usize>,
}

/// THE sampling loop: every estimator, sampler, and execution mode runs
/// through this one function (serial runs call it once, `Exec::Threads`
/// workers once each). Per iteration: poll the [`RunControl`] (abortive
/// deadline / cancellation), check the graceful time budget, draw a world
/// into the recycled mask + CSR storage (zero steady-state allocation),
/// hand it to the accumulator, notify the [`ProgressSink`]. The
/// accumulator's `per_world` return steers early stopping: `false` ends the
/// loop with [`StopReason::Stable`]. An exhausted budget ends it with
/// [`StopReason::Budget`] — but never before the first world, so a budgeted
/// run always returns a (minimal) estimate.
pub(crate) fn sample_worlds<S: WorldSampler + ?Sized>(
    g: &UncertainGraph,
    sampler: &mut S,
    limit: usize,
    ctrl: &RunControl,
    progress: &dyn ProgressSink,
    mut per_world: impl FnMut(&Graph) -> bool,
) -> Result<WorldsOutcome, Interrupted> {
    let mut mask = EdgeMask::new(g.num_edges());
    let mut world = Graph::default();
    let rec = ctrl.recorder();
    for completed in 0..limit {
        if let Some(reason) = ctrl.interruption() {
            return Err(Interrupted {
                reason,
                completed_worlds: completed,
            });
        }
        if completed > 0 && ctrl.budget_exhausted() {
            return Ok(WorldsOutcome {
                worlds: completed,
                reason: StopReason::Budget,
                converged_at: None,
            });
        }
        {
            let _span = rec.map(|r| r.span(Stage::WorldMaterialize));
            sampler.next_mask_into(&mut mask);
            world = g.world_from_bitmap(&mask, world);
        }
        let keep_going = per_world(&world);
        progress.world_done();
        if !keep_going {
            return Ok(WorldsOutcome {
                worlds: completed + 1,
                reason: StopReason::Stable,
                converged_at: None,
            });
        }
    }
    Ok(WorldsOutcome {
        worlds: limit,
        reason: StopReason::Completed,
        converged_at: None,
    })
}

/// One lane of [`Query::run_lanes`]: its share of the tally and its
/// per-world tallies.
struct Lane<'a> {
    tally: LaneTally<'a>,
    empty_worlds: usize,
    truncated_worlds: usize,
    /// Worlds this lane solved.
    worlds: usize,
}

impl<'a> Lane<'a> {
    fn new(shared: &'a Mutex<CandidateTable>) -> Self {
        Lane {
            tally: LaneTally::new(shared),
            empty_worlds: 0,
            truncated_worlds: 0,
            worlds: 0,
        }
    }
}

/// Credits every densest set of `world` to `tally` (every dense set the
/// §III-C heuristic finds, in heuristic mode). Returns how many there were
/// and whether the enumeration stopped at the cap.
fn credit_all(tally: &mut impl Tally, world: &Graph, q: &Query) -> (usize, bool) {
    if q.heuristic {
        let subgraphs = heuristic_dense_subgraphs(world, &q.notion).map(|h| h.subgraphs);
        let subgraphs = subgraphs.unwrap_or_default();
        for sg in &subgraphs {
            tally.credit_nodes(sg);
        }
        return (subgraphs.len(), false);
    }
    match for_each_densest(world, &q.notion, q.enumeration_cap, &mut |mask| {
        tally.credit_mask(mask)
    }) {
        Some(f) => (f.count, f.truncated),
        None => (0, false),
    }
}

/// What the lanes of [`Query::run_lanes`] share under one lock: the query's
/// one sampler, how many world indices were claimed, why claiming stopped,
/// and each world's densest count at its index. A claim polls the
/// [`RunControl`] as [`sample_worlds`] does before each world, and the
/// world is drawn under the claim, so the claimed worlds are always a
/// prefix of the one-lane stream.
struct Claims {
    sampler: Box<dyn WorldSampler + Send>,
    claimed: usize,
    /// `Ok` for a graceful stop (budget), `Err` for an abortive one.
    stopped: Option<Result<StopReason, InterruptReason>>,
    densest_counts: Vec<usize>,
}

impl Claims {
    /// The next world index, or `None` once every world is claimed or the
    /// run stopped (cancellation, then deadline, then budget — never before
    /// the first world).
    fn claim(&mut self, ctrl: &RunControl) -> Option<usize> {
        if self.stopped.is_some() || self.claimed == self.densest_counts.len() {
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
}

/// Watches the per-world top-k under [`Stop::Stable`]: counts how many
/// consecutive worlds left the ranking unchanged (family similarity 1.0)
/// and says stop once the streak reaches the window past `min_theta`.
struct StableTracker {
    window: usize,
    min_theta: usize,
    worlds: usize,
    streak: usize,
    prev: Option<Vec<NodeSet>>,
}

impl StableTracker {
    fn new(window: usize, min_theta: usize) -> Self {
        StableTracker {
            window,
            min_theta,
            worlds: 0,
            streak: 0,
            prev: None,
        }
    }

    /// Feeds the top-k after one more world; `true` means stop now.
    fn observe(&mut self, current: Vec<NodeSet>) -> bool {
        self.worlds += 1;
        match &self.prev {
            Some(prev) if ugraph::nodeset::set_family_similarity(prev, &current) >= 1.0 => {
                self.streak += 1;
            }
            _ => self.streak = 0,
        }
        self.prev = Some(current);
        self.worlds >= self.min_theta && self.streak >= self.window
    }
}

/// A per-worker partial result: consumes worlds, merges in worker order.
trait Accum: Send + Sized {
    /// An empty accumulator with the same configuration.
    fn fresh(&self) -> Self;
    /// Processes one sampled world.
    fn consume(&mut self, world: &Graph, q: &Query);
    /// Appends another worker's partial state (worker order!).
    fn merge(&mut self, other: Self);
}

struct MpdsAccum {
    candidates: CandidateTable,
    empty_worlds: usize,
    densest_counts: Vec<usize>,
    truncated: bool,
    truncated_worlds: usize,
    choice_rng: StdRng,
    /// One world's densest family as packed masks, kept only for the
    /// one-densest ablation's random pick; reused across worlds.
    family: Vec<u64>,
}

impl MpdsAccum {
    fn new(q: &Query, num_nodes: usize) -> Self {
        MpdsAccum {
            candidates: CandidateTable::for_graph(num_nodes),
            empty_worlds: 0,
            densest_counts: Vec::with_capacity(q.theta),
            truncated: false,
            truncated_worlds: 0,
            choice_rng: StdRng::seed_from_u64(q.choice_seed),
            family: Vec::new(),
        }
    }

    /// The current top-k sets, for the `Stop::Stable` trackers.
    fn top_k_sets(&mut self, k: usize) -> Vec<NodeSet> {
        self.candidates.fold();
        self.candidates
            .top_k(k)
            .into_iter()
            .map(|(set, _)| set)
            .collect()
    }

    /// §VI-D ablation: credits one uniformly random densest set of `world`
    /// (one random dense set, in heuristic mode). Returns the family size
    /// and whether its enumeration stopped at the cap.
    fn credit_one(&mut self, world: &Graph, q: &Query) -> (usize, bool) {
        if q.heuristic {
            let subgraphs = heuristic_dense_subgraphs(world, &q.notion).map(|h| h.subgraphs);
            let subgraphs = subgraphs.unwrap_or_default();
            if !subgraphs.is_empty() {
                let pick = self.choice_rng.gen_range(0..subgraphs.len());
                self.candidates.credit_nodes(&subgraphs[pick]);
            }
            return (subgraphs.len(), false);
        }
        let family = &mut self.family;
        family.clear();
        let Some(f) = for_each_densest(world, &q.notion, q.enumeration_cap, &mut |mask| {
            family.extend_from_slice(mask)
        }) else {
            return (0, false);
        };
        if let Some(width) = family.len().checked_div(f.count) {
            let pick = self.choice_rng.gen_range(0..f.count);
            self.candidates
                .credit_mask(&family[pick * width..(pick + 1) * width]);
        }
        (f.count, f.truncated)
    }
}

impl Accum for MpdsAccum {
    fn fresh(&self) -> Self {
        MpdsAccum {
            candidates: self.candidates.empty_like(),
            empty_worlds: 0,
            densest_counts: Vec::new(),
            truncated: false,
            truncated_worlds: 0,
            choice_rng: self.choice_rng.clone(),
            family: Vec::new(),
        }
    }

    fn consume(&mut self, world: &Graph, q: &Query) {
        let (count, truncated) = if q.all_densest {
            credit_all(&mut self.candidates, world, q)
        } else {
            self.credit_one(world, q)
        };
        self.truncated |= truncated;
        self.truncated_worlds += usize::from(truncated);
        self.empty_worlds += usize::from(count == 0);
        self.densest_counts.push(count);
    }

    fn merge(&mut self, other: Self) {
        self.candidates.merge(other.candidates);
        self.empty_worlds += other.empty_worlds;
        self.densest_counts.extend(other.densest_counts);
        self.truncated |= other.truncated;
        self.truncated_worlds += other.truncated_worlds;
    }
}

struct NdsAccum {
    transactions: Vec<NodeSet>,
    empty_worlds: usize,
}

impl NdsAccum {
    fn new(q: &Query) -> Self {
        NdsAccum {
            transactions: Vec::with_capacity(q.theta),
            empty_worlds: 0,
        }
    }
}

impl Accum for NdsAccum {
    fn fresh(&self) -> Self {
        NdsAccum {
            transactions: Vec::new(),
            empty_worlds: 0,
        }
    }

    fn consume(&mut self, world: &Graph, q: &Query) {
        let max_sized: Option<NodeSet> = if q.heuristic {
            // Heuristic stand-in: the densest subgraph found by core peeling.
            heuristic_dense_subgraphs(world, &q.notion).map(|h| h.subgraphs[0].clone())
        } else {
            max_sized_densest(world, &q.notion).map(|(_, ms)| ms)
        };
        match max_sized {
            Some(ms) => self.transactions.push(ms),
            None => self.empty_worlds += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        self.transactions.extend(other.transactions);
        self.empty_worlds += other.empty_worlds;
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
            ApiError, Exec, NoProgress, ProgressCounter, ProgressSink, Query, Run, RunDetails,
            RunStats, SamplerKind, Score, Stop, StopReason,
        };
        // Constructor and terminal signatures are part of the contract.
        let _mpds: fn(DensityNotion) -> Query = Query::mpds;
        let _nds: fn(DensityNotion) -> Query = Query::nds;
        let _run: fn(&Query, &UncertainGraph) -> Result<Run, ApiError> = Query::run;
        let _build: fn(SamplerKind, &UncertainGraph, u64) -> Box<dyn WorldSampler> =
            SamplerKind::build;
        let _set: fn() -> QuerySet = QuerySet::new;
        let _push: fn(QuerySet, Query) -> QuerySet = QuerySet::push;
        let _batch: fn(&QuerySet, &UncertainGraph) -> Result<BatchRun, ApiError> = QuerySet::run;
        let _amortized: fn(&BatchStats) -> f64 = BatchStats::worlds_per_member;
        let _variants = [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss];
        let _modes = [Exec::Serial, Exec::Threads(2)];
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

    /// `Exec::Threads(n)` merges worker sub-streams in worker order: worker
    /// `w`'s contribution equals a serial run over MC sub-stream `w` with
    /// its quota, and the merged top-k is the ranking of the summed
    /// candidate tables.
    #[test]
    fn threads_mpds_merges_worker_substreams_in_order() {
        let g = fig1();
        let (seed, theta, workers) = (42u64, 500usize, 3usize);
        let per = theta / workers;
        let extra = theta % workers;
        let mut expected_candidates = CandidateTable::for_graph(g.num_nodes());
        let mut expected_counts: Vec<usize> = Vec::new();
        for w in 0..workers {
            let quota = per + usize::from(w < extra);
            let mut mc = MonteCarlo::with_stream(&g, seed, w as u64);
            let part = mpds_details(
                Query::mpds(DensityNotion::Edge)
                    .theta(quota)
                    .k(3)
                    .run_with_sampler(&g, &mut mc)
                    .unwrap(),
            );
            expected_candidates.merge(part.candidates);
            expected_counts.extend(part.densest_counts);
        }
        let expected_top_k: Vec<(NodeSet, f64)> = expected_candidates
            .top_k(3)
            .into_iter()
            .map(|(set, c)| (set, c as f64 / theta as f64))
            .collect();
        let run = Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .seed(seed)
            .exec(Exec::Threads(workers))
            .run(&g)
            .unwrap();
        assert_eq!(run.top_k, expected_top_k);
        let details = mpds_details(run);
        assert_eq!(details.candidates, expected_candidates);
        assert_eq!(details.densest_counts, expected_counts);
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

    #[test]
    fn threads_nds_concatenates_worker_streams_in_order() {
        let g = fig1();
        let (seed, theta, workers) = (9u64, 90usize, 4usize);
        // Expected: worker w's transactions are a serial run over MC
        // sub-stream w with its quota.
        let per = theta / workers;
        let extra = theta % workers;
        let mut expected: Vec<NodeSet> = Vec::new();
        for w in 0..workers {
            let quota = per + usize::from(w < extra);
            let mut mc = MonteCarlo::with_stream(&g, seed, w as u64);
            let part = nds_details(
                Query::nds(DensityNotion::Edge)
                    .theta(quota)
                    .k(4)
                    .min_size(2)
                    .run_with_sampler(&g, &mut mc)
                    .unwrap(),
            );
            expected.extend(part.transactions);
        }
        let run = Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(4)
            .seed(seed)
            .exec(Exec::Threads(workers))
            .run(&g)
            .unwrap();
        assert_eq!(nds_details(run).transactions, expected);
    }

    /// Regression carried over from the deleted `parallel` module: with the
    /// old `seed + w` worker seeding, a 2-worker run rooted at seed 1 shared
    /// worker 1's entire world stream with a run rooted at seed 2 (its
    /// worker 0). The decorrelated sub-streams must make adjacent-seed runs
    /// draw genuinely different world multisets.
    #[test]
    fn adjacent_root_seeds_draw_different_worlds() {
        let g = fig1();
        let q = Query::mpds(DensityNotion::Edge)
            .theta(64)
            .k(3)
            .exec(Exec::Threads(2));
        let a = mpds_details(q.clone().seed(1).run(&g).unwrap());
        let b = mpds_details(q.seed(2).run(&g).unwrap());
        // Identical per-world densest counts in order would mean shared
        // streams; the halves must not line up under any worker alignment.
        assert_ne!(a.densest_counts[..32], b.densest_counts[..32]);
        assert_ne!(a.densest_counts[32..], b.densest_counts[..32]);
    }

    /// Carried over from the deleted `parallel` module: the threaded
    /// estimator stays unbiased — it converges to the exact MPDS.
    #[test]
    fn threads_converge_to_exact() {
        let g = fig1();
        let run = Query::mpds(DensityNotion::Edge)
            .theta(8000)
            .k(1)
            .seed(3)
            .exec(Exec::Threads(4))
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
            Query::mpds(DensityNotion::Edge).exec(Exec::Threads(0)),
            "exec",
        );
        bad(
            Query::mpds(DensityNotion::Edge)
                .theta(2)
                .exec(Exec::Threads(3)),
            "exec",
        );
        let unsupported = Query::mpds(DensityNotion::Edge)
            .theta(10)
            .all_densest(false)
            .exec(Exec::Threads(2))
            .run(&g);
        assert!(matches!(unsupported, Err(ApiError::Unsupported { .. })));
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

    #[test]
    fn external_sampler_rejects_threads() {
        let g = fig1();
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let err = Query::mpds(DensityNotion::Edge)
            .theta(10)
            .exec(Exec::Threads(2))
            .run_with_sampler(&g, &mut mc)
            .unwrap_err();
        assert!(matches!(err, ApiError::Unsupported { .. }));
    }

    #[test]
    fn interrupted_run_reports_reason_serial_and_threads() {
        use std::time::Duration;
        let g = fig1();
        let expired =
            RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        for exec in [Exec::Serial, Exec::Threads(2)] {
            let err = Query::mpds(DensityNotion::Edge)
                .theta(1000)
                .control(expired.clone())
                .exec(exec)
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
        for exec in [Exec::Serial, Exec::Threads(3)] {
            let counter = ProgressCounter::new();
            Query::mpds(DensityNotion::Edge)
                .theta(60)
                .progress(counter.clone())
                .exec(exec)
                .run(&g)
                .unwrap();
            assert_eq!(counter.done(), 60, "{exec:?}");
            assert_eq!(counter.requested(), 60, "{exec:?}");
        }
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
            .heuristic(true)
            .exec(Exec::Threads(2));
        let a = q.run(&g).unwrap();
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

    /// A threaded run under an expired budget still merges one world per
    /// worker instead of aborting.
    #[test]
    fn expired_budget_under_threads_is_graceful() {
        use std::time::Duration;
        let g = fig1();
        let spent = RunControl::unbounded().with_budget(Instant::now() - Duration::from_millis(1));
        let run = Query::mpds(DensityNotion::Edge)
            .theta(1000)
            .k(3)
            .control(spent)
            .exec(Exec::Threads(2))
            .run(&g)
            .unwrap();
        assert_eq!(run.stats.stop_reason, StopReason::Budget);
        assert_eq!(run.stats.worlds_sampled, 2); // one world per worker
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
        let err = Query::mpds(DensityNotion::Edge)
            .stop(Stop::Stable {
                window: 8,
                min_theta: 8,
                theta_cap: 100,
            })
            .exec(Exec::Threads(2))
            .run(&g);
        assert!(matches!(err, Err(ApiError::Unsupported { .. })));
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
