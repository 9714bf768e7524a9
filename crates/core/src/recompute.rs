//! Delta-aware re-estimation: compare two versions of an uncertain graph
//! under **common random numbers** (CRN).
//!
//! When a dynamic graph moves from generation `g` to `g + 1`, the question a
//! serving layer has to answer is "what actually changed in the top-k?" —
//! and answering it with two *independent* sampling runs is noisy: the
//! Monte-Carlo error of both runs lands in the difference, so small τ̂/γ̂
//! shifts drown in resampling variance. The classic fix is common random
//! numbers: make both runs draw the **same underlying randomness per edge**,
//! so every edge that did not change keeps exactly the same presence pattern
//! across the sampled worlds and the difference isolates the mutation.
//!
//! Ordinary sequential samplers cannot deliver that — one inserted edge
//! shifts every later edge's position in the RNG stream. The
//! [`CommonRandomNumbers`] sampler therefore derives each edge's draw
//! *counter-based*, from a hash of `(stream seed, world index, endpoints)`:
//! presence depends only on the edge's own identity and probability, never
//! on which other edges exist. Sub-streams of one root seed come from
//! [`sampling::stream_seed`], so they stay decorrelated from each other.
//!
//! [`Recompute`] packages the pattern: one [`Query`] run over the *before*
//! and *after* snapshots with per-snapshot CRN samplers, returning both
//! full [`Run`]s plus a structured [`TopKDiff`] (entered / left / re-ranked
//! node sets with their τ̂/γ̂ deltas). The query's
//! [`RunControl`](crate::control::RunControl) applies to both runs, so
//! re-estimation is as cancellable as everything else, and both take its
//! lent helpers as a [`Query::run`] does: the CRN draws are counter-based,
//! and lanes draw world *i* as the sampler's *i*-th draw.

use crate::api::{ApiError, Query, Run, Stream};
use sampling::{stream_seed, WorldSampler};
use ugraph::{EdgeMask, NodeId, NodeSet, UncertainGraph};

/// SplitMix64-style finalizer: the avalanche stage behind every CRN draw.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The uniform `[0, 1)` draw of edge `(u, v)` in world `world` of stream
/// `seed` — a pure function of those four values, which is the whole point:
/// unchanged edges keep identical draws across graph versions.
fn edge_draw(seed: u64, world: u64, u: NodeId, v: NodeId) -> f64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    let edge_key = ((a as u64) << 32) | b as u64;
    let h = mix(seed
        ^ mix(world.wrapping_add(0x9e37_79b9_7f4a_7c15))
        ^ mix(edge_key.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(1)));
    // Top 53 bits → [0, 1) at full f64 resolution.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Counter-based possible-world sampler whose per-edge draws depend only on
/// `(stream seed, world index, edge endpoints)` — the sampler that makes
/// common-random-number comparisons across graph versions possible.
///
/// Unbiased like Monte Carlo (each edge is an independent Bernoulli with
/// its own probability), deterministic per `(seed, stream)`, and **stable
/// under edge-set changes**: inserting or deleting edges never perturbs the
/// draws of the edges that stayed.
///
/// ```
/// use mpds::recompute::CommonRandomNumbers;
/// use sampling::WorldSampler;
/// use ugraph::UncertainGraph;
///
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
/// let a = CommonRandomNumbers::new(&g, 7).next_mask();
/// let b = CommonRandomNumbers::new(&g, 7).next_mask();
/// assert_eq!(a, b); // reproducible per (seed, stream)
/// ```
pub struct CommonRandomNumbers {
    edges: Vec<(NodeId, NodeId)>,
    probs: Vec<f64>,
    seed: u64,
    world: u64,
}

impl CommonRandomNumbers {
    /// Builds the sampler for stream 0 of `root_seed` over `g`'s edges.
    ///
    /// ```
    /// use mpds::recompute::CommonRandomNumbers;
    /// use sampling::WorldSampler;
    /// use ugraph::UncertainGraph;
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// assert_eq!(CommonRandomNumbers::new(&g, 1).num_edges(), 1);
    /// ```
    pub fn new(g: &UncertainGraph, root_seed: u64) -> Self {
        CommonRandomNumbers::with_stream(g, root_seed, 0)
    }

    /// Builds the sampler for sub-stream `stream` of `root_seed` through
    /// [`stream_seed`], so sub-streams stay decorrelated from each other
    /// while remaining comparable world-for-world across graph versions.
    ///
    /// ```
    /// use mpds::recompute::CommonRandomNumbers;
    /// use sampling::WorldSampler;
    /// use ugraph::UncertainGraph;
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
    /// let s0 = CommonRandomNumbers::with_stream(&g, 1, 0).next_mask();
    /// let s0_again = CommonRandomNumbers::with_stream(&g, 1, 0).next_mask();
    /// assert_eq!(s0, s0_again);
    /// ```
    pub fn with_stream(g: &UncertainGraph, root_seed: u64, stream: u64) -> Self {
        CommonRandomNumbers {
            edges: g.graph().edges().to_vec(),
            probs: g.probs().to_vec(),
            seed: stream_seed(root_seed, stream),
            world: 0,
        }
    }
}

impl WorldSampler for CommonRandomNumbers {
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        mask.reset(self.edges.len());
        for (i, (&(u, v), &p)) in self.edges.iter().zip(&self.probs).enumerate() {
            if edge_draw(self.seed, self.world, u, v) < p {
                mask.insert(i);
            }
        }
        self.world += 1;
    }

    fn aux_memory_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.probs.len() * std::mem::size_of::<f64>()
    }

    fn name(&self) -> &'static str {
        "CRN"
    }
}

/// One node set present in both the before and after top-k.
///
/// Ranks are 0-based positions in the respective `top_k` vectors.
///
/// ```
/// use mpds::recompute::RankShift;
/// let r = RankShift {
///     set: vec![1, 3],
///     rank_before: 0,
///     rank_after: 1,
///     score_before: 0.4,
///     score_after: 0.3,
/// };
/// assert!((r.score_delta() + 0.1).abs() < 1e-12);
/// assert!(r.moved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RankShift {
    /// The node set (compact ids, sorted).
    pub set: NodeSet,
    /// 0-based rank in the *before* top-k.
    pub rank_before: usize,
    /// 0-based rank in the *after* top-k.
    pub rank_after: usize,
    /// τ̂/γ̂ in the *before* run.
    pub score_before: f64,
    /// τ̂/γ̂ in the *after* run.
    pub score_after: f64,
}

impl RankShift {
    /// `score_after - score_before` (the τ̂/γ̂ delta).
    pub fn score_delta(&self) -> f64 {
        self.score_after - self.score_before
    }

    /// Whether the set's rank changed.
    pub fn moved(&self) -> bool {
        self.rank_before != self.rank_after
    }
}

/// Structured difference between two top-k rankings (see
/// [`TopKDiff::between`]).
///
/// ```
/// use mpds::recompute::TopKDiff;
/// let before = vec![(vec![0u32, 1], 0.5), (vec![2, 3], 0.3)];
/// let after = vec![(vec![2u32, 3], 0.6), (vec![4, 5], 0.2)];
/// let diff = TopKDiff::between(&before, &after);
/// assert_eq!(diff.entered, vec![(vec![4, 5], 0.2)]);
/// assert_eq!(diff.left, vec![(vec![0, 1], 0.5)]);
/// assert_eq!(diff.reranked().count(), 1); // {2,3} moved 1 → 0
/// assert!(!diff.is_unchanged());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopKDiff {
    /// Sets in the after top-k only, with their after scores.
    pub entered: Vec<(NodeSet, f64)>,
    /// Sets in the before top-k only, with their before scores.
    pub left: Vec<(NodeSet, f64)>,
    /// Sets present in both rankings, ordered by after-rank.
    pub common: Vec<RankShift>,
}

impl TopKDiff {
    /// Diffs two ranked `(node set, score)` lists.
    ///
    /// ```
    /// use mpds::recompute::TopKDiff;
    /// let same = vec![(vec![0u32, 1], 0.5)];
    /// assert!(TopKDiff::between(&same, &same).is_unchanged());
    /// ```
    pub fn between(before: &[(NodeSet, f64)], after: &[(NodeSet, f64)]) -> TopKDiff {
        let before_rank: std::collections::HashMap<&NodeSet, (usize, f64)> = before
            .iter()
            .enumerate()
            .map(|(i, (set, score))| (set, (i, *score)))
            .collect();
        let after_sets: std::collections::HashSet<&NodeSet> =
            after.iter().map(|(set, _)| set).collect();
        let mut diff = TopKDiff::default();
        for (i, (set, score)) in after.iter().enumerate() {
            match before_rank.get(set) {
                Some(&(rank_before, score_before)) => diff.common.push(RankShift {
                    set: set.clone(),
                    rank_before,
                    rank_after: i,
                    score_before,
                    score_after: *score,
                }),
                None => diff.entered.push((set.clone(), *score)),
            }
        }
        for (set, score) in before {
            if !after_sets.contains(set) {
                diff.left.push((set.clone(), *score));
            }
        }
        diff
    }

    /// The common sets whose rank changed.
    pub fn reranked(&self) -> impl Iterator<Item = &RankShift> {
        self.common.iter().filter(|r| r.moved())
    }

    /// `true` when the two rankings contain the same sets at the same ranks
    /// (score drift alone does not count as a change).
    pub fn is_unchanged(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty() && self.reranked().next().is_none()
    }

    /// Largest `|score_after - score_before|` over the common sets
    /// (0 when nothing is common).
    pub fn max_abs_score_delta(&self) -> f64 {
        self.common
            .iter()
            .map(|r| r.score_delta().abs())
            .fold(0.0, f64::max)
    }
}

/// The full outcome of a [`Recompute::run`]: both runs plus the diff.
#[derive(Debug, Clone)]
pub struct RecomputeReport {
    /// The run over the *before* snapshot.
    pub before: Run,
    /// The run over the *after* snapshot.
    pub after: Run,
    /// Structured top-k difference.
    pub diff: TopKDiff,
}

/// Runs one [`Query`] over two graph versions under common random numbers
/// and diffs the top-k rankings.
///
/// Each run draws world *i* as its CRN sampler's *i*-th draw, so a
/// fixed-θ query takes the helpers
/// [`RunControl::with_helpers`](crate::control::RunControl::with_helpers)
/// lends it (the rule of [`Query::run`]) without changing either answer.
/// The query's [`RunControl`](crate::control::RunControl) is polled per
/// world in both runs.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::Query;
/// use mpds::recompute::Recompute;
/// use ugraph::UncertainGraph;
///
/// // Fig. 1 before; after, the (B, D) edge is re-scored 0.7 → 0.2.
/// let before = UncertainGraph::from_weighted_edges(
///     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
/// let after = UncertainGraph::from_weighted_edges(
///     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.2)]);
/// let report = Recompute::new(Query::mpds(DensityNotion::Edge).theta(600).k(2).seed(42))
///     .run(&before, &after)
///     .unwrap();
/// // {B, D} = {1, 3} was the before-MPDS; re-scoring its edge dethrones it.
/// assert_eq!(report.before.top_k[0].0, vec![1, 3]);
/// assert_ne!(report.after.top_k[0].0, vec![1, 3]);
/// assert!(!report.diff.is_unchanged());
/// ```
#[derive(Debug, Clone)]
pub struct Recompute {
    query: Query,
}

impl Recompute {
    /// Wraps the query to run over both snapshots. Its seed feeds the CRN
    /// streams; its control and all estimator knobs apply to both runs.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use mpds::recompute::Recompute;
    /// let r = Recompute::new(Query::mpds(DensityNotion::Edge).theta(50));
    /// assert!(format!("{r:?}").contains("theta: 50"));
    /// ```
    pub fn new(query: Query) -> Self {
        Recompute { query }
    }

    /// Runs the query over `before` and `after` with per-snapshot CRN
    /// samplers sharing the query's seed, and diffs the rankings.
    ///
    /// ```
    /// use densest::DensityNotion;
    /// use mpds::api::Query;
    /// use mpds::recompute::Recompute;
    /// use ugraph::UncertainGraph;
    /// let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.8)]);
    /// let report = Recompute::new(Query::mpds(DensityNotion::Edge).theta(50))
    ///     .run(&g, &g)
    ///     .unwrap();
    /// assert!(report.diff.is_unchanged()); // identical inputs, identical draws
    /// ```
    pub fn run(
        &self,
        before: &UncertainGraph,
        after: &UncertainGraph,
    ) -> Result<RecomputeReport, ApiError> {
        let seed = self.query.seed_value();
        let run_on = |g| {
            let crn = &mut CommonRandomNumbers::new(g, seed);
            self.query.run_on(g, Stream::Shared(crn))
        };
        let run_before = run_on(before)?;
        let run_after = run_on(after)?;
        let diff = TopKDiff::between(&run_before.top_k, &run_after.top_k);
        Ok(RecomputeReport {
            before: run_before,
            after: run_after,
            diff,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RunDetails;
    use crate::control::{InterruptReason, RunControl};
    use densest::DensityNotion;
    use std::time::{Duration, Instant};

    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    #[test]
    fn crn_is_unbiased() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.2), (2, 3, 0.7)],
        );
        let mut s = CommonRandomNumbers::new(&g, 3);
        let rounds = 20_000usize;
        let mut counts = vec![0usize; g.num_edges()];
        for _ in 0..rounds {
            let mask = s.next_mask();
            for (i, &b) in mask.iter().enumerate() {
                if b {
                    counts[i] += 1;
                }
            }
        }
        for (i, (&c, &p)) in counts.iter().zip(g.probs()).enumerate() {
            let f = c as f64 / rounds as f64;
            assert!((f - p).abs() < 0.02, "edge {i}: frequency {f} vs p {p}");
        }
    }

    #[test]
    fn unchanged_edges_keep_identical_draws_across_versions() {
        // `after` inserts one edge and deletes another; every edge common to
        // both versions must keep its exact per-world presence pattern.
        let before = UncertainGraph::from_weighted_edges(
            5,
            &[(0, 1, 0.6), (1, 2, 0.4), (2, 3, 0.5), (3, 4, 0.3)],
        );
        let after = UncertainGraph::from_weighted_edges(
            5,
            &[(0, 1, 0.6), (0, 4, 0.8), (2, 3, 0.5), (3, 4, 0.3)],
        );
        let mut sb = CommonRandomNumbers::new(&before, 99);
        let mut sa = CommonRandomNumbers::new(&after, 99);
        // Map shared edges to their index in each version.
        let shared: Vec<((u32, u32), usize, usize)> = before
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter_map(|(ib, &e)| {
                after
                    .graph()
                    .edges()
                    .iter()
                    .position(|&f| f == e)
                    .map(|ia| (e, ib, ia))
            })
            .collect();
        assert_eq!(shared.len(), 3);
        for world in 0..200 {
            let mb = sb.next_mask();
            let ma = sa.next_mask();
            for &(e, ib, ia) in &shared {
                assert_eq!(mb[ib], ma[ia], "edge {e:?} draw diverged in world {world}");
            }
        }
    }

    #[test]
    fn crn_streams_differ_but_are_reproducible() {
        let g = fig1();
        let a0 = CommonRandomNumbers::with_stream(&g, 5, 0).next_mask();
        let a1 = CommonRandomNumbers::with_stream(&g, 5, 1).next_mask();
        let b0 = CommonRandomNumbers::with_stream(&g, 5, 0).next_mask();
        assert_eq!(a0, b0);
        // Streams 0 and 1 are decorrelated; over a few worlds they must
        // diverge somewhere.
        let mut s0 = CommonRandomNumbers::with_stream(&g, 5, 0);
        let mut s1 = CommonRandomNumbers::with_stream(&g, 5, 1);
        assert!(
            (0..50).any(|_| s0.next_mask() != s1.next_mask()),
            "sub-streams must not be identical; first worlds {a0:?} vs {a1:?}"
        );
    }

    #[test]
    fn identical_graphs_give_identical_runs_and_empty_diff() {
        let g = fig1();
        let report = Recompute::new(Query::mpds(DensityNotion::Edge).theta(300).k(3).seed(11))
            .run(&g, &g)
            .unwrap();
        assert_eq!(report.before.top_k, report.after.top_k);
        assert!(report.diff.is_unchanged());
        assert_eq!(report.diff.entered, vec![]);
        assert_eq!(report.diff.left, vec![]);
        assert_eq!(report.diff.max_abs_score_delta(), 0.0);
    }

    #[test]
    fn reweight_shows_up_as_score_delta_under_crn() {
        // Re-score (1, 3) from 0.7 to 0.9: under CRN the other edges keep
        // their draws, so {1, 3}'s tau-hat must move up and the diff must
        // attribute a positive delta to it.
        let before = fig1();
        let after =
            UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.9)]);
        let report = Recompute::new(Query::mpds(DensityNotion::Edge).theta(500).k(4).seed(7))
            .run(&before, &after)
            .unwrap();
        let bd = report
            .diff
            .common
            .iter()
            .find(|r| r.set == vec![1, 3])
            .expect("{1,3} ranks in both runs");
        assert!(
            bd.score_delta() > 0.05,
            "raising p(B,D) must raise tau_hat({{B,D}}): {bd:?}"
        );
    }

    #[test]
    fn diff_classifies_entered_left_and_reranked() {
        let before = vec![(vec![0u32, 1], 0.5), (vec![2, 3], 0.4), (vec![4, 5], 0.3)];
        let after = vec![(vec![2u32, 3], 0.6), (vec![0, 1], 0.45), (vec![6, 7], 0.2)];
        let diff = TopKDiff::between(&before, &after);
        assert_eq!(diff.entered, vec![(vec![6, 7], 0.2)]);
        assert_eq!(diff.left, vec![(vec![4, 5], 0.3)]);
        assert_eq!(diff.common.len(), 2);
        assert_eq!(diff.reranked().count(), 2); // both swapped positions
        assert!((diff.max_abs_score_delta() - 0.2).abs() < 1e-12);
        let r = &diff.common[0];
        assert_eq!((r.rank_before, r.rank_after), (1, 0));
    }

    #[test]
    fn recompute_is_cancellable_and_takes_helpers() {
        let g = fig1();
        let expired =
            RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = Recompute::new(
            Query::mpds(DensityNotion::Edge)
                .theta(10_000)
                .control(expired),
        )
        .run(&g, &g)
        .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, InterruptReason::DeadlineExceeded)
            }
            other => panic!("expected interruption, got {other:?}"),
        }
        // Both CRN runs draw world i as the sampler's i-th draw, so lent
        // helpers solve worlds without changing either answer.
        let karate = ugraph::datasets::karate_club().graph;
        let query = Query::mpds(DensityNotion::Edge).theta(320).k(3);
        let lent = Recompute::new(
            query
                .clone()
                .control(RunControl::unbounded().with_helpers(2)),
        )
        .run(&karate, &karate)
        .unwrap();
        let alone = Recompute::new(query).run(&karate, &karate).unwrap();
        let helped = lent.before.stats.helper_worlds + lent.after.stats.helper_worlds;
        assert!(helped > 0, "the helpers solved no world");
        for (got, want) in [(&lent.before, &alone.before), (&lent.after, &alone.after)] {
            assert_eq!(want.stats.helper_worlds, 0);
            assert_eq!(got.top_k, want.top_k);
            let (RunDetails::Mpds(g), RunDetails::Mpds(w)) = (&got.details, &want.details) else {
                unreachable!("Query::mpds produces MPDS details")
            };
            assert_eq!(g.candidates, w.candidates);
            assert_eq!(g.densest_counts, w.densest_counts);
        }
    }
}
