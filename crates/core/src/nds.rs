//! Top-k Nucleus Densest Subgraphs (paper Algorithm 5).
//!
//! In large uncertain graphs every individual node set may have a vanishing
//! densest subgraph probability, so the paper instead ranks node sets by
//! their *densest subgraph containment probability* `γ(U)` (Def. 5): the
//! probability that `U` is contained in a densest subgraph of a possible
//! world. Because a node set is contained in some densest subgraph iff it is
//! contained in the **maximum-sized** one (footnote 5 / \[59\]), Algorithm 5
//! samples θ worlds, collects each world's maximum-sized densest subgraph as
//! a transaction, and mines the top-k *closed* node sets of size ≥ `l_m` by
//! support with TFP \[47\] — here, [`itemset::top_k_closed`].
//!
//! The runnable entry point is [`crate::api::Query::nds`] (single queries)
//! and [`crate::api::queryset::QuerySet`] (batches over one shared world
//! stream); this module keeps the result type.

use ugraph::{NodeId, NodeSet};

/// Output of the NDS estimator.
#[derive(Debug, Clone)]
pub struct NdsResult {
    /// Top-k closed node sets with their estimated containment probability
    /// `γ̂`, sorted by `γ̂` descending.
    pub top_k: Vec<(NodeSet, f64)>,
    /// The transaction multiset: one maximum-sized densest subgraph per
    /// sampled world that had one.
    pub transactions: Vec<NodeSet>,
    /// Number of sampled worlds θ.
    pub theta: usize,
    /// Worlds with no instances (no densest subgraph).
    pub empty_worlds: usize,
    /// Whether the closed-itemset miner hit its node cap.
    pub miner_capped: bool,
}

impl NdsResult {
    /// Estimated containment probability `γ̂(U)` = fraction of transactions
    /// containing `U` (paper §IV). `nodes` may come in any order and repeat
    /// ids.
    pub fn gamma_hat(&self, nodes: &[NodeId]) -> f64 {
        let items = ugraph::nodeset::canonicalize(nodes.to_vec());
        itemset::support_of(&self.transactions, &items) as f64 / self.theta as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Query, RunDetails};
    use densest::DensityNotion;
    use ugraph::UncertainGraph;

    fn run(g: &UncertainGraph, query: &Query, seed: u64) -> NdsResult {
        match query.clone().seed(seed).run(g).unwrap().details {
            RunDetails::Nds(r) => r,
            RunDetails::Mpds(_) => unreachable!("Query::nds produces NDS details"),
        }
    }

    /// Fig. 1 example: Example 3 of the paper says γ({B,D}) = 0.7.
    #[test]
    fn fig1_gamma_bd() {
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
        let query = Query::nds(DensityNotion::Edge).theta(6000).k(5).min_size(2);
        let r = run(&g, &query, 13);
        let gamma_bd = r.gamma_hat(&[1, 3]);
        assert!((gamma_bd - 0.7).abs() < 0.03, "gamma {gamma_bd}");
    }

    #[test]
    fn certain_k4_nucleus() {
        // A certain K4 with a flaky pendant: the K4 is the max-sized densest
        // subgraph of every world, so gamma(K4) = 1 and it is the top NDS.
        let g = UncertainGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (3, 4, 0.3),
            ],
        );
        let query = Query::nds(DensityNotion::Edge).theta(300).k(3).min_size(2);
        let r = run(&g, &query, 21);
        assert_eq!(r.top_k[0].0, vec![0, 1, 2, 3]);
        assert!((r.top_k[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(r.empty_worlds, 0);
    }

    #[test]
    fn min_size_is_respected() {
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.9), (2, 3, 0.9)]);
        let query = Query::nds(DensityNotion::Edge).theta(500).k(10).min_size(3);
        let r = run(&g, &query, 2);
        for (set, _) in &r.top_k {
            assert!(set.len() >= 3);
        }
    }

    #[test]
    fn returned_sets_are_closed() {
        let g = UncertainGraph::from_weighted_edges(
            5,
            &[(0, 1, 0.8), (0, 2, 0.8), (1, 2, 0.8), (3, 4, 0.4)],
        );
        let query = Query::nds(DensityNotion::Edge).theta(800).k(10).min_size(1);
        let r = run(&g, &query, 3);
        // Closedness w.r.t. gamma_hat: no strict superset among candidates
        // has the same support.
        for (set, gamma) in &r.top_k {
            for (other, gamma2) in &r.top_k {
                if other.len() > set.len() && ugraph::nodeset::is_subset(set, other) {
                    assert!(
                        gamma2 < gamma,
                        "{set:?} (γ={gamma}) not closed vs {other:?} (γ={gamma2})"
                    );
                }
            }
        }
    }

    #[test]
    fn heuristic_mode_runs() {
        let g = UncertainGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 0.9),
                (0, 2, 0.9),
                (1, 2, 0.9),
                (2, 3, 0.2),
                (3, 4, 0.2),
            ],
        );
        let query = Query::nds(DensityNotion::Edge)
            .theta(400)
            .k(4)
            .min_size(2)
            .heuristic(true);
        let r = run(&g, &query, 17);
        assert!(!r.top_k.is_empty());
        // The strong triangle is a frequent nucleus. In heuristic mode the
        // per-world transaction keeps nodes {0, 1, 2} even when one triangle
        // edge is absent (the remaining path is still in the heuristic's
        // max-sized dense subgraph), so its support is close to 1 — but each
        // pair is contained in at least as many transactions, so the three
        // pairs can outrank it. k = 4 covers both layouts: either all three
        // pairs are closed and the triangle is fourth, or a pair collapses
        // into the triangle and it ranks higher.
        let gamma_tri = r.gamma_hat(&[0, 1, 2]);
        assert!(gamma_tri > 0.9, "gamma {gamma_tri}");
        assert!(r.top_k.iter().any(|(s, _)| s == &vec![0, 1, 2]));
    }

    #[test]
    fn gamma_hat_of_unseen_set_is_zero() {
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 1.0)]);
        let query = Query::nds(DensityNotion::Edge).theta(50).k(1).min_size(1);
        let r = run(&g, &query, 4);
        assert_eq!(r.gamma_hat(&[2, 3]), 0.0);
        assert_eq!(r.gamma_hat(&[0, 1]), 1.0);
        assert_eq!(r.gamma_hat(&[1, 0, 1]), 1.0);
    }

    #[test]
    fn controlled_run_matches_and_interrupts() {
        use crate::api::ApiError;
        use crate::control::{InterruptReason, RunControl};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sampling::MonteCarlo;
        use std::time::{Duration, Instant};
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
        let query = Query::nds(DensityNotion::Edge).theta(200).k(3).min_size(2);
        let plain = run(&g, &query, 8);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(8));
        let ctrl = query
            .clone()
            .control(RunControl::unbounded())
            .run_with_sampler(&g, &mut mc)
            .unwrap();
        assert_eq!(plain.top_k, ctrl.top_k);

        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(8));
        let expired =
            RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = query
            .clone()
            .control(expired)
            .run_with_sampler(&g, &mut mc)
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
