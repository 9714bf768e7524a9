//! Lanes never change the answer: a fixed-θ, all-densest MPDS query run
//! with helper threads ([`RunControl::with_helpers`]) equals the same query
//! run on the calling thread alone in everything but its wall time — the
//! top-k, the candidate table, the per-world densest counts in world order,
//! the truncation and empty-world tallies, the world count and the stop
//! reason.
//!
//! The graphs have 4 to 80 nodes, so both candidate-key forms (packed masks
//! up to 64 nodes, compact keys past) are exercised, under edge, triangle
//! and two-star density, exact and heuristic, at enumeration caps of 1, 7
//! and 100,000. A budgeted run with helpers must equal the fixed-θ run at
//! the θ it reached, and an interrupted one must fail as one lane does.
//! (`karate_golden.rs` runs its recorded cases with 0, 1 and 3 helpers.)

use densest::DensityNotion;
use mpds::api::{ApiError, Query, Run, RunDetails};
use mpds::control::{InterruptReason, RunControl};
use mpds::{MpdsResult, StopReason};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugraph::{datasets, Graph, NodeId, Pattern, UncertainGraph};

/// Strategy: a random uncertain graph on 4 to 80 nodes with up to two edges
/// per node, edge probabilities in [0.05, 1].
fn arb_uncertain() -> impl Strategy<Value = UncertainGraph> {
    (4usize..81).prop_flat_map(|n| {
        let pair = (0..n as NodeId, 0..n as NodeId, 0.05f64..=1.0);
        proptest::collection::vec(pair, 0..2 * n + 1).prop_map(move |pairs| {
            let mut edges = BTreeMap::new();
            for (u, v, p) in pairs.into_iter().filter(|&(u, v, _)| u != v) {
                edges.entry((u.min(v), u.max(v))).or_insert(p);
            }
            // The graph lists its edges sorted, as the map does.
            let list: Vec<(NodeId, NodeId)> = edges.keys().copied().collect();
            UncertainGraph::new(Graph::from_edges(n, &list), edges.into_values().collect())
        })
    })
}

fn notion(i: usize) -> DensityNotion {
    match i {
        0 => DensityNotion::Edge,
        1 => DensityNotion::Clique(3),
        _ => DensityNotion::Pattern(Pattern::two_star()),
    }
}

fn mpds(run: &Run) -> &MpdsResult {
    match &run.details {
        RunDetails::Mpds(r) => r,
        RunDetails::Nds(_) => unreachable!("Query::mpds yields MPDS details"),
    }
}

fn lent(helpers: usize) -> RunControl {
    RunControl::unbounded().with_helpers(helpers)
}

/// Asserts that two runs give the same answer; `same_stop` also compares
/// why they stopped.
fn assert_same_answer(label: &str, got: &Run, want: &Run, same_stop: bool) {
    assert_eq!(got.top_k, want.top_k, "{label}: top-k");
    let (g, w) = (mpds(got), mpds(want));
    assert!(g.candidates == w.candidates, "{label}: candidate tables");
    assert_eq!(
        g.densest_counts, w.densest_counts,
        "{label}: densest counts"
    );
    assert_eq!(g.truncated, w.truncated, "{label}: truncated");
    assert_eq!(g.empty_worlds, w.empty_worlds, "{label}: empty worlds");
    let (gs, ws) = (&got.stats, &want.stats);
    assert_eq!(gs.truncated_worlds, ws.truncated_worlds, "{label}");
    assert_eq!(gs.empty_worlds, ws.empty_worlds, "{label}");
    assert_eq!(gs.worlds_sampled, ws.worlds_sampled, "{label}");
    if same_stop {
        assert_eq!(gs.stop_reason, ws.stop_reason, "{label}: stop reason");
    }
    assert!(gs.helper_worlds <= gs.worlds_sampled, "{label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any helper count gives the 0-helper run.
    #[test]
    fn helpers_leave_the_run_unchanged(
        g in arb_uncertain(),
        seed in 0u64..1_000_000,
        theta in 1usize..97,
        setting in (0usize..3, proptest::bool::ANY, 0usize..3),
        helpers in 1usize..4,
    ) {
        let (notion_index, heuristic, cap_index) = setting;
        let cap = [1, 7, 100_000][cap_index];
        let query = Query::mpds(notion(notion_index))
            .theta(theta)
            .k(5)
            .seed(seed)
            .heuristic(heuristic)
            .enumeration_cap(cap);
        let one = query.clone().run(&g).unwrap();
        prop_assert_eq!(one.stats.helper_worlds, 0);
        let lanes = query.control(lent(helpers)).run(&g).unwrap();
        assert_same_answer(&format!("{helpers} helpers"), &lanes, &one, true);
    }
}

#[test]
fn a_budgeted_run_with_helpers_is_the_fixed_theta_run_it_reached() {
    let karate = datasets::karate_club().graph;
    for helpers in [1, 3] {
        let budget = RunControl::unbounded()
            .with_helpers(helpers)
            .with_budget(Instant::now() + Duration::from_millis(25));
        let query = Query::mpds(DensityNotion::Edge).k(3).seed(11);
        let budgeted = query
            .clone()
            .theta(5_000)
            .control(budget)
            .run(&karate)
            .unwrap();
        let reached = budgeted.stats.worlds_sampled;
        assert!((1..=5_000).contains(&reached));
        let want = if reached < 5_000 {
            StopReason::Budget
        } else {
            StopReason::Completed
        };
        assert_eq!(budgeted.stats.stop_reason, want);
        let fixed = query.theta(reached).run(&karate).unwrap();
        assert_same_answer(
            &format!("budget, {helpers} helpers"),
            &budgeted,
            &fixed,
            false,
        );
    }
}

#[test]
fn an_interrupted_run_with_helpers_fails_as_one_lane_does() {
    let karate = datasets::karate_club().graph;
    let query = Query::mpds(DensityNotion::Edge).theta(64).seed(3);
    let past = RunControl::unbounded()
        .with_helpers(3)
        .with_deadline(Instant::now() - Duration::from_millis(1));
    match query.clone().control(past).run(&karate) {
        Err(ApiError::Interrupted(i)) => {
            assert_eq!(i.reason, InterruptReason::DeadlineExceeded);
            assert_eq!(i.completed_worlds, 0);
        }
        other => panic!("expected a deadline interruption, got {other:?}"),
    }
    let cancelled = RunControl::unbounded()
        .with_helpers(2)
        .with_cancel_flag(Arc::new(AtomicBool::new(true)));
    match query.control(cancelled).run(&karate) {
        Err(ApiError::Interrupted(i)) => assert_eq!(i.reason, InterruptReason::Cancelled),
        other => panic!("expected a cancellation, got {other:?}"),
    }
}
