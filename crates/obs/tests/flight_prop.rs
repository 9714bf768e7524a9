//! Property tests for the flight recorder: ring eviction under arbitrary
//! begin/finish interleavings must never lose an in-flight request, and
//! every slow-eligible over-threshold completion must survive completed-
//! ring churn via the slow ring.

use std::sync::Arc;
use std::time::Instant;

use mpds_obs::{FlightRecorder, Recorder, TraceState};
use proptest::prelude::*;

/// One scripted step against the recorder: begin a fresh request, or
/// finish the `i`-th oldest currently-open one with a given latency.
#[derive(Clone, Debug)]
enum Op {
    Begin,
    Finish {
        pick: usize,
        wall_us: u64,
        eligible: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no `prop_oneof`; select the variant
    // from a drawn tuple instead (2/5 begins, 3/5 finishes).
    (0u8..5, 0usize..1024, 0u64..40_000).prop_map(|(sel, pick, wall)| {
        if sel < 2 {
            Op::Begin
        } else {
            Op::Finish {
                pick,
                wall_us: wall / 2,
                eligible: wall % 2 == 0,
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Whatever the interleaving and however small the rings, every request
    // that has begun and not finished is visible in the in-flight view and
    // resolvable by trace id — eviction only ever touches completed records.
    #[test]
    fn eviction_never_loses_an_in_flight_request(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 0usize..4,
        slow_capacity in 0usize..4,
        threshold_sel in 0u8..3,
    ) {
        let threshold_us = [0u64, 10_000, u64::MAX][threshold_sel as usize];
        let f = FlightRecorder::new(true, capacity, slow_capacity, threshold_us);
        let mut open: Vec<u64> = Vec::new();
        let mut next_id = 1u64;
        let mut finished = 0usize;
        for op in ops.iter().cloned() {
            match op {
                Op::Begin => {
                    f.begin(next_id, "query", "GET", "/query", Instant::now(), Arc::new(Recorder::new(true)));
                    open.push(next_id);
                    next_id += 1;
                }
                Op::Finish { pick, wall_us, eligible } => {
                    if open.is_empty() {
                        continue;
                    }
                    let id = open.remove(pick % open.len());
                    f.finish(id, 200, wall_us, eligible);
                    finished += 1;
                }
            }
            // Every open request is present, exactly once, regardless of
            // how many completions have churned the rings.
            let in_flight = f.in_flight();
            let mut seen: Vec<u64> = in_flight.iter().map(|r| r.trace_id).collect();
            let mut want = open.clone();
            seen.sort_unstable();
            want.sort_unstable();
            prop_assert!(seen == want, "open set mismatch after {} finishes", finished);
            for &id in &open {
                let r = f.lookup(id);
                prop_assert!(r.is_some(), "open trace {} must resolve", id);
                prop_assert_eq!(r.unwrap().state, TraceState::InFlight);
            }
            // The rings respect their bounds.
            prop_assert!(f.completed().len() <= capacity);
            prop_assert!(f.slow().len() <= slow_capacity);
        }
    }

    // A slow-eligible completion at/over the threshold is retained in the
    // slow ring even after the completed ring has fully churned past it.
    #[test]
    fn slow_promotions_survive_completed_churn(
        churn in 1usize..40,
        capacity in 1usize..4,
    ) {
        let f = FlightRecorder::new(true, capacity, 8, 1_000);
        f.begin(7, "query", "GET", "/query", Instant::now(), Arc::new(Recorder::new(true)));
        prop_assert!(f.finish(7, 200, 1_000, true));
        for i in 0..churn as u64 {
            let id = 100 + i;
            f.begin(id, "query", "GET", "/query", Instant::now(), Arc::new(Recorder::new(true)));
            f.finish(id, 200, 1, true);
        }
        let r = f.lookup(7);
        prop_assert!(r.is_some());
        prop_assert!(r.unwrap().slow);
        prop_assert_eq!(f.slow_promoted(), 1);
    }
}
