//! Golden pin of exact MPDS candidate tables on Zachary's karate club at the
//! shape of the `cold-exact` benchmark query (edge density, θ = 64, k = 3).
//!
//! Each case records the table's distinct-set count, the sum of its counts,
//! an order-independent fingerprint of every `(set, count)` entry, and the
//! top three entries. The values were recorded from the hash-map table that
//! the sorted-run table replaced; a change to the table's storage must
//! reproduce them exactly. Seed 52 truncates one world at the 100k
//! enumeration cap, so it also pins which prefix of the enumeration order a
//! truncated world credits. Every case also runs with 1 and 3 helper
//! threads, which must reproduce the same values. Never regenerate these
//! values to make the test pass: a difference means the estimator's output
//! changed.
//!
//! Three further pins were recorded from the two-loop estimator (a lane
//! loop for fixed-θ runs, a serial loop for the rest) before one lane loop
//! replaced both: a `Stop::Stable` run (seed 5, window 16, cap 640), the
//! one-densest ablation at seed 5, and a three-member `QuerySet`
//! (all-densest MPDS, NDS, ablation MPDS) at seed 5.
//!
//! The heaviest `cold-exact` query (seed 16648020456594380155, one world at
//! the cap) was pinned from the table that merged its lanes' tables, before
//! each lane came to own a key shard of the run's table instead.

use densest::DensityNotion;
use mpds::api::{Query, Run, RunDetails};
use mpds::control::RunControl;
use mpds::{QuerySet, Stop, StopReason};
use ugraph::{datasets, NodeId};

struct Golden {
    len: usize,
    sum: u64,
    fingerprint: u64,
    truncated_worlds: usize,
    top: &'static [(&'static [NodeId], u32)],
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mask_of(set: &[NodeId]) -> u64 {
    set.iter().fold(0u64, |m, &v| m | 1 << v)
}

/// Sum over entries of `count × splitmix64(mask)`: equal for equal tables
/// whatever order the entries are visited in.
fn fingerprint(r: &mpds::MpdsResult) -> u64 {
    r.candidates.iter().fold(0u64, |acc, (set, c)| {
        acc.wrapping_add(splitmix64(mask_of(&set)).wrapping_mul(u64::from(c)))
    })
}

/// Checks `query` run on the calling thread alone and with 1 and 3 helper
/// threads ([`RunControl::with_helpers`]): helpers never change the table.
fn check(label: &str, query: Query, want: &Golden) {
    for helpers in [0, 1, 3] {
        let lent = query
            .clone()
            .control(RunControl::unbounded().with_helpers(helpers));
        check_run(&format!("{label}, {helpers} helpers"), lent, want);
    }
}

fn check_run(label: &str, query: Query, want: &Golden) {
    let karate = datasets::karate_club();
    check_table(label, &query.run(&karate.graph).unwrap(), want);
}

fn check_table(label: &str, run: &Run, want: &Golden) {
    assert_eq!(
        run.stats.truncated_worlds, want.truncated_worlds,
        "{label}: truncated worlds"
    );
    let RunDetails::Mpds(r) = &run.details else {
        unreachable!("Query::mpds produces MPDS details")
    };
    let sum: u64 = r.candidates.iter().map(|(_, c)| u64::from(c)).sum();
    assert_eq!(r.candidates.len(), want.len, "{label}: distinct sets");
    assert_eq!(sum, want.sum, "{label}: sum of counts");
    assert_eq!(fingerprint(r), want.fingerprint, "{label}: fingerprint");
    let top: Vec<(Vec<NodeId>, u32)> = want.top.iter().map(|&(s, c)| (s.to_vec(), c)).collect();
    assert_eq!(r.candidates.top_k(3), top, "{label}: top 3");
    for (set, count) in &top {
        assert_eq!(r.candidates.get(set), Some(*count), "{label}: get {set:?}");
    }
}

fn cold_exact(seed: u64) -> Query {
    Query::mpds(DensityNotion::Edge).theta(64).k(3).seed(seed)
}

#[test]
fn karate_seed_7() {
    check(
        "seed 7",
        cold_exact(7),
        &Golden {
            len: 47_874,
            sum: 48_050,
            fingerprint: 0x5285_8fcd_e757_0e65,
            truncated_worlds: 0,
            top: &[
                (&[8, 30, 32], 3),
                (&[0, 2, 3, 13], 3),
                (&[0, 1, 2, 3, 13], 3),
            ],
        },
    );
}

#[test]
fn karate_seed_42() {
    check(
        "seed 42",
        cold_exact(42),
        &Golden {
            len: 5_954,
            sum: 6_002,
            fingerprint: 0x4994_1b3a_01d3_374e,
            truncated_worlds: 0,
            top: &[
                (&[0, 2, 3, 13], 3),
                (&[0, 3, 7, 13], 3),
                (&[0, 3, 4, 7, 13], 3),
            ],
        },
    );
}

#[test]
fn karate_seed_52_truncates_one_world_at_the_cap() {
    check(
        "seed 52",
        cold_exact(52),
        &Golden {
            len: 126_225,
            sum: 126_351,
            fingerprint: 0x8c8b_9858_5c11_2532,
            truncated_worlds: 1,
            top: &[
                (&[23, 29, 32, 33], 3),
                (&[31, 32, 33], 2),
                (&[0, 1, 2, 3], 2),
            ],
        },
    );
}

/// The heaviest of the 24 `cold-exact` benchmark queries: 225,013 credits,
/// nearly all of them sets credited once, with one world at the cap.
#[test]
fn karate_heaviest_cold_exact_seed() {
    check(
        "seed 16648020456594380155",
        cold_exact(16_648_020_456_594_380_155),
        &Golden {
            len: 224_738,
            sum: 225_013,
            fingerprint: 0x4c79_b7d4_3219_f264,
            truncated_worlds: 1,
            top: &[
                (&[0, 1, 2, 8, 13], 4),
                (&[0, 1, 2, 13], 3),
                (&[0, 1, 2, 21], 3),
            ],
        },
    );
}

#[test]
fn karate_seed_52_one_densest_per_world() {
    check(
        "seed 52, one densest per world",
        cold_exact(52).all_densest(false),
        &Golden {
            len: 64,
            sum: 64,
            fingerprint: 0x7db3_d032_65fd_e469,
            truncated_worlds: 1,
            top: &[(&[0, 1, 2, 6], 1), (&[0, 2, 3, 7], 1), (&[0, 2, 3, 13], 1)],
        },
    );
}

#[test]
fn karate_seed_5_one_densest_per_world() {
    check(
        "seed 5, one densest per world",
        cold_exact(5).all_densest(false),
        &Golden {
            len: 64,
            sum: 64,
            fingerprint: 0x65d7_e108_e0be_a46e,
            truncated_worlds: 0,
            top: &[
                (&[0, 1, 2, 3], 1),
                (&[0, 2, 3, 8], 1),
                (&[8, 15, 32, 33], 1),
            ],
        },
    );
}

/// A `Stop::Stable` run stops where the pin says, with the table the
/// fixed-θ run at that θ has; helpers never move the stop.
#[test]
fn karate_seed_5_stable_stop() {
    let karate = datasets::karate_club();
    let query = Query::mpds(DensityNotion::Edge)
        .k(3)
        .seed(5)
        .stop(Stop::Stable {
            window: 16,
            min_theta: 16,
            theta_cap: 640,
        });
    let want = Golden {
        len: 14_220,
        sum: 14_250,
        fingerprint: 0x0681_d212_016a_6497,
        truncated_worlds: 0,
        top: &[
            (&[0, 1, 2, 3, 7, 13], 3),
            (&[14, 32, 33], 2),
            (&[0, 1, 3, 13], 2),
        ],
    };
    for helpers in [0, 1, 3] {
        let label = format!("seed 5, stable, {helpers} helpers");
        let run = query
            .clone()
            .control(RunControl::unbounded().with_helpers(helpers))
            .run(&karate.graph)
            .unwrap();
        let stats = &run.stats;
        assert_eq!(stats.stop_reason, StopReason::Stable, "{label}");
        assert_eq!(
            (stats.worlds_sampled, stats.converged_at),
            (49, Some(33)),
            "{label}: stop point"
        );
        check_table(&label, &run, &want);
    }
}

/// Sum over transactions of `splitmix64(mask | index << 40)`: equal for
/// equal transaction lists in equal order.
fn nds_fingerprint(r: &mpds::NdsResult) -> u64 {
    r.transactions
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, set)| {
            acc.wrapping_add(splitmix64(mask_of(set) | (i as u64) << 40))
        })
}

/// A three-member batch over one stream: all-densest MPDS, NDS and the
/// one-densest ablation. The ablation keeps the batch on one lane, so
/// helpers change nothing.
#[test]
fn karate_seed_5_three_member_batch() {
    let karate = datasets::karate_club();
    let all = Golden {
        len: 23_373,
        sum: 23_408,
        fingerprint: 0xcb8f_a24b_5095_f8cd,
        truncated_worlds: 0,
        top: &[
            (&[0, 1, 2, 3, 7, 13], 3),
            (&[14, 32, 33], 2),
            (&[0, 1, 2, 13], 2),
        ],
    };
    let one = Golden {
        len: 64,
        sum: 64,
        fingerprint: 0x65d7_e108_e0be_a46e,
        truncated_worlds: 0,
        top: &[
            (&[0, 1, 2, 3], 1),
            (&[0, 2, 3, 8], 1),
            (&[8, 15, 32, 33], 1),
        ],
    };
    // Supports out of 64 transactions.
    let nds_top: &[(&[NodeId], u32)] = &[(&[32, 33], 36), (&[0, 2], 35), (&[0, 1], 31)];
    for helpers in [0, 1, 3] {
        let label = format!("seed 5, batch, {helpers} helpers");
        let batch = QuerySet::new()
            .theta(64)
            .seed(5)
            .control(RunControl::unbounded().with_helpers(helpers))
            .push(Query::mpds(DensityNotion::Edge).k(3))
            .push(Query::nds(DensityNotion::Edge).k(3))
            .push(Query::mpds(DensityNotion::Edge).k(3).all_densest(false))
            .run(&karate.graph)
            .unwrap();
        assert_eq!(batch.stats.worlds_sampled, 64, "{label}");
        check_table(&format!("{label}, all densest"), &batch.runs[0], &all);
        check_table(&format!("{label}, one densest"), &batch.runs[2], &one);
        let nds = &batch.runs[1];
        let RunDetails::Nds(r) = &nds.details else {
            unreachable!("Query::nds produces NDS details")
        };
        let top: Vec<(Vec<NodeId>, f64)> = nds_top
            .iter()
            .map(|&(s, c)| (s.to_vec(), f64::from(c) / 64.0))
            .collect();
        assert_eq!(nds.top_k, top, "{label}: NDS top 3");
        assert_eq!(
            (r.transactions.len(), r.empty_worlds, nds_fingerprint(r)),
            (64, 0, 0x8ff6_4f33_415b_03a0),
            "{label}: NDS transactions"
        );
    }
}
