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

use densest::DensityNotion;
use mpds::api::{Exec, Query, RunDetails};
use mpds::control::RunControl;
use ugraph::{datasets, NodeId};

struct Golden {
    len: usize,
    sum: u64,
    fingerprint: u64,
    truncated_worlds: usize,
    top: &'static [(&'static [NodeId], u32)],
}

/// Sum over entries of `count × splitmix64(mask)`: equal for equal tables
/// whatever order the entries are visited in.
fn fingerprint(r: &mpds::MpdsResult) -> u64 {
    r.candidates.iter().fold(0u64, |acc, (set, c)| {
        let mask = set.iter().fold(0u64, |m, &v| m | 1 << v);
        let mut z = mask.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        acc.wrapping_add(z.wrapping_mul(u64::from(c)))
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
    let run = query.run(&karate.graph).unwrap();
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

#[test]
fn karate_seed_52_two_threads() {
    check(
        "seed 52, two threads",
        cold_exact(52).exec(Exec::Threads(2)),
        &Golden {
            len: 23_465,
            sum: 23_526,
            fingerprint: 0xf1e7_52bc_e24c_53dc,
            truncated_worlds: 0,
            top: &[
                (&[0, 1, 2, 3, 7, 13], 5),
                (&[0, 1, 2, 3, 13], 4),
                (&[0, 1, 2, 13], 3),
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
