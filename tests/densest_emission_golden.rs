//! Golden pin of the exact solver's emission order on the 1,536 worlds of
//! the `cold-exact` query shape (Zachary's karate club, θ = 64, query
//! seeds 0–23, Monte Carlo worlds), under edge and triangle density, at
//! enumeration caps 1, 7, 1,000 and 100,000.
//!
//! `densest::for_each_densest` promises an emission order: truncation keeps
//! its first `cap` sets, and the estimator's one-densest-per-world ablation
//! picks a set by its position in it. Each case folds every world's full
//! mask sequence, in order, together with its density, `count`, `truncated`
//! and `max_sized`, into one order-sensitive fingerprint. The values were
//! recorded from the list-based enumerator that the bitset rows replaced;
//! never regenerate them to make the test pass.
//!
//! A second case pins the first 1,000 sets of a graph with more than 64
//! non-trivial residual components (70 disjoint edges, 2^70 − 1 densest
//! sets), so the multi-word component rows are held to the same order.

use densest::{for_each_densest, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::{datasets, Graph, NodeId};

/// Order-sensitive running hash of a stream of words.
#[derive(Clone, Copy)]
struct Fingerprint(u64);

impl Fingerprint {
    fn push(&mut self, x: u64) {
        let mut z = self.0.rotate_left(23) ^ x;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// What one (notion, cap) case folds over all worlds.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    fingerprint: u64,
    sets: usize,
    truncated_worlds: usize,
    solved_worlds: usize,
}

fn cold_exact_worlds() -> Vec<Graph> {
    let karate = datasets::karate_club().graph;
    (0..24u64)
        .flat_map(|seed| {
            let mut mc = MonteCarlo::new(&karate, StdRng::seed_from_u64(seed));
            (0..64)
                .map(|_| karate.world_from_mask(&mc.next_mask()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Fingerprints `for_each_densest` on every world: each world's mask
/// words in emission order, then its density, count, truncation flag and
/// maximum-sized set.
fn fold(worlds: &[Graph], notion: &DensityNotion, cap: usize) -> Pinned {
    let mut fp = Fingerprint(0);
    let (mut sets, mut truncated_worlds, mut solved_worlds) = (0, 0, 0);
    for world in worlds {
        let family = for_each_densest(world, notion, cap, &mut |mask| {
            fp.push(mask.len() as u64);
            for &w in mask {
                fp.push(w);
            }
        });
        let Some(family) = family else {
            fp.push(u64::MAX);
            continue;
        };
        fp.push(family.density.num);
        fp.push(family.density.den);
        fp.push(family.count as u64);
        fp.push(u64::from(family.truncated));
        fp.push(family.max_sized.len() as u64);
        for &v in &family.max_sized {
            fp.push(u64::from(v));
        }
        sets += family.count;
        truncated_worlds += usize::from(family.truncated);
        solved_worlds += 1;
    }
    Pinned {
        fingerprint: fp.0,
        sets,
        truncated_worlds,
        solved_worlds,
    }
}

fn check(notion: &DensityNotion, want: &[(usize, Pinned)]) {
    let worlds = cold_exact_worlds();
    assert_eq!(worlds.len(), 1_536);
    for (cap, pinned) in want {
        assert_eq!(
            &fold(&worlds, notion, *cap),
            pinned,
            "{notion:?} at cap {cap}"
        );
    }
}

/// Fingerprints the first `cap` sets `for_each_densest` streams from `g`.
fn prefix(g: &Graph, cap: usize) -> (u64, usize, bool, Vec<NodeId>) {
    let mut fp = Fingerprint(0);
    let family = for_each_densest(g, &DensityNotion::Edge, cap, &mut |mask| {
        fp.push(mask.len() as u64);
        for &w in mask {
            fp.push(w);
        }
    })
    .expect("the graph has edges");
    (fp.0, family.count, family.truncated, family.max_sized)
}

/// 70 disjoint edges: 70 pairwise incomparable components.
fn disjoint_edges() -> Graph {
    let edges: Vec<(NodeId, NodeId)> = (0..70).map(|i| (2 * i, 2 * i + 1)).collect();
    Graph::from_edges(140, &edges)
}

/// Density-1 pieces on 170 nodes: 30 triangles with a pendant edge (the
/// triangle alone and the whole piece are both densest, so the pendant's
/// component reaches the triangle's), 10 bare triangles and 5 four-cycles.
fn nested_pieces() -> Graph {
    let mut edges = Vec::new();
    let mut next: NodeId = 0;
    for _ in 0..30 {
        let v = next;
        edges.extend([(v, v + 1), (v, v + 2), (v + 1, v + 2), (v + 2, v + 3)]);
        next += 4;
    }
    for _ in 0..10 {
        let v = next;
        edges.extend([(v, v + 1), (v, v + 2), (v + 1, v + 2)]);
        next += 3;
    }
    for _ in 0..5 {
        let v = next;
        edges.extend([(v, v + 1), (v + 1, v + 2), (v + 2, v + 3), (v, v + 3)]);
        next += 4;
    }
    Graph::from_edges(next as usize, &edges)
}

fn pinned(fingerprint: u64, sets: usize, truncated_worlds: usize, solved_worlds: usize) -> Pinned {
    Pinned {
        fingerprint,
        sets,
        truncated_worlds,
        solved_worlds,
    }
}

#[test]
fn cold_exact_edge_emission_order() {
    check(
        &DensityNotion::Edge,
        &[
            (1, pinned(0xdc15_de1a_8036_8fe5, 1_536, 548, 1_536)),
            (7, pinned(0x9b24_e63f_49f3_d2f4, 4_531, 473, 1_536)),
            (1_000, pinned(0xb8f9_9e9f_9aa7_6cd8, 217_517, 142, 1_536)),
            (100_000, pinned(0x1088_4848_89fe_e6e8, 963_221, 0, 1_536)),
        ],
    );
}

#[test]
fn cold_exact_triangle_emission_order() {
    check(
        &DensityNotion::Clique(3),
        &[
            (1, pinned(0xff92_c714_6a4b_baa3, 696, 75, 696)),
            (7, pinned(0xe67f_69f3_a6ab_a32a, 840, 0, 696)),
            (1_000, pinned(0xe67f_69f3_a6ab_a32a, 840, 0, 696)),
            (100_000, pinned(0xe67f_69f3_a6ab_a32a, 840, 0, 696)),
        ],
    );
}

#[test]
fn seventy_disjoint_edges_first_thousand_sets() {
    let (fp, count, truncated, max_sized) = prefix(&disjoint_edges(), 1_000);
    assert_eq!(fp, 0x9bdf_fec6_1b1c_fe56);
    assert_eq!(count, 1_000);
    assert!(truncated);
    assert_eq!(max_sized, (0..140).collect::<Vec<NodeId>>());
}

#[test]
fn nested_pieces_first_thousand_sets() {
    let (fp, count, truncated, max_sized) = prefix(&nested_pieces(), 1_000);
    assert_eq!(fp, 0x5577_1d4f_5700_0a5b);
    assert_eq!(count, 1_000);
    assert!(truncated);
    assert_eq!(max_sized, (0..170).collect::<Vec<NodeId>>());
}
