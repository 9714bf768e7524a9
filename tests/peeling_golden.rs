//! Golden pin of the greedy peeling and of the §III-C heuristic built on it.
//!
//! `densest::peeling::peel` promises one removal order: the live node of
//! minimum instance-degree, ties to the smaller id. Every field of its
//! [`Peeling`] follows from that order, and so does what
//! `heuristic_dense_subgraphs` hands the estimator. Each case folds, world
//! by world, the full `Peeling` (`removal_order`, `core_number`, the
//! `suffixes()` counts, `best_density`, `best_subgraph`) and the heuristic's
//! output into order-sensitive fingerprints. The worlds are:
//!
//! * 128 Monte Carlo worlds of `lastfm_like(1)` (query seeds 0–3, 32 each),
//!   under edge density — the `churn-durable` query shape;
//! * the 1,536 worlds of the `cold-exact` query shape (Zachary's karate
//!   club, θ = 64, query seeds 0–23) under edge and triangle density;
//! * seeded random graphs under diamond density, where one removal can
//!   drop a neighbour's degree by more than one.
//!
//! A last case pins the candidate table of a heuristic θ = 32 query on
//! `lastfm_like(1)`. The values were recorded from the binary-heap peeling
//! that the bucket queue replaced; never regenerate them to make the test
//! pass.

use densest::heuristic::{heuristic_dense_subgraphs, HeuristicDense};
use densest::peeling::{peel, Peeling};
use densest::solve::instances_of;
use densest::DensityNotion;
use mpds::api::{Query, RunDetails};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::{datasets, generators, Graph, Pattern, UncertainGraph};

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

    fn push_ids(&mut self, ids: &[u32]) {
        self.push(ids.len() as u64);
        for &v in ids {
            self.push(u64::from(v));
        }
    }
}

/// What one case folds over all its worlds.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// Every world's full `Peeling`, in world order.
    peeling: u64,
    /// Every world's heuristic output, in world order.
    heuristic: u64,
    /// Heuristic subgraphs over all worlds.
    subgraphs: usize,
    /// Worlds with no instance.
    empty_worlds: usize,
}

fn fold_peeling(fp: &mut Fingerprint, p: &Peeling) {
    fp.push_ids(&p.removal_order);
    fp.push(p.core_number.len() as u64);
    for &c in &p.core_number {
        fp.push(c);
    }
    for (nodes, count) in p.suffixes() {
        fp.push(nodes.len() as u64);
        fp.push(count);
    }
    fp.push(p.best_density.num);
    fp.push(p.best_density.den);
    fp.push_ids(&p.best_subgraph);
}

fn fold_heuristic(fp: &mut Fingerprint, h: &Option<HeuristicDense>) {
    let Some(h) = h else {
        fp.push(u64::MAX);
        return;
    };
    fp.push(h.best_density.num);
    fp.push(h.best_density.den);
    fp.push(h.subgraphs.len() as u64);
    for s in &h.subgraphs {
        fp.push_ids(s);
    }
}

fn fold(worlds: &[Graph], notion: &DensityNotion) -> Pinned {
    let (mut peeling, mut heuristic) = (Fingerprint(0), Fingerprint(0));
    let (mut subgraphs, mut empty_worlds) = (0, 0);
    for world in worlds {
        let instances = instances_of(world, notion);
        fold_peeling(&mut peeling, &peel(world.num_nodes(), &instances));
        let h = heuristic_dense_subgraphs(world, notion);
        fold_heuristic(&mut heuristic, &h);
        match &h {
            Some(h) => subgraphs += h.subgraphs.len(),
            None => empty_worlds += 1,
        }
    }
    Pinned {
        peeling: peeling.0,
        heuristic: heuristic.0,
        subgraphs,
        empty_worlds,
    }
}

/// `per_seed` Monte Carlo worlds of `g` for each query seed in `seeds`.
fn worlds(g: &UncertainGraph, seeds: std::ops::Range<u64>, per_seed: usize) -> Vec<Graph> {
    seeds
        .flat_map(|seed| {
            let mut mc = MonteCarlo::new(g, StdRng::seed_from_u64(seed));
            (0..per_seed)
                .map(|_| g.world_from_mask(&mc.next_mask()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn lastfm_worlds_under_edge_density() {
    let lastfm = datasets::lastfm_like(1).graph;
    let worlds = worlds(&lastfm, 0..4, 32);
    assert_eq!(
        fold(&worlds, &DensityNotion::Edge),
        Pinned {
            peeling: 351_761_384_090_542_028,
            heuristic: 4_242_254_309_637_403_724,
            subgraphs: 1_184,
            empty_worlds: 0,
        }
    );
}

#[test]
fn cold_exact_worlds_under_edge_and_triangle_density() {
    let karate = datasets::karate_club().graph;
    let worlds = worlds(&karate, 0..24, 64);
    assert_eq!(worlds.len(), 1_536);
    assert_eq!(
        fold(&worlds, &DensityNotion::Edge),
        Pinned {
            peeling: 14_659_768_342_816_928_507,
            heuristic: 9_107_535_475_653_642_674,
            subgraphs: 3_276,
            empty_worlds: 0,
        }
    );
    assert_eq!(
        fold(&worlds, &DensityNotion::Clique(3)),
        Pinned {
            peeling: 6_714_654_440_222_955_713,
            heuristic: 11_916_220_357_518_191_457,
            subgraphs: 710,
            empty_worlds: 840,
        }
    );
}

/// The largest drop of one node's instance-degree caused by one removal,
/// replaying `p.removal_order` from the last node back to the first.
fn largest_degree_drop(n: usize, instances: &densest::instances::InstanceSet, p: &Peeling) -> u64 {
    let mut alive_inst = vec![true; instances.count()];
    let mut largest = 0;
    for &v in p.removal_order.iter().rev() {
        let mut drop = vec![0u64; n];
        for (i, inst) in instances.iter().enumerate() {
            if alive_inst[i] && inst.contains(&v) {
                alive_inst[i] = false;
                for &w in inst.iter().filter(|&&w| w != v) {
                    drop[w as usize] += 1;
                }
            }
        }
        largest = largest.max(drop.into_iter().max().unwrap_or(0));
    }
    largest
}

#[test]
fn random_graphs_under_diamond_density() {
    let notion = DensityNotion::Pattern(Pattern::diamond());
    let mut rng = StdRng::seed_from_u64(0xd1a0d);
    let graphs: Vec<Graph> = (0..40)
        .map(|i| {
            let n = 12 + i % 9;
            generators::erdos_renyi_nm(n, 2 * n + i % 13, &mut rng)
        })
        .collect();
    let g = &graphs[7];
    let instances = instances_of(g, &notion);
    let p = peel(g.num_nodes(), &instances);
    assert!(largest_degree_drop(g.num_nodes(), &instances, &p) > 1);
    assert_eq!(
        fold(&graphs, &notion),
        Pinned {
            peeling: 1_463_468_101_138_239_732,
            heuristic: 16_079_145_097_073_433_730,
            subgraphs: 228,
            empty_worlds: 0,
        }
    );
}

#[test]
fn heuristic_lastfm_candidate_table() {
    let lastfm = datasets::lastfm_like(1).graph;
    let run = Query::mpds(DensityNotion::Edge)
        .theta(32)
        .k(5)
        .heuristic(true)
        .seed(7)
        .run(&lastfm)
        .unwrap();
    let RunDetails::Mpds(r) = &run.details else {
        unreachable!("Query::mpds produces MPDS details")
    };
    let table = &r.candidates;
    let mut entries: Vec<_> = table.iter().collect();
    entries.sort_unstable();
    let mut fp = Fingerprint(0);
    for (set, count) in &entries {
        fp.push_ids(set);
        fp.push(u64::from(*count));
    }
    let mut top = Fingerprint(0);
    for (set, count) in table.top_k(5) {
        top.push_ids(&set);
        top.push(u64::from(count));
    }
    assert_eq!(
        (table.len(), fp.0, top.0),
        (388, 10_244_735_250_102_121_938, 2_350_493_380_355_664_717)
    );
}
