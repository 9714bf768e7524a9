//! Property test of `densest::peeling::peel` against a quadratic reference
//! that states the removal rule directly: scan every live node, remove the
//! one of minimum (instance-degree, id), repeat.
//!
//! The instance sets are random: arity 1–4, instances repeated up to three
//! times, and isolated nodes spread among the instance nodes' ids. With
//! arity above two, or a repeated instance, one removal lowers a
//! neighbour's degree by more than one. Under edge density the core numbers
//! must also equal the independent Batagelj–Zaversnik decomposition.

use densest::cores::edge_core_numbers;
use densest::instances::{enumerate_cliques, InstanceSet};
use densest::peeling::peel;
use densest::Density;
use proptest::prelude::*;
use ugraph::{Graph, NodeId};

/// A xorshift step: the local randomness a proptest seed expands into.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `n` nodes, of which `pool` (at random ids) carry every instance; each
/// `(seed, repeats)` adds one random `arity`-node instance `repeats` times.
fn instance_set(
    arity: usize,
    pool: usize,
    isolated: usize,
    picks: &[(u64, usize)],
    seed: u64,
) -> (usize, InstanceSet) {
    let n = pool + isolated;
    let mut x = seed | 1;
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        ids.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
    }
    let mut flat = Vec::new();
    for &(s, repeats) in picks {
        let mut x = s | 1;
        let mut inst: Vec<NodeId> = Vec::with_capacity(arity);
        while inst.len() < arity {
            let v = ids[(next(&mut x) % pool as u64) as usize];
            if !inst.contains(&v) {
                inst.push(v);
            }
        }
        inst.sort_unstable();
        for _ in 0..repeats {
            flat.extend_from_slice(&inst);
        }
    }
    (n, InstanceSet::from_flat(arity, flat))
}

/// What the reference computes: every public field of a `Peeling`, plus
/// its suffix counts in `suffixes()` order.
#[derive(Debug, PartialEq)]
struct Expected {
    best_density: Density,
    best_subgraph: Vec<NodeId>,
    core_number: Vec<u64>,
    removal_order: Vec<NodeId>,
    suffix_counts: Vec<u64>,
}

fn reference(n: usize, instances: &InstanceSet) -> Expected {
    let mut degree = instances.degrees(n);
    let mut alive_node = vec![true; n];
    let mut alive_inst = vec![true; instances.count()];
    let mut live = instances.count() as u64;
    let (mut removed, mut suffix_counts) = (Vec::new(), Vec::new());
    let mut core_number = vec![0u64; n];
    let (mut running_max, mut best_density, mut best_len) = (0, Density::ZERO, n);
    for remaining in (1..=n).rev() {
        suffix_counts.push(live);
        if Density::new(live, remaining as u64) > best_density {
            best_density = Density::new(live, remaining as u64);
            best_len = remaining;
        }
        let v = (0..n)
            .filter(|&v| alive_node[v])
            .min_by_key(|&v| (degree[v], v))
            .expect("a live node remains");
        running_max = running_max.max(degree[v]);
        core_number[v] = running_max;
        alive_node[v] = false;
        removed.push(v as NodeId);
        for (i, inst) in instances.iter().enumerate() {
            if alive_inst[i] && inst.contains(&(v as NodeId)) {
                alive_inst[i] = false;
                live -= 1;
                for &w in inst.iter().filter(|&&w| alive_node[w as usize]) {
                    degree[w as usize] -= 1;
                }
            }
        }
    }
    removed.reverse();
    let mut best_subgraph = removed[..best_len].to_vec();
    best_subgraph.sort_unstable();
    Expected {
        best_density,
        best_subgraph,
        core_number,
        removal_order: removed,
        suffix_counts,
    }
}

fn peeled(n: usize, instances: &InstanceSet) -> Expected {
    let p = peel(n, instances);
    Expected {
        suffix_counts: p.suffixes().map(|(_, count)| count).collect(),
        best_density: p.best_density,
        best_subgraph: p.best_subgraph,
        core_number: p.core_number,
        removal_order: p.removal_order,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peel_removes_the_minimum_degree_then_the_minimum_id(
        shape in (1usize..=4, 4usize..=20, 0usize..=12),
        picks in proptest::collection::vec((0u64..u64::MAX, 1usize..=3), 0..=40),
        seed in 0u64..u64::MAX,
    ) {
        let (arity, pool, isolated) = shape;
        let (n, instances) = instance_set(arity, pool, isolated, &picks, seed);
        prop_assert_eq!(peeled(n, &instances), reference(n, &instances));
    }

    #[test]
    fn edge_core_numbers_match_batagelj_zaversnik(
        n in 1usize..=40,
        percent in 0u64..=60,
        seed in 0u64..u64::MAX,
    ) {
        let mut x = seed | 1;
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if next(&mut x) % 100 < percent {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges);
        let instances = enumerate_cliques(&g, 2);
        let p = peeled(n, &instances);
        let bz: Vec<u64> = edge_core_numbers(&g).into_iter().map(u64::from).collect();
        prop_assert_eq!(&p.core_number, &bz);
        prop_assert_eq!(p, reference(n, &instances));
    }
}
