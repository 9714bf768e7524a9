//! Property test of `densest::peeling::peel` against a quadratic reference
//! that states the removal rule directly: scan every live node, remove the
//! one of minimum (instance-degree, id), repeat.
//!
//! The instance sets are random: arity 1–4, instances repeated up to three
//! times, and isolated nodes spread among the instance nodes' ids. With
//! arity above two, or a repeated instance, one removal lowers a
//! neighbour's degree by more than one. Under edge density the core numbers
//! must also equal the independent Batagelj–Zaversnik decomposition.
//!
//! The peel keeps degrees below 64 in bitset buckets and larger ones in
//! runs and heaps, so two cases drive degrees across that boundary: dense
//! instance lists over a small pool (degrees in the hundreds, lowered by
//! several at a time), and hub graphs of 63, 64, 65 and 4,097 nodes,
//! peeled from both row sources — the instance list and the graph's own
//! CSR rows (`peel_edges`).

use densest::cores::edge_core_numbers;
use densest::instances::{enumerate_cliques, InstanceSet};
use densest::peeling::{peel, peel_edges, Peeling};
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
    expected(peel(n, instances))
}

fn expected(p: Peeling) -> Expected {
    Expected {
        suffix_counts: p.suffixes().map(|(_, count)| count).collect(),
        best_density: p.best_density,
        best_subgraph: p.best_subgraph,
        core_number: p.core_number,
        removal_order: p.removal_order,
    }
}

/// `n` nodes: `hubs` hubs at random ids, each joined to `spokes` random
/// nodes, plus `extra` random edges; every other node is isolated unless
/// an edge picks it.
fn hub_graph(n: usize, hubs: usize, spokes: usize, extra: usize, seed: u64) -> Graph {
    let mut x = seed | 1;
    let mut pick = |bound: usize| (next(&mut x) % bound as u64) as NodeId;
    let mut edges = std::collections::BTreeSet::new();
    let mut add = |u: NodeId, v: NodeId| {
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    };
    for _ in 0..hubs {
        let hub = pick(n);
        for _ in 0..spokes {
            add(hub, pick(n));
        }
    }
    for _ in 0..extra {
        add(pick(n), pick(n));
    }
    Graph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_instance_lists_cross_the_bucket_boundary(
        shape in (1usize..=4, 4usize..=16, 0usize..=6),
        picks in proptest::collection::vec((0u64..u64::MAX, 1usize..=3), 150..=400),
        seed in 0u64..u64::MAX,
    ) {
        let (arity, pool, isolated) = shape;
        let (n, instances) = instance_set(arity, pool, isolated, &picks, seed);
        prop_assert_eq!(peeled(n, &instances), reference(n, &instances));
    }

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

    #[test]
    fn hub_graphs_peel_alike_from_both_row_sources(
        which in 0usize..4,
        hubs in 1usize..=3,
        spokes in 40usize..=140,
        extra in 0usize..=6_000,
        seed in 0u64..u64::MAX,
    ) {
        // Up to 6,000 extra edges make the 130-node graphs dense: many
        // nodes share a degree of 64 or more, some from the start and some
        // lowered to it, so large buckets pop from their runs and their
        // heaps alike.
        let n = [63, 64, 65, 130][which];
        let extra = extra * n / 130;
        let g = hub_graph(n, hubs, spokes, extra, seed);
        let edges = enumerate_cliques(&g, 2);
        let want = reference(n, &edges);
        prop_assert_eq!(peeled(n, &edges), want);
        prop_assert_eq!(expected(peel_edges(&g)), reference(n, &edges));
    }
}

/// The same over 4,097 nodes (one past 64 leaf words of 64 bits, so a
/// bucket's summary takes two words), on a handful of seeds: the
/// reference is quadratic.
#[test]
fn a_4097_node_hub_graph_peels_alike_from_both_row_sources() {
    for seed in 1..=4u64 {
        let g = hub_graph(4_097, 4, 150, 2_500, seed);
        let edges = enumerate_cliques(&g, 2);
        let want = reference(4_097, &edges);
        assert!((0..4_097).any(|v| g.degree(v) >= 64), "a hub crosses 64");
        assert_eq!(expected(peel_edges(&g)), want, "seed {seed}");
        assert_eq!(peeled(4_097, &edges), want, "seed {seed}");
    }
}

/// Two disjoint `K_66`s, one with a pendant leaf on every node, under
/// shuffled ids. Peeling the leaves lowers the first clique's nodes from 66
/// to 65, into bucket 65's heap, while the second clique's nodes still sit
/// in that bucket's initial run: the two forms of a large bucket hold live
/// nodes at once and must interleave by id.
#[test]
fn a_large_bucket_interleaves_its_run_and_its_heap_by_id() {
    for seed in 1..=8u64 {
        let mut x = seed;
        let mut ids: Vec<NodeId> = (0..198).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut edges = Vec::new();
        for clique in [&ids[..66], &ids[66..132]] {
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    edges.push((u, v));
                }
            }
        }
        edges.extend(ids[..66].iter().zip(&ids[132..]).map(|(&u, &v)| (u, v)));
        let g = Graph::from_edges(198, &edges);
        let edges = enumerate_cliques(&g, 2);
        let want = reference(198, &edges);
        assert_eq!(expected(peel_edges(&g)), want, "seed {seed}");
        assert_eq!(peeled(198, &edges), want, "seed {seed}");
    }
}
