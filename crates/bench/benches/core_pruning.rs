//! Core-pruning ablation: the `(⌈ρ̃⌉, ·)`-core reduction of
//! paper Line 2 vs running the flow machinery on the whole world; and the
//! greedy peeling that both the reduction and the §III-C heuristic start
//! from, timed alone and inside the heuristic over 32 pre-sampled worlds of
//! the served lastfm dataset (`lastfm_like(1)`, the `churn-durable` shape),
//! as loaded and as densified by 1,200 rounds of churn (see
//! [`densified_lastfm`]).

use criterion::{criterion_group, criterion_main, Criterion};
use densest::heuristic::heuristic_dense_subgraphs;
use densest::peeling::peel;
use densest::solve::{instances_of, max_density_unpruned};
use densest::{max_density, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use std::collections::HashSet;
use ugraph::{datasets, UncertainGraph};

fn bench_pruning(c: &mut Criterion) {
    let data = datasets::lastfm_like(42);
    let mut mc = MonteCarlo::new(&data.graph, StdRng::seed_from_u64(7));
    let mask = mc.next_mask();
    let world = data.graph.world_from_mask(&mask);

    // Sanity: both must agree on rho*.
    assert_eq!(
        max_density(&world, &DensityNotion::Edge),
        max_density_unpruned(&world, &DensityNotion::Edge)
    );

    let mut group = c.benchmark_group("core_pruning/lastfm_world");
    group.sample_size(10);
    group.bench_function("pruned", |b| {
        b.iter(|| max_density(&world, &DensityNotion::Edge))
    });
    group.bench_function("unpruned", |b| {
        b.iter(|| max_density_unpruned(&world, &DensityNotion::Edge))
    });
    group.finish();
}

/// `lastfm_like(1)` after 1,200 deterministic rounds shaped like the
/// `churn-durable` updates: each round re-weights 6 present edges, deletes
/// 5 and inserts 5 absent node pairs, every new probability uniform over
/// {0.001, 0.002, …, 1.000}; picks come from a xorshift64 stream seeded
/// with `0x5eed_d3a5`. The edge count stays level, but the mean edge
/// probability rises towards 0.5, so the worlds hold about 2.6 times the
/// edges of the loaded dataset's, as a long churn run's do.
fn densified_lastfm() -> UncertainGraph {
    let base = datasets::lastfm_like(1).graph;
    let n = base.num_nodes() as u64;
    let mut edges: Vec<(u32, u32, f64)> = base
        .graph()
        .edges()
        .iter()
        .zip(base.probs())
        .map(|(&(u, v), &p)| (u, v, p))
        .collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let mut x = 0x5eed_d3a5_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..1_200 {
        for _ in 0..6 {
            let i = (next() % edges.len() as u64) as usize;
            edges[i].2 = (1 + next() % 1_000) as f64 / 1_000.0;
        }
        for _ in 0..5 {
            let i = (next() % edges.len() as u64) as usize;
            let (u, v, _) = edges.swap_remove(i);
            present.remove(&(u, v));
        }
        for _ in 0..5 {
            loop {
                let (a, b) = ((next() % n) as u32, (next() % n) as u32);
                let e = (a.min(b), a.max(b));
                if a != b && present.insert(e) {
                    edges.push((e.0, e.1, (1 + next() % 1_000) as f64 / 1_000.0));
                    break;
                }
            }
        }
    }
    UncertainGraph::from_weighted_edges(n as usize, &edges)
}

/// `peel` over instance lists and the whole heuristic, over 32 worlds of
/// `g` (query seed 0).
fn bench_worlds(c: &mut Criterion, group: &str, g: &UncertainGraph) {
    let mut mc = MonteCarlo::new(g, StdRng::seed_from_u64(0));
    let worlds: Vec<_> = (0..32)
        .map(|_| g.world_from_mask(&mc.next_mask()))
        .collect();
    let instances: Vec<_> = worlds
        .iter()
        .map(|w| instances_of(w, &DensityNotion::Edge))
        .collect();

    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    group.bench_function("peel", |b| {
        b.iter(|| {
            for (w, inst) in worlds.iter().zip(&instances) {
                std::hint::black_box(peel(w.num_nodes(), inst));
            }
        })
    });
    group.bench_function("heuristic", |b| {
        b.iter(|| {
            for w in &worlds {
                std::hint::black_box(heuristic_dense_subgraphs(w, &DensityNotion::Edge));
            }
        })
    });
    group.finish();
}

fn bench_peeling(c: &mut Criterion) {
    bench_worlds(
        c,
        "peeling/lastfm_32_worlds",
        &datasets::lastfm_like(1).graph,
    );
    bench_worlds(c, "peeling/lastfm_dense_32_worlds", &densified_lastfm());
}

criterion_group!(benches, bench_pruning, bench_peeling);
criterion_main!(benches);
