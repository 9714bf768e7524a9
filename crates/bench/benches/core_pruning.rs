//! Core-pruning ablation: the `(⌈ρ̃⌉, ·)`-core reduction of
//! paper Line 2 vs running the flow machinery on the whole world; and the
//! greedy peeling that both the reduction and the §III-C heuristic start
//! from, timed alone and inside the heuristic over 32 pre-sampled worlds of
//! the served lastfm dataset (`lastfm_like(1)`, the `churn-durable` shape).

use criterion::{criterion_group, criterion_main, Criterion};
use densest::heuristic::heuristic_dense_subgraphs;
use densest::peeling::peel;
use densest::solve::{instances_of, max_density_unpruned};
use densest::{max_density, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::datasets;

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

fn bench_peeling(c: &mut Criterion) {
    let data = datasets::lastfm_like(1);
    let mut mc = MonteCarlo::new(&data.graph, StdRng::seed_from_u64(0));
    let worlds: Vec<_> = (0..32)
        .map(|_| data.graph.world_from_mask(&mc.next_mask()))
        .collect();
    let instances: Vec<_> = worlds
        .iter()
        .map(|w| instances_of(w, &DensityNotion::Edge))
        .collect();

    let mut group = c.benchmark_group("peeling/lastfm_32_worlds");
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

criterion_group!(benches, bench_pruning, bench_peeling);
criterion_main!(benches);
