//! The `cold-exact` benchmark query shape in-process: exact top-k MPDS on
//! Zachary's karate club at θ = 64, k = 3, edge density, over a fixed set of
//! query seeds, with no server in the way.
//!
//! `query` times whole queries: sampling, the exact solve and enumeration of
//! every world's densest subgraphs, the candidate tally, and ranking.
//! `solve_only` times just the densest-subgraph enumeration over the same
//! pre-sampled worlds, streaming each set into a no-op sink. Their
//! difference is what the estimator spends around the solver, mostly the
//! candidate tally.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use densest::{for_each_densest, DensityNotion};
use mpds::api::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::{datasets, Graph};

/// Queries per timed iteration; like `cold-exact`'s query set, enough
/// seeds that the heavy-tailed worlds (up to the 100k enumeration cap) show
/// up in every iteration.
const QUERIES: u64 = 24;
const THETA: usize = 64;
const CAP: usize = 100_000;

fn bench_exact_query(c: &mut Criterion) {
    let karate = datasets::karate_club().graph;
    let query = |seed: u64| {
        Query::mpds(DensityNotion::Edge)
            .theta(THETA)
            .k(3)
            .enumeration_cap(CAP)
            .seed(seed)
    };
    // The worlds `query(seed)` samples: its default sampler is Monte Carlo
    // seeded with the query seed.
    let worlds: Vec<Graph> = (0..QUERIES)
        .flat_map(|seed| {
            let mut mc = MonteCarlo::new(&karate, StdRng::seed_from_u64(seed));
            (0..THETA)
                .map(|_| karate.world_from_mask(&mc.next_mask()))
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group(format!("cold_exact/karate/theta{THETA}/{QUERIES}_queries"));
    group.sample_size(10);
    group.bench_function("query", |b| {
        b.iter(|| {
            for seed in 0..QUERIES {
                black_box(query(seed).run(&karate).unwrap());
            }
        })
    });
    group.bench_function("solve_only", |b| {
        b.iter(|| {
            let mut sets = 0usize;
            for world in &worlds {
                for_each_densest(world, &DensityNotion::Edge, CAP, &mut |mask| {
                    black_box(mask);
                    sets += 1;
                });
            }
            sets
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exact_query);
criterion_main!(benches);
