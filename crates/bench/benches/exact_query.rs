//! The `cold-exact` benchmark query shape in-process: exact top-k MPDS on
//! Zachary's karate club at θ = 64, k = 3, edge density, over a fixed set of
//! query seeds, with no server in the way.
//!
//! Four timings split a query:
//!
//! * `query` times whole queries: sampling, the exact solve and enumeration
//!   of every world's densest subgraphs, the candidate tally, and ranking.
//! * `query_one_helper` times the same queries with one helper thread
//!   solving worlds beside the calling one (`RunControl::with_helpers(1)`),
//!   as a server lends a MISS its parked worker; the answers are the same.
//! * `solve_only` times the solver alone over the same pre-sampled worlds:
//!   `for_each_densest` streaming each set into a no-op sink, which, being
//!   a generic closure like the estimator's crediting one, is inlined into
//!   the walk.
//! * `max_density_only` times `max_density` over those worlds: instance
//!   listing, peeling, core reduction and the Dinkelbach max-flow steps,
//!   without the enumeration.
//!
//! `query − solve_only` is what the estimator spends around the solver,
//! mostly the candidate tally; `solve_only − max_density_only` is the
//! enumeration (residual graph, condensation and the antichain walk; every
//! karate world has at most 64 components and ids, so it takes the one-word
//! walk, whose levels live in registers).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use densest::{for_each_densest, max_density, DensityNotion};
use mpds::api::Query;
use mpds::control::RunControl;
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
    group.bench_function("query_one_helper", |b| {
        let lent = RunControl::unbounded().with_helpers(1);
        b.iter(|| {
            for seed in 0..QUERIES {
                black_box(query(seed).control(lent.clone()).run(&karate).unwrap());
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
    group.bench_function("max_density_only", |b| {
        b.iter(|| {
            for world in &worlds {
                black_box(max_density(world, &DensityNotion::Edge));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exact_query);
criterion_main!(benches);
