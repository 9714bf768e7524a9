//! ρ\* oracle ablation: exact Dinkelbach flow iteration vs
//! the Frank–Wolfe/kclist++ iterative solver of \[57\].

use criterion::{criterion_group, criterion_main, Criterion};
use densest::instances::enumerate_cliques;
use densest::{fw::frank_wolfe, max_density, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::datasets;

fn bench_oracles(c: &mut Criterion) {
    let data = datasets::intel_lab_like(42);
    let mut mc = MonteCarlo::new(&data.graph, StdRng::seed_from_u64(7));
    let mask = mc.next_mask();
    let world = data.graph.world_from_mask(&mask);
    let n = world.num_nodes();

    let mut group = c.benchmark_group("rho_oracle/intellab_world");
    group.sample_size(20);
    group.bench_function("dinkelbach_flow", |b| {
        b.iter(|| max_density(&world, &DensityNotion::Edge))
    });
    for iters in [4usize, 16, 64] {
        group.bench_function(format!("frank_wolfe_T{iters}"), |b| {
            let inst = enumerate_cliques(&world, 2);
            b.iter(|| frank_wolfe(n, &inst, iters))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracles);
criterion_main!(benches);
