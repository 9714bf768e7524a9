//! Allocation budget of the exact solver per sampled world.
//!
//! A counting global allocator over [`System`] tallies the allocations the
//! calling thread makes inside `densest::for_each_densest`, over the 1,536
//! worlds of the `cold-exact` query shape (Zachary's karate club, θ = 64,
//! query seeds 0–23, edge density, cap 100,000). The list-based solver made
//! ≈165 allocations per world; flat instance arrays, CSR residual graphs and
//! the enumerator's reused scratch bring the mean under the ceiling below.
//! This binary holds one test so that no other test thread allocates while
//! it counts (the counter is per thread regardless).

use densest::{for_each_densest, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ugraph::datasets;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` is a no-op during thread teardown, when the slot is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean allocations (including reallocations) per `for_each_densest` call.
const CEILING: f64 = 20.0;

#[test]
fn exact_solver_allocations_per_world() {
    let karate = datasets::karate_club().graph;
    let worlds: Vec<_> = (0..24u64)
        .flat_map(|seed| {
            let mut mc = MonteCarlo::new(&karate, StdRng::seed_from_u64(seed));
            (0..64)
                .map(|_| karate.world_from_mask(&mc.next_mask()))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut sets = 0usize;
    let before = ALLOCATIONS.with(Cell::get);
    for world in &worlds {
        for_each_densest(world, &DensityNotion::Edge, 100_000, &mut |_| sets += 1);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(sets, 963_221, "the worlds are the cold-exact worlds");
    let mean = allocations as f64 / worlds.len() as f64;
    println!(
        "{mean:.1} allocations per world over {} worlds",
        worlds.len()
    );
    assert!(
        mean <= CEILING,
        "{mean:.1} allocations per world, ceiling {CEILING}"
    );
}
