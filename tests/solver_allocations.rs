//! Allocation budgets of the per-world solvers.
//!
//! A counting global allocator over [`System`] tallies the allocations the
//! calling thread makes. The exact solver, `densest::for_each_densest`, is
//! measured over the 1,536 worlds of the `cold-exact` query shape
//! (Zachary's karate club, θ = 64, query seeds 0–23, edge density, cap
//! 100,000). The list-based solver made ≈165 allocations per world; flat
//! instance arrays, CSR residual graphs, the enumerator's reused scratch and
//! the peeling's reused workspace bring the mean to ≈7.8. Over the same
//! worlds, triangle density makes ≈5.5 a world (≈9.0 while the network's
//! clique facets were keyed in a hash map per Dinkelbach step), and the
//! two-star pattern ≈227 (≈266 with its groups in a hash map), nearly all
//! of them in the pattern's instance listing. The §III-C
//! heuristic, `heuristic_dense_subgraphs`, is measured over 32 worlds of
//! `lastfm_like(1)` (query seed 0, edge density): ≈18.4 a world, of which
//! one per returned subgraph (≈8.4) is its output. Each ceiling below
//! leaves headroom over its measured mean. The counter is per thread, so
//! the two tests do not see each other's allocations.

use densest::heuristic::heuristic_dense_subgraphs;
use densest::{for_each_densest, DensityNotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ugraph::{datasets, Graph, Pattern};

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
const CEILING: f64 = 12.0;

/// The same, under triangle (`Clique(3)`) density.
const CLIQUE3_CEILING: f64 = 8.0;

/// The same, under two-star pattern density.
const TWO_STAR_CEILING: f64 = 250.0;

/// Mean allocations per `heuristic_dense_subgraphs` call.
const HEURISTIC_CEILING: f64 = 22.0;

/// The 1,536 worlds of the `cold-exact` query shape.
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

/// Mean allocations per `for_each_densest` call of `notion` over `worlds`,
/// and the densest sets streamed.
fn solver_allocations(worlds: &[Graph], notion: &DensityNotion) -> (f64, usize) {
    let mut sets = 0usize;
    let before = ALLOCATIONS.with(Cell::get);
    for world in worlds {
        for_each_densest(world, notion, 100_000, &mut |_| sets += 1);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let mean = allocations as f64 / worlds.len() as f64;
    println!(
        "{notion:?}: {mean:.1} allocations per world over {} worlds, {sets} sets",
        worlds.len()
    );
    (mean, sets)
}

#[test]
fn exact_solver_allocations_per_world() {
    let (mean, sets) = solver_allocations(&cold_exact_worlds(), &DensityNotion::Edge);
    assert_eq!(sets, 963_221, "the worlds are the cold-exact worlds");
    assert!(
        mean <= CEILING,
        "{mean:.1} allocations per world, ceiling {CEILING}"
    );
}

#[test]
fn clique_and_pattern_solver_allocations_per_world() {
    let worlds = cold_exact_worlds();
    for (notion, ceiling) in [
        (DensityNotion::Clique(3), CLIQUE3_CEILING),
        (
            DensityNotion::Pattern(Pattern::two_star()),
            TWO_STAR_CEILING,
        ),
    ] {
        let (mean, _) = solver_allocations(&worlds, &notion);
        assert!(
            mean <= ceiling,
            "{notion:?}: {mean:.1} allocations per world, ceiling {ceiling}"
        );
    }
}

#[test]
fn heuristic_allocations_per_world() {
    let lastfm = datasets::lastfm_like(1).graph;
    let mut mc = MonteCarlo::new(&lastfm, StdRng::seed_from_u64(0));
    let worlds: Vec<_> = (0..32)
        .map(|_| lastfm.world_from_mask(&mc.next_mask()))
        .collect();
    let mut subgraphs = 0usize;
    let before = ALLOCATIONS.with(Cell::get);
    for world in &worlds {
        let h = heuristic_dense_subgraphs(world, &DensityNotion::Edge);
        subgraphs += h.map_or(0, |h| h.subgraphs.len());
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let mean = allocations as f64 / worlds.len() as f64;
    println!(
        "{mean:.1} allocations per world over {} worlds, {subgraphs} subgraphs",
        worlds.len()
    );
    assert!(
        mean <= HEURISTIC_CEILING,
        "{mean:.1} allocations per world, ceiling {HEURISTIC_CEILING}"
    );
}
