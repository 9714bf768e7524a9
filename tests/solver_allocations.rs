//! Allocation budgets of the per-world solvers.
//!
//! A counting global allocator over [`System`] tallies the allocations the
//! calling thread makes. The exact solver, `densest::for_each_densest`, is
//! measured over the 1,536 worlds of the `cold-exact` query shape
//! (Zachary's karate club, θ = 64, query seeds 0–23, edge density, cap
//! 100,000). The list-based solver made ≈165 allocations per world; flat
//! instance arrays, CSR residual graphs, the enumerator's reused scratch and
//! the peeling's reused workspace brought the mean to ≈7.8, and reading the
//! peel in place (no `Peeling` of four vectors a world) to ≈3.8. Over the
//! same worlds, triangle density makes ≈3.7 a world (≈9.0 while the
//! network's clique facets were keyed in a hash map per Dinkelbach step,
//! ≈5.5 while the peel returned a `Peeling`), and the two-star pattern
//! ≈223 (≈266 with its groups in a hash map), nearly all of them in the
//! pattern's instance listing. The §III-C heuristic,
//! `heuristic_dense_subgraphs`, is measured over 32 worlds of
//! `lastfm_like(1)` (query seed 0, edge density): ≈12.1 a world (≈18.4
//! while it listed the edges and copied and sorted every suffix), of which
//! one per returned subgraph (≈8.4) and two more are its output. A whole
//! `cold-exact` query, `Query::mpds(Edge).theta(64).k(3).run` with no
//! helpers over seeds 0–23, made 4.46 a world (sampling, candidate tally
//! and ranking included, per-query buffers spread over its 64 worlds) when
//! its fixed-θ and serial runs still had separate loops, and 4.51 through
//! the one run loop (the same 3.74 per extra world at θ = 64 and 256, ≈3
//! more per query in per-run buffers); its ceiling of 6.5 leaves about the
//! headroom of the exact solver's (6.0 over 3.8). A warmed karate HIT
//! through `QueryEngine::execute_traced_with` with an enabled recorder (the
//! `hot-hit` read path) makes 2, the dataset and notion strings of its cache
//! key, and its ceiling is exactly that. Each other
//! ceiling below leaves headroom over its measured mean. The counter is per
//! thread, so the tests do not see each other's allocations.

use densest::heuristic::heuristic_dense_subgraphs;
use densest::{for_each_densest, DensityNotion};
use mpds::api::Query;
use mpds_obs::Recorder;
use mpds_service::engine::{EngineConfig, QueryEngine, QueryRequest, ResponseSource};
use mpds_service::GraphRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
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
const CEILING: f64 = 6.0;

/// The same, under triangle (`Clique(3)`) density.
const CLIQUE3_CEILING: f64 = 6.0;

/// The same, under two-star pattern density.
const TWO_STAR_CEILING: f64 = 250.0;

/// Mean allocations per world of a whole `cold-exact` query.
const QUERY_CEILING: f64 = 6.5;

/// Mean allocations per `heuristic_dense_subgraphs` call.
const HEURISTIC_CEILING: f64 = 14.0;

/// Allocations of one warmed `hot-hit`-shaped HIT: the two strings of its
/// cache key.
const HIT_ALLOCATIONS: u64 = 2;

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
fn whole_query_allocations_per_world() {
    let karate = datasets::karate_club().graph;
    let mut worlds = 0usize;
    let before = ALLOCATIONS.with(Cell::get);
    for seed in 0..24u64 {
        let run = Query::mpds(DensityNotion::Edge)
            .theta(64)
            .k(3)
            .seed(seed)
            .run(&karate)
            .unwrap();
        worlds += run.stats.worlds_sampled;
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let mean = allocations as f64 / worlds as f64;
    println!("{mean:.2} allocations per world over {worlds} worlds");
    assert_eq!(worlds, 1_536);
    assert!(
        mean <= QUERY_CEILING,
        "{mean:.2} allocations per world, ceiling {QUERY_CEILING}"
    );
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

#[test]
fn warmed_hit_allocations() {
    let engine = QueryEngine::new(GraphRegistry::with_builtins(), &EngineConfig::default());
    let mut req = QueryRequest::new("karate");
    req.theta = 64;
    req.k = 3;
    req.timeout_ms = Some(10_000);
    engine.execute(&req).unwrap();
    let rec = Arc::new(Recorder::new(true));
    let before = ALLOCATIONS.with(Cell::get);
    let hit = engine.execute_traced_with(&req, Some(&rec), None).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    println!("{allocations} allocations per HIT");
    assert_eq!(hit.source, ResponseSource::Hit);
    assert!(
        allocations <= HIT_ALLOCATIONS,
        "{allocations} allocations per HIT, ceiling {HIT_ALLOCATIONS}"
    );
}
