//! Possible-world samplers for uncertain graphs (paper §III-A remark 2 and
//! §VI-G "Varying sampling strategies").
//!
//! All MPDS/NDS estimators consume a stream of possible worlds. The paper
//! compares three ways to produce that stream:
//!
//! * **Monte Carlo (MC)** — flip every edge independently per world; lowest
//!   memory, the paper's default.
//! * **Lazy Propagation (LP)** \[54\] — per-edge geometric skip counters: each
//!   edge pre-draws the index of the next world in which it is present, so a
//!   world materializes without one RNG call per edge. Extra per-edge state
//!   (the paper: "the visit frequencies of all edges need to be stored and
//!   updated", raising memory).
//! * **Recursive Stratified Sampling (RSS)** \[55\] — condition on `r` pivot
//!   edges per recursion level, enumerate the `2^r` strata, and allocate the
//!   sample budget proportionally to stratum probability; lower variance at
//!   the cost of recursion memory.
//!
//! Each sampler fills a preallocated [`EdgeMask`] bitmap aligned with
//! [`UncertainGraph`](ugraph::UncertainGraph)'s canonical edge order
//! ([`WorldSampler::next_mask_into`]; the bitmap is reused across samples so
//! the steady-state per-world cost is RNG draws only).
//! [`UncertainGraph::world_from_bitmap`](ugraph::UncertainGraph::world_from_bitmap)
//! pairs that with CSR world materialization that recycles the previous
//! world's backing storage.
//! Samplers report an estimate of their auxiliary memory so the
//! Tables XIII–XIV experiment can reproduce the paper's memory comparison.

pub mod lp;
pub mod mc;
pub mod rss;

use ugraph::EdgeMask;

pub use lp::LazyPropagation;
pub use mc::MonteCarlo;
pub use rss::RecursiveStratified;

/// Derives a decorrelated RNG seed for sub-stream `stream` of `root`.
///
/// Callers that split their sample budget into batches (parallel workers,
/// restartable chunks) must NOT seed batch `i` with `root + i`: two runs with
/// roots `r` and `r + 1` would then share all but one of their streams, so
/// "independent" experiments silently reuse the same worlds. This mixes both
/// words through a SplitMix64-style finalizer so every `(root, stream)` pair
/// lands in an unrelated region of the seed space.
pub fn stream_seed(root: u64, stream: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    mix(mix(root.wrapping_add(0x9e37_79b9_7f4a_7c15))
        ^ mix(stream.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(1)))
}

/// A source of sampled possible worlds.
pub trait WorldSampler {
    /// Number of edges in the sampled masks (the mask universe).
    fn num_edges(&self) -> usize;

    /// Draws the next possible world into a preallocated edge-presence
    /// bitmap. The mask is re-targeted to [`WorldSampler::num_edges`] and
    /// fully overwritten; reusing one mask across calls avoids the per-world
    /// `Vec<bool>` allocation of [`WorldSampler::next_mask`].
    fn next_mask_into(&mut self, mask: &mut EdgeMask);

    /// Draws the next possible world as a `bool`-per-edge vector (allocating
    /// convenience wrapper over [`WorldSampler::next_mask_into`]).
    fn next_mask(&mut self) -> Vec<bool> {
        let mut mask = EdgeMask::new(self.num_edges());
        self.next_mask_into(&mut mask);
        mask.to_bools()
    }

    /// Auxiliary memory held by the sampler, in bytes (beyond the uncertain
    /// graph itself). Used by the sampling-strategy comparison experiment.
    fn aux_memory_bytes(&self) -> usize;

    /// Human-readable strategy name.
    fn name(&self) -> &'static str;
}

impl<S: WorldSampler + ?Sized> WorldSampler for &mut S {
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        (**self).next_mask_into(mask)
    }
    fn next_mask(&mut self) -> Vec<bool> {
        (**self).next_mask()
    }
    fn aux_memory_bytes(&self) -> usize {
        (**self).aux_memory_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<S: WorldSampler + ?Sized> WorldSampler for Box<S> {
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        (**self).next_mask_into(mask)
    }
    fn next_mask(&mut self) -> Vec<bool> {
        (**self).next_mask()
    }
    fn aux_memory_bytes(&self) -> usize {
        (**self).aux_memory_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ugraph::UncertainGraph;

    fn demo_graph() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.2), (2, 3, 0.7)],
        )
    }

    /// Empirical edge frequencies of every sampler must converge to p(e).
    #[test]
    fn all_samplers_are_unbiased() {
        let g = demo_graph();
        let rounds = 20_000usize;
        let tol = 0.02;
        let check = |name: &str, freqs: Vec<f64>| {
            for (i, (&f, &p)) in freqs.iter().zip(g.probs()).enumerate() {
                assert!(
                    (f - p).abs() < tol,
                    "{name}: edge {i} frequency {f} vs p {p}"
                );
            }
        };

        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        check("mc", empirical(&mut mc, g.num_edges(), rounds));

        let mut lp = LazyPropagation::new(&g, StdRng::seed_from_u64(2));
        check("lp", empirical(&mut lp, g.num_edges(), rounds));

        let mut rss = RecursiveStratified::new(&g, 3, StdRng::seed_from_u64(3));
        check("rss", empirical(&mut rss, g.num_edges(), rounds));
    }

    fn empirical<S: WorldSampler>(s: &mut S, m: usize, rounds: usize) -> Vec<f64> {
        let mut counts = vec![0usize; m];
        for _ in 0..rounds {
            let mask = s.next_mask();
            for (i, &b) in mask.iter().enumerate() {
                if b {
                    counts[i] += 1;
                }
            }
        }
        counts.iter().map(|&c| c as f64 / rounds as f64).collect()
    }

    #[test]
    fn memory_ordering_matches_paper() {
        // Paper Tables XIII–XIV: MC consumes the least memory, RSS the most.
        let g = demo_graph();
        let mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let lp = LazyPropagation::new(&g, StdRng::seed_from_u64(1));
        let rss = RecursiveStratified::new(&g, 3, StdRng::seed_from_u64(1));
        assert!(mc.aux_memory_bytes() < lp.aux_memory_bytes());
        assert!(lp.aux_memory_bytes() < rss.aux_memory_bytes());
    }
}
