//! Monte Carlo sampling: one independent Bernoulli flip per edge per world.
//! The paper's default strategy (§III-A) — no auxiliary state at all.

use crate::{stream_seed, WorldSampler};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;
use ugraph::{EdgeMask, UncertainGraph};

/// Independent per-edge Bernoulli sampler.
///
/// Edge `e` is present when `rng.gen_bool(p(e))` would say so, and the
/// sampler draws exactly the same stream: one `next_u64` per edge, in edge
/// order. It flips the coin in integers. `gen_bool(p)` tests
/// `(x >> 11) · 2⁻⁵³ < p` for the draw `x`. The left side is an exact
/// multiple of 2⁻⁵³, so the test holds exactly when
/// `(x >> 11) < ⌈p · 2⁵³⌉`, the edge's
/// [`UncertainGraph::presence_thresholds`] entry. Those thresholds are
/// built once per graph and shared by all its samplers, and a world's mask
/// is written 64 edges a word.
pub struct MonteCarlo {
    thresholds: Arc<[u64]>,
    rng: StdRng,
}

impl MonteCarlo {
    /// Builds a sampler over `g`'s edge probabilities, consuming `rng`.
    pub fn new(g: &UncertainGraph, rng: StdRng) -> Self {
        MonteCarlo {
            thresholds: g.presence_thresholds(),
            rng,
        }
    }

    /// Builds the sampler for sub-stream `stream` of the root seed — the
    /// supported way to split a sample budget into independent batches.
    ///
    /// Seeding batch `i` with `root + i` looks harmless but correlates whole
    /// experiments: runs rooted at `r` and `r + 1` share all but one of their
    /// batch streams. [`stream_seed`] decorrelates every `(root, stream)`
    /// pair instead.
    pub fn with_stream(g: &UncertainGraph, root_seed: u64, stream: u64) -> Self {
        MonteCarlo::new(g, StdRng::seed_from_u64(stream_seed(root_seed, stream)))
    }
}

impl WorldSampler for MonteCarlo {
    fn num_edges(&self) -> usize {
        self.thresholds.len()
    }

    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        let (thresholds, rng) = (&self.thresholds, &mut self.rng);
        mask.refill_words(thresholds.len(), |w| {
            let chunk = &thresholds[64 * w..thresholds.len().min(64 * w + 64)];
            let mut word = 0u64;
            for (bit, &t) in chunk.iter().enumerate() {
                word |= u64::from((rng.next_u64() >> 11) < t) << bit;
            }
            word
        });
    }

    fn aux_memory_bytes(&self) -> usize {
        // The graph's threshold table (counted for comparability across
        // samplers, which all hold one per-edge array).
        self.thresholds.len() * std::mem::size_of::<u64>()
    }

    fn name(&self) -> &'static str {
        "MC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
        let mut a = MonteCarlo::new(&g, StdRng::seed_from_u64(5));
        let mut b = MonteCarlo::new(&g, StdRng::seed_from_u64(5));
        for _ in 0..50 {
            assert_eq!(a.next_mask(), b.next_mask());
        }
    }

    #[test]
    fn certain_edges_always_present() {
        let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)]);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(7));
        for _ in 0..100 {
            assert!(mc.next_mask()[0]);
        }
    }

    #[test]
    fn mask_into_matches_vec_path() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 0.3), (0, 2, 0.7), (1, 3, 0.5), (2, 3, 0.9)],
        );
        let mut a = MonteCarlo::new(&g, StdRng::seed_from_u64(11));
        let mut b = MonteCarlo::new(&g, StdRng::seed_from_u64(11));
        let mut mask = EdgeMask::new(0);
        for _ in 0..200 {
            a.next_mask_into(&mut mask);
            assert_eq!(mask.to_bools(), b.next_mask());
        }
    }

    /// The probabilities the threshold identity is most likely to get
    /// wrong: the smallest, an exact half, the largest below 1, and 1.
    const EDGE_CASES: [f64; 4] = [
        1.0 / (1u64 << 60) as f64,
        0.5,
        1.0 - 1.0 / (1u64 << 53) as f64,
        1.0,
    ];

    /// The first `m` pairs `u < v` in lexicographic order, with one
    /// probability each: half of them edge cases, the rest uniform 53-bit
    /// fractions, some one ulp off a multiple of 2⁻⁵³.
    fn universe(m: usize, seed: u64) -> UncertainGraph {
        let n = (1..).find(|&n: &usize| n * (n - 1) / 2 >= m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..n as u32).flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)));
        let edges: Vec<(u32, u32, f64)> = pairs
            .take(m)
            .map(|(u, v)| {
                let draw = rng.next_u64();
                let k = (draw >> 11).max(1) as f64;
                let p = match draw % 8 {
                    0..=3 => EDGE_CASES[(draw % 4) as usize],
                    4 => f64::from_bits((k / (1u64 << 53) as f64).to_bits() + 1).min(1.0),
                    _ => k / (1u64 << 53) as f64,
                };
                (u, v, p)
            })
            .collect();
        UncertainGraph::from_weighted_edges(n, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The integer-threshold masks are the `gen_bool` masks, bit for
        /// bit, over universes on both sides of a word boundary and the
        /// size of lastfm.
        #[test]
        fn threshold_masks_equal_gen_bool_masks(
            which in 0usize..5,
            graph_seed in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let m = [1, 63, 64, 65, 20_231][which];
            let g = universe(m, graph_seed);
            prop_assert_eq!(g.num_edges(), m);
            // Each threshold is the exact boundary of `gen_bool`'s test:
            // the draw below it passes, the draw at it fails.
            let unit = |k: u64| k as f64 / (1u64 << 53) as f64;
            for (&t, &p) in g.presence_thresholds().iter().zip(g.probs()) {
                prop_assert!(t >= 1 && unit(t - 1) < p);
                prop_assert!(t == 1 << 53 || unit(t) >= p);
            }
            let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(seed));
            let mut reference = StdRng::seed_from_u64(seed);
            let mut mask = EdgeMask::new(0);
            for _ in 0..4 {
                mc.next_mask_into(&mut mask);
                let expected: Vec<bool> =
                    g.probs().iter().map(|&p| reference.gen_bool(p)).collect();
                prop_assert_eq!(mask.to_bools(), expected);
            }
        }
    }

    /// Regression test for the batch-correlation bug: deriving batch `i`'s
    /// stream as `root + i` made run(root=1)'s batch 1 identical to
    /// run(root=2)'s batch 0. `with_stream` must keep such pairs disjoint.
    #[test]
    fn adjacent_roots_do_not_share_batch_streams() {
        let edges: Vec<(u32, u32, f64)> = (0..32).map(|i| (i, i + 1, 0.5)).collect();
        let g = UncertainGraph::from_weighted_edges(33, &edges);
        let draw = |root: u64, stream: u64| -> Vec<Vec<bool>> {
            let mut mc = MonteCarlo::with_stream(&g, root, stream);
            (0..16).map(|_| mc.next_mask()).collect()
        };
        // The offending overlap pattern under the old scheme:
        assert_ne!(draw(1, 1), draw(2, 0));
        assert_ne!(draw(7, 3), draw(8, 2));
        // And sub-streams of one root are mutually distinct...
        assert_ne!(draw(1, 0), draw(1, 1));
        // ...while remaining reproducible.
        assert_eq!(draw(1, 1), draw(1, 1));
    }

    #[test]
    fn stream_seed_has_no_additive_structure() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for root in 0..64u64 {
            for stream in 0..64u64 {
                assert!(
                    seen.insert(stream_seed(root, stream)),
                    "collision at ({root}, {stream})"
                );
            }
        }
    }
}
