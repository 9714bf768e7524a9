//! Direct estimators of `τ(U)` and `γ(U)` for a *given* node set.
//!
//! Algorithm 1 estimates τ̂ for every candidate simultaneously; when only a
//! handful of fixed sets matter (e.g. scoring the EDS / core / truss
//! baselines, Tables III–IV), it is cheaper to sample worlds and test the
//! sets directly: `U` induces a densest subgraph iff its induced density
//! equals the world's ρ\* (which skips the all-subgraph enumeration), and
//! `U` is contained in a densest subgraph iff it is contained in the
//! maximum-sized one (footnote 5).

use crate::api::{NoProgress, Stream, WorldLoop};
use crate::control::RunControl;
use densest::solve::instances_of;
use densest::{max_density, max_sized_densest, Density, DensityNotion};
use sampling::WorldSampler;
use ugraph::{nodeset, Graph, NodeId, UncertainGraph};

/// Estimated `τ̂(U)` for each of the given node sets, from θ sampled worlds.
pub fn estimate_tau_for<S: WorldSampler>(
    g: &UncertainGraph,
    sampler: &mut S,
    notion: &DensityNotion,
    sets: &[Vec<NodeId>],
    theta: usize,
) -> Vec<f64> {
    assert!(theta > 0);
    let mut hits = vec![0u32; sets.len()];
    count_worlds(g, sampler, theta, &mut hits, |world, hits| {
        let Some(rho) = max_density(world, notion) else {
            return;
        };
        let inst = instances_of(world, notion);
        for (i, set) in sets.iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            let cnt = inst.count_within(world.num_nodes(), set);
            if cnt > 0 && Density::new(cnt, set.len() as u64) == rho {
                hits[i] += 1;
            }
        }
    });
    hits.iter().map(|&h| h as f64 / theta as f64).collect()
}

/// Estimated `γ̂(U)` for each of the given node sets, from θ sampled worlds.
pub fn estimate_gamma_for<S: WorldSampler>(
    g: &UncertainGraph,
    sampler: &mut S,
    notion: &DensityNotion,
    sets: &[Vec<NodeId>],
    theta: usize,
) -> Vec<f64> {
    assert!(theta > 0);
    let sorted: Vec<Vec<NodeId>> = sets
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            s
        })
        .collect();
    let mut hits = vec![0u32; sets.len()];
    count_worlds(g, sampler, theta, &mut hits, |world, hits| {
        let Some((_, max_sized)) = max_sized_densest(world, notion) else {
            return;
        };
        for (i, set) in sorted.iter().enumerate() {
            if !set.is_empty() && nodeset::is_subset(set, &max_sized) {
                hits[i] += 1;
            }
        }
    });
    hits.iter().map(|&h| h as f64 / theta as f64).collect()
}

/// Feeds θ worlds drawn from `sampler` to `count` on one lane.
fn count_worlds<S: WorldSampler>(
    g: &UncertainGraph,
    sampler: &mut S,
    theta: usize,
    hits: &mut Vec<u32>,
    count: impl Fn(&Graph, &mut Vec<u32>) + Sync,
) {
    WorldLoop {
        g,
        limit: theta,
        stride: 0,
        ctrl: &RunControl::unbounded(),
        progress: &NoProgress,
        ranks: false,
    }
    .run(
        Stream::Local(sampler),
        vec![hits],
        |hits, world, _: &mut [()]| count(world, hits),
        None,
        |_| {},
        |_| {},
    )
    .expect("an unbounded RunControl never interrupts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sampling::MonteCarlo;

    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    #[test]
    fn direct_tau_matches_table1() {
        let g = fig1();
        let sets = vec![vec![1, 3], vec![0, 2], vec![0, 1, 2, 3]];
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(3));
        let taus = estimate_tau_for(&g, &mut mc, &DensityNotion::Edge, &sets, 8000);
        assert!((taus[0] - 0.42).abs() < 0.02, "{taus:?}");
        assert!((taus[1] - 0.24).abs() < 0.02, "{taus:?}");
        assert!((taus[2] - 0.28).abs() < 0.02, "{taus:?}");
    }

    #[test]
    fn direct_gamma_matches_example3() {
        let g = fig1();
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(5));
        let gammas = estimate_gamma_for(&g, &mut mc, &DensityNotion::Edge, &[vec![1, 3]], 8000);
        assert!((gammas[0] - 0.7).abs() < 0.02, "{gammas:?}");
    }

    #[test]
    fn direct_agrees_with_algorithm1_estimates() {
        let g = fig1();
        let sets = vec![vec![0, 1], vec![0, 1, 3]];
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(9));
        let direct = estimate_tau_for(&g, &mut mc, &DensityNotion::Edge, &sets, 6000);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(9));
        let alg1 = match crate::api::Query::mpds(DensityNotion::Edge)
            .theta(6000)
            .k(10)
            .run_with_sampler(&g, &mut mc)
            .unwrap()
            .details
        {
            crate::api::RunDetails::Mpds(r) => r,
            crate::api::RunDetails::Nds(_) => unreachable!("Query::mpds yields MPDS details"),
        };
        for (i, set) in sets.iter().enumerate() {
            // Same seed, same worlds: the two estimators must agree exactly.
            assert!((direct[i] - alg1.tau_hat(set)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_sets_and_unrelated_sets_score_zero() {
        let g = fig1();
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let taus = estimate_tau_for(
            &g,
            &mut mc,
            &DensityNotion::Edge,
            &[vec![], vec![2, 3]],
            500,
        );
        assert_eq!(taus[0], 0.0);
        assert_eq!(taus[1], 0.0); // {C, D} has no edge, never densest
    }
}
