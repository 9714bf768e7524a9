//! Heuristic dense-subgraph extraction (paper §III-C remark).
//!
//! For large worlds and expensive patterns, enumerating all ψ-instances and
//! running the flow machinery per sampled world is costly. The paper's
//! fallback runs the core decomposition w.r.t. ψ and returns the innermost
//! `(k_max, ψ)`-core — whose density is at least `ρ*/|V_ψ|` \[5\] — together
//! with every intermediate peeling suffix that is denser than it. These node
//! sets replace the exact densest-subgraph list in Algorithm 1's inner loop.

use crate::density::Density;
use crate::instances::InstanceSet;
use crate::notion::DensityNotion;
use crate::peeling::peel;
use crate::solve::instances_of;
use ugraph::{Graph, NodeId};

/// Result of the heuristic extraction on one deterministic graph.
#[derive(Debug, Clone)]
pub struct HeuristicDense {
    /// The densest of the returned subgraphs (exact density of that set).
    pub best_density: Density,
    /// Candidate dense node sets: the innermost core plus all denser peeling
    /// suffixes, deduplicated, sorted by density descending.
    pub subgraphs: Vec<Vec<NodeId>>,
}

/// Runs the heuristic for `notion` on `g`. Returns `None` when `g` has no
/// instances (consistent with [`crate::solve::all_densest`]).
pub fn heuristic_dense_subgraphs(g: &Graph, notion: &DensityNotion) -> Option<HeuristicDense> {
    let instances = instances_of(g, notion);
    heuristic_from_instances(g.num_nodes(), &instances)
}

/// Same as [`heuristic_dense_subgraphs`] but over pre-enumerated instances
/// (lets callers share the instance list with other steps).
pub fn heuristic_from_instances(n: usize, instances: &InstanceSet) -> Option<HeuristicDense> {
    if instances.count() == 0 {
        return None;
    }
    let peeling = peel(n, instances);
    // Core numbers are the running maximum of the removal degrees, so the
    // innermost core is a suffix of the peeling: the last nodes removed,
    // all at the largest core number.
    let order = &peeling.removal_order;
    let kmax = peeling.core_number[order[0] as usize];
    let c = order
        .iter()
        .take_while(|&&v| peeling.core_number[v as usize] == kmax)
        .count();
    let mut core = order[..c].to_vec();
    core.sort_unstable();
    let core_density = Density::new(peeling.suffix_counts[n - c], c as u64);

    // The innermost core, plus every peeling suffix strictly denser than it.
    let mut candidates: Vec<(Density, Vec<NodeId>)> = vec![(core_density, core)];
    for (nodes, cnt) in peeling.suffixes() {
        let d = Density::new(cnt, nodes.len() as u64);
        if d > core_density {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            candidates.push((d, sorted));
        }
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    candidates.dedup_by(|a, b| a.1 == b.1);
    let best_density = candidates[0].0;
    Some(HeuristicDense {
        best_density,
        subgraphs: candidates.into_iter().map(|(_, s)| s).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::max_density;

    fn k4_tail() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn heuristic_finds_k4() {
        let g = k4_tail();
        let h = heuristic_dense_subgraphs(&g, &DensityNotion::Edge).unwrap();
        assert_eq!(h.best_density, Density::new(6, 4));
        assert_eq!(h.subgraphs[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn heuristic_none_on_empty() {
        let g = Graph::new(4);
        assert!(heuristic_dense_subgraphs(&g, &DensityNotion::Edge).is_none());
    }

    #[test]
    fn heuristic_quality_guarantee() {
        // Paper [5]: the innermost core density is >= ρ*/|V_ψ|. Our returned
        // best is at least the core's density, so the same bound applies.
        let mut seed = 0x5eed_1234u64;
        for _ in 0..20 {
            let mut edges = Vec::new();
            for u in 0..9u32 {
                for v in (u + 1)..9 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 40 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(9, &edges);
            let notion = DensityNotion::Clique(3);
            let Some(exact) = max_density(&g, &notion) else {
                assert!(heuristic_dense_subgraphs(&g, &notion).is_none());
                continue;
            };
            let h = heuristic_dense_subgraphs(&g, &notion).unwrap();
            // best >= ρ*/3 (clique arity 3).
            assert!(
                Density::new(h.best_density.num * 3, h.best_density.den) >= exact,
                "heuristic {} vs exact {}",
                h.best_density,
                exact
            );
        }
    }

    #[test]
    fn subgraphs_are_sorted_by_density() {
        let g = k4_tail();
        let h = heuristic_dense_subgraphs(&g, &DensityNotion::Edge).unwrap();
        let densities: Vec<f64> = h
            .subgraphs
            .iter()
            .map(|s| {
                let inst = crate::solve::instances_of(&g, &DensityNotion::Edge);
                inst.count_within(6, s) as f64 / s.len() as f64
            })
            .collect();
        assert!(densities.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }
}
