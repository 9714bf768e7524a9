//! Frank–Wolfe / kclist++-style iterative density solver (Sun et al. \[57\]).
//!
//! The paper's Algorithms 2 and 4 compute ρ\* with the convex-programming
//! method of \[57\]; our main pipeline uses exact Dinkelbach flow iteration
//! instead (see `solve.rs`), and this module provides the \[57\]-style solver
//! for the ablation benches ("ρ\* oracle: flow vs Frank–Wolfe").
//!
//! Each instance holds one unit of weight and repeatedly re-assigns it to its
//! currently-lightest member node (a Frank–Wolfe step on the dual of the
//! densest-subgraph LP). After `T` rounds, sweeping node prefixes in
//! decreasing weight order yields a candidate densest subgraph whose exact
//! density lower-bounds ρ\*; with enough rounds the sweep recovers ρ\*
//! exactly.

use crate::density::Density;
use crate::instances::InstanceSet;
use ugraph::NodeId;

/// Result of the Frank–Wolfe sweep.
#[derive(Debug, Clone)]
pub struct FwResult {
    /// Exact density of the best prefix found (a lower bound on ρ\*).
    pub density: Density,
    /// The corresponding node set (sorted).
    pub subgraph: Vec<NodeId>,
    /// Number of weight-reassignment rounds performed.
    pub iterations: usize,
}

/// Runs `iterations` rounds of sequential Frank–Wolfe weight assignment and
/// extracts the best prefix subgraph. Returns `None` if there are no
/// instances.
pub fn frank_wolfe(n: usize, instances: &InstanceSet, iterations: usize) -> Option<FwResult> {
    if instances.count() == 0 {
        return None;
    }
    assert!(iterations >= 1);
    // r[v] = cumulative weight on v. Every round each instance adds one unit
    // to its currently-lightest member (the kclist++ `SEQ` rule); dividing by
    // the round count recovers the Frank–Wolfe average implicitly, and the
    // prefix sweep below only needs the ordering of r.
    let mut r = vec![0f64; n];
    for _ in 0..iterations {
        for inst in instances.iter() {
            let &v = inst
                .iter()
                .min_by(|&&a, &&b| r[a as usize].partial_cmp(&r[b as usize]).unwrap())
                .expect("instances are non-empty");
            r[v as usize] += 1.0;
        }
    }

    // Sweep: order nodes by weight descending, count for every prefix the
    // instances fully inside it, and keep the densest prefix.
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by(|&a, &b| {
        r[b as usize]
            .partial_cmp(&r[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut rank = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    // An instance is inside prefix `i` iff the max rank of its members ≤ i.
    let mut completed_at = vec![0u64; n];
    for inst in instances.iter() {
        let maxr = inst.iter().map(|&v| rank[v as usize]).max().unwrap();
        completed_at[maxr as usize] += 1;
    }
    let mut best = Density::ZERO;
    let mut best_len = 1usize;
    let mut running = 0u64;
    for i in 0..n {
        running += completed_at[i];
        if running == 0 {
            continue;
        }
        let d = Density::new(running, (i + 1) as u64);
        if d > best {
            best = d;
            best_len = i + 1;
        }
    }
    let mut subgraph: Vec<NodeId> = order[..best_len].to_vec();
    subgraph.sort_unstable();
    Some(FwResult {
        density: best,
        subgraph,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::enumerate_cliques;
    use crate::notion::DensityNotion;
    use crate::solve::max_density;
    use ugraph::Graph;

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
    fn fw_finds_k4_density() {
        let g = k4_tail();
        let inst = enumerate_cliques(&g, 2);
        let r = frank_wolfe(6, &inst, 16).unwrap();
        assert_eq!(r.density, Density::new(6, 4));
        assert_eq!(r.subgraph, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fw_none_without_instances() {
        let g = Graph::new(3);
        let inst = enumerate_cliques(&g, 2);
        assert!(frank_wolfe(3, &inst, 4).is_none());
    }

    #[test]
    fn fw_density_is_always_a_lower_bound() {
        let mut seed = 0x0bad_cafeu64;
        for _ in 0..15 {
            let mut edges = Vec::new();
            for u in 0..8u32 {
                for v in (u + 1)..8 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 45 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(8, &edges);
            let inst = enumerate_cliques(&g, 2);
            let Some(fw) = frank_wolfe(8, &inst, 8) else {
                continue;
            };
            let exact = max_density(&g, &DensityNotion::Edge).unwrap();
            assert!(fw.density <= exact);
        }
    }

    #[test]
    fn fw_converges_to_exact_on_small_graphs() {
        // With generous iteration counts the sweep recovers ρ* on small
        // graphs (the paper's T* is small too — e.g. 11 on Twitter).
        let mut seed = 0x7777_1234u64;
        for _ in 0..10 {
            let mut edges = Vec::new();
            for u in 0..7u32 {
                for v in (u + 1)..7 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 50 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(7, &edges);
            let inst = enumerate_cliques(&g, 2);
            let Some(fw) = frank_wolfe(7, &inst, 256) else {
                continue;
            };
            let exact = max_density(&g, &DensityNotion::Edge).unwrap();
            assert_eq!(fw.density, exact);
        }
    }

    #[test]
    fn fw_triangle_density() {
        let g = k4_tail();
        let tris = enumerate_cliques(&g, 3);
        let r = frank_wolfe(6, &tris, 32).unwrap();
        assert_eq!(r.density, Density::new(4, 4));
        assert_eq!(r.subgraph, vec![0, 1, 2, 3]);
    }
}
