//! Random graph generators.
//!
//! Used both for the paper's synthetic accuracy experiments (Erdős–Rényi and
//! Barabási–Albert graphs of §VI-H) and for the scaled stand-ins of the
//! paper's large real datasets (see [`crate::datasets`]).

use crate::graph::{Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly from all
/// node pairs. Panics if `m` exceeds `n(n-1)/2`.
pub fn erdos_renyi_nm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max = n * n.saturating_sub(1) / 2;
    assert!(m <= max, "m = {m} exceeds the {max} possible edges");
    let mut g = GraphBuilder::new(n);
    if 3 * m >= max {
        // Dense regime: shuffle all pairs and take a prefix.
        let mut pairs = Vec::with_capacity(max);
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                pairs.push((u, v));
            }
        }
        pairs.shuffle(rng);
        for &(u, v) in pairs.iter().take(m) {
            g.add_edge(u, v);
        }
    } else {
        // Sparse regime: rejection sampling.
        let mut chosen = std::collections::HashSet::with_capacity(m);
        while chosen.len() < m {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u == v {
                continue;
            }
            let e = if u < v { (u, v) } else { (v, u) };
            if chosen.insert(e) {
                g.add_edge(e.0, e.1);
            }
        }
    }
    g.build()
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach + 1` nodes, then each new node attaches to `attach` distinct
/// existing nodes chosen proportionally to degree.
pub fn barabasi_albert<R: Rng>(n: usize, attach: usize, rng: &mut R) -> Graph {
    barabasi_albert_builder(n, attach, rng).build()
}

/// [`barabasi_albert`] stopped one step short of CSR assembly, so callers
/// that keep planting extra edges (e.g. [`community_backbone`]) can extend
/// the builder before paying for the build.
fn barabasi_albert_builder<R: Rng>(n: usize, attach: usize, rng: &mut R) -> GraphBuilder {
    assert!(attach >= 1 && n > attach, "need n > attach >= 1");
    let mut g = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is degree-proportional.
    let mut endpoints: Vec<NodeId> = Vec::new();
    for u in 0..=attach as NodeId {
        for v in (u + 1)..=attach as NodeId {
            g.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (attach + 1)..n {
        let v = v as NodeId;
        // BTreeSet keeps target iteration order deterministic per seed.
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < attach {
            let t = *endpoints
                .as_slice()
                .choose(rng)
                .expect("endpoint list non-empty");
            targets.insert(t);
        }
        for &t in &targets {
            g.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// Sparse planted communities for large graphs: a BA-style sparse backbone
/// plus `communities.len()` dense planted groups (node-index ranges) whose
/// internal pairs are added with probability `p_in`.
///
/// The dense groups are what make the MPDS/NDS experiments interesting —
/// they create worlds with clear densest subgraphs — while the backbone
/// supplies realistic degree skew at scale.
pub fn community_backbone<R: Rng>(
    n: usize,
    backbone_attach: usize,
    community_sizes: &[usize],
    p_in: f64,
    rng: &mut R,
) -> (Graph, Vec<usize>) {
    let mut g = barabasi_albert_builder(n, backbone_attach, rng);
    let mut labels = vec![usize::MAX; n];
    let mut start = 0usize;
    for (c, &size) in community_sizes.iter().enumerate() {
        assert!(start + size <= n, "community sizes exceed n");
        for u in start..start + size {
            labels[u] = c;
            for v in (u + 1)..start + size {
                if rng.gen_bool(p_in) && !g.has_edge(u as NodeId, v as NodeId) {
                    g.add_edge(u as NodeId, v as NodeId);
                }
            }
        }
        start += size;
    }
    (g.build(), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn er_nm_exact_edges() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_nm(20, 30, &mut rng);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 30);
    }

    #[test]
    fn er_nm_dense_regime() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_nm(6, 14, &mut rng);
        assert_eq!(g.num_edges(), 14);
        // Complete graph corner case.
        let g = erdos_renyi_nm(5, 10, &mut rng);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn ba_edge_count_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(42);
        let (n, attach) = (50, 3);
        let g = barabasi_albert(n, attach, &mut rng);
        // Seed clique has C(attach+1, 2) edges, each later node adds `attach`.
        let expected = (attach + 1) * attach / 2 + (n - attach - 1) * attach;
        assert_eq!(g.num_edges(), expected);
        assert_eq!(g.connected_components().len(), 1);
    }

    #[test]
    fn ba_is_deterministic_per_seed() {
        let g1 = barabasi_albert(30, 2, &mut StdRng::seed_from_u64(9));
        let g2 = barabasi_albert(30, 2, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn community_backbone_plants_dense_groups() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, labels) = community_backbone(200, 2, &[12, 10], 0.95, &mut rng);
        assert_eq!(g.num_nodes(), 200);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 12);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 10);
        // First planted group should be near-complete: >= 80% of its pairs.
        let cnt = g.induced_edge_count(&(0..12).collect::<Vec<_>>());
        assert!(cnt >= 12 * 11 / 2 * 8 / 10, "got {cnt}");
    }
}
