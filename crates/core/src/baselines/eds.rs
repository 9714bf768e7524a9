//! Expected densest subgraph (EDS) — Zou \[44\], extended to clique and
//! pattern densities per the paper's Appendix C.
//!
//! By linearity of expectation, the expected edge density of `U` equals
//! `Σ_{e ⊆ U} p(e) / |U|`, i.e. the *weighted* edge density with weights
//! `p(e)`; likewise the expected pattern density is the weighted pattern
//! density with instance weights `Π_{e ∈ ω} p(e)` (paper Theorem 7). The
//! maximizer is found exactly (up to the fixed-point quantization of the
//! weights) with the same parameterized min-cut machinery as the
//! deterministic solvers: probabilities are mapped to parts-per-million
//! integers so the Dinkelbach iteration runs on exact integer capacities.

use densest::{Density, DensityNotion};
use maxflow::FlowNetwork;
use ugraph::{NodeId, NodeSet, UncertainGraph};

/// Fixed-point scale for probabilities / instance weights.
const SCALE: f64 = 1_000_000.0;

/// An expected-densest-subgraph solution.
#[derive(Debug, Clone)]
pub struct EdsResult {
    /// The maximizing node set (maximum-sized among the maximizers).
    pub node_set: NodeSet,
    /// Its expected density (instances per node, in expectation).
    pub expected_density: f64,
}

/// Maximum expected-density subgraph for the given notion. `None` when the
/// graph has no instances (no edges, cliques, or pattern embeddings).
pub fn expected_densest_subgraph(g: &UncertainGraph, notion: &DensityNotion) -> Option<EdsResult> {
    // Instance weights: Π of the member edge probabilities, fixed-pointed.
    // Instances whose weight rounds to zero are dropped (they contribute
    // < 1e-6 to any expected density).
    let inst = densest::solve::instances_of(g.graph(), notion);
    let arity = notion.arity() as u64;
    let gr = g.graph();
    let mut weighted: Vec<(Vec<NodeId>, u64)> = Vec::new();
    if matches!(notion, DensityNotion::Edge) {
        for (i, &(u, v)) in gr.edges().iter().enumerate() {
            let w = (g.prob(i) * SCALE).round() as u64;
            if w > 0 {
                weighted.push((vec![u, v], w));
            }
        }
    } else {
        for nodes in inst.iter() {
            // Weight = product of the probabilities of the instance's edges.
            // For non-induced instances on the same node set the edge sets
            // differ, but density only depends on node sets; summing the
            // per-embedding products is exactly the expected instance count
            // (paper Theorem 7). We recover each instance's edges by taking
            // all present edges among its nodes — correct for cliques, and
            // for patterns we sum embedding weights via the matcher below.
            let w = instance_weight(g, nodes, notion);
            if w > 0 {
                weighted.push((nodes.to_vec(), w));
            }
        }
    }
    if weighted.is_empty() {
        return None;
    }
    let n = gr.num_nodes();
    // Group by node set (weighted Algorithm 7 network).
    let mut groups: std::collections::HashMap<Vec<NodeId>, u64> = std::collections::HashMap::new();
    for (nodes, w) in weighted {
        *groups.entry(nodes).or_insert(0) += w;
    }
    let total_w: u64 = groups.values().sum();
    let group_list: Vec<(Vec<NodeId>, u64)> = groups.into_iter().collect();

    // Dinkelbach on the weighted density (num = fixed-point weight).
    let mut alpha = whole_density(&group_list, n);
    loop {
        let (mut net, s, t) = build_weighted_network(n, &group_list, arity, alpha);
        let flow = net.max_flow(s, t);
        let trivial = arity * total_w * alpha.den;
        debug_assert!(flow <= trivial);
        if flow == trivial {
            let reach_t = net.can_reach(t);
            let node_set: NodeSet = (0..n as NodeId)
                .filter(|&v| !reach_t[v as usize] && participates(&group_list, v))
                .collect();
            let set = if node_set.is_empty() {
                // Degenerate guard; fall back to the whole support.
                support_nodes(&group_list)
            } else {
                node_set
            };
            let expected_density =
                weight_within(&group_list, n, &set) as f64 / (SCALE * set.len() as f64);
            return Some(EdsResult {
                node_set: set,
                expected_density,
            });
        }
        let reach = net.reachable_from(s);
        let witness: Vec<NodeId> = (0..n as NodeId).filter(|&v| reach[v as usize]).collect();
        debug_assert!(!witness.is_empty());
        let w = weight_within(&group_list, n, &witness);
        let d = Density::new(w, witness.len() as u64);
        debug_assert!(d > alpha);
        alpha = d;
    }
}

/// Sum of embedding weights of all instances on `nodes` — for cliques this
/// is the product over the clique's edges; for general patterns we re-run
/// the matcher restricted to the node set and sum per-embedding products.
fn instance_weight(g: &UncertainGraph, nodes: &[NodeId], notion: &DensityNotion) -> u64 {
    let gr = g.graph();
    match notion {
        DensityNotion::Edge => unreachable!("handled by caller"),
        DensityNotion::Clique(_) => {
            let mut p = 1.0f64;
            for (i, &u) in nodes.iter().enumerate() {
                for &v in &nodes[i + 1..] {
                    p *= g
                        .edge_prob(u, v)
                        .expect("clique instances have all pair edges");
                }
            }
            (p * SCALE).round() as u64
        }
        DensityNotion::Pattern(pat) => {
            // The instance `nodes` entry corresponds to ONE embedding's edge
            // image; recover its probability by multiplying the pattern-edge
            // images. `instances_of` already deduplicated by edge image, so
            // re-match the pattern on the induced subgraph and pick weights
            // per distinct edge image. To stay simple and exact we enumerate
            // the pattern on the induced subgraph and divide the total weight
            // evenly across the duplicate node-set entries.
            let (sub, map) = gr.induced_subgraph(nodes);
            let inst = densest::instances::enumerate_pattern(&sub, pat);
            // Total weight of edge-image-distinct instances covering ALL of
            // `nodes` (skip ones on proper subsets; they appear as their own
            // instance entries).
            let full = inst.iter().filter(|i| i.len() == nodes.len()).count();
            if full == 0 {
                return 0;
            }
            // enumerate_pattern lost the edge images; recompute weights by
            // re-running a tiny matcher that keeps them.
            let images = pattern_edge_images(&sub, pat);
            let mut total = 0.0f64;
            for image in images {
                // Instance must span every node of `nodes`.
                let mut covered: Vec<u32> = image.iter().flat_map(|&(a, b)| [a, b]).collect();
                covered.sort_unstable();
                covered.dedup();
                if covered.len() != nodes.len() {
                    continue;
                }
                let mut p = 1.0f64;
                for &(a, b) in &image {
                    p *= g
                        .edge_prob(map[a as usize], map[b as usize])
                        .expect("edge exists in world");
                }
                total += p;
            }
            let entries = full as f64;
            ((total / entries) * SCALE).round() as u64
        }
    }
}

/// All distinct pattern edge-images in `g` (local helper for EDS weights).
fn pattern_edge_images(g: &ugraph::Graph, pat: &ugraph::Pattern) -> Vec<Vec<(u32, u32)>> {
    use std::collections::HashSet;
    let k = pat.num_nodes();
    let n = g.num_nodes();
    let mut images: HashSet<Vec<(u32, u32)>> = HashSet::new();
    let mut map: Vec<u32> = Vec::with_capacity(k);
    fn rec(
        g: &ugraph::Graph,
        pat: &ugraph::Pattern,
        map: &mut Vec<u32>,
        n: usize,
        images: &mut std::collections::HashSet<Vec<(u32, u32)>>,
    ) {
        let pos = map.len();
        if pos == pat.num_nodes() {
            let mut image: Vec<(u32, u32)> = pat
                .edges()
                .iter()
                .map(|&(a, b)| {
                    let (x, y) = (map[a as usize], map[b as usize]);
                    if x < y {
                        (x, y)
                    } else {
                        (y, x)
                    }
                })
                .collect();
            image.sort_unstable();
            images.insert(image);
            return;
        }
        for v in 0..n as u32 {
            if map.contains(&v) {
                continue;
            }
            // Check pattern edges to already-placed nodes.
            let ok = (0..pos).all(|j| !pat.has_edge(pos, j) || g.has_edge(v, map[j]));
            if ok {
                map.push(v);
                rec(g, pat, map, n, images);
                map.pop();
            }
        }
    }
    rec(g, pat, &mut map, n, &mut images);
    images.into_iter().collect()
}

fn whole_density(groups: &[(Vec<NodeId>, u64)], n: usize) -> Density {
    let support = support_nodes(groups);
    let w = weight_within(groups, n, &support);
    Density::new(w, support.len().max(1) as u64)
}

fn support_nodes(groups: &[(Vec<NodeId>, u64)]) -> NodeSet {
    let mut s: Vec<NodeId> = groups.iter().flat_map(|(g, _)| g.iter().copied()).collect();
    s.sort_unstable();
    s.dedup();
    s
}

fn participates(groups: &[(Vec<NodeId>, u64)], v: NodeId) -> bool {
    groups.iter().any(|(g, _)| g.contains(&v))
}

fn weight_within(groups: &[(Vec<NodeId>, u64)], n: usize, nodes: &[NodeId]) -> u64 {
    let mut mark = vec![false; n];
    for &v in nodes {
        mark[v as usize] = true;
    }
    groups
        .iter()
        .filter(|(g, _)| g.iter().all(|&v| mark[v as usize]))
        .map(|&(_, w)| w)
        .sum()
}

/// Weighted grouped flow network (Algorithm 7 with weights), scaled by the
/// density denominator.
fn build_weighted_network(
    n: usize,
    groups: &[(Vec<NodeId>, u64)],
    arity: u64,
    alpha: Density,
) -> (FlowNetwork, usize, usize) {
    let (a, b) = (alpha.num, alpha.den);
    let s = n + groups.len();
    let t = s + 1;
    let mut net = FlowNetwork::new(n + groups.len() + 2);
    let mut wdeg = vec![0u64; n];
    for (nodes, w) in groups {
        for &v in nodes {
            wdeg[v as usize] += w;
        }
    }
    for v in 0..n {
        if wdeg[v] == 0 {
            continue; // isolated w.r.t. instances: never part of a maximizer
        }
        net.add_edge(s, v, b * wdeg[v], 0);
        net.add_edge(v, t, arity * a, 0);
    }
    for (gi, (nodes, w)) in groups.iter().enumerate() {
        for &v in nodes {
            net.add_edge(n + gi, v as usize, b * w * (arity - 1), 0);
            net.add_edge(v as usize, n + gi, b * w, 0);
        }
    }
    (net, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::Pattern;

    /// Brute-force expected densest subgraph over all subsets.
    fn brute_force(g: &UncertainGraph, notion: &DensityNotion) -> Option<f64> {
        let n = g.num_nodes();
        assert!(n <= 12);
        let inst = densest::solve::instances_of(g.graph(), notion);
        if inst.count() == 0 {
            return None;
        }
        let mut best = 0.0f64;
        for mask in 1u32..(1 << n) {
            let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| mask >> v & 1 == 1).collect();
            let d = expected_density_of(g, notion, &nodes);
            if d > best {
                best = d;
            }
        }
        Some(best)
    }

    /// Direct expected density of a node set (for validation).
    fn expected_density_of(g: &UncertainGraph, notion: &DensityNotion, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        match notion {
            DensityNotion::Edge => g.expected_edge_density(nodes),
            _ => {
                let (sub, map) = g.graph().induced_subgraph(nodes);
                let images = match notion {
                    DensityNotion::Clique(h) => densest::instances::enumerate_cliques(&sub, *h)
                        .iter()
                        .map(|c| {
                            let mut im = Vec::new();
                            for (i, &u) in c.iter().enumerate() {
                                for &v in &c[i + 1..] {
                                    im.push((u, v));
                                }
                            }
                            im
                        })
                        .collect::<Vec<_>>(),
                    DensityNotion::Pattern(p) => pattern_edge_images(&sub, p),
                    DensityNotion::Edge => unreachable!(),
                };
                let total: f64 = images
                    .iter()
                    .map(|image| {
                        image
                            .iter()
                            .map(|&(a, b)| g.edge_prob(map[a as usize], map[b as usize]).unwrap())
                            .product::<f64>()
                    })
                    .sum();
                total / nodes.len() as f64
            }
        }
    }

    #[test]
    fn edge_eds_on_fig1() {
        // Paper Table I: {A,B,C,D} has the maximum EED 0.375.
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
        let r = expected_densest_subgraph(&g, &DensityNotion::Edge).unwrap();
        assert_eq!(r.node_set, vec![0, 1, 2, 3]);
        assert!((r.expected_density - 0.375).abs() < 1e-6);
    }

    #[test]
    fn edge_eds_none_on_edgeless() {
        let g = UncertainGraph::from_weighted_edges(3, &[]);
        assert!(expected_densest_subgraph(&g, &DensityNotion::Edge).is_none());
    }

    #[test]
    fn edge_eds_prefers_strong_cluster() {
        // A strong triangle vs a weak K4: expected density decides.
        let g = UncertainGraph::from_weighted_edges(
            7,
            &[
                (0, 1, 0.9),
                (0, 2, 0.9),
                (1, 2, 0.9),
                (3, 4, 0.2),
                (3, 5, 0.2),
                (3, 6, 0.2),
                (4, 5, 0.2),
                (4, 6, 0.2),
                (5, 6, 0.2),
            ],
        );
        let r = expected_densest_subgraph(&g, &DensityNotion::Edge).unwrap();
        // Triangle: 2.7/3 = 0.9; K4: 1.2/4 = 0.3.
        assert_eq!(r.node_set, vec![0, 1, 2]);
        assert!((r.expected_density - 0.9).abs() < 1e-6);
    }

    #[test]
    fn cross_validate_edge_eds() {
        let mut seed = 0xeeee_1111u64;
        for trial in 0..15 {
            let mut edges = Vec::new();
            for u in 0..7u32 {
                for v in (u + 1)..7 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 45 {
                        let p = 0.05 + (seed % 90) as f64 / 100.0;
                        edges.push((u, v, p));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let g = UncertainGraph::from_weighted_edges(7, &edges);
            let r = expected_densest_subgraph(&g, &DensityNotion::Edge).unwrap();
            let best = brute_force(&g, &DensityNotion::Edge).unwrap();
            assert!(
                (r.expected_density - best).abs() < 1e-4,
                "trial {trial}: {} vs {best}",
                r.expected_density
            );
        }
    }

    #[test]
    fn cross_validate_clique_eds() {
        let mut seed = 0xcccc_2222u64;
        for trial in 0..10 {
            let mut edges = Vec::new();
            for u in 0..7u32 {
                for v in (u + 1)..7 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 55 {
                        let p = 0.1 + (seed % 85) as f64 / 100.0;
                        edges.push((u, v, p));
                    }
                }
            }
            let g = UncertainGraph::from_weighted_edges(7, &edges);
            let notion = DensityNotion::Clique(3);
            match (
                expected_densest_subgraph(&g, &notion),
                brute_force(&g, &notion),
            ) {
                (None, None) => {}
                (Some(r), Some(best)) => {
                    assert!(
                        (r.expected_density - best).abs() < 1e-4,
                        "trial {trial}: {} vs {best}",
                        r.expected_density
                    );
                }
                (a, b) => panic!("trial {trial}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cross_validate_pattern_eds() {
        let mut seed = 0xdddd_3333u64;
        for trial in 0..8 {
            let mut edges = Vec::new();
            for u in 0..6u32 {
                for v in (u + 1)..6 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 55 {
                        let p = 0.1 + (seed % 85) as f64 / 100.0;
                        edges.push((u, v, p));
                    }
                }
            }
            let g = UncertainGraph::from_weighted_edges(6, &edges);
            let notion = DensityNotion::Pattern(Pattern::two_star());
            match (
                expected_densest_subgraph(&g, &notion),
                brute_force(&g, &notion),
            ) {
                (None, None) => {}
                (Some(r), Some(best)) => {
                    assert!(
                        (r.expected_density - best).abs() < 1e-3,
                        "trial {trial}: {} vs {best}",
                        r.expected_density
                    );
                }
                (a, b) => panic!("trial {trial}: {a:?} vs {b:?}"),
            }
        }
    }
}
