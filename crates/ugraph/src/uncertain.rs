//! Uncertain graphs `G = (V, E, p)` and possible-world semantics.
//!
//! An [`UncertainGraph`] is a deterministic [`Graph`] plus one existence
//! probability per canonical edge. Under the independence assumption the graph
//! is a distribution over `2^m` possible worlds (paper Eq. 1); this module
//! provides world materialization from edge masks, exhaustive world iteration
//! for the exact solvers, and expected-density helpers.

use crate::bitset::{EdgeMask, NodeBitSet};
use crate::graph::{Graph, NodeId};
use std::sync::{Arc, OnceLock};

/// An uncertain graph: every edge `e` of the underlying deterministic graph
/// exists independently with probability `p(e) ∈ (0, 1]`.
#[derive(Debug, Clone)]
pub struct UncertainGraph {
    graph: Graph,
    probs: Vec<f64>,
    /// Probability of the edge behind every CSR arc (parallel to
    /// [`Graph::arc_targets`]), so neighborhood-with-probability scans are
    /// one contiguous slice pair instead of per-edge binary searches.
    arc_probs: Vec<f64>,
    /// [`UncertainGraph::presence_thresholds`], built on first use.
    thresholds: OnceLock<Arc<[u64]>>,
}

impl UncertainGraph {
    /// Wraps a deterministic graph with per-edge probabilities, parallel to
    /// [`Graph::edges`].
    ///
    /// # Panics
    /// If the lengths disagree or any probability lies outside `(0, 1]`.
    pub fn new(graph: Graph, probs: Vec<f64>) -> Self {
        assert_eq!(
            graph.num_edges(),
            probs.len(),
            "one probability per edge required"
        );
        for (i, &p) in probs.iter().enumerate() {
            assert!(
                p > 0.0 && p <= 1.0,
                "edge {i} has probability {p} outside (0, 1]"
            );
        }
        let arc_probs = graph
            .arc_edge_ids()
            .iter()
            .map(|&e| probs[e as usize])
            .collect();
        UncertainGraph {
            graph,
            probs,
            arc_probs,
            thresholds: OnceLock::new(),
        }
    }

    /// Builds directly from an edge list with probabilities.
    pub fn from_weighted_edges(n: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let graph = Graph::from_edges(
            n,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        );
        // Probabilities must be re-ordered to the canonical edge order.
        let mut probs = vec![0.0; graph.num_edges()];
        for &(u, v, p) in edges {
            let idx = graph.edge_index(u, v).expect("edge just inserted");
            probs[idx] = p;
        }
        UncertainGraph::new(graph, probs)
    }

    /// The underlying deterministic graph (the paper's "deterministic version",
    /// used by the DDS baseline of §VI-C).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes in the underlying graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of (possible) edges in the underlying graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Probability of the `i`-th canonical edge.
    #[inline]
    pub fn prob(&self, edge_index: usize) -> f64 {
        self.probs[edge_index]
    }

    /// All edge probabilities, parallel to [`Graph::edges`].
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The integer form of every edge probability, parallel to
    /// [`Graph::edges`]: `⌈p(e) · 2⁵³⌉`. A uniform 53-bit draw `k` satisfies
    /// `k · 2⁻⁵³ < p(e)` exactly when `k` is below this threshold, so a
    /// Bernoulli flip is one integer comparison. Built on the first call
    /// and shared by every later caller (and every clone of this graph).
    pub fn presence_thresholds(&self) -> Arc<[u64]> {
        self.thresholds
            .get_or_init(|| {
                // p · 2⁵³ is exact (a power-of-two scaling of a normal
                // double), so the ceiling is the exact integer bound.
                self.probs
                    .iter()
                    .map(|&p| (p * (1u64 << 53) as f64).ceil() as u64)
                    .collect()
            })
            .clone()
    }

    /// Probability of edge `(u, v)`, if the edge exists in `E`.
    pub fn edge_prob(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.graph.edge_index(u, v).map(|i| self.probs[i])
    }

    /// Neighbors of `v` paired with the probability of each incident edge —
    /// two parallel contiguous slices, no per-edge lookups.
    #[inline]
    pub fn neighbors_with_probs(&self, v: NodeId) -> (&[NodeId], &[f64]) {
        let r = self.graph.arc_range(v);
        (&self.graph.arc_targets()[r.clone()], &self.arc_probs[r])
    }

    /// Materializes the possible world selected by `mask` (`mask[i]` = edge `i`
    /// is present). The world shares the node set `V`.
    pub fn world_from_mask(&self, mask: &[bool]) -> Graph {
        assert_eq!(mask.len(), self.num_edges());
        self.world_from_bitmap(&EdgeMask::from_bools(mask), Graph::default())
    }

    /// Materializes the possible world selected by an [`EdgeMask`], recycling
    /// `recycle`'s backing storage. This is the samplers' hot path: after the
    /// first few calls no allocation happens at all — the mask is a
    /// preallocated bitmap and the world's CSR arrays are rebuilt in place in
    /// `O(n + m/64 + m_world)`.
    pub fn world_from_bitmap(&self, mask: &EdgeMask, recycle: Graph) -> Graph {
        self.graph.filter_edges(mask, recycle)
    }

    /// Probability `Pr(G)` of the possible world selected by `mask`
    /// (paper Eq. 1).
    pub fn world_probability(&self, mask: &[bool]) -> f64 {
        assert_eq!(mask.len(), self.num_edges());
        let mut pr = 1.0;
        for (i, &present) in mask.iter().enumerate() {
            pr *= if present {
                self.probs[i]
            } else {
                1.0 - self.probs[i]
            };
        }
        pr
    }

    /// Iterates over all `2^m` possible worlds as `(mask, probability)`.
    ///
    /// Intended for the exact solvers on small graphs; panics if `m > 60`.
    pub fn iter_worlds(&self) -> WorldIter<'_> {
        assert!(
            self.num_edges() <= 60,
            "exhaustive world iteration requires m <= 60 (m = {})",
            self.num_edges()
        );
        WorldIter {
            ug: self,
            next: 0,
            total: 1u64 << self.num_edges(),
        }
    }

    /// Expected edge density of the subgraph induced by `nodes`
    /// (`Σ_{e ⊆ nodes} p(e) / |nodes|`): by linearity of expectation this is
    /// the expectation over possible worlds of the induced edge density, the
    /// quantity maximized by the EDS baseline \[44\].
    pub fn expected_edge_density(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        let mark = NodeBitSet::from_members(self.num_nodes(), nodes);
        let mut total = 0.0;
        for (i, &(u, v)) in self.graph.edges().iter().enumerate() {
            if mark.contains(u as usize) && mark.contains(v as usize) {
                total += self.probs[i];
            }
        }
        total / nodes.len() as f64
    }
}

/// Iterator over all possible worlds of a (small) uncertain graph.
pub struct WorldIter<'a> {
    ug: &'a UncertainGraph,
    next: u64,
    total: u64,
}

impl Iterator for WorldIter<'_> {
    type Item = (Vec<bool>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.total {
            return None;
        }
        let bits = self.next;
        self.next += 1;
        let m = self.ug.num_edges();
        let mask: Vec<bool> = (0..m).map(|i| bits >> i & 1 == 1).collect();
        let pr = self.ug.world_probability(&mask);
        Some((mask, pr))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.next) as usize;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 running example: a 4-node uncertain graph with edges
    /// (A,B):0.4, (A,C):0.4, (B,D):0.7 where A=0, B=1, C=2, D=3.
    ///
    /// These probabilities reproduce the possible-world probabilities of
    /// Table I: e.g. Pr(G1) = 0.6*0.6*0.3 = 0.108 ≈ 0.11 and
    /// Pr(G8) = 0.4*0.4*0.7 = 0.112 ≈ 0.11.
    pub(crate) fn fig1_example() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    #[test]
    fn construction_reorders_probs() {
        let ug = UncertainGraph::from_weighted_edges(3, &[(2, 1, 0.9), (1, 0, 0.1)]);
        assert_eq!(ug.edge_prob(0, 1), Some(0.1));
        assert_eq!(ug.edge_prob(2, 1), Some(0.9));
        assert_eq!(ug.edge_prob(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_zero_probability() {
        UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.0)]);
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let ug = fig1_example();
        let total: f64 = ug.iter_worlds().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(ug.iter_worlds().count(), 8);
    }

    #[test]
    fn fig1_world_probabilities_match_table1() {
        let ug = fig1_example();
        // World with no edges = G1 in the paper: Pr = 0.108.
        let empty = ug.world_probability(&[false, false, false]);
        assert!((empty - 0.108).abs() < 1e-12);
        // World with all edges = G8: Pr = 0.112.
        let full = ug.world_probability(&[true, true, true]);
        assert!((full - 0.112).abs() < 1e-12);
        // World with only (B,D) = G4 in the paper: 0.6*0.6*0.7 = 0.252.
        let g4 = ug.world_probability(&[false, false, true]);
        assert!((g4 - 0.252).abs() < 1e-12);
    }

    #[test]
    fn world_materialization() {
        let ug = fig1_example();
        let w = ug.world_from_mask(&[true, false, true]);
        assert_eq!(w.num_edges(), 2);
        assert!(w.has_edge(0, 1));
        assert!(w.has_edge(1, 3));
        assert!(!w.has_edge(0, 2));
    }

    #[test]
    fn bitmap_worlds_match_bool_worlds() {
        let ug = fig1_example();
        let mut recycle = Graph::default();
        for bits in 0..8u32 {
            let bools: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let mask = EdgeMask::from_bools(&bools);
            let a = ug.world_from_mask(&bools);
            let b = ug.world_from_bitmap(&mask, recycle);
            assert_eq!(a.edges(), b.edges());
            assert_eq!(a.num_nodes(), b.num_nodes());
            recycle = b;
        }
    }

    #[test]
    fn arc_probs_align_with_edge_probs() {
        let ug = fig1_example();
        let arcs: usize = (0..ug.num_nodes() as u32)
            .map(|v| ug.neighbors_with_probs(v).1.len())
            .sum();
        assert_eq!(arcs, 2 * ug.num_edges());
        for v in 0..ug.num_nodes() as u32 {
            let (nbrs, probs) = ug.neighbors_with_probs(v);
            assert_eq!(nbrs.len(), probs.len());
            for (&w, &p) in nbrs.iter().zip(probs) {
                assert_eq!(ug.edge_prob(v, w), Some(p));
            }
        }
    }

    #[test]
    fn expected_density_matches_table1() {
        let ug = fig1_example();
        // Table I: EED({A,B}) = 0.2, EED({B,D}) = 0.35, EED({A,B,C,D}) = 0.375.
        assert!((ug.expected_edge_density(&[0, 1]) - 0.2).abs() < 1e-12);
        assert!((ug.expected_edge_density(&[1, 3]) - 0.35).abs() < 1e-12);
        assert!((ug.expected_edge_density(&[0, 1, 2, 3]) - 0.375).abs() < 1e-12);
        assert_eq!(ug.expected_edge_density(&[]), 0.0);
    }
}
