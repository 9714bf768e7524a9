//! Small pattern graphs for pattern-density (paper Def. 3, Fig. 5).
//!
//! A [`Pattern`] is a tiny connected graph `ψ = (V_ψ, E_ψ)` whose instances
//! are counted in subgraphs. The paper's experiments use four patterns —
//! `2-star`, `3-star`, `c3-star`, `diamond` — plus `h`-cliques (of which the
//! edge is the `h = 2` special case). `c3-star` is modelled as the tailed
//! triangle ("paw"); see [`Pattern::c3_star`].

/// A small connected pattern graph with nodes `0..k` (`k ≤ 16`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    name: String,
    k: usize,
    edges: Vec<(u8, u8)>,
    /// Adjacency bitmasks: bit `j` of `adj[i]` set iff `(i, j) ∈ E_ψ`.
    adj: Vec<u16>,
}

impl Pattern {
    /// Builds a pattern from its edge list.
    ///
    /// # Panics
    /// If `k > 16`, on self-loops/duplicates/out-of-range edges, or if the
    /// pattern is disconnected (instances of disconnected patterns are not
    /// meaningful for density).
    pub fn new(name: impl Into<String>, k: usize, edges: &[(u8, u8)]) -> Self {
        assert!((2..=16).contains(&k), "pattern must have 2..=16 nodes");
        let mut adj = vec![0u16; k];
        let mut canon: Vec<(u8, u8)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            assert!(u != v, "pattern self-loop");
            assert!(
                (u as usize) < k && (v as usize) < k,
                "pattern edge out of range"
            );
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            assert!(adj[a as usize] & (1 << b) == 0, "duplicate pattern edge");
            adj[a as usize] |= 1 << b;
            adj[b as usize] |= 1 << a;
            canon.push((a, b));
        }
        canon.sort_unstable();
        let p = Pattern {
            name: name.into(),
            k,
            edges: canon,
            adj,
        };
        assert!(p.is_connected(), "pattern must be connected");
        p
    }

    /// The `h`-clique pattern (`h ≥ 2`); `clique(2)` is the single edge.
    pub fn clique(h: usize) -> Self {
        let mut edges = Vec::new();
        for u in 0..h as u8 {
            for v in (u + 1)..h as u8 {
                edges.push((u, v));
            }
        }
        Pattern::new(format!("{h}-clique"), h, &edges)
    }

    /// The single-edge pattern (edge density).
    pub fn edge() -> Self {
        Pattern::clique(2)
    }

    /// `2-star`: a center adjacent to two leaves (path on 3 nodes).
    pub fn two_star() -> Self {
        Pattern::new("2-star", 3, &[(0, 1), (0, 2)])
    }

    /// `3-star`: a center adjacent to three leaves (`K_{1,3}`).
    pub fn three_star() -> Self {
        Pattern::new("3-star", 4, &[(0, 1), (0, 2), (0, 3)])
    }

    /// `c3-star` (tailed triangle / "paw"): triangle `{0,1,2}` plus pendant `3`
    /// attached to node `0`.
    pub fn c3_star() -> Self {
        Pattern::new("c3-star", 4, &[(0, 1), (0, 2), (1, 2), (0, 3)])
    }

    /// `diamond`: `K_4` minus one edge (nodes `{0,1}` adjacent to everything,
    /// `2`–`3` missing). Matches the employer–employee–education motif of the
    /// paper's introduction.
    pub fn diamond() -> Self {
        Pattern::new("diamond", 4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    }

    /// The four patterns of the paper's Fig. 5, in paper order.
    pub fn paper_patterns() -> Vec<Pattern> {
        vec![
            Pattern::two_star(),
            Pattern::three_star(),
            Pattern::c3_star(),
            Pattern::diamond(),
        ]
    }

    /// Human-readable pattern name (e.g. `"diamond"`, `"3-clique"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pattern nodes `|V_ψ|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.k
    }

    /// Number of pattern edges `|E_ψ|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Canonical pattern edges (`u < v`, sorted).
    #[inline]
    pub fn edges(&self) -> &[(u8, u8)] {
        &self.edges
    }

    /// Whether pattern nodes `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u] & (1 << v) != 0
    }

    /// Degree of pattern node `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].count_ones() as usize
    }

    /// Whether the pattern is a complete graph (clique density is the special
    /// case of pattern density for cliques).
    pub fn is_clique(&self) -> bool {
        self.num_edges() == self.k * (self.k - 1) / 2
    }

    fn is_connected(&self) -> bool {
        let mut seen = 1u16; // start from node 0
        let mut frontier = vec![0usize];
        while let Some(u) = frontier.pop() {
            let mut nbrs = self.adj[u] & !seen;
            while nbrs != 0 {
                let v = nbrs.trailing_zeros() as usize;
                nbrs &= nbrs - 1;
                seen |= 1 << v;
                frontier.push(v);
            }
        }
        seen.count_ones() as usize == self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_patterns() {
        assert_eq!(Pattern::edge().num_nodes(), 2);
        assert_eq!(Pattern::edge().num_edges(), 1);
        assert_eq!(Pattern::clique(3).num_edges(), 3);
        assert_eq!(Pattern::clique(5).num_edges(), 10);
        assert_eq!(Pattern::two_star().degree(0), 2);
        assert_eq!(Pattern::three_star().degree(0), 3);
        assert_eq!(Pattern::c3_star().num_edges(), 4);
        assert_eq!(Pattern::diamond().num_edges(), 5);
        assert!(Pattern::clique(4).is_clique());
        assert!(!Pattern::diamond().is_clique());
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        Pattern::new("bad", 4, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edges() {
        Pattern::new("bad", 3, &[(0, 1), (1, 0), (1, 2)]);
    }
}
