//! Deterministic, undirected, unweighted graphs in CSR form.
//!
//! Nodes are dense integer identifiers `0..n`. The graph is stored as a
//! compressed sparse row (CSR) structure: one `offsets` array of length
//! `n + 1` and two parallel arc arrays of length `2m` — `neighbors` (the head
//! of every arc, sorted within each row) and `arc_edges` (the canonical edge
//! index behind every arc). The canonical edge list `(u, v)` with `u < v`
//! is kept alongside so the uncertain layer can attach one probability per
//! edge by index. Neighborhood iteration is therefore a contiguous slice
//! scan — no per-vertex heap allocations, no pointer chasing — which is what
//! the sampling/peeling/flow inner loops spend most of their time doing.
//!
//! A [`Graph`] is immutable once built; incremental construction goes through
//! [`GraphBuilder`]. Self-loops and parallel edges are rejected: the paper
//! works on simple graphs.

use crate::bitset::{DenseBitSet, NodeBitSet};

/// Dense node identifier. `u32` keeps the arc arrays half the size of `usize`
/// on 64-bit targets, which matters for the million-edge synthetic datasets.
pub type NodeId = u32;

/// An undirected simple graph in CSR (compressed sparse row) layout.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Row offsets: the arcs of node `v` are `offsets[v]..offsets[v + 1]`.
    offsets: Vec<u32>,
    /// Head of every arc; sorted ascending within each row.
    neighbors: Vec<NodeId>,
    /// Canonical edge index behind every arc (parallel to `neighbors`).
    arc_edges: Vec<u32>,
    /// Canonical edge list; every entry satisfies `u < v`, sorted ascending.
    edges: Vec<(NodeId, NodeId)>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

/// Incremental constructor for [`Graph`].
///
/// Collects edges (with immediate self-loop / range / duplicate validation),
/// then [`GraphBuilder::build`] assembles the CSR arrays in one `O(n + m log m)`
/// pass — much cheaper than the sorted-insertion adjacency lists this replaced,
/// which paid `O(deg)` memmove per insertion.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    seen: std::collections::HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Whether the undirected edge `(u, v)` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.seen.contains(&key)
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop ({u}, {v})");
        let n = self.n as NodeId;
        assert!(u < n && v < n, "edge ({u}, {v}) out of range for n = {n}");
        let key = if u < v { (u, v) } else { (v, u) };
        assert!(self.seen.insert(key), "duplicate edge ({u}, {v})");
        self.edges.push(key);
    }

    /// Assembles the immutable CSR graph.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        Graph::assemble(self.n, self.edges, Vec::new(), Vec::new(), Vec::new())
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            arc_edges: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list. Node count is `n`; edges outside
    /// `0..n`, self-loops, and duplicates (in either orientation) are rejected.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Core CSR assembly from a *sorted, canonical, duplicate-free* edge
    /// list, reusing the three passed vectors as backing storage (they are
    /// cleared first). The counting sort below fills each row in edge order,
    /// which — because the edge list is sorted — leaves every row sorted
    /// ascending, so the binary searches in [`Graph::has_edge`] stay valid.
    pub(crate) fn assemble(
        n: usize,
        edges: Vec<(NodeId, NodeId)>,
        mut offsets: Vec<u32>,
        mut neighbors: Vec<NodeId>,
        mut arc_edges: Vec<u32>,
    ) -> Graph {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges not sorted");
        let m = edges.len();
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        neighbors.clear();
        neighbors.resize(2 * m, 0);
        arc_edges.clear();
        arc_edges.resize(2 * m, 0);
        // Fill using offsets[v] as the write cursor of row v; afterwards every
        // cursor has advanced to the row end, i.e. offsets[v] == start of row
        // v + 1, so one backwards rotation restores the offsets array.
        for (i, &(u, v)) in edges.iter().enumerate() {
            let cu = offsets[u as usize] as usize;
            neighbors[cu] = v;
            arc_edges[cu] = i as u32;
            offsets[u as usize] += 1;
            let cv = offsets[v as usize] as usize;
            neighbors[cv] = u;
            arc_edges[cv] = i as u32;
            offsets[v as usize] += 1;
        }
        for v in (1..=n).rev() {
            offsets[v] = offsets[v - 1];
        }
        if n > 0 {
            offsets[0] = 0;
        }
        Graph {
            offsets,
            neighbors,
            arc_edges,
            edges,
        }
    }

    /// Builds the subgraph selected by `mask` over this graph's canonical
    /// edges, recycling `recycle`'s backing storage (no allocations once the
    /// buffers have grown to size). This is the hot path behind possible-world
    /// materialization: `O(n + m/64 + m_world)` per call.
    pub fn filter_edges(&self, mask: &DenseBitSet, recycle: Graph) -> Graph {
        assert_eq!(
            mask.universe(),
            self.num_edges(),
            "edge mask universe must match the edge count"
        );
        let Graph {
            offsets,
            neighbors,
            arc_edges,
            mut edges,
        } = recycle;
        edges.clear();
        edges.extend(mask.ones().map(|i| self.edges[i]));
        Graph::assemble(self.num_nodes(), edges, offsets, neighbors, arc_edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor list of `v` (a contiguous CSR row).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.arc_range(v)]
    }

    /// Arc index range of `v`'s row in [`Graph::arc_targets`] /
    /// [`Graph::arc_edge_ids`].
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// The full arc-head array (length `2m`).
    #[inline]
    pub fn arc_targets(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Canonical edge index behind every arc (parallel to
    /// [`Graph::arc_targets`]).
    #[inline]
    pub fn arc_edge_ids(&self) -> &[u32] {
        &self.arc_edges
    }

    /// CSR row offsets (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Neighbors of `v` together with the canonical edge index of each
    /// incident edge — one slice pair, no lookups.
    #[inline]
    pub fn neighbors_with_edge_ids(&self, v: NodeId) -> (&[NodeId], &[u32]) {
        let r = self.arc_range(v);
        (&self.neighbors[r.clone()], &self.arc_edges[r])
    }

    /// Canonical edge list; every entry satisfies `u < v`.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Index of edge `(u, v)` in [`Graph::edges`], if present.
    pub fn edge_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.binary_search(&(a, b)).ok()
    }

    /// Whether the edge `(u, v)` exists (binary search on the smaller row).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Edge density `|E| / |V|` (paper Def. 1). Returns 0 for the empty graph.
    pub fn edge_density(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Subgraph induced by `nodes` (paper notation `G[W]`).
    ///
    /// Returns the induced graph with nodes relabelled `0..nodes.len()` in the
    /// order given, plus the mapping from new ids back to original ids.
    /// `nodes` must be duplicate-free.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut rename = vec![NodeId::MAX; self.num_nodes()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(
                rename[v as usize] == NodeId::MAX,
                "duplicate node {v} in induced_subgraph"
            );
            rename[v as usize] = i as NodeId;
        }
        let mut sub_edges = Vec::new();
        for &v in nodes {
            let nv = rename[v as usize];
            for &w in self.neighbors(v) {
                let nw = rename[w as usize];
                if nw != NodeId::MAX && nv < nw {
                    sub_edges.push((nv, nw));
                }
            }
        }
        sub_edges.sort_unstable();
        let sub = Graph::assemble(nodes.len(), sub_edges, Vec::new(), Vec::new(), Vec::new());
        (sub, nodes.to_vec())
    }

    /// Number of edges with both endpoints in `nodes` (`nodes` must be
    /// duplicate-free). Runs in `O(Σ deg)` over the set with one dense-bitset
    /// membership structure.
    pub fn induced_edge_count(&self, nodes: &[NodeId]) -> usize {
        let mark = NodeBitSet::from_members(self.num_nodes(), nodes);
        let mut cnt = 0;
        for &v in nodes {
            for &w in self.neighbors(v) {
                if v < w && mark.contains(w as usize) {
                    cnt += 1;
                }
            }
        }
        cnt
    }

    /// Connected components as sorted node lists, largest first.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut seen = NodeBitSet::new(n);
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            if seen.contains(s) {
                continue;
            }
            seen.insert(s);
            stack.push(s as NodeId);
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in self.neighbors(v) {
                    if seen.insert(w as usize) {
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
        comps
    }

    /// Enumerates all triangles `(u, v, w)` with `u < v < w`.
    pub fn triangles(&self) -> Vec<(NodeId, NodeId, NodeId)> {
        let mut out = Vec::new();
        for &(u, v) in &self.edges {
            // Intersect neighbor rows, keeping only w > v to canonicalize.
            let (mut i, mut j) = (0, 0);
            let (nu, nv) = (self.neighbors(u), self.neighbors(v));
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if nu[i] > v {
                            out.push((u, v, nu[i]));
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn basic_construction() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edge_list_is_canonical() {
        let g = Graph::from_edges(4, &[(3, 2), (1, 0), (2, 0)]);
        assert_eq!(g.edges(), &[(0, 1), (0, 2), (2, 3)]);
        assert_eq!(g.edge_index(3, 2), Some(2));
        assert_eq!(g.edge_index(1, 3), None);
    }

    #[test]
    fn csr_rows_are_sorted_and_consistent() {
        let g = Graph::from_edges(5, &[(4, 0), (0, 1), (3, 0), (2, 4), (1, 3)]);
        assert_eq!(g.offsets().len(), 6);
        assert_eq!(g.arc_targets().len(), 2 * g.num_edges());
        for v in 0..5 {
            let row = g.neighbors(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted");
            assert_eq!(row.len(), g.degree(v));
            let (nbrs, eids) = g.neighbors_with_edge_ids(v);
            for (&w, &e) in nbrs.iter().zip(eids) {
                let (a, b) = g.edges()[e as usize];
                assert!((a, b) == (v.min(w), v.max(w)), "arc edge id mismatch");
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
    }

    #[test]
    fn builder_has_edge_and_counts() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0);
        assert!(b.has_edge(0, 2));
        assert!(!b.has_edge(0, 1));
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn density() {
        assert_eq!(path3().edge_density(), 2.0 / 3.0);
        assert_eq!(Graph::new(0).edge_density(), 0.0);
        assert_eq!(Graph::new(5).edge_density(), 0.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let (sub, map) = g.induced_subgraph(&[1, 3, 4]);
        assert_eq!(map, vec![1, 3, 4]);
        assert_eq!(sub.num_nodes(), 3);
        // Edges among {1,3,4}: (1,3) and (3,4).
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1)); // 1-3
        assert!(sub.has_edge(1, 2)); // 3-4
        assert!(!sub.has_edge(0, 2)); // 1-4 absent
        assert_eq!(g.induced_edge_count(&[1, 3, 4]), 2);
    }

    #[test]
    fn filter_edges_selects_and_recycles() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let mut mask = DenseBitSet::new(4);
        mask.insert(0); // (0,1)
        mask.insert(3); // (2,3)
        let w = g.filter_edges(&mask, Graph::default());
        assert_eq!(w.num_nodes(), 4);
        assert_eq!(w.edges(), &[(0, 1), (2, 3)]);
        assert!(w.has_edge(0, 1));
        assert!(!w.has_edge(0, 2));
        // Recycle the world for a different mask.
        mask.reset(4);
        mask.insert(1);
        mask.insert(2);
        let w2 = g.filter_edges(&mask, w);
        assert_eq!(w2.edges(), &[(0, 2), (1, 2)]);
        assert_eq!(w2.degree(2), 2);
        assert_eq!(w2.degree(3), 0);
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        assert_eq!(comps[2], vec![5]);
    }

    #[test]
    fn triangles_k4() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let tris = g.triangles();
        assert_eq!(tris.len(), 4);
        assert!(tris.contains(&(0, 1, 2)));
        assert!(tris.contains(&(1, 2, 3)));
    }
}
