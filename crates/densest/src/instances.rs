//! Instance enumeration: `h`-cliques (kClist-style ordered search \[56\]) and
//! arbitrary pattern instances (backtracking subgraph matching \[58\]).
//!
//! An *instance* of a pattern `ψ` in `G` is a (non-induced) subgraph of `G`
//! isomorphic to `ψ`; instances are identified by their edge image, so two
//! embeddings related by a pattern automorphism are the same instance. For
//! density purposes each instance contributes its node set; several distinct
//! instances may share one node set (e.g. the 6 diamonds on a `K_4`), which is
//! exactly what the grouped flow network of Algorithm 7 exploits.

use std::collections::HashSet;
use ugraph::{Graph, NodeBitSet, NodeId, Pattern};

/// All instances of a density notion in `G`, one entry per instance.
///
/// Stored flat: instance `i` is `nodes()[i * arity..(i + 1) * arity]`, its
/// node set sorted ascending. Duplicates are allowed — distinct instances
/// on the same node set each get an entry. One array for the whole set
/// keeps enumeration to a single growing allocation instead of one `Vec`
/// per instance.
#[derive(Debug, Clone)]
pub struct InstanceSet {
    arity: usize,
    nodes: Vec<NodeId>,
}

impl InstanceSet {
    /// An empty set of instances with `arity` nodes each (`arity >= 1`).
    pub(crate) fn new(arity: usize) -> Self {
        Self::from_flat(arity, Vec::new())
    }

    /// Wraps a flat array of `arity`-node instances, each sorted ascending.
    ///
    /// # Panics
    /// If `arity` is zero or does not divide `nodes.len()`.
    pub fn from_flat(arity: usize, nodes: Vec<NodeId>) -> Self {
        assert!(arity >= 1, "instances have at least one node");
        assert_eq!(
            nodes.len() % arity,
            0,
            "flat instances come in whole strides"
        );
        InstanceSet { arity, nodes }
    }

    /// Appends one instance (its node set, sorted ascending).
    pub(crate) fn push(&mut self, instance: &[NodeId]) {
        assert_eq!(instance.len(), self.arity);
        self.nodes.extend_from_slice(instance);
    }

    /// Number of pattern nodes `|V_ψ|`: the stride of [`InstanceSet::nodes`].
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total instance count `µ(G)`.
    #[inline]
    pub fn count(&self) -> usize {
        self.nodes.len() / self.arity
    }

    /// Every instance's nodes, instance after instance.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Instance `i`'s node set.
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * self.arity..(i + 1) * self.arity]
    }

    /// The instances in order, each as its sorted node set.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.nodes.chunks_exact(self.arity)
    }

    /// Instance-degree of every node: the number of instances containing it
    /// (paper Def. 6 generalized to patterns).
    pub fn degrees(&self, n: usize) -> Vec<u64> {
        let mut deg = vec![0u64; n];
        for &v in &self.nodes {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Number of instances whose node set lies entirely inside `nodes`
    /// (`µ(G[U])` for non-induced instances — instances are edge subsets of
    /// `G`, so an instance survives in `G[U]` iff its nodes all lie in `U`).
    pub fn count_within(&self, n: usize, nodes: &[NodeId]) -> u64 {
        let mark = NodeBitSet::from_members(n, nodes);
        self.iter()
            .filter(|inst| inst.iter().all(|&v| mark.contains(v as usize)))
            .count() as u64
    }
}

/// Enumerates all `h`-cliques of `G` (`h ≥ 1`), returned as sorted node sets.
///
/// Uses the ordered-extension scheme of kClist \[56\]: each clique is produced
/// exactly once in increasing node order, with candidate sets maintained as
/// intersections of (higher-numbered) neighbor lists.
pub fn enumerate_cliques(g: &Graph, h: usize) -> InstanceSet {
    assert!(h >= 1);
    if h == 1 {
        return InstanceSet::from_flat(1, (0..g.num_nodes() as NodeId).collect());
    }
    if h == 2 {
        let mut nodes = Vec::with_capacity(2 * g.num_edges());
        for &(u, v) in g.edges() {
            nodes.extend_from_slice(&[u, v]);
        }
        return InstanceSet::from_flat(2, nodes);
    }
    let mut instances = InstanceSet::new(h);
    let mut current: Vec<NodeId> = Vec::with_capacity(h);
    // One candidate scratch buffer per recursion depth, reused across the
    // whole enumeration — the search allocates nothing per extension.
    let mut pool: Vec<Vec<NodeId>> = vec![Vec::new(); h.saturating_sub(2)];
    for v in 0..g.num_nodes() as NodeId {
        // Candidates: neighbors of v with higher id — the `> v` suffix of
        // the sorted CSR row.
        let row = g.neighbors(v);
        let cand = &row[row.partition_point(|&w| w <= v)..];
        current.push(v);
        extend_clique(g, h, &mut current, cand, &mut pool, &mut instances);
        current.pop();
    }
    instances
}

fn extend_clique(
    g: &Graph,
    h: usize,
    current: &mut Vec<NodeId>,
    cand: &[NodeId],
    pool: &mut [Vec<NodeId>],
    out: &mut InstanceSet,
) {
    // Prune: not enough candidates left to finish the clique.
    if current.len() + cand.len() < h {
        return;
    }
    // Last level: every remaining candidate completes a clique on its own —
    // no intersection needed.
    if current.len() + 1 == h {
        for &w in cand {
            current.push(w);
            out.push(current);
            current.pop();
        }
        return;
    }
    let (buf, rest) = pool.split_first_mut().expect("pool sized to clique depth");
    for (i, &w) in cand.iter().enumerate() {
        // New candidates: members of cand after w that are adjacent to w.
        // `cand` and the CSR neighbor row of w are both sorted ascending and
        // every remaining candidate exceeds w, so the intersection runs over
        // the `> w` suffix of the row only.
        let row = g.neighbors(w);
        let row = &row[row.partition_point(|&y| y <= w)..];
        intersect_sorted_into(&cand[i + 1..], row, buf);
        current.push(w);
        // `buf` is consumed immutably by the recursion while deeper levels
        // use the remaining pool entries, so the split keeps borrows disjoint.
        let next = std::mem::take(buf);
        extend_clique(g, h, current, &next, rest, out);
        *buf = next;
        current.pop();
    }
}

/// Intersection of two sorted ascending `NodeId` slices, written into `out`
/// (cleared first). Size-adaptive: similar lengths use a linear merge;
/// skewed lengths gallop — each element of the smaller slice is
/// binary-searched in the remaining suffix of the larger, so a tiny
/// candidate set against a hub's neighbor row costs `O(small · log large)`
/// instead of `O(large)`.
fn intersect_sorted_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * 8 < large.len() {
        let mut lo = 0usize;
        for &x in small {
            let idx = lo + large[lo..].partition_point(|&y| y < x);
            if idx < large.len() && large[idx] == x {
                out.push(x);
                lo = idx + 1;
            } else {
                lo = idx;
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(small[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Enumerates all instances of `pattern` in `G`.
///
/// Backtracking over an adjacency-connected ordering of the pattern nodes;
/// embeddings that share the same edge image (pattern automorphisms) are
/// deduplicated so each instance is reported once. For clique patterns this
/// delegates to the faster [`enumerate_cliques`].
pub fn enumerate_pattern(g: &Graph, pattern: &Pattern) -> InstanceSet {
    if pattern.is_clique() {
        return enumerate_cliques(g, pattern.num_nodes());
    }
    let k = pattern.num_nodes();
    let order = search_order(pattern);
    // For each position i > 0, the earlier positions adjacent to order[i].
    let back_edges: Vec<Vec<usize>> = (0..k)
        .map(|i| {
            (0..i)
                .filter(|&j| pattern.has_edge(order[i], order[j]))
                .collect()
        })
        .collect();
    let mut assignment: Vec<NodeId> = Vec::with_capacity(k);
    let mut seen_edge_images: HashSet<Vec<(NodeId, NodeId)>> = HashSet::new();
    let mut instances = InstanceSet::new(k);
    embed(
        g,
        pattern,
        &order,
        &back_edges,
        &mut assignment,
        &mut seen_edge_images,
        &mut instances,
    );
    instances
}

/// Orders pattern nodes so every node (after the first) is adjacent to an
/// earlier one, starting from a maximum-degree node (small candidate sets).
fn search_order(pattern: &Pattern) -> Vec<usize> {
    let k = pattern.num_nodes();
    let start = (0..k).max_by_key(|&u| pattern.degree(u)).unwrap();
    let mut order = vec![start];
    let mut placed = vec![false; k];
    placed[start] = true;
    while order.len() < k {
        // Next: an unplaced node adjacent to a placed one, max degree first.
        let next = (0..k)
            .filter(|&u| !placed[u] && order.iter().any(|&v| pattern.has_edge(u, v)))
            .max_by_key(|&u| pattern.degree(u))
            .expect("pattern is connected");
        placed[next] = true;
        order.push(next);
    }
    order
}

fn embed(
    g: &Graph,
    pattern: &Pattern,
    order: &[usize],
    back_edges: &[Vec<usize>],
    assignment: &mut Vec<NodeId>,
    seen: &mut HashSet<Vec<(NodeId, NodeId)>>,
    out: &mut InstanceSet,
) {
    let pos = assignment.len();
    if pos == order.len() {
        // Canonical edge image: map each pattern edge through the embedding.
        let mut slot = vec![NodeId::MAX; order.len()];
        for (i, &p) in order.iter().enumerate() {
            slot[p] = assignment[i];
        }
        let mut image: Vec<(NodeId, NodeId)> = pattern
            .edges()
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (slot[a as usize], slot[b as usize]);
                if x < y {
                    (x, y)
                } else {
                    (y, x)
                }
            })
            .collect();
        image.sort_unstable();
        if seen.insert(image) {
            let start = out.nodes.len();
            out.nodes.extend_from_slice(assignment);
            out.nodes[start..].sort_unstable();
        }
        return;
    }
    // Candidates: all nodes for the root; afterwards the neighbors of the
    // first already-matched pattern-neighbor (connectivity of the order).
    let candidates: Vec<NodeId> = if pos == 0 {
        (0..g.num_nodes() as NodeId).collect()
    } else {
        let anchor = back_edges[pos]
            .first()
            .copied()
            .expect("search order keeps connectivity");
        g.neighbors(assignment[anchor]).to_vec()
    };
    'cand: for w in candidates {
        if assignment.contains(&w) {
            continue; // embeddings are injective
        }
        for &j in back_edges[pos].iter().skip(if pos == 0 { 0 } else { 1 }) {
            if !g.has_edge(w, assignment[j]) {
                continue 'cand;
            }
        }
        assignment.push(w);
        embed(g, pattern, order, back_edges, assignment, seen, out);
        assignment.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn triangle_counts() {
        let g = k4();
        assert_eq!(enumerate_cliques(&g, 3).count(), 4);
        assert_eq!(enumerate_cliques(&g, 4).count(), 1);
        assert_eq!(enumerate_cliques(&g, 2).count(), 6);
        assert_eq!(enumerate_cliques(&g, 5).count(), 0);
    }

    #[test]
    fn clique_counts_on_k6() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(6, &edges);
        // C(6, h) cliques of each size.
        assert_eq!(enumerate_cliques(&g, 3).count(), 20);
        assert_eq!(enumerate_cliques(&g, 4).count(), 15);
        assert_eq!(enumerate_cliques(&g, 5).count(), 6);
        assert_eq!(enumerate_cliques(&g, 6).count(), 1);
    }

    #[test]
    fn cliques_are_sorted_and_unique() {
        let g = k4();
        let tris = enumerate_cliques(&g, 3);
        for t in tris.iter() {
            assert!(t.windows(2).all(|w| w[0] < w[1]));
        }
        let set: HashSet<_> = tris.iter().collect();
        assert_eq!(set.len(), tris.count());
    }

    #[test]
    fn degrees_and_count_within() {
        let g = k4();
        let tris = enumerate_cliques(&g, 3);
        let deg = tris.degrees(4);
        assert_eq!(deg, vec![3, 3, 3, 3]);
        assert_eq!(tris.count_within(4, &[0, 1, 2]), 1);
        assert_eq!(tris.count_within(4, &[0, 1, 2, 3]), 4);
        assert_eq!(tris.count_within(4, &[0, 1]), 0);
    }

    #[test]
    fn two_star_count_matches_formula() {
        // #2-stars = Σ_v C(deg(v), 2).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let inst = enumerate_pattern(&g, &Pattern::two_star());
        let expected: usize = (0..5)
            .map(|v| {
                let d = g.degree(v);
                d * d.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(inst.count(), expected); // 3 + 1 = 4
        assert_eq!(inst.count(), 4);
    }

    #[test]
    fn three_star_count_matches_formula() {
        let g = k4();
        // Each K4 node has degree 3: C(3,3) = 1 three-star per node.
        let inst = enumerate_pattern(&g, &Pattern::three_star());
        assert_eq!(inst.count(), 4);
    }

    #[test]
    fn diamond_count_on_k4() {
        // K4 contains 6 diamonds (one per choice of the omitted edge), all on
        // the same node set.
        let inst = enumerate_pattern(&k4(), &Pattern::diamond());
        assert_eq!(inst.count(), 6);
        assert!(inst.iter().all(|nodes| nodes == [0, 1, 2, 3]));
    }

    #[test]
    fn paw_count_on_triangle_with_tail() {
        // Exactly the pattern itself: triangle {0,1,2} + pendant 3 on 0.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3)]);
        let inst = enumerate_pattern(&g, &Pattern::c3_star());
        assert_eq!(inst.count(), 1);
        assert_eq!(inst.get(0), [0, 1, 2, 3]);
    }

    #[test]
    fn paw_count_on_k4() {
        // K4: 4 triangles × 1 remaining node × 3 attachment points = 12 paws.
        let inst = enumerate_pattern(&k4(), &Pattern::c3_star());
        assert_eq!(inst.count(), 12);
    }

    #[test]
    fn pattern_clique_delegates() {
        let inst = enumerate_pattern(&k4(), &Pattern::clique(3));
        assert_eq!(inst.count(), 4);
    }

    #[test]
    fn brute_force_cross_check_diamond() {
        // Random-ish graph: verify the matcher against a brute-force count
        // over all 4-node subsets and their sub-edge-sets.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (2, 4),
                (1, 4),
                (4, 5),
            ],
        );
        let pattern = Pattern::diamond();
        let fast = enumerate_pattern(&g, &pattern).count();
        let slow = brute_force_count(&g, &pattern);
        assert_eq!(fast, slow);
    }

    #[test]
    fn brute_force_cross_check_paw() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (1, 6),
            ],
        );
        let pattern = Pattern::c3_star();
        assert_eq!(
            enumerate_pattern(&g, &pattern).count(),
            brute_force_count(&g, &pattern)
        );
    }

    /// Counts instances by checking every injective map from pattern nodes to
    /// graph nodes and deduplicating edge images.
    fn brute_force_count(g: &Graph, pattern: &Pattern) -> usize {
        let k = pattern.num_nodes();
        let n = g.num_nodes();
        let mut images: HashSet<Vec<(NodeId, NodeId)>> = HashSet::new();
        let mut map = vec![0usize; k];
        fn rec(
            g: &Graph,
            pattern: &Pattern,
            map: &mut Vec<usize>,
            pos: usize,
            n: usize,
            images: &mut HashSet<Vec<(NodeId, NodeId)>>,
        ) {
            let k = pattern.num_nodes();
            if pos == k {
                for &(a, b) in pattern.edges() {
                    if !g.has_edge(map[a as usize] as NodeId, map[b as usize] as NodeId) {
                        return;
                    }
                }
                let mut image: Vec<(NodeId, NodeId)> = pattern
                    .edges()
                    .iter()
                    .map(|&(a, b)| {
                        let (x, y) = (map[a as usize] as NodeId, map[b as usize] as NodeId);
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
            for v in 0..n {
                if !map[..pos].contains(&v) {
                    map[pos] = v;
                    rec(g, pattern, map, pos + 1, n, images);
                }
            }
        }
        rec(g, pattern, &mut map, 0, n, &mut images);
        images.len()
    }
}
