//! Instance-based peeling: the greedy 1/`|V_ψ|` approximation and the density
//! lower bound ρ̃ (paper Line 1 of Algorithms 2 and 4; Charikar \[2\] for edge
//! density, Tsourakakis/Fang \[19\], \[5\] for cliques and patterns).
//!
//! Peeling repeatedly removes a node of minimum instance-degree and records
//! the density of every suffix; the best suffix density ρ̃ lower-bounds ρ\*
//! and seeds both the core reduction and the Dinkelbach iteration.

use crate::density::Density;
use crate::instances::InstanceSet;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ugraph::{Graph, NodeId};

/// Outcome of a full peeling pass.
#[derive(Debug, Clone)]
pub struct Peeling {
    /// Best suffix density ρ̃ (a lower bound on ρ\*).
    pub best_density: Density,
    /// Node set of the best suffix (a 1/|V_ψ|-approximate densest subgraph).
    pub best_subgraph: Vec<NodeId>,
    /// Core number of every node w.r.t. instance-degree: the largest `k` such
    /// that the node belongs to the `(k, ψ)`-core.
    pub core_number: Vec<u64>,
    /// Nodes in reverse removal order (the last removed first). Suffixes of
    /// the peeling are prefixes of this list.
    pub removal_order: Vec<NodeId>,
    /// Instance count of each suffix: `suffix_counts[i]` = number of
    /// instances alive just before the `i`-th removal (aligned with
    /// `removal_order` reversed; see [`Peeling::suffixes`]).
    pub(crate) suffix_counts: Vec<u64>,
}

impl Peeling {
    /// Iterates the peeling suffixes as `(node_set, instance_count)`, largest
    /// suffix (the full node set of live nodes) first.
    pub fn suffixes(&self) -> impl Iterator<Item = (&[NodeId], u64)> + '_ {
        let k = self.removal_order.len();
        (0..k).map(move |i| {
            // Suffix after i removals = last (k - i) removed nodes.
            let nodes = &self.removal_order[..k - i];
            (nodes, self.suffix_counts[i])
        })
    }
}

/// Where a peel reads the instances of each node from.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Edge density: node `v`'s instances are the edges of its CSR row, and
    /// an edge is alive while its other end is.
    Csr(&'a Graph),
    /// Any notion: an incidence CSR built from the instance list, and one
    /// alive flag per instance.
    Instances(&'a InstanceSet),
}

/// A finished peel, read from the per-thread workspace (see
/// [`with_peel`]).
pub(crate) struct Peeled<'a> {
    /// Best suffix density ρ̃: the first (largest) suffix attaining it.
    pub(crate) best_density: Density,
    /// Size of that suffix.
    pub(crate) best_len: usize,
    /// `order[i]` is the `i`-th node removed.
    pub(crate) order: &'a [NodeId],
    /// `counts[i]`: the instances alive just before the `i`-th removal.
    pub(crate) counts: &'a [u32],
    /// `degrees[i]`: the instance-degree of `order[i]` when it was removed.
    /// A node's core number is the running maximum of these up to its
    /// removal.
    pub(crate) degrees: &'a [u32],
    /// `position[v]`: the removal index of node `v`.
    pub(crate) position: &'a [u32],
}

impl Peeled<'_> {
    /// The first removal index whose core number reaches `k`: the nodes of
    /// core number `>= k`, the `(k, ψ)`-core, are `order[start..]`.
    pub(crate) fn core_start(&self, k: u64) -> usize {
        self.degrees
            .iter()
            .position(|&d| u64::from(d) >= k)
            .unwrap_or(self.order.len())
    }

    fn to_peeling(&self) -> Peeling {
        let n = self.order.len();
        let mut core_number = vec![0u64; n];
        let mut running_max = 0;
        for (&v, &d) in self.order.iter().zip(self.degrees) {
            running_max = running_max.max(u64::from(d));
            core_number[v as usize] = running_max;
        }
        let removal_order: Vec<NodeId> = self.order.iter().rev().copied().collect();
        let mut best_subgraph = removal_order[..self.best_len].to_vec();
        best_subgraph.sort_unstable();
        Peeling {
            best_density: self.best_density,
            best_subgraph,
            core_number,
            removal_order,
            suffix_counts: self.counts.iter().map(|&c| u64::from(c)).collect(),
        }
    }
}

/// Degrees below this keep their bucket as a two-level bitset over node
/// ids; higher degrees keep an ascending run and a min-heap (see [`peel`]).
const SMALL: usize = 64;

/// The degree of a node already peeled: no bucket's.
const REMOVED: u32 = u32::MAX;

/// The degree-bucket queue of [`peel`].
#[derive(Default)]
struct Buckets {
    /// Live instance-degree of every node; `REMOVED` once peeled.
    degree: Vec<u32>,
    /// Words of one small bucket's leaf bitset: `⌈n / 64⌉`.
    words: usize,
    /// Words of one small bucket's summary bitset: `⌈words / 64⌉`.
    tops: usize,
    /// Small bucket `d`'s leaves, `leaves[d * words..][..words]`: bit `v`
    /// is set when node `v` has degree `d`.
    leaves: Vec<u64>,
    /// Small bucket `d`'s summary, `summary[d * tops..][..tops]`: bit `i`
    /// is set when its leaf word `i` is nonzero.
    summary: Vec<u64>,
    /// `first[d]`: no summary word of small bucket `d` below it is
    /// nonzero.
    first: Vec<usize>,
    /// Whether every small bucket is empty, as a finished peel leaves them,
    /// so the next peel of the same `words` need not clear them.
    clean: bool,
    /// The nodes of initial degree `>= SMALL`, sorted by (degree, id):
    /// bucket `d`'s initial run is
    /// `by_degree[run_start[d - SMALL]..run_start[d - SMALL + 1]]`.
    by_degree: Vec<NodeId>,
    run_start: Vec<u32>,
    /// `cursor[d - SMALL]`: the first entry of bucket d's run not yet
    /// consumed.
    cursor: Vec<u32>,
    /// `late[d - SMALL]`: min-heap on id of the nodes whose degree fell to
    /// `d` after the start.
    late: Vec<BinaryHeap<Reverse<NodeId>>>,
}

impl Buckets {
    /// Files every node of `degree` (already filled, `n` entries) in its
    /// bucket.
    fn fill(&mut self) {
        let n = self.degree.len();
        let words = n.div_ceil(64);
        if !self.clean || words != self.words {
            self.words = words;
            self.tops = words.div_ceil(64);
            self.leaves.clear();
            self.leaves.resize(SMALL * words, 0);
            self.summary.clear();
            self.summary.resize(SMALL * self.tops, 0);
        }
        self.clean = false;
        // Leaf bits first, then the summaries of the buckets in use.
        let mut max = 0;
        for (v, &d) in self.degree.iter().enumerate() {
            max = max.max(d as usize);
            if d < SMALL as u32 {
                self.leaves[d as usize * words + v / 64] |= 1 << (v % 64);
            }
        }
        for d in 0..SMALL.min(max + 1) {
            let leaves = &self.leaves[d * words..(d + 1) * words];
            let summary = &mut self.summary[d * self.tops..(d + 1) * self.tops];
            for (i, &leaf) in leaves.iter().enumerate() {
                summary[i / 64] |= u64::from(leaf != 0) << (i % 64);
            }
        }
        self.first.clear();
        self.first.resize(SMALL, 0);
        // Counting sort of the large degrees; ascending ids within a run.
        let buckets = (max + 1).saturating_sub(SMALL);
        self.run_start.clear();
        self.run_start.resize(buckets + 1, 0);
        self.by_degree.clear();
        if buckets > 0 {
            for &d in &self.degree {
                if let Some(h) = (d as usize).checked_sub(SMALL) {
                    self.run_start[h + 1] += 1;
                }
            }
            for h in 0..buckets {
                self.run_start[h + 1] += self.run_start[h];
            }
            self.cursor.clear();
            self.cursor.extend_from_slice(&self.run_start[..buckets]);
            self.by_degree.resize(self.run_start[buckets] as usize, 0);
            for v in 0..n {
                if let Some(h) = (self.degree[v] as usize).checked_sub(SMALL) {
                    self.by_degree[self.cursor[h] as usize] = v as NodeId;
                    self.cursor[h] += 1;
                }
            }
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.run_start[..buckets]);
        if self.late.len() < buckets {
            self.late.resize_with(buckets, BinaryHeap::new);
        }
        for heap in &mut self.late[..buckets] {
            heap.clear();
        }
    }

    // Both updates are branch-free: which summary bits change depends on
    // the ids, so a branch on it would be mispredicted often.
    #[inline]
    fn insert(&mut self, d: usize, v: NodeId) {
        let i = v as usize / 64;
        self.leaves[d * self.words + i] |= 1 << (v % 64);
        self.summary[d * self.tops + i / 64] |= 1 << (i % 64);
        self.first[d] = self.first[d].min(i / 64);
    }

    #[inline]
    fn remove(&mut self, d: usize, v: NodeId) {
        let i = v as usize / 64;
        let leaf = &mut self.leaves[d * self.words + i];
        *leaf &= !(1 << (v % 64));
        self.summary[d * self.tops + i / 64] &= !(u64::from(*leaf == 0) << (i % 64));
    }

    /// Takes the smallest id out of small bucket `d`, if any.
    #[inline]
    fn take_smallest(&mut self, d: usize) -> Option<NodeId> {
        let summary = &mut self.summary[d * self.tops..(d + 1) * self.tops];
        let Some(j) = (self.first[d]..summary.len()).find(|&j| summary[j] != 0) else {
            self.first[d] = summary.len();
            return None;
        };
        self.first[d] = j;
        let i = j * 64 + summary[j].trailing_zeros() as usize;
        let leaf = &mut self.leaves[d * self.words + i];
        let v = i * 64 + leaf.trailing_zeros() as usize;
        *leaf &= *leaf - 1;
        summary[j] &= !(u64::from(*leaf == 0) << (i % 64));
        Some(v as NodeId)
    }

    /// Takes the live node of minimum (degree, id) out of its bucket. No
    /// live node has a degree below `*cur`; the scan moves `*cur` up to the
    /// node's degree.
    #[inline]
    fn pop_min(&mut self, cur: &mut usize) -> NodeId {
        loop {
            if *cur < SMALL {
                if let Some(v) = self.take_smallest(*cur) {
                    return v;
                }
                *cur += 1;
                continue;
            }
            // A large bucket: its run's head or its heap's top, whichever
            // is smaller, once the entries whose degree moved on are
            // skipped.
            let (here, h) = (*cur as u32, *cur - SMALL);
            let (run, end) = (&mut self.cursor[h], self.run_start[h + 1]);
            while *run < end && self.degree[self.by_degree[*run as usize] as usize] != here {
                *run += 1;
            }
            let heap = &mut self.late[h];
            while heap
                .peek()
                .is_some_and(|&Reverse(w)| self.degree[w as usize] != here)
            {
                heap.pop();
            }
            let head = (*run < end).then(|| self.by_degree[*run as usize]);
            match (head, heap.peek()) {
                (Some(a), Some(&Reverse(b))) if b < a => {
                    heap.pop();
                    return b;
                }
                (Some(a), _) => {
                    *run += 1;
                    return a;
                }
                (None, Some(&Reverse(b))) => {
                    heap.pop();
                    return b;
                }
                (None, None) => *cur += 1,
            }
        }
    }

    /// Lowers live node `w`'s degree by one, moving it between buckets;
    /// returns its new degree.
    #[inline]
    fn lower(&mut self, w: NodeId) -> usize {
        let old = self.degree[w as usize] as usize;
        let new = old - 1;
        self.degree[w as usize] = new as u32;
        if old < SMALL {
            self.remove(old, w);
        }
        if new < SMALL {
            self.insert(new, w);
        } else {
            self.late[new - SMALL].push(Reverse(w));
        }
        new
    }
}

/// The peeling's reusable buffers: a stream of sampled worlds peels
/// without allocating once they have grown.
#[derive(Default)]
struct Workspace {
    buckets: Buckets,
    /// The instances of every node, CSR ([`Rows::Instances`] only): node
    /// v's are `node_insts[inst_start[v]..inst_start[v + 1]]`, ascending.
    inst_start: Vec<u32>,
    node_insts: Vec<u32>,
    alive_inst: Vec<bool>,
    /// The fields of [`Peeled`].
    order: Vec<NodeId>,
    counts: Vec<u32>,
    degrees: Vec<u32>,
    position: Vec<u32>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Peels `n` nodes by minimum instance-degree.
///
/// Each step removes the live node of minimum instance-degree, ties to the
/// smaller id; nodes in no instance go first (degree 0, ascending id). The
/// removal order, and so every field of the [`Peeling`], is fully
/// determined by that rule (Charikar's greedy peeling, kept in
/// Batagelj–Zaversnik's bucket order).
///
/// Every degree has a bucket. A bucket below degree 64 is a two-level
/// bitset over node ids: a leaf bit per node and a summary bit per
/// nonzero leaf word, so its smallest id is two word scans away, and a
/// degree change clears one bit and sets another. A bucket of degree 64
/// or more holds its initial members as an ascending run, consumed through
/// a cursor, and a min-heap on id of the nodes whose degree fell to it
/// later; an entry whose node was removed, or whose degree moved on, is
/// skipped when it comes up. A removal can lower a degree by more than one
/// (shared or repeated instances), so the scan restarts at the smallest
/// degree a removal produced.
///
/// Cost: `O(n + d_max + Σ|inst|)` plus a logarithm for each degree drop
/// that lands at 64 or above, and the summary scans (`n / 4096` words a
/// bucket at worst). Memory: a per-thread workspace of `O(n + m)` words —
/// 64 bitsets of `n` bits, a few `u32` arrays of `n`, the large buckets'
/// runs and heaps (at most one entry per degree drop), and, for instance
/// lists, an incidence CSR of `Σ|inst|` entries. The edge-density peel of
/// a world ([`peel_edges`]) reads the world's own CSR instead.
pub fn peel(n: usize, instances: &InstanceSet) -> Peeling {
    with_peel(n, Rows::Instances(instances), |p| p.to_peeling())
}

/// The edge-density [`peel`] of `g`, reading each node's edges from `g`'s
/// CSR rows instead of an instance list; the same [`Peeling`] as
/// `peel(g.num_nodes(), &enumerate_cliques(g, 2))`.
pub fn peel_edges(g: &Graph) -> Peeling {
    with_peel(g.num_nodes(), Rows::Csr(g), |p| p.to_peeling())
}

/// Peels `n` nodes over `rows` in this thread's workspace and hands `f`
/// the result.
pub(crate) fn with_peel<R>(n: usize, rows: Rows<'_>, f: impl FnOnce(Peeled<'_>) -> R) -> R {
    crate::workspace::with(&WORKSPACE, |ws| {
        let (best_density, best_len) = peel_in(n, rows, ws);
        f(Peeled {
            best_density,
            best_len,
            order: &ws.order,
            counts: &ws.counts,
            degrees: &ws.degrees,
            position: &ws.position,
        })
    })
}

/// The peel itself; returns the best suffix density and length.
fn peel_in(n: usize, rows: Rows<'_>, ws: &mut Workspace) -> (Density, usize) {
    let Workspace {
        buckets,
        inst_start,
        node_insts,
        alive_inst,
        order,
        counts,
        degrees,
        position,
    } = ws;
    let degree = &mut buckets.degree;
    degree.clear();
    let live = match rows {
        Rows::Csr(g) => {
            assert_eq!(g.num_nodes(), n, "one row per node");
            degree.extend(g.offsets().windows(2).map(|w| w[1] - w[0]));
            g.num_edges()
        }
        Rows::Instances(instances) => {
            let slots = instances.nodes();
            assert!(
                u32::try_from(slots.len()).is_ok_and(|s| s < REMOVED),
                "instance slots are indexed by u32"
            );
            degree.resize(n, 0);
            for &v in slots {
                degree[v as usize] += 1;
            }
            inst_start.clear();
            inst_start.resize(n + 1, 0);
            for v in 0..n {
                inst_start[v + 1] = inst_start[v] + degree[v];
            }
            node_insts.clear();
            node_insts.resize(slots.len(), 0);
            // Fill with `inst_start[v]` as row v's cursor; each cursor ends
            // at the next row's start, so one shift restores the offsets.
            for (i, inst) in instances.iter().enumerate() {
                for &v in inst {
                    node_insts[inst_start[v as usize] as usize] = i as u32;
                    inst_start[v as usize] += 1;
                }
            }
            inst_start.copy_within(0..n, 1);
            inst_start[0] = 0;
            alive_inst.clear();
            alive_inst.resize(instances.count(), true);
            instances.count()
        }
    };
    let mut live = u32::try_from(live).expect("instances are indexed by u32");
    buckets.fill();

    order.clear();
    counts.clear();
    degrees.clear();
    position.clear();
    position.resize(n, 0);
    // The best suffix so far, as (instances, nodes); both fit in u32, so
    // densities compare exactly by u64 cross-multiplication.
    let (mut best_live, mut best_len) = (0u32, n);
    // No live node has a degree below `cur`.
    let mut cur = 0usize;
    for remaining in (1..=n).rev() {
        // Record the density of the current suffix (before this removal).
        counts.push(live);
        if u64::from(live) * best_len as u64 > u64::from(best_live) * remaining as u64 {
            (best_live, best_len) = (live, remaining);
        }
        let v = buckets.pop_min(&mut cur);
        position[v as usize] = order.len() as u32;
        order.push(v);
        degrees.push(buckets.degree[v as usize]);
        buckets.degree[v as usize] = REMOVED;
        // Kill the instances containing v. Every other node of a live
        // instance is live: a removal kills all the instances it is in.
        match rows {
            Rows::Csr(g) => {
                for &w in &g.arc_targets()[g.arc_range(v)] {
                    if buckets.degree[w as usize] != REMOVED {
                        live -= 1;
                        cur = cur.min(buckets.lower(w));
                    }
                }
            }
            Rows::Instances(instances) => {
                let row = inst_start[v as usize] as usize..inst_start[v as usize + 1] as usize;
                for &ii in &node_insts[row] {
                    if alive_inst[ii as usize] {
                        alive_inst[ii as usize] = false;
                        live -= 1;
                        for &w in instances.get(ii as usize) {
                            if w != v {
                                cur = cur.min(buckets.lower(w));
                            }
                        }
                    }
                }
            }
        }
    }
    debug_assert_eq!(live, 0);
    buckets.clean = true;
    let best_density = match best_live {
        0 => Density::ZERO,
        live => Density::new(u64::from(live), best_len as u64),
    };
    (best_density, best_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::enumerate_cliques;
    use ugraph::Graph;

    /// K4 plus a pendant path: densest (edge) subgraph is the K4 with 6/4.
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
    fn edge_peeling_finds_k4() {
        let g = k4_tail();
        let edges = enumerate_cliques(&g, 2);
        let p = peel(g.num_nodes(), &edges);
        // Peeling is exact on this instance.
        assert_eq!(p.best_density, Density::new(6, 4));
        assert_eq!(p.best_subgraph, vec![0, 1, 2, 3]);
    }

    #[test]
    fn core_numbers_match_k_core() {
        let g = k4_tail();
        let edges = enumerate_cliques(&g, 2);
        let p = peel(g.num_nodes(), &edges);
        // K4 nodes have core number 3; path nodes 1.
        assert_eq!(p.core_number[0], 3);
        assert_eq!(p.core_number[3], 3);
        assert_eq!(p.core_number[4], 1);
        assert_eq!(p.core_number[5], 1);
    }

    #[test]
    fn triangle_peeling() {
        let g = k4_tail();
        let tris = enumerate_cliques(&g, 3);
        let p = peel(g.num_nodes(), &tris);
        // 4 triangles all inside the K4: ρ̃ = 4/4 = 1.
        assert_eq!(p.best_density, Density::new(4, 4));
        assert_eq!(p.best_subgraph, vec![0, 1, 2, 3]);
        // Triangle core numbers: K4 nodes participate in 3 triangles; after
        // peeling them greedily each is removed at degree ≥ 1... the max
        // threshold is C(3,2) = 3 for the last ones.
        assert_eq!(p.core_number[4], 0);
        assert_eq!(p.core_number[5], 0);
    }

    #[test]
    fn empty_graph_peels_to_zero() {
        let g = Graph::new(3);
        let edges = enumerate_cliques(&g, 2);
        let p = peel(3, &edges);
        assert_eq!(p.best_density, Density::ZERO);
        assert_eq!(p.removal_order.len(), 3);
    }

    #[test]
    fn suffixes_are_consistent() {
        let g = k4_tail();
        let edges = enumerate_cliques(&g, 2);
        let p = peel(g.num_nodes(), &edges);
        let mut last_len = usize::MAX;
        for (nodes, cnt) in p.suffixes() {
            assert!(nodes.len() < last_len);
            last_len = nodes.len();
            // Instance count of the suffix must equal a direct recount.
            assert_eq!(edges.count_within(g.num_nodes(), nodes), cnt);
        }
    }

    #[test]
    fn peeling_is_half_approximate_on_random_graphs() {
        // Charikar's guarantee for edge density: ρ̃ >= ρ*/2. Brute-force ρ*
        // on small pseudo-random graphs.
        let mut x = 0xdead_beefu64;
        for trial in 0..20 {
            let n = 6 + (trial % 3);
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 10 < 4 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let inst = enumerate_cliques(&g, 2);
            let p = peel(n, &inst);
            // Brute force ρ*.
            let mut best = Density::ZERO;
            for mask in 1u32..(1 << n) {
                let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| mask >> v & 1 == 1).collect();
                let cnt = g.induced_edge_count(&nodes) as u64;
                let d = Density::new(cnt, nodes.len() as u64);
                if d > best {
                    best = d;
                }
            }
            assert!(
                Density::new(p.best_density.num * 2, p.best_density.den) >= best,
                "trial {trial}: rho~ = {} < rho*/2 with rho* = {}",
                p.best_density,
                best
            );
        }
    }
}
