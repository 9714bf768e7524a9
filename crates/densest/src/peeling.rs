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
use ugraph::NodeId;

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

/// The peeling's reusable buffers: a stream of sampled worlds peels
/// without allocating anything but its [`Peeling`] once they have grown.
#[derive(Default)]
struct Workspace {
    /// Live instance-degree of every node; `REMOVED` once peeled.
    degree: Vec<u32>,
    /// The instances of every node, CSR: node v's are
    /// `node_insts[inst_start[v]..inst_start[v + 1]]`, ascending.
    inst_start: Vec<u32>,
    node_insts: Vec<u32>,
    alive_inst: Vec<bool>,
    /// The nodes sorted by (initial degree, id): bucket d's initial run is
    /// `by_degree[run_start[d]..run_start[d + 1]]`.
    by_degree: Vec<NodeId>,
    run_start: Vec<u32>,
    /// `cursor[d]`: the first entry of bucket d's run not yet consumed.
    cursor: Vec<u32>,
    /// `late[d]`: min-heap on id of the nodes whose degree fell to `d`
    /// after the start.
    late: Vec<BinaryHeap<Reverse<NodeId>>>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// The degree of a node already peeled: no bucket's.
const REMOVED: u32 = u32::MAX;

/// Peels `n` nodes by minimum instance-degree.
///
/// Each step removes the live node of minimum instance-degree, ties to the
/// smaller id; nodes in no instance go first (degree 0, ascending id). The
/// removal order, and so every field of the [`Peeling`], is fully
/// determined by that rule.
///
/// A degree-bucket queue (Batagelj–Zaversnik) keeps that exact order:
/// bucket `d` holds its initial members as an ascending run, consumed
/// through a cursor, and a min-heap on id of the nodes whose degree fell to
/// `d` later. An entry whose node was removed, or whose degree moved on, is
/// skipped when it comes up. A removal can lower a degree by more than one
/// (shared or repeated instances), so the scan restarts at the smallest
/// degree a removal produced. Runs in
/// `O(n + d_max + Σ|inst| · log n)`, where only the nodes whose degree
/// falls pay the logarithm, and reuses a per-thread workspace.
pub fn peel(n: usize, instances: &InstanceSet) -> Peeling {
    crate::workspace::with(&WORKSPACE, |ws| peel_in(n, instances, ws))
}

fn peel_in(n: usize, instances: &InstanceSet, ws: &mut Workspace) -> Peeling {
    let Workspace {
        degree,
        inst_start,
        node_insts,
        alive_inst,
        by_degree,
        run_start,
        cursor,
        late,
    } = ws;
    let slots = instances.nodes();
    assert!(
        u32::try_from(slots.len()).is_ok_and(|s| s < REMOVED),
        "instance slots are indexed by u32"
    );
    degree.clear();
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
    // Fill with `inst_start[v]` as row v's cursor; each cursor ends at the
    // next row's start, so one shift restores the offsets.
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
    let mut live_instances = instances.count() as u64;

    // Counting sort by initial degree; ascending ids within each run.
    let buckets = degree.iter().max().map_or(0, |&d| d as usize + 1);
    run_start.clear();
    run_start.resize(buckets + 1, 0);
    for &d in degree.iter() {
        run_start[d as usize + 1] += 1;
    }
    for d in 0..buckets {
        run_start[d + 1] += run_start[d];
    }
    cursor.clear();
    cursor.extend_from_slice(&run_start[..buckets]);
    by_degree.clear();
    by_degree.resize(n, 0);
    for v in 0..n {
        let d = degree[v] as usize;
        by_degree[cursor[d] as usize] = v as NodeId;
        cursor[d] += 1;
    }
    cursor.copy_from_slice(&run_start[..buckets]);
    if late.len() < buckets {
        late.resize_with(buckets, BinaryHeap::new);
    }
    for heap in &mut late[..buckets] {
        heap.clear();
    }

    let mut best_density = Density::ZERO;
    let mut best_suffix_len = n;
    let mut removal_rev: Vec<NodeId> = Vec::with_capacity(n); // removal order
    let mut suffix_counts_fwd: Vec<u64> = Vec::with_capacity(n);
    let mut core_number = vec![0u64; n];
    let mut running_max = 0u64;
    // No live node has a degree below `cur`.
    let mut cur = 0usize;

    for remaining in (1..=n).rev() {
        // Record the density of the current suffix (before this removal).
        let d = Density::new(live_instances, remaining as u64);
        suffix_counts_fwd.push(live_instances);
        if d > best_density {
            best_density = d;
            best_suffix_len = remaining;
        }
        // The smallest id among the live nodes of degree `cur`, or the next
        // bucket when there is none.
        let v = loop {
            let here = cur as u32;
            let (run, end) = (&mut cursor[cur], run_start[cur + 1]);
            while *run < end && degree[by_degree[*run as usize] as usize] != here {
                *run += 1;
            }
            let heap = &mut late[cur];
            while heap
                .peek()
                .is_some_and(|&Reverse(w)| degree[w as usize] != here)
            {
                heap.pop();
            }
            let head = (*run < end).then(|| by_degree[*run as usize]);
            match (head, heap.peek()) {
                (Some(a), Some(&Reverse(b))) if b < a => {
                    heap.pop();
                    break b;
                }
                (Some(a), _) => {
                    *run += 1;
                    break a;
                }
                (None, Some(&Reverse(b))) => {
                    heap.pop();
                    break b;
                }
                (None, None) => cur += 1,
            }
        };
        running_max = running_max.max(u64::from(degree[v as usize]));
        core_number[v as usize] = running_max;
        degree[v as usize] = REMOVED;
        removal_rev.push(v);
        // Kill the instances containing v. Every other node of a live
        // instance is live: a removal kills all the instances it is in.
        let row = inst_start[v as usize] as usize..inst_start[v as usize + 1] as usize;
        for &ii in &node_insts[row] {
            if alive_inst[ii as usize] {
                alive_inst[ii as usize] = false;
                live_instances -= 1;
                for &w in instances.get(ii as usize) {
                    if w != v {
                        let dw = &mut degree[w as usize];
                        *dw -= 1;
                        late[*dw as usize].push(Reverse(w));
                        cur = cur.min(*dw as usize);
                    }
                }
            }
        }
    }
    debug_assert_eq!(live_instances, 0);

    // removal_order: last removed first.
    removal_rev.reverse();
    let best_subgraph: Vec<NodeId> = {
        let mut s = removal_rev[..best_suffix_len].to_vec();
        s.sort_unstable();
        s
    };
    Peeling {
        best_density,
        best_subgraph,
        core_number,
        removal_order: removal_rev,
        suffix_counts: suffix_counts_fwd,
    }
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
