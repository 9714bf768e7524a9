//! Dinic's maximum-flow algorithm over integer capacities.
//!
//! Edges are stored in the usual paired layout: edge `2i` is the forward arc
//! and edge `2i + 1` its reverse, so residual updates are branch-free
//! (`cap[e ^ 1] += f`). Capacities are `u64`; "infinite" capacity is the
//! sentinel [`INF`], chosen so that sums of many infinite arcs cannot
//! overflow.
//!
//! Out-arcs are kept in CSR form (`start` offsets into one contiguous
//! `order` array) rather than per-node `Vec`s, so the BFS/DFS inner loops
//! scan cache-resident slices. The CSR index is (re)built lazily — arcs can
//! be added at any time and [`FlowNetwork::max_flow`] freezes the adjacency
//! before running; the counting sort is stable, preserving per-node arc
//! insertion order.
//!
//! A network is meant to be reused: [`FlowNetwork::clear`] empties it for
//! another graph while keeping every buffer, and the reachability queries
//! answer from scratch the network owns, so a solver that rebuilds one
//! network per parameter value and per sampled world allocates only while
//! its buffers are still growing.

use crate::csr::Csr;
use std::collections::VecDeque;

/// Effectively infinite capacity (≈ 4.6e18 / 4). Large enough to dominate any
/// finite cut in the paper's constructions, small enough that adding a few
/// thousand of them to a real capacity cannot overflow `u64`.
pub const INF: u64 = u64::MAX / 4;

/// A flow network over nodes `0..n` with `u64` capacities.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Number of nodes.
    n: usize,
    /// Head node of each arc.
    to: Vec<u32>,
    /// Tail node of each arc (used to build the CSR index).
    tail: Vec<u32>,
    /// Residual capacity of each arc (mutated by `max_flow`).
    cap: Vec<u64>,
    /// Original capacity of each arc.
    orig: Vec<u64>,
    /// CSR offsets: arcs leaving node `v` are `order[start[v]..start[v+1]]`.
    /// Valid only while `frozen`.
    start: Vec<u32>,
    /// Arc indices grouped by tail node, insertion order within each node.
    order: Vec<u32>,
    /// Whether `start`/`order` reflect the current arc set.
    frozen: bool,
    // Scratch buffers reused across BFS/DFS phases, augmenting paths and
    // reachability queries.
    level: Vec<u32>,
    iter: Vec<u32>,
    queue: VecDeque<u32>,
    path: Vec<u32>,
    seen: Vec<bool>,
}

impl Default for FlowNetwork {
    /// An empty network with no nodes, ready for [`FlowNetwork::clear`].
    fn default() -> Self {
        FlowNetwork::new(0)
    }
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            tail: Vec::new(),
            cap: Vec::new(),
            orig: Vec::new(),
            start: vec![0; n + 1],
            order: Vec::new(),
            frozen: true,
            level: vec![0; n],
            iter: vec![0; n],
            queue: VecDeque::new(),
            path: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Removes every arc and resizes the network to `n` nodes, keeping all
    /// allocated buffers: the result behaves exactly like
    /// `FlowNetwork::new(n)`.
    pub fn clear(&mut self, n: usize) {
        self.n = n;
        self.to.clear();
        self.tail.clear();
        self.cap.clear();
        self.orig.clear();
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.order.clear();
        self.frozen = true;
        self.level.resize(n, 0);
        self.iter.resize(n, 0);
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `u → v` with capacity `cap` and its reverse arc
    /// `v → u` with capacity `rev_cap` (commonly 0). Returns the forward arc
    /// index; the reverse arc is `index ^ 1`.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u64, rev_cap: u64) -> usize {
        assert!(u < self.num_nodes() && v < self.num_nodes());
        assert_ne!(u, v, "self-loop arcs are never useful in these networks");
        let e = self.to.len();
        self.to.push(v as u32);
        self.tail.push(u as u32);
        self.cap.push(cap);
        self.orig.push(cap);
        self.to.push(u as u32);
        self.tail.push(v as u32);
        self.cap.push(rev_cap);
        self.orig.push(rev_cap);
        self.frozen = false;
        e
    }

    /// Rebuilds the CSR adjacency index. Called automatically by
    /// [`FlowNetwork::max_flow`]; idempotent once built. A stable counting
    /// sort of arc ids by tail node keeps the per-node arc order equal to
    /// insertion order.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        let n = self.n;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &t in &self.tail {
            self.start[t as usize + 1] += 1;
        }
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        self.order.clear();
        self.order.resize(self.to.len(), 0);
        // `iter` (reset before every use in `max_flow`) is the fill cursor.
        let cursor = &mut self.iter;
        cursor.copy_from_slice(&self.start[..n]);
        for (a, &t) in self.tail.iter().enumerate() {
            let c = cursor[t as usize] as usize;
            self.order[c] = a as u32;
            cursor[t as usize] += 1;
        }
        self.frozen = true;
    }

    /// Current flow on the forward arc `e` (original capacity minus residual).
    #[inline]
    pub fn flow(&self, e: usize) -> u64 {
        self.orig[e] - self.cap[e]
    }

    /// Residual capacity of arc `e`.
    #[inline]
    pub fn residual(&self, e: usize) -> u64 {
        self.cap[e]
    }

    /// Computes a maximum `s`–`t` flow with Dinic's algorithm and returns its
    /// value. Residual capacities are left in place for cut extraction.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t);
        self.freeze();
        let mut total = 0u64;
        loop {
            // BFS: build level graph.
            self.level.iter_mut().for_each(|l| *l = u32::MAX);
            self.level[s] = 0;
            self.queue.clear();
            self.queue.push_back(s as u32);
            while let Some(v) = self.queue.pop_front() {
                let row = self.start[v as usize] as usize..self.start[v as usize + 1] as usize;
                for i in row {
                    let e = self.order[i];
                    let w = self.to[e as usize];
                    if self.cap[e as usize] > 0 && self.level[w as usize] == u32::MAX {
                        self.level[w as usize] = self.level[v as usize] + 1;
                        self.queue.push_back(w);
                    }
                }
            }
            if self.level[t] == u32::MAX {
                return total;
            }
            // Blocking flow via iterative DFS with the current-arc optimization.
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs_augment(s, t);
                if f == 0 {
                    break;
                }
                total += f;
            }
        }
    }

    /// Finds one augmenting path in the level graph and pushes flow along it.
    /// Returns the pushed amount (0 when the blocking flow is complete).
    fn dfs_augment(&mut self, s: usize, t: usize) -> u64 {
        // Iterative DFS storing the path of arcs taken.
        self.path.clear();
        let mut v = s;
        loop {
            if v == t {
                // Bottleneck along the path, then push.
                let mut f = u64::MAX;
                for &e in &self.path {
                    f = f.min(self.cap[e as usize]);
                }
                debug_assert!(f > 0);
                for &e in &self.path {
                    self.cap[e as usize] -= f;
                    self.cap[e as usize ^ 1] += f;
                }
                return f;
            }
            let mut advanced = false;
            let row_len = (self.start[v + 1] - self.start[v]) as usize;
            while (self.iter[v] as usize) < row_len {
                let e = self.order[self.start[v] as usize + self.iter[v] as usize];
                let w = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && self.level[w] == self.level[v] + 1 {
                    self.path.push(e);
                    v = w;
                    advanced = true;
                    break;
                }
                self.iter[v] += 1;
            }
            if advanced {
                continue;
            }
            // Dead end: mark the node unusable in this phase and backtrack.
            self.level[v] = u32::MAX;
            match self.path.pop() {
                Some(e) => {
                    v = self.to[e as usize ^ 1] as usize;
                    self.iter[v] += 1;
                }
                None => return 0,
            }
        }
    }

    /// Nodes reachable from `s` through arcs with positive residual capacity
    /// (the source side of the *minimal* minimum cut), indexed by node. Call
    /// after `max_flow`. The slice lives in the network's scratch and is
    /// overwritten by the next reachability query.
    pub fn reachable_from(&mut self, s: usize) -> &[bool] {
        // Arc e: v → w is traversable when its own residual is positive.
        self.search(s, |net, e| net.cap[e] > 0)
    }

    /// Nodes that can reach `t` through residual arcs, indexed by node. The
    /// complement is the source side of the *maximal* minimum cut — how the
    /// maximum-sized densest subgraph is extracted (paper footnote 5 /
    /// \[59\]). Shares its scratch with [`FlowNetwork::reachable_from`].
    pub fn can_reach(&mut self, t: usize) -> &[bool] {
        // Walking backwards from w over arc e: w → v: the residual arc
        // v → w is its pair e ^ 1.
        self.search(t, |net, e| net.cap[e ^ 1] > 0)
    }

    /// Breadth-first search from `root` over the arcs `e` leaving each
    /// visited node for which `usable(self, e)` holds.
    fn search(&mut self, root: usize, usable: impl Fn(&Self, usize) -> bool) -> &[bool] {
        self.freeze();
        self.seen.clear();
        self.seen.resize(self.n, false);
        self.seen[root] = true;
        self.queue.clear();
        self.queue.push_back(root as u32);
        while let Some(v) = self.queue.pop_front() {
            let row = self.start[v as usize] as usize..self.start[v as usize + 1] as usize;
            for i in row {
                let e = self.order[i] as usize;
                let w = self.to[e] as usize;
                if !self.seen[w] && usable(self, e) {
                    self.seen[w] = true;
                    self.queue.push_back(w as u32);
                }
            }
        }
        &self.seen
    }

    /// The residual graph: an arc `v → w` for every arc with positive
    /// residual capacity, each row sorted ascending and deduplicated.
    /// Allocates a fresh [`Csr`]; [`FlowNetwork::residual_graph_into`]
    /// refills an existing one.
    pub fn residual_graph(&self) -> Csr {
        let mut out = Csr::default();
        self.residual_graph_into(&mut out);
        out
    }

    /// Writes the residual graph into `out`, reusing its buffers. The rows
    /// are sorted and deduplicated because the SCC numbering downstream
    /// (and with it the densest-subgraph emission order) follows the row
    /// order. Reads the arc arrays directly, so the network need not be
    /// frozen.
    pub fn residual_graph_into(&self, out: &mut Csr) {
        let n = self.n;
        let offsets = &mut out.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for (e, &t) in self.tail.iter().enumerate() {
            if self.cap[e] > 0 {
                offsets[t as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scatter in arc order with `offsets[v]` as row v's cursor; the
        // cursor ends at the start of row v + 1.
        let targets = &mut out.targets;
        targets.clear();
        targets.resize(offsets[n] as usize, 0);
        for (e, &t) in self.tail.iter().enumerate() {
            if self.cap[e] > 0 {
                let c = &mut offsets[t as usize];
                targets[*c as usize] = self.to[e];
                *c += 1;
            }
        }
        // Sort and deduplicate every row, compacting towards the front and
        // restoring `offsets[v]` to each row's new start.
        let (mut read, mut write) = (0usize, 0usize);
        for v in 0..n {
            let end = offsets[v] as usize;
            targets[read..end].sort_unstable();
            offsets[v] = write as u32;
            let row_start = write;
            for i in read..end {
                let x = targets[i];
                if write == row_start || targets[write - 1] != x {
                    targets[write] = x;
                    write += 1;
                }
            }
            read = end;
        }
        offsets[n] = write as u32;
        targets.truncate(write);
    }

    /// Resets all residual capacities to the original capacities, undoing any
    /// flow, so one network can be solved again.
    pub fn reset(&mut self) {
        self.cap.copy_from_slice(&self.orig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 5, 0);
        assert_eq!(f.max_flow(0, 1), 5);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two paths of capacity 10 and 10 sharing a middle edge 1->2
        // of capacity 5 gives flow 25 on the textbook example.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 10, 0);
        f.add_edge(0, 2, 10, 0);
        f.add_edge(1, 2, 5, 0);
        f.add_edge(1, 3, 10, 0);
        f.add_edge(2, 3, 10, 0);
        assert_eq!(f.max_flow(0, 3), 20);
    }

    #[test]
    fn respects_bottleneck() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 100, 0);
        f.add_edge(1, 2, 1, 0);
        f.add_edge(2, 3, 100, 0);
        assert_eq!(f.max_flow(0, 3), 1);
    }

    #[test]
    fn disconnected_sink() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 7, 0);
        assert_eq!(f.max_flow(0, 2), 0);
    }

    #[test]
    fn bidirectional_edge_via_rev_cap() {
        // An undirected edge of capacity 3 modelled as cap/rev_cap = 3/3.
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 3, 3);
        f.add_edge(1, 2, 2, 2);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn min_cut_sides() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 3, 0);
        f.add_edge(1, 2, 1, 0); // bottleneck
        f.add_edge(2, 3, 3, 0);
        assert_eq!(f.max_flow(0, 3), 1);
        assert_eq!(f.reachable_from(0), [true, true, false, false]);
        assert_eq!(f.can_reach(3), [false, false, true, true]);
    }

    #[test]
    fn flow_and_residual_accessors() {
        let mut f = FlowNetwork::new(2);
        let e = f.add_edge(0, 1, 4, 0);
        f.max_flow(0, 1);
        assert_eq!(f.flow(e), 4);
        assert_eq!(f.residual(e), 0);
        assert_eq!(f.residual(e ^ 1), 4);
    }

    #[test]
    fn reset_and_retune() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 10, 0);
        let e = f.add_edge(1, 2, 2, 0);
        assert_eq!(f.max_flow(0, 2), 2);
        f.reset();
        assert_eq!(f.max_flow(0, 2), 2, "reset undoes the first flow");
        // Retune the bottleneck's original capacity; reset restores from it.
        f.orig[e] = 6;
        f.reset();
        assert_eq!(f.max_flow(0, 2), 6);
    }

    #[test]
    fn residual_graph_dedup() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 1, 0);
        f.add_edge(0, 1, 1, 0);
        f.add_edge(1, 2, 5, 0);
        let rg = f.residual_graph();
        assert_eq!(rg.row(0), [1]);
        assert_eq!(rg.row(1), [2]);
    }

    #[test]
    fn residual_rows_are_sorted_and_match_the_arcs() {
        // Arcs inserted out of order, with parallels, saturated arcs and a
        // node without residual arcs.
        let mut f = FlowNetwork::new(5);
        f.add_edge(0, 3, 2, 0);
        f.add_edge(0, 1, 1, 1);
        f.add_edge(0, 3, 1, 0);
        f.add_edge(2, 1, 4, 0);
        f.add_edge(1, 4, 1, 0);
        f.add_edge(3, 4, 9, 0);
        f.max_flow(0, 4);
        let rg = f.residual_graph();
        assert_eq!(rg.num_nodes(), 5);
        for v in 0..5 {
            let mut want: Vec<u32> = (0..f.to.len())
                .filter(|&e| f.tail[e] as usize == v && f.residual(e) > 0)
                .map(|e| f.to[e])
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(rg.row(v), want, "row {v}");
        }
    }

    #[test]
    fn clear_behaves_like_new() {
        let mut f = FlowNetwork::new(6);
        f.add_edge(0, 5, 3, 0);
        f.max_flow(0, 5);
        f.reachable_from(0);
        f.clear(3);
        assert_eq!((f.num_nodes(), f.to.len()), (3, 0));
        f.add_edge(0, 1, 4, 0);
        f.add_edge(1, 2, 2, 0);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.reachable_from(0), [true, true, false]);
        assert_eq!(
            f.residual_graph(),
            Csr::from_rows(&[vec![1], vec![0], vec![1]])
        );
    }

    #[test]
    fn inf_edges_do_not_overflow() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, INF, 0);
        f.add_edge(0, 2, INF, 0);
        f.add_edge(1, 3, 10, 0);
        f.add_edge(2, 3, 20, 0);
        assert_eq!(f.max_flow(0, 3), 30);
    }

    #[test]
    fn larger_random_network_against_ford_fulkerson() {
        // Cross-check Dinic against a simple BFS Ford–Fulkerson on a fixed
        // pseudo-random network.
        let n = 12;
        let mut edges = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 10 < 3 {
                        edges.push((u, v, x % 50));
                    }
                }
            }
        }
        let mut dinic = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            dinic.add_edge(u, v, c, 0);
        }
        let got = dinic.max_flow(0, n - 1);
        assert_eq!(got, ford_fulkerson(n, &edges, 0, n - 1));
    }

    /// Reference implementation: Edmonds–Karp.
    fn ford_fulkerson(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
        let mut cap = vec![vec![0u64; n]; n];
        for &(u, v, c) in edges {
            cap[u][v] += c;
        }
        let mut flow = 0;
        loop {
            let mut parent = vec![usize::MAX; n];
            parent[s] = s;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for v in 0..n {
                    if parent[v] == usize::MAX && cap[u][v] > 0 {
                        parent[v] = u;
                        q.push_back(v);
                    }
                }
            }
            if parent[t] == usize::MAX {
                return flow;
            }
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let u = parent[v];
                bottleneck = bottleneck.min(cap[u][v]);
                v = u;
            }
            let mut v = t;
            while v != s {
                let u = parent[v];
                cap[u][v] -= bottleneck;
                cap[v][u] += bottleneck;
                v = u;
            }
            flow += bottleneck;
        }
    }
}
