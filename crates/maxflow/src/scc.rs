//! Strongly connected components and the condensation DAG.
//!
//! The all-densest-subgraph enumerators decompose the residual graph under a
//! maximum flow into SCCs (paper Line 7 of Algorithms 2 and 4) and then walk
//! *independent component sets* — antichains of the condensation DAG — so
//! this module exposes, besides the component labelling itself, a closure
//! of per-component packed bitsets over descendants (paper Def. 9): seeded
//! with each component's own bit it yields `C ∪ des(C)`, and `d` is an
//! ancestor of `c` iff `c` is a descendant of `d`. The dual closure over
//! ancestors yields, per component, the set of components that reach it.

use crate::csr::Csr;

/// An iterative Tarjan SCC decomposition plus the condensation DAG, stored
/// flat: one array of members and one of DAG arcs, each with row offsets.
///
/// [`Condensation::rebuild`] decomposes another graph in place, reusing
/// every buffer (Tarjan's stacks included), so a solver that condenses one
/// residual graph per sampled world allocates only while the buffers grow.
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    /// Component id of each node.
    pub comp_of: Vec<u32>,
    /// Members of every component, grouped by component, ascending within
    /// one component: component `c` owns `members[member_start[c]..member_start[c + 1]]`.
    members: Vec<u32>,
    member_start: Vec<u32>,
    /// DAG arcs of every component, grouped by tail component: the distinct
    /// components its members point into (ascending, no self-loops).
    dag: Vec<u32>,
    dag_start: Vec<u32>,
    tarjan: Tarjan,
}

impl Condensation {
    /// Decomposes the directed graph `adj`.
    pub fn new(adj: &Csr) -> Self {
        let mut c = Condensation::default();
        c.rebuild(adj);
        c
    }

    /// Decomposes the directed graph `adj`, replacing the previous
    /// decomposition and reusing its buffers.
    pub fn rebuild(&mut self, adj: &Csr) {
        let n = adj.num_nodes();
        let num = self.tarjan.run(adj, &mut self.comp_of);

        // Members: a stable counting sort of the nodes by component.
        let start = &mut self.member_start;
        start.clear();
        start.resize(num + 1, 0);
        for &c in &self.comp_of {
            start[c as usize + 1] += 1;
        }
        for c in 0..num {
            start[c + 1] += start[c];
        }
        self.members.clear();
        self.members.resize(n, 0);
        // `cursor` is Tarjan's (now idle) low-link buffer, at least `num` long.
        let cursor = &mut self.tarjan.low;
        cursor[..num].copy_from_slice(&start[..num]);
        for (v, &c) in self.comp_of.iter().enumerate() {
            self.members[cursor[c as usize] as usize] = v as u32;
            cursor[c as usize] += 1;
        }

        // DAG arcs, one component at a time; `last` (Tarjan's idle index
        // buffer) remembers the last tail to record each head, so every
        // head is recorded once per tail.
        let last = &mut self.tarjan.index;
        last[..num].fill(u32::MAX);
        self.dag.clear();
        self.dag_start.clear();
        self.dag_start.push(0);
        for c in 0..num {
            let row_start = self.dag.len();
            for &v in &self.members[start[c] as usize..start[c + 1] as usize] {
                for &w in adj.row(v as usize) {
                    let cw = self.comp_of[w as usize];
                    if cw as usize != c && last[cw as usize] != c as u32 {
                        last[cw as usize] = c as u32;
                        self.dag.push(cw);
                    }
                }
            }
            self.dag[row_start..].sort_unstable();
            self.dag_start.push(self.dag.len() as u32);
        }
    }

    /// Number of components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.member_start.len().saturating_sub(1)
    }

    /// Members of component `c`, ascending.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.member_start[c] as usize..self.member_start[c + 1] as usize]
    }

    /// The distinct components that members of `c` point into, ascending
    /// (the condensation DAG's out-arcs of `c`).
    #[inline]
    pub fn successors(&self, c: usize) -> &[u32] {
        &self.dag[self.dag_start[c] as usize..self.dag_start[c + 1] as usize]
    }

    /// ORs into every component's row the rows of all its descendants, so
    /// a row that held a component's own items ends up holding those of
    /// `C ∪ des(C)` (paper Def. 9). `rows` is flat, `words` u64s per
    /// component.
    ///
    /// One ascending pass suffices because Tarjan numbers every component
    /// before any component that can reach it.
    pub fn close_over_descendants(&self, rows: &mut [u64], words: usize) {
        for c in 0..self.num_components() {
            let (done, rest) = rows.split_at_mut(c * words);
            for &d in self.successors(c) {
                let d = d as usize;
                debug_assert!(d < c, "Tarjan numbers descendants first");
                or_row(&mut rest[..words], &done[d * words..(d + 1) * words]);
            }
        }
    }

    /// ORs into every component's row the rows of all its ancestors, so a
    /// row seeded with a component's own bit ends up holding `C ∪ anc(C)`:
    /// the components that reach `C`.
    ///
    /// One descending pass suffices: every ancestor of `c` carries a larger
    /// id, so its row is final before it is pushed into `c`'s.
    pub fn close_over_ancestors(&self, rows: &mut [u64], words: usize) {
        for p in (0..self.num_components()).rev() {
            let (before, from_p) = rows.split_at_mut(p * words);
            for &c in self.successors(p) {
                let c = c as usize;
                debug_assert!(c < p, "Tarjan numbers descendants first");
                or_row(&mut before[c * words..(c + 1) * words], &from_p[..words]);
            }
        }
    }
}

fn or_row(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Iterative Tarjan SCC with buffers kept between runs.
#[derive(Debug, Clone, Default)]
struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS frames: (node, next-child position).
    frames: Vec<(u32, u32)>,
}

impl Tarjan {
    /// Writes the component id of each node into `comp` and returns the
    /// number of components. Component ids are assigned in reverse
    /// topological completion order (Tarjan property: a component is
    /// numbered before any component that can reach it); with the roots
    /// tried in ascending id and each row walked in order, the numbering is
    /// a function of the graph's rows.
    fn run(&mut self, adj: &Csr, comp: &mut Vec<u32>) -> usize {
        let n = adj.num_nodes();
        let (index, low, on_stack) = (&mut self.index, &mut self.low, &mut self.on_stack);
        index.clear();
        index.resize(n, u32::MAX);
        low.clear();
        low.resize(n, 0);
        on_stack.clear();
        on_stack.resize(n, false);
        comp.clear();
        comp.resize(n, u32::MAX);
        self.stack.clear();
        let mut next_index = 0u32;
        let mut next_comp = 0u32;

        for root in 0..n as u32 {
            if index[root as usize] != u32::MAX {
                continue;
            }
            self.frames.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            self.stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut child)) = self.frames.last_mut() {
                let vu = v as usize;
                let row = adj.row(vu);
                if (*child as usize) < row.len() {
                    let w = row[*child as usize];
                    *child += 1;
                    let wu = w as usize;
                    if index[wu] == u32::MAX {
                        index[wu] = next_index;
                        low[wu] = next_index;
                        next_index += 1;
                        self.stack.push(w);
                        on_stack[wu] = true;
                        self.frames.push((w, 0));
                    } else if on_stack[wu] {
                        low[vu] = low[vu].min(index[wu]);
                    }
                } else {
                    self.frames.pop();
                    if let Some(&mut (p, _)) = self.frames.last_mut() {
                        let pu = p as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                    if low[vu] == index[vu] {
                        // v is the root of a component: pop the stack down to v.
                        loop {
                            let w = self.stack.pop().expect("tarjan stack non-empty");
                            on_stack[w as usize] = false;
                            comp[w as usize] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        next_comp as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `des(x)`: the closure of one bit per component, minus `x` itself.
    fn descendants(c: &Condensation, x: usize) -> Vec<usize> {
        let (n, words) = (c.num_components(), c.num_components().div_ceil(64));
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            rows[i * words + i / 64] |= 1 << (i % 64);
        }
        c.close_over_descendants(&mut rows, words);
        (0..n)
            .filter(|&d| d != x && rows[x * words + d / 64] >> (d % 64) & 1 == 1)
            .collect()
    }

    /// `anc(x)`: every component whose descendants include `x`.
    fn ancestors(c: &Condensation, x: usize) -> Vec<usize> {
        (0..c.num_components())
            .filter(|&a| descendants(c, a).contains(&x))
            .collect()
    }

    /// `anc(x)` read off the closure over ancestors, minus `x` itself.
    fn ancestors_closed(c: &Condensation, x: usize) -> Vec<usize> {
        let (n, words) = (c.num_components(), c.num_components().div_ceil(64));
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            rows[i * words + i / 64] |= 1 << (i % 64);
        }
        c.close_over_ancestors(&mut rows, words);
        (0..n)
            .filter(|&a| a != x && rows[x * words + a / 64] >> (a % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn single_cycle() {
        let adj = vec![vec![1], vec![2], vec![0]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert_eq!(c.num_components(), 1);
        assert_eq!(c.members(0), [0, 1, 2]);
        assert!(c.successors(0).is_empty());
    }

    #[test]
    fn two_components_with_edge() {
        // {0,1} -> {2,3}
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert_eq!(c.num_components(), 2);
        let c01 = c.comp_of[0] as usize;
        let c23 = c.comp_of[2] as usize;
        assert_ne!(c01, c23);
        assert_eq!(c.successors(c01), [c23 as u32]);
        assert!(c.successors(c23).is_empty());
        assert_eq!(descendants(&c, c01), vec![c23]);
        assert!(descendants(&c, c23).is_empty());
        assert_eq!(ancestors(&c, c23), vec![c01]);
    }

    #[test]
    fn dag_of_singletons() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 (a diamond DAG).
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert_eq!(c.num_components(), 4);
        let c0 = c.comp_of[0] as usize;
        assert_eq!(descendants(&c, c0).len(), 3);
        let c3 = c.comp_of[3] as usize;
        assert_eq!(ancestors(&c, c3).len(), 3);
        assert!(descendants(&c, c3).is_empty());
    }

    #[test]
    fn tarjan_reverse_topological_numbering() {
        // comp(0) can reach comp(3): Tarjan numbers sink components first.
        let adj = vec![vec![1], vec![], vec![], vec![]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert!(c.comp_of[1] < c.comp_of[0]);
    }

    #[test]
    fn rebuild_matches_a_fresh_decomposition() {
        let big = Csr::from_rows(&[vec![1], vec![0, 2], vec![3], vec![2, 4], vec![]]);
        let small = Csr::from_rows(&[vec![1, 2], vec![3], vec![3], vec![]]);
        let mut c = Condensation::new(&big);
        c.rebuild(&small);
        let fresh = Condensation::new(&small);
        assert_eq!(c.comp_of, fresh.comp_of);
        assert_eq!(c.num_components(), fresh.num_components());
        for x in 0..c.num_components() {
            assert_eq!(c.members(x), fresh.members(x));
            assert_eq!(c.successors(x), fresh.successors(x));
        }
    }

    #[test]
    fn dag_of_singletons_ancestors() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3: comp(3) has three ancestors.
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        let c3 = c.comp_of[3] as usize;
        assert_eq!(ancestors_closed(&c, c3).len(), 3);
        assert!(ancestors_closed(&c, c.comp_of[0] as usize).is_empty());
    }

    #[test]
    fn disconnected_nodes_are_singletons() {
        let adj = vec![vec![], vec![], vec![]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert_eq!(c.num_components(), 3);
    }

    #[test]
    fn nested_cycles() {
        // 0 <-> 1, 1 -> 2, 2 <-> 3, 3 -> 4.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2, 4], vec![]];
        let c = Condensation::new(&Csr::from_rows(&adj));
        assert_eq!(c.num_components(), 3);
        assert_eq!(c.comp_of[0], c.comp_of[1]);
        assert_eq!(c.comp_of[2], c.comp_of[3]);
        assert_ne!(c.comp_of[0], c.comp_of[2]);
        let top = c.comp_of[0] as usize;
        assert_eq!(descendants(&c, top).len(), 2);
    }

    #[test]
    fn random_graph_components_are_consistent() {
        // Property: u,v share a component iff mutually reachable.
        let n = 30usize;
        let mut adj = vec![Vec::new(); n];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 100 < 8 {
                        adj[u].push(v as u32);
                    }
                }
            }
        }
        let c = Condensation::new(&Csr::from_rows(&adj));
        // The ancestor closure is the transpose of the descendant closure.
        for x in 0..c.num_components() {
            assert_eq!(ancestors_closed(&c, x), ancestors(&c, x), "component {x}");
        }
        // Members are grouped by component and ascending.
        let mut seen = vec![false; n];
        for comp in 0..c.num_components() {
            let m = c.members(comp);
            assert!(m.windows(2).all(|w| w[0] < w[1]));
            for &v in m {
                assert_eq!(c.comp_of[v as usize] as usize, comp);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let reach = |s: usize| -> Vec<bool> {
            let mut seen = vec![false; n];
            seen[s] = true;
            let mut st = vec![s];
            while let Some(v) = st.pop() {
                for &w in &adj[v] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        st.push(w as usize);
                    }
                }
            }
            seen
        };
        let reaches: Vec<Vec<bool>> = (0..n).map(reach).collect();
        for u in 0..n {
            for v in 0..n {
                let same = c.comp_of[u] == c.comp_of[v];
                let mutual = reaches[u][v] && reaches[v][u];
                assert_eq!(same, mutual, "nodes {u}, {v}");
            }
        }
    }
}
