//! Strongly connected components and the condensation DAG.
//!
//! The all-densest-subgraph enumerators decompose the residual graph under a
//! maximum flow into SCCs (paper Line 7 of Algorithms 2 and 4) and then walk
//! *independent component sets* — antichains of the condensation DAG — so
//! this module exposes, besides the component labelling itself, a closure
//! of per-component packed bitsets over descendants (paper Def. 9): seeded
//! with each component's own bit it yields `C ∪ des(C)`, and `d` is an
//! ancestor of `c` iff `c` is a descendant of `d`.

/// An iterative Tarjan SCC decomposition plus the condensation DAG.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each node.
    pub comp_of: Vec<u32>,
    /// Members of each component (sorted).
    pub members: Vec<Vec<u32>>,
    /// Condensation DAG adjacency: edges from a component to the distinct
    /// components its members point into (deduplicated, no self-loops).
    pub dag: Vec<Vec<u32>>,
}

impl Condensation {
    /// Decomposes the directed graph given as adjacency lists.
    pub fn new(adj: &[Vec<u32>]) -> Self {
        let comp_of = tarjan(adj);
        let num = comp_of.iter().map(|&c| c + 1).max().unwrap_or(0) as usize;
        let mut members = vec![Vec::new(); num];
        for (v, &c) in comp_of.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        let mut dag = vec![Vec::new(); num];
        for (v, outs) in adj.iter().enumerate() {
            let cv = comp_of[v];
            for &w in outs {
                let cw = comp_of[w as usize];
                if cv != cw {
                    dag[cv as usize].push(cw);
                }
            }
        }
        for outs in &mut dag {
            outs.sort_unstable();
            outs.dedup();
        }
        Condensation {
            comp_of,
            members,
            dag,
        }
    }

    /// Number of components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.members.len()
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
            for &d in &self.dag[c] {
                let d = d as usize;
                debug_assert!(d < c, "Tarjan numbers descendants first");
                for (w, &x) in rest[..words]
                    .iter_mut()
                    .zip(&done[d * words..(d + 1) * words])
                {
                    *w |= x;
                }
            }
        }
    }
}

/// Iterative Tarjan SCC; returns the component id of each node. Component
/// ids are assigned in reverse topological completion order (Tarjan property:
/// a component is numbered before any component that can reach it).
fn tarjan(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let vu = v as usize;
            if (*child as usize) < adj[vu].len() {
                let w = adj[vu][*child as usize];
                *child += 1;
                let wu = w as usize;
                if index[wu] == u32::MAX {
                    index[wu] = next_index;
                    low[wu] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    frames.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    let pu = p as usize;
                    low[pu] = low[pu].min(low[vu]);
                }
                if low[vu] == index[vu] {
                    // v is the root of a component: pop the stack down to v.
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
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
    comp
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

    #[test]
    fn single_cycle() {
        let adj = vec![vec![1], vec![2], vec![0]];
        let c = Condensation::new(&adj);
        assert_eq!(c.num_components(), 1);
        assert_eq!(c.members[0], vec![0, 1, 2]);
        assert!(c.dag[0].is_empty());
    }

    #[test]
    fn two_components_with_edge() {
        // {0,1} -> {2,3}
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let c = Condensation::new(&adj);
        assert_eq!(c.num_components(), 2);
        let c01 = c.comp_of[0] as usize;
        let c23 = c.comp_of[2] as usize;
        assert_ne!(c01, c23);
        assert_eq!(c.dag[c01], vec![c23 as u32]);
        assert!(c.dag[c23].is_empty());
        assert_eq!(descendants(&c, c01), vec![c23]);
        assert!(descendants(&c, c23).is_empty());
        assert_eq!(ancestors(&c, c23), vec![c01]);
    }

    #[test]
    fn dag_of_singletons() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 (a diamond DAG).
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let c = Condensation::new(&adj);
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
        let c = Condensation::new(&adj);
        assert!(c.comp_of[1] < c.comp_of[0]);
    }

    #[test]
    fn disconnected_nodes_are_singletons() {
        let adj = vec![vec![], vec![], vec![]];
        let c = Condensation::new(&adj);
        assert_eq!(c.num_components(), 3);
    }

    #[test]
    fn nested_cycles() {
        // 0 <-> 1, 1 -> 2, 2 <-> 3, 3 -> 4.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2, 4], vec![]];
        let c = Condensation::new(&adj);
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
        let c = Condensation::new(&adj);
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
