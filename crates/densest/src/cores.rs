//! Core decompositions: the classic `k`-core (Batagelj–Zaversnik, O(m)) for
//! edge degrees. The instance-based `(k, h)`/`(k, ψ)`-core (paper Def. 7,
//! \[5\]) is the peeling's
//! [`core_number`](crate::peeling::Peeling::core_number).
//!
//! Densest subgraphs live inside the `(⌈ρ̃⌉, ·)`-core (paper Lemma 2 and
//! \[46\]), so both the MPDS and NDS inner loops shrink each sampled world to
//! this core before building any flow network.

use ugraph::{Graph, NodeId};

/// Edge-degree core number of every node via the O(m) bucket-queue algorithm
/// of Batagelj–Zaversnik \[53\].
pub fn edge_core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<u32> = (0..n).map(|v| g.degree(v as NodeId) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;

    // Bucket sort nodes by degree.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d as usize] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let cnt = *b;
        *b = start;
        start += cnt;
    }
    let mut pos = vec![0usize; n]; // position of node in `vert`
    let mut vert = vec![0u32; n]; // nodes sorted by current degree
    {
        let mut fill = bin.clone();
        for v in 0..n {
            pos[v] = fill[degree[v] as usize];
            vert[pos[v]] = v as u32;
            fill[degree[v] as usize] += 1;
        }
    }

    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = degree[v];
        for &w in g.neighbors(v as NodeId) {
            let w = w as usize;
            if degree[w] > degree[v] {
                // Move w to the front of its bucket, then decrement.
                let dw = degree[w] as usize;
                let pw = pos[w];
                let pfirst = bin[dw];
                let ufirst = vert[pfirst] as usize;
                if w != ufirst {
                    vert.swap(pw, pfirst);
                    pos[w] = pfirst;
                    pos[ufirst] = pw;
                }
                bin[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::enumerate_cliques;
    use crate::peeling::peel;

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
    fn bz_core_numbers() {
        let g = k4_tail();
        let core = edge_core_numbers(&g);
        assert_eq!(core, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn bz_matches_generic_peeling_cores() {
        // The O(m) algorithm and the bucket-queue instance peeling must agree
        // on edge cores for a batch of pseudo-random graphs.
        let mut x = 0x1234_5678u64;
        for _ in 0..10 {
            let n = 12;
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
            let bz = edge_core_numbers(&g);
            let inst = enumerate_cliques(&g, 2);
            let p = peel(n, &inst);
            let generic: Vec<u32> = p.core_number.iter().map(|&c| c as u32).collect();
            assert_eq!(bz, generic);
        }
    }

    #[test]
    fn k_core_is_maximal_with_min_degree() {
        let g = k4_tail();
        let core: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|&v| edge_core_numbers(&g)[v as usize] >= 3)
            .collect();
        assert_eq!(core, vec![0, 1, 2, 3]);
        let (sub, _) = g.induced_subgraph(&core);
        for v in 0..sub.num_nodes() {
            assert!(sub.degree(v as NodeId) >= 3);
        }
    }

    #[test]
    fn triangle_core() {
        let g = k4_tail();
        let tris = enumerate_cliques(&g, 3);
        // Every K4 node is in 3 triangles; tail nodes in none.
        assert_eq!(peel(6, &tris).core_number, vec![3, 3, 3, 3, 0, 0]);
    }

    #[test]
    fn empty_graph_cores() {
        let g = Graph::new(0);
        assert!(edge_core_numbers(&g).is_empty());
        let g = Graph::new(4);
        assert_eq!(edge_core_numbers(&g), vec![0, 0, 0, 0]);
    }
}
