//! Heuristic dense-subgraph extraction (paper §III-C remark).
//!
//! For large worlds and expensive patterns, enumerating all ψ-instances and
//! running the flow machinery per sampled world is costly. The paper's
//! fallback runs the core decomposition w.r.t. ψ and returns the innermost
//! `(k_max, ψ)`-core — whose density is at least `ρ*/|V_ψ|` \[5\] — together
//! with every intermediate peeling suffix that is denser than it. These node
//! sets replace the exact densest-subgraph list in Algorithm 1's inner loop.

use crate::density::Density;
use crate::notion::DensityNotion;
use crate::peeling::{with_peel, Peeled, Rows};
use crate::solve::{instances_of, normalize};
use std::cell::RefCell;
use std::cmp::Ordering;
use ugraph::{Graph, NodeId};

/// Result of the heuristic extraction on one deterministic graph.
#[derive(Debug, Clone)]
pub struct HeuristicDense {
    /// The densest of the returned subgraphs (exact density of that set).
    pub best_density: Density,
    /// Candidate dense node sets: the innermost core plus all denser peeling
    /// suffixes, sorted by density descending, then lexicographically on
    /// the sorted ids. The sets are distinct: they are suffixes of one
    /// removal order of distinct sizes.
    pub subgraphs: Vec<Vec<NodeId>>,
}

/// One world's heuristic candidates, read in place from per-thread buffers
/// (see [`with_candidates`]).
///
/// Every candidate is a suffix of one peeling order, so the candidates are
/// nested. The widest one is kept once, sorted by id, with each node's
/// removal index; candidate `i` of size `s` is the entries removed at
/// index `n - s` or later, so its ids come out ascending with no copy and
/// no sort.
pub struct Candidates<'a> {
    n: usize,
    /// The widest candidate's nodes, ascending id, each with its removal
    /// index.
    members: &'a [(NodeId, u32)],
    /// `(size, instance count)` of every candidate: the innermost core
    /// first, then the denser suffixes, largest first.
    sets: &'a [(u32, u32)],
}

impl<'a> Candidates<'a> {
    /// Number of candidates (at least one: the innermost core).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Always `false`: a world with instances has an innermost core.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Candidate `i`'s exact density.
    pub fn density(&self, i: usize) -> Density {
        let (size, count) = self.sets[i];
        Density::new(u64::from(count), u64::from(size))
    }

    /// Candidate `i`'s node count.
    pub fn size(&self, i: usize) -> usize {
        self.sets[i].0 as usize
    }

    /// Candidate `i`'s node ids, ascending.
    pub fn nodes(&self, i: usize) -> impl Iterator<Item = NodeId> + Clone + 'a {
        let from = (self.n - self.size(i)) as u32;
        self.members
            .iter()
            .filter(move |&&(_, removed)| removed >= from)
            .map(|&(v, _)| v)
    }

    /// The heuristic's ranking of two candidates: density descending,
    /// then lexicographic on the sorted ids.
    fn rank(&self, i: usize, j: usize) -> Ordering {
        self.density(j)
            .cmp(&self.density(i))
            .then_with(|| self.nodes(i).cmp(self.nodes(j)))
    }

    /// The candidate indices in ranking order (see
    /// [`HeuristicDense::subgraphs`]).
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&i, &j| self.rank(i, j));
        order
    }

    /// The first candidate in ranking order: the densest, ties to the
    /// lexicographically smallest.
    pub fn densest(&self) -> usize {
        (0..self.len())
            .min_by(|&i, &j| self.rank(i, j))
            .expect("a world with instances has an innermost core")
    }

    /// Candidate `i` as a sorted id list, allocated once at its size.
    pub fn collect(&self, i: usize) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.size(i));
        nodes.extend(self.nodes(i));
        nodes
    }

    fn to_dense(&self) -> HeuristicDense {
        let ranked = self.ranked();
        HeuristicDense {
            best_density: self.density(ranked[0]),
            subgraphs: ranked.into_iter().map(|i| self.collect(i)).collect(),
        }
    }
}

/// The candidates' reusable buffers.
#[derive(Default)]
struct Scratch {
    members: Vec<(NodeId, u32)>,
    sets: Vec<(u32, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on the heuristic candidates of `g` under `notion`, or on `None`
/// when `g` has no instance. Edge density peels `g`'s own CSR rows; other
/// notions peel their instance list. The peel and the candidates live in
/// per-thread buffers, so once those have grown a world allocates nothing
/// here beyond its instance list (none for edge density).
pub fn with_candidates<R>(
    g: &Graph,
    notion: &DensityNotion,
    f: impl FnOnce(Option<Candidates<'_>>) -> R,
) -> R {
    match normalize(notion) {
        DensityNotion::Edge if g.num_edges() == 0 => f(None),
        DensityNotion::Edge => candidates_in(g.num_nodes(), Rows::Csr(g), f),
        notion => {
            let instances = instances_of(g, &notion);
            if instances.count() == 0 {
                return f(None);
            }
            candidates_in(g.num_nodes(), Rows::Instances(&instances), f)
        }
    }
}

/// Runs the heuristic for `notion` on `g`. Returns `None` when `g` has no
/// instances (consistent with [`crate::solve::all_densest`]).
pub fn heuristic_dense_subgraphs(g: &Graph, notion: &DensityNotion) -> Option<HeuristicDense> {
    with_candidates(g, notion, |c| c.map(|c| c.to_dense()))
}

/// Peels `rows` (at least one instance) and hands `f` the candidates.
fn candidates_in<R>(n: usize, rows: Rows<'_>, f: impl FnOnce(Option<Candidates<'_>>) -> R) -> R {
    with_peel(n, rows, |p| {
        crate::workspace::with(&SCRATCH, |scratch| {
            collect(n, &p, scratch);
            f(Some(Candidates {
                n,
                members: &scratch.members,
                sets: &scratch.sets,
            }))
        })
    })
}

/// The innermost core, plus every peeling suffix strictly denser than it.
fn collect(n: usize, p: &Peeled<'_>, scratch: &mut Scratch) {
    let Scratch { members, sets } = scratch;
    // Core numbers are the running maximum of the removal degrees, so the
    // innermost core is a suffix of the peeling: the nodes removed from the
    // first removal at the largest core number on.
    let kmax = p.degrees.iter().copied().max().unwrap_or(0);
    let start = p.core_start(u64::from(kmax));
    let core = ((n - start) as u32, p.counts[start]);
    let core_density = Density::new(u64::from(core.1), u64::from(core.0));
    sets.clear();
    sets.push(core);
    for (i, &count) in p.counts.iter().enumerate() {
        let size = (n - i) as u32;
        if Density::new(u64::from(count), u64::from(size)) > core_density {
            sets.push((size, count));
        }
    }
    let widest = sets.iter().map(|&(size, _)| size).max().unwrap_or(0);
    let from = (n - widest as usize) as u32;
    members.clear();
    members.extend(
        p.position
            .iter()
            .enumerate()
            .filter(|&(_, &removed)| removed >= from)
            .map(|(v, &removed)| (v as NodeId, removed)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::max_density;

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
    fn heuristic_finds_k4() {
        let g = k4_tail();
        let h = heuristic_dense_subgraphs(&g, &DensityNotion::Edge).unwrap();
        assert_eq!(h.best_density, Density::new(6, 4));
        assert_eq!(h.subgraphs[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn heuristic_none_on_empty() {
        let g = Graph::new(4);
        assert!(heuristic_dense_subgraphs(&g, &DensityNotion::Edge).is_none());
    }

    #[test]
    fn heuristic_quality_guarantee() {
        // Paper [5]: the innermost core density is >= ρ*/|V_ψ|. Our returned
        // best is at least the core's density, so the same bound applies.
        let mut seed = 0x5eed_1234u64;
        for _ in 0..20 {
            let mut edges = Vec::new();
            for u in 0..9u32 {
                for v in (u + 1)..9 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 100 < 40 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(9, &edges);
            let notion = DensityNotion::Clique(3);
            let Some(exact) = max_density(&g, &notion) else {
                assert!(heuristic_dense_subgraphs(&g, &notion).is_none());
                continue;
            };
            let h = heuristic_dense_subgraphs(&g, &notion).unwrap();
            // best >= ρ*/3 (clique arity 3).
            assert!(
                Density::new(h.best_density.num * 3, h.best_density.den) >= exact,
                "heuristic {} vs exact {}",
                h.best_density,
                exact
            );
        }
    }

    #[test]
    fn subgraphs_are_sorted_by_density() {
        let g = k4_tail();
        let h = heuristic_dense_subgraphs(&g, &DensityNotion::Edge).unwrap();
        let densities: Vec<f64> = h
            .subgraphs
            .iter()
            .map(|s| {
                let inst = crate::solve::instances_of(&g, &DensityNotion::Edge);
                inst.count_within(6, s) as f64 / s.len() as f64
            })
            .collect();
        assert!(densities.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }
}
