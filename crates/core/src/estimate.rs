//! Top-k MPDS estimation (paper Algorithm 1).
//!
//! Sample θ possible worlds; in each, find **all** densest subgraphs and
//! increment their counters; return the k node sets with the highest
//! estimated densest subgraph probability `τ̂(U) = count(U) / θ` (an unbiased
//! estimator — paper Lemma 1; accuracy guarantees in [`crate::theory`]).
//!
//! The runnable entry point is [`crate::api::Query::mpds`] (single queries)
//! and [`crate::api::queryset::QuerySet`] (batches over one shared world
//! stream); this module keeps the result type and the ranking helpers.

use densest::DensityNotion;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use ugraph::bitset::ones_in;
use ugraph::{nodeset, NodeId, NodeSet};

/// Configuration for the top-k MPDS estimator.
#[derive(Debug, Clone)]
pub struct MpdsConfig {
    /// Density notion ρ (edge / h-clique / pattern).
    pub notion: DensityNotion,
    /// Number of sampled possible worlds θ.
    pub theta: usize,
    /// How many top node sets to return.
    pub k: usize,
    /// Cap on densest subgraphs enumerated per world (they can explode —
    /// paper Table VIII; LastFM std-dev > 22 000).
    pub enumeration_cap: usize,
    /// `true` (paper default): count *all* densest subgraphs per world.
    /// `false`: count one uniformly random densest subgraph per world — the
    /// §VI-D ablation showing why "all" matters (up to 20× on LastFM).
    pub all_densest: bool,
    /// Use the §III-C heuristic (innermost core + denser peeling suffixes)
    /// instead of the exact enumeration. For large graphs / big patterns.
    pub heuristic: bool,
    /// Seed for the internal tie-breaking RNG (used by the `one densest`
    /// ablation mode).
    pub choice_seed: u64,
}

impl MpdsConfig {
    /// Paper-default configuration for a given notion, θ, and k.
    pub fn new(notion: DensityNotion, theta: usize, k: usize) -> Self {
        MpdsConfig {
            notion,
            theta,
            k,
            enumeration_cap: 100_000,
            all_densest: true,
            heuristic: false,
            choice_seed: 0x5eed,
        }
    }
}

/// Output of the estimator.
#[derive(Debug, Clone)]
pub struct MpdsResult {
    /// Top-k node sets with their estimated densest subgraph probability
    /// `τ̂`, sorted by `τ̂` descending (ties: smaller set first, then
    /// lexicographic — deterministic).
    pub top_k: Vec<(NodeSet, f64)>,
    /// Full candidate table: node set → number of worlds in which it was a
    /// densest subgraph.
    pub candidates: CandidateTable,
    /// Number of sampled worlds.
    pub theta: usize,
    /// Worlds with no instance of the notion (they contribute to no set).
    pub empty_worlds: usize,
    /// Number of densest subgraphs found in each world (paper Table VIII).
    pub densest_counts: Vec<usize>,
    /// Whether any world's enumeration hit the cap.
    pub truncated: bool,
}

impl MpdsResult {
    /// Estimated densest subgraph probability of an arbitrary node set, in
    /// any order and with repeats allowed.
    pub fn tau_hat(&self, nodes: &[NodeId]) -> f64 {
        self.candidates.get(nodes).unwrap_or(0) as f64 / self.theta as f64
    }
}

/// The candidate table of paper Algorithm 1: every node set that was a
/// densest subgraph in some sampled world, with the number of such worlds.
///
/// Keys are packed `u64` node masks when the graph has at most 64 nodes
/// (bit `v` = node `v`), and sorted [`NodeSet`]s otherwise. The choice
/// follows from the graph alone; both behave the same through this API, and
/// tables compare equal by content whatever their key form.
///
/// Ranking ([`CandidateTable::top_k`]) orders by count descending, then
/// fewer nodes first, then lexicographically on the sorted ids. No two
/// distinct sets tie under that order, so the ranking never depends on hash
/// iteration order. Which sets a table holds, though, depends on the
/// enumeration order of [`densest::for_each_densest`]: a world truncated at
/// the enumeration cap credits only the first sets of that order, and the
/// one-densest-per-world ablation credits the set at a random position in
/// it.
///
/// ```
/// use densest::DensityNotion;
/// use mpds::api::{Query, RunDetails};
/// use ugraph::UncertainGraph;
///
/// // {0, 1} is densest in every world; {2, 3} only when its edge exists.
/// let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 0.5)]);
/// let run = Query::mpds(DensityNotion::Edge).theta(20).run(&g).unwrap();
/// let RunDetails::Mpds(r) = &run.details else { unreachable!() };
/// assert_eq!(r.candidates.get(&[1, 0]), Some(20)); // any order
/// assert_eq!(r.candidates.top_k(1), vec![(vec![0, 1], 20)]);
/// assert_eq!(r.candidates.iter().count(), r.candidates.len());
/// ```
#[derive(Debug, Clone)]
pub struct CandidateTable {
    keys: Keys,
}

#[derive(Debug, Clone)]
enum Keys {
    /// Graphs of at most 64 nodes: bit `v` of the key is node `v`.
    Packed(HashMap<u64, u32>),
    /// Larger graphs: sorted, duplicate-free id vectors.
    Sets(HashMap<NodeSet, u32>),
}

impl CandidateTable {
    /// An empty table for sets over a graph of `num_nodes` nodes.
    pub(crate) fn for_graph(num_nodes: usize) -> Self {
        let keys = if num_nodes <= 64 {
            Keys::Packed(HashMap::new())
        } else {
            Keys::Sets(HashMap::new())
        };
        CandidateTable { keys }
    }

    /// An empty table with the same key form.
    pub(crate) fn empty_like(&self) -> Self {
        let keys = match self.keys {
            Keys::Packed(_) => Keys::Packed(HashMap::new()),
            Keys::Sets(_) => Keys::Sets(HashMap::new()),
        };
        CandidateTable { keys }
    }

    /// Number of distinct candidate sets.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::Packed(m) => m.len(),
            Keys::Sets(m) => m.len(),
        }
    }

    /// Whether no world credited any set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The count of one node set (ids in any order, repeats allowed), or
    /// `None` if it never was a densest subgraph.
    pub fn get(&self, nodes: &[NodeId]) -> Option<u32> {
        match &self.keys {
            Keys::Packed(m) => {
                let mut mask = 0u64;
                for &v in nodes {
                    mask |= 1u64.checked_shl(v)?;
                }
                m.get(&mask).copied()
            }
            Keys::Sets(m) if nodes.windows(2).all(|w| w[0] < w[1]) => m.get(nodes).copied(),
            Keys::Sets(m) => m.get(&nodeset::canonicalize(nodes.to_vec())).copied(),
        }
    }

    /// Every `(sorted node set, count)` entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeSet, u32)> + '_ {
        let entries: Box<dyn Iterator<Item = (NodeSet, u32)> + '_> = match &self.keys {
            Keys::Packed(m) => Box::new(m.iter().map(|(&k, &c)| (mask_nodes(k), c))),
            Keys::Sets(m) => Box::new(m.iter().map(|(s, &c)| (s.clone(), c))),
        };
        entries
    }

    /// The `k` highest-ranked entries in ranking order (see the type docs):
    /// one pass through a bounded heap, `O(len · log k)`, never a sort of
    /// the whole table.
    pub fn top_k(&self, k: usize) -> Vec<(NodeSet, u32)> {
        match &self.keys {
            Keys::Packed(m) => smallest_k(
                m.iter()
                    .map(|(&key, &c)| (Reverse(c), packed_rank(key), key)),
                k,
            )
            .into_iter()
            .map(|(Reverse(c), _, key)| (mask_nodes(key), c))
            .collect(),
            Keys::Sets(m) => smallest_k(
                m.iter().map(|(s, &c)| (Reverse(c), s.len(), s.as_slice())),
                k,
            )
            .into_iter()
            .map(|(Reverse(c), _, s)| (s.to_vec(), c))
            .collect(),
        }
    }

    /// Credits one densest set given as a packed node mask (the layout of
    /// [`densest::for_each_densest`]). Masks of graphs past 64 nodes are
    /// decoded into the reused buffer `decoded`.
    pub(crate) fn credit_mask(&mut self, mask: &[u64], decoded: &mut NodeSet) {
        match &mut self.keys {
            Keys::Packed(m) => {
                debug_assert!(mask[1..].iter().all(|&w| w == 0));
                *m.entry(mask[0]).or_insert(0) += 1;
            }
            Keys::Sets(m) => {
                decoded.clear();
                decoded.extend(ones_in(mask).map(|v| v as NodeId));
                credit_set(m, decoded);
            }
        }
    }

    /// Credits one densest set given as sorted ids.
    pub(crate) fn credit_nodes(&mut self, nodes: &[NodeId]) {
        match &mut self.keys {
            Keys::Packed(m) => {
                let mask = nodes.iter().fold(0u64, |acc, &v| acc | 1 << v);
                *m.entry(mask).or_insert(0) += 1;
            }
            Keys::Sets(m) => credit_set(m, nodes),
        }
    }

    /// Adds another table's counts (same graph, so the same key form).
    pub(crate) fn merge(&mut self, other: CandidateTable) {
        match (&mut self.keys, other.keys) {
            (Keys::Packed(m), Keys::Packed(o)) => {
                for (k, c) in o {
                    *m.entry(k).or_insert(0) += c;
                }
            }
            (Keys::Sets(m), Keys::Sets(o)) => {
                for (s, c) in o {
                    *m.entry(s).or_insert(0) += c;
                }
            }
            _ => unreachable!("tables of one graph share their key form"),
        }
    }
}

impl PartialEq for CandidateTable {
    fn eq(&self, other: &Self) -> bool {
        match (&self.keys, &other.keys) {
            (Keys::Packed(a), Keys::Packed(b)) => a == b,
            (Keys::Sets(a), Keys::Sets(b)) => a == b,
            _ => self.len() == other.len() && self.iter().all(|(s, c)| other.get(&s) == Some(c)),
        }
    }
}

/// Counts one more world for `nodes`, allocating a key only for a new set.
fn credit_set(m: &mut HashMap<NodeSet, u32>, nodes: &[NodeId]) {
    match m.get_mut(nodes) {
        Some(c) => *c += 1,
        None => {
            m.insert(nodes.to_vec(), 1);
        }
    }
}

/// The sorted ids of a packed node mask.
fn mask_nodes(mask: u64) -> NodeSet {
    ones_in(&[mask]).map(|v| v as NodeId).collect()
}

/// A packed key's place in the ranking: fewer nodes first, then
/// lexicographic on the sorted ids. Among masks of equal size, the id lists
/// first differ at the lowest differing bit, and the mask holding it sorts
/// first: that is the larger bit-reversed mask.
fn packed_rank(mask: u64) -> (u32, Reverse<u64>) {
    (mask.count_ones(), Reverse(mask.reverse_bits()))
}

/// The `k` smallest items, ascending, through a heap of at most `k` items.
fn smallest_k<T: Ord>(items: impl Iterator<Item = T>, k: usize) -> Vec<T> {
    let mut heap = BinaryHeap::with_capacity(k.min(items.size_hint().0) + 1);
    for item in items {
        if heap.len() < k {
            heap.push(item);
        } else if let Some(mut worst) = heap.peek_mut() {
            if item < *worst {
                *worst = item;
            }
        }
    }
    heap.into_sorted_vec()
}

/// Summary statistics of the per-world densest-subgraph counts, as reported
/// in the paper's Table VIII: `(mean, std, [q1, median, q3])`.
pub fn densest_count_stats(counts: &[usize]) -> (f64, f64, [usize; 3]) {
    assert!(!counts.is_empty());
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean) * (c as f64 - mean))
        .sum::<f64>()
        / n;
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    (mean, var.sqrt(), [q(0.25), q(0.5), q(0.75)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Query, RunDetails};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sampling::MonteCarlo;
    use ugraph::UncertainGraph;

    /// The paper's Fig. 1 running example (matches Table I's probabilities).
    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    /// The ranking order by full sort: count descending, then fewer nodes,
    /// then lexicographic.
    fn sorted_reference(table: &CandidateTable) -> Vec<(NodeSet, u32)> {
        let mut all: Vec<(NodeSet, u32)> = table.iter().collect();
        all.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.len().cmp(&b.0.len()))
                .then(a.0.cmp(&b.0))
        });
        all
    }

    #[test]
    fn top_k_matches_the_full_sort_under_both_key_forms() {
        // Pseudo-random counts with heavy ties exercise every tie-break
        // (count, then length, then lexicographic); ids stay below 64 so
        // the same sets fit a packed and a sorted-set table.
        let mut packed = CandidateTable::for_graph(64);
        let mut sets = CandidateTable::for_graph(65);
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..300u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = 1 + (x % 4) as u32;
            let set = nodeset::canonicalize((0..len).map(|j| (i + j * 7) % 64).collect());
            for _ in 0..(x >> 32) % 5 + 1 {
                packed.credit_nodes(&set);
                sets.credit_nodes(&set);
            }
        }
        assert_eq!(packed, sets);
        assert_eq!(sets, packed);
        let full = sorted_reference(&packed);
        assert_eq!(full, sorted_reference(&sets));
        for k in [0, 1, 3, 7, full.len(), full.len() + 5] {
            let want = &full[..k.min(full.len())];
            assert_eq!(packed.top_k(k), want, "packed, k = {k}");
            assert_eq!(sets.top_k(k), want, "sets, k = {k}");
        }
    }

    #[test]
    fn packed_rank_orders_like_sorted_id_lists() {
        let masks: Vec<u64> = (1..256u64)
            .chain([1 << 63, 1 << 63 | 1, u64::MAX])
            .collect();
        for &a in &masks {
            for &b in &masks {
                let (na, nb) = (mask_nodes(a), mask_nodes(b));
                let want = na.len().cmp(&nb.len()).then_with(|| na.cmp(&nb));
                assert_eq!(
                    packed_rank(a).cmp(&packed_rank(b)),
                    want,
                    "{na:?} vs {nb:?}"
                );
            }
        }
    }

    #[test]
    fn lookups_ignore_order_and_repeats() {
        for n in [4, 100] {
            let mut t = CandidateTable::for_graph(n);
            t.credit_nodes(&[1, 3]);
            t.credit_mask(&[0b1010], &mut Vec::new());
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(&[1, 3]), Some(2));
            assert_eq!(t.get(&[3, 1, 3]), Some(2));
            assert_eq!(t.get(&[1]), None);
            assert_eq!(t.get(&[1, 3, 99]), None);
            assert_eq!(t.iter().collect::<Vec<_>>(), vec![(vec![1, 3], 2)]);
        }
    }

    /// The builder query equivalent to a legacy `MpdsConfig` invocation.
    fn query_for(cfg: &MpdsConfig) -> Query {
        Query::mpds(cfg.notion.clone())
            .theta(cfg.theta)
            .k(cfg.k)
            .enumeration_cap(cfg.enumeration_cap)
            .all_densest(cfg.all_densest)
            .heuristic(cfg.heuristic)
            .choice_seed(cfg.choice_seed)
    }

    fn run(g: &UncertainGraph, cfg: &MpdsConfig, seed: u64) -> MpdsResult {
        match query_for(cfg).seed(seed).run(g).unwrap().details {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!("Query::mpds produces MPDS details"),
        }
    }

    #[test]
    fn fig1_mpds_is_bd() {
        // Table I: DSP({B,D}) = 0.42 is the maximum; B = 1, D = 3.
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 4000, 1);
        let r = run(&g, &cfg, 42);
        assert_eq!(r.top_k.len(), 1);
        assert_eq!(r.top_k[0].0, vec![1, 3]);
        assert!((r.top_k[0].1 - 0.42).abs() < 0.03, "tau {}", r.top_k[0].1);
    }

    #[test]
    fn fig1_estimates_match_table1() {
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 8000, 10);
        let r = run(&g, &cfg, 7);
        // Table I DSP row: {A,B}=.07, {A,C}=.24, {B,D}=.42, {A,B,C}=.05,
        // {A,B,D}=.17, {A,B,C,D}=.28 (with A,B,C,D = 0,1,2,3).
        let close = |set: &[NodeId], want: f64| {
            let got = r.tau_hat(set);
            assert!((got - want).abs() < 0.025, "{set:?}: {got} vs {want}");
        };
        close(&[0, 1], 0.072);
        close(&[0, 2], 0.24);
        close(&[1, 3], 0.42);
        close(&[0, 1, 2], 0.048);
        close(&[0, 1, 3], 0.168);
        close(&[0, 1, 2, 3], 0.28);
    }

    #[test]
    fn empty_worlds_are_counted() {
        let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.1)]);
        let cfg = MpdsConfig::new(DensityNotion::Edge, 1000, 1);
        let r = run(&g, &cfg, 1);
        // ~90% of worlds have no edges.
        assert!(r.empty_worlds > 800);
        assert_eq!(r.densest_counts.len(), 1000);
        // The only candidate is {0,1} with tau ≈ 0.1.
        assert_eq!(r.top_k[0].0, vec![0, 1]);
        assert!((r.top_k[0].1 - 0.1).abs() < 0.03);
    }

    #[test]
    fn one_vs_all_mode() {
        // Two disjoint certain edges: every world has 3 densest subgraphs
        // ({0,1}, {2,3}, {0,1,2,3}). "All" mode gives each tau = 1; "one"
        // mode splits the mass.
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let mut cfg = MpdsConfig::new(DensityNotion::Edge, 300, 3);
        let all = run(&g, &cfg, 3);
        assert_eq!(all.top_k.len(), 3);
        for (_, tau) in &all.top_k {
            assert!((tau - 1.0).abs() < 1e-9);
        }
        cfg.all_densest = false;
        let one = run(&g, &cfg, 3);
        let total: f64 = one.top_k.iter().map(|(_, t)| t).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (_, tau) in &one.top_k {
            assert!(*tau < 0.6, "one-mode mass should split, got {tau}");
        }
    }

    #[test]
    fn clique_mpds_on_certain_triangle() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 0.5)],
        );
        let cfg = MpdsConfig::new(DensityNotion::Clique(3), 200, 1);
        let r = run(&g, &cfg, 5);
        assert_eq!(r.top_k[0].0, vec![0, 1, 2]);
        assert!((r.top_k[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heuristic_mode_runs() {
        let g = fig1();
        let mut cfg = MpdsConfig::new(DensityNotion::Edge, 500, 2);
        cfg.heuristic = true;
        let r = run(&g, &cfg, 11);
        assert!(!r.top_k.is_empty());
        // Heuristic candidates still have sane probabilities.
        for (_, tau) in &r.top_k {
            assert!(*tau <= 1.0 && *tau > 0.0);
        }
    }

    #[test]
    fn stats_helper() {
        let (mean, std, q) = densest_count_stats(&[1, 1, 1, 3]);
        assert!((mean - 1.5).abs() < 1e-12);
        assert!(std > 0.0);
        assert_eq!(q, [1, 1, 1]);
    }

    #[test]
    fn estimator_is_deterministic_given_seeds() {
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 200, 3);
        let a = run(&g, &cfg, 99);
        let b = run(&g, &cfg, 99);
        assert_eq!(a.top_k, b.top_k);
    }

    #[test]
    fn unbounded_control_matches_uncontrolled_run() {
        use crate::control::RunControl;
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 300, 3);
        let a = run(&g, &cfg, 17);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(17));
        let b = match query_for(&cfg)
            .control(RunControl::unbounded())
            .run_with_sampler(&g, &mut mc)
            .unwrap()
            .details
        {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!(),
        };
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn expired_deadline_interrupts_before_first_world() {
        use crate::api::ApiError;
        use crate::control::RunControl;
        use std::time::{Duration, Instant};
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 10_000, 1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let ctrl = RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = query_for(&cfg)
            .control(ctrl)
            .run_with_sampler(&g, &mut mc)
            .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, crate::control::InterruptReason::DeadlineExceeded);
                assert_eq!(i.completed_worlds, 0);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn raised_cancel_flag_interrupts() {
        use crate::api::ApiError;
        use crate::control::RunControl;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 10_000, 1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let flag = Arc::new(AtomicBool::new(true));
        flag.store(true, Ordering::Relaxed);
        let ctrl = RunControl::unbounded().with_cancel_flag(flag);
        let err = query_for(&cfg)
            .control(ctrl)
            .run_with_sampler(&g, &mut mc)
            .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, crate::control::InterruptReason::Cancelled);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }
}
