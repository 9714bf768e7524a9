//! Enumerating all densest subgraphs from the residual graph of a maximum
//! flow (paper Algorithm 3 and Appendix A).
//!
//! At `α = ρ*` every minimum s–t cut of the parameterized flow network
//! corresponds to a densest subgraph (paper Lemma 4 / Lemma 10). By
//! Picard–Queyranne, minimum cuts are exactly the closed sets of the residual
//! SCC DAG; the paper re-derives this as a bijection between densest
//! subgraphs and *independent component sets* — antichains of non-trivial
//! components that intersect `V` (Defs. 8–11, Lemmas 9–10, Corollary 2).
//! This module implements that enumeration, generically over the edge,
//! clique, and pattern flow networks.
//!
//! Every densest subgraph `∪_{C ∈ I ∪ des(I)} C ∩ V` of an independent set
//! `I` is the OR of the per-component *closure masks* `C ∪ des(C)` (paper
//! Def. 9), precomputed once per network as packed node bitsets. The
//! enumeration therefore hands each set to its sink as a borrowed mask and
//! allocates nothing per set.

use maxflow::{Condensation, FlowNetwork};
use ugraph::bitset::ones_in;
use ugraph::NodeId;

/// What [`for_each_min_cut_subgraph`] reports besides the sets it streamed.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Sets handed to the sink (at most the cap).
    pub count: usize,
    /// The maximum-sized densest subgraph: the union of all densest
    /// subgraphs (paper footnote 5 / \[59\]), sorted. Never truncated.
    pub max_sized: Vec<NodeId>,
    /// Whether enumeration stopped early because the cap was reached.
    pub truncated: bool,
}

/// Streams every minimum-cut subgraph of `network` (which must already hold
/// a maximum flow at `α = ρ*`) into `sink`.
///
/// * Network nodes `0..num_v` are the graph ("V") nodes; `to_original[i]`
///   maps them back to original node ids.
/// * `s`, `t` are the source/sink indices.
/// * At most `cap` subgraphs are produced (the count can explode — paper
///   Table VIII); `max_sized` is exact regardless.
///
/// # The sink contract
///
/// Each set arrives as a packed node mask over original ids: bit `v % 64`
/// of word `v / 64` is set iff node `v` is in the set. Every mask of one
/// call has the same length, `⌈(max to_original + 1) / 64⌉` words — exactly
/// one word whenever all ids are below 64. The slice is only valid for the
/// duration of the call.
///
/// Sets arrive in paper Algorithm 3's recursion order over the non-trivial
/// components in ascending component id, each set exactly once. The order
/// is part of the contract: truncation keeps the *first* `cap` sets of it,
/// and the estimator's one-densest-per-world ablation picks its random set
/// by position in it, so changing the order changes both.
pub fn for_each_min_cut_subgraph(
    network: &FlowNetwork,
    s: usize,
    t: usize,
    num_v: usize,
    to_original: &[NodeId],
    cap: usize,
    sink: &mut dyn FnMut(&[u64]),
) -> Enumeration {
    let residual = network.residual_graph();
    let cond = Condensation::new(&residual);
    let cs = cond.comp_of[s] as usize;
    let ct = cond.comp_of[t] as usize;
    debug_assert_eq!(
        cond.members[cs].len(),
        1,
        "scc(s) must be the singleton {{s}} (paper Lemma 8)"
    );
    let num_comps = cond.num_components();
    let nontrivial = |c: usize| c != cs && c != ct;

    // Every component's reach `C ∪ des(C)` as a bitset over components.
    let comp_words = num_comps.div_ceil(64);
    let mut reach = vec![0u64; num_comps * comp_words];
    for c in 0..num_comps {
        reach[c * comp_words + c / 64] |= 1 << (c % 64);
    }
    cond.close_over_descendants(&mut reach, comp_words);
    debug_assert!(
        (0..num_comps).all(|c| c == ct || !bit(&reach, comp_words, c, ct)),
        "scc(t) has no incoming edge (paper Lemma 8)"
    );

    // Every component's own V members, packed over original node ids.
    let node_words = to_original[..num_v]
        .iter()
        .max()
        .map_or(1, |&m| (m as usize + 1).div_ceil(64));
    let mut has_v = vec![false; num_comps];
    let mut closure = vec![0u64; num_comps * node_words];
    for (i, &c) in cond.comp_of[..num_v].iter().enumerate() {
        let (c, v) = (c as usize, to_original[i] as usize);
        closure[c * node_words + v / 64] |= 1 << (v % 64);
        has_v[c] = true;
    }

    // The maximum-sized densest subgraph: union of V members over all
    // non-trivial components (every such component with V members appears in
    // some independent set; Λ-only components contribute nothing).
    let mut max_sized = vec![0u64; node_words];
    for c in (0..num_comps).filter(|&c| nontrivial(c)) {
        or_into(
            &mut max_sized,
            &closure[c * node_words..(c + 1) * node_words],
        );
    }

    // Closure masks (paper Def. 9): each component's V members OR those of
    // its descendants.
    cond.close_over_descendants(&mut closure, node_words);

    // Paper Algorithm 3 over the non-trivial components.
    let mut enumerator = Enumerator {
        has_v: &has_v,
        closure: &closure,
        node_words,
        reach: &reach,
        comp_words,
        live: (0..num_comps).filter(|&c| nontrivial(c)).collect(),
        masks: vec![0; node_words],
        sink,
        cap,
        count: 0,
        truncated: false,
    };
    enumerator.recurse(0, 0);

    Enumeration {
        count: enumerator.count,
        max_sized: ones_in(&max_sized).map(|v| v as NodeId).collect(),
        truncated: enumerator.truncated,
    }
}

/// Bit `i` of row `row` of a flat packed bitset matrix `words` wide.
fn bit(rows: &[u64], words: usize, row: usize, i: usize) -> bool {
    rows[row * words + i / 64] >> (i % 64) & 1 == 1
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

struct Enumerator<'a> {
    has_v: &'a [bool],
    /// Closure mask of every component, `node_words` words each.
    closure: &'a [u64],
    node_words: usize,
    /// `C ∪ des(C)` of every component, `comp_words` words each.
    reach: &'a [u64],
    comp_words: usize,
    /// The candidate list (paper's `C2`) of every open recursion level,
    /// stacked: a level owns `live[start..]` until it returns.
    live: Vec<usize>,
    /// The current independent set's node mask (paper's `C1 ∪ des(C1)`)
    /// at every open depth, stacked `node_words` words each.
    masks: Vec<u64>,
    sink: &'a mut dyn FnMut(&[u64]),
    cap: usize,
    count: usize,
    truncated: bool,
}

impl Enumerator<'_> {
    /// Whether one of two distinct components reaches the other (so they
    /// cannot share an independent set).
    fn comparable(&self, c: usize, d: usize) -> bool {
        bit(self.reach, self.comp_words, c, d) || bit(self.reach, self.comp_words, d, c)
    }

    /// Paper Algorithm 3: the independent set built so far has mask
    /// `masks[depth]` (empty at depth 0), and `live[start..]` holds the
    /// components still compatible with it.
    fn recurse(&mut self, start: usize, depth: usize) {
        let nw = self.node_words;
        if depth > 0 {
            if self.count >= self.cap {
                self.truncated = true;
                return;
            }
            (self.sink)(&self.masks[depth * nw..(depth + 1) * nw]);
            self.count += 1;
        }
        let end = self.live.len();
        for j in start..end {
            let c = self.live[j];
            // Only components intersecting V may join an independent set
            // (paper Def. 10); Λ-only components enter via descendants.
            if !self.has_v[c] {
                continue;
            }
            // C2 ← C2 \ {C}: the V-bearing components before `j` were chosen
            // (and removed) by earlier iterations, so each independent set is
            // produced exactly once. The rest keep their order.
            for p in start..end {
                let d = self.live[p];
                if (p > j || !self.has_v[d]) && !self.comparable(c, d) {
                    self.live.push(d);
                }
            }
            self.masks.extend_from_within(depth * nw..(depth + 1) * nw);
            or_into(
                &mut self.masks[(depth + 1) * nw..],
                &self.closure[c * nw..(c + 1) * nw],
            );
            self.recurse(end, depth + 1);
            self.live.truncate(end);
            self.masks.truncate((depth + 1) * nw);
            if self.truncated {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The enumeration is exercised end-to-end (against brute force) in
    // `solve.rs`; here we test it in isolation on hand-built networks.
    use super::*;

    /// Collects every streamed set as sorted node ids, in emission order.
    fn collect(
        net: &FlowNetwork,
        (s, t, num_v): (usize, usize, usize),
        to_original: &[NodeId],
        cap: usize,
    ) -> (Vec<Vec<NodeId>>, Enumeration) {
        let mut sets = Vec::new();
        let e = for_each_min_cut_subgraph(net, s, t, num_v, to_original, cap, &mut |mask| {
            sets.push(ones_in(mask).map(|v| v as NodeId).collect())
        });
        assert_eq!(e.count, sets.len());
        (sets, e)
    }

    /// Build the paper's Example 4 style situation manually: a path network
    /// whose residual graph has two non-trivial components A -> B, giving
    /// densest subgraphs {B} and {A, B}.
    #[test]
    fn antichains_of_a_two_component_chain() {
        // Network nodes: 0, 1 are V nodes; 2 = s; 3 = t.
        // Build a network whose residual graph is:
        //   s saturated (only incoming arcs), 0 -> 1, both -> s, t -> both.
        let mut net = FlowNetwork::new(4);
        // s -> 0 and s -> 1 saturated: cap 1, then push flow via max_flow.
        net.add_edge(2, 0, 1, 0);
        net.add_edge(2, 1, 1, 0);
        // 0 -> 1 with spare capacity (residual arc survives).
        net.add_edge(0, 1, 5, 0);
        // 0 -> t and 1 -> t sized so both saturate: each V node must push
        // everything it receives.
        net.add_edge(0, 3, 1, 0);
        net.add_edge(1, 3, 1, 0);
        let f = net.max_flow(2, 3);
        assert_eq!(f, 2);
        let (mut subs, res) = collect(&net, (2, 3, 2), &[10, 20], 100);
        // Residual: 0 -> 1 survives, so {comp(1)} and {comp(0)} are the
        // non-trivial components with comp(0) -> comp(1). Independent sets:
        // {comp(1)} -> {20}; {comp(0)} -> {10, 20} (descendant pulled in).
        subs.sort();
        assert_eq!(subs, vec![vec![10, 20], vec![20]]);
        assert_eq!(res.max_sized, vec![10, 20]);
        assert!(!res.truncated);
    }

    #[test]
    fn truncation_flag() {
        let mut net = FlowNetwork::new(5);
        // Three independent V nodes each with its own saturated path.
        for v in 0..3 {
            net.add_edge(3, v, 1, 0);
            net.add_edge(v, 4, 1, 0);
        }
        net.max_flow(3, 4);
        // Three incomparable singleton components: 2^3 - 1 = 7 antichains.
        let (full, e) = collect(&net, (3, 4, 3), &[0, 1, 2], 100);
        assert_eq!(full.len(), 7);
        assert!(!e.truncated);
        // The cap keeps a prefix of the emission order.
        let (capped, e) = collect(&net, (3, 4, 3), &[0, 1, 2], 3);
        assert_eq!(capped, full[..3]);
        assert!(e.truncated);
        assert_eq!(e.max_sized, vec![0, 1, 2]);
    }

    #[test]
    fn masks_span_ids_past_one_word() {
        // Two independent V nodes mapped to ids 3 and 130: every mask is
        // three words wide and decodes to the original ids.
        let mut net = FlowNetwork::new(4);
        for v in 0..2 {
            net.add_edge(2, v, 1, 0);
            net.add_edge(v, 3, 1, 0);
        }
        net.max_flow(2, 3);
        let mut widths = Vec::new();
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        for_each_min_cut_subgraph(&net, 2, 3, 2, &[3, 130], 100, &mut |mask| {
            widths.push(mask.len());
            sets.push(ones_in(mask).map(|v| v as NodeId).collect());
        });
        assert!(widths.iter().all(|&w| w == 3));
        sets.sort();
        assert_eq!(sets, vec![vec![3], vec![3, 130], vec![130]]);
    }
}
