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
//!
//! # Bitset rows
//!
//! Algorithm 3 keeps, at every recursion level, the list `C2` of components
//! that may still join the independent set built so far. Here `C2` is a
//! packed bitset over component ids, `⌈#components / 64⌉` words wide, and
//! each V-bearing non-trivial component `C` gets one precomputed row
//! `compat[C]`: the V-bearing non-trivial components with a larger id that
//! are incomparable with `C` (neither reaches the other). Choosing `C` at a
//! level whose candidates are `live` gives the child level `live & compat[C]`
//! — a few word ANDs instead of a rescan of the level's list. Only the
//! ancestor side needs checking: Tarjan numbers descendants first, so `C`
//! never reaches a component with a larger id.
//!
//! Λ-only components (components of the clique and pattern networks that
//! hold no graph node) are left out of every row. They may never be chosen
//! (paper Def. 10) and add no node to any set; the V-bearing components
//! below them still arrive through the closure masks of the chosen
//! components above. Dropping them changes no set.
//!
//! # One-word walk
//!
//! When every row and every mask fits one word (at most 64 components and
//! every original id below 64, as in each karate world), the walk passes a
//! level's candidate row and set mask by value instead of keeping them in
//! the per-level scratch: the child of choosing `C` is `rest & compat[C]`,
//! where `rest` is what remains of the level's row after `C`, and
//! `mask | closure[C]`. Since `compat[C]` holds only ids above `C`, that is
//! the same child row as `live & compat[C]`, so the one-word walk emits the
//! general walk's sets in the same order and stops at the same cap.
//!
//! # Why the order is the list order
//!
//! The list form walked `C2` in ascending component id and built a child's
//! list from the entries after `C` that are incomparable with it, keeping
//! their order. Iterating a row's set bits in ascending order visits the
//! same components in the same order, and `live & compat[C]` holds exactly
//! the entries after `C` that are incomparable with it. So every set is
//! emitted at the same position, and truncation at a cap keeps the same
//! prefix.

use maxflow::{Condensation, Csr, FlowNetwork};
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

/// Buffers [`for_each_min_cut_subgraph`] reuses from one network to the
/// next: the residual graph, its condensation, and the per-component rows.
/// Enumerating with a warm scratch allocates only the returned
/// `max_sized` list.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    residual: Csr,
    cond: Condensation,
    /// `compat` rows, `comp_words` words per component (built in place over
    /// the components' ancestor sets).
    compat: Vec<u64>,
    /// Closure masks, `node_words` words per component.
    closure: Vec<u64>,
    /// One `comp_words`-word candidate row per open recursion level (the
    /// root row only, for the one-word walk).
    live: Vec<u64>,
    /// One `node_words`-word set mask per open recursion level (the root
    /// mask only, for the one-word walk).
    masks: Vec<u64>,
    /// The maximum-sized densest subgraph's node mask.
    max_sized: Vec<u64>,
}

/// Streams every minimum-cut subgraph of `network` (which must already hold
/// a maximum flow at `α = ρ*`) into `sink`.
///
/// * Network nodes `0..num_v` are the graph ("V") nodes; `to_original[i]`
///   maps them back to original node ids.
/// * `s`, `t` are the source/sink indices.
/// * At most `cap` subgraphs are produced (the count can explode — paper
///   Table VIII); `max_sized` is exact regardless.
/// * `scratch` holds the working buffers; pass the same one from call to
///   call to stop allocating once it has grown.
///
/// # The sink contract
///
/// Each set arrives as a packed node mask over original ids: bit `v % 64`
/// of word `v / 64` is set iff node `v` is in the set. Every mask of one
/// call has the same length, `⌈(max to_original + 1) / 64⌉` words — exactly
/// one word whenever all ids are below 64. The slice is only valid for the
/// duration of the call. `sink` is generic, so a closure passed as
/// `&mut |mask| …` is inlined into the walk; a `&mut dyn FnMut(&[u64])`
/// works too.
///
/// Sets arrive in paper Algorithm 3's recursion order over the non-trivial
/// components in ascending component id, each set exactly once. The order
/// is part of the contract: truncation keeps the *first* `cap` sets of it,
/// and the estimator's one-densest-per-world ablation picks its random set
/// by position in it, so changing the order changes both.
pub fn for_each_min_cut_subgraph<F: FnMut(&[u64]) + ?Sized>(
    network: &FlowNetwork,
    s: usize,
    t: usize,
    num_v: usize,
    to_original: &[NodeId],
    cap: usize,
    sink: &mut F,
    scratch: &mut Scratch,
) -> Enumeration {
    let Scratch {
        residual,
        cond,
        compat,
        closure,
        live,
        masks,
        max_sized,
    } = scratch;
    network.residual_graph_into(residual);
    cond.rebuild(residual);
    let cs = cond.comp_of[s] as usize;
    let ct = cond.comp_of[t] as usize;
    debug_assert_eq!(
        cond.members(cs).len(),
        1,
        "scc(s) must be the singleton {{s}} (paper Lemma 8)"
    );
    let num_comps = cond.num_components();
    let comp_words = num_comps.div_ceil(64);

    // Every component's own V members, packed over original node ids.
    let node_words = to_original[..num_v]
        .iter()
        .max()
        .map_or(1, |&m| (m as usize + 1).div_ceil(64));
    closure.clear();
    closure.resize(num_comps * node_words, 0);
    for (i, &c) in cond.comp_of[..num_v].iter().enumerate() {
        let (c, v) = (c as usize, to_original[i] as usize);
        closure[c * node_words + v / 64] |= 1 << (v % 64);
    }

    // The components an independent set may contain: the non-trivial ones
    // holding a V node (paper Def. 10), as the root level's candidate row.
    // Their V members together form the maximum-sized densest subgraph,
    // the union of all densest subgraphs (Λ-only components contribute
    // nothing).
    live.clear();
    live.resize(comp_words, 0);
    max_sized.clear();
    max_sized.resize(node_words, 0);
    let mut candidates = 0;
    for c in (0..num_comps).filter(|&c| c != cs && c != ct) {
        let own = &closure[c * node_words..(c + 1) * node_words];
        if own.iter().any(|&w| w != 0) {
            live[c / 64] |= 1 << (c % 64);
            or_into(max_sized, own);
            candidates += 1;
        }
    }
    // An independent set holds at most every candidate, so the recursion
    // opens at most `candidates + 1` levels, the root included. The
    // one-word walk keeps every level below the root in registers.
    let one_word = comp_words == 1 && node_words == 1;
    let levels = if one_word { 1 } else { candidates + 1 };
    live.resize(levels * comp_words, 0);

    // Closure masks (paper Def. 9): each component's V members OR those of
    // its descendants.
    cond.close_over_descendants(closure, node_words);

    // compat[c] = candidates above c that do not reach c: seed every row
    // with its own bit, close over ancestors, then complement in place and
    // keep the root row's candidates above c.
    compat.clear();
    compat.resize(num_comps * comp_words, 0);
    for c in 0..num_comps {
        compat[c * comp_words + c / 64] |= 1 << (c % 64);
    }
    cond.close_over_ancestors(compat, comp_words);
    debug_assert!(
        (0..num_comps).all(|c| c == ct || !bit(compat, comp_words, ct, c)),
        "scc(t) has no incoming edge (paper Lemma 8)"
    );
    for c in 0..num_comps {
        let row = &mut compat[c * comp_words..(c + 1) * comp_words];
        for (k, w) in row.iter_mut().enumerate() {
            *w = !*w & live[k] & above(c, k);
        }
    }

    // Paper Algorithm 3 over the candidate rows.
    masks.clear();
    masks.resize(levels * node_words, 0);
    let mut enumerator = Enumerator {
        compat,
        comp_words,
        closure,
        node_words,
        live,
        masks,
        sink,
        cap,
        count: 0,
        truncated: false,
    };
    if one_word {
        enumerator.recurse1(enumerator.live[0], 0);
    } else {
        enumerator.recurse(0);
    }

    Enumeration {
        count: enumerator.count,
        max_sized: ones_in(max_sized).map(|v| v as NodeId).collect(),
        truncated: enumerator.truncated,
    }
}

/// Bit `i` of row `row` of a flat packed bitset matrix `words` wide.
fn bit(rows: &[u64], words: usize, row: usize, i: usize) -> bool {
    rows[row * words + i / 64] >> (i % 64) & 1 == 1
}

/// Word `k` of the mask of component ids strictly above `c`.
fn above(c: usize, k: usize) -> u64 {
    match k.cmp(&(c / 64)) {
        std::cmp::Ordering::Less => 0,
        std::cmp::Ordering::Equal => (!0u64 << (c % 64)) << 1,
        std::cmp::Ordering::Greater => !0,
    }
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

struct Enumerator<'a, F: ?Sized> {
    /// Per candidate component, the candidates after it that are
    /// incomparable with it, `comp_words` words each.
    compat: &'a [u64],
    comp_words: usize,
    /// Closure mask of every component, `node_words` words each.
    closure: &'a [u64],
    node_words: usize,
    /// The candidate row (paper's `C2`) of every open recursion level.
    live: &'a mut [u64],
    /// The current independent set's node mask (paper's `C1 ∪ des(C1)`)
    /// at every open depth (empty at depth 0).
    masks: &'a mut [u64],
    sink: &'a mut F,
    cap: usize,
    count: usize,
    truncated: bool,
}

impl<F: FnMut(&[u64]) + ?Sized> Enumerator<'_, F> {
    /// Paper Algorithm 3: the independent set built so far has mask
    /// `masks[depth]`, and `live[depth]` holds the components still
    /// compatible with it. Each child set is emitted here, before its own
    /// children, so a leaf costs no call.
    fn recurse(&mut self, depth: usize) {
        let (cw, nw) = (self.comp_words, self.node_words);
        let (here, next) = (depth * cw, (depth + 1) * cw);
        for k in 0..cw {
            let mut bits = self.live[here + k];
            while bits != 0 {
                // Choose C, the lowest remaining candidate: the child level
                // keeps the candidates after C that are incomparable with
                // it (C2 ← C2 \ {C}, each independent set produced once).
                let c = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (levels, deeper) = self.live.split_at_mut(next);
                let (child_live, mut open) = (&mut deeper[..cw], 0);
                for ((w, &l), &r) in child_live
                    .iter_mut()
                    .zip(&levels[here..])
                    .zip(&self.compat[c * cw..(c + 1) * cw])
                {
                    *w = l & r;
                    open |= *w;
                }
                let (sets, deeper) = self.masks.split_at_mut((depth + 1) * nw);
                let child = &mut deeper[..nw];
                for ((w, &m), &r) in child
                    .iter_mut()
                    .zip(&sets[depth * nw..])
                    .zip(&self.closure[c * nw..(c + 1) * nw])
                {
                    *w = m | r;
                }
                if self.count >= self.cap {
                    self.truncated = true;
                    return;
                }
                (self.sink)(child);
                self.count += 1;
                if open != 0 {
                    self.recurse(depth + 1);
                    if self.truncated {
                        return;
                    }
                }
            }
        }
    }

    /// [`Self::recurse`] when rows and masks are one word each: the level's
    /// candidate row `live` and set mask `mask` are passed by value, so the
    /// walk touches no per-level scratch.
    fn recurse1(&mut self, live: u64, mask: u64) {
        let mut bits = live;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // `bits` now holds the candidates above C, and `compat[C]` only
            // ids above C, so this is `live & compat[C]`.
            let (open, child) = (bits & self.compat[c], mask | self.closure[c]);
            if self.count >= self.cap {
                self.truncated = true;
                return;
            }
            (self.sink)(std::slice::from_ref(&child));
            self.count += 1;
            if open != 0 {
                self.recurse1(open, child);
                if self.truncated {
                    return;
                }
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
        let e = for_each_min_cut_subgraph(
            net,
            s,
            t,
            num_v,
            to_original,
            cap,
            &mut |mask| sets.push(ones_in(mask).map(|v| v as NodeId).collect()),
            &mut Scratch::default(),
        );
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
    fn the_one_word_walk_emits_what_the_general_walk_emits() {
        // Five V nodes, each on its own saturated path, plus spare arcs
        // 0 -> 1 and 2 -> 3: five singleton components where comp(0)
        // reaches comp(1) and comp(2) reaches comp(3), so 3 * 3 * 2 - 1 = 17
        // antichains, several of them pulling in a descendant.
        let mut net = FlowNetwork::new(7);
        for v in 0..5 {
            net.add_edge(5, v, 1, 0);
            net.add_edge(v, 6, 1, 0);
        }
        net.add_edge(0, 1, 5, 0);
        net.add_edge(2, 3, 5, 0);
        net.max_flow(5, 6);
        // Ids below 64 take the one-word walk; the same ids shifted by 64
        // need two-word masks (the rows stay one word), so the general walk.
        let low: Vec<NodeId> = vec![7, 0, 63, 12, 5];
        let high: Vec<NodeId> = low.iter().map(|&v| v + 64).collect();
        let stream = |ids: &[NodeId], cap: usize| {
            let mut sets = Vec::new();
            let e = for_each_min_cut_subgraph(
                &net,
                5,
                6,
                5,
                ids,
                cap,
                &mut |mask| sets.push((mask.len(), ones_in(mask).collect::<Vec<_>>())),
                &mut Scratch::default(),
            );
            (sets, e)
        };
        for cap in [usize::MAX, 1, 3] {
            let (one, e1) = stream(&low, cap);
            let (general, e2) = stream(&high, cap);
            assert_eq!(one.len(), cap.min(17));
            assert!(one.iter().all(|&(w, _)| w == 1));
            assert!(general.iter().all(|&(w, _)| w == 2));
            let shifted: Vec<Vec<usize>> = one
                .iter()
                .map(|(_, set)| set.iter().map(|v| v + 64).collect())
                .collect();
            let general: Vec<Vec<usize>> = general.into_iter().map(|(_, set)| set).collect();
            assert_eq!(shifted, general, "cap {cap}");
            assert_eq!((e1.count, e1.truncated), (e2.count, e2.truncated));
            assert_eq!(e1.truncated, cap < 17);
            let max_sized: Vec<NodeId> = e1.max_sized.iter().map(|v| v + 64).collect();
            assert_eq!(max_sized, e2.max_sized);
        }
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
        for_each_min_cut_subgraph(
            &net,
            2,
            3,
            2,
            &[3, 130],
            100,
            &mut |mask| {
                widths.push(mask.len());
                sets.push(ones_in(mask).map(|v| v as NodeId).collect());
            },
            &mut Scratch::default(),
        );
        assert!(widths.iter().all(|&w| w == 3));
        sets.sort();
        assert_eq!(sets, vec![vec![3], vec![3, 130], vec![130]]);
    }
}
