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
use std::sync::Mutex;
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
/// On graphs of at most 64 nodes a set is a packed `u64` node mask (bit `v`
/// = node `v`). Credits are appended, unsorted, to a pending list; a *fold*
/// sorts that list, counts its runs of equal masks and merges them into one
/// run of `(mask, count)` pairs sorted by mask, in place, moving each run
/// entry at most once. A fold happens when the pending list outgrows the run
/// (or 65,536 masks, whichever is larger), so memory stays bounded by a
/// small multiple of the distinct sets, and whenever the run is read: at the
/// end of a run, before each [`crate::api::Stop::Stable`] check, and when
/// worker tables merge (the same in-place merge of one sorted run into
/// another). A fold into an empty run compacts the sorted credits in place
/// and keeps their buffer as the run. The lanes of one run (see
/// [`crate::control::RunControl::with_helpers`]) keep only their pending
/// credits apart and fold them into one shared run. Every table a run hands
/// out is fully folded, and [`CandidateTable::get`] is a binary search in
/// its run.
///
/// Graphs past 64 nodes key a hash map by a compact byte encoding of each
/// set's sorted ids instead: every id is stored as its gap from the
/// previous id (the first id as itself) in LEB128, seven bits a byte, low
/// group first, the high bit set on every byte but a gap's last. Node sets
/// of nearby ids, such as dense cores, take about one byte a node rather
/// than four, and one boxed slice rather than a `Vec`. The encoding is
/// canonical, so equal sets have equal keys: [`CandidateTable::get`]
/// encodes its probe, [`CandidateTable::iter`] decodes every key, and
/// [`CandidateTable::top_k`] decodes only the keys it compares or returns.
/// The choice of key form follows from the graph alone; both behave the
/// same through this API, and tables compare equal by content whatever
/// their key form.
///
/// Ranking ([`CandidateTable::top_k`]) orders by count descending, then
/// fewer nodes first, then lexicographically on the sorted ids. No two
/// distinct sets tie under that order, so the ranking never depends on
/// storage order. Which sets a table holds, though, depends on the
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
    /// Graphs of at most 64 nodes: bit `v` of a mask is node `v`.
    Packed(Packed),
    /// Larger graphs: compact keys of sorted, duplicate-free id lists.
    Sets(Sets),
}

/// Pending credits below this many are never folded early: small tables
/// fold once, when read.
const FOLD_FLOOR: usize = 1 << 16;

/// Entries the packed buffers of [`CandidateTable::for_lane`] start with.
const LANE_RESERVE: usize = 1 << 10;

/// Packed masks as a sorted run plus unsorted pending credits.
#[derive(Debug, Clone, Default)]
struct Packed {
    /// Distinct folded masks, ascending.
    masks: Vec<u64>,
    /// `counts[i]` is the number of credits of `masks[i]`.
    counts: Vec<u32>,
    /// Credits not yet folded, in arrival order.
    pending: Vec<u64>,
}

impl Packed {
    fn credit(&mut self, mask: u64) {
        self.pending.push(mask);
        if self.pending.len() >= self.masks.len().max(FOLD_FLOOR) {
            self.fold();
        }
    }

    /// Sorts the pending credits and merges their per-mask counts into the
    /// run.
    fn fold(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        self.add_sorted(&mut pending);
        self.pending = pending;
    }

    /// Adds the ascending credits `sorted` to the run and leaves `sorted`
    /// empty. Into an empty run, the credits are compacted in place and
    /// their buffer becomes the run's; `sorted` gets the run's old buffer.
    fn add_sorted(&mut self, sorted: &mut Vec<u64>) {
        if sorted.is_empty() {
            return;
        }
        if !self.masks.is_empty() {
            self.absorb(RunLengths(sorted));
            sorted.clear();
            return;
        }
        let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count();
        self.counts.clear();
        self.counts.reserve_exact(distinct);
        let mut len = 0;
        for i in 0..sorted.len() {
            if len > 0 && sorted[len - 1] == sorted[i] {
                self.counts[len - 1] += 1;
            } else {
                sorted[len] = sorted[i];
                self.counts.push(1);
                len += 1;
            }
        }
        sorted.truncate(len);
        std::mem::swap(&mut self.masks, sorted);
        sorted.clear();
    }

    /// Adds mask-ascending, duplicate-free `(mask, count)` entries to the
    /// run in place, in two sequential passes: a forward walk adds the
    /// counts of masks already in the run and counts the new ones, then the
    /// run grows by that many and a backward merge makes room for them,
    /// moving each run entry at most once.
    fn absorb<I>(&mut self, entries: I)
    where
        I: DoubleEndedIterator<Item = (u64, u32)> + Clone,
    {
        let mut fresh = 0;
        let mut i = 0;
        for (mask, count) in entries.clone() {
            while self.masks.get(i).is_some_and(|&m| m < mask) {
                i += 1;
            }
            match self.masks.get(i) {
                Some(&m) if m == mask => self.counts[i] += count,
                _ => fresh += 1,
            }
        }
        let (mut read, mut write) = (self.masks.len(), self.masks.len() + fresh);
        self.masks.resize(write, 0);
        self.counts.resize(write, 0);
        for (mask, count) in entries.rev() {
            if write == read {
                break;
            }
            while read > 0 && self.masks[read - 1] > mask {
                read -= 1;
                write -= 1;
                self.masks[write] = self.masks[read];
                self.counts[write] = self.counts[read];
            }
            if read == 0 || self.masks[read - 1] != mask {
                write -= 1;
                self.masks[write] = mask;
                self.counts[write] = count;
            }
        }
    }

    /// The folded `(mask, count)` run, ascending by mask.
    fn entries(&self) -> impl DoubleEndedIterator<Item = (u64, u32)> + Clone + '_ {
        self.masks.iter().copied().zip(self.counts.iter().copied())
    }

    /// The folded run, for reading; a table with pending credits has not
    /// been handed out yet.
    fn folded(&self) -> &Self {
        assert!(
            self.pending.is_empty(),
            "candidate table read before its fold"
        );
        self
    }
}

/// Compact set keys (see [`CandidateTable`]) and their counts.
#[derive(Debug, Clone, Default)]
struct Sets {
    counts: HashMap<Box<[u8]>, u32>,
    /// Encoding buffer of [`Sets::credit`]; reused.
    key: Vec<u8>,
}

impl Sets {
    /// Counts one more world for the set of ascending, distinct `ids`,
    /// allocating a key only for a new set.
    fn credit(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        self.key.clear();
        encode_into(&mut self.key, ids);
        match self.counts.get_mut(self.key.as_slice()) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(self.key.as_slice().into(), 1);
            }
        }
    }
}

/// Appends the compact key of ascending, distinct `ids` to `out`.
fn encode_into(out: &mut Vec<u8>, ids: impl IntoIterator<Item = NodeId>) {
    let mut prev = 0;
    for v in ids {
        let mut gap = v - prev;
        prev = v;
        while gap >= 0x80 {
            out.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        out.push(gap as u8);
    }
}

/// The ascending ids of a compact key.
fn decode(key: &[u8]) -> impl Iterator<Item = NodeId> + '_ {
    let mut bytes = key.iter();
    let mut prev: NodeId = 0;
    std::iter::from_fn(move || {
        let (mut gap, mut shift) = (0, 0);
        loop {
            let &b = bytes.next()?;
            gap |= NodeId::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        prev += gap;
        Some(prev)
    })
}

/// A compact key in the ranking's place of its id list: ordered
/// lexicographically on the ids, decoded only as far as a comparison
/// reads.
#[derive(PartialEq, Eq)]
struct ById<'a>(&'a [u8]);

impl Ord for ById<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        decode(self.0).cmp(decode(other.0))
    }
}

impl PartialOrd for ById<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// `(mask, repeats)` for each run of equal masks in the ascending
/// `sorted`, from either end.
#[derive(Clone)]
struct RunLengths<'a>(&'a [u64]);

impl Iterator for RunLengths<'_> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        let &mask = self.0.first()?;
        let n = self.0.iter().take_while(|&&m| m == mask).count();
        self.0 = &self.0[n..];
        Some((mask, n as u32))
    }
}

impl DoubleEndedIterator for RunLengths<'_> {
    fn next_back(&mut self) -> Option<(u64, u32)> {
        let &mask = self.0.last()?;
        let n = self.0.iter().rev().take_while(|&&m| m == mask).count();
        self.0 = &self.0[..self.0.len() - n];
        Some((mask, n as u32))
    }
}

impl CandidateTable {
    /// An empty table for sets over a graph of `num_nodes` nodes.
    pub(crate) fn for_graph(num_nodes: usize) -> Self {
        let keys = if num_nodes <= 64 {
            Keys::Packed(Packed::default())
        } else {
            Keys::Sets(Sets::default())
        };
        CandidateTable { keys }
    }

    /// An empty table with the same key form.
    pub(crate) fn empty_like(&self) -> Self {
        let keys = match self.keys {
            Keys::Packed(_) => Keys::Packed(Packed::default()),
            Keys::Sets(_) => Keys::Sets(Sets::default()),
        };
        CandidateTable { keys }
    }

    /// An empty table whose packed buffers the calling thread allocates,
    /// for the lanes of a run: a lane's credits grow these buffers by
    /// reallocation, which keeps a block in the allocator arena it came
    /// from, so a helper thread's credits never make its own arena hold a
    /// second tally.
    pub(crate) fn for_lane(&self) -> Self {
        let mut table = self.empty_like();
        if let Keys::Packed(p) = &mut table.keys {
            // A fold hands the pending buffer to the run and takes the run's
            // old one as the next pending buffer, so all three start out
            // allocated.
            p.pending.reserve(LANE_RESERVE);
            p.masks.reserve(LANE_RESERVE);
            p.counts.reserve(LANE_RESERVE);
        }
        table
    }

    /// Number of distinct candidate sets.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::Packed(p) => p.folded().masks.len(),
            Keys::Sets(m) => m.counts.len(),
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
            Keys::Packed(p) => {
                let mut mask = 0u64;
                for &v in nodes {
                    mask |= 1u64.checked_shl(v)?;
                }
                let p = p.folded();
                let i = p.masks.binary_search(&mask).ok()?;
                Some(p.counts[i])
            }
            Keys::Sets(m) => {
                let mut key = Vec::new();
                if nodes.windows(2).all(|w| w[0] < w[1]) {
                    encode_into(&mut key, nodes.iter().copied());
                } else {
                    encode_into(&mut key, nodeset::canonicalize(nodes.to_vec()));
                }
                m.counts.get(key.as_slice()).copied()
            }
        }
    }

    /// Every `(sorted node set, count)` entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeSet, u32)> + '_ {
        let entries: Box<dyn Iterator<Item = (NodeSet, u32)> + '_> = match &self.keys {
            Keys::Packed(p) => Box::new(p.folded().entries().map(|(k, c)| (mask_nodes(k), c))),
            Keys::Sets(m) => Box::new(m.counts.iter().map(|(k, &c)| (decode(k).collect(), c))),
        };
        entries
    }

    /// The `k` highest-ranked entries in ranking order (see the type docs):
    /// one pass through a bounded heap, `O(len · log k)`, never a sort of
    /// the whole table.
    pub fn top_k(&self, k: usize) -> Vec<(NodeSet, u32)> {
        match &self.keys {
            Keys::Packed(p) => smallest_k(
                p.folded()
                    .entries()
                    .map(|(key, c)| (Reverse(c), packed_rank(key), key)),
                k,
            )
            .into_iter()
            .map(|(Reverse(c), _, key)| (mask_nodes(key), c))
            .collect(),
            Keys::Sets(m) => smallest_k(
                m.counts.iter().map(|(key, &c)| {
                    // A key's last byte ends its last gap, so its node
                    // count is its number of final bytes.
                    let len = key.iter().filter(|&&b| b < 0x80).count();
                    (Reverse(c), len, ById(key))
                }),
                k,
            )
            .into_iter()
            .map(|(Reverse(c), _, ById(key))| (decode(key).collect(), c))
            .collect(),
        }
    }

    /// Credits one densest set given as a packed node mask (the layout of
    /// [`densest::for_each_densest`]).
    pub(crate) fn credit_mask(&mut self, mask: &[u64]) {
        match &mut self.keys {
            Keys::Packed(p) => {
                debug_assert!(mask[1..].iter().all(|&w| w == 0));
                p.credit(mask[0]);
            }
            Keys::Sets(m) => m.credit(ones_in(mask).map(|v| v as NodeId)),
        }
    }

    /// Credits one densest set given as sorted ids.
    pub(crate) fn credit_nodes(&mut self, nodes: &[NodeId]) {
        match &mut self.keys {
            Keys::Packed(p) => p.credit(packed_mask(nodes)),
            Keys::Sets(m) => m.credit(nodes.iter().copied()),
        }
    }

    /// Folds pending credits into the sorted run, so the table can be read.
    pub(crate) fn fold(&mut self) {
        if let Keys::Packed(p) = &mut self.keys {
            p.fold();
        }
    }

    /// Adds another table's counts (same graph, so the same key form) and
    /// leaves the result folded.
    pub(crate) fn merge(&mut self, other: CandidateTable) {
        match (&mut self.keys, other.keys) {
            (Keys::Packed(p), Keys::Packed(mut o)) => {
                p.fold();
                o.fold();
                p.absorb(o.entries());
            }
            (Keys::Sets(m), Keys::Sets(mut o)) => {
                // Add the smaller map into the larger: a lane's map joins an
                // empty shared table without a re-hash.
                if m.counts.len() < o.counts.len() {
                    std::mem::swap(m, &mut o);
                }
                for (key, c) in o.counts {
                    *m.counts.entry(key).or_insert(0) += c;
                }
            }
            _ => unreachable!("tables of one graph share their key form"),
        }
    }
}

/// Where a world's densest sets are credited: a run's own table, or one
/// lane's share of a table that the lanes of a run build together.
pub(crate) trait Tally {
    /// Credits one set given as a packed node mask (the layout of
    /// [`densest::for_each_densest`]).
    fn credit_mask(&mut self, mask: &[u64]);
    /// Credits one set given as sorted ids.
    fn credit_nodes(&mut self, nodes: &[NodeId]);
}

impl Tally for CandidateTable {
    fn credit_mask(&mut self, mask: &[u64]) {
        CandidateTable::credit_mask(self, mask)
    }

    fn credit_nodes(&mut self, nodes: &[NodeId]) {
        CandidateTable::credit_nodes(self, nodes)
    }
}

/// One lane's share of the one table that the lanes of a run tally into.
/// Packed credits wait in the lane; once they reach the shared run's
/// length (or 65,536), and when the lane finishes, the lane sorts them on
/// its own thread and adds them to the shared run under its lock. So the
/// run exists once however many lanes credit it, and each lane's pending
/// credits are bounded as one table's are. Compact-key credits (past 64
/// nodes) go to a map of the lane's own, added to the shared table when the
/// lane finishes.
pub(crate) struct LaneTally<'a> {
    shared: &'a Mutex<CandidateTable>,
    /// The lane's credits: pending masks only, or its own compact-key map.
    own: CandidateTable,
    /// The shared run's length after this lane's last flush.
    run_len: usize,
}

impl<'a> LaneTally<'a> {
    /// A lane of `shared`, its buffers allocated by the calling thread
    /// ([`CandidateTable::for_lane`]).
    pub(crate) fn new(shared: &'a Mutex<CandidateTable>) -> Self {
        let own = lock(shared).for_lane();
        LaneTally {
            shared,
            own,
            run_len: 0,
        }
    }

    /// Adds the lane's pending packed credits to the shared run.
    fn flush(&mut self) {
        let Keys::Packed(p) = &mut self.own.keys else {
            return;
        };
        p.pending.sort_unstable();
        let mut shared = lock(self.shared);
        let Keys::Packed(run) = &mut shared.keys else {
            unreachable!("tables of one graph share their key form");
        };
        run.add_sorted(&mut p.pending);
        self.run_len = run.masks.len();
    }

    /// Adds everything this lane credited to the shared table.
    pub(crate) fn finish(&mut self) {
        if let Keys::Sets(_) = self.own.keys {
            let empty = self.own.empty_like();
            let own = std::mem::replace(&mut self.own, empty);
            lock(self.shared).merge(own);
        }
        self.flush();
    }
}

impl Tally for LaneTally<'_> {
    fn credit_mask(&mut self, mask: &[u64]) {
        let Keys::Packed(p) = &mut self.own.keys else {
            return self.own.credit_mask(mask);
        };
        debug_assert!(mask[1..].iter().all(|&w| w == 0));
        p.pending.push(mask[0]);
        if p.pending.len() >= self.run_len.max(FOLD_FLOOR) {
            self.flush();
        }
    }

    fn credit_nodes(&mut self, nodes: &[NodeId]) {
        match self.own.keys {
            Keys::Packed(_) => self.credit_mask(&[packed_mask(nodes)]),
            Keys::Sets(_) => self.own.credit_nodes(nodes),
        }
    }
}

/// The one-word mask of `nodes` (ids below 64).
fn packed_mask(nodes: &[NodeId]) -> u64 {
    nodes.iter().fold(0, |acc, &v| acc | 1 << v)
}

/// Locks the shared table of a run's lanes.
fn lock(shared: &Mutex<CandidateTable>) -> std::sync::MutexGuard<'_, CandidateTable> {
    shared
        .lock()
        .expect("a lane panicked while adding to the shared table")
}

impl PartialEq for CandidateTable {
    fn eq(&self, other: &Self) -> bool {
        match (&self.keys, &other.keys) {
            (Keys::Packed(a), Keys::Packed(b)) => {
                let (a, b) = (a.folded(), b.folded());
                a.masks == b.masks && a.counts == b.counts
            }
            (Keys::Sets(a), Keys::Sets(b)) => a.counts == b.counts,
            _ => self.len() == other.len() && self.iter().all(|(s, c)| other.get(&s) == Some(c)),
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
        packed.fold();
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
    fn compact_keys_round_trip_and_rank_by_ids() {
        // Gaps of one to five bytes, where byte order and id order part:
        // the keys of [5, 200] and [5, 300] are [05 c3 01] and [05 a7 02],
        // so compared as bytes the second would rank first. Both get two
        // credits, and so tie until the ids.
        let sets: Vec<NodeSet> = vec![
            vec![5, 200],
            vec![0],
            vec![5, 300],
            vec![127, 128],
            vec![1 << 14, (1 << 21) + 1],
            vec![3, 70_000, u32::MAX],
            vec![u32::MAX],
        ];
        for set in &sets {
            let mut key = Vec::new();
            encode_into(&mut key, set.iter().copied());
            assert_eq!(&decode(&key).collect::<NodeSet>(), set);
            assert_eq!(key.iter().filter(|&&b| b < 0x80).count(), set.len());
        }
        let mut t = CandidateTable::for_graph(100);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for (i, set) in sets.iter().enumerate() {
            t.credit_nodes(set);
            if i % 2 == 0 {
                t.credit_nodes(set);
            }
        }
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let set = nodeset::canonicalize(
                (0..1 + x % 4)
                    .map(|j| ((x >> (8 * j + 16)) % 400) as NodeId * 97)
                    .collect(),
            );
            t.credit_nodes(&set);
        }
        for set in &sets {
            let mut shuffled = set.clone();
            shuffled.reverse();
            assert!(t.get(&shuffled).is_some_and(|c| c >= 1), "{set:?}");
        }
        let full = sorted_reference(&t);
        for k in [1, 2, 5, 40, full.len()] {
            assert_eq!(t.top_k(k), full[..k], "k = {k}");
        }
    }

    #[test]
    fn lookups_ignore_order_and_repeats() {
        for n in [4, 100] {
            let mut t = CandidateTable::for_graph(n);
            t.credit_nodes(&[1, 3]);
            t.credit_mask(&[0b1010]);
            t.fold();
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(&[1, 3]), Some(2));
            assert_eq!(t.get(&[3, 1, 3]), Some(2));
            assert_eq!(t.get(&[1]), None);
            assert_eq!(t.get(&[1, 3, 99]), None);
            assert_eq!(t.iter().collect::<Vec<_>>(), vec![(vec![1, 3], 2)]);
        }
    }

    /// A pseudo-random set of about eight nodes below 64, never empty.
    fn sparse_mask(id: u64) -> u64 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        mix(3 * id + 1) & mix(3 * id + 2) & mix(3 * id + 3) | 1 << (id % 64)
    }

    /// `len` credits drawn from a pool of `pool` distinct sets, with repeats.
    fn mask_stream(seed: u64, len: usize, pool: u64) -> Vec<u64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                sparse_mask((x >> 33) % pool)
            })
            .collect()
    }

    #[test]
    fn tables_match_a_hash_map_across_several_folds() {
        // More than three floors' worth of credits over a pool larger than
        // the floor. Folds happen at 65,536 and 131,072 credits, then, once
        // the run has outgrown the floor, at ≈210,900 on the run's length;
        // the last ≈51,400 credits are still pending when the loop ends.
        let stream = mask_stream(7, 4 * FOLD_FLOOR + 123, 120_000);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for &m in &stream {
            *reference.entry(m).or_insert(0) += 1;
        }
        let reference_sets: HashMap<NodeSet, u32> = reference
            .iter()
            .map(|(&m, &c)| (mask_nodes(m), c))
            .collect();
        for n in [64, 65] {
            let mut t = CandidateTable::for_graph(n);
            for &m in &stream {
                t.credit_mask(&[m]);
            }
            if let Keys::Packed(p) = &t.keys {
                assert!(p.masks.len() > FOLD_FLOOR && !p.pending.is_empty());
            }
            t.fold();
            assert_eq!(t.len(), reference.len(), "n = {n}");
            assert_eq!(t.iter().collect::<HashMap<_, _>>(), reference_sets);
            for (i, (&m, &c)) in reference.iter().enumerate().take(2_000) {
                let mut ids = mask_nodes(m);
                ids.reverse();
                ids.push(ids[i % ids.len()]);
                assert_eq!(t.get(&ids), Some(c), "{ids:?}");
            }
            assert_eq!(t.get(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]), None);
            assert_eq!(t.get(&[1, 64]), None);
            let full = sorted_reference(&t);
            for k in [1, 10, 1_000] {
                assert_eq!(t.top_k(k), full[..k], "n = {n}, k = {k}");
            }
            let mut backwards = CandidateTable::for_graph(64);
            for &m in stream.iter().rev() {
                backwards.credit_mask(&[m]);
            }
            backwards.fold();
            assert_eq!(t, backwards, "n = {n}");
            assert_eq!(backwards, t, "n = {n}");
        }
    }

    #[test]
    fn merged_tables_equal_one_table_credited_with_both_streams() {
        let (a, b) = (
            mask_stream(11, 2 * FOLD_FLOOR + 5, 90_000),
            mask_stream(13, FOLD_FLOOR / 2, 90_000),
        );
        for n in [64, 65] {
            let mut left = CandidateTable::for_graph(n);
            let mut right = CandidateTable::for_graph(n);
            let mut both = CandidateTable::for_graph(n);
            for &m in &a {
                left.credit_mask(&[m]);
            }
            for &m in &b {
                right.credit_mask(&[m]);
            }
            for &m in b.iter().chain(&a) {
                both.credit_mask(&[m]);
            }
            left.merge(right);
            both.fold();
            assert_eq!(left, both, "n = {n}");
            assert_eq!(left.len(), both.len(), "n = {n}");
            assert_eq!(left.top_k(5), both.top_k(5), "n = {n}");
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
