//! Top-k frequent **closed** itemset mining with a minimum length constraint
//! — the TFP problem of Wang et al. \[47\], which the paper's NDS estimator
//! (Algorithm 5) reduces to.
//!
//! Transactions are node sets (the maximum-sized densest subgraphs of the
//! sampled possible worlds); the support of a node set `U` is the number of
//! transactions containing `U`, i.e. `θ · γ̂(U)`. A set is *closed* when no
//! strict superset has the same support. TFP returns the `k` closed sets of
//! length at least `l_m` with the highest supports.
//!
//! The miner is an LCM-style prefix-preserving closure-extension search
//! (Uno et al.): every closed itemset is generated exactly once, and the
//! support threshold rises as the top-k heap fills ("support raising" from
//! TFP), pruning whole subtrees — valid because support is antitone in the
//! itemset.

use std::collections::BinaryHeap;

/// A mined closed itemset with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedItemset {
    /// Items (original ids), sorted ascending.
    pub items: Vec<u32>,
    /// Number of transactions containing all items.
    pub support: u64,
}

/// Mines the top-`k` closed itemsets of length ≥ `min_len` by support.
///
/// Results are sorted by support descending, ties broken by larger size then
/// lexicographic items (deterministic). `max_nodes` caps the number of search
/// nodes expanded (a safety valve for adversarial inputs; the paper's NDS
/// transactions are few and similar, so the cap is never hit in practice —
/// the return flag reports whether it was).
pub fn top_k_closed(
    transactions: &[Vec<u32>],
    k: usize,
    min_len: usize,
    max_nodes: usize,
) -> (Vec<ClosedItemset>, bool) {
    if k == 0 || transactions.is_empty() {
        return (Vec::new(), false);
    }
    let mut miner = Miner::new(transactions, k, min_len, max_nodes);
    miner.run();
    let mut out: Vec<ClosedItemset> = miner.heap.into_iter().map(|e| e.0).collect();
    out.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(b.items.len().cmp(&a.items.len()))
            .then(a.items.cmp(&b.items))
    });
    (out, miner.capped)
}

/// Enumerates **all** closed itemsets with support ≥ `min_support` and length
/// ≥ `min_len` (no top-k pruning). Useful for tests and small inputs.
pub fn all_closed(
    transactions: &[Vec<u32>],
    min_support: u64,
    min_len: usize,
) -> Vec<ClosedItemset> {
    let (mut out, capped) = {
        let mut miner = Miner::new(transactions, usize::MAX, min_len, usize::MAX);
        miner.floor_support = min_support.max(1);
        miner.run();
        (miner.all, miner.capped)
    };
    debug_assert!(!capped);
    out.sort_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
    out
}

/// Support of one itemset within the transactions (`θ · γ̂`). Both `items`
/// and every transaction must be sorted and duplicate-free.
pub fn support_of(transactions: &[Vec<u32>], items: &[u32]) -> u64 {
    transactions.iter().filter(|t| is_subset(items, t)).count() as u64
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    // Both sorted.
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Heap entry ordered so the heap top is the *worst* kept result.
#[derive(PartialEq, Eq)]
struct HeapEntry(ClosedItemset);

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on support (then prefer keeping larger sets).
        other
            .0
            .support
            .cmp(&self.0.support)
            .then(other.0.items.len().cmp(&self.0.items.len()))
            .then(other.0.items.cmp(&self.0.items))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Miner<'a> {
    /// Transactions with items remapped to dense ids, each sorted.
    txs: Vec<Vec<u32>>,
    /// Dense id -> original item.
    item_of: Vec<u32>,
    /// Tidsets per dense item.
    tids: Vec<Vec<u32>>,
    k: usize,
    min_len: usize,
    max_nodes: usize,
    nodes: usize,
    capped: bool,
    heap: BinaryHeap<HeapEntry>,
    /// Collect-everything mode (for [`all_closed`]).
    all: Vec<ClosedItemset>,
    floor_support: u64,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> Miner<'a> {
    fn new(transactions: &'a [Vec<u32>], k: usize, min_len: usize, max_nodes: usize) -> Self {
        // Remap items to dense ids sorted by original id (keeps output
        // deterministic).
        let mut universe: Vec<u32> = transactions.iter().flatten().copied().collect();
        universe.sort_unstable();
        universe.dedup();
        let dense_of = |item: u32| universe.binary_search(&item).unwrap() as u32;
        let mut txs: Vec<Vec<u32>> = transactions
            .iter()
            .map(|t| {
                let mut d: Vec<u32> = t.iter().map(|&i| dense_of(i)).collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        txs.retain(|t| !t.is_empty());
        let mut tids = vec![Vec::new(); universe.len()];
        for (ti, t) in txs.iter().enumerate() {
            for &i in t {
                tids[i as usize].push(ti as u32);
            }
        }
        Miner {
            txs,
            item_of: universe,
            tids,
            k,
            min_len,
            max_nodes,
            nodes: 0,
            capped: false,
            heap: BinaryHeap::new(),
            all: Vec::new(),
            floor_support: 1,
            _marker: std::marker::PhantomData,
        }
    }

    fn threshold(&self) -> u64 {
        if self.k != usize::MAX && self.heap.len() >= self.k {
            // Full heap: a new set must strictly... no — ties are fine, but we
            // only replace when strictly better than the current worst, so the
            // prune bound is the worst kept support.
            self.heap.peek().map(|e| e.0.support).unwrap_or(1)
        } else {
            self.floor_support
        }
    }

    fn run(&mut self) {
        if self.txs.is_empty() {
            return;
        }
        // Root: closure of the empty set = items present in ALL transactions.
        let all_tids: Vec<u32> = (0..self.txs.len() as u32).collect();
        let root_closure = self.closure(&all_tids);
        self.report(&root_closure, all_tids.len() as u64);
        self.expand(&root_closure, &all_tids, 0);
    }

    /// Items contained in every transaction of `tidset`.
    fn closure(&self, tidset: &[u32]) -> Vec<u32> {
        debug_assert!(!tidset.is_empty());
        let mut inter: Vec<u32> = self.txs[tidset[0] as usize].clone();
        for &t in &tidset[1..] {
            inter = intersect(&inter, &self.txs[t as usize]);
            if inter.is_empty() {
                break;
            }
        }
        inter
    }

    /// LCM ppc-extension: try every item `i ≥ start` not in `closed`.
    fn expand(&mut self, closed: &[u32], tidset: &[u32], start: u32) {
        if self.capped {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.capped = true;
            return;
        }
        let num_items = self.tids.len() as u32;
        for i in start..num_items {
            if closed.binary_search(&i).is_ok() {
                continue;
            }
            let new_tids = intersect(tidset, &self.tids[i as usize]);
            let support = new_tids.len() as u64;
            if support == 0 || support < self.threshold() {
                continue;
            }
            let new_closed = self.closure(&new_tids);
            // Prefix-preserving check: the closure must not introduce any
            // item smaller than i that wasn't already in `closed` — otherwise
            // this closed set is (or will be) generated from a different
            // branch, and expanding it here would duplicate it.
            let prefix_ok = new_closed
                .iter()
                .take_while(|&&j| j < i)
                .all(|j| closed.binary_search(j).is_ok());
            if !prefix_ok {
                continue;
            }
            self.report(&new_closed, support);
            self.expand(&new_closed, &new_tids, i + 1);
            if self.capped {
                return;
            }
        }
    }

    fn report(&mut self, closed: &[u32], support: u64) {
        if closed.len() < self.min_len || closed.is_empty() {
            return;
        }
        let items: Vec<u32> = closed.iter().map(|&i| self.item_of[i as usize]).collect();
        let entry = ClosedItemset { items, support };
        if self.k == usize::MAX {
            if support >= self.floor_support {
                self.all.push(entry);
            }
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(entry));
        } else if let Some(worst) = self.heap.peek() {
            // HeapEntry ordering is reversed (the heap top is the worst kept
            // result), so "better" means strictly smaller here.
            if HeapEntry(entry.clone()) < *worst {
                self.heap.pop();
                self.heap.push(HeapEntry(entry));
            }
        }
    }
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn txs(data: &[&[u32]]) -> Vec<Vec<u32>> {
        data.iter().map(|t| t.to_vec()).collect()
    }

    /// Brute-force closed itemsets: every subset of the item universe with
    /// positive support and no strict superset of equal support.
    fn brute_force_closed(transactions: &[Vec<u32>], min_len: usize) -> Vec<ClosedItemset> {
        let mut universe: Vec<u32> = transactions.iter().flatten().copied().collect();
        universe.sort_unstable();
        universe.dedup();
        let n = universe.len();
        assert!(n <= 16);
        let mut by_support: HashMap<Vec<u32>, u64> = HashMap::new();
        for mask in 1u32..(1 << n) {
            let items: Vec<u32> = (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| universe[i])
                .collect();
            let s = support_of(transactions, &items);
            if s > 0 {
                by_support.insert(items, s);
            }
        }
        let mut out = Vec::new();
        'outer: for (items, &s) in &by_support {
            for (other, &s2) in &by_support {
                if s2 == s && other.len() > items.len() && is_subset(items, other) {
                    continue 'outer;
                }
            }
            if items.len() >= min_len {
                out.push(ClosedItemset {
                    items: items.clone(),
                    support: s,
                });
            }
        }
        out.sort_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
        out
    }

    #[test]
    fn textbook_example() {
        // Transactions over {1,2,3,4}.
        let t = txs(&[&[1, 2, 3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3, 4]]);
        let all = all_closed(&t, 1, 1);
        let brute = brute_force_closed(&t, 1);
        assert_eq!(all, brute);
        // {1} support 4, {2} support 4 ... check a few.
        let find = |items: &[u32]| all.iter().find(|c| c.items == items).map(|c| c.support);
        assert_eq!(find(&[1]), Some(4));
        assert_eq!(find(&[1, 2, 3]), Some(2));
        assert_eq!(find(&[1, 2, 3, 4]), Some(1));
        // {1,2} support 3 and closed (supersets have support <= 2).
        assert_eq!(find(&[1, 2]), Some(3));
    }

    #[test]
    fn top_k_matches_brute_force() {
        let t = txs(&[
            &[1, 2, 3, 5],
            &[1, 2, 5],
            &[1, 3, 5],
            &[2, 3],
            &[1, 2, 3, 4, 5],
            &[2, 4, 5],
        ]);
        for min_len in 1..=3 {
            let brute = brute_force_closed(&t, min_len);
            for k in 1..=6 {
                let (got, capped) = top_k_closed(&t, k, min_len, 1_000_000);
                assert!(!capped);
                assert_eq!(got.len(), k.min(brute.len()), "k={k} lm={min_len}");
                // Supports must match the k best brute-force supports.
                let want: Vec<u64> = brute.iter().take(k).map(|c| c.support).collect();
                let have: Vec<u64> = got.iter().map(|c| c.support).collect();
                assert_eq!(have, want, "k={k} lm={min_len}");
                // Every returned set must be closed with correct support.
                for c in &got {
                    assert_eq!(support_of(&t, &c.items), c.support);
                    assert!(brute
                        .iter()
                        .any(|b| b.items == c.items && b.support == c.support));
                }
            }
        }
    }

    #[test]
    fn min_len_filters() {
        let t = txs(&[&[1, 2, 3], &[1, 2, 3], &[1]]);
        let (got, _) = top_k_closed(&t, 10, 2, 1000);
        assert!(got.iter().all(|c| c.items.len() >= 2));
        // {1,2,3} support 2 is the only closed set of size >= 2.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![1, 2, 3]);
        assert_eq!(got[0].support, 2);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(top_k_closed(&[], 5, 1, 100).0.len(), 0);
        let t = txs(&[&[1]]);
        assert_eq!(top_k_closed(&t, 0, 1, 100).0.len(), 0);
    }

    #[test]
    fn identical_transactions() {
        let t = txs(&[&[2, 4, 6], &[2, 4, 6], &[2, 4, 6]]);
        let (got, _) = top_k_closed(&t, 5, 1, 100);
        // Only one closed set: {2,4,6} with support 3.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![2, 4, 6]);
        assert_eq!(got[0].support, 3);
    }

    #[test]
    fn all_closed_sets_are_distinct() {
        let t = txs(&[&[1, 2], &[2, 3], &[1, 3], &[1, 2, 3], &[3, 4], &[1, 4]]);
        let all = all_closed(&t, 1, 1);
        let set: HashSet<Vec<u32>> = all.iter().map(|c| c.items.clone()).collect();
        assert_eq!(set.len(), all.len(), "duplicate closed itemsets produced");
    }

    #[test]
    fn support_raising_prunes_but_keeps_answers() {
        // Random-ish transactions; compare pruned top-k against all_closed.
        let mut x = 0x51ed_5eedu64;
        let mut t: Vec<Vec<u32>> = Vec::new();
        for _ in 0..30 {
            let mut row = Vec::new();
            for item in 0..12u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 10 < 4 {
                    row.push(item);
                }
            }
            if !row.is_empty() {
                t.push(row);
            }
        }
        let all = all_closed(&t, 1, 2);
        let (top, capped) = top_k_closed(&t, 8, 2, 1_000_000);
        assert!(!capped);
        let want: Vec<u64> = all.iter().take(8).map(|c| c.support).collect();
        let have: Vec<u64> = top.iter().map(|c| c.support).collect();
        assert_eq!(have, want);
    }

    #[test]
    fn node_cap_reports_truncation() {
        let t: Vec<Vec<u32>> = (0..12u32)
            .map(|i| (0..12).filter(|j| j != &i).collect())
            .collect();
        let (_, capped) = top_k_closed(&t, 1000, 1, 5);
        assert!(capped);
    }
}
