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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use ugraph::bitset::ones_in;
use ugraph::{nodeset, NodeId, NodeSet};

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
/// = node `v`), and credits pass a *sieve*, because nearly every set a run
/// credits is credited once. A filter bitmap, one bit per multiplicative
/// hash of a mask, sends a mask whose bit is unset to an unsorted list of
/// *singles* (and sets the bit); any other mask, a repeat or a first
/// sighting whose bit another mask set, goes to an unsorted list of
/// *repeats*. Once the singles exceed 1/16 of its bits, the filter doubles
/// and is rebuilt from them. A *fold* sorts only the repeats, counts their
/// runs of equal masks and merges them, in place, into one counted run of
/// `(mask, count)` pairs sorted by mask; then it moves every single that the
/// run holds into it (+1), found through a small bitmap over the run. So
/// the singles are pairwise distinct, absent from the run and count 1 each,
/// and every count is exact whatever the filter's collisions. A fold happens
/// when the repeats reach the number of sets held (or 65,536 masks,
/// whichever is larger), so memory stays bounded by a small multiple of the
/// distinct sets, and whenever the table is read: at the end of a run and
/// before each [`crate::api::Stop::Stable`] check. Every table a run hands
/// out is folded and keeps no filter. [`CandidateTable::get`] is a binary
/// search in the counted run, then, for a set credited once, a linear scan
/// of the singles.
///
/// A table is split into *key shards*, one per lane of the run that filled
/// it (see [`crate::control::RunControl::with_helpers`]): a hash of each
/// key picks its shard, and lane *i* owns shard *i*. That hash mixes a
/// mask's halves before its own multiply, so the masks of one shard still
/// spread over every bit of the shard's filter. A lane hands every set it
/// credits to its shard's batch, and a full batch goes to the lane that
/// owns it, or, when that is the lane itself, is credited in one loop.
/// Batches hold 8,192 keys, or 64 KiB of compact keys; a lane credits its
/// own compact keys at once. A lane with no world left to claim
/// credits the batches handed to it until every lane has stopped. Then
/// each lane folds its own shard and selects its top k, and the run's top
/// k is the best k of those lists. No set is credited twice and no table
/// is merged into another.
///
/// Graphs past 64 nodes key a hash map by a compact byte encoding of each
/// set's sorted ids instead, one boxed slice a set, in one of two forms:
///
/// * *gaps*: every id as its gap from the previous id (the first id as
///   itself) in LEB128, seven bits a byte, low group first, the high bit
///   set on every byte but a gap's last. Sets of nearby ids take about one
///   byte a node rather than four.
/// * *bitmap*: the first id in LEB128, then one bit per id from the first
///   to the last (bit `j` of byte `i` is id `first + 8 i + j`), then a
///   final `0xff` byte. A gap key's last byte ends a gap and is below
///   `0x80`, so the two forms never collide.
///
/// A set takes the bitmap form exactly when it is the shorter one: from
/// four consecutive ids on, and for the large nested suffixes of the
/// §III-C heuristic (a 2,300-of-6,899-node suffix is 864 bytes against
/// about 2.4 KiB of gaps). The choice follows from the set alone, so the
/// encoding is canonical and equal sets have equal keys:
/// [`CandidateTable::get`] encodes its probe, [`CandidateTable::iter`]
/// decodes every key, and [`CandidateTable::top_k`] decodes only the keys
/// it compares or returns.
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
    /// Shard `i` holds the sets that [`mask_shard`] or [`key_shard`] puts
    /// there; every shard has the same key form.
    shards: Vec<Keys>,
}

#[derive(Debug, Clone)]
enum Keys {
    /// Graphs of at most 64 nodes: bit `v` of a mask is node `v`.
    Packed(Packed),
    /// Larger graphs: compact keys of sorted, duplicate-free id lists.
    Sets(Sets),
}

/// Repeats below this many are never folded early: small tables fold once,
/// when read.
const FOLD_FLOOR: usize = 1 << 16;

/// Words (of 64 bits) in a packed table's first filter.
const FILTER_WORDS: usize = 1 << 12;

/// Entries the packed buffers of [`LaneTable::new`] start with.
const LANE_RESERVE: usize = 1 << 10;

/// Keys a [`Batch`] holds when it is handed over.
const BATCH: usize = 1 << 13;

/// Bytes of compact keys past which a [`Batch`] is handed over early.
const BATCH_BYTES: usize = 1 << 16;

/// Packed masks as a counted run, masks credited once, and repeats not yet
/// counted (see [`CandidateTable`]).
#[derive(Debug, Clone, Default)]
struct Packed {
    /// Counted masks, ascending.
    masks: Vec<u64>,
    /// `counts[i]` is the number of credits of `masks[i]`.
    counts: Vec<u32>,
    /// Masks credited once, pairwise distinct, in no particular order.
    singles: Vec<u64>,
    /// How many leading singles are known to be absent from the run.
    settled: usize,
    /// Credits whose filter bit was set, in arrival order.
    repeats: Vec<u64>,
    /// The bit of every single is set. Allocated by the first credit (or
    /// [`LaneTable::new`]), freed once the table is handed out.
    filter: Bitmap,
}

/// A bitmap of a power-of-two number of words, one bit per multiplicative
/// hash of a mask.
#[derive(Debug, Clone, Default)]
struct Bitmap(Vec<u64>);

impl Bitmap {
    fn new(words: usize) -> Self {
        Bitmap(vec![0; words])
    }

    /// The word and bit of `mask`.
    fn at(&self, mask: u64) -> (usize, u64) {
        let shift = 64 - (self.0.len() * 64).trailing_zeros();
        let bit = mask.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift;
        (bit as usize / 64, 1 << (bit % 64))
    }

    /// Sets the bit of `mask`; returns whether it was unset.
    fn insert(&mut self, mask: u64) -> bool {
        let (word, bit) = self.at(mask);
        let unset = self.0[word] & bit == 0;
        self.0[word] |= bit;
        unset
    }

    fn contains(&self, mask: u64) -> bool {
        let (word, bit) = self.at(mask);
        self.0[word] & bit != 0
    }
}

impl Packed {
    #[inline(always)]
    fn credit(&mut self, mask: u64) {
        if self.filter.0.is_empty() {
            self.filter = Bitmap::new(FILTER_WORDS);
        }
        if self.filter.insert(mask) {
            self.singles.push(mask);
            if self.singles.len() > self.filter.0.len() * 4 {
                // Past 1/16 of the bits: double the filter in place.
                let words = 2 * self.filter.0.len();
                self.filter.0.clear();
                self.filter.0.resize(words, 0);
                for &single in &self.singles {
                    self.filter.insert(single);
                }
            }
        } else {
            self.repeats.push(mask);
            if self.repeats.len() >= (self.masks.len() + self.singles.len()).max(FOLD_FLOOR) {
                self.fold();
            }
        }
    }

    /// Counts the repeats into the run, then moves every unsettled single
    /// that the run holds into it, found through a bitmap of at least 32
    /// bits per run mask, so the table can be read. A fold after new repeats
    /// scans every single, so repeats wait until they reach the sets held,
    /// not only the run.
    fn fold(&mut self) {
        if !self.repeats.is_empty() {
            let mut repeats = std::mem::take(&mut self.repeats);
            repeats.sort_unstable();
            self.add_sorted(&mut repeats);
            self.repeats = repeats;
            self.settled = 0;
        }
        if self.settled == self.singles.len() {
            return;
        }
        let mut held = Bitmap::new((self.masks.len() / 2).next_power_of_two());
        for &mask in &self.masks {
            held.insert(mask);
        }
        let mut i = self.settled;
        while let Some(&mask) = self.singles.get(i) {
            match held.contains(mask).then(|| self.masks.binary_search(&mask)) {
                Some(Ok(j)) => {
                    self.counts[j] += 1;
                    self.singles.swap_remove(i);
                }
                _ => i += 1,
            }
        }
        self.settled = i;
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

    /// The folded table, for reading; a table with credits still to fold
    /// has not been handed out yet.
    fn folded(&self) -> &Self {
        assert!(
            self.repeats.is_empty() && self.settled == self.singles.len(),
            "candidate table read before its fold"
        );
        self
    }

    /// The count of `mask` in the folded table.
    fn get(&self, mask: u64) -> Option<u32> {
        let p = self.folded();
        match p.masks.binary_search(&mask) {
            Ok(i) => Some(p.counts[i]),
            Err(_) => p.singles.contains(&mask).then_some(1),
        }
    }
}

/// Compact set keys (see [`CandidateTable`]) and their counts.
#[derive(Debug, Clone, Default)]
struct Sets {
    counts: HashMap<Box<[u8]>, u32>,
}

impl Sets {
    /// Counts one more world for the set of compact key `key`, allocating
    /// a key only for a new set.
    fn credit(&mut self, key: &[u8]) {
        match self.counts.get_mut(key) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(key.into(), 1);
            }
        }
    }
}

/// The shard, of `shards`, that owns packed `mask`. The mask's high half is
/// folded into its low one before the multiply, so masks over high node
/// ids spread too; the top bits of the product pick the shard. The sieve's
/// filter reads the top bits of another product, so the masks of one shard
/// do not share filter bits.
fn mask_shard(mask: u64, shards: usize) -> usize {
    let h = (mask ^ mask >> 29).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 32;
    ((h * shards as u64) >> 32) as usize
}

/// The shard, of `shards`, that owns compact key `key`: its bytes folded
/// eight at a time, then placed as [`mask_shard`] places a mask.
fn key_shard(key: &[u8], shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut h = key.len() as u64;
    for chunk in key.chunks(8) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    mask_shard(h, shards)
}

/// The last byte of a bitmap key. A gap key's last byte ends a gap, so it
/// is below 0x80, and no key of one form is a key of the other.
const BITMAP_KEY: u8 = 0xff;

/// Appends `x` in LEB128: seven bits a byte, low group first, the high
/// bit set on every byte but the last.
fn push_leb128(out: &mut Vec<u8>, mut x: NodeId) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Bytes of `x` in LEB128.
fn leb128_len(x: NodeId) -> usize {
    (NodeId::BITS - x.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Writes the compact key of ascending, distinct `ids` into `out` (see
/// [`CandidateTable`]): the LEB128 gaps, or the bitmap form when that is
/// shorter.
fn encode_into(out: &mut Vec<u8>, ids: impl IntoIterator<Item = NodeId>) {
    out.clear();
    let (mut first, mut prev) = (None, 0);
    for v in ids {
        push_leb128(out, v - prev);
        first.get_or_insert(v);
        prev = v;
    }
    let Some(first) = first else {
        return;
    };
    let header = leb128_len(first);
    let bytes = ((prev - first) as usize + 1).div_ceil(8);
    let gaps = out.len();
    if header + bytes + 1 >= gaps {
        return;
    }
    // Build the bitmap key behind the gaps, from them, then drop them.
    push_leb128(out, first);
    out.resize(gaps + header + bytes, 0);
    let (src, bitmap) = out.split_at_mut(gaps + header);
    for v in decode(&src[..gaps]) {
        let bit = (v - first) as usize;
        bitmap[bit / 8] |= 1 << (bit % 8);
    }
    out.push(BITMAP_KEY);
    out.drain(..gaps);
}

/// A bitmap key's first id and bitmap bytes, or `None` for a gap key.
fn bitmap_of(key: &[u8]) -> Option<(NodeId, &[u8])> {
    let (&BITMAP_KEY, key) = key.split_last()? else {
        return None;
    };
    let header = key.iter().position(|&b| b < 0x80)? + 1;
    let first = key[..header]
        .iter()
        .rev()
        .fold(0, |x, &b| x << 7 | NodeId::from(b & 0x7f));
    Some((first, &key[header..]))
}

/// Number of ids in a compact key.
fn key_len(key: &[u8]) -> usize {
    match bitmap_of(key) {
        Some((_, bitmap)) => bitmap.iter().map(|b| b.count_ones() as usize).sum(),
        // A gap's last byte ends it, so a gap key has one per id.
        None => key.iter().filter(|&&b| b < 0x80).count(),
    }
}

/// The ascending ids of a compact key, of either form.
fn decode(key: &[u8]) -> Decode<'_> {
    match bitmap_of(key) {
        Some((first, bitmap)) => Decode::Bitmap {
            rest: bitmap,
            base: first.wrapping_sub(8),
            bits: 0,
        },
        None => Decode::Gaps {
            bytes: key.iter(),
            prev: 0,
        },
    }
}

/// Iterator of [`decode`].
enum Decode<'a> {
    /// LEB128 gaps; `prev` is the last id decoded.
    Gaps {
        bytes: std::slice::Iter<'a, u8>,
        prev: NodeId,
    },
    /// The bitmap bytes after the current one, the id of the current
    /// byte's bit 0, and its bits not yet decoded.
    Bitmap {
        rest: &'a [u8],
        base: NodeId,
        bits: u8,
    },
}

impl Iterator for Decode<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            Decode::Gaps { bytes, prev } => {
                let (mut gap, mut shift) = (0, 0);
                loop {
                    let &b = bytes.next()?;
                    gap |= NodeId::from(b & 0x7f) << shift;
                    if b < 0x80 {
                        break;
                    }
                    shift += 7;
                }
                *prev += gap;
                Some(*prev)
            }
            Decode::Bitmap { rest, base, bits } => {
                while *bits == 0 {
                    let (&b, tail) = rest.split_first()?;
                    (*bits, *rest) = (b, tail);
                    *base = base.wrapping_add(8);
                }
                let bit = bits.trailing_zeros();
                *bits &= *bits - 1;
                Some(*base + bit)
            }
        }
    }
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

impl Keys {
    /// An empty shard for sets over a graph of `num_nodes` nodes.
    fn for_graph(num_nodes: usize) -> Self {
        if num_nodes <= 64 {
            Keys::Packed(Packed::default())
        } else {
            Keys::Sets(Sets::default())
        }
    }

    /// Distinct sets held.
    fn len(&self) -> usize {
        match self {
            Keys::Packed(p) => {
                let p = p.folded();
                p.masks.len() + p.singles.len()
            }
            Keys::Sets(m) => m.counts.len(),
        }
    }

    /// Every `(sorted node set, count)` entry, in unspecified order.
    fn iter(&self) -> Box<dyn Iterator<Item = (NodeSet, u32)> + '_> {
        match self {
            Keys::Packed(p) => {
                let p = p.folded();
                let singles = p.singles.iter().map(|&k| (k, 1));
                Box::new(p.entries().chain(singles).map(|(k, c)| (mask_nodes(k), c)))
            }
            Keys::Sets(m) => Box::new(m.counts.iter().map(|(k, &c)| (decode(k).collect(), c))),
        }
    }

    /// The `k` highest-ranked entries, as [`CandidateTable::top_k`] ranks.
    fn top_k(&self, k: usize) -> Vec<(NodeSet, u32)> {
        match self {
            Keys::Packed(p) => {
                let p = p.folded();
                let rank = |(key, c): (u64, u32)| (Reverse(c), packed_rank(key), key);
                let mut best = smallest_k(p.entries().map(rank), k);
                if best.len() < k || best.last().is_some_and(|&(Reverse(c), ..)| c <= 1) {
                    let singles = p.singles.iter().map(|&key| rank((key, 1)));
                    best = smallest_k(best.into_iter().chain(singles), k);
                }
                best.into_iter()
                    .map(|(Reverse(c), _, key)| (mask_nodes(key), c))
                    .collect()
            }
            Keys::Sets(m) => smallest_k(
                m.counts
                    .iter()
                    .map(|(key, &c)| (Reverse(c), key_len(key), ById(key))),
                k,
            )
            .into_iter()
            .map(|(Reverse(c), _, ById(key))| (decode(key).collect(), c))
            .collect(),
        }
    }

    /// Folds the packed credits (see [`CandidateTable`]), so the shard can
    /// be read; crediting may go on.
    fn fold(&mut self) {
        if let Keys::Packed(p) = self {
            p.fold();
        }
    }

    /// Folds the shard for good, before a run hands it out: the filter and
    /// the repeats' buffer are freed.
    fn resolve(&mut self) {
        if let Keys::Packed(p) = self {
            p.fold();
            p.filter = Bitmap::default();
            p.repeats = Vec::new();
        }
    }
}

impl CandidateTable {
    /// The table whose shard `i` is `shards[i]`: the shards that lanes
    /// `0..n` of one run handed out (see [`LaneTable::finish`]).
    pub(crate) fn from_shards(shards: Vec<Shard>) -> Self {
        assert!(!shards.is_empty(), "a run has at least one lane");
        CandidateTable {
            shards: shards.into_iter().map(|Shard(keys)| keys).collect(),
        }
    }

    /// Number of distinct candidate sets.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Keys::len).sum()
    }

    /// Whether no world credited any set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The count of one node set (ids in any order, repeats allowed), or
    /// `None` if it never was a densest subgraph. On a graph of at most 64
    /// nodes, a set credited once is found by a linear scan of its shard's
    /// singles.
    pub fn get(&self, nodes: &[NodeId]) -> Option<u32> {
        let shards = self.shards.len();
        match &self.shards[0] {
            Keys::Packed(_) => {
                let mut mask = 0u64;
                for &v in nodes {
                    mask |= 1u64.checked_shl(v)?;
                }
                match &self.shards[mask_shard(mask, shards)] {
                    Keys::Packed(p) => p.get(mask),
                    Keys::Sets(_) => unreachable!("the shards of a table share their key form"),
                }
            }
            Keys::Sets(_) => {
                let mut key = Vec::new();
                if nodes.windows(2).all(|w| w[0] < w[1]) {
                    encode_into(&mut key, nodes.iter().copied());
                } else {
                    encode_into(&mut key, nodeset::canonicalize(nodes.to_vec()));
                }
                match &self.shards[key_shard(&key, shards)] {
                    Keys::Sets(m) => m.counts.get(key.as_slice()).copied(),
                    Keys::Packed(_) => unreachable!("the shards of a table share their key form"),
                }
            }
        }
    }

    /// Every `(sorted node set, count)` entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeSet, u32)> + '_ {
        self.shards.iter().flat_map(Keys::iter)
    }

    /// The `k` highest-ranked entries in ranking order (see the type docs):
    /// per shard, one pass through a bounded heap, `O(len · log k)`, never a
    /// sort of the whole table, then the best `k` of the shards' lists. On
    /// a graph of at most 64 nodes a shard's pass reads the sets credited
    /// once only while its `k`-th count so far is at most 1.
    pub fn top_k(&self, k: usize) -> Vec<(NodeSet, u32)> {
        merge_top_k(self.shards.iter().map(|s| s.top_k(k)), k)
    }
}

/// The `k` highest-ranked entries of `lists`, each the top of one shard,
/// in the ranking order of [`CandidateTable::top_k`].
pub(crate) fn merge_top_k(
    lists: impl IntoIterator<Item = Vec<(NodeSet, u32)>>,
    k: usize,
) -> Vec<(NodeSet, u32)> {
    let mut lists = lists.into_iter();
    let first = lists.next().unwrap_or_default();
    let Some(second) = lists.next() else {
        return first;
    };
    let mut all: Vec<(NodeSet, u32)> = [first, second].into_iter().chain(lists).flatten().collect();
    all.sort_unstable_by(|(a, ca), (b, cb)| {
        cb.cmp(ca)
            .then(a.len().cmp(&b.len()))
            .then_with(|| a.cmp(b))
    });
    all.truncate(k);
    all
}

impl PartialEq for CandidateTable {
    fn eq(&self, other: &Self) -> bool {
        let pairwise = self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|pair| matches!(pair, (Keys::Sets(_), Keys::Sets(_))));
        if pairwise {
            return self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|pair| match pair {
                    (Keys::Sets(a), Keys::Sets(b)) => a.counts == b.counts,
                    _ => unreachable!("checked above"),
                });
        }
        let sorted = |t: &Self| {
            let mut all: Vec<(NodeSet, u32)> = t.iter().collect();
            all.sort_unstable();
            all
        };
        sorted(self) == sorted(other)
    }
}

/// A lane's part of a run's [`CandidateTable`]: the key shard it owns and,
/// for each shard, a [`Batch`] of the sets it credited that belong there.
/// A one-shard lane owns every set and credits it at once.
#[derive(Debug)]
pub(crate) struct LaneTable {
    /// The shard this lane owns.
    index: usize,
    /// Shards of the run's table, one per lane.
    shards: usize,
    shard: Keys,
    /// Per shard, the sets bound for it not yet handed over; empty for a
    /// one-shard lane.
    outboxes: Vec<Batch>,
    /// Encoding buffer of compact keys; reused.
    key: Vec<u8>,
}

/// Sets that one lane credited for one shard: packed masks, or compact keys
/// end to end. Once [`BATCH`] keys (or [`BATCH_BYTES`] of compact keys) are
/// in, the batch goes to the shard's lane, or, for the lane's own shard, is
/// credited in place.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    masks: Vec<u64>,
    bytes: Vec<u8>,
    /// Where each compact key ends in `bytes`.
    ends: Vec<usize>,
}

impl Batch {
    fn is_empty(&self) -> bool {
        self.masks.is_empty() && self.ends.is_empty()
    }
}

/// A lane's folded shard, as [`LaneTable::finish`] hands it out.
#[derive(Debug)]
pub(crate) struct Shard(Keys);

impl LaneTable {
    /// Lane `index`'s part of a table of `shards` shards over a graph of
    /// `num_nodes` nodes. Made on the run's calling thread: a lane's
    /// credits grow its packed buffers by reallocation, which keeps a block
    /// in the allocator arena it came from, so a helper thread's credits
    /// never make its own arena hold a share of the tally.
    pub(crate) fn new(num_nodes: usize, index: usize, shards: usize) -> Self {
        let shard = match Keys::for_graph(num_nodes) {
            Keys::Packed(_) => {
                let mut p = Packed {
                    filter: Bitmap::new(FILTER_WORDS),
                    ..Packed::default()
                };
                // A fold hands the repeats' buffer to an empty run and takes
                // the run's old one for the next repeats, so all four start
                // out allocated.
                for buf in [&mut p.masks, &mut p.singles, &mut p.repeats] {
                    buf.reserve(LANE_RESERVE);
                }
                p.counts.reserve(LANE_RESERVE);
                Keys::Packed(p)
            }
            sets => sets,
        };
        let outboxes = match shards {
            1 => Vec::new(),
            _ => std::iter::repeat_with(Batch::default)
                .take(shards)
                .collect(),
        };
        LaneTable {
            index,
            shards,
            shard,
            outboxes,
            key: Vec::new(),
        }
    }

    /// Credits one densest set given as a packed node mask (the layout of
    /// [`densest::for_each_densest`]). Returns a batch that filled up, with
    /// the shard it is bound for.
    #[inline]
    pub(crate) fn credit_mask(&mut self, mask: &[u64]) -> Option<(usize, Batch)> {
        if let Keys::Packed(_) = self.shard {
            debug_assert!(mask[1..].iter().all(|&w| w == 0));
            return self.credit_packed(mask[0]);
        }
        encode_into(&mut self.key, ones_in(mask).map(|v| v as NodeId));
        self.credit_key()
    }

    /// Credits one densest set given as ascending, distinct ids; returns
    /// what [`LaneTable::credit_mask`] does.
    pub(crate) fn credit_nodes(
        &mut self,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Option<(usize, Batch)> {
        if let Keys::Packed(_) = self.shard {
            return self.credit_packed(nodes.into_iter().fold(0, |acc, v| acc | 1 << v));
        }
        encode_into(&mut self.key, nodes);
        self.credit_key()
    }

    /// Credits a packed mask. In a lane of several, every mask, its own
    /// shard's too, first goes to its shard's batch: which shard a mask
    /// belongs to is a coin flip that a branch per credit would mispredict
    /// half the time, while a full batch of its own is credited in one
    /// loop.
    #[inline]
    fn credit_packed(&mut self, mask: u64) -> Option<(usize, Batch)> {
        let Keys::Packed(p) = &mut self.shard else {
            unreachable!("a packed lane table")
        };
        if self.shards == 1 {
            p.credit(mask);
            return None;
        }
        let to = mask_shard(mask, self.shards);
        let batch = &mut self.outboxes[to];
        if batch.masks.capacity() == 0 {
            batch.masks.reserve_exact(BATCH);
        }
        batch.masks.push(mask);
        if batch.masks.len() < BATCH {
            return None;
        }
        if to == self.index {
            for &mask in &batch.masks {
                p.credit(mask);
            }
            batch.masks.clear();
            return None;
        }
        Some((to, std::mem::take(batch)))
    }

    /// Credits the set whose compact key is in `self.key`.
    fn credit_key(&mut self) -> Option<(usize, Batch)> {
        let Keys::Sets(m) = &mut self.shard else {
            unreachable!("a compact-key lane table")
        };
        let to = key_shard(&self.key, self.shards);
        if to == self.index {
            m.credit(&self.key);
            return None;
        }
        let batch = &mut self.outboxes[to];
        batch.bytes.extend_from_slice(&self.key);
        batch.ends.push(batch.bytes.len());
        let full = batch.ends.len() == BATCH || batch.bytes.len() >= BATCH_BYTES;
        full.then(|| (to, std::mem::take(batch)))
    }

    /// Credits a batch another lane handed to this lane's shard.
    pub(crate) fn receive(&mut self, batch: Batch) {
        match &mut self.shard {
            Keys::Packed(p) => {
                for &mask in &batch.masks {
                    p.credit(mask);
                }
            }
            Keys::Sets(m) => {
                let mut start = 0;
                for &end in &batch.ends {
                    m.credit(&batch.bytes[start..end]);
                    start = end;
                }
            }
        }
    }

    /// Credits the masks waiting in this lane's batch for its own shard.
    fn settle_own(&mut self) {
        if let Some(own) = self.outboxes.get_mut(self.index) {
            let own = std::mem::take(own);
            self.receive(own);
        }
    }

    /// Every batch not yet handed over, with the shard it is bound for,
    /// once this lane's own is credited.
    pub(crate) fn flush(&mut self) -> impl Iterator<Item = (usize, Batch)> + '_ {
        self.settle_own();
        let outboxes = self.outboxes.iter_mut().enumerate();
        outboxes
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(to, batch)| (to, std::mem::take(batch)))
    }

    /// Folds the shard so it can be read; crediting may go on. Only a
    /// one-shard lane reads its table before the run ends.
    pub(crate) fn fold(&mut self) {
        self.settle_own();
        self.shard.fold();
    }

    /// The `k` highest-ranked entries of the folded shard.
    pub(crate) fn top_k(&self, k: usize) -> Vec<(NodeSet, u32)> {
        self.shard.top_k(k)
    }

    /// Folds the shard for good, once every batch bound for it has been
    /// received, and selects its `k` highest-ranked entries: the shard a
    /// run hands out and its part of the run's top k.
    pub(crate) fn finish(mut self, k: usize) -> (Shard, Vec<(NodeSet, u32)>) {
        debug_assert!(self.outboxes.iter().all(Batch::is_empty));
        self.shard.resolve();
        let top = self.shard.top_k(k);
        (Shard(self.shard), top)
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
    use densest::DensityNotion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sampling::MonteCarlo;
    use std::collections::BTreeMap;
    use ugraph::UncertainGraph;

    /// One-shard tables credited and folded in place, as a lone lane's
    /// shard is.
    impl CandidateTable {
        fn for_graph(num_nodes: usize) -> Self {
            CandidateTable {
                shards: vec![Keys::for_graph(num_nodes)],
            }
        }

        fn only(&mut self) -> &mut Keys {
            let [keys] = &mut self.shards[..] else {
                panic!("a table credited in place has one shard")
            };
            keys
        }

        fn credit_mask(&mut self, mask: &[u64]) {
            self.credit_nodes(ones_in(mask).map(|v| v as NodeId));
        }

        fn credit_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
            match self.only() {
                Keys::Packed(p) => p.credit(nodes.into_iter().fold(0, |acc, v| acc | 1 << v)),
                Keys::Sets(m) => {
                    let mut key = Vec::new();
                    encode_into(&mut key, nodes);
                    m.credit(&key);
                }
            }
        }

        fn fold(&mut self) {
            self.only().fold();
        }
    }

    /// The paper's Fig. 1 running example (matches Table I's probabilities).
    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    /// The ranking order by full sort: count descending, then fewer nodes,
    /// then lexicographic.
    fn sorted_reference(table: &CandidateTable) -> Vec<(NodeSet, u32)> {
        ranked(table.iter().collect())
    }

    /// `all` in ranking order.
    fn ranked(mut all: Vec<(NodeSet, u32)>) -> Vec<(NodeSet, u32)> {
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
                packed.credit_nodes(set.iter().copied());
                sets.credit_nodes(set.iter().copied());
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
            t.credit_nodes(set.iter().copied());
            if i % 2 == 0 {
                t.credit_nodes(set.iter().copied());
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
            t.credit_nodes(set.iter().copied());
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

    /// Whether `key` took the bitmap form.
    fn is_bitmap(key: &[u8]) -> bool {
        bitmap_of(key).is_some()
    }

    /// The key of `set`, checked to round-trip.
    fn key_of(set: &[NodeId]) -> Vec<u8> {
        let mut key = Vec::new();
        encode_into(&mut key, set.iter().copied());
        assert_eq!(decode(&key).collect::<NodeSet>(), set);
        assert_eq!(key_len(&key), set.len());
        key
    }

    #[test]
    fn keys_switch_to_a_bitmap_where_it_is_shorter() {
        // A run of consecutive ids from 10 takes one gap byte an id, and
        // 1 + ⌈len / 8⌉ + 1 bytes as a bitmap: three ids stay gaps (3
        // bytes against 3), four switch (4 against 3).
        assert!(!is_bitmap(&key_of(&[10, 11, 12])));
        assert!(is_bitmap(&key_of(&[10, 11, 12, 13])));
        assert_eq!(key_of(&[10, 11, 12, 13]), [10, 0b1111, BITMAP_KEY]);
        // A first id past one LEB128 byte costs both forms a byte more, so
        // the switch stays at four.
        assert!(!is_bitmap(&key_of(&[300, 301, 302])));
        assert_eq!(
            key_of(&[300, 301, 302, 303]),
            [0xac, 0x02, 0b1111, BITMAP_KEY]
        );
        // Sparse ids stay gaps; a dense suffix of a large graph (the size
        // of a heuristic candidate on lastfm) is a bitmap of n / 8 bytes.
        assert!(!is_bitmap(&key_of(&[0, 200, 400, 600])));
        let suffix: NodeSet = (0..6_899).filter(|v| v % 3 == 0).collect();
        let key = key_of(&suffix);
        assert!(is_bitmap(&key));
        assert_eq!(key.len(), 1 + 6_897usize.div_ceil(8) + 1);
        // Empty and single sets, and ids at the top of the range.
        assert!(key_of(&[]).is_empty());
        assert!(!is_bitmap(&key_of(&[u32::MAX])));
        let top: NodeSet = (u32::MAX - 20..=u32::MAX).collect();
        assert!(is_bitmap(&key_of(&top)));
    }

    #[test]
    fn tables_mixing_key_forms_match_a_btree_map() {
        let n = 5_000u32;
        let mut x = 0x0dd_c0ffee_u64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        // Runs (bitmaps), sparse sets (gaps), random subsets of every
        // density in between, and the switch lengths; then pairs that tie
        // on count and length across the forms, in both lexicographic
        // directions.
        let mut sets: Vec<NodeSet> = Vec::new();
        for _ in 0..300 {
            let first = next(u64::from(n) - 600) as NodeId;
            let set: NodeSet = match next(4) {
                0 => (first..first + 1 + next(500) as NodeId).collect(),
                1 => (0..1 + next(12) as NodeId)
                    .map(|i| first + 47 * i)
                    .collect(),
                2 => {
                    let keep = 1 + next(16);
                    (first..first + 600).filter(|_| next(16) < keep).collect()
                }
                _ => (first..first + 3 + next(3) as NodeId).collect(),
            };
            if !set.is_empty() {
                sets.push(set);
            }
        }
        let ties = [
            (vec![0, 1, 2, 3], vec![0, 1_000, 2_000, 3_000]),
            (vec![5, 6, 7, 8], vec![4, 900, 1_800, 2_700]),
        ];
        let mut reference: BTreeMap<NodeSet, u32> = BTreeMap::new();
        let mut t = CandidateTable::for_graph(n as usize);
        for (bitmap, gaps) in &ties {
            assert!(is_bitmap(&key_of(bitmap)) && !is_bitmap(&key_of(gaps)));
            for set in [bitmap, gaps] {
                for _ in 0..7 {
                    t.credit_nodes(set.iter().copied());
                    *reference.entry(set.clone()).or_insert(0) += 1;
                }
            }
        }
        let (mut bitmaps, mut gaps) = (0, 0);
        for set in &sets {
            if is_bitmap(&key_of(set)) {
                bitmaps += 1;
            } else {
                gaps += 1;
            }
            for _ in 0..1 + next(3) {
                t.credit_nodes(set.iter().copied());
                *reference.entry(set.clone()).or_insert(0) += 1;
            }
        }
        assert!(bitmaps > 50 && gaps > 50, "{bitmaps} bitmaps, {gaps} gaps");
        assert_eq!(t.len(), reference.len());
        assert_eq!(t.iter().collect::<BTreeMap<_, _>>(), reference);
        for (set, &count) in &reference {
            let mut probe = set.clone();
            probe.reverse();
            probe.push(set[0]);
            assert_eq!(t.get(&probe), Some(count), "{set:?}");
            let mut missing = set.clone();
            missing.push(n + 1);
            assert_eq!(t.get(&missing), None);
        }
        let full = ranked(reference.into_iter().collect());
        assert_eq!(
            full[..4],
            [
                (vec![0, 1, 2, 3], 7),
                (vec![0, 1_000, 2_000, 3_000], 7),
                (vec![4, 900, 1_800, 2_700], 7),
                (vec![5, 6, 7, 8], 7),
            ]
        );
        for k in [1, 2, 3, 4, 10, full.len()] {
            assert_eq!(t.top_k(k), full[..k], "k = {k}");
        }
    }

    #[test]
    fn lookups_ignore_order_and_repeats() {
        for n in [4, 100] {
            let mut t = CandidateTable::for_graph(n);
            t.credit_nodes([1, 3]);
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
        // the floor: the repeats fold once they reach the ≈104,000 sets
        // held, and the last ones are still unfolded when the loop ends.
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
            if let Keys::Packed(p) = &t.shards[0] {
                assert!(!p.masks.is_empty() && !p.repeats.is_empty());
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
    fn sharded_tables_equal_one_table_credited_with_both_streams() {
        let (a, b) = (
            mask_stream(11, 2 * FOLD_FLOOR + 5, 90_000),
            mask_stream(13, FOLD_FLOOR / 2, 90_000),
        );
        for n in [64, 65] {
            let mut lanes: Vec<LaneTable> = (0..2).map(|i| LaneTable::new(n, i, 2)).collect();
            for (from, stream) in [(0, &a), (1, &b)] {
                for &m in stream {
                    if let Some((to, batch)) = lanes[from].credit_mask(&[m]) {
                        lanes[to].receive(batch);
                    }
                }
            }
            hand_over_rest(&mut lanes, &mut |_, _| {});
            let (sharded, top) = finish_lanes(lanes, 5);
            let mut both = CandidateTable::for_graph(n);
            for &m in b.iter().chain(&a) {
                both.credit_mask(&[m]);
            }
            both.fold();
            assert_eq!(sharded, both, "n = {n}");
            assert_eq!(both, sharded, "n = {n}");
            assert_eq!(sharded.len(), both.len(), "n = {n}");
            assert_eq!(top, both.top_k(5), "n = {n}");
            assert_eq!(sharded.top_k(5), top, "n = {n}");
        }
    }

    /// The lanes of a run of `lanes` lanes over a graph of 64 nodes, each
    /// shard's filter one word wide, so that first sightings collide and
    /// the filters grow within a few credits.
    fn tiny_filter_lanes(lanes: usize) -> Vec<LaneTable> {
        (0..lanes)
            .map(|i| {
                let mut t = LaneTable::new(64, i, lanes);
                t.shard = Keys::Packed(Packed {
                    filter: Bitmap::new(1),
                    ..Packed::default()
                });
                t
            })
            .collect()
    }

    /// Hands every batch that `lanes` hold to its lane, telling `seen` of
    /// each first.
    fn hand_over_rest(lanes: &mut [LaneTable], seen: &mut dyn FnMut(usize, &Batch)) {
        for from in 0..lanes.len() {
            let batches: Vec<(usize, Batch)> = lanes[from].flush().collect();
            for (to, batch) in batches {
                seen(to, &batch);
                lanes[to].receive(batch);
            }
        }
    }

    /// The table that `lanes` hand out, and its top `k` from their lists.
    fn finish_lanes(lanes: Vec<LaneTable>, k: usize) -> (CandidateTable, Vec<(NodeSet, u32)>) {
        let (shards, tops): (Vec<Shard>, Vec<_>) = lanes.into_iter().map(|t| t.finish(k)).unzip();
        (CandidateTable::from_shards(shards), merge_top_k(tops, k))
    }

    /// The sieve test's 60 seeded streams: each up to 40 worlds of up to 60
    /// credits, drawn from a pool of at most 401 sets.
    fn sieve_streams() -> Vec<Vec<Vec<u64>>> {
        let mut x = 0x51e7_e5ee_d0c0_ffeeu64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        (0..60)
            .map(|_| {
                let pool = 2 + next(400);
                (0..1 + next(40))
                    .map(|_| {
                        let len = next(60);
                        (0..len).map(|_| sparse_mask(next(pool))).collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// A table of `shards` key shards: `credits`, in worlds of 50, credited
    /// by the lanes of a run of `shards` lanes, world `w` by lane
    /// `w % shards`, each full batch handed over at once.
    fn sharded(credits: &[u64], shards: usize) -> CandidateTable {
        let mut lanes = tiny_filter_lanes(shards);
        for (w, world) in credits.chunks(50).enumerate() {
            for &m in world {
                if let Some((to, batch)) = lanes[w % shards].credit_mask(&[m]) {
                    lanes[to].receive(batch);
                }
            }
        }
        hand_over_rest(&mut lanes, &mut |_, _| {});
        finish_lanes(lanes, 0).0
    }

    #[test]
    fn reads_do_not_depend_on_the_shard_count() {
        // Every size-2 set over nodes 56..64, one credit above the
        // stream's top count: a 28-way tie at ranks 1 to 28 that only the
        // ids break, cut by every k below 28.
        let ties: Vec<u64> = (56..64)
            .flat_map(|a| (a + 1..64).map(move |b| 1u64 << a | 1 << b))
            .collect();
        for (seed, worlds) in sieve_streams().into_iter().enumerate() {
            let mut credits: Vec<u64> = worlds.concat();
            let mut reference = BTreeMap::<u64, u32>::new();
            for &m in &credits {
                *reference.entry(m).or_insert(0) += 1;
            }
            let top = reference.values().copied().max().unwrap_or(0);
            if seed % 2 == 0 {
                for _ in 0..=top {
                    credits.extend_from_slice(&ties);
                }
                for &m in &ties {
                    *reference.entry(m).or_insert(0) += top + 1;
                }
            }
            let mut entries: Vec<(NodeSet, u32)> = reference
                .iter()
                .map(|(&m, &n)| (mask_nodes(m), n))
                .collect();
            entries.sort_unstable();
            let want = ranked(entries.clone());
            let one = sharded(&credits, 1);
            for shards in 1..=4 {
                if seed % 2 == 0 {
                    let hit: std::collections::BTreeSet<usize> =
                        ties.iter().map(|&m| mask_shard(m, shards)).collect();
                    assert_eq!(hit.len(), shards, "seed {seed}: the tie spans every shard");
                }
                let t = sharded(&credits, shards);
                let label = format!("seed {seed}, {shards} shards");
                assert_eq!(t.len(), reference.len(), "{label}");
                let mut all: Vec<(NodeSet, u32)> = t.iter().collect();
                all.sort_unstable();
                assert_eq!(all, entries, "{label}");
                for (&m, &n) in &reference {
                    let mut ids = mask_nodes(m);
                    ids.reverse();
                    assert_eq!(t.get(&ids), Some(n), "{label}, {m:#x}");
                }
                assert_eq!(t.get(&(0..64).collect::<NodeSet>()), None, "{label}");
                for k in [0, 1, 2, 3, 5, 27, 28, 29, want.len(), want.len() + 1] {
                    assert_eq!(t.top_k(k), want[..k.min(want.len())], "{label}, k = {k}");
                }
                assert_eq!(t, one, "{label}");
                assert_eq!(one, t, "{label}");
            }
        }
    }

    #[test]
    fn the_sieve_counts_exactly_across_collisions_lanes_and_reads() {
        // Whether some stream took each route: a filter that grew, a single
        // that a later repeat moved into the run, and a first sighting sent
        // to the repeats by a collision.
        let (mut grew, mut moved, mut collided) = (false, false, false);
        for (seed, worlds) in sieve_streams().into_iter().enumerate() {
            let n = 1 + seed % 3;
            // World w goes to lane w % n, which hands over what it holds
            // for other shards after every other world, and reads its own
            // shard after every world but its last, as a `Stop::Stable` run
            // reads its one shard: shards are read with credits still to
            // come. `counts[i]` is what shard i has been credited so far.
            let mut lanes = tiny_filter_lanes(n);
            let mut counts = vec![BTreeMap::<u64, u32>::new(); n];
            let seen = |counts: &mut [BTreeMap<u64, u32>], to: usize, masks: &[u64]| {
                for &m in masks {
                    *counts[to].entry(m).or_insert(0) += 1;
                }
            };
            for (w, world) in worlds.iter().enumerate() {
                let from = w % n;
                for &m in world {
                    if mask_shard(m, n) == from {
                        seen(&mut counts, from, &[m]);
                    }
                    if let Some((to, batch)) = lanes[from].credit_mask(&[m]) {
                        seen(&mut counts, to, &batch.masks);
                        lanes[to].receive(batch);
                    }
                }
                if w % 2 == 1 {
                    let batches: Vec<(usize, Batch)> = lanes[from].flush().collect();
                    for (to, batch) in batches {
                        seen(&mut counts, to, &batch.masks);
                        lanes[to].receive(batch);
                    }
                }
                if w + n < worlds.len() {
                    let t = &mut lanes[from];
                    let Keys::Packed(p) = &t.shard else {
                        unreachable!()
                    };
                    let singles = p.singles.clone();
                    t.fold();
                    let Keys::Packed(p) = &t.shard else {
                        unreachable!()
                    };
                    moved |= singles.iter().any(|m| p.masks.binary_search(m).is_ok());
                    let c = &counts[from];
                    let want = ranked(c.iter().map(|(&m, &n)| (mask_nodes(m), n)).collect());
                    assert_eq!(t.shard.len(), c.len(), "seed {seed}, world {w}");
                    assert_eq!(
                        t.top_k(3),
                        want[..want.len().min(3)],
                        "seed {seed}, world {w}"
                    );
                }
            }
            hand_over_rest(&mut lanes, &mut |to, batch| {
                seen(&mut counts, to, &batch.masks)
            });
            for t in &lanes {
                let Keys::Packed(p) = &t.shard else {
                    unreachable!()
                };
                grew |= p.filter.0.len() > 1;
            }
            let mut reference = BTreeMap::<u64, u32>::new();
            for (&m, &c) in counts.iter().flatten() {
                *reference.entry(m).or_insert(0) += c;
            }
            let mut entries: Vec<(NodeSet, u32)> = reference
                .iter()
                .map(|(&m, &c)| (mask_nodes(m), c))
                .collect();
            entries.sort_unstable();
            let want = ranked(entries.clone());
            let (t, top) = finish_lanes(lanes, 3);
            assert_eq!(top, want[..want.len().min(3)], "seed {seed}");
            let mut one = CandidateTable::for_graph(64);
            for &m in worlds.iter().flatten() {
                one.credit_mask(&[m]);
            }
            one.fold();
            assert_eq!(t, one, "seed {seed}");
            assert_eq!(one, t, "seed {seed}");
            assert_eq!(t.len(), reference.len(), "seed {seed}");
            for (&m, &c) in &reference {
                assert_eq!(t.get(&mask_nodes(m)), Some(c), "seed {seed}, {m:#x}");
            }
            let mut all: Vec<(NodeSet, u32)> = t.iter().collect();
            all.sort_unstable();
            assert_eq!(all, entries, "seed {seed}");
            for k in [0, 1, 3, want.len() + 1] {
                assert_eq!(
                    t.top_k(k),
                    want[..k.min(want.len())],
                    "seed {seed}, k = {k}"
                );
            }
            for (i, shard) in t.shards.iter().enumerate() {
                let Keys::Packed(p) = shard else {
                    unreachable!()
                };
                assert!(p.filter.0.is_empty() && p.repeats.capacity() == 0);
                let owned = p.masks.iter().chain(&p.singles);
                assert!(
                    owned.into_iter().all(|&m| mask_shard(m, n) == i),
                    "seed {seed}"
                );
                let single = p.singles.first();
                let repeat = p.counts.iter().position(|&c| c >= 2);
                let collision = p.counts.iter().position(|&c| c == 1);
                if let Some(&m) = single {
                    assert_eq!(t.get(&mask_nodes(m)), Some(1), "seed {seed}, single");
                }
                if let Some(j) = repeat {
                    let m = p.masks[j];
                    assert_eq!(
                        t.get(&mask_nodes(m)),
                        Some(reference[&m]),
                        "seed {seed}, repeat"
                    );
                }
                if let Some(j) = collision {
                    collided = true;
                    assert_eq!(
                        t.get(&mask_nodes(p.masks[j])),
                        Some(1),
                        "seed {seed}, collision"
                    );
                }
            }
            let absent: NodeSet = (0..64).collect();
            assert_eq!(t.get(&absent), None, "seed {seed}, absent");
            assert_eq!(t.get(&[]), None, "seed {seed}, empty");
        }
        assert!(grew && moved && collided, "{grew} {moved} {collided}");
    }

    #[test]
    fn compact_keys_route_to_one_shard_each() {
        // The compact-key form routes by key: 2 and 3 lanes over a graph
        // of 5,000 nodes agree with one lane, whatever lane credits a set.
        let n = 5_000u32;
        let sets: Vec<NodeSet> = (0..400u32)
            .map(|i| (0..1 + i % 7).map(|j| (i * 37 + j * 1_013) % n).collect())
            .map(nodeset::canonicalize)
            .collect();
        let mut one = CandidateTable::for_graph(n as usize);
        for (i, set) in sets.iter().enumerate() {
            for _ in 0..1 + i % 3 {
                one.credit_nodes(set.iter().copied());
            }
        }
        for shards in [2, 3] {
            let mut lanes: Vec<LaneTable> = (0..shards)
                .map(|i| LaneTable::new(n as usize, i, shards))
                .collect();
            for (i, set) in sets.iter().enumerate() {
                for c in 0..1 + i % 3 {
                    if let Some((to, batch)) =
                        lanes[(i + c) % shards].credit_nodes(set.iter().copied())
                    {
                        lanes[to].receive(batch);
                    }
                }
            }
            hand_over_rest(&mut lanes, &mut |_, _| {});
            let (t, top) = finish_lanes(lanes, 10);
            assert_eq!(t, one, "{shards} shards");
            assert_eq!(one, t, "{shards} shards");
            assert_eq!(top, one.top_k(10), "{shards} shards");
            assert_eq!(t.top_k(10), top, "{shards} shards");
            for (i, set) in sets.iter().enumerate() {
                let mut probe = set.clone();
                probe.reverse();
                assert_eq!(t.get(&probe), Some(1 + i as u32 % 3), "{set:?}");
            }
            for (i, shard) in t.shards.iter().enumerate() {
                let Keys::Sets(m) = shard else { unreachable!() };
                assert!(!m.counts.is_empty());
                assert!(m.counts.keys().all(|key| key_shard(key, shards) == i));
            }
        }
    }

    fn run(g: &UncertainGraph, query: &Query, seed: u64) -> MpdsResult {
        match query.clone().seed(seed).run(g).unwrap().details {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!("Query::mpds produces MPDS details"),
        }
    }

    #[test]
    fn fig1_mpds_is_bd() {
        // Table I: DSP({B,D}) = 0.42 is the maximum; B = 1, D = 3.
        let g = fig1();
        let query = Query::mpds(DensityNotion::Edge).theta(4000).k(1);
        let r = run(&g, &query, 42);
        assert_eq!(r.top_k.len(), 1);
        assert_eq!(r.top_k[0].0, vec![1, 3]);
        assert!((r.top_k[0].1 - 0.42).abs() < 0.03, "tau {}", r.top_k[0].1);
    }

    #[test]
    fn fig1_estimates_match_table1() {
        let g = fig1();
        let query = Query::mpds(DensityNotion::Edge).theta(8000).k(10);
        let r = run(&g, &query, 7);
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
        let query = Query::mpds(DensityNotion::Edge).theta(1000).k(1);
        let r = run(&g, &query, 1);
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
        let query = Query::mpds(DensityNotion::Edge).theta(300).k(3);
        let all = run(&g, &query, 3);
        assert_eq!(all.top_k.len(), 3);
        for (_, tau) in &all.top_k {
            assert!((tau - 1.0).abs() < 1e-9);
        }
        let one = run(&g, &query.all_densest(false), 3);
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
        let query = Query::mpds(DensityNotion::Clique(3)).theta(200).k(1);
        let r = run(&g, &query, 5);
        assert_eq!(r.top_k[0].0, vec![0, 1, 2]);
        assert!((r.top_k[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heuristic_mode_runs() {
        let g = fig1();
        let query = Query::mpds(DensityNotion::Edge)
            .theta(500)
            .k(2)
            .heuristic(true);
        let r = run(&g, &query, 11);
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
        let query = Query::mpds(DensityNotion::Edge).theta(200).k(3);
        let a = run(&g, &query, 99);
        let b = run(&g, &query, 99);
        assert_eq!(a.top_k, b.top_k);
    }

    #[test]
    fn unbounded_control_matches_uncontrolled_run() {
        use crate::control::RunControl;
        let g = fig1();
        let query = Query::mpds(DensityNotion::Edge).theta(300).k(3);
        let a = run(&g, &query, 17);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(17));
        let b = match query
            .clone()
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
        let query = Query::mpds(DensityNotion::Edge).theta(10_000).k(1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let ctrl = RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = query
            .clone()
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
        let query = Query::mpds(DensityNotion::Edge).theta(10_000).k(1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let flag = Arc::new(AtomicBool::new(true));
        flag.store(true, Ordering::Relaxed);
        let ctrl = RunControl::unbounded().with_cancel_flag(flag);
        let err = query
            .clone()
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
