//! Dense bitsets over small integer universes.
//!
//! The hot loops of the MPDS pipeline repeatedly answer "is node `v` in this
//! set?" and "is edge `e` present in this world?". A `Vec<bool>` answers both
//! but costs one byte per element and one heap allocation per query set; the
//! [`DenseBitSet`] here packs the answers 64 per word so a million-edge world
//! mask fits in ~16 KiB of contiguous memory, and it is designed to be
//! *reused*: [`DenseBitSet::reset`] re-zeroes in place without reallocating.
//!
//! Two aliases name its roles: [`NodeBitSet`] (membership over `0..n` nodes,
//! the dense complement of the sorted-vec [`crate::nodeset::NodeSet`]) and
//! [`EdgeMask`] (edge presence over `0..m` canonical edge indices — the
//! possible-world masks produced by the samplers).

/// A fixed-universe dense bitset (`u64` words, one bit per element).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
    universe: usize,
}

/// Dense node-membership set over `0..n` (see [`crate::nodeset`]).
pub type NodeBitSet = DenseBitSet;

/// Edge-presence bitmap over the canonical edge indices `0..m` of a graph —
/// the compact form of a sampled possible world.
pub type EdgeMask = DenseBitSet;

impl DenseBitSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        DenseBitSet {
            words: vec![0u64; universe.div_ceil(64)],
            universe,
        }
    }

    /// Creates a set over `0..marks.len()` with bit `i` = `marks[i]`.
    pub fn from_bools(marks: &[bool]) -> Self {
        let mut s = DenseBitSet::new(marks.len());
        s.fill_from_bools(marks);
        s
    }

    /// Creates a set over `0..universe` containing exactly `members`.
    ///
    /// # Panics
    /// If any member is outside the universe.
    pub fn from_members(universe: usize, members: &[u32]) -> Self {
        let mut s = DenseBitSet::new(universe);
        for &v in members {
            s.insert(v as usize);
        }
        s
    }

    /// Size of the universe (`0..universe` are the addressable elements).
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Re-targets the set to a (possibly different) universe and clears it.
    /// Reuses the existing allocation when large enough — the reset entry
    /// point for preallocated masks that outlive one sample.
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.words.clear();
        self.words.resize(universe.div_ceil(64), 0);
    }

    /// Re-targets the set to `0..universe` and sets every word in ascending
    /// order: word `i`, the elements `64 i .. 64 i + 64`, becomes `word(i)`.
    /// Bits at or past the universe are dropped. Reuses the allocation, as
    /// [`DenseBitSet::reset`] does.
    pub fn refill_words(&mut self, universe: usize, mut word: impl FnMut(usize) -> u64) {
        self.reset(universe);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = word(i);
        }
        if let Some(last) = self.words.last_mut() {
            if universe % 64 != 0 {
                *last &= (1u64 << (universe % 64)) - 1;
            }
        }
    }

    /// Whether `i` is in the set. Out-of-universe queries return `false`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        match self.words.get(i / 64) {
            Some(w) => w >> (i % 64) & 1 == 1,
            None => false,
        }
    }

    /// Inserts `i`, returning whether it was newly added.
    ///
    /// # Panics
    /// If `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.universe, "{i} outside universe {}", self.universe);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Overwrites the set from a `bool` slice (re-targeting the universe to
    /// `marks.len()`).
    pub fn fill_from_bools(&mut self, marks: &[bool]) {
        self.reset(marks.len());
        for (i, &b) in marks.iter().enumerate() {
            if b {
                self.words[i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// The set as a `bool` vector of universe length.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.universe).map(|i| self.contains(i)).collect()
    }

    /// Iterates the members in ascending order (word-at-a-time scan).
    pub fn ones(&self) -> Ones<'_> {
        ones_in(&self.words)
    }
}

/// Iterates the set bits of raw packed words in ascending order: bit
/// `i % 64` of word `i / 64` stands for element `i`. Decodes the packed node
/// masks the densest-subgraph enumerator streams.
pub fn ones_in(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        next_word: 0,
        current: 0,
        base: 0,
    }
}

/// Ascending iterator over the members of a [`DenseBitSet`] (or of raw
/// words, see [`ones_in`]).
#[derive(Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            let w = *self.words.get(self.next_word)?;
            self.current = w;
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(!s.contains(1000)); // out of universe: false, no panic
    }

    #[test]
    fn ones_iterates_ascending() {
        let s = DenseBitSet::from_members(200, &[3, 64, 65, 199]);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
        assert_eq!(ones_in(&[0b101, 0, 1]).collect::<Vec<_>>(), vec![0, 2, 128]);
    }

    #[test]
    fn bools_roundtrip() {
        let marks = [true, false, true, true, false];
        let s = DenseBitSet::from_bools(&marks);
        assert_eq!(s.to_bools(), marks);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut s = DenseBitSet::new(100);
        s.insert(50);
        s.reset(64);
        assert_eq!(s.universe(), 64);
        assert!(s.ones().next().is_none());
        s.insert(63);
        assert!(s.contains(63));
    }

    #[test]
    fn refill_words_drops_bits_past_the_universe() {
        let mut s = DenseBitSet::new(3);
        s.refill_words(70, |i| if i == 0 { 1 << 63 } else { u64::MAX });
        assert_eq!(s.universe(), 70);
        assert_eq!(
            s.ones().collect::<Vec<_>>(),
            vec![63, 64, 65, 66, 67, 68, 69]
        );
        s.refill_words(64, |_| 5);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        DenseBitSet::new(4).insert(4);
    }

    #[test]
    fn empty_universe() {
        let s = DenseBitSet::new(0);
        assert!(s.ones().next().is_none());
    }
}
