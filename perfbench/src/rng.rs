//! Seeded, platform-independent randomness for input generation.
//!
//! The benchmark derives every input from `--seed` through these functions
//! alone, so a seed names the same query sets and mutation scripts on any
//! machine and at any commit of the program under test.

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th value of the independent stream `stream` under `seed`.
pub fn hash(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ mix64(stream.wrapping_add(GOLDEN))).wrapping_add(i.wrapping_mul(GOLDEN)))
}

/// Maps a 64-bit value to `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A sequential SplitMix64 generator, for inputs generated in order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_fixed_and_distinct() {
        assert_eq!(hash(1, 2, 3), hash(1, 2, 3));
        assert_ne!(hash(1, 2, 3), hash(1, 3, 3));
        assert_ne!(hash(1, 2, 3), hash(2, 2, 3));
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..100 {
            let x = a.below(7);
            assert!(x < 7);
            assert_eq!(x, b.below(7));
        }
        assert!((0.0..1.0).contains(&unit(u64::MAX)));
    }
}
