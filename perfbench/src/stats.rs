//! Percentile summaries: every timing is reported as its median plus the
//! highest percentile that still has at least ten samples beyond it, with
//! the sample count.

/// Tail percentiles tried from the highest down.
const TAILS: [(&str, f64); 3] = [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)];

/// Samples a tail percentile needs beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (non-empty), `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing's median, its reportable tail, and its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS.iter().find_map(|&(label, p)| {
            let beyond = n - (p * n as f64).ceil() as usize;
            (beyond >= TAIL_MIN_BEYOND).then(|| (label, percentile(&sorted, p)))
        });
        Some(Summary {
            n,
            p50: percentile(&sorted, 0.5),
            tail,
        })
    }

    /// The named percentile, when this sample is large enough to report it.
    pub fn at(samples: &[f64], label: &str) -> Option<f64> {
        let p = TAILS.iter().find(|(l, _)| *l == label)?.1;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let beyond = sorted.len() - (p * sorted.len() as f64).ceil() as usize;
        (beyond >= TAIL_MIN_BEYOND).then(|| percentile(&sorted, p))
    }

    /// `p50=… p90=… (n=…)` for the report.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((label, v)) => format!("p50={:.4} {label}={v:.4} (n={})", self.p50, self.n),
            None => format!("p50={:.4} (n={}, too few for a tail)", self.p50, self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the summary must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.01), 1.0);
    }

    #[test]
    fn tail_is_the_highest_with_ten_beyond() {
        assert_eq!(Summary::of(&[]), None);
        let small = Summary::of(&ramp(99)).unwrap();
        assert_eq!((small.n, small.p50, small.tail), (99, 50.0, None));
        let hundred = Summary::of(&ramp(100)).unwrap();
        assert_eq!(hundred.tail, Some(("p90", 90.0)));
        let thousand = Summary::of(&ramp(1000)).unwrap();
        assert_eq!(thousand.tail, Some(("p99", 990.0)));
        let big = Summary::of(&ramp(10_000)).unwrap();
        assert_eq!(big.tail, Some(("p99.9", 9990.0)));
    }

    #[test]
    fn named_percentile_needs_ten_beyond() {
        assert_eq!(Summary::at(&ramp(999), "p99"), None);
        assert_eq!(Summary::at(&ramp(1000), "p99"), Some(990.0));
        assert_eq!(Summary::at(&ramp(100), "p90"), Some(90.0));
        assert_eq!(Summary::at(&ramp(100), "p75"), None);
    }
}
