//! Edge-probability models (paper §VI-A, "Edge probability models").
//!
//! The paper derives edge probabilities from interaction counts
//! (`1 − e^{−t/μ}`, used for Karate Club / Twitter / Friendster), message
//! delivery rates (Intel Lab), inverse degrees (LastFM), and experimental
//! confidence scores (Homo Sapiens, Biomine). This module implements those
//! models so the synthetic stand-ins can match Table II's distributions.

use crate::graph::Graph;
use rand::Rng;
use rand_distr_normal::sample_normal;

/// `1 − e^{−t/μ}`: exponential CDF applied to an interaction count `t`
/// (paper's model for Karate Club, Twitter, and Friendster, with `μ = 20`).
pub fn exponential_cdf(t: f64, mu: f64) -> f64 {
    assert!(mu > 0.0);
    1.0 - (-t / mu).exp()
}

/// Assigns probabilities from per-edge interaction counts via
/// [`exponential_cdf`], clamped into `(0, 1]`.
pub fn probs_from_counts(counts: &[u32], mu: f64) -> Vec<f64> {
    counts
        .iter()
        .map(|&t| exponential_cdf(t as f64, mu).max(1e-9))
        .collect()
}

/// LastFM model: the probability of an edge is the reciprocal of the larger
/// of the degrees of its endpoints.
pub fn inverse_degree_probs(g: &Graph) -> Vec<f64> {
    g.edges()
        .iter()
        .map(|&(u, v)| {
            let d = g.degree(u).max(g.degree(v)).max(1);
            1.0 / d as f64
        })
        .collect()
}

/// Truncated-normal probabilities: `Normal(mean, std)` clamped into
/// `[lo, hi] ⊂ (0, 1]`. Matches the "normally distributed edge probabilities"
/// of the paper's Fig. 18 and approximates the confidence-score distributions
/// of Table II (Intel Lab, Homo Sapiens, Biomine) when `mean`/`std` are set to
/// the table's values.
pub fn truncated_normal_probs<R: Rng>(
    m: usize,
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(lo > 0.0 && hi <= 1.0 && lo <= hi);
    (0..m)
        .map(|_| sample_normal(rng, mean, std).clamp(lo, hi))
        .collect()
}

/// Uniform probabilities in `[lo, hi] ⊂ (0, 1]` (paper §VI-H assigns edge
/// probabilities "uniformly at random" on the synthetic graphs).
pub fn uniform_probs<R: Rng>(m: usize, lo: f64, hi: f64, rng: &mut R) -> Vec<f64> {
    assert!(lo > 0.0 && hi <= 1.0 && lo <= hi);
    (0..m).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Summary statistics of a probability vector: `(mean, std, [q1, median, q3])`.
/// Used to verify the synthetic datasets against Table II.
pub fn prob_stats(probs: &[f64]) -> (f64, f64, [f64; 3]) {
    assert!(!probs.is_empty());
    let n = probs.len() as f64;
    let mean = probs.iter().sum::<f64>() / n;
    let var = probs.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    let mut sorted = probs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    (mean, var.sqrt(), [q(0.25), q(0.5), q(0.75)])
}

/// Minimal Box–Muller normal sampler (keeps us off extra dependencies).
mod rand_distr_normal {
    use rand::Rng;

    pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, std: f64) -> f64 {
        // Box–Muller transform; u1 in (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_cdf_values() {
        assert!((exponential_cdf(0.0, 20.0) - 0.0).abs() < 1e-12);
        // t = 20, mu = 20 -> 1 - 1/e.
        assert!((exponential_cdf(20.0, 20.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(exponential_cdf(1e9, 20.0) <= 1.0);
    }

    #[test]
    fn counts_to_probs_monotone() {
        let p = probs_from_counts(&[1, 5, 20, 100], 20.0);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(p.iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    #[test]
    fn inverse_degree_model() {
        // Star on 4 nodes: center degree 3, leaves degree 1 -> all probs 1/3.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let p = inverse_degree_probs(&g);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn truncated_normal_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = truncated_normal_probs(5000, 0.33, 0.19, 0.01, 1.0, &mut rng);
        assert!(p.iter().all(|&x| (0.01..=1.0).contains(&x)));
        let (mean, std, _) = prob_stats(&p);
        // Truncation shifts moments slightly; verify rough agreement.
        assert!((mean - 0.33).abs() < 0.03, "mean {mean}");
        assert!((std - 0.19).abs() < 0.04, "std {std}");
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = uniform_probs(1000, 0.2, 0.8, &mut rng);
        assert!(p.iter().all(|&x| (0.2..=0.8).contains(&x)));
        let (mean, _, _) = prob_stats(&p);
        assert!((mean - 0.5).abs() < 0.03);
    }

    #[test]
    fn stats_on_known_vector() {
        let (mean, std, q) = prob_stats(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!((mean - 0.3).abs() < 1e-12);
        assert!((std - (0.02f64).sqrt()).abs() < 1e-12);
        assert_eq!(q, [0.2, 0.3, 0.4]);
    }
}
