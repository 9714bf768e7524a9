//! Choosing θ empirically (paper §VI-I, Fig. 19).
//!
//! The paper selects the default sample size per dataset by doubling θ until
//! the returned top-k node sets stop changing — "increasing θ steadily
//! increases the similarity of the returned node sets to those for the
//! previous value of θ till a certain point, after which it converges". This
//! module packages that schedule for both MPDS and NDS.
//!
//! The schedule's per-step runs honor whatever [`crate::control::RunControl`]
//! semantics the query layer has (deadlines, cancellation), so each entry
//! point returns `Result` instead of assuming a step cannot fail. For the
//! *online* version of this rule — early-stopping a single run once its
//! top-k settles — see [`crate::api::Stop::Stable`].

use crate::api::{ApiError, Query};
use densest::DensityNotion;
use sampling::WorldSampler;
use ugraph::nodeset::set_family_similarity;
use ugraph::{NodeSet, UncertainGraph};

/// One step of the doubling schedule.
#[derive(Debug, Clone)]
pub struct ConvergenceStep {
    /// Sample count θ used at this step.
    pub theta: usize,
    /// Jaccard-based similarity of this step's top-k to the previous step's
    /// (`None` for the first step).
    pub similarity: Option<f64>,
    /// Top-k node sets estimated at this step.
    pub top_k: Vec<NodeSet>,
    /// Wall-clock time of the step.
    pub seconds: f64,
}

/// Full trace of a convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceTrace {
    /// Steps of the doubling schedule, in execution order.
    pub steps: Vec<ConvergenceStep>,
    /// First θ whose similarity reached the threshold (`None` if the cap was
    /// hit first).
    pub converged_theta: Option<usize>,
}

/// Doubles θ from `theta0` until the top-k MPDS sets are at least
/// `threshold`-similar to the previous step's, or `theta_cap` is reached.
/// `make_sampler` builds a fresh sampler per step (same seed ⇒ nested
/// samples, which is what the paper's similarity curve uses).
pub fn mpds_convergence<S: WorldSampler>(
    g: &UncertainGraph,
    notion: &DensityNotion,
    k: usize,
    theta0: usize,
    theta_cap: usize,
    threshold: f64,
    mut make_sampler: impl FnMut() -> S,
) -> Result<ConvergenceTrace, ApiError> {
    run_schedule(theta0, theta_cap, threshold, |theta| {
        let mut sampler = make_sampler();
        Ok(Query::mpds(notion.clone())
            .theta(theta)
            .k(k)
            .run_with_sampler(g, &mut sampler)?
            .top_k
            .into_iter()
            .map(|(s, _)| s)
            .collect())
    })
}

/// NDS variant of [`mpds_convergence`].
pub fn nds_convergence<S: WorldSampler>(
    g: &UncertainGraph,
    notion: &DensityNotion,
    k: usize,
    min_size: usize,
    theta0: usize,
    theta_cap: usize,
    threshold: f64,
    mut make_sampler: impl FnMut() -> S,
) -> Result<ConvergenceTrace, ApiError> {
    run_schedule(theta0, theta_cap, threshold, |theta| {
        let mut sampler = make_sampler();
        Ok(Query::nds(notion.clone())
            .theta(theta)
            .k(k)
            .min_size(min_size)
            .run_with_sampler(g, &mut sampler)?
            .top_k
            .into_iter()
            .map(|(s, _)| s)
            .collect())
    })
}

fn run_schedule(
    theta0: usize,
    theta_cap: usize,
    threshold: f64,
    mut run: impl FnMut(usize) -> Result<Vec<NodeSet>, ApiError>,
) -> Result<ConvergenceTrace, ApiError> {
    assert!(theta0 > 0 && theta0 <= theta_cap);
    assert!((0.0..=1.0).contains(&threshold));
    let mut steps: Vec<ConvergenceStep> = Vec::new();
    let mut converged = None;
    let mut theta = theta0;
    loop {
        let start = std::time::Instant::now();
        let top_k = run(theta)?;
        let seconds = start.elapsed().as_secs_f64();
        let similarity = steps
            .last()
            .map(|prev| set_family_similarity(&prev.top_k, &top_k));
        steps.push(ConvergenceStep {
            theta,
            similarity,
            top_k,
            seconds,
        });
        if converged.is_none() && similarity.is_some_and(|s| s >= threshold) {
            converged = Some(theta);
            break;
        }
        if theta >= theta_cap {
            break;
        }
        theta = (theta * 2).min(theta_cap);
    }
    Ok(ConvergenceTrace {
        steps,
        converged_theta: converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sampling::MonteCarlo;

    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    #[test]
    fn mpds_converges_on_small_graph() {
        let g = fig1();
        let mut seed = 0u64;
        let trace = mpds_convergence(&g, &DensityNotion::Edge, 1, 50, 6400, 0.99, || {
            seed += 1;
            MonteCarlo::new(&g, StdRng::seed_from_u64(seed))
        })
        .unwrap();
        assert!(trace.converged_theta.is_some());
        // Once converged, the last two steps return the same top-1.
        let n = trace.steps.len();
        assert!(n >= 2);
        assert_eq!(trace.steps[n - 1].top_k, trace.steps[n - 2].top_k);
        // The converged answer is the true MPDS {B, D} = {1, 3}.
        assert_eq!(trace.steps[n - 1].top_k[0], vec![1, 3]);
    }

    #[test]
    fn schedule_respects_cap() {
        // A threshold of exactly 1.0 with jittery answers may never converge;
        // the cap must stop the loop.
        let mut calls = 0usize;
        let trace = run_schedule(10, 80, 1.1_f64.min(1.0), |theta| {
            calls += 1;
            // Alternate answers so similarity < 1 except by luck.
            Ok(vec![vec![theta as u32]])
        })
        .unwrap();
        assert!(trace.converged_theta.is_none());
        assert_eq!(trace.steps.last().unwrap().theta, 80);
        assert_eq!(calls, trace.steps.len());
        // Doubling schedule: 10, 20, 40, 80.
        let thetas: Vec<usize> = trace.steps.iter().map(|s| s.theta).collect();
        assert_eq!(thetas, vec![10, 20, 40, 80]);
    }

    #[test]
    fn nds_converges() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 0.95), (0, 2, 0.95), (1, 2, 0.95), (2, 3, 0.2)],
        );
        let mut seed = 100u64;
        let trace = nds_convergence(&g, &DensityNotion::Edge, 2, 2, 40, 2560, 0.95, || {
            seed += 1;
            MonteCarlo::new(&g, StdRng::seed_from_u64(seed))
        })
        .unwrap();
        assert!(trace.converged_theta.is_some());
    }

    /// A step that fails (here: a schedule-level error) propagates instead
    /// of panicking — the old code `expect`ed steps could never fail.
    #[test]
    fn step_errors_propagate_instead_of_panicking() {
        let err = run_schedule(10, 80, 0.9, |_| {
            Err(ApiError::InvalidParameter {
                param: "theta",
                message: "injected".to_string(),
            })
        })
        .unwrap_err();
        assert!(matches!(err, ApiError::InvalidParameter { .. }));
    }
}
