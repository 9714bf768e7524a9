//! Cross-crate integration tests: the full Algorithm 1 / Algorithm 5
//! pipelines against exact ground truth on small uncertain graphs, across
//! density notions, sampling strategies, and helper thread counts — all driven
//! through the `mpds::api` builder.

use densest::DensityNotion;
use mpds::api::{Query, SamplerKind};
use mpds::control::RunControl;
use mpds::exact::{average_f1_across_ranks, exact_gamma, exact_top_k_mpds};
use ugraph::{datasets, Pattern, UncertainGraph};

fn ba7() -> UncertainGraph {
    datasets::synthetic_accuracy_graph("BA7", 42).graph
}

#[test]
fn estimator_matches_exact_top1_on_ba7_all_notions() {
    // Paper §VI-H: "for k = 1, in all cases, our method returns the same
    // result as the exact one".
    let g = ba7();
    let notions = [
        DensityNotion::Edge,
        DensityNotion::Clique(3),
        DensityNotion::Pattern(Pattern::diamond()),
        DensityNotion::Pattern(Pattern::two_star()),
    ];
    for notion in notions {
        let exact = exact_top_k_mpds(&g, &notion, 1);
        let approx = Query::mpds(notion.clone())
            .theta(3000)
            .k(1)
            .seed(7)
            .run(&g)
            .unwrap();
        assert_eq!(
            approx.top_k.first().map(|(s, _)| s.clone()),
            exact.first().map(|(s, _)| s.clone()),
            "notion {}",
            notion.label()
        );
    }
}

#[test]
fn estimator_f1_is_high_for_top5() {
    let g = ba7();
    let exact = exact_top_k_mpds(&g, &DensityNotion::Edge, 5);
    let approx = Query::mpds(DensityNotion::Edge)
        .theta(5000)
        .k(5)
        .seed(9)
        .run(&g)
        .unwrap();
    let f1 = average_f1_across_ranks(&approx.top_k, &exact);
    assert!(f1 > 0.7, "avg F1 {f1}");
}

#[test]
fn all_three_samplers_agree_on_the_mpds() {
    let g = ba7();
    let run = |kind: SamplerKind, seed: u64| {
        Query::mpds(DensityNotion::Edge)
            .theta(2500)
            .k(1)
            .sampler(kind)
            .seed(seed)
            .run(&g)
            .unwrap()
            .top_k[0]
            .0
            .clone()
    };
    let mc = run(SamplerKind::MonteCarlo, 1);
    let lp = run(SamplerKind::Lp, 2);
    let rss = run(SamplerKind::Rss, 3);
    assert_eq!(mc, lp);
    assert_eq!(mc, rss);
}

#[test]
fn parallel_execution_agrees_on_the_mpds() {
    // Helper threads solve worlds of the one stream, so the run is the
    // one-thread run.
    let g = ba7();
    let runs: Vec<_> = [0, 2]
        .map(|helpers| {
            Query::mpds(DensityNotion::Edge)
                .theta(2500)
                .k(1)
                .seed(5)
                .control(RunControl::unbounded().with_helpers(helpers))
                .run(&g)
                .unwrap()
        })
        .into();
    assert_eq!(runs[0].top_k, runs[1].top_k);
    assert_eq!(runs[0].stats.empty_worlds, runs[1].stats.empty_worlds);
}

#[test]
fn nds_gamma_estimates_match_exact() {
    let g = ba7();
    let res = Query::nds(DensityNotion::Edge)
        .theta(4000)
        .k(5)
        .min_size(2)
        .seed(5)
        .run(&g)
        .unwrap();
    assert!(!res.top_k.is_empty());
    for (set, gamma_hat) in res.top_k.iter().take(3) {
        let gamma = exact_gamma(&g, &DensityNotion::Edge, set);
        assert!(
            (gamma_hat - gamma).abs() < 0.03,
            "{set:?}: {gamma_hat} vs exact {gamma}"
        );
    }
}

#[test]
fn tau_hat_is_unbiased_on_er7() {
    // Lemma 1: E[tau_hat] = tau. Check the top sets' estimates converge.
    let g = datasets::synthetic_accuracy_graph("ER7", 42).graph;
    let exact = exact_top_k_mpds(&g, &DensityNotion::Edge, 3);
    let approx = Query::mpds(DensityNotion::Edge)
        .theta(8000)
        .k(3)
        .seed(31)
        .run(&g)
        .unwrap();
    for (set, tau) in &exact {
        let hat = approx.score_of(set);
        assert!((hat - tau).abs() < 0.03, "{set:?}: {hat} vs {tau}");
    }
}

#[test]
fn heuristic_mpds_stays_close_on_karate() {
    // The §III-C heuristic must return an equally meaningful top-1 on a real
    // dataset. The two modes may settle on different dense clusters (both
    // factions contain one), so compare quality — ground-truth purity and a
    // non-trivial estimated probability — rather than set identity.
    let data = datasets::karate_club();
    let comms = data.communities.as_ref().unwrap();
    let base = Query::mpds(DensityNotion::Edge).theta(400).k(1).seed(7);
    let exact_mode = base.clone().run(&data.graph).unwrap();
    let heur_mode = base.heuristic(true).run(&data.graph).unwrap();
    for res in [&exact_mode, &heur_mode] {
        let (set, tau) = &res.top_k[0];
        assert!(set.len() >= 2, "trivial top-1 {set:?}");
        assert!(*tau > 0.01, "vanishing tau {tau} for {set:?}");
        assert_eq!(
            ugraph::metrics::purity(set, comms),
            1.0,
            "mixed-faction top-1 {set:?}"
        );
    }
}
