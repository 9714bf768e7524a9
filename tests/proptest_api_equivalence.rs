//! Property-based pins for the `mpds::api` determinism contract, now that
//! the legacy free functions (`top_k_mpds`, `top_k_nds`, …) are gone:
//!
//! * `.run()` at seed `s` is bit-identical to `.run_with_sampler` over an
//!   externally-constructed sampler seeded with `s` — the contract the
//!   legacy wrappers used to witness;
//! * a single-member [`mpds::QuerySet`] is bit-identical to the equivalent
//!   standalone [`Query`] run, for MPDS and NDS under all three samplers;
//! * recorded-baseline values (bit-exact `f64`s captured from the legacy
//!   implementation before its deletion) stay reproducible, so the suite
//!   guards the historical behaviour without calling the deleted code;
//! * the candidate table's two key forms (packed masks up to 64 nodes,
//!   sorted id vectors beyond) give the same answers on the same worlds.

use densest::DensityNotion;
use mpds::api::{Query, Run, RunDetails, SamplerKind};
use mpds::control::RunControl;
use mpds::{MpdsResult, NdsResult, QuerySet, Stop, StopReason};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::MonteCarlo;
use std::collections::HashMap;
use ugraph::{Graph, NodeId, NodeSet, UncertainGraph};

/// Strategy: a random uncertain graph on up to 6 nodes with edge
/// probabilities in (0, 1].
fn arb_uncertain() -> impl Strategy<Value = UncertainGraph> {
    (3usize..=6).prop_flat_map(|n| {
        let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(proptest::bool::ANY, len).prop_flat_map(move |mask| {
            let edges: Vec<(NodeId, NodeId)> = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &b)| b)
                .map(|(&e, _)| e)
                .collect();
            let g = Graph::from_edges(n, &edges);
            let m = g.num_edges();
            proptest::collection::vec(0.1f64..=1.0, m)
                .prop_map(move |probs| UncertainGraph::new(g.clone(), probs))
        })
    })
}

fn mpds_details(details: RunDetails) -> MpdsResult {
    match details {
        RunDetails::Mpds(r) => r,
        RunDetails::Nds(_) => unreachable!("MPDS query yields MPDS details"),
    }
}

fn nds_details(details: RunDetails) -> NdsResult {
    match details {
        RunDetails::Nds(r) => r,
        RunDetails::Mpds(_) => unreachable!("NDS query yields NDS details"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial MPDS: `.run()` at seed `s` ≡ `.run_with_sampler` over an
    /// equally-seeded MC sampler, across both the all-densest default and
    /// the §VI-D one-mode ablation.
    #[test]
    fn serial_mpds_run_equals_external_sampler(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..40,
        k in 0usize..4, // k = 0 is the legal degenerate "rank nothing" query
        all_mode in proptest::bool::ANY,
    ) {
        let query = || Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(k)
            .all_densest(all_mode);
        let mut mc = MonteCarlo::new(&ug, StdRng::seed_from_u64(seed));
        let external = mpds_details(query().run_with_sampler(&ug, &mut mc).unwrap().details);
        let run = query().seed(seed).run(&ug).unwrap();
        prop_assert_eq!(&run.top_k, &external.top_k);
        let details = mpds_details(run.details);
        prop_assert_eq!(details.candidates, external.candidates);
        prop_assert_eq!(details.densest_counts, external.densest_counts);
        prop_assert_eq!(details.empty_worlds, external.empty_worlds);
        prop_assert_eq!(details.truncated, external.truncated);
    }

    /// Serial NDS: `.run()` at seed `s` ≡ `.run_with_sampler` over an
    /// equally-seeded MC sampler.
    #[test]
    fn serial_nds_run_equals_external_sampler(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..40,
        min_size in 0usize..4, // 0 imposes no size floor
    ) {
        let query = || Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(4)
            .min_size(min_size);
        let mut mc = MonteCarlo::new(&ug, StdRng::seed_from_u64(seed));
        let external = nds_details(query().run_with_sampler(&ug, &mut mc).unwrap().details);
        let run = query().seed(seed).run(&ug).unwrap();
        prop_assert_eq!(&run.top_k, &external.top_k);
        let details = nds_details(run.details);
        prop_assert_eq!(details.transactions, external.transactions);
        prop_assert_eq!(details.empty_worlds, external.empty_worlds);
    }

    /// The anytime contract, MPDS side: a `Stop::Stable` run that stops
    /// after `t` worlds is bit-identical to `Stop::FixedTheta` at
    /// `theta = t` with the same seed — early stopping truncates the world
    /// stream, it never changes what any prefix of the stream estimates.
    #[test]
    fn stable_stop_equals_fixed_theta_at_the_stop_point_mpds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 4usize..40,
        window in 1usize..6,
    ) {
        let stable = Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .seed(seed)
            .stop(Stop::Stable { window, min_theta: window, theta_cap: theta })
            .run(&ug)
            .unwrap();
        let t = stable.stats.worlds_sampled;
        prop_assert!(t >= 1 && t <= theta, "stop point {} outside 1..={}", t, theta);
        if stable.stats.stop_reason == StopReason::Stable {
            prop_assert!(t < theta || stable.stats.converged_at.is_some());
        } else {
            prop_assert_eq!(stable.stats.stop_reason, StopReason::Completed);
            prop_assert_eq!(t, theta);
        }
        let fixed = Query::mpds(DensityNotion::Edge)
            .theta(t)
            .k(3)
            .seed(seed)
            .run(&ug)
            .unwrap();
        let sb: Vec<(NodeSet, u64)> =
            stable.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        let fb: Vec<(NodeSet, u64)> =
            fixed.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        prop_assert_eq!(sb, fb);
        prop_assert_eq!(stable.stats.empty_worlds, fixed.stats.empty_worlds);
        let s = mpds_details(stable.details);
        let f = mpds_details(fixed.details);
        prop_assert_eq!(s.candidates, f.candidates);
        prop_assert_eq!(s.densest_counts, f.densest_counts);
    }

    /// The anytime contract, NDS side: same statement over the closed-set
    /// miner — transactions collected up to the stop point match a fixed-θ
    /// run of exactly that length.
    #[test]
    fn stable_stop_equals_fixed_theta_at_the_stop_point_nds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 4usize..40,
        window in 1usize..6,
    ) {
        let stable = Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .min_size(2)
            .seed(seed)
            .stop(Stop::Stable { window, min_theta: window, theta_cap: theta })
            .run(&ug)
            .unwrap();
        let t = stable.stats.worlds_sampled;
        prop_assert!(t >= 1 && t <= theta);
        let fixed = Query::nds(DensityNotion::Edge)
            .theta(t)
            .k(3)
            .min_size(2)
            .seed(seed)
            .run(&ug)
            .unwrap();
        let sb: Vec<(NodeSet, u64)> =
            stable.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        let fb: Vec<(NodeSet, u64)> =
            fixed.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        prop_assert_eq!(sb, fb);
        let s = nds_details(stable.details);
        let f = nds_details(fixed.details);
        prop_assert_eq!(s.transactions, f.transactions);
        prop_assert_eq!(s.empty_worlds, f.empty_worlds);
    }

    /// A single-member `QuerySet` is bit-identical to the equivalent
    /// standalone MPDS `Query` run under every sampler.
    #[test]
    fn single_member_queryset_equals_standalone_mpds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..30,
        k in 0usize..4,
    ) {
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let member = Query::mpds(DensityNotion::Edge).k(k);
            let standalone = member
                .clone()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .run(&ug)
                .unwrap();
            let batch = QuerySet::new()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .push(member)
                .run(&ug)
                .unwrap();
            prop_assert_eq!(batch.runs.len(), 1);
            prop_assert_eq!(batch.stats.worlds_sampled, theta);
            let run = &batch.runs[0];
            prop_assert_eq!(&run.top_k, &standalone.top_k);
            let b = mpds_details(run.details.clone());
            let s = mpds_details(standalone.details);
            prop_assert_eq!(b.candidates, s.candidates);
            prop_assert_eq!(b.densest_counts, s.densest_counts);
            prop_assert_eq!(b.empty_worlds, s.empty_worlds);
            prop_assert_eq!(b.truncated, s.truncated);
        }
    }

    /// A single-member `QuerySet` is bit-identical to the equivalent
    /// standalone NDS `Query` run under every sampler.
    #[test]
    fn single_member_queryset_equals_standalone_nds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..30,
        min_size in 0usize..4,
    ) {
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let member = Query::nds(DensityNotion::Edge).k(4).min_size(min_size);
            let standalone = member
                .clone()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .run(&ug)
                .unwrap();
            let batch = QuerySet::new()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .push(member)
                .run(&ug)
                .unwrap();
            prop_assert_eq!(batch.runs.len(), 1);
            let run = &batch.runs[0];
            prop_assert_eq!(&run.top_k, &standalone.top_k);
            let b = nds_details(run.details.clone());
            let s = nds_details(standalone.details);
            prop_assert_eq!(b.transactions, s.transactions);
            prop_assert_eq!(b.empty_worlds, s.empty_worlds);
        }
    }
}

/// Recorded baseline: bit-exact outputs of the Fig. 1 graph at a pinned
/// `(seed, theta)`, captured from the implementation while the legacy entry
/// points still existed (they were bit-identical to the builder, witnessed
/// by the pre-deletion version of this suite). Any drift in sampling order,
/// candidate aggregation, or tie-breaking shows up here as a bit mismatch.
#[test]
fn recorded_baseline_mpds_fig1() {
    let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let run = Query::mpds(DensityNotion::Edge)
        .theta(400)
        .k(4)
        .seed(1234)
        .run(&g)
        .unwrap();
    let recorded: Vec<(NodeSet, u64)> = vec![
        (vec![1, 3], 0x3fdc000000000000),
        (vec![0, 1, 2, 3], 0x3fd0f5c28f5c28f6),
        (vec![0, 2], 0x3fceb851eb851eb8),
        (vec![0, 1, 3], 0x3fc47ae147ae147b),
    ];
    let got: Vec<(NodeSet, u64)> = run
        .top_k
        .iter()
        .map(|(set, tau)| (set.clone(), tau.to_bits()))
        .collect();
    assert_eq!(got, recorded);
    assert_eq!(run.stats.empty_worlds, 54);
}

/// Recorded baseline for the NDS path (same graph, seed, and θ — the world
/// stream is estimator-independent, so `empty_worlds` matches the MPDS run).
#[test]
fn recorded_baseline_nds_fig1() {
    let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let run = Query::nds(DensityNotion::Edge)
        .theta(400)
        .k(4)
        .min_size(2)
        .seed(1234)
        .run(&g)
        .unwrap();
    let recorded: Vec<(NodeSet, u64)> = vec![
        (vec![1, 3], 0x3fe651eb851eb852),
        (vec![0, 1], 0x3fe08f5c28f5c28f),
        (vec![0, 1, 3], 0x3fdb333333333333),
        (vec![0, 2], 0x3fd7ae147ae147ae),
    ];
    let got: Vec<(NodeSet, u64)> = run
        .top_k
        .iter()
        .map(|(set, gamma)| (set.clone(), gamma.to_bits()))
        .collect();
    assert_eq!(got, recorded);
    assert_eq!(run.stats.empty_worlds, 54);
}

/// Recorded baseline for the §VI-D one-densest-per-world ablation (same
/// graph, seed, and θ as above), captured before the enumerator streamed
/// packed masks: the random pick indexes the enumeration order, so any
/// change to that order shows up here.
#[test]
fn recorded_baseline_mpds_fig1_one_densest_ablation() {
    let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let run = Query::mpds(DensityNotion::Edge)
        .theta(400)
        .k(4)
        .seed(1234)
        .all_densest(false)
        .run(&g)
        .unwrap();
    let recorded: Vec<(NodeSet, u64)> = vec![
        (vec![1, 3], 0x3fd4cccccccccccd),
        (vec![0, 1, 3], 0x3fc47ae147ae147b),
        (vec![0, 1, 2, 3], 0x3fc3851eb851eb85),
        (vec![0, 2], 0x3fc147ae147ae148),
    ];
    let got: Vec<(NodeSet, u64)> = run
        .top_k
        .iter()
        .map(|(set, tau)| (set.clone(), tau.to_bits()))
        .collect();
    assert_eq!(got, recorded);
    assert_eq!(run.stats.empty_worlds, 54);
    let counts = mpds_details(run.details).densest_counts;
    assert_eq!((counts.len(), counts.iter().sum::<usize>()), (400, 478));
}

/// `g` with `pad` isolated nodes added, after its own nodes or, when
/// `shift`, before them (every id moves up by `pad`). Edge order, and so
/// every sampled world, is unchanged.
fn padded(g: &UncertainGraph, pad: u32, shift: bool) -> UncertainGraph {
    let offset = if shift { pad } else { 0 };
    let edges: Vec<(NodeId, NodeId, f64)> = g
        .graph()
        .edges()
        .iter()
        .zip(g.probs())
        .map(|(&(u, v), &p)| (u + offset, v + offset, p))
        .collect();
    UncertainGraph::from_weighted_edges(g.num_nodes() + pad as usize, &edges)
}

/// A run's top-k (bit-exact scores), candidate table, per-world densest
/// counts, and truncation, with node ids moved down by `offset`.
type Observed = (
    Vec<(NodeSet, u64)>,
    HashMap<NodeSet, u32>,
    Vec<usize>,
    bool,
    usize,
);

fn observe(run: Run, offset: u32) -> Observed {
    let down = |set: &NodeSet| -> NodeSet { set.iter().map(|&v| v - offset).collect() };
    let top = run
        .top_k
        .iter()
        .map(|(set, tau)| (down(set), tau.to_bits()))
        .collect();
    let truncated_worlds = run.stats.truncated_worlds;
    let r = mpds_details(run.details);
    let table = r
        .candidates
        .iter()
        .map(|(set, c)| (down(&set), c))
        .collect();
    (top, table, r.densest_counts, r.truncated, truncated_worlds)
}

/// The packed-mask key path (≤ 64 nodes) and the sorted-set key path
/// (> 64 nodes) agree: padding a graph past 64 nodes with isolated nodes
/// changes no world, so it must change no answer — exact and heuristic,
/// all-densest and the one-densest ablation, with 0 and 2 helper threads
/// (which change no answer either). The
/// 5-edge perfect matching under `enumeration_cap(5)` truncates every
/// world with 3 or more edges, pinning that the cap keeps the same prefix
/// of each family under both key forms.
#[test]
fn packed_and_sorted_set_keys_agree_past_64_nodes() {
    let matching = UncertainGraph::from_weighted_edges(
        10,
        &[
            (0, 1, 0.9),
            (2, 3, 0.9),
            (4, 5, 0.9),
            (6, 7, 0.9),
            (8, 9, 0.9),
        ],
    );
    let fig1 = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let karate = ugraph::datasets::karate_club().graph;
    let cases: [(&str, &UncertainGraph, usize, usize); 3] = [
        ("matching", &matching, 5, 200),
        ("fig1", &fig1, 100_000, 200),
        ("karate", &karate, 100_000, 24),
    ];
    let mut truncating_worlds = 0;
    for (name, g, cap, theta) in cases {
        for heuristic in [false, true] {
            for all in [true, false] {
                let mut alone = None;
                for helpers in [0, 2] {
                    let query = || {
                        Query::mpds(DensityNotion::Edge)
                            .theta(theta)
                            .k(6)
                            .seed(29)
                            .heuristic(heuristic)
                            .all_densest(all)
                            .enumeration_cap(cap)
                            .control(RunControl::unbounded().with_helpers(helpers))
                    };
                    let label = format!("{name} heuristic={heuristic} all={all} helpers={helpers}");
                    let plain = observe(query().run(g).unwrap(), 0);
                    assert_eq!(
                        &plain,
                        alone.get_or_insert_with(|| plain.clone()),
                        "{label}"
                    );
                    truncating_worlds += plain.4;
                    for shift in [false, true] {
                        let big = padded(g, 64, shift);
                        assert!(big.num_nodes() > 64);
                        let run = query().run(&big).unwrap();
                        let offset = if shift { 64 } else { 0 };
                        assert_eq!(observe(run, offset), plain, "{label} shift={shift}");
                    }
                }
            }
        }
    }
    assert!(truncating_worlds > 0, "some case must truncate");
}
