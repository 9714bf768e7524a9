//! Simulated uncertain brain networks for the paper's §VI-F case study.
//!
//! The paper builds two group-level uncertain graphs over the 116 AAL regions
//! of interest (ROIs) — one averaging 52 typically-developed (TD) children,
//! one averaging 49 children with autism spectrum disorder (ASD) — and shows
//! that the 3-clique MPDS of the ASD graph lies entirely in the occipital
//! lobe and is more hemispherically symmetric, while the TD MPDS also touches
//! the temporal lobe and cerebellum and is less symmetric.
//!
//! The ABIDE imaging data is not redistributable, so this module *simulates*
//! group-level graphs with exactly the structural properties the case study
//! measures: ASD = local occipital over-connectivity + high L/R symmetry;
//! TD = connectivity spanning occipital, temporal and cerebellar ROIs with
//! mild asymmetry (see [`simulate_group_graph`]). ROI metadata (lobe, hemisphere, mirror
//! pairing) is faithful in spirit to the AAL-116 atlas layout.

use crate::graph::{Graph, NodeId};
use crate::uncertain::UncertainGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Anatomical lobe of an ROI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lobe {
    /// Frontal lobe.
    Frontal,
    /// Temporal lobe.
    Temporal,
    /// Parietal lobe.
    Parietal,
    /// Occipital lobe.
    Occipital,
    /// Limbic system regions.
    Limbic,
    /// Subcortical nuclei.
    Subcortical,
    /// Cerebellar regions (including vermis).
    Cerebellum,
}

/// A brain region of interest.
#[derive(Debug, Clone)]
pub struct Roi {
    /// AAL-style region name, e.g. `CAL.L`.
    pub name: String,
    /// Anatomical lobe the region belongs to.
    pub lobe: Lobe,
    /// `0` = left hemisphere, `1` = right, `2` = vermis (midline).
    pub hemisphere: u8,
    /// Index of the mirror-image ROI in the other hemisphere, if any.
    pub mirror: Option<NodeId>,
}

/// The 116-ROI atlas used by both simulated cohorts.
#[derive(Debug, Clone)]
pub struct Atlas {
    /// Regions of interest, indexed by `NodeId`.
    pub rois: Vec<Roi>,
}

impl Atlas {
    /// Builds the simulated AAL-116-style atlas: 54 left/right pairs across
    /// six cerebral lobes plus the cerebellum, and 8 midline vermis regions.
    pub fn aal116() -> Atlas {
        // (base name, lobe, number of L/R pairs)
        let groups: &[(&str, Lobe, usize)] = &[
            ("PreCG", Lobe::Frontal, 1),
            ("SFG", Lobe::Frontal, 3),
            ("MFG", Lobe::Frontal, 3),
            ("IFG", Lobe::Frontal, 2),
            ("ORB", Lobe::Frontal, 4),
            ("SMA", Lobe::Frontal, 1),
            ("REC", Lobe::Frontal, 1),
            ("INS", Lobe::Limbic, 1),
            ("ACG", Lobe::Limbic, 1),
            ("PCG", Lobe::Limbic, 1),
            ("HIP", Lobe::Limbic, 1),
            ("PHG", Lobe::Limbic, 1),
            ("AMYG", Lobe::Limbic, 1),
            ("CAL", Lobe::Occipital, 1),
            ("CUN", Lobe::Occipital, 1),
            ("LING", Lobe::Occipital, 1),
            ("SOG", Lobe::Occipital, 1),
            ("MOG", Lobe::Occipital, 1),
            ("IOG", Lobe::Occipital, 1),
            ("FFG", Lobe::Temporal, 1),
            ("PoCG", Lobe::Parietal, 1),
            ("SPG", Lobe::Parietal, 1),
            ("IPL", Lobe::Parietal, 1),
            ("SMG", Lobe::Parietal, 1),
            ("ANG", Lobe::Parietal, 1),
            ("PCUN", Lobe::Parietal, 1),
            ("PCL", Lobe::Parietal, 1),
            ("CAU", Lobe::Subcortical, 1),
            ("PUT", Lobe::Subcortical, 1),
            ("PAL", Lobe::Subcortical, 1),
            ("THA", Lobe::Subcortical, 1),
            ("HES", Lobe::Temporal, 1),
            ("STG", Lobe::Temporal, 1),
            ("TPOsup", Lobe::Temporal, 1),
            ("MTG", Lobe::Temporal, 1),
            ("TPOmid", Lobe::Temporal, 1),
            ("ITG", Lobe::Temporal, 1),
            ("CRBLCrus1", Lobe::Cerebellum, 1),
            ("CRBLCrus2", Lobe::Cerebellum, 1),
            ("CRBL3", Lobe::Cerebellum, 1),
            ("CRBL45", Lobe::Cerebellum, 1),
            ("CRBL6", Lobe::Cerebellum, 1),
            ("CRBL7b", Lobe::Cerebellum, 1),
            ("CRBL8", Lobe::Cerebellum, 1),
            ("CRBL9", Lobe::Cerebellum, 1),
            ("CRBL10", Lobe::Cerebellum, 1),
        ];
        let mut rois = Vec::new();
        for &(base, lobe, pairs) in groups {
            for p in 0..pairs {
                let suffix = if pairs > 1 {
                    format!("{}", p + 1)
                } else {
                    String::new()
                };
                let l = rois.len() as NodeId;
                rois.push(Roi {
                    name: format!("{base}{suffix}.L"),
                    lobe,
                    hemisphere: 0,
                    mirror: Some(l + 1),
                });
                rois.push(Roi {
                    name: format!("{base}{suffix}.R"),
                    lobe,
                    hemisphere: 1,
                    mirror: Some(l),
                });
            }
        }
        // Midline vermis regions to reach 116 ROIs.
        for i in 0..(116 - rois.len()) {
            rois.push(Roi {
                name: format!("Vermis{}", i + 1),
                lobe: Lobe::Cerebellum,
                hemisphere: 2,
                mirror: None,
            });
        }
        assert_eq!(rois.len(), 116);
        Atlas { rois }
    }

    /// Index of the ROI with the given name.
    pub fn index_of(&self, name: &str) -> Option<NodeId> {
        self.rois
            .iter()
            .position(|r| r.name == name)
            .map(|i| i as NodeId)
    }

    /// Distinct lobes spanned by a node set (the case study's headline
    /// measurement: the ASD MPDS spans exactly one lobe).
    pub fn lobes_spanned(&self, nodes: &[NodeId]) -> Vec<Lobe> {
        let mut lobes: Vec<Lobe> = nodes.iter().map(|&v| self.rois[v as usize].lobe).collect();
        lobes.sort_by_key(|l| *l as u8);
        lobes.dedup();
        lobes
    }

    /// Hemispheric symmetry of a node set: fraction of its nodes whose mirror
    /// ROI is also in the set. The paper reports the ASD MPDS as "more
    /// symmetrical" (only one unpaired node vs two for TD).
    pub fn symmetry(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 1.0;
        }
        let set: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        let paired = nodes
            .iter()
            .filter(|&&v| {
                self.rois[v as usize]
                    .mirror
                    .is_some_and(|m| set.contains(&m))
            })
            .count();
        paired as f64 / nodes.len() as f64
    }

    /// Number of nodes in the set without their mirror ROI (the paper counts
    /// these directly: 1 for ASD, 3 for TD).
    pub fn unpaired_count(&self, nodes: &[NodeId]) -> usize {
        let set: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        nodes
            .iter()
            .filter(|&&v| {
                !self.rois[v as usize]
                    .mirror
                    .is_some_and(|m| set.contains(&m))
            })
            .count()
    }
}

/// Which simulated cohort to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cohort {
    /// Typically-developed control group.
    TypicallyDeveloped,
    /// Autism-spectrum-disorder group.
    Asd,
}

/// Simulates the group-level uncertain brain graph for a cohort.
///
/// Both cohorts share a weak random background; the ASD graph adds a strong,
/// hemispherically symmetric occipital clique; the TD graph adds a slightly
/// weaker occipital cluster extended by one temporal (FFG.R) and two
/// cerebellar (CRBL6.L, CRBLCrus2-ish) nodes, breaking symmetry.
pub fn simulate_group_graph(atlas: &Atlas, cohort: Cohort, seed: u64) -> UncertainGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ cohort_tag(cohort));
    let n = atlas.rois.len();
    // Later stages overwrite earlier ones: core probabilities take priority
    // over within-lobe noise, which takes priority over background noise.
    let mut map: std::collections::BTreeMap<(NodeId, NodeId), f64> =
        std::collections::BTreeMap::new();
    let push = |map: &mut std::collections::BTreeMap<(NodeId, NodeId), f64>,
                u: NodeId,
                v: NodeId,
                p: f64| {
        if u != v {
            let key = if u < v { (u, v) } else { (v, u) };
            map.insert(key, p.clamp(1e-3, 1.0));
        }
    };

    // Weak background connectivity (co-activation noise).
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            if rng.gen_bool(0.04) {
                push(&mut map, u, v, rng.gen_range(0.02..0.15));
            }
        }
    }

    // Mid-strength within-lobe connectivity for every lobe.
    for lobe_nodes in lobe_partition(atlas) {
        for (i, &u) in lobe_nodes.iter().enumerate() {
            for &v in &lobe_nodes[i + 1..] {
                if rng.gen_bool(0.25) {
                    push(&mut map, u, v, rng.gen_range(0.1..0.35));
                }
            }
        }
    }

    // Shared cross-lobe "default mode"-style hub structure, IDENTICAL in both
    // cohorts (own RNG stream seeded without the cohort tag): 24 frontal /
    // parietal / limbic / subcortical ROIs moderately interconnected
    // (p ≈ 0.45). Degree-wise this dominates both cohort cores — so the
    // innermost (k, η)-core lands here in BOTH cohorts and cannot tell them
    // apart (paper Figs. 12–13) — while staying triangle-poor enough
    // (expected 3-clique density ≈ 7.7 vs ≥ 11 for the cores) that the
    // 3-clique MPDS and EDS are unaffected.
    let mut hub_rng = StdRng::seed_from_u64(seed ^ 0x4855_4253); // "HUBS"
    let hubs: Vec<NodeId> = hub_roi_names()
        .iter()
        .map(|nm| atlas.index_of(nm).expect("hub ROI in atlas"))
        .collect();
    for (i, &u) in hubs.iter().enumerate() {
        for &v in &hubs[i + 1..] {
            push(&mut map, u, v, hub_rng.gen_range(0.40..0.45));
        }
    }

    let occipital: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| atlas.rois[v as usize].lobe == Lobe::Occipital)
        .collect();
    match cohort {
        Cohort::Asd => {
            // Strong symmetric occipital core (local over-connectivity) with
            // exactly one unpaired node: MOG.R participates, MOG.L is left at
            // background strength.
            let mog_l = atlas.index_of("MOG.L").expect("atlas has MOG.L");
            let core: Vec<NodeId> = occipital.iter().copied().filter(|&v| v != mog_l).collect();
            for (i, &u) in core.iter().enumerate() {
                for &v in &core[i + 1..] {
                    push(&mut map, u, v, rng.gen_range(0.85..0.99));
                }
            }
        }
        Cohort::TypicallyDeveloped => {
            // Distributed core: a symmetric occipital subset (CAL/SOG/MOG/IOG
            // pairs) extended by FFG.R (temporal) and CRBL6.L (cerebellum) —
            // two nodes without hemispheric counterparts in the core, plus
            // mildly weaker probabilities than the ASD core (long-range
            // connectivity).
            let mut core: Vec<NodeId> = [
                "CAL.L", "CAL.R", "SOG.L", "SOG.R", "MOG.L", "MOG.R", "IOG.L", "IOG.R",
            ]
            .iter()
            .map(|nm| atlas.index_of(nm).expect("atlas ROI"))
            .collect();
            core.push(atlas.index_of("FFG.R").expect("atlas has FFG.R"));
            core.push(atlas.index_of("CRBL6.L").expect("atlas has CRBL6.L"));
            for (i, &u) in core.iter().enumerate() {
                for &v in &core[i + 1..] {
                    push(&mut map, u, v, rng.gen_range(0.82..0.97));
                }
            }
        }
    }

    let graph_edges: Vec<(NodeId, NodeId)> = map.keys().copied().collect();
    let graph = Graph::from_edges(n, &graph_edges);
    let probs: Vec<f64> = map.values().copied().collect();
    UncertainGraph::new(graph, probs)
}

/// The 24 shared cross-lobe hub ROIs (12 L/R pairs spanning frontal,
/// parietal, limbic, and subcortical lobes — including PCUN.R and MFG1.R,
/// which the paper's EDS/core figures call out).
pub fn hub_roi_names() -> [&'static str; 24] {
    [
        "MFG1.L", "MFG1.R", "SFG1.L", "SFG1.R", "IFG1.L", "IFG1.R", "PCUN.L", "PCUN.R", "SPG.L",
        "SPG.R", "IPL.L", "IPL.R", "SMG.L", "SMG.R", "ACG.L", "ACG.R", "INS.L", "INS.R", "CAU.L",
        "CAU.R", "PUT.L", "PUT.R", "THA.L", "THA.R",
    ]
}

fn cohort_tag(c: Cohort) -> u64 {
    match c {
        Cohort::TypicallyDeveloped => 0x5444, // "TD"
        Cohort::Asd => 0x4153_4400,           // "ASD"
    }
}

fn lobe_partition(atlas: &Atlas) -> Vec<Vec<NodeId>> {
    use std::collections::HashMap;
    let mut map: HashMap<u8, Vec<NodeId>> = HashMap::new();
    for (i, roi) in atlas.rois.iter().enumerate() {
        map.entry(roi.lobe as u8).or_default().push(i as NodeId);
    }
    let mut parts: Vec<_> = map.into_values().collect();
    parts.sort_by_key(|p| p[0]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_has_116_rois_with_mirrors() {
        let atlas = Atlas::aal116();
        assert_eq!(atlas.rois.len(), 116);
        let paired = atlas.rois.iter().filter(|r| r.mirror.is_some()).count();
        assert_eq!(paired, 108); // 54 pairs
        for (i, roi) in atlas.rois.iter().enumerate() {
            if let Some(m) = roi.mirror {
                assert_eq!(atlas.rois[m as usize].mirror, Some(i as NodeId));
                assert_ne!(atlas.rois[m as usize].hemisphere, roi.hemisphere);
                assert_eq!(atlas.rois[m as usize].lobe, roi.lobe);
            }
        }
    }

    #[test]
    fn atlas_contains_case_study_rois() {
        let atlas = Atlas::aal116();
        for name in [
            "MOG.R",
            "CRBL6.L",
            "FFG.R",
            "PCUN.R",
            "PCG.L",
            "CRBLCrus2.L",
        ] {
            assert!(atlas.index_of(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn symmetry_and_lobes() {
        let atlas = Atlas::aal116();
        let l = atlas.index_of("MOG.L").unwrap();
        let r = atlas.index_of("MOG.R").unwrap();
        let f = atlas.index_of("FFG.R").unwrap();
        assert_eq!(atlas.symmetry(&[l, r]), 1.0);
        assert_eq!(atlas.unpaired_count(&[l, r]), 0);
        assert!((atlas.symmetry(&[l, r, f]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(atlas.unpaired_count(&[l, r, f]), 1);
        let lobes = atlas.lobes_spanned(&[l, r, f]);
        assert_eq!(lobes.len(), 2);
    }

    #[test]
    fn asd_graph_has_strong_occipital_core() {
        let atlas = Atlas::aal116();
        let g = simulate_group_graph(&atlas, Cohort::Asd, 7);
        assert_eq!(g.num_nodes(), 116);
        // The occipital core minus MOG.L should be a near-certain clique.
        let mog_l = atlas.index_of("MOG.L").unwrap();
        let core: Vec<NodeId> = (0..116)
            .filter(|&v| atlas.rois[v as usize].lobe == Lobe::Occipital && v != mog_l)
            .collect();
        for (i, &u) in core.iter().enumerate() {
            for &v in &core[i + 1..] {
                let p = g.edge_prob(u, v).unwrap_or(0.0);
                assert!(p >= 0.85, "core edge ({u},{v}) weak: {p}");
            }
        }
    }

    #[test]
    fn td_graph_spans_lobes() {
        let atlas = Atlas::aal116();
        let g = simulate_group_graph(&atlas, Cohort::TypicallyDeveloped, 7);
        let ffg = atlas.index_of("FFG.R").unwrap();
        let crbl = atlas.index_of("CRBL6.L").unwrap();
        let mog = atlas.index_of("MOG.L").unwrap();
        assert!(g.edge_prob(ffg, mog).unwrap_or(0.0) >= 0.78);
        assert!(g.edge_prob(crbl, mog).unwrap_or(0.0) >= 0.78);
    }

    #[test]
    fn hub_structure_is_identical_across_cohorts() {
        let atlas = Atlas::aal116();
        let td = simulate_group_graph(&atlas, Cohort::TypicallyDeveloped, 5);
        let asd = simulate_group_graph(&atlas, Cohort::Asd, 5);
        let hubs: Vec<NodeId> = hub_roi_names()
            .iter()
            .map(|nm| atlas.index_of(nm).unwrap())
            .collect();
        assert_eq!(hubs.len(), 24);
        for (i, &u) in hubs.iter().enumerate() {
            for &v in &hubs[i + 1..] {
                let a = td.edge_prob(u, v).expect("hub edge in TD");
                let b = asd.edge_prob(u, v).expect("hub edge in ASD");
                assert_eq!(a, b, "hub edge ({u},{v}) differs between cohorts");
                assert!((0.40..0.45).contains(&a));
            }
        }
        // The hubs span at least three lobes.
        assert!(atlas.lobes_spanned(&hubs).len() >= 3);
    }

    #[test]
    fn simulation_is_deterministic() {
        let atlas = Atlas::aal116();
        let a = simulate_group_graph(&atlas, Cohort::Asd, 3);
        let b = simulate_group_graph(&atlas, Cohort::Asd, 3);
        assert_eq!(a.graph().edges(), b.graph().edges());
        assert_eq!(a.probs(), b.probs());
    }
}
