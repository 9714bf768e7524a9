//! Exact densest-subgraph solving for all density notions (paper Algorithms
//! 2 and 4, plus Goldberg/Chang–Qiao for edge density).
//!
//! Pipeline (identical for every notion, following the paper):
//!
//! 1. enumerate instances (edges / `h`-cliques \[56\] / ψ-instances \[58\]);
//! 2. peel to get the lower bound ρ̃ (paper Line 1);
//! 3. shrink to the `(⌈ρ̃⌉, ·)`-core (paper Line 2; Lemma 2);
//! 4. find the exact maximum density ρ\* by Dinkelbach iteration on the
//!    parameterized flow network: test `α`, and while some subgraph beats
//!    `α`, jump to the exact density of the min-cut witness. The paper uses
//!    the convex-programming solver of \[57\] here; Dinkelbach over the same
//!    flow network is also exact and reuses the network needed in step 5
//!    (the Frank–Wolfe solver of \[57\] is available in [`crate::fw`] and
//!    compared in the ablation benches);
//! 5. with the max flow at `α = ρ*` in hand, enumerate all densest subgraphs
//!    from the residual SCCs (paper Algorithm 3, [`crate::enumerate`]).
//!
//! Densities are exact rationals; all capacities are scaled by the density
//! denominator so the flow solver only ever sees integers.
//!
//! Steps 3–5 run in a per-thread workspace: the core's ids and
//! instances, the flow network (cleared and refilled for every Dinkelbach
//! step), and the enumeration's residual graph, condensation and bitset rows
//! are all reused from one call to the next, so solving a stream of sampled
//! worlds allocates only while those buffers are still growing. A thread
//! keeps the buffers of the largest world it has solved.

use crate::density::Density;
use crate::enumerate::{self, for_each_min_cut_subgraph};
use crate::instances::{enumerate_cliques, enumerate_pattern, InstanceSet};
use crate::notion::DensityNotion;
use crate::peeling::peel;
use crate::workspace;
use maxflow::{FlowNetwork, INF};
use std::cell::RefCell;
use ugraph::bitset::ones_in;
use ugraph::{Graph, NodeId};

/// Exact solution: the maximum density and every node set attaining it.
#[derive(Debug, Clone)]
pub struct AllDensest {
    /// The exact maximum density ρ\*.
    pub density: Density,
    /// All densest node sets (sorted ids), in the enumeration order of
    /// [`for_each_densest`], possibly truncated to the enumeration cap.
    pub subgraphs: Vec<Vec<NodeId>>,
    /// The maximum-sized densest subgraph (union of all densest subgraphs).
    pub max_sized: Vec<NodeId>,
    /// True if `subgraphs` was truncated.
    pub truncated: bool,
}

/// One world's densest family as streamed by [`for_each_densest`]: the
/// exact maximum density plus what the enumeration reported.
#[derive(Debug, Clone)]
pub struct DensestFamily {
    /// The exact maximum density ρ\*.
    pub density: Density,
    /// Densest node sets handed to the sink (at most the cap).
    pub count: usize,
    /// The maximum-sized densest subgraph (union of all densest subgraphs,
    /// sorted). Never truncated.
    pub max_sized: Vec<NodeId>,
    /// True if the enumeration stopped at the cap.
    pub truncated: bool,
}

/// Computes **all** densest subgraphs of `g` under `notion`.
///
/// Returns `None` when `g` contains no instance of the notion at all (e.g. an
/// edgeless possible world): such worlds have maximum density 0 and, by the
/// paper's accounting (Table I), contribute no densest subgraph.
///
/// A collector over [`for_each_densest`]: same sets, same order, decoded
/// into sorted id vectors.
pub fn all_densest(g: &Graph, notion: &DensityNotion, cap: usize) -> Option<AllDensest> {
    let mut subgraphs = Vec::new();
    let family = for_each_densest(g, notion, cap, &mut |mask| {
        subgraphs.push(ones_in(mask).map(|v| v as NodeId).collect());
    })?;
    Some(AllDensest {
        density: family.density,
        subgraphs,
        max_sized: family.max_sized,
        truncated: family.truncated,
    })
}

/// Streams every densest subgraph of `g` under `notion` (at most `cap` of
/// them) into `sink` as a packed node mask, allocating nothing per set.
/// Masks index original node ids and are one word wide whenever
/// `g.num_nodes() <= 64`; see [`crate::enumerate::for_each_min_cut_subgraph`]
/// for the mask layout and the emission-order contract.
///
/// Returns `None` (and never calls `sink`) when `g` has no instance of the
/// notion, exactly like [`all_densest`].
pub fn for_each_densest(
    g: &Graph,
    notion: &DensityNotion,
    cap: usize,
    sink: &mut dyn FnMut(&[u64]),
) -> Option<DensestFamily> {
    workspace::with(&WORKSPACE, |ws| {
        let solved = solve(g, notion, true, ws)?;
        let e = for_each_min_cut_subgraph(
            &ws.net,
            solved.s,
            solved.t,
            ws.core_nodes.len(),
            &ws.core_nodes,
            cap,
            sink,
            &mut ws.enumeration,
        );
        Some(DensestFamily {
            density: solved.density,
            count: e.count,
            max_sized: e.max_sized,
            truncated: e.truncated,
        })
    })
}

/// The exact maximum density ρ\* of any subgraph of `g`, or `None` if `g`
/// has no instances.
pub fn max_density(g: &Graph, notion: &DensityNotion) -> Option<Density> {
    workspace::with(&WORKSPACE, |ws| {
        solve(g, notion, true, ws).map(|r| r.density)
    })
}

/// The maximum-sized densest subgraph (and ρ\*), skipping the full
/// enumeration — this is what the NDS estimator calls per sampled world
/// (paper Algorithm 5 Line 4).
pub fn max_sized_densest(g: &Graph, notion: &DensityNotion) -> Option<(Density, Vec<NodeId>)> {
    workspace::with(&WORKSPACE, |ws| {
        let solved = solve(g, notion, true, ws)?;
        let reach_t = ws.net.can_reach(solved.t);
        let max_sized: Vec<NodeId> = ws
            .core_nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| !reach_t[i])
            .map(|(_, &v)| v)
            .collect();
        Some((solved.density, max_sized))
    })
}

/// Like [`max_density`] but *without* the `(⌈ρ̃⌉, ·)`-core reduction —
/// the flow networks span the whole graph. Exists only so the ablation bench
/// can quantify how much the paper's core pruning (Line 2) buys.
pub fn max_density_unpruned(g: &Graph, notion: &DensityNotion) -> Option<Density> {
    workspace::with(&WORKSPACE, |ws| {
        solve(g, notion, false, ws).map(|r| r.density)
    })
}

/// `Clique(2)` and clique-shaped patterns are routed to the cheaper
/// specialized networks.
fn normalize(notion: &DensityNotion) -> DensityNotion {
    match notion {
        DensityNotion::Clique(2) => DensityNotion::Edge,
        DensityNotion::Pattern(p) if p.is_clique() && p.num_nodes() == 2 => DensityNotion::Edge,
        DensityNotion::Pattern(p) if p.is_clique() => DensityNotion::Clique(p.num_nodes()),
        other => other.clone(),
    }
}

/// Enumerates the instances of `notion` in `g`.
pub fn instances_of(g: &Graph, notion: &DensityNotion) -> InstanceSet {
    match normalize(notion) {
        DensityNotion::Edge => enumerate_cliques(g, 2),
        DensityNotion::Clique(h) => enumerate_cliques(g, h),
        DensityNotion::Pattern(p) => enumerate_pattern(g, &p),
    }
}

/// The exact solver's reusable buffers; see the module docs.
#[derive(Default)]
struct Workspace {
    /// Original ids of the reduced core's nodes (ascending): the network's
    /// V nodes.
    core_nodes: Vec<NodeId>,
    /// Core-local id of every graph node, `u32::MAX` outside the core.
    local_of: Vec<u32>,
    /// The core's instances in core-local ids, flat: instance `i` is
    /// `local_insts[i * arity..(i + 1) * arity]`.
    local_insts: Vec<u32>,
    /// Instance degree of every core node: the s → v capacities.
    deg: Vec<u64>,
    /// The current Dinkelbach step's network; after [`solve`] it holds a
    /// maximum flow at α = ρ\*.
    net: FlowNetwork,
    /// The (h−1)-node facets of the core's h-cliques, flat, `h` per clique
    /// in member order: the keys of the clique network's Λ nodes.
    facets: Vec<u32>,
    /// The Λ (clique facets) or Λ′ (pattern node sets) grouping of the
    /// current network.
    groups: Groups,
    enumeration: enumerate::Scratch,
}

/// Equal keys of a flat key array grouped and numbered by first
/// appearance, in reused buffers: the Λ and Λ′ nodes of the clique and
/// pattern networks, found by sorting key indices rather than hashing
/// keys, so the network's arc order is the same in every process.
#[derive(Default)]
struct Groups {
    /// Key indices ordered by (key, index).
    order: Vec<u32>,
    /// The group id of every key.
    id: Vec<u32>,
    /// The first key index of every group, in id order.
    first: Vec<u32>,
    /// How many keys every group holds.
    size: Vec<u64>,
}

impl Groups {
    /// Groups the `n` keys of `keys`, `width` ids each: key `i` is
    /// `keys[i * width..(i + 1) * width]`.
    fn group(&mut self, keys: &[u32], n: usize, width: usize) {
        let key = |i: u32| &keys[i as usize * width..][..width];
        let Groups {
            order,
            id,
            first,
            size,
        } = self;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        // Mark every key with the first index of its group...
        id.clear();
        id.resize(n, 0);
        let mut lead = 0;
        for (pos, &i) in order.iter().enumerate() {
            if pos == 0 || key(order[pos - 1]) != key(i) {
                lead = i;
            }
            id[i as usize] = lead;
        }
        // ...then number the groups as their first keys appear.
        first.clear();
        size.clear();
        for i in 0..n {
            let lead = id[i] as usize;
            if lead == i {
                id[i] = first.len() as u32;
                first.push(i as u32);
                size.push(1);
            } else {
                id[i] = id[lead];
                size[id[i] as usize] += 1;
            }
        }
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Where [`solve`] left its answer: `Workspace::net` holds a maximum flow
/// at `α = ρ*` between `s` and `t`, over the reduced core whose original ids
/// are `Workspace::core_nodes` — what every extraction (density, max-sized
/// set, enumeration) reads its answer from.
struct Solved {
    density: Density,
    s: usize,
    t: usize,
}

fn solve(g: &Graph, notion: &DensityNotion, prune: bool, ws: &mut Workspace) -> Option<Solved> {
    let notion = normalize(notion);
    let instances = instances_of(g, &notion);
    if instances.count() == 0 {
        return None;
    }
    let n = g.num_nodes();
    let peeling = peel(n, &instances);
    debug_assert!(peeling.best_density > Density::ZERO);

    // (⌈ρ̃⌉, ·)-core reduction (paper Line 2). The densest subgraph survives
    // (Lemma 2), and so do all its instances. With pruning disabled (ablation
    // only) every node that touches an instance is kept.
    let k = if prune {
        peeling.best_density.ceil()
    } else {
        1
    };
    let Workspace {
        core_nodes,
        local_of,
        local_insts,
        deg,
        net,
        facets,
        groups,
        ..
    } = ws;
    core_nodes.clear();
    core_nodes.extend((0..n as NodeId).filter(|&v| peeling.core_number[v as usize] >= k));
    debug_assert!(!core_nodes.is_empty());
    local_of.clear();
    local_of.resize(n, u32::MAX);
    for (i, &v) in core_nodes.iter().enumerate() {
        local_of[v as usize] = i as u32;
    }
    let arity = notion.arity();
    debug_assert_eq!(instances.arity(), arity);
    local_insts.clear();
    for inst in instances.iter() {
        if inst.iter().all(|&v| local_of[v as usize] != u32::MAX) {
            local_insts.extend(inst.iter().map(|&v| local_of[v as usize]));
        }
    }
    debug_assert!(!local_insts.is_empty());

    let nc = core_nodes.len();
    let mu = (local_insts.len() / arity) as u64;
    deg.clear();
    deg.resize(nc, 0);
    for &v in local_insts.iter() {
        deg[v as usize] += 1;
    }

    // Dinkelbach iteration: α is always an achieved subgraph density; when
    // the test at α finds nothing denser, α = ρ*.
    let mut alpha = peeling.best_density;
    loop {
        let (s, t) = build_network(&notion, nc, local_insts, deg, alpha, net, facets, groups);
        let flow = net.max_flow(s, t);
        let trivial = (arity as u64)
            .checked_mul(mu)
            .and_then(|x| x.checked_mul(alpha.den))
            .expect("trivial cut fits in u64");
        debug_assert!(flow <= trivial, "min cut cannot exceed the trivial cut");
        if flow == trivial {
            // α = ρ*: the caller extracts its answer from this network's
            // residual structure.
            return Some(Solved {
                density: alpha,
                s,
                t,
            });
        }
        // A denser subgraph exists: the min-cut source side is a witness.
        let witness = &net.reachable_from(s)[..nc];
        let size = witness.iter().filter(|&&w| w).count() as u64;
        debug_assert!(size > 0);
        let cnt = local_insts
            .chunks_exact(arity)
            .filter(|inst| inst.iter().all(|&v| witness[v as usize]))
            .count() as u64;
        let d = Density::new(cnt, size);
        debug_assert!(d > alpha, "Dinkelbach must strictly improve");
        alpha = d;
    }
}

/// Builds the parameterized flow network for `α = a/b`, capacity-scaled by
/// `b` (paper Example 4 network for edges, Algorithm 6 for cliques,
/// Algorithm 7 for patterns), over `nc` core nodes, the flat core-local
/// instances `local_insts` (`notion.arity()` ids each) and their instance
/// degrees `deg`, into `net` (cleared first), grouping Λ or Λ′ in `facets`
/// and `groups`. Returns the source and sink.
fn build_network(
    notion: &DensityNotion,
    nc: usize,
    local_insts: &[u32],
    deg: &[u64],
    alpha: Density,
    net: &mut FlowNetwork,
    facets: &mut Vec<u32>,
    groups: &mut Groups,
) -> (usize, usize) {
    let (a, b) = (alpha.num, alpha.den);
    let arity = notion.arity();
    let insts = local_insts.chunks_exact(arity);
    match notion {
        DensityNotion::Edge => {
            // Nodes: 0..nc = V, nc = s, nc+1 = t.
            let s = nc;
            let t = nc + 1;
            net.clear(nc + 2);
            for v in 0..nc {
                net.add_edge(s, v, b * deg[v], 0);
                net.add_edge(v, t, 2 * a, 0);
            }
            for inst in insts {
                // One arc pair models the undirected edge: cap b both ways.
                net.add_edge(inst[0] as usize, inst[1] as usize, b, b);
            }
            (s, t)
        }
        DensityNotion::Clique(h) => {
            let h = *h;
            // Λ: distinct (h−1)-cliques contained in h-cliques (paper Line 3
            // of Algorithm 2), found as the h facets of each h-clique and
            // numbered as they first appear. Facet `c * h + i` is clique
            // `c` without its member `i`.
            facets.clear();
            for inst in insts.clone() {
                for i in 0..h {
                    facets.extend_from_slice(&inst[..i]);
                    facets.extend_from_slice(&inst[i + 1..]);
                }
            }
            groups.group(facets, local_insts.len(), h - 1);
            let num_lambda = groups.first.len();
            // Nodes: 0..nc = V, nc..nc+|Λ| = Λ, then s, t.
            let s = nc + num_lambda;
            let t = s + 1;
            net.clear(nc + num_lambda + 2);
            for v in 0..nc {
                net.add_edge(s, v, b * deg[v], 0);
                net.add_edge(v, t, (h as u64) * a, 0);
            }
            // λ → each member with infinite capacity (Algorithm 6 Line 8).
            for (id, &f) in groups.first.iter().enumerate() {
                let f = f as usize;
                for &v in &facets[f * (h - 1)..(f + 1) * (h - 1)] {
                    net.add_edge(nc + id, v as usize, INF, 0);
                }
            }
            // v → λ with capacity 1 (scaled: b) per completed h-clique.
            for (&v, &id) in local_insts.iter().zip(&groups.id) {
                net.add_edge(v as usize, nc + id as usize, b, 0);
            }
            (s, t)
        }
        DensityNotion::Pattern(p) => {
            let kp = p.num_nodes() as u64;
            // Λ′: groups of instances sharing a node set (Algorithm 7 Line
            // 5), numbered as they first appear.
            groups.group(local_insts, local_insts.len() / arity, arity);
            let num_groups = groups.first.len();
            let s = nc + num_groups;
            let t = s + 1;
            net.clear(nc + num_groups + 2);
            for v in 0..nc {
                net.add_edge(s, v, b * deg[v], 0);
                net.add_edge(v, t, kp * a, 0);
            }
            for (gi, (&f, &cnt)) in groups.first.iter().zip(&groups.size).enumerate() {
                let f = f as usize;
                for &v in &local_insts[f * arity..(f + 1) * arity] {
                    // λ′ → v: |g|(|V_ψ|−1); v → λ′: |g| (scaled by b).
                    net.add_edge(nc + gi, v as usize, b * cnt * (kp - 1), 0);
                    net.add_edge(v as usize, nc + gi, b * cnt, 0);
                }
            }
            (s, t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::Pattern;

    fn k4_tail() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn edge_densest_k4_tail() {
        let r = all_densest(&k4_tail(), &DensityNotion::Edge, 100).unwrap();
        assert_eq!(r.density, Density::new(6, 4));
        assert_eq!(r.subgraphs, vec![vec![0, 1, 2, 3]]);
        assert_eq!(r.max_sized, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edgeless_world_has_no_densest_subgraph() {
        let g = Graph::new(5);
        assert!(all_densest(&g, &DensityNotion::Edge, 10).is_none());
        assert!(max_density(&g, &DensityNotion::Clique(3)).is_none());
    }

    #[test]
    fn single_edge_world() {
        let g = Graph::from_edges(4, &[(1, 3)]);
        let r = all_densest(&g, &DensityNotion::Edge, 10).unwrap();
        assert_eq!(r.density, Density::new(1, 2));
        assert_eq!(r.subgraphs, vec![vec![1, 3]]);
    }

    #[test]
    fn two_disjoint_edges_are_both_densest() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = all_densest(&g, &DensityNotion::Edge, 10).unwrap();
        assert_eq!(r.density, Density::new(1, 2));
        let mut subs = r.subgraphs.clone();
        subs.sort();
        // {0,1}, {2,3}, and their union {0,1,2,3} (density 2/4 = 1/2) are all
        // densest.
        assert_eq!(subs, vec![vec![0, 1], vec![0, 1, 2, 3], vec![2, 3]]);
        assert_eq!(r.max_sized, vec![0, 1, 2, 3]);
    }

    #[test]
    fn triangle_densest_clique3() {
        // Two triangles sharing no node, plus a bridge.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (3, 4),
                (3, 5),
                (4, 5),
                (2, 3),
                (5, 6),
            ],
        );
        let r = all_densest(&g, &DensityNotion::Clique(3), 100).unwrap();
        assert_eq!(r.density, Density::new(1, 3));
        let mut subs = r.subgraphs.clone();
        subs.sort();
        assert_eq!(
            subs,
            vec![vec![0, 1, 2], vec![0, 1, 2, 3, 4, 5], vec![3, 4, 5]]
        );
        assert_eq!(r.max_sized, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn clique2_matches_edge() {
        let g = k4_tail();
        let a = all_densest(&g, &DensityNotion::Edge, 100).unwrap();
        let b = all_densest(&g, &DensityNotion::Clique(2), 100).unwrap();
        assert_eq!(a.density, b.density);
        assert_eq!(a.subgraphs, b.subgraphs);
    }

    #[test]
    fn diamond_densest_on_k4() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let r = all_densest(&g, &DensityNotion::Pattern(Pattern::diamond()), 100).unwrap();
        // 6 diamonds on 4 nodes.
        assert_eq!(r.density, Density::new(6, 4));
        assert_eq!(r.subgraphs, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn max_sized_matches_union_of_all() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let (d, ms) = max_sized_densest(&g, &DensityNotion::Edge).unwrap();
        assert_eq!(d, Density::new(1, 2));
        assert_eq!(ms, vec![0, 1, 2, 3]);
    }

    /// Brute-force reference: all densest subgraphs by sweeping every
    /// non-empty node subset.
    fn brute_force(g: &Graph, notion: &DensityNotion) -> Option<(Density, Vec<Vec<NodeId>>)> {
        let inst = instances_of(g, notion);
        if inst.count() == 0 {
            return None;
        }
        let n = g.num_nodes();
        assert!(n <= 16);
        // Each instance as a node mask: it lies inside `mask` iff it has
        // no node outside it.
        let inst_masks: Vec<u32> = inst
            .iter()
            .map(|i| i.iter().fold(0, |m, &v| m | 1 << v))
            .collect();
        let mut best = Density::ZERO;
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        for mask in 1u32..(1 << n) {
            let cnt = inst_masks.iter().filter(|&&m| m & !mask == 0).count() as u64;
            if cnt == 0 {
                continue;
            }
            let d = Density::new(cnt, u64::from(mask.count_ones()));
            if d < best {
                continue;
            }
            let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| mask >> v & 1 == 1).collect();
            if d > best {
                best = d;
                sets.clear();
                sets.push(nodes);
            } else if d == best {
                sets.push(nodes);
            }
        }
        sets.sort();
        Some((best, sets))
    }

    fn pseudo_random_graph(n: usize, edge_pct: u64, seed: &mut u64) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                *seed ^= *seed << 13;
                *seed ^= *seed >> 7;
                *seed ^= *seed << 17;
                if *seed % 100 < edge_pct {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn cross_validate_edge_density_against_brute_force() {
        let mut seed = 0xabcd_ef12u64;
        for trial in 0..30 {
            let g = pseudo_random_graph(7, 45, &mut seed);
            let ours = all_densest(&g, &DensityNotion::Edge, 10_000);
            let truth = brute_force(&g, &DensityNotion::Edge);
            match (ours, truth) {
                (None, None) => {}
                (Some(r), Some((d, sets))) => {
                    assert_eq!(r.density, d, "trial {trial}");
                    let mut subs = r.subgraphs.clone();
                    subs.sort();
                    assert_eq!(subs, sets, "trial {trial}");
                    assert!(!r.truncated);
                    // max_sized = union of all densest subgraphs.
                    let mut union: Vec<NodeId> = sets.iter().flatten().copied().collect();
                    union.sort_unstable();
                    union.dedup();
                    assert_eq!(r.max_sized, union, "trial {trial}");
                }
                (a, b) => panic!("trial {trial}: ours = {a:?}, truth = {b:?}"),
            }
        }
    }

    #[test]
    fn cross_validate_clique3_against_brute_force() {
        let mut seed = 0x1357_9bdfu64;
        for trial in 0..30 {
            let g = pseudo_random_graph(7, 55, &mut seed);
            let ours = all_densest(&g, &DensityNotion::Clique(3), 10_000);
            let truth = brute_force(&g, &DensityNotion::Clique(3));
            match (ours, truth) {
                (None, None) => {}
                (Some(r), Some((d, sets))) => {
                    assert_eq!(r.density, d, "trial {trial}");
                    let mut subs = r.subgraphs.clone();
                    subs.sort();
                    assert_eq!(subs, sets, "trial {trial}");
                }
                (a, b) => panic!("trial {trial}: ours = {a:?}, truth = {b:?}"),
            }
        }
    }

    #[test]
    fn cross_validate_clique4_against_brute_force() {
        let mut seed = 0x0f0f_0f0fu64;
        for trial in 0..20 {
            let g = pseudo_random_graph(7, 65, &mut seed);
            let ours = all_densest(&g, &DensityNotion::Clique(4), 10_000);
            let truth = brute_force(&g, &DensityNotion::Clique(4));
            match (ours, truth) {
                (None, None) => {}
                (Some(r), Some((d, sets))) => {
                    assert_eq!(r.density, d, "trial {trial}");
                    let mut subs = r.subgraphs.clone();
                    subs.sort();
                    assert_eq!(subs, sets, "trial {trial}");
                }
                (a, b) => panic!("trial {trial}: ours = {a:?}, truth = {b:?}"),
            }
        }
    }

    #[test]
    fn cross_validate_patterns_against_brute_force() {
        for (pi, pattern) in [
            Pattern::two_star(),
            Pattern::three_star(),
            Pattern::c3_star(),
            Pattern::diamond(),
        ]
        .iter()
        .enumerate()
        {
            let mut seed = 0x2468_ace0u64 + pi as u64;
            for trial in 0..15 {
                let g = pseudo_random_graph(6, 50, &mut seed);
                let notion = DensityNotion::Pattern(pattern.clone());
                let ours = all_densest(&g, &notion, 10_000);
                let truth = brute_force(&g, &notion);
                match (ours, truth) {
                    (None, None) => {}
                    (Some(r), Some((d, sets))) => {
                        assert_eq!(r.density, d, "{} trial {trial}", pattern.name());
                        let mut subs = r.subgraphs.clone();
                        subs.sort();
                        assert_eq!(subs, sets, "{} trial {trial}", pattern.name());
                    }
                    (a, b) => panic!(
                        "{} trial {trial}: ours = {a:?}, truth = {b:?}",
                        pattern.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn multi_word_component_rows_match_brute_force() {
        // 16 nodes under the three-star pattern: the flow network's group
        // nodes split the residual graph into more than 64 components, so
        // the enumerator's component rows span two words, and the family
        // is small enough to check against every node subset.
        let mut edges: Vec<(NodeId, NodeId)> = vec![
            (0, 5),
            (0, 6),
            (0, 7),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 7),
            (1, 8),
            (1, 9),
            (1, 10),
            (1, 11),
            (1, 12),
            (1, 14),
            (2, 5),
            (2, 7),
            (2, 8),
            (2, 11),
            (2, 12),
            (2, 13),
            (2, 14),
            (3, 5),
            (3, 6),
            (3, 7),
            (3, 8),
            (3, 9),
            (3, 12),
            (3, 13),
            (4, 8),
            (4, 9),
            (4, 11),
            (4, 12),
            (4, 14),
            (5, 6),
            (5, 13),
            (6, 8),
            (6, 9),
            (6, 10),
            (6, 11),
            (7, 8),
            (7, 9),
            (7, 11),
            (7, 12),
            (7, 14),
            (8, 10),
            (8, 11),
            (8, 14),
            (9, 12),
            (9, 14),
            (10, 11),
            (10, 12),
            (11, 12),
            (12, 14),
            (9, 15),
            (11, 15),
        ];
        edges.push((0, 1));
        let g = Graph::from_edges(16, &edges);
        let notion = DensityNotion::Pattern(Pattern::three_star());

        let mut ws = Workspace::default();
        let solved = solve(&g, &notion, true, &mut ws).unwrap();
        let cond = maxflow::Condensation::new(&ws.net.residual_graph());
        assert!(cond.num_components() > 64, "{}", cond.num_components());

        let r = all_densest(&g, &notion, usize::MAX).unwrap();
        let (d, sets) = brute_force(&g, &notion).unwrap();
        assert_eq!((r.density, solved.density), (d, d));
        assert!(!r.truncated);
        assert!(sets.len() > 1);
        let mut subs = r.subgraphs.clone();
        subs.sort();
        assert_eq!(subs, sets);
    }

    #[test]
    fn streamed_masks_are_one_word_below_64_nodes() {
        let g = Graph::from_edges(64, &[(0, 1), (62, 63)]);
        let mut masks = Vec::new();
        let family = for_each_densest(&g, &DensityNotion::Edge, 10, &mut |m| {
            masks.push(m.to_vec());
        })
        .unwrap();
        assert_eq!(family.count, 3);
        assert_eq!(family.max_sized, vec![0, 1, 62, 63]);
        masks.sort();
        assert_eq!(
            masks,
            vec![vec![0b11], vec![0b11 << 62], vec![0b11 | 0b11 << 62]]
        );
        assert!(
            for_each_densest(&Graph::new(3), &DensityNotion::Edge, 10, &mut |_| {
                unreachable!("no instance, no set")
            })
            .is_none()
        );
    }

    #[test]
    fn a_sink_may_solve_another_graph() {
        // The nested call finds the thread's workspace busy and solves in a
        // fresh one; neither call disturbs the other.
        let outer = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let inner = k4_tail();
        let mut seen = Vec::new();
        let family = for_each_densest(&outer, &DensityNotion::Edge, 100, &mut |mask| {
            seen.push(mask[0]);
            let r = all_densest(&inner, &DensityNotion::Edge, 100).unwrap();
            assert_eq!(r.subgraphs, vec![vec![0, 1, 2, 3]]);
        })
        .unwrap();
        assert_eq!(family.count, 7);
        assert_eq!(seen.len(), 7);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn enumeration_cap_truncates() {
        // A perfect matching has exponentially many densest subgraphs (any
        // union of its edges): cap must kick in.
        let g = Graph::from_edges(10, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let r = all_densest(&g, &DensityNotion::Edge, 5).unwrap();
        assert_eq!(r.subgraphs.len(), 5);
        assert!(r.truncated);
        assert_eq!(r.max_sized.len(), 10);
    }
}
