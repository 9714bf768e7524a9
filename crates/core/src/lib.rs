//! Most Probable Densest Subgraphs (MPDS) — the paper's core contribution.
//!
//! Given an uncertain graph `G = (V, E, p)`, the *densest subgraph
//! probability* `τ(U)` of a node set `U` is the probability that `U` induces
//! a densest subgraph in a possible world of `G` (paper Def. 4); computing it
//! is #P-hard (Theorem 1). This crate implements:
//!
//! * [`api`] — **the crate's front door**: the typed [`api::Query`] builder
//!   that validates once and runs any estimator / sampler / execution-mode
//!   combination through one code path, and [`api::queryset::QuerySet`],
//!   which evaluates many queries over one shared world stream;
//! * [`estimate`] — the sampling estimator for top-k MPDS (paper
//!   Algorithm 1) for edge, clique, and pattern densities, including the
//!   one-densest-subgraph ablation of §VI-D and the heuristic mode of §III-C;
//! * [`nds`] — the top-k Nucleus Densest Subgraph estimator (Algorithm 5)
//!   via reduction to top-k closed frequent itemset mining;
//! * [`exact`] — exact `τ(U)`/`γ(U)` and exact top-k by exhaustive
//!   possible-world enumeration (small graphs; §VI-H);
//! * [`control`] — cooperative deadlines and cancellation flags polled by
//!   the estimator sampling loops (the serving layer's admission hooks);
//! * [`recompute`] — delta-aware re-estimation: one query over two graph
//!   versions under common random numbers, diffed into a structured
//!   [`recompute::TopKDiff`] (the dynamic-graph serving path);
//! * [`theory`] — the end-to-end accuracy guarantees (Theorems 2, 3, 5, 6);
//! * [`baselines`] — the notions MPDS is compared against in §VI: the
//!   expected densest subgraph (EDS \[44\], extended to clique/pattern density
//!   per Appendix C), the probabilistic `(k, η)`-core \[40\], the probabilistic
//!   `(k, γ)`-truss \[41\], and the deterministic densest subgraph (DDS);
//! * [`case_studies`] — the Karate-Club community study (§VI-E) and the
//!   simulated brain-network study (§VI-F).
//!
//! # Example
//!
//! The paper's running example (Fig. 1): the node set `{B, D}` is the most
//! probable densest subgraph with τ ≈ 0.42, even though the whole graph has
//! the highest *expected* density.
//!
//! ```
//! use densest::DensityNotion;
//! use mpds::api::Query;
//! use ugraph::UncertainGraph;
//!
//! // A = 0, B = 1, C = 2, D = 3.
//! let g = UncertainGraph::from_weighted_edges(
//!     4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
//! let run = Query::mpds(DensityNotion::Edge)
//!     .theta(2000)
//!     .k(1)
//!     .seed(42)
//!     .run(&g)
//!     .expect("valid query");
//! assert_eq!(run.top_k[0].0, vec![1, 3]); // {B, D}
//! assert!((run.top_k[0].1 - 0.42).abs() < 0.04);
//! ```

pub mod api;
pub mod baselines;
pub mod case_studies;
pub mod control;
pub mod estimate;
pub mod exact;
pub mod nds;
pub mod recompute;
pub mod theory;

pub use api::queryset::{BatchRun, BatchStats, QuerySet};
pub use api::{ApiError, ProgressSink, Query, Run, SamplerKind, Stop, StopReason};
pub use control::{InterruptReason, Interrupted, RunControl};
pub use estimate::{CandidateTable, MpdsResult};
pub use nds::NdsResult;
pub use recompute::{CommonRandomNumbers, Recompute, RecomputeReport, TopKDiff};
