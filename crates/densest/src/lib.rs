//! Deterministic densest-subgraph algorithms (paper §III building blocks).
//!
//! For a deterministic graph `G` and a density notion — edge density ρ_e,
//! `h`-clique density ρ_h, or pattern density ρ_ψ — this crate computes:
//!
//! * the exact maximum density ρ\* as a rational number,
//! * **all** densest subgraphs (the node sets attaining ρ\*), via minimum-cut
//!   residual structure (Goldberg \[1\] / Chang–Qiao \[46\] for edges; the
//!   paper's novel Algorithms 2 and 4 for cliques and patterns), either
//!   collected ([`all_densest`]) or streamed as packed node masks without
//!   a per-set allocation ([`for_each_densest`]),
//! * the maximum-sized densest subgraph (union of all densest subgraphs,
//!   needed by the NDS estimator),
//! * the peeling 1/2-approximation (lower bound ρ̃) and `(k, ·)`-core
//!   reductions used to shrink the flow networks,
//! * the heuristic dense-subgraph extraction of the paper's §III-C remark,
//! * a Frank–Wolfe/kclist++-style iterative ρ\* solver \[57\] used as an
//!   ablation alternative to the flow-based oracle.
//!
//! All flow arithmetic is exact: densities are rationals `a/b` and every
//! network is capacity-scaled by `b` before running integer max-flow.
//!
//! # Example
//!
//! ```
//! use densest::{all_densest, Density, DensityNotion};
//! use ugraph::Graph;
//!
//! // A K4 with a pendant path: the K4 is the unique densest subgraph.
//! let g = Graph::from_edges(6, &[
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
//! ]);
//! let r = all_densest(&g, &DensityNotion::Edge, 1000).unwrap();
//! assert_eq!(r.density, Density::new(6, 4)); // ρ* = 3/2, exactly
//! assert_eq!(r.subgraphs, vec![vec![0, 1, 2, 3]]);
//! ```

pub mod cores;
pub mod density;
pub mod enumerate;
pub mod fw;
pub mod heuristic;
pub mod instances;
pub mod notion;
pub mod peeling;
pub mod solve;
mod workspace;

pub use density::Density;
pub use notion::DensityNotion;
pub use solve::{
    all_densest, for_each_densest, max_density, max_sized_densest, AllDensest, DensestFamily,
};
