//! Integer max-flow and strongly-connected-component machinery.
//!
//! The MPDS paper's densest-subgraph subroutines are all built on minimum
//! cuts in parameterized flow networks (Goldberg's algorithm and its clique /
//! pattern generalizations) plus the structure of *all* minimum cuts, which is
//! read off the strongly connected components of the residual graph under a
//! maximum flow (Picard–Queyranne; paper Appendix A).
//!
//! * [`FlowNetwork`] — adjacency-list flow network over `u64` capacities with
//!   Dinic's algorithm. All densest-subgraph constructions scale capacities
//!   by the density denominator so the arithmetic stays exact.
//! * [`scc`] — iterative Tarjan SCC and the condensation DAG, with the
//!   closure of packed per-component bitsets over descendants that the
//!   all-densest-subgraph enumerator builds on.

pub mod dinic;
pub mod scc;

pub use dinic::{FlowNetwork, INF};
pub use scc::Condensation;
