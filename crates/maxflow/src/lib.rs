//! Integer max-flow and strongly-connected-component machinery.
//!
//! The MPDS paper's densest-subgraph subroutines are all built on minimum
//! cuts in parameterized flow networks (Goldberg's algorithm and its clique /
//! pattern generalizations) plus the structure of *all* minimum cuts, which is
//! read off the strongly connected components of the residual graph under a
//! maximum flow (Picard–Queyranne; paper Appendix A).
//!
//! * [`FlowNetwork`] — CSR-indexed flow network over `u64` capacities with
//!   Dinic's algorithm. All densest-subgraph constructions scale capacities
//!   by the density denominator so the arithmetic stays exact.
//! * [`scc`] — iterative Tarjan SCC and the condensation DAG, with the
//!   closures of packed per-component bitsets over descendants and over
//!   ancestors that the all-densest-subgraph enumerator builds on.
//! * [`Csr`] — the flat directed adjacency that the residual graph is
//!   handed to the SCC decomposition in.
//!
//! A network and a condensation can both be cleared and refilled for the
//! next graph without giving up their buffers.

pub mod csr;
pub mod dinic;
pub mod scc;

pub use csr::Csr;
pub use dinic::{FlowNetwork, INF};
pub use scc::Condensation;
