//! `mpds-service`: a concurrent query-serving subsystem for the MPDS/NDS
//! estimators.
//!
//! The batch pipeline (`mpds-cli mpds …`) pays dataset construction plus a
//! full θ-world estimator run per invocation. This crate turns that into a
//! serving layer exploiting the estimators' central operational property:
//! **results are deterministic given `(dataset, algo, notion, θ, k, l_m,
//! seed, heuristic, stop)`** — so repeats are cacheable forever and
//! identical concurrent queries are coalesceable into one computation.
//!
//! Layers (each usable on its own):
//!
//! * [`registry`] — named datasets (built-ins + weighted-edge-list files)
//!   constructed once, build-coalesced, served as generation-stamped
//!   `Arc` snapshots and mutable through atomic `/update` batches
//!   ([`ugraph::dynamic`]);
//! * [`engine`] — typed [`engine::QueryRequest`]/deterministic JSON
//!   responses, per-request deadlines via [`mpds::control`], a sharded LRU
//!   result [`cache`] keyed on the dataset generation (stale entries age
//!   out, never get served), in-flight request coalescing, batch
//!   evaluation ([`engine::BatchRequest`] → one [`mpds::QuerySet`] world
//!   stream shared across every cache-missing member), and common-random-
//!   number diffs between two datasets ([`engine::QueryEngine::execute_diff`]);
//! * [`http`] — a std-only thread-pool HTTP/1.1 front end with a bounded
//!   admission queue (503 on overload), gated `POST /update`, `POST
//!   /batch` + `GET /diff` endpoints, and cooperative-cancel shutdown;
//! * [`obs`] — the front end's observability surface: per
//!   `(endpoint, cache source, status class)` latency histograms
//!   ([`mpds_obs`] under the hood), the in-flight gauge, and JSONL
//!   access-log records (`serve --access-log`); `/metrics` exposes it all
//!   as Prometheus text exposition, the only `/metrics` body;
//! * durability ([`mpds_store`]) — `serve --data-dir` gives every mutable
//!   dataset a per-dataset write-ahead log (fsync-on-commit by default)
//!   plus snapshot checkpoints (`POST /admin/checkpoint`, `mpds-cli
//!   checkpoint`), and boot replays checkpoint + WAL tail back to the
//!   exact pre-crash generation;
//! * [`client`] — the blocking HTTP/1.1 client that `mpds-cli`'s remote
//!   subcommands and the integration tests speak to a server with;
//! * [`json`] — the byte-stable JSON writer everything serializes through
//!   (fixed field order and float formatting, so identical queries yield
//!   identical bytes).
//!
//! Load generation lives outside this crate: `perfbench/` (described by
//! `BENCHMARK.json`) measures the service end to end against a real
//! `mpds-cli serve` process.

pub mod cache;
pub mod client;
pub mod engine;
pub mod http;
pub mod json;
pub mod obs;
pub mod registry;

pub use engine::{
    Algo, BatchMember, BatchOutcome, BatchRequest, EngineConfig, QueryEngine, QueryError,
    QueryRequest, ResponseSource,
};
pub use http::{Server, ServerConfig};
pub use registry::GraphRegistry;
