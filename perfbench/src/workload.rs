//! The named workloads and their seeded inputs.
//!
//! Every request the server sees is generated here from `--seed`: the same
//! seed gives byte-identical query sets and mutation scripts.

use crate::rng::{hash, unit, Rng};
use mpds_service::QueryRequest;
use std::collections::{HashMap, HashSet};
use ugraph::{EdgeMutation, MutationBatch, UncertainGraph};

/// Load-generator threads, each with its own connection, and server worker
/// threads: both equal the core count of the reference machine (2), so the
/// load measures the code rather than the scheduler.
pub const CLIENTS: usize = 2;
pub const SERVER_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fixed set of exact MPDS queries on karate, read round and round
    /// with the result cache off: every read is a MISS.
    ColdExact,
    /// Zipf reads over 64 warmed keys: every read is a HIT.
    HotHit,
    /// `/update` batches on a durable lastfm beside heuristic reads.
    ChurnDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdExact,
        Workload::HotHit,
        Workload::ChurnDurable,
    ];

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (cold-exact|hot-hit|churn-durable)"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExact => "cold-exact",
            Workload::HotHit => "hot-hit",
            Workload::ChurnDurable => "churn-durable",
        }
    }

    /// Datasets the server builds during set-up.
    pub fn datasets(self) -> &'static [&'static str] {
        match self {
            Workload::ColdExact => &["karate"],
            Workload::HotHit => &["karate", "intel-lab"],
            Workload::ChurnDurable => &[CHURN_DATASET],
        }
    }

    /// The dataset write-path layers are timed on: the churned one, or
    /// karate for the read-only workloads.
    pub fn write_dataset(self) -> &'static str {
        match self {
            Workload::ChurnDurable => CHURN_DATASET,
            _ => "karate",
        }
    }

    /// Load-generator threads in the measured phase. cold-exact runs one
    /// query at a time: two at once measured how two heavy queries contend
    /// for memory, which moved `reads_per_s` by twice as much from run to
    /// run.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdExact => 1,
            _ => CLIENTS,
        }
    }

    /// The server's `--cache-capacity` where it is not the default:
    /// cold-exact reads its query set over and over, so the result cache is
    /// off and every read is a MISS.
    pub fn cache_capacity(self) -> Option<usize> {
        (self == Workload::ColdExact).then_some(0)
    }
}

/// `GET /query` target for `req` (MPDS, edge density, fixed θ).
pub fn query_path(req: &QueryRequest) -> String {
    format!(
        "/query?dataset={}&theta={}&k={}&seed={}&heuristic={}",
        req.dataset, req.theta, req.k, req.seed, req.heuristic
    )
}

fn request(dataset: &str, theta: usize, k: usize, seed: u64, heuristic: bool) -> QueryRequest {
    let mut req = QueryRequest::new(dataset);
    req.theta = theta;
    req.k = k;
    req.seed = seed;
    req.heuristic = heuristic;
    req
}

// Stream ids for `rng::hash`, one per generated quantity.
const S_COLD_SEED: u64 = 1;
const S_HOT_K: u64 = 2;
const S_HOT_SEED: u64 = 3;
const S_HOT_READ: u64 = 4;
const S_HOT_PERM: u64 = 5;
const S_CHURN_SEED: u64 = 6;
const S_SCRIPT: u64 = 7;
const S_COLD_START: u64 = 8;

/// Queries in the cold-exact set.
pub const COLD_QUERIES: usize = 24;

/// cold-exact: query `slot` of the set. Query seeds are distinct 64-bit
/// hashes, so no two queries share a cache key.
pub fn cold_query(slot: u64) -> QueryRequest {
    request("karate", 64, 3, hash(0, S_COLD_SEED, slot), false)
}

/// cold-exact: the same `COLD_QUERIES` exact queries for every `--seed`,
/// read round and round in slot order against a server whose result cache
/// is off, so every read is a MISS. The seed picks the slot the run starts
/// at.
///
/// The cost of an exact karate query is heavy-tailed (its worlds hold 1 to
/// 100 000 densest subgraphs). A run of distinct queries read a different
/// set of tail queries each time, and its `read_p90_ms` moved by 15–25%
/// between runs of the same code. Reading one small set about eight times
/// over puts the same queries, each several times, in every run's tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdPlan {
    start: u64,
}

impl ColdPlan {
    pub fn new(seed: u64) -> ColdPlan {
        ColdPlan {
            start: hash(seed, S_COLD_START, 0) % COLD_QUERIES as u64,
        }
    }

    /// The query slot of the `i`-th read.
    pub fn slot(&self, i: u64) -> u64 {
        (self.start + i) % COLD_QUERIES as u64
    }
}

/// hot-hit: 64 heuristic keys over karate and intel-lab with k ∈ {1, 5,
/// 10}, read with Zipf(1) popularity over a seeded ranking of the keys. The
/// heuristic keeps warm-up cost, and with it `setup_s` and the server's
/// peak memory, free of the exact solver's heavy tail, which this workload
/// does not measure.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPlan {
    seed: u64,
    pub keys: Vec<QueryRequest>,
    /// `rank_to_key[r]` is the key at popularity rank `r`.
    rank_to_key: Vec<usize>,
    cdf: Vec<f64>,
}

pub const HOT_KEYS: usize = 64;

impl HotPlan {
    pub fn new(seed: u64) -> HotPlan {
        let keys = (0..HOT_KEYS as u64)
            .map(|j| {
                let dataset = if j % 2 == 0 { "karate" } else { "intel-lab" };
                let k = [1, 5, 10][(hash(seed, S_HOT_K, j) % 3) as usize];
                request(dataset, 64, k, hash(seed, S_HOT_SEED, j), true)
            })
            .collect();
        let mut rank_to_key: Vec<usize> = (0..HOT_KEYS).collect();
        let mut rng = Rng::new(hash(seed, S_HOT_PERM, 0));
        for i in (1..HOT_KEYS).rev() {
            rank_to_key.swap(i, rng.below(i + 1));
        }
        let weights: Vec<f64> = (1..=HOT_KEYS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        HotPlan {
            seed,
            keys,
            rank_to_key,
            cdf,
        }
    }

    /// The key index of the `i`-th read.
    pub fn read(&self, i: u64) -> usize {
        let u = unit(hash(self.seed, S_HOT_READ, i));
        let rank = self.cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
        self.rank_to_key[rank]
    }
}

/// churn-durable parameters.
pub const CHURN_DATASET: &str = "lastfm";
/// Reads of each key per round: one MISS after the round's write, then
/// HITs — the 3:1 mix that puts p50 in the HIT mode and p90 in the MISS
/// mode.
pub const READS_PER_KEY: usize = 4;
/// `POST /admin/checkpoint` after every this many rounds.
pub const CHECKPOINT_EVERY: usize = 16;
/// Edges per `/update` batch: inserts, re-weights and deletes.
const BATCH_INSERTS: usize = 5;
const BATCH_REWEIGHTS: usize = 6;
const BATCH_DELETES: usize = 5;

/// churn-durable: one heuristic θ=32 key per client.
pub fn churn_keys(seed: u64) -> Vec<QueryRequest> {
    (0..CLIENTS as u64)
        .map(|j| {
            let k = [3, 5][j as usize % 2];
            request(CHURN_DATASET, 32, k, hash(seed, S_CHURN_SEED, j), true)
        })
        .collect()
}

/// One `/update` body and the same mutations as a [`MutationBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub body: String,
    pub batch: MutationBatch,
}

/// Generates a valid mutation script against an identity-labelled dataset:
/// each batch inserts absent edges, re-weights and deletes present ones,
/// with no edge twice in a batch, so every batch applies and the edge count
/// stays level.
#[derive(Debug, Clone)]
pub struct ScriptGen {
    rng: Rng,
    n: usize,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
}

impl ScriptGen {
    pub fn new(seed: u64, base: &UncertainGraph) -> ScriptGen {
        let edges: Vec<(u32, u32)> = base.graph().edges().to_vec();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        ScriptGen {
            rng: Rng::new(hash(seed, S_SCRIPT, 0)),
            n: base.num_nodes(),
            edges,
            index,
        }
    }

    fn present(&mut self, used: &mut HashSet<(u32, u32)>) -> (u32, u32) {
        loop {
            let e = self.edges[self.rng.below(self.edges.len())];
            if used.insert(e) {
                return e;
            }
        }
    }

    fn absent(&mut self, used: &mut HashSet<(u32, u32)>) -> (u32, u32) {
        loop {
            let (a, b) = (self.rng.below(self.n) as u32, self.rng.below(self.n) as u32);
            let e = (a.min(b), a.max(b));
            if a != b && !self.index.contains_key(&e) && used.insert(e) {
                return e;
            }
        }
    }

    /// A probability in (0, 1] written with three decimals, and the value
    /// the server parses from that text.
    fn prob(&mut self) -> (String, f64) {
        let milli = 1 + self.rng.below(1000);
        let text = format!("{}.{:03}", milli / 1000, milli % 1000);
        let p = text.parse().expect("formatted probability parses");
        (text, p)
    }

    pub fn next_batch(&mut self) -> Batch {
        let mut used = HashSet::new();
        let mut body = String::new();
        let mut edges = Vec::new();
        for _ in 0..BATCH_REWEIGHTS {
            let (u, v) = self.present(&mut used);
            let (text, p) = self.prob();
            body.push_str(&format!("{u} {v} {text}\n"));
            edges.push(EdgeMutation::Upsert(u, v, p));
        }
        let mut deleted = Vec::new();
        for _ in 0..BATCH_DELETES {
            let (u, v) = self.present(&mut used);
            body.push_str(&format!("{u} {v} -\n"));
            edges.push(EdgeMutation::Delete(u, v));
            deleted.push((u, v));
        }
        let mut inserted = Vec::new();
        for _ in 0..BATCH_INSERTS {
            let (u, v) = self.absent(&mut used);
            let (text, p) = self.prob();
            body.push_str(&format!("{u} {v} {text}\n"));
            edges.push(EdgeMutation::Upsert(u, v, p));
            inserted.push((u, v));
        }
        for e in deleted {
            let i = self.index.remove(&e).expect("deleted edge was present");
            self.edges.swap_remove(i);
            if let Some(&moved) = self.edges.get(i) {
                self.index.insert(moved, i);
            }
        }
        for e in inserted {
            self.index.insert(e, self.edges.len());
            self.edges.push(e);
        }
        Batch {
            body,
            batch: MutationBatch {
                add_nodes: 0,
                edges,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::DeltaGraph;

    fn karate() -> UncertainGraph {
        ugraph::datasets::karate_club().graph
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("warm").is_err());
    }

    #[test]
    fn same_seed_same_queries() {
        let cold = |seed: u64| -> Vec<String> {
            let plan = ColdPlan::new(seed);
            (0..100)
                .map(|i| query_path(&cold_query(plan.slot(i))))
                .collect()
        };
        let a = cold(7);
        assert_eq!(a, cold(7));
        let n = COLD_QUERIES;
        let distinct: HashSet<&String> = a[..n].iter().collect();
        assert_eq!(distinct.len(), n, "a cycle reads every query once");
        assert_eq!(a[..n], a[n..2 * n], "every cycle reads the same order");
        // Another seed starts the same cycle at another query.
        let c = cold(8);
        assert_ne!(a, c);
        let (mut x, mut y) = (a[..n].to_vec(), c[..n].to_vec());
        x.sort();
        y.sort();
        assert_eq!(x, y);

        let (p, q) = (HotPlan::new(7), HotPlan::new(7));
        assert_eq!(p, q);
        let reads: Vec<usize> = (0..1000).map(|i| p.read(i)).collect();
        assert_eq!(reads, (0..1000).map(|i| q.read(i)).collect::<Vec<_>>());
        assert_ne!(p.keys, HotPlan::new(8).keys);
        assert_eq!(churn_keys(7), churn_keys(7));
        assert_ne!(churn_keys(7), churn_keys(8));
    }

    #[test]
    fn hot_reads_follow_zipf_over_every_key() {
        let plan = HotPlan::new(3);
        let mut counts = vec![0usize; HOT_KEYS];
        for i in 0..64_000 {
            counts[plan.read(i)] += 1;
        }
        let top = plan.rank_to_key[0];
        let last = plan.rank_to_key[HOT_KEYS - 1];
        // Rank 1 draws ~21% of reads under Zipf(1) over 64 keys, rank 64 ~0.3%.
        assert!((12_000..15_500).contains(&counts[top]), "{}", counts[top]);
        assert!(counts[last] > 0 && counts[last] < 600, "{}", counts[last]);
        let bodies: HashSet<String> = plan.keys.iter().map(query_path).collect();
        assert_eq!(bodies.len(), HOT_KEYS, "keys are distinct");
    }

    #[test]
    fn same_seed_same_script_and_every_batch_applies() {
        let base = karate();
        let (mut a, mut b) = (ScriptGen::new(5, &base), ScriptGen::new(5, &base));
        let mut other = ScriptGen::new(6, &base);
        let mut delta = DeltaGraph::from_graph(base.clone());
        let mut labels: Vec<u32> = (0..base.num_nodes() as u32).collect();
        let mut text_applied = DeltaGraph::from_graph(base.clone());
        let mut differs = false;
        for round in 0..200 {
            let (x, y) = (a.next_batch(), b.next_batch());
            assert_eq!(x, y);
            differs |= other.next_batch().body != x.body;
            assert_eq!(x.batch.edges.len(), 16);
            delta.apply(&x.batch).expect("generated batch applies");
            ugraph::io::apply_edge_list_delta(&mut text_applied, &mut labels, x.body.as_bytes())
                .expect("generated body applies");
            assert_eq!(delta.generation(), round + 1);
            assert_eq!(
                delta.num_edges(),
                base.num_edges(),
                "edge count stays level"
            );
        }
        assert!(differs);
        let (s1, s2) = (delta.snapshot(), text_applied.snapshot());
        assert_eq!(s1.graph().probs(), s2.graph().probs());
        assert_eq!(s1.graph().graph().edges(), s2.graph().graph().edges());
    }
}
