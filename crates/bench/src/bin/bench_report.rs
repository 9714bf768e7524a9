//! Machine-readable hot-path benchmark: CSR core vs. the pre-refactor
//! adjacency-list implementations, emitted as `BENCH_pr2.json`.
//!
//! ```text
//! cargo run --release -p mpds-bench --bin bench_report -- \
//!     [--out PATH] [--check BASELINE_JSON] [--min-secs S]
//! ```
//!
//! Run artifacts default to `target/BENCH_pr2.json` (build output, not
//! checked in); the committed baseline lives at
//! `crates/bench/baselines/BENCH_pr2.json` — the single source of truth the
//! CI gate compares against.
//!
//! Each metric times the legacy implementation (see `mpds_bench::legacy`)
//! and the CSR implementation on identical inputs and reports ops/sec for
//! both plus their ratio (`speedup`). **The tracked quantity is the ratio**:
//! raw ops/sec depend on the machine, but legacy and CSR run on the same
//! machine in the same process, so the ratio transfers across runners. The
//! `--check` mode enforces the CI regression gate: every tracked speedup
//! must stay within 20% of the committed baseline, and the two headline
//! metrics (sample materialization, neighborhood iteration) must stay ≥ 2x.

use mpds_bench::legacy::{AdjListFlowNetwork, AdjListGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sampling::{MonteCarlo, WorldSampler};
use std::time::Instant;
use ugraph::{generators, EdgeMask, Graph, UncertainGraph};

/// One measured metric: ops/sec for both implementations plus the ratio.
struct Metric {
    name: &'static str,
    unit: &'static str,
    legacy_ops: f64,
    csr_ops: f64,
    /// Whether the CI gate enforces the 20% band on this metric's speedup.
    /// Metrics whose expected ratio is ~1 (both layouts stream the same
    /// bytes) stay informational: a 20% band around 1.0 is inside cross-
    /// runner noise and would flake unrelated PRs.
    tracked: bool,
}

impl Metric {
    fn speedup(&self) -> f64 {
        self.csr_ops / self.legacy_ops
    }
}

/// Times `f` (called with an iteration budget) until `min_secs` of wall
/// clock is accumulated, returning ops/sec. One untimed warm-up batch.
fn ops_per_sec(min_secs: f64, mut f: impl FnMut(usize)) -> f64 {
    f(1); // warm-up
    let mut iters_done = 0usize;
    let mut elapsed = 0.0f64;
    let mut batch = 1usize;
    while elapsed < min_secs {
        let start = Instant::now();
        f(batch);
        elapsed += start.elapsed().as_secs_f64();
        iters_done += batch;
        batch = (batch * 2).min(1 << 16);
    }
    iters_done as f64 / elapsed
}

fn main() {
    let mut out_path = "target/BENCH_pr2.json".to_string();
    let mut check_path: Option<String> = None;
    let mut min_secs = 0.4f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            "--min-secs" => {
                min_secs = args
                    .next()
                    .expect("--min-secs needs a value")
                    .parse()
                    .expect("bad --min-secs")
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let metrics = run_benchmarks(min_secs);
    let json = render_json(&metrics);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");
    for m in &metrics {
        println!(
            "  {:<28} legacy {:>12.0} {u}, csr {:>12.0} {u}, speedup {:>5.2}x",
            m.name,
            m.legacy_ops,
            m.csr_ops,
            m.speedup(),
            u = m.unit,
        );
    }

    if let Some(baseline) = check_path {
        let baseline_text = std::fs::read_to_string(&baseline).expect("read baseline");
        let failures = check_against_baseline(&metrics, &baseline_text);
        if failures.is_empty() {
            println!("regression gate: OK vs {baseline}");
        } else {
            eprintln!("regression gate FAILED vs {baseline}:");
            for f in failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// The synthetic workload shared by all metrics: a Barabási–Albert graph
/// (degree-skewed, like the paper's real datasets) with random edge
/// probabilities.
fn workload() -> UncertainGraph {
    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let g = generators::barabasi_albert(3000, 8, &mut rng);
    let probs: Vec<f64> = (0..g.num_edges())
        .map(|_| rng.gen_range(0.1..0.9))
        .collect();
    UncertainGraph::new(g, probs)
}

fn run_benchmarks(min_secs: f64) -> Vec<Metric> {
    let ug = workload();
    let n = ug.num_nodes();
    let edges = ug.graph().edges().to_vec();
    eprintln!("workload: n = {n}, m = {} (BA backbone)", edges.len());
    let mut metrics = Vec::new();

    // 1. Sample materialization: draw a world mask and build the world graph.
    //    Legacy: Vec<bool> mask + sorted-insertion adjacency rebuild.
    //    CSR: preallocated EdgeMask + recycled CSR assembly.
    {
        let mut mc = MonteCarlo::with_stream(&ug, 1, 0);
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let mask = mc.next_mask();
                let w = AdjListGraph::world_from_mask(n, &edges, &mask);
                std::hint::black_box(w.num_edges());
            }
        });
        let mut mc = MonteCarlo::with_stream(&ug, 1, 0);
        let mut mask = EdgeMask::new(ug.num_edges());
        let mut world = Graph::default();
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                mc.next_mask_into(&mut mask);
                world = ug.world_from_bitmap(&mask, std::mem::take(&mut world));
                std::hint::black_box(world.num_edges());
            }
        });
        metrics.push(Metric {
            name: "sample_materialization",
            tracked: true,
            unit: "worlds/s",
            legacy_ops,
            csr_ops,
        });
    }

    // 2. Neighborhood iteration, pipeline pattern: every sampled world is
    //    materialized once and then scanned by the density machinery, so the
    //    representative unit of work is "build the world, sweep all its
    //    neighborhoods k times" (k = 4 ≈ the peeling + core + oracle passes
    //    of Algorithm 1's inner loop).
    {
        const SWEEPS: usize = 4;
        let mut mc = MonteCarlo::with_stream(&ug, 2, 0);
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let mask = mc.next_mask();
                let w = AdjListGraph::world_from_mask(n, &edges, &mask);
                let mut acc = 0u64;
                for _ in 0..SWEEPS {
                    for v in 0..n as u32 {
                        for &x in w.neighbors(v) {
                            acc += x as u64;
                        }
                    }
                }
                std::hint::black_box(acc);
            }
        });
        let mut mc = MonteCarlo::with_stream(&ug, 2, 0);
        let mut mask = EdgeMask::new(ug.num_edges());
        let mut world = Graph::default();
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                mc.next_mask_into(&mut mask);
                world = ug.world_from_bitmap(&mask, std::mem::take(&mut world));
                let mut acc = 0u64;
                for _ in 0..SWEEPS {
                    for v in 0..n as u32 {
                        for &x in world.neighbors(v) {
                            acc += x as u64;
                        }
                    }
                }
                std::hint::black_box(acc);
            }
        });
        metrics.push(Metric {
            name: "neighborhood_iteration",
            tracked: true,
            unit: "world-scans/s",
            legacy_ops,
            csr_ops,
        });
    }

    // 2b. Static full sweep over the fixed uncertain graph (informational:
    //     on a freshly built graph both layouts stream the same 2m ids, so
    //     the expected ratio is ~1; the CSR win is in per-world rebuild cost
    //     and allocation-free reuse, not in raw sequential bandwidth).
    {
        let legacy_graph = AdjListGraph::from_edges(n, &edges);
        let csr_graph = ug.graph();
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let mut acc = 0u64;
                for v in 0..n as u32 {
                    for &w in legacy_graph.neighbors(v) {
                        acc += w as u64;
                    }
                }
                std::hint::black_box(acc);
            }
        });
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let mut acc = 0u64;
                for v in 0..n as u32 {
                    for &w in csr_graph.neighbors(v) {
                        acc += w as u64;
                    }
                }
                std::hint::black_box(acc);
            }
        });
        metrics.push(Metric {
            name: "static_neighborhood_sweep",
            tracked: false,
            unit: "sweeps/s",
            legacy_ops,
            csr_ops,
        });
    }

    // 3. Per-world peeling, pipeline pattern: sample a world, enumerate its
    //    edge instances, peel by instance-degree (the Charikar/core lower
    //    bound every per-world solve starts from).
    {
        let mut mc = MonteCarlo::with_stream(&ug, 3, 0);
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let mask = mc.next_mask();
                let w = AdjListGraph::world_from_mask(n, &edges, &mask);
                let inst = densest::instances::InstanceSet::from_flat(
                    2,
                    w.edges().iter().flat_map(|&(u, v)| [u, v]).collect(),
                );
                let p = densest::peeling::peel(n, &inst);
                std::hint::black_box(p.best_density);
            }
        });
        let mut mc = MonteCarlo::with_stream(&ug, 3, 0);
        let mut mask = EdgeMask::new(ug.num_edges());
        let mut world = Graph::default();
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                mc.next_mask_into(&mut mask);
                world = ug.world_from_bitmap(&mask, std::mem::take(&mut world));
                let inst = densest::instances::enumerate_cliques(&world, 2);
                let p = densest::peeling::peel(n, &inst);
                std::hint::black_box(p.best_density);
            }
        });
        metrics.push(Metric {
            name: "world_edge_peeling",
            tracked: true,
            unit: "worlds/s",
            legacy_ops,
            csr_ops,
        });
    }

    // 4. Triangle peeling: enumerate triangle instances and peel by
    //    instance-degree (the §III-C heuristic inner loop). The peel itself
    //    is shared; the enumeration exercises the adjacency layout.
    {
        let mut rng = StdRng::seed_from_u64(7);
        let small = generators::erdos_renyi_nm(600, 5400, &mut rng);
        let small_edges = small.edges().to_vec();
        let legacy_small = AdjListGraph::from_edges(600, &small_edges);
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let tris = legacy_small.triangles();
                let inst = densest::instances::InstanceSet::from_flat(3, tris.concat());
                let p = densest::peeling::peel(600, &inst);
                std::hint::black_box(p.best_density);
            }
        });
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                let inst = densest::instances::enumerate_cliques(&small, 3);
                let p = densest::peeling::peel(600, &inst);
                std::hint::black_box(p.best_density);
            }
        });
        metrics.push(Metric {
            name: "triangle_peeling",
            tracked: false,
            unit: "passes/s",
            legacy_ops,
            csr_ops,
        });
    }

    // 4. Dinic max-flow: the Goldberg-style densest-subgraph network of one
    //    sampled world (source → vertices → sink + undirected edge arcs),
    //    solved to completion. Identical arc insertion order on both sides.
    {
        let mut rng = StdRng::seed_from_u64(13);
        let world = generators::erdos_renyi_nm(1200, 9600, &mut rng);
        let wedges = world.edges().to_vec();
        let wn = world.num_nodes();
        let (s, t) = (wn, wn + 1);
        let mut arcs: Vec<(usize, usize, u64, u64)> = Vec::new();
        for v in 0..wn {
            arcs.push((s, v, world.degree(v as u32) as u64, 0));
            arcs.push((v, t, 2 * 8, 0)); // 2α with α = 8 (near ρ*)
        }
        for &(u, v) in &wedges {
            arcs.push((u as usize, v as usize, 1, 1));
        }
        let mut legacy_net = AdjListFlowNetwork::new(wn + 2);
        let mut csr_net = maxflow::FlowNetwork::new(wn + 2);
        for &(u, v, c, rc) in &arcs {
            legacy_net.add_edge(u, v, c, rc);
            csr_net.add_edge(u, v, c, rc);
        }
        let legacy_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                legacy_net.reset();
                std::hint::black_box(legacy_net.max_flow(s, t));
            }
        });
        let csr_ops = ops_per_sec(min_secs, |iters| {
            for _ in 0..iters {
                csr_net.reset();
                std::hint::black_box(csr_net.max_flow(s, t));
            }
        });
        metrics.push(Metric {
            name: "dinic_maxflow",
            tracked: false,
            unit: "solves/s",
            legacy_ops,
            csr_ops,
        });
    }

    metrics
}

/// Renders the report with one metric object per line (the line orientation
/// is what keeps `parse_baseline` dependency-free).
fn render_json(metrics: &[Metric]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"mpds-bench/bench_report/v1\",\n");
    s.push_str("  \"note\": \"gated quantity is `speedup` (CSR/legacy ops ratio, machine-relative) on `tracked` metrics; raw ops/sec are informational\",\n");
    s.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"tracked\": {}, \"unit\": \"{}\", \"legacy_ops\": {:.2}, \"csr_ops\": {:.2}, \"speedup\": {:.3}}}{}\n",
            m.name,
            m.tracked,
            m.unit,
            m.legacy_ops,
            m.csr_ops,
            m.speedup(),
            if i + 1 == metrics.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `(name, tracked, speedup)` triples from a report produced by
/// [`render_json`] (line-oriented scan; no JSON dependency).
fn parse_baseline(text: &str) -> Vec<(String, bool, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let tracked = line.contains("\"tracked\": true");
        let Some(sp_at) = line.find("\"speedup\": ") else {
            continue;
        };
        let num: String = line[sp_at + 11..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, tracked, v));
        }
    }
    out
}

/// The regression gate: each tracked speedup must stay within 20% of the
/// committed baseline, and the two headline metrics must stay ≥ 2x.
/// Informational metrics (expected ratio ~1) are reported but never fail
/// the gate — a 20% band around 1.0 sits inside cross-runner noise.
fn check_against_baseline(metrics: &[Metric], baseline_text: &str) -> Vec<String> {
    let baseline = parse_baseline(baseline_text);
    let mut failures = Vec::new();
    if !baseline.iter().any(|&(_, tracked, _)| tracked) {
        failures.push("baseline contains no tracked metrics".to_string());
    }
    for (name, tracked, base_speedup) in &baseline {
        let Some(m) = metrics.iter().find(|m| m.name == name.as_str()) else {
            failures.push(format!("metric {name} missing from this run"));
            continue;
        };
        if !tracked {
            continue;
        }
        let got = m.speedup();
        let floor = base_speedup * 0.8;
        if got < floor {
            failures.push(format!(
                "{name}: speedup {got:.3} regressed >20% below baseline {base_speedup:.3}"
            ));
        }
    }
    // Reverse direction: a tracked metric added to bench_report without
    // regenerating the committed baseline must fail loudly, not run ungated.
    for m in metrics.iter().filter(|m| m.tracked) {
        if !baseline.iter().any(|(name, _, _)| name == m.name) {
            failures.push(format!(
                "{}: tracked metric missing from the baseline — regenerate crates/bench/baselines/BENCH_pr2.json",
                m.name
            ));
        }
    }
    for headline in ["sample_materialization", "neighborhood_iteration"] {
        if let Some(m) = metrics.iter().find(|m| m.name == headline) {
            if m.speedup() < 2.0 {
                failures.push(format!(
                    "{headline}: speedup {:.3} below the required 2x",
                    m.speedup()
                ));
            }
        }
    }
    failures
}
