//! Command-line front end: run top-k MPDS or NDS on a weighted edge list,
//! or serve the query API over HTTP.
//!
//! ```text
//! mpds-cli <command> ...
//!
//! commands:
//!   mpds <edge-list> [opts]   top-k most probable densest subgraphs (Alg. 1)
//!   nds <edge-list> [opts]    top-k nucleus densest subgraphs (Alg. 5)
//!   stats <edge-list> [--json]  dataset summary
//!   serve [serve-opts]        start the HTTP query server
//!   update [update-opts]      POST a mutation batch to a running server
//!   batch [batch-opts]        POST a multi-query spec to a running server
//!   diff [diff-opts]          diff one query across two datasets (CRN)
//!   checkpoint [ckpt-opts]    force a durable checkpoint on a running server
//!
//! mpds/nds options:
//!   --theta N       number of sampled worlds        [default 320]
//!   --k N           result count                    [default 5]
//!   --lm N          minimum NDS size                [default 2]
//!   --density D     edge | Nclique | 2star | 3star | c3star | diamond
//!                                                   [default edge]
//!   --seed N        sampler seed                    [default 42]
//!   --threads N     threads solving worlds, 1..=64  [default 1]
//!                   (the answer is the same on any number)
//!   --heuristic     use the core-based heuristic per world
//!   --stop P        termination policy: fixed | stable    [default fixed]
//!   --window N      stable-stop window (requires --stop stable) [default 32]
//!   --budget-ms N   wall-clock budget; returns best-so-far on expiry
//!   --json          emit the server's JSON response body instead of text
//!                   (plus a `wall_ms` entry in its `stats` block)
//!
//! serve options:
//!   --bind ADDR           listen address            [default 127.0.0.1:7878]
//!   --threads N           worker threads            [default 4]
//!   --cache-capacity N    result-cache entries      [default 256]
//!   --queue N             admission queue bound     [default 64]
//!   --dataset NAME=PATH   register an edge-list file (repeatable)
//!   --mutable             serve POST /update (off by default)
//!   --access-log PATH     append one JSON line per request (off by default)
//!   --slow-ms N           echo requests taking ≥ N ms to stderr, and promote
//!                         them into the /debug/slow ring (ring threshold
//!                         defaults to 1000 ms when this flag is off)
//!   --data-dir PATH       persist datasets (WAL + checkpoints) under PATH and
//!                         recover them on boot (off by default)
//!   --wal-sync MODE       commit = fsync per accepted batch (default),
//!                         interval = coalesce fsyncs to about one per second
//!   --no-flight           disable the per-request flight recorder (/debug/*
//!                         rings stay empty; X-Trace-Id is still returned)
//!   --flight-capacity N   completed-request ring size   [default 256]
//!   --slow-capacity N     slow-query ring size          [default 64]
//!   --slo SPEC            score an SLO (repeatable):
//!                         ENDPOINT:latency:MILLIS:TARGET or
//!                         ENDPOINT:availability:TARGET; replaces the default
//!                         set (query latency 250ms@0.99, query/update
//!                         availability@0.999)
//!
//! update options:
//!   --dataset NAME        target dataset            (required)
//!   --file PATH           mutation file: `u v p` upserts the edge,
//!                         `u v -` deletes it        (required)
//!   --addr HOST:PORT      server address            [default 127.0.0.1:7878]
//!
//! batch options:
//!   --file PATH           JSON spec file — the `POST /batch` body: one
//!                         object with `dataset`, shared `theta`/`seed`,
//!                         and a `members` array of per-query
//!                         `{algo, notion, k, lm, heuristic}` objects
//!                                                   (required)
//!   --addr HOST:PORT      server address            [default 127.0.0.1:7878]
//!   --json                emit the raw batch envelope instead of text
//!
//! diff options:
//!   --dataset NAME        the *after* dataset       (required)
//!   --against NAME        the baseline dataset      (required)
//!   --algo A, --theta N, --k N, --lm N, --density D, --seed N,
//!   --heuristic           as for mpds/nds
//!   --addr HOST:PORT      server address            [default 127.0.0.1:7878]
//!   --json                emit the raw diff response instead of text
//!
//! checkpoint options:
//!   --dataset NAME        target dataset            (required)
//!   --addr HOST:PORT      server address            [default 127.0.0.1:7878]
//! ```
//!
//! The edge-list format is one `u v p` triple per line (`#` comments
//! allowed); node labels are arbitrary u32s. Unknown or duplicate flags are
//! rejected with a usage message. `--json` and the server share one
//! serialization path ([`mpds_service::engine`]), so a CLI run and a served
//! query with equal parameters produce identical bytes.

use mpds::control::RunControl;
use mpds_service::engine::{
    parse_notion, render_query_response_with_wall, render_stats, run_query, Algo, QueryRequest,
    StopSpec,
};
use mpds_service::json::JsonValue;
use mpds_service::registry::{GraphRegistry, LoadedGraph};
use mpds_service::{EngineConfig, QueryEngine, Server, ServerConfig};
use mpds_store::{Store, SyncPolicy};
use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

/// A parsed invocation.
#[derive(Debug)]
enum Command {
    /// `mpds` / `nds` / `stats` over an edge-list file.
    Run(RunOptions),
    /// `serve`.
    Serve(ServeOptions),
    /// `update` against a running server.
    Update(UpdateOptions),
    /// `batch` against a running server.
    Batch(BatchOptions),
    /// `diff` against a running server.
    Diff(DiffOptions),
    /// `checkpoint` against a running server.
    Checkpoint(CheckpointOptions),
}

#[derive(Debug)]
struct RunOptions {
    command: String,
    path: String,
    theta: usize,
    k: usize,
    lm: usize,
    density: String,
    seed: u64,
    threads: usize,
    heuristic: bool,
    stop: StopSpec,
    budget_ms: Option<u64>,
    json: bool,
}

#[derive(Debug)]
struct ServeOptions {
    bind: String,
    threads: usize,
    cache_capacity: usize,
    queue: usize,
    datasets: Vec<(String, String)>,
    mutable: bool,
    access_log: Option<String>,
    slow_ms: Option<u64>,
    data_dir: Option<String>,
    wal_sync: SyncPolicy,
    flight: bool,
    flight_capacity: usize,
    slow_capacity: usize,
    slo: Vec<mpds_obs::SloObjective>,
}

#[derive(Debug)]
struct CheckpointOptions {
    dataset: String,
    addr: String,
}

#[derive(Debug)]
struct UpdateOptions {
    dataset: String,
    file: String,
    addr: String,
}

#[derive(Debug)]
struct BatchOptions {
    file: String,
    addr: String,
    json: bool,
}

#[derive(Debug)]
struct DiffOptions {
    dataset: String,
    against: String,
    algo: String,
    theta: usize,
    k: usize,
    lm: usize,
    density: String,
    seed: u64,
    heuristic: bool,
    addr: String,
    json: bool,
}

const USAGE: &str = "usage: mpds-cli <mpds|nds|stats> <edge-list> \\
  [--theta N] [--k N] [--lm N] [--density D] [--seed N] [--threads N] \\
  [--heuristic] [--stop fixed|stable] [--window N] [--budget-ms N] [--json]
   or: mpds-cli serve [--bind ADDR] [--threads N] [--cache-capacity N] \\
  [--queue N] [--dataset NAME=PATH]... [--mutable] [--data-dir PATH] \\
  [--wal-sync commit|interval]
   or: mpds-cli update --dataset NAME --file delta.txt [--addr HOST:PORT]
   or: mpds-cli checkpoint --dataset NAME [--addr HOST:PORT]
   or: mpds-cli batch --file spec.json [--addr HOST:PORT] [--json]
   or: mpds-cli diff --dataset AFTER --against BEFORE [--algo A] [--theta N] \\
  [--k N] [--lm N] [--density D] [--seed N] [--heuristic] [--addr HOST:PORT] \\
  [--json]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let command = args.next().ok_or("missing command")?;
    match command.as_str() {
        "mpds" | "nds" | "stats" => parse_run_args(command, args).map(Command::Run),
        "serve" => parse_serve_args(args).map(Command::Serve),
        "update" => parse_update_args(args).map(Command::Update),
        "batch" => parse_batch_args(args).map(Command::Batch),
        "diff" => parse_diff_args(args).map(Command::Diff),
        "checkpoint" => parse_checkpoint_args(args).map(Command::Checkpoint),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Tracks flags already seen so repeats are rejected instead of silently
/// last-one-wins (repeatable flags like `--dataset` skip the check and
/// enforce their own uniqueness rule).
struct SeenFlags(HashSet<String>);

impl SeenFlags {
    fn new() -> Self {
        SeenFlags(HashSet::new())
    }

    fn check(&mut self, flag: &str) -> Result<(), String> {
        if !self.0.insert(flag.to_string()) {
            return Err(format!("duplicate option {flag:?}"));
        }
        Ok(())
    }
}

fn parse_run_args(
    command: String,
    mut args: impl Iterator<Item = String>,
) -> Result<RunOptions, String> {
    let path = args.next().ok_or("missing edge-list path")?;
    if path.starts_with("--") {
        return Err(format!("missing edge-list path (found option {path:?})"));
    }
    let mut o = RunOptions {
        command,
        path,
        theta: 320,
        k: 5,
        lm: 2,
        density: "edge".to_string(),
        seed: 42,
        threads: 1,
        heuristic: false,
        stop: StopSpec::Fixed,
        budget_ms: None,
        json: false,
    };
    let mut stop: Option<String> = None;
    let mut window: Option<u32> = None;
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        seen.check(&flag)?;
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--theta" => {
                o.theta = val("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--k" => o.k = val("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--lm" => o.lm = val("--lm")?.parse().map_err(|e| format!("--lm: {e}"))?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                o.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if !(1..=64).contains(&o.threads) {
                    return Err(format!("--threads {} outside 1..=64", o.threads));
                }
            }
            "--density" => {
                let d = val("--density")?;
                parse_notion(&d)?; // fail fast, before any file I/O
                o.density = d;
            }
            "--heuristic" => o.heuristic = true,
            "--stop" => stop = Some(val("--stop")?),
            "--window" => {
                window = Some(
                    val("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--budget-ms" => {
                o.budget_ms = Some(
                    val("--budget-ms")?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?,
                )
            }
            "--json" => o.json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    o.stop = StopSpec::parse(stop.as_deref(), window)?;
    Ok(o)
}

fn parse_serve_args(mut args: impl Iterator<Item = String>) -> Result<ServeOptions, String> {
    let mut o = ServeOptions {
        bind: "127.0.0.1:7878".to_string(),
        threads: 4,
        cache_capacity: 256,
        queue: 64,
        datasets: Vec::new(),
        mutable: false,
        access_log: None,
        slow_ms: None,
        data_dir: None,
        wal_sync: SyncPolicy::Commit,
        flight: true,
        flight_capacity: 256,
        slow_capacity: 64,
        slo: Vec::new(),
    };
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        if flag != "--dataset" && flag != "--slo" {
            seen.check(&flag)?;
        }
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--bind" => o.bind = val("--bind")?,
            "--threads" => {
                o.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if o.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--cache-capacity" => {
                o.cache_capacity = val("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?
            }
            "--queue" => {
                o.queue = val("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
                if o.queue == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
            }
            "--dataset" => {
                let spec = val("--dataset")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--dataset wants NAME=PATH, got {spec:?}"))?;
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--dataset wants NAME=PATH, got {spec:?}"));
                }
                if o.datasets.iter().any(|(n, _)| n == name) {
                    return Err(format!("duplicate dataset name {name:?}"));
                }
                o.datasets.push((name.to_string(), path.to_string()));
            }
            "--mutable" => o.mutable = true,
            "--access-log" => o.access_log = Some(val("--access-log")?),
            "--slow-ms" => {
                o.slow_ms = Some(
                    val("--slow-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                )
            }
            "--data-dir" => o.data_dir = Some(val("--data-dir")?),
            "--no-flight" => o.flight = false,
            "--flight-capacity" => {
                o.flight_capacity = val("--flight-capacity")?
                    .parse()
                    .map_err(|e| format!("--flight-capacity: {e}"))?
            }
            "--slow-capacity" => {
                o.slow_capacity = val("--slow-capacity")?
                    .parse()
                    .map_err(|e| format!("--slow-capacity: {e}"))?
            }
            "--slo" => {
                let spec = val("--slo")?;
                let objective =
                    mpds_obs::SloObjective::parse_spec(&spec).map_err(|e| format!("--slo: {e}"))?;
                if o.slo.iter().any(|s| s.name == objective.name) {
                    return Err(format!("duplicate SLO {:?}", objective.name));
                }
                o.slo.push(objective);
            }
            "--wal-sync" => {
                // Fail fast on the value, before any socket or file I/O.
                o.wal_sync = SyncPolicy::parse(&val("--wal-sync")?)
                    .map_err(|e| format!("--wal-sync: {e}"))?
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn parse_checkpoint_args(
    mut args: impl Iterator<Item = String>,
) -> Result<CheckpointOptions, String> {
    let mut dataset: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        seen.check(&flag)?;
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--dataset" => dataset = Some(val("--dataset")?),
            "--addr" => addr = val("--addr")?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(CheckpointOptions {
        dataset: dataset.ok_or("checkpoint requires --dataset NAME")?,
        addr,
    })
}

fn parse_update_args(mut args: impl Iterator<Item = String>) -> Result<UpdateOptions, String> {
    let mut dataset: Option<String> = None;
    let mut file: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        seen.check(&flag)?;
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--dataset" => dataset = Some(val("--dataset")?),
            "--file" => file = Some(val("--file")?),
            "--addr" => addr = val("--addr")?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(UpdateOptions {
        dataset: dataset.ok_or("update requires --dataset NAME")?,
        file: file.ok_or("update requires --file PATH")?,
        addr,
    })
}

fn parse_batch_args(mut args: impl Iterator<Item = String>) -> Result<BatchOptions, String> {
    let mut file: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut json = false;
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        seen.check(&flag)?;
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--file" => file = Some(val("--file")?),
            "--addr" => addr = val("--addr")?,
            "--json" => json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(BatchOptions {
        file: file.ok_or("batch requires --file SPEC.json")?,
        addr,
        json,
    })
}

fn parse_diff_args(mut args: impl Iterator<Item = String>) -> Result<DiffOptions, String> {
    let mut o = DiffOptions {
        dataset: String::new(),
        against: String::new(),
        algo: "mpds".to_string(),
        theta: 320,
        k: 5,
        lm: 2,
        density: "edge".to_string(),
        seed: 42,
        heuristic: false,
        addr: "127.0.0.1:7878".to_string(),
        json: false,
    };
    let mut seen = SeenFlags::new();
    while let Some(flag) = args.next() {
        seen.check(&flag)?;
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--dataset" => o.dataset = val("--dataset")?,
            "--against" => o.against = val("--against")?,
            "--algo" => {
                let a = val("--algo")?;
                Algo::parse(&a)?; // fail fast, before the request
                o.algo = a;
            }
            "--theta" => {
                o.theta = val("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--k" => o.k = val("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--lm" => o.lm = val("--lm")?.parse().map_err(|e| format!("--lm: {e}"))?,
            "--density" => {
                let d = val("--density")?;
                parse_notion(&d)?;
                o.density = d;
            }
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--heuristic" => o.heuristic = true,
            "--addr" => o.addr = val("--addr")?,
            "--json" => o.json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if o.dataset.is_empty() {
        return Err("diff requires --dataset NAME (the after side)".to_string());
    }
    if o.against.is_empty() {
        return Err("diff requires --against NAME (the baseline)".to_string());
    }
    Ok(o)
}

fn load_file(path: &str) -> Result<LoadedGraph, String> {
    mpds_service::registry::load_edge_list_file(path, std::path::Path::new(path))
}

fn run_command(o: &RunOptions) -> Result<(), String> {
    let loaded = load_file(&o.path)?;
    if o.command == "stats" {
        if o.json {
            println!("{}", render_stats(&o.path, &loaded.graph));
        } else {
            let (mean, std, q) = ugraph::probability::prob_stats(loaded.graph.probs());
            println!("nodes: {}", loaded.graph.num_nodes());
            println!("edges: {}", loaded.graph.num_edges());
            println!("probabilities: mean {mean:.4}, std {std:.4}, quartiles {q:?}");
        }
        return Ok(());
    }

    let req = QueryRequest {
        dataset: o.path.clone(),
        algo: Algo::parse(&o.command)?,
        notion: o.density.clone(),
        theta: o.theta,
        k: o.k,
        lm: o.lm,
        seed: o.seed,
        heuristic: o.heuristic,
        stop: o.stop,
        timeout_ms: None,
        budget_ms: o.budget_ms,
    };
    let started = std::time::Instant::now();
    let ctrl = RunControl::unbounded().with_helpers(o.threads - 1);
    let payload = run_query(&loaded, &req, &ctrl).map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    if o.json {
        println!(
            "{}",
            render_query_response_with_wall(&req, &payload, wall_ms)
        );
        return Ok(());
    }

    let show = |set: &[u32]| -> String {
        let named: Vec<String> = set.iter().map(|v| v.to_string()).collect();
        format!("{{{}}}", named.join(", "))
    };
    let notion = parse_notion(&o.density).expect("validated in parse_args");
    match req.algo {
        Algo::Mpds => {
            println!(
                "top-{} MPDS ({} density, theta = {}):",
                o.k,
                notion.label(),
                o.theta
            );
            for (i, (set, tau)) in payload.rows.iter().enumerate() {
                println!("  #{:<2} tau_hat = {:.4}  {}", i + 1, tau, show(set));
            }
            if payload.rows.is_empty() {
                println!("  (no sampled world contained an instance)");
            }
        }
        Algo::Nds => {
            println!(
                "top-{} NDS ({} density, theta = {}, lm = {}):",
                o.k,
                notion.label(),
                o.theta,
                o.lm
            );
            for (i, (set, gamma)) in payload.rows.iter().enumerate() {
                println!("  #{:<2} gamma_hat = {:.4}  {}", i + 1, gamma, show(set));
            }
        }
    }
    let converged = match payload.converged_at {
        Some(w) => format!(", converged at world {w}"),
        None => String::new(),
    };
    println!(
        "sampled {} worlds in {} ms (stop: {}{converged})",
        payload.worlds_sampled, wall_ms, payload.stop_reason
    );
    Ok(())
}

fn serve_command(o: &ServeOptions) -> Result<(), String> {
    let mut registry = GraphRegistry::with_builtins();
    for (name, path) in &o.datasets {
        registry.register_file(name, path);
    }
    if let Some(dir) = &o.data_dir {
        let store = Store::create(std::path::Path::new(dir), o.wal_sync)
            .map_err(|e| format!("data dir {dir}: {e}"))?;
        registry.set_store(store);
    }
    let engine = Arc::new(QueryEngine::new(
        registry,
        &EngineConfig {
            cache_capacity: o.cache_capacity,
            cache_shards: 8,
        },
    ));
    // Recover durable datasets before the listener binds, so the first
    // request already sees pre-crash state. A dataset that fails recovery is
    // a fatal error — serving it empty would silently drop acknowledged
    // mutations.
    if engine.registry().persistence_enabled() {
        for (name, outcome) in engine.registry().recover_on_boot() {
            match outcome {
                Ok(generation) => println!("recovered dataset {name:?} at generation {generation}"),
                Err(e) => return Err(format!("recover dataset {name:?}: {e}")),
            }
        }
    }
    let cfg = ServerConfig {
        threads: o.threads,
        queue_capacity: o.queue,
        mutable: o.mutable,
        access_log: o.access_log.as_ref().map(std::path::PathBuf::from),
        slow_ms: o.slow_ms,
        flight: o.flight,
        flight_capacity: o.flight_capacity,
        slow_capacity: o.slow_capacity,
        slo: if o.slo.is_empty() {
            mpds_service::http::default_slo_objectives()
        } else {
            o.slo.clone()
        },
        ..ServerConfig::default()
    };
    let server =
        Server::bind(o.bind.as_str(), engine, &cfg).map_err(|e| format!("bind {}: {e}", o.bind))?;
    println!(
        "mpds-service listening on http://{} ({} workers, queue {}, cache {}{})",
        server.local_addr(),
        o.threads,
        o.queue,
        o.cache_capacity,
        if o.mutable { ", mutable" } else { "" }
    );
    if let Some(path) = &o.access_log {
        println!("access log: {path}");
    }
    if let Some(dir) = &o.data_dir {
        println!(
            "durable datasets under {dir} (wal-sync {})",
            match o.wal_sync {
                SyncPolicy::Commit => "commit",
                SyncPolicy::Interval => "interval",
            }
        );
    }
    // Serve until killed; the Server's own threads do all the work.
    loop {
        std::thread::park();
    }
}

fn resolve_addr(addr: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("cannot resolve --addr {addr:?}"))
}

/// `value` as a query-string component: every byte but the unreserved
/// ones (`A–Z a–z 0–9 - . _ ~`) as `%XX`, so a dataset name holding `&`,
/// `=`, `%`, `+` or a space names that dataset.
fn percent_encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn update_command(o: &UpdateOptions) -> Result<(), String> {
    let addr = resolve_addr(&o.addr)?;
    let body = std::fs::read(&o.file).map_err(|e| format!("read {}: {e}", o.file))?;
    let path = format!("/update?dataset={}", percent_encode(&o.dataset));
    let ex =
        mpds_service::client::http_post(addr, &path, &body, std::time::Duration::from_secs(120))
            .map_err(|e| format!("POST {path} to {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&ex.body);
    if ex.status != 200 {
        return Err(format!("server answered {}: {text}", ex.status));
    }
    println!("{text}");
    Ok(())
}

fn checkpoint_command(o: &CheckpointOptions) -> Result<(), String> {
    let addr = resolve_addr(&o.addr)?;
    let path = format!("/admin/checkpoint?dataset={}", percent_encode(&o.dataset));
    let ex = mpds_service::client::http_post(addr, &path, &[], std::time::Duration::from_secs(120))
        .map_err(|e| format!("POST {path} to {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&ex.body);
    if ex.status != 200 {
        return Err(format!("server answered {}: {text}", ex.status));
    }
    println!("{text}");
    Ok(())
}

/// Renders a JSON `[1,3,7]` nodes array as `{1, 3, 7}`.
fn show_nodes(v: &JsonValue) -> String {
    let items = match v {
        JsonValue::Array(items) => items
            .iter()
            .map(|n| match n {
                JsonValue::Number(raw) => raw.clone(),
                other => format!("{other:?}"),
            })
            .collect::<Vec<_>>(),
        other => vec![format!("{other:?}")],
    };
    format!("{{{}}}", items.join(", "))
}

/// The raw text of a JSON number field (scores are displayed verbatim —
/// the server already rendered them deterministically).
fn raw_number(v: &JsonValue) -> String {
    match v {
        JsonValue::Number(raw) => raw.clone(),
        other => format!("{other:?}"),
    }
}

fn batch_command(o: &BatchOptions) -> Result<(), String> {
    let addr = resolve_addr(&o.addr)?;
    let body = std::fs::read(&o.file).map_err(|e| format!("read {}: {e}", o.file))?;
    let ex =
        mpds_service::client::http_post(addr, "/batch", &body, std::time::Duration::from_secs(120))
            .map_err(|e| format!("POST /batch to {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&ex.body).into_owned();
    if ex.status != 200 {
        return Err(format!("server answered {}: {text}", ex.status));
    }
    if o.json {
        println!("{text}");
        return Ok(());
    }
    let doc = JsonValue::parse(&text).map_err(|e| format!("batch response: {e}"))?;
    let field = |key: &str| -> Result<&JsonValue, String> {
        doc.get(key)?
            .ok_or_else(|| format!("batch response has no {key:?}"))
    };
    println!(
        "batch over {}: {} members (theta {}, seed {}), {} computed on one shared world stream",
        field("dataset")?.as_str("dataset")?,
        field("members")?.as_usize("members")?,
        raw_number(field("theta")?),
        raw_number(field("seed")?),
        field("computed")?.as_usize("computed")?,
    );
    let results = field("results")?.as_array("results")?;
    let sources = field("sources")?.as_array("sources")?;
    for (i, member) in results.iter().enumerate() {
        let mfield = |key: &str| -> Result<&JsonValue, String> {
            member
                .get(key)
                .map_err(|e| format!("member {i}: {e}"))?
                .ok_or_else(|| format!("member {i} has no {key:?}"))
        };
        let source = sources
            .get(i)
            .and_then(|s| s.as_str("source").ok())
            .unwrap_or("?");
        let rows = mfield("results")?.as_array("rows")?;
        let top = match rows.first() {
            Some(row) => {
                let rfield = |key: &str| -> Result<&JsonValue, String> {
                    row.get(key)
                        .map_err(|e| format!("member {i} row: {e}"))?
                        .ok_or_else(|| format!("member {i} row has no {key:?}"))
                };
                format!(
                    "top {} = {}",
                    show_nodes(rfield("nodes")?),
                    raw_number(rfield("score")?)
                )
            }
            None => "no instance in any sampled world".to_string(),
        };
        println!(
            "  #{:<2} {} k={} [{source}]: {} rows, {top}",
            i + 1,
            mfield("algo")?.as_str("algo")?,
            mfield("k")?.as_usize("k")?,
            rows.len(),
        );
    }
    Ok(())
}

fn diff_command(o: &DiffOptions) -> Result<(), String> {
    let addr = resolve_addr(&o.addr)?;
    let path = format!(
        "/diff?dataset={}&against={}&algo={}&notion={}&theta={}&k={}&lm={}&seed={}{}",
        percent_encode(&o.dataset),
        percent_encode(&o.against),
        o.algo,
        o.density,
        o.theta,
        o.k,
        o.lm,
        o.seed,
        if o.heuristic { "&heuristic=true" } else { "" }
    );
    let ex = mpds_service::client::http_get(addr, &path, std::time::Duration::from_secs(120))
        .map_err(|e| format!("GET {path} from {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&ex.body).into_owned();
    if ex.status != 200 {
        return Err(format!("server answered {}: {text}", ex.status));
    }
    if o.json {
        println!("{text}");
        return Ok(());
    }
    let doc = JsonValue::parse(&text).map_err(|e| format!("diff response: {e}"))?;
    let field = |key: &str| -> Result<&JsonValue, String> {
        doc.get(key)?
            .ok_or_else(|| format!("diff response has no {key:?}"))
    };
    println!(
        "diff {} vs {} ({}, theta {}, k {}, seed {}, common random numbers):",
        o.dataset,
        o.against,
        o.algo,
        raw_number(field("theta")?),
        raw_number(field("k")?),
        raw_number(field("seed")?),
    );
    let rows = |key: &str, sign: &str| -> Result<usize, String> {
        let rows = field(key)?.as_array(key)?;
        for row in rows {
            let rfield = |k: &str| -> Result<&JsonValue, String> {
                row.get(k)
                    .map_err(|e| format!("{key} row: {e}"))?
                    .ok_or_else(|| format!("{key} row has no {k:?}"))
            };
            println!(
                "  {sign} {}  score {}",
                show_nodes(rfield("nodes")?),
                raw_number(rfield("score")?)
            );
        }
        Ok(rows.len())
    };
    let entered = rows("entered", "+")?;
    let left = rows("left", "-")?;
    let mut reranked = 0usize;
    for row in field("common")?.as_array("common")? {
        let rfield = |k: &str| -> Result<&JsonValue, String> {
            row.get(k)
                .map_err(|e| format!("common row: {e}"))?
                .ok_or_else(|| format!("common row has no {k:?}"))
        };
        let before = rfield("rank_before")?.as_usize("rank_before")?;
        let after = rfield("rank_after")?.as_usize("rank_after")?;
        if before != after {
            reranked += 1;
            println!(
                "  ~ {}  rank {} -> {}, score {} -> {}",
                show_nodes(rfield("nodes")?),
                before + 1,
                after + 1,
                raw_number(rfield("score_before")?),
                raw_number(rfield("score_after")?)
            );
        }
    }
    if field("unchanged")?.as_bool("unchanged")? {
        println!("  top-k unchanged");
    } else {
        println!("  {entered} entered, {left} left, {reranked} re-ranked");
    }
    println!(
        "  max |score delta| over common sets: {}",
        raw_number(field("max_abs_score_delta")?)
    );
    Ok(())
}

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &cmd {
        Command::Run(o) => run_command(o),
        Command::Serve(o) => serve_command(o),
        Command::Update(o) => update_command(o),
        Command::Batch(o) => batch_command(o),
        Command::Diff(o) => diff_command(o),
        Command::Checkpoint(o) => checkpoint_command(o),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpds_service::engine::DEFAULT_STABLE_WINDOW;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    fn parse_run(args: &[&str]) -> Result<RunOptions, String> {
        match parse(args)? {
            Command::Run(o) => Ok(o),
            _ => panic!("expected run command"),
        }
    }

    fn parse_serve(args: &[&str]) -> Result<ServeOptions, String> {
        match parse(args)? {
            Command::Serve(o) => Ok(o),
            _ => panic!("expected serve command"),
        }
    }

    fn parse_update(args: &[&str]) -> Result<UpdateOptions, String> {
        match parse(args)? {
            Command::Update(o) => Ok(o),
            _ => panic!("expected update command"),
        }
    }

    #[test]
    fn defaults_and_overrides() {
        let o = parse_run(&["mpds", "g.txt"]).unwrap();
        assert_eq!((o.theta, o.k, o.lm, o.seed), (320, 5, 2, 42));
        assert_eq!(o.threads, 1);
        assert!(!o.heuristic && !o.json);
        let o = parse_run(&[
            "nds",
            "g.txt",
            "--theta",
            "99",
            "--k",
            "2",
            "--lm",
            "3",
            "--seed",
            "7",
            "--heuristic",
            "--json",
        ])
        .unwrap();
        assert_eq!((o.theta, o.k, o.lm, o.seed), (99, 2, 3, 7));
        assert!(o.heuristic && o.json);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = parse_run(&["mpds", "g.txt", "--bogus"]).unwrap_err();
        assert!(e.contains("unknown option"), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--theta", "5", "--verbose"]).unwrap_err();
        assert!(e.contains("unknown option \"--verbose\""), "{e}");
        let e = parse_serve(&["serve", "--bogus"]).unwrap_err();
        assert!(e.contains("unknown option"), "{e}");
    }

    #[test]
    fn run_threads_flag_is_parsed_and_validated() {
        // --threads N lends the run N - 1 helper threads; parsing alone
        // bounds it, so no out-of-range count ever starts a thread.
        let o = parse_run(&["mpds", "g.txt", "--threads", "4"]).unwrap();
        assert_eq!(o.threads, 4);
        let o = parse_run(&["nds", "g.txt", "--threads", "64"]).unwrap();
        assert_eq!(o.threads, 64);
        for n in ["0", "65"] {
            let e = parse_run(&["mpds", "g.txt", "--threads", n]).unwrap_err();
            assert!(e.contains("outside 1..=64"), "{e}");
        }
        let e = parse_run(&["nds", "g.txt", "--threads", "x"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--threads", "2", "--threads", "3"]).unwrap_err();
        assert!(e.contains("duplicate option \"--threads\""), "{e}");
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let e = parse_run(&["mpds", "g.txt", "--theta", "5", "--theta", "6"]).unwrap_err();
        assert!(e.contains("duplicate option \"--theta\""), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--heuristic", "--heuristic"]).unwrap_err();
        assert!(e.contains("duplicate option"), "{e}");
        let e = parse_serve(&["serve", "--threads", "2", "--threads", "4"]).unwrap_err();
        assert!(e.contains("duplicate option"), "{e}");
    }

    #[test]
    fn missing_values_and_paths_are_rejected() {
        assert!(parse_run(&["mpds", "g.txt", "--theta"])
            .unwrap_err()
            .contains("missing value"));
        assert!(parse_run(&["mpds"])
            .unwrap_err()
            .contains("missing edge-list path"));
        assert!(parse_run(&["mpds", "--theta"])
            .unwrap_err()
            .contains("missing edge-list path"));
        assert!(parse(&["bogus", "x"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn stop_budget_and_window_flags() {
        let o = parse_run(&["mpds", "g.txt"]).unwrap();
        assert_eq!(o.stop, StopSpec::Fixed);
        assert_eq!(o.budget_ms, None);
        let o = parse_run(&["mpds", "g.txt", "--stop", "stable"]).unwrap();
        assert_eq!(
            o.stop,
            StopSpec::Stable {
                window: DEFAULT_STABLE_WINDOW
            }
        );
        let o = parse_run(&[
            "nds",
            "g.txt",
            "--stop",
            "stable",
            "--window",
            "8",
            "--budget-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(o.stop, StopSpec::Stable { window: 8 });
        assert_eq!(o.budget_ms, Some(250));
        // --window without --stop stable is an error, as on the server.
        let e = parse_run(&["mpds", "g.txt", "--window", "8"]).unwrap_err();
        assert!(e.contains("requires stop=stable"), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--stop", "fixed", "--window", "8"]).unwrap_err();
        assert!(e.contains("requires stop=stable"), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--stop", "eventually"]).unwrap_err();
        assert!(e.contains("expected fixed|stable"), "{e}");
        let e = parse_run(&["mpds", "g.txt", "--budget-ms", "x"]).unwrap_err();
        assert!(e.contains("--budget-ms"), "{e}");
    }

    #[test]
    fn bad_density_fails_in_parse() {
        assert!(parse_run(&["mpds", "g.txt", "--density", "tesseract"])
            .unwrap_err()
            .contains("unknown density"));
        assert!(parse_run(&["mpds", "g.txt", "--density", "9clique"])
            .unwrap_err()
            .contains("outside 2..=8"));
        assert!(parse_run(&["mpds", "g.txt", "--density", "3clique"]).is_ok());
    }

    #[test]
    fn serve_defaults_and_datasets() {
        let o = parse_serve(&["serve"]).unwrap();
        assert_eq!(o.bind, "127.0.0.1:7878");
        assert_eq!((o.threads, o.cache_capacity, o.queue), (4, 256, 64));
        let o = parse_serve(&[
            "serve",
            "--bind",
            "0.0.0.0:0",
            "--threads",
            "2",
            "--dataset",
            "a=/tmp/a.txt",
            "--dataset",
            "b=/tmp/b.txt",
        ])
        .unwrap();
        assert_eq!(o.datasets.len(), 2);
        // --dataset is repeatable, but names must be unique and well-formed.
        assert!(
            parse_serve(&["serve", "--dataset", "a=/x", "--dataset", "a=/y"])
                .unwrap_err()
                .contains("duplicate dataset name")
        );
        assert!(parse_serve(&["serve", "--dataset", "nopath"])
            .unwrap_err()
            .contains("NAME=PATH"));
        assert!(parse_serve(&["serve", "--threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn serve_observability_flags() {
        let o = parse_serve(&["serve"]).unwrap();
        assert_eq!(o.access_log, None);
        assert_eq!(o.slow_ms, None);
        let o = parse_serve(&[
            "serve",
            "--access-log",
            "/tmp/access.jsonl",
            "--slow-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(o.access_log.as_deref(), Some("/tmp/access.jsonl"));
        assert_eq!(o.slow_ms, Some(250));
        assert!(parse_serve(&["serve", "--slow-ms", "soon"])
            .unwrap_err()
            .contains("--slow-ms"));
        assert!(parse_serve(&["serve", "--slow-ms", "1", "--slow-ms", "2"])
            .unwrap_err()
            .contains("duplicate option"));
    }

    #[test]
    fn serve_flight_and_slo_flags() {
        let o = parse_serve(&["serve"]).unwrap();
        assert!(o.flight);
        assert_eq!(o.flight_capacity, 256);
        assert_eq!(o.slow_capacity, 64);
        assert!(o.slo.is_empty());
        let o = parse_serve(&[
            "serve",
            "--no-flight",
            "--flight-capacity",
            "16",
            "--slow-capacity",
            "4",
            "--slo",
            "query:latency:100:0.95",
            "--slo",
            "update:availability:0.999",
        ])
        .unwrap();
        assert!(!o.flight);
        assert_eq!(o.flight_capacity, 16);
        assert_eq!(o.slow_capacity, 4);
        assert_eq!(o.slo.len(), 2);
        assert_eq!(o.slo[0].name, "query-latency-100ms");
        assert_eq!(o.slo[1].name, "update-availability");
        assert!(parse_serve(&["serve", "--flight-capacity", "many"])
            .unwrap_err()
            .contains("--flight-capacity"));
        assert!(parse_serve(&["serve", "--slo", "query:nonsense"])
            .unwrap_err()
            .contains("--slo"));
        // --slo is repeatable, but derived names must be unique.
        assert!(parse_serve(&[
            "serve",
            "--slo",
            "query:availability:0.9",
            "--slo",
            "query:availability:0.99",
        ])
        .unwrap_err()
        .contains("duplicate SLO"));
        assert!(parse_serve(&["serve", "--no-flight", "--no-flight"])
            .unwrap_err()
            .contains("duplicate option"));
    }

    #[test]
    fn serve_mutable_flag() {
        assert!(!parse_serve(&["serve"]).unwrap().mutable);
        assert!(parse_serve(&["serve", "--mutable"]).unwrap().mutable);
        // Duplicate and unknown rejection apply to the new flag too.
        assert!(parse_serve(&["serve", "--mutable", "--mutable"])
            .unwrap_err()
            .contains("duplicate option \"--mutable\""));
        assert!(parse_serve(&["serve", "--immutable"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn serve_durability_flags() {
        let o = parse_serve(&["serve"]).unwrap();
        assert_eq!(o.data_dir, None);
        assert_eq!(o.wal_sync, SyncPolicy::Commit);
        let o =
            parse_serve(&["serve", "--data-dir", "/tmp/mpds", "--wal-sync", "interval"]).unwrap();
        assert_eq!(o.data_dir.as_deref(), Some("/tmp/mpds"));
        assert_eq!(o.wal_sync, SyncPolicy::Interval);
        assert_eq!(
            parse_serve(&["serve", "--wal-sync", "commit"])
                .unwrap()
                .wal_sync,
            SyncPolicy::Commit
        );
        // Unknown sync values fail in parse, before any file or socket I/O.
        let e = parse_serve(&["serve", "--wal-sync", "always"]).unwrap_err();
        assert!(e.contains("--wal-sync"), "{e}");
        assert!(e.contains("expected"), "{e}");
        assert!(parse_serve(&["serve", "--wal-sync"])
            .unwrap_err()
            .contains("missing value"));
        // The new flags get the same duplicate rejection as the rest.
        assert!(
            parse_serve(&["serve", "--data-dir", "/a", "--data-dir", "/b"])
                .unwrap_err()
                .contains("duplicate option \"--data-dir\"")
        );
        assert!(
            parse_serve(&["serve", "--wal-sync", "commit", "--wal-sync", "interval"])
                .unwrap_err()
                .contains("duplicate option \"--wal-sync\"")
        );
    }

    fn parse_checkpoint(args: &[&str]) -> Result<CheckpointOptions, String> {
        match parse(args)? {
            Command::Checkpoint(o) => Ok(o),
            _ => panic!("expected checkpoint command"),
        }
    }

    #[test]
    fn checkpoint_args_parse_and_validate() {
        let o = parse_checkpoint(&["checkpoint", "--dataset", "karate"]).unwrap();
        assert_eq!(o.dataset, "karate");
        assert_eq!(o.addr, "127.0.0.1:7878");
        let o = parse_checkpoint(&["checkpoint", "--dataset", "x", "--addr", "h:1"]).unwrap();
        assert_eq!(o.addr, "h:1");
        assert!(parse_checkpoint(&["checkpoint"])
            .unwrap_err()
            .contains("requires --dataset"));
        assert!(
            parse_checkpoint(&["checkpoint", "--dataset", "a", "--dataset", "b"])
                .unwrap_err()
                .contains("duplicate option \"--dataset\"")
        );
        assert!(
            parse_checkpoint(&["checkpoint", "--dataset", "a", "--bogus"])
                .unwrap_err()
                .contains("unknown option")
        );
        assert!(parse_checkpoint(&["checkpoint", "--dataset"])
            .unwrap_err()
            .contains("missing value"));
    }

    fn parse_batch(args: &[&str]) -> Result<BatchOptions, String> {
        match parse(args)? {
            Command::Batch(o) => Ok(o),
            _ => panic!("expected batch command"),
        }
    }

    #[test]
    fn dataset_names_are_percent_encoded() {
        assert_eq!(percent_encode("karate"), "karate");
        assert_eq!(percent_encode("a-b.c_d~e9"), "a-b.c_d~e9");
        assert_eq!(percent_encode("x&y"), "x%26y");
        assert_eq!(percent_encode("a=b%c+d e/é"), "a%3Db%25c%2Bd%20e%2F%C3%A9");
    }

    fn parse_diff(args: &[&str]) -> Result<DiffOptions, String> {
        match parse(args)? {
            Command::Diff(o) => Ok(o),
            _ => panic!("expected diff command"),
        }
    }

    #[test]
    fn batch_args_parse_and_validate() {
        let o = parse_batch(&["batch", "--file", "spec.json"]).unwrap();
        assert_eq!(o.file, "spec.json");
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert!(!o.json);
        let o = parse_batch(&["batch", "--file", "s", "--addr", "h:1", "--json"]).unwrap();
        assert_eq!(o.addr, "h:1");
        assert!(o.json);
        assert!(parse_batch(&["batch"])
            .unwrap_err()
            .contains("requires --file"));
        assert!(parse_batch(&["batch", "--file", "a", "--file", "b"])
            .unwrap_err()
            .contains("duplicate option \"--file\""));
        assert!(parse_batch(&["batch", "--file", "a", "--bogus"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_batch(&["batch", "--file"])
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn diff_args_parse_and_validate() {
        let o = parse_diff(&["diff", "--dataset", "after", "--against", "before"]).unwrap();
        assert_eq!(o.dataset, "after");
        assert_eq!(o.against, "before");
        assert_eq!((o.theta, o.k, o.lm, o.seed), (320, 5, 2, 42));
        assert_eq!(o.algo, "mpds");
        assert!(!o.heuristic && !o.json);
        let o = parse_diff(&[
            "diff",
            "--dataset",
            "a",
            "--against",
            "b",
            "--algo",
            "nds",
            "--theta",
            "99",
            "--k",
            "2",
            "--density",
            "3clique",
            "--heuristic",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.algo, "nds");
        assert_eq!((o.theta, o.k), (99, 2));
        assert!(o.heuristic && o.json);
        assert!(parse_diff(&["diff", "--against", "b"])
            .unwrap_err()
            .contains("requires --dataset"));
        assert!(parse_diff(&["diff", "--dataset", "a"])
            .unwrap_err()
            .contains("requires --against"));
        assert!(
            parse_diff(&["diff", "--dataset", "a", "--against", "b", "--threads", "2"])
                .unwrap_err()
                .contains("unknown option \"--threads\""),
            "diffs are serial; the flag must not exist"
        );
        assert!(parse_diff(&[
            "diff",
            "--dataset",
            "a",
            "--against",
            "b",
            "--k",
            "1",
            "--k",
            "2"
        ])
        .unwrap_err()
        .contains("duplicate option \"--k\""));
        assert!(
            parse_diff(&["diff", "--dataset", "a", "--against", "b", "--algo", "x"])
                .unwrap_err()
                .contains("algo"),
        );
        assert!(parse_diff(&[
            "diff",
            "--dataset",
            "a",
            "--against",
            "b",
            "--density",
            "tesseract"
        ])
        .unwrap_err()
        .contains("unknown density"));
    }

    #[test]
    fn update_args_parse_and_validate() {
        let o = parse_update(&["update", "--dataset", "karate", "--file", "d.txt"]).unwrap();
        assert_eq!(o.dataset, "karate");
        assert_eq!(o.file, "d.txt");
        assert_eq!(o.addr, "127.0.0.1:7878");
        let o = parse_update(&[
            "update",
            "--addr",
            "10.0.0.1:80",
            "--dataset",
            "x",
            "--file",
            "f",
        ])
        .unwrap();
        assert_eq!(o.addr, "10.0.0.1:80");
        // Required flags, duplicates, unknowns, missing values.
        assert!(parse_update(&["update", "--file", "d.txt"])
            .unwrap_err()
            .contains("requires --dataset"));
        assert!(parse_update(&["update", "--dataset", "karate"])
            .unwrap_err()
            .contains("requires --file"));
        assert!(
            parse_update(&["update", "--dataset", "a", "--dataset", "b", "--file", "f"])
                .unwrap_err()
                .contains("duplicate option \"--dataset\"")
        );
        assert!(parse_update(&["update", "--bogus", "1"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_update(&["update", "--dataset"])
            .unwrap_err()
            .contains("missing value"));
    }
}
