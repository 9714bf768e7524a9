//! The traced run's per-layer measurements, taken from outside the program:
//! the workload's served inputs are replayed in-process and each layer's
//! public entry point is timed around its call.

use crate::phase::{builtin, Ctx, Inputs, Phase, Source, Tally};
use crate::workload::{cold_query, ScriptGen, Workload, CHECKPOINT_EVERY, CLIENTS, READS_PER_KEY};
use densest::heuristic::heuristic_dense_subgraphs;
use densest::solve::instances_of;
use densest::{all_densest, max_density, DensityNotion};
use mpds::api::{Query, RunDetails, SamplerKind};
use mpds_service::engine::{
    parse_notion, render_query_response, render_stats, EngineConfig, ResponsePayload,
};
use mpds_service::registry::LoadedGraph;
use mpds_service::{GraphRegistry, QueryEngine, QueryRequest, ResponseSource};
use mpds_store::{Store, SyncPolicy};
use sampling::WorldSampler;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugraph::{DeltaGraph, EdgeMask, Graph};

/// Per-world densest-subgraph enumeration cap (the estimator's default).
const ENUMERATION_CAP: usize = 100_000;

/// Mutation rounds timed on workloads that do not write.
const PROBE_ROUNDS: usize = 32;

/// Fresh registries whose first `get` is timed.
const BUILD_REPS: usize = 3;

/// Named samples, one list per per-layer metric.
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wraps the query's own sampler: times every mask and keeps a copy, so the
/// replay materializes exactly the worlds the query saw.
struct Recording {
    inner: Box<dyn WorldSampler>,
    masks: Vec<EdgeMask>,
    mask_us: Vec<f64>,
}

impl WorldSampler for Recording {
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        let t = Instant::now();
        self.inner.next_mask_into(mask);
        self.mask_us.push(us(t));
        self.masks.push(mask.clone());
    }

    fn aux_memory_bytes(&self) -> usize {
        self.inner.aux_memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The core query a served request runs (serial, Monte Carlo, fixed θ).
fn core_query(req: &QueryRequest) -> Query {
    let notion = parse_notion(&req.notion).expect("generated notion parses");
    Query::mpds(notion)
        .theta(req.theta)
        .k(req.k)
        .seed(req.seed)
        .heuristic(req.heuristic)
}

/// Times one MISS computation layer by layer and checks that the replayed
/// top-k renders to exactly the served body. Returns `mpds.run_ms`.
fn miss_layers(
    s: &mut Samples,
    tally: &mut Tally,
    g: &LoadedGraph,
    req: &QueryRequest,
    served: &[u8],
) -> f64 {
    let mut sampler = Recording {
        inner: SamplerKind::MonteCarlo.build(&g.graph, req.seed),
        masks: Vec::new(),
        mask_us: Vec::new(),
    };
    let t = Instant::now();
    let run = core_query(req)
        .run_with_sampler(&g.graph, &mut sampler)
        .expect("replayed query runs");
    let run_ms = ms(t);
    let payload = ResponsePayload {
        score_name: run.score.as_str(),
        rows: run
            .top_k
            .iter()
            .map(|(set, score)| (set.iter().map(|&v| g.label_of(v)).collect(), *score))
            .collect(),
        empty_worlds: run.stats.empty_worlds,
        truncated: run.stats.truncated,
        worlds_sampled: run.stats.worlds_sampled,
        stop_reason: run.stats.stop_reason.as_str(),
        converged_at: run.stats.converged_at,
    };
    let same = render_query_response(req, &payload).as_bytes() == served;
    tally.check(same, || {
        format!(
            "seed {}: replayed top-k differs from the served body",
            req.seed
        )
    });
    if let RunDetails::Mpds(r) = &run.details {
        s.push("mpds.candidates", r.candidates.len() as f64);
    }
    let t = Instant::now();
    drop(run);
    s.push("mpds.teardown_ms", ms(t));

    let notion: DensityNotion = parse_notion(&req.notion).expect("generated notion parses");
    let mut world = Graph::default();
    let mut owned_us: f64 = sampler.mask_us.iter().sum();
    for (mask, &mask_us) in sampler.masks.iter().zip(&sampler.mask_us) {
        s.push("sampling.mask_us", mask_us);
        let t = Instant::now();
        world = g.graph.world_from_bitmap(mask, world);
        let materialize = us(t);
        s.push("ugraph.materialize_us", materialize);
        // The solver the query used runs first, straight after the world
        // is built, as inside the estimator loop.
        let time_heuristic = || {
            let t = Instant::now();
            std::hint::black_box(heuristic_dense_subgraphs(&world, &notion));
            us(t)
        };
        let heuristic_first = req.heuristic.then(&time_heuristic);
        let t = Instant::now();
        let all = all_densest(&world, &notion, ENUMERATION_CAP);
        let all_us = us(t);
        let heuristic_us = heuristic_first.unwrap_or_else(time_heuristic);
        s.push("densest.all_densest_us", all_us);
        s.push("densest.heuristic_us", heuristic_us);
        let (sets, truncated) = all.map_or((0, false), |a| (a.subgraphs.len(), a.truncated));
        s.push("densest.sets_per_world", sets as f64);
        s.push("densest.truncated_worlds", f64::from(u8::from(truncated)));
        let t = Instant::now();
        std::hint::black_box(instances_of(&world, &notion));
        s.push("densest.instances_us", us(t));
        let t = Instant::now();
        std::hint::black_box(max_density(&world, &notion));
        s.push("densest.max_density_us", us(t));
        owned_us += materialize + if req.heuristic { heuristic_us } else { all_us };
    }
    s.push("mpds.run_ms", run_ms);
    s.push("mpds.self_ms", run_ms - owned_us / 1e3);
    run_ms
}

/// Executes `req` on the in-process engine, checks how it was answered and
/// what it returned, and records the engine-side time in microseconds.
fn engine_call(
    engine: &QueryEngine,
    tally: &mut Tally,
    req: &QueryRequest,
    want: ResponseSource,
    served: &[u8],
) -> f64 {
    let t = Instant::now();
    let r = engine.execute_traced(req).expect("replayed query executes");
    let elapsed = us(t);
    let ok = r.source == want && r.body.as_slice() == served;
    tally.check(ok, || {
        format!(
            "in-process {:?} of seed {} differs from the served {:?}",
            r.source, req.seed, want
        )
    });
    elapsed
}

/// Computes a served MISS both through the engine and layer by layer
/// through the core query, alternating which goes first so neither always
/// meets the warmer heap. Returns the engine's time in microseconds.
fn miss_pair(
    engine: &QueryEngine,
    s: &mut Samples,
    tally: &mut Tally,
    req: &QueryRequest,
    served: &[u8],
    engine_first: bool,
) -> f64 {
    let g = engine.registry().get(&req.dataset).expect("served dataset");
    let mut engine_us = 0.0;
    if engine_first {
        engine_us = engine_call(engine, tally, req, ResponseSource::Miss, served);
    }
    let run_ms = miss_layers(s, tally, &g, req, served);
    if !engine_first {
        engine_us = engine_call(engine, tally, req, ResponseSource::Miss, served);
    }
    s.push("engine.miss_overhead_us", engine_us - run_ms * 1e3);
    engine_us
}

/// Client latency of every served read, by read id.
fn client_ms(phase: &Phase) -> HashMap<u64, f64> {
    phase.reads.iter().map(|r| (r.id, r.ms)).collect()
}

/// Replays the traced phase's reads (and, on churn-durable, its writes)
/// through an in-process engine until `deadline`.
fn replay_engine(
    ctx: &Ctx,
    phase: &Phase,
    warm: &[Vec<u8>],
    deadline: Instant,
) -> (Samples, Tally) {
    let mut s = Samples::default();
    let mut tally = Tally::default();
    let engine = QueryEngine::new(GraphRegistry::with_builtins(), &EngineConfig::default());
    let client = client_ms(phase);
    let overhead = |s: &mut Samples, id: u64, engine_us: f64| {
        if let Some(c) = client.get(&id) {
            s.push("http.overhead_us", c * 1e3 - engine_us);
        }
    };
    match &ctx.inputs {
        Inputs::Cold(plan) => {
            // The first read of each query; the in-process engine caches,
            // so a later read of it would be a HIT.
            let mut seen = HashSet::new();
            let firsts = phase
                .cold_bodies
                .iter()
                .filter(|(i, _)| seen.insert(plan.slot(*i)));
            for (n, (i, served)) in firsts.enumerate() {
                if n > 0 && Instant::now() >= deadline {
                    break;
                }
                let req = cold_query(plan.slot(*i));
                let miss_us = miss_pair(&engine, &mut s, &mut tally, &req, served, n % 2 == 0);
                overhead(&mut s, *i, miss_us);
                let hit_us = engine_call(&engine, &mut tally, &req, ResponseSource::Hit, served);
                s.push("engine.hit_us", hit_us);
            }
        }
        Inputs::Hot(plan) => {
            // Every key is warmed; the first ones are also timed layer by
            // layer, as far as the budget allows.
            for (j, key) in plan.keys.iter().enumerate() {
                if j > 0 && Instant::now() >= deadline {
                    engine_call(&engine, &mut tally, key, ResponseSource::Miss, &warm[j]);
                } else {
                    miss_pair(&engine, &mut s, &mut tally, key, &warm[j], j % 2 == 0);
                }
            }
            for (n, read) in phase.reads.iter().enumerate() {
                if n > 0 && Instant::now() >= deadline {
                    break;
                }
                let key = plan.read(read.id);
                let hit_us = engine_call(
                    &engine,
                    &mut tally,
                    &plan.keys[key],
                    ResponseSource::Hit,
                    &warm[key],
                );
                s.push("engine.hit_us", hit_us);
                overhead(&mut s, read.id, hit_us);
            }
        }
        Inputs::Churn { keys, base } => {
            let ds = ctx.workload.write_dataset();
            let mut script = ScriptGen::new(ctx.seed, base);
            for round in 0..phase.rounds {
                if round > 0 && Instant::now() >= deadline {
                    break;
                }
                let batch = script.next_batch();
                let out = engine
                    .apply_update(ds, batch.body.as_bytes())
                    .expect("replayed batch applies");
                tally.check(out.generation == round as u64 + 1, || {
                    format!(
                        "in-process round {round} reached generation {}",
                        out.generation
                    )
                });
                for (j, key) in keys.iter().enumerate() {
                    let served = &phase.churn_bodies[round][j];
                    let id = |rep: usize| ((round * CLIENTS + j) * READS_PER_KEY + rep) as u64;
                    let engine_first = (round + j) % 2 == 0;
                    let miss_us = miss_pair(&engine, &mut s, &mut tally, key, served, engine_first);
                    overhead(&mut s, id(0), miss_us);
                    for rep in 1..READS_PER_KEY {
                        let hit_us =
                            engine_call(&engine, &mut tally, key, ResponseSource::Hit, served);
                        s.push("engine.hit_us", hit_us);
                        overhead(&mut s, id(rep), hit_us);
                    }
                }
            }
        }
    }
    (s, tally)
}

/// Times the write path's layers on the workload's mutation script (the
/// served one on churn-durable, a seeded probe script on the dataset the
/// read-only workloads serve): registry, WAL and checkpoint, and the
/// `DeltaGraph` overlay.
fn replay_writes(ctx: &Ctx, rounds: usize, deadline: Instant) -> Result<(Samples, Tally), String> {
    let mut s = Samples::default();
    let mut tally = Tally::default();
    let ds = ctx.workload.write_dataset();
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");

    for _ in 0..BUILD_REPS {
        let mut registry = GraphRegistry::with_builtins();
        if ctx.workload == Workload::ChurnDurable {
            let store = Store::create(&ctx.work.fresh("build"), SyncPolicy::Commit)
                .map_err(|e| io("build store", e))?;
            registry.set_store(store);
        }
        let t = Instant::now();
        for name in ctx.workload.datasets() {
            registry.get(name)?;
        }
        s.push("registry.build_ms", ms(t));
    }

    let base = builtin(ds).graph.clone();
    let mut script = ScriptGen::new(ctx.seed, &base);
    let mut registry = GraphRegistry::with_builtins();
    registry.set_store(
        Store::create(&ctx.work.fresh("registry"), SyncPolicy::Commit)
            .map_err(|e| io("registry store", e))?,
    );
    registry.get(ds)?;
    let mut wal = Store::create(&ctx.work.fresh("store"), SyncPolicy::Commit)
        .map_err(|e| io("store", e))?
        .open_dataset(ds)
        .map_err(|e| format!("open store: {e}"))?
        .store;
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let labels: Vec<u32> = (0..base.num_nodes() as u32).collect();
    let mut done = 0;
    while done < rounds.max(1) && (done == 0 || Instant::now() < deadline) {
        let batch = script.next_batch();
        let generation = done as u64 + 1;
        let t = Instant::now();
        let out = registry.apply_update(ds, batch.body.as_bytes())?;
        s.push("registry.update_ms", ms(t));
        tally.check(out.generation == generation, || {
            format!(
                "registry reached generation {} for {generation}",
                out.generation
            )
        });
        let t = Instant::now();
        delta
            .apply(&batch.batch)
            .map_err(|e| format!("delta apply: {e}"))?;
        s.push("ugraph.delta_apply_us", us(t));
        let t = Instant::now();
        let snapshot = delta.snapshot();
        s.push("ugraph.snapshot_us", us(t));
        let before = wal.wal_bytes();
        let t = Instant::now();
        wal.log_batch(generation, batch.body.as_bytes())
            .map_err(|e| io("log batch", e))?;
        s.push("store.log_batch_us", us(t));
        s.push("store.bytes_per_update", (wal.wal_bytes() - before) as f64);
        done += 1;
        if done.is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            wal.checkpoint(snapshot.graph(), &labels, generation)
                .map_err(|e| io("checkpoint", e))?;
            s.push("store.checkpoint_ms", ms(t));
        }
    }
    let snapshot = delta.snapshot();
    if s.get("store.checkpoint_ms").is_empty() {
        let t = Instant::now();
        wal.checkpoint(snapshot.graph(), &labels, snapshot.generation())
            .map_err(|e| io("checkpoint", e))?;
        s.push("store.checkpoint_ms", ms(t));
    }
    let served = render_stats(ds, &registry.get(ds)?.graph);
    let replayed = render_stats(ds, snapshot.graph());
    tally.check(served == replayed, || {
        "registry state differs from the DeltaGraph replay".to_string()
    });
    Ok((s, tally))
}

/// Every per-layer sample of the traced run. `phase` is the traced HTTP
/// phase (flight recorder on) and `warm` its set-up's warm-up bodies; the
/// replay spends at most `budget`.
pub fn replay(
    ctx: &Ctx,
    phase: &Phase,
    warm: &[Vec<u8>],
    budget: Duration,
) -> Result<(Samples, Tally), String> {
    let started = Instant::now();
    let rounds = match ctx.workload {
        Workload::ChurnDurable => phase.rounds,
        _ => PROBE_ROUNDS,
    };
    let (mut s, mut tally) = replay_writes(ctx, rounds, started + budget.mul_f64(0.3))?;
    let (engine_samples, engine_tally) = replay_engine(ctx, phase, warm, started + budget);
    for (name, v) in engine_samples.0 {
        s.0.entry(name).or_default().extend(v);
    }
    tally.absorb(engine_tally);
    let reads = phase.reads.len().max(1) as f64;
    s.push("cache.hit_ratio", phase.count(Source::Hit) as f64 / reads);
    s.push("engine.coalesced", phase.count(Source::Coalesced) as f64);
    s.push(
        "http.connects_per_read",
        phase.connects as f64 / phase.requests.max(1) as f64,
    );
    Ok((s, tally))
}
