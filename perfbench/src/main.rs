//! The MPDS service benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-exact|hot-hit|churn-durable --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `mpds-cli`, serves
//! with it as a child process (`serve --threads 2`), drives one workload's
//! closed loop from two client threads for `--seconds`, checks every answer
//! against an in-process replay, and prints a report followed by one JSON
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload again with the flight recorder on and off and replays it
//! in-process to time each layer (see `layers.rs`).

mod client;
mod layers;
mod phase;
mod rng;
mod server;
mod stats;
mod workload;

use layers::Samples;
use phase::{Ctx, Inputs, Phase, Setup, Source, Tally, WorkDir};
use stats::{percentile, Summary};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// Servers set up (and timed) per run; the last one is measured. A cold
/// set-up takes a few milliseconds, so a run repeats it for about a second
/// and reports the median, which a scheduling hiccup cannot move.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Builds the release server from the checkout's own sources.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("crates/service/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/service not found)".to_string());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "mpds-service", "--bin", "mpds-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of mpds-cli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = Path::new(&target).join("release").join("mpds-cli");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// Sets up servers one after another — at least `SETUP_MIN_REPS`, and more
/// while `SETUP_BUDGET` lasts — keeps the last, and returns it with the
/// set-up time of every repetition. Every repetition must warm the same
/// bodies.
fn set_up_reps(ctx: &Ctx, tally: &mut Tally) -> Result<(Setup, Vec<f64>), String> {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut kept: Option<Setup> = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.len() < SETUP_MAX_REPS && started.elapsed() < SETUP_BUDGET)
    {
        // The previous server stops before the next one starts.
        let previous = kept.take();
        let previous_warm = previous.map(|p| p.warm).filter(|w| !w.is_empty());
        let setup = phase::set_up(ctx, false)?;
        if let Some(warm) = previous_warm {
            tally.check(warm == setup.warm, || {
                "warm-up bodies differ between set-ups".to_string()
            });
        }
        secs.push(setup.secs);
        kept = Some(setup);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn line(name: &str, value: f64, unit: &str, detail: &str) {
    println!("  {name:<28} {value:>14.4} {unit:<6} {detail}");
}

/// The machine's CPU time so far, in clock ticks, from the `cpu` line of
/// `/proc/stat`: `(stolen by the hypervisor, all)`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn end_to_end(ctx: &Ctx, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (setup, setup_secs) = set_up_reps(ctx, tally)?;
    let ticks_before = cpu_ticks();
    let mut phase = phase::measure(ctx, &setup, args.seconds);
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    let rss = setup.server.peak_rss_mb()?;
    let warm = setup.warm;
    drop(setup.server);
    phase::verify(ctx, &warm, &mut phase);

    let reads = phase.read_ms();
    if reads.is_empty() {
        return Err("no read completed".to_string());
    }
    let read = Summary::of(&reads).expect("reads present");
    let mut sorted = reads.clone();
    sorted.sort_by(f64::total_cmp);
    let read_p90 = percentile(&sorted, 0.9);
    let setup_s = Summary::of(&setup_secs).expect("set-ups present");
    println!(
        "workload {} seed {} seconds {}",
        ctx.workload.name(),
        args.seed,
        args.seconds
    );
    line("setup_s", setup_s.p50, "s", &setup_s.describe());
    if ctx.workload == Workload::HotHit {
        let sizes = warm.iter().map(Vec::len);
        println!(
            "  hot keys: {} bodies of {}..{} bytes",
            warm.len(),
            sizes.clone().min().unwrap_or(0),
            sizes.max().unwrap_or(0)
        );
    }
    line("read_p50_ms", read.p50, "ms", &read.describe());
    line("read_p90_ms", read_p90, "ms", &format!("(n={})", read.n));
    if ctx.workload == Workload::HotHit {
        match Summary::at(&reads, "p99") {
            Some(v) => line("read_p99_ms", v, "ms", &format!("(n={})", read.n)),
            None => println!("  read_p99_ms: needs 1000 reads, have {}", read.n),
        }
    }
    line(
        "reads_per_s",
        phase.reads_per_s(),
        "1/s",
        &format!("({} reads)", read.n),
    );
    let theta = match &ctx.inputs {
        Inputs::Cold(_) => Some(workload::cold_query(0).theta),
        Inputs::Churn { keys, .. } => Some(keys[0].theta),
        Inputs::Hot(_) => None,
    };
    if let Some(theta) = theta {
        let misses = phase.count(Source::Miss);
        let worlds = (misses * theta) as f64 / phase.wall_s;
        line(
            "worlds_per_s",
            worlds,
            "1/s",
            &format!("({misses} MISS reads × θ={theta})"),
        );
    }
    if ctx.workload == Workload::ChurnDurable {
        if let Some(w) = Summary::of(&phase.writes_ms) {
            let p90 = Summary::at(&phase.writes_ms, "p90");
            line("write_p50_ms", w.p50, "ms", &w.describe());
            match p90 {
                Some(v) => line("write_p90_ms", v, "ms", &format!("(n={})", w.n)),
                None => println!("  write_p90_ms: needs 100 writes, have {}", w.n),
            }
        }
        if let Some(c) = Summary::of(&phase.checkpoints_ms) {
            line("checkpoint_ms", c.p50, "ms", &c.describe());
        }
    }
    tally.absorb(std::mem::take(&mut phase.tally));
    let failed = tally.failed.min(tally.attempted);
    line(
        "error_ratio",
        failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        &format!("({failed} of {} operations)", tally.attempted),
    );
    line("peak_rss_mb", rss, "MiB", "(server VmHWM at workload end)");
    if let Some(share) = steal_share {
        // A shared host that takes CPU time from this VM slows every timing.
        line(
            "host_steal_share",
            share,
            "ratio",
            "(machine CPU time stolen by the hypervisor while measuring)",
        );
    }
    Ok(vec![
        Metric {
            name: "setup_s",
            value: setup_s.p50,
            unit: "s",
        },
        Metric {
            name: "read_p50_ms",
            value: read.p50,
            unit: "ms",
        },
        Metric {
            name: "read_p90_ms",
            value: read_p90,
            unit: "ms",
        },
        Metric {
            name: "reads_per_s",
            value: phase.reads_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MiB",
        },
    ])
}

/// How a per-layer metric is reduced from its samples.
enum Agg {
    P50,
    /// A percentile of another sample list.
    Pct(&'static str, f64),
    Max(&'static str),
    Sum,
}

/// The per-layer metrics, in report order: name, unit, reduction.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("http.overhead_us", "us", Agg::P50),
    ("http.connects_per_read", "count", Agg::P50),
    ("engine.hit_us", "us", Agg::P50),
    ("engine.miss_overhead_us", "us", Agg::P50),
    ("cache.hit_ratio", "ratio", Agg::P50),
    ("engine.coalesced", "count", Agg::P50),
    ("registry.update_ms", "ms", Agg::P50),
    ("registry.build_ms", "ms", Agg::P50),
    ("store.log_batch_us", "us", Agg::P50),
    ("store.checkpoint_ms", "ms", Agg::P50),
    ("store.bytes_per_update", "B", Agg::P50),
    ("ugraph.delta_apply_us", "us", Agg::P50),
    ("ugraph.snapshot_us", "us", Agg::P50),
    ("ugraph.materialize_us", "us", Agg::P50),
    ("sampling.mask_us", "us", Agg::P50),
    ("densest.all_densest_us", "us", Agg::P50),
    ("densest.instances_us", "us", Agg::P50),
    ("densest.max_density_us", "us", Agg::P50),
    ("densest.heuristic_us", "us", Agg::P50),
    (
        "densest.sets_per_world_p50",
        "count",
        Agg::Pct("densest.sets_per_world", 0.5),
    ),
    (
        "densest.sets_per_world_p90",
        "count",
        Agg::Pct("densest.sets_per_world", 0.9),
    ),
    (
        "densest.sets_per_world_max",
        "count",
        Agg::Max("densest.sets_per_world"),
    ),
    ("densest.truncated_worlds", "count", Agg::Sum),
    ("mpds.run_ms", "ms", Agg::P50),
    ("mpds.self_ms", "ms", Agg::P50),
    ("mpds.teardown_ms", "ms", Agg::P50),
    ("mpds.candidates", "count", Agg::P50),
    ("obs.flight_ratio", "ratio", Agg::P50),
];

fn per_layer(ctx: &Ctx, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    // Two halves of the run: flight recorder on (the traced phase), then off.
    let half = args.seconds / 2.0;
    let traced = phase::set_up(ctx, false)?;
    let mut on = phase::measure(ctx, &traced, half);
    let warm = traced.warm;
    drop(traced.server);
    let off_setup = phase::set_up(ctx, true)?;
    let mut off = phase::measure(ctx, &off_setup, half);
    drop(off_setup);
    if on.reads.is_empty() || off.reads.is_empty() {
        return Err("no read completed".to_string());
    }
    let (mut samples, replay_tally) =
        layers::replay(ctx, &on, &warm, Duration::from_secs_f64(args.seconds))?;
    samples.0.insert(
        "obs.flight_ratio",
        vec![off.reads_per_s() / on.reads_per_s()],
    );
    tally.absorb(std::mem::take(&mut on.tally));
    tally.absorb(std::mem::take(&mut off.tally));
    tally.absorb(replay_tally);

    println!(
        "workload {} seed {} seconds {} (traced)",
        ctx.workload.name(),
        args.seed,
        args.seconds
    );
    report_phase("flight on", &on);
    report_phase("flight off", &off);
    let mut out = Vec::new();
    for (name, unit, agg) in PER_LAYER {
        let (value, detail) = reduce(&samples, name, agg);
        let value = match value {
            Some(v) => v,
            None => {
                tally.attempted += 1;
                tally.fail(format!("no samples for {name}"));
                0.0
            }
        };
        line(name, value, unit, &detail);
        out.push(Metric { name, value, unit });
    }
    let failed = tally.failed.min(tally.attempted);
    println!("  checks: {failed} of {} failed", tally.attempted);
    Ok(out)
}

fn report_phase(label: &str, phase: &Phase) {
    let read = Summary::of(&phase.read_ms()).expect("reads present");
    println!(
        "  [{label}] {:.1} reads/s, read {}, {} HIT / {} MISS / {} COALESCED, {} connects",
        phase.reads_per_s(),
        read.describe(),
        phase.count(Source::Hit),
        phase.count(Source::Miss),
        phase.count(Source::Coalesced),
        phase.connects
    );
}

fn reduce(samples: &Samples, name: &str, agg: &Agg) -> (Option<f64>, String) {
    match agg {
        Agg::P50 => match Summary::of(samples.get(name)) {
            Some(s) => (Some(s.p50), s.describe()),
            None => (None, "(no samples)".to_string()),
        },
        Agg::Pct(from, p) => {
            let mut v = samples.get(from).to_vec();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            (
                (n > 0).then(|| percentile(&v, *p)),
                format!("(n={n} worlds)"),
            )
        }
        Agg::Max(from) => {
            let v = samples.get(from);
            (
                v.iter().copied().reduce(f64::max),
                format!("(n={} worlds)", v.len()),
            )
        }
        Agg::Sum => {
            let v = samples.get(name);
            (
                (!v.is_empty()).then(|| v.iter().sum()),
                format!("(n={} worlds)", v.len()),
            )
        }
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let failed = tally.failed.min(tally.attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        tally.attempted.max(1),
        body.join(",")
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bin = build_server()?;
    let ctx = Ctx {
        bin,
        work: WorkDir::new()?,
        workload: args.workload,
        seed: args.seed,
        inputs: Inputs::new(args.workload, args.seed),
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&ctx, &args, &mut tally)?
    } else {
        end_to_end(&ctx, &args, &mut tally)?
    };
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", result_json(&tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
