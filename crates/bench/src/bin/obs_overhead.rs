//! Observability overhead gate: a disabled `mpds_obs::Recorder` attached to
//! a query's [`RunControl`] must cost < 2% of end-to-end estimator
//! throughput.
//!
//! ```text
//! cargo run --release -p mpds-bench --bin obs_overhead -- \
//!     [--rounds N] [--batch N] [--check]
//! ```
//!
//! The instrumented pipeline calls `control.recorder()` and opens a span at
//! every stage boundary; with the recorder disabled (every request of a
//! `serve --no-flight` server) the span guard is inert and takes no clock
//! readings.
//! This gate measures that claim: it runs the same `Query::mpds` workload
//! with **no recorder** and with a **disabled recorder** attached, in
//! paired rounds. Each round times one batch of each variant back to back,
//! the order alternating from round to round, and yields one throughput
//! ratio `disabled / bare`; the gate reads the median of those ratios.
//! Drift slower than a round hits both halves of its pair, and a burst of
//! host noise that hits one half moves one ratio, not the median.
//! `--check` (the CI `obs-smoke` job) fails the process when the median
//! drops below 0.98 — i.e. when merely *carrying* the disabled recorder
//! costs 2% or more.

use densest::DensityNotion;
use mpds::api::Query;
use mpds::control::RunControl;
use mpds_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use ugraph::{generators, UncertainGraph};

/// The measured workload: one full MPDS estimator run (sampling, per-world
/// densest solves, accumulation, ranking) on a degree-skewed graph.
fn workload() -> UncertainGraph {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let g = generators::barabasi_albert(300, 5, &mut rng);
    let probs: Vec<f64> = (0..g.num_edges())
        .map(|_| rng.gen_range(0.1..0.9))
        .collect();
    UncertainGraph::new(g, probs)
}

/// Times `batch` full runs under `control`, returning elapsed seconds.
fn time_batch(g: &UncertainGraph, control: &RunControl, batch: usize) -> f64 {
    let start = Instant::now();
    for i in 0..batch {
        let run = Query::mpds(DensityNotion::Edge)
            .theta(32)
            .k(3)
            .seed(1000 + i as u64)
            .control(control.clone())
            .run(g)
            .expect("estimator run");
        std::hint::black_box(run.top_k.len());
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    // 101 short rounds settle the median to about ±1% on a noisy 2-vCPU
    // host, where one round's ratio spreads by ±10%.
    let mut rounds = 101usize;
    let mut batch = 2usize;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = args
                    .next()
                    .expect("--rounds needs a value")
                    .parse()
                    .expect("bad --rounds")
            }
            "--batch" => {
                batch = args
                    .next()
                    .expect("--batch needs a value")
                    .parse()
                    .expect("bad --batch")
            }
            "--check" => check = true,
            other => panic!("unknown argument {other}"),
        }
    }

    assert!(rounds > 0, "--rounds must be at least 1");

    let g = workload();
    let bare = RunControl::unbounded();
    let disabled = RunControl::unbounded().with_recorder(Arc::new(Recorder::new(false)));

    // Warm-up: touch both paths once, untimed.
    time_batch(&g, &bare, 1);
    time_batch(&g, &disabled, 1);

    // Paired rounds, the order alternating so neither variant always runs
    // second. A ratio is bare time over disabled time: disabled / bare
    // throughput.
    let mut ratios = Vec::with_capacity(rounds);
    let (mut bare_s, mut disabled_s) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let (b, d) = if round % 2 == 0 {
            let b = time_batch(&g, &bare, batch);
            (b, time_batch(&g, &disabled, batch))
        } else {
            let d = time_batch(&g, &disabled, batch);
            (time_batch(&g, &bare, batch), d)
        };
        let ratio = b / d;
        eprintln!("round {round}: bare {b:.4}s, disabled-recorder {d:.4}s, ratio {ratio:.4}");
        ratios.push(ratio);
        bare_s.push(b);
        disabled_s.push(d);
    }

    let bare_ops = batch as f64 / median(&mut bare_s);
    let disabled_ops = batch as f64 / median(&mut disabled_s);
    let ratio = median(&mut ratios);
    println!(
        "{{\"schema\":\"mpds-bench/obs_overhead/v2\",\"rounds\":{rounds},\
         \"bare_runs_per_sec\":{bare_ops:.3},\"disabled_recorder_runs_per_sec\":{disabled_ops:.3},\
         \"throughput_ratio\":{ratio:.4},\"floor\":0.98}}"
    );

    if check && ratio < 0.98 {
        eprintln!(
            "overhead gate FAILED: median disabled-recorder throughput ratio {ratio:.4} < 0.98 \
             (carrying the recorder costs >2%)"
        );
        std::process::exit(1);
    }
    if check {
        println!("overhead gate: OK (ratio {ratio:.4} >= 0.98)");
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}
