//! Benchmark entry point.
//!
//! ```text
//! spfail-perfbench --workload <paper_scale|provider_stream|faulty_resume>
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole-pipeline iterations of the workload for about `--seconds`,
//! checks each iteration's output hash, and prints one JSON object as the
//! last line of stdout: the end-to-end metrics (each stage's median over
//! iterations, in reference seconds, see [`typical`]) with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The first [`WARMUP_ITERATIONS`]
//! are hash-checked but not timed: they grow the allocator's heap to the
//! workload's size, which otherwise makes the first iterations of a run
//! up to a fifth slower than the rest. The traced run alternates traced
//! and untraced iterations, so its `trace.overhead_s` is the traced minus
//! the untraced `wall_s`, then replays single layer calls.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

use spfail_perfbench::heap::{self, MeteredAllocator};
use spfail_perfbench::pace::Yardstick;
use spfail_perfbench::references::{self, parse_seed};
use spfail_perfbench::replay::{self, quantile};
use spfail_perfbench::workload::{median, run_paced, Iteration, Spec, Workload};

#[global_allocator]
static GLOBAL: MeteredAllocator = MeteredAllocator;

/// Untimed iterations at the start of every run.
const WARMUP_ITERATIONS: usize = 1;

/// Fewest timed iterations a run makes, however short `--seconds` is.
const MIN_TIMED: usize = 3;

/// Stop starting iterations after this long, so a run on a slow machine
/// still ends well inside its time limit.
const HARD_STOP_S: f64 = 120.0;

/// Stage times that feed end-to-end metrics rather than per-layer ones.
const END_TO_END_TIMES: [&str; 5] = [
    "setup_s",
    "wall_s",
    "report_s",
    "checkpoint_s",
    "campaign_s",
];

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
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(parse_seed(&value).ok_or("--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0x5bf2_a117),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One timed iteration's record.
struct Sample {
    traced: bool,
    iteration: Iteration,
    peak_bytes: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spfail-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let spec = Spec::new(args.workload, args.seed);
    let mut expected = references::lookup(name, args.seed);
    if expected.is_none() {
        eprintln!(
            "{name}: no recorded reference for seed {}; checking determinism",
            args.seed
        );
    }

    // Allocated before any metering window opens.
    let mut yardstick = Yardstick::new();
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let warmup = attempted < WARMUP_ITERATIONS;
        // Traced first, so a short run has at least as many traced
        // iterations (the per-layer figures) as untraced ones.
        let traced = args.trace && !warmup && attempted % 2 == 1;
        let iteration_start = Instant::now();
        let baseline = heap::start_window();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_paced(&spec, traced, Some(&mut yardstick))
        }));
        let peak_bytes = heap::peak_since(baseline);
        attempted += 1;
        let wall = iteration_start.elapsed().as_secs_f64();
        walls.push(wall);
        eprintln!(
            "{name}: iteration {attempted}{} {wall:.3}s, peak heap {:.1} MiB",
            if warmup {
                " (warm-up)"
            } else if traced {
                " (traced)"
            } else {
                ""
            },
            mib(peak_bytes),
        );
        match result {
            Ok(iteration) => {
                let stages: Vec<String> = END_TO_END_TIMES
                    .iter()
                    .map(|k| format!("{k}={:.4}", time_of(&iteration, k)))
                    .collect();
                eprintln!(
                    "{name}:   {} host_speed={:.3}",
                    stages.join(" "),
                    iteration.speed
                );
                let reference = *expected.get_or_insert(iteration.hash);
                if iteration.hash != reference {
                    eprintln!(
                        "{name}: output hash {:016x} differs from reference {reference:016x}",
                        iteration.hash
                    );
                    failed += 1;
                } else if !warmup {
                    samples.push(Sample {
                        traced,
                        iteration,
                        peak_bytes,
                    });
                }
            }
            Err(_) => failed += 1,
        }
        let elapsed = started.elapsed().as_secs_f64();
        let next_iteration_s = median(&mut walls.clone());
        let timed_enough = attempted >= WARMUP_ITERATIONS + MIN_TIMED;
        if (timed_enough && elapsed + next_iteration_s > args.seconds) || elapsed > HARD_STOP_S {
            break;
        }
    }

    let metrics = if args.trace {
        per_layer(&spec, &samples, &mut yardstick)
    } else {
        end_to_end(&samples)
    };
    eprintln!(
        "{name}: seed {} | {attempted} iterations, failed_frac {:.3} | hash {:016x}",
        args.seed,
        failed as f64 / attempted as f64,
        expected.unwrap_or(0)
    );
    for (metric, value) in metrics.iter() {
        let number = value
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = value.get("unit").and_then(Value::as_str).unwrap_or("");
        eprintln!("  {metric:40} {number:>16.6} {unit}");
    }
    let report = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    ExitCode::SUCCESS
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

/// A run's figure for the stage time `key`: its median over `samples`.
/// The times are already in reference seconds, so the slow spells of a
/// shared host are scaled out of them; what is left is the yardstick's
/// own sampling noise, which the median averages over where a low
/// quantile would pick its outliers.
fn typical(samples: &[&Sample], key: &str) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|s| time_of(&s.iteration, key)).collect();
    median(&mut values)
}

fn time_of(iteration: &Iteration, key: &str) -> f64 {
    iteration.times.get(key).copied().unwrap_or(0.0)
}

fn end_to_end(samples: &[Sample]) -> Map {
    let all: Vec<&Sample> = samples.iter().collect();
    let mut m = Map::new();
    for key in ["setup_s", "wall_s", "report_s", "checkpoint_s"] {
        m.insert(key.into(), metric(typical(&all, key), "s"));
    }
    // With no passing iteration every figure is 0 rather than NaN, so the
    // result line stays valid JSON.
    let hosts = all.first().map_or(0.0, |s| s.iteration.counts["hosts"]);
    let campaign_s = typical(&all, "campaign_s");
    let hosts_per_s = if campaign_s > 0.0 {
        hosts / campaign_s
    } else {
        0.0
    };
    m.insert("hosts_per_s".into(), metric(hosts_per_s, "1/s"));
    // Repeats exactly at a seed, so any iteration would do.
    let mut peaks: Vec<f64> = all.iter().map(|s| mib(s.peak_bytes)).collect();
    m.insert("peak_heap_mib".into(), metric(median(&mut peaks), "MiB"));
    m
}

fn per_layer(spec: &Spec, samples: &[Sample], yardstick: &mut Yardstick) -> Map {
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let mut m = Map::new();
    let Some(last) = traced.last() else {
        return m;
    };
    for key in last.iteration.times.keys() {
        if END_TO_END_TIMES.contains(&key.as_str()) {
            continue;
        }
        let unit = if key.contains("_ms") { "ms" } else { "s" };
        m.insert(key.clone(), metric(typical(&traced, key), unit));
    }
    for (key, &value) in &last.iteration.counts {
        if key == "hosts" {
            continue;
        }
        let unit = if key.ends_with("ratio") {
            "ratio"
        } else if key.contains("bytes") {
            "bytes"
        } else {
            "count"
        };
        m.insert(key.clone(), metric(value, unit));
    }
    m.insert(
        "trace.overhead_s".into(),
        metric(
            typical(&traced, "wall_s") - typical(&untraced, "wall_s"),
            "s",
        ),
    );
    // Replay latencies in reference microseconds, at the host speed
    // sampled before and after the replays.
    let before = yardstick.speed();
    let replays: BTreeMap<&str, Vec<f64>> = replay::run(spec);
    let speed = (before + yardstick.speed()) / 2.0;
    for (stem, values) in replays {
        let mut values: Vec<f64> = values.into_iter().map(|us| us * speed).collect();
        m.insert(
            format!("{stem}_p50"),
            metric(quantile(&mut values, 0.5), "us"),
        );
        m.insert(
            format!("{stem}_p99"),
            metric(quantile(&mut values, 0.99), "us"),
        );
    }
    m
}
