//! Cost of one full pass over the lazy synthesis stream.
//!
//! The streamed engine walks `LazyWorld` four times per run (the sweep
//! feeder, the two retention passes and the Tables 1–4 fold), so the
//! cost of one pass is paid four times over. This bench times whole
//! passes at a fixed scale with no consumer beyond counting, and prints
//! the best and median pass with the population it produced:
//!
//! ```text
//! cargo bench -p spfail-bench --bench world_stream
//! ```
//!
//! `SPFAIL_BENCH_FAST=1` runs three passes instead of nine.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spfail_world::{LazyWorld, WorldConfig};

fn fast() -> bool {
    std::env::var_os("SPFAIL_BENCH_FAST").is_some_and(|v| v != "0")
}

fn config() -> WorldConfig {
    WorldConfig {
        seed: 0x5bf2_a117,
        scale: 1.0,
        ..WorldConfig::default()
    }
}

/// One full pass: (domains, hosts) emitted.
fn pass() -> (usize, usize) {
    let mut domains = 0;
    let mut hosts = 0;
    for step in LazyWorld::new(config()) {
        domains += 1;
        hosts += black_box(&step).fresh.len();
    }
    (domains, hosts)
}

fn stream_pass(_c: &mut Criterion) {
    let passes = if fast() { 3 } else { 9 };
    let mut times = Vec::with_capacity(passes);
    let mut shape = (0, 0);
    for _ in 0..passes {
        let start = Instant::now();
        shape = pass();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    eprintln!(
        "world_stream: scale 1 pass ({} domains, {} hosts): best {:.3} s, median {:.3} s \
         over {passes} passes",
        shape.0,
        shape.1,
        times[0],
        times[passes / 2],
    );
}

criterion_group!(benches, stream_pass);
criterion_main!(benches);
