//! Scaling of the sharded campaign engine (tests/parallel.rs proves the
//! engines equivalent; this measures what the sharding buys).
//!
//! Two views:
//!
//! * **Wall clock** per engine, through the usual criterion harness.
//!   On a shared single-core runner these mostly measure the scheduler,
//!   so they are reported for reference only.
//! * **Simulated makespan** — how long the campaign keeps probers busy
//!   in simulated time. The sequential engine serialises every probe
//!   (connection latency, SMTP round trips, contact-spacing and
//!   greylist waits) on one clock; each shard runs against its own
//!   clock, so a sharded phase costs only its slowest shard. This is
//!   the quantity a real parallel campaign improves, it is
//!   deterministic, and the benchmark asserts the headline claim:
//!   **at 4 shards the campaign is at least 2x faster**.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spfail_prober::CampaignBuilder;
use spfail_world::{World, WorldConfig};

fn bench_world() -> World {
    World::generate(WorldConfig {
        scale: 0.004,
        ..WorldConfig::small(2024)
    })
}

fn scaling_wall_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_wall_clock");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| CampaignBuilder::new().run(black_box(&bench_world())))
    });
    for shards in [1usize, 4] {
        group.bench_function(&format!("sharded_{shards}"), |b| {
            b.iter(|| {
                CampaignBuilder::new()
                    .shards(shards)
                    .run(black_box(&bench_world()))
            })
        });
    }
    group.finish();
}

fn scaling_simulated_makespan(_c: &mut Criterion) {
    let sequential = CampaignBuilder::new()
        .timed()
        .run(&bench_world())
        .timing
        .expect("timed run");
    let baseline = sequential.total();
    eprintln!("campaign_sim_makespan: sequential: {baseline}");

    let mut speedup_at_4 = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let timing = CampaignBuilder::new()
            .shards(shards)
            .timed()
            .run(&bench_world())
            .timing
            .expect("timed run");
        let makespan = timing.total();
        let speedup = baseline.as_secs_f64() / makespan.as_secs_f64();
        eprintln!(
            "campaign_sim_makespan: {shards} shard(s): {makespan} ({speedup:.2}x vs sequential)"
        );
        if shards == 4 {
            speedup_at_4 = speedup;
        }
    }
    assert!(
        speedup_at_4 >= 2.0,
        "4 shards must shorten the simulated campaign at least 2x, got {speedup_at_4:.2}x"
    );
}

criterion_group!(benches, scaling_wall_clock, scaling_simulated_makespan);
criterion_main!(benches);
