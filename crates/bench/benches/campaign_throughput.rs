//! End-to-end campaign throughput with the compiled-policy evaluation
//! cache on vs off.
//!
//! The world is deliberately provider-heavy (high shared-hosting rate,
//! many multi-implementation MTAs, almost every set member publishing
//! SPF): that is the regime the paper's Alexa/top-provider sweeps live
//! in, and the regime where cross-probe memoization pays — thousands of
//! probes land on MTAs whose policies intern to a handful of compiled
//! programs.
//!
//! Methodology: the correctness side (cache-on and cache-off runs are
//! bit-for-bit identical) is tier-1 in `tests/policy_cache.rs`; this
//! bench re-asserts it on every timed pair, then reports wall clock.
//! Each timed run gets a **fresh** `World` — `CampaignBuilder::run`
//! advances the shared clock and contact ledger, so reusing one world
//! instance would time a different (spaced) campaign the second time.
//! Wall clock on a shared runner is noisy, so the JSON records the
//! best-of-N of alternating on/off pairs rather than a single sample.
//! Emits `BENCH_campaign_throughput.json` next to the criterion output.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use spfail_prober::{CampaignBuilder, CampaignRun};
use spfail_world::{World, WorldConfig};

fn fast() -> bool {
    std::env::var_os("SPFAIL_BENCH_FAST").is_some_and(|v| v != "0")
}

/// The provider-heavy standard world: `WorldConfig::small` demographics
/// with shared hosting and multi-implementation stacks cranked up, and
/// every sample set dominated by SPF publishers.
fn provider_heavy(scale: f64) -> WorldConfig {
    let mut config = WorldConfig {
        scale,
        shared_hosting_rate: 8.0,
        multi_impl_rate: 0.5,
        ..WorldConfig::small(2024)
    };
    for rates in [
        &mut config.alexa_rates,
        &mut config.two_week_rates,
        &mut config.top_provider_rates,
    ] {
        rates.refuse = 0.05;
        rates.spf_on_mailfrom = 0.45;
        rates.spf_on_data = 0.5;
    }
    config
}

const SHARDS: usize = 4;

fn bench_scale() -> f64 {
    if fast() {
        0.02
    } else {
        0.05
    }
}

fn run_cached(scale: f64) -> (f64, CampaignRun) {
    let world = World::generate(provider_heavy(scale));
    let start = Instant::now();
    let outcome = CampaignBuilder::new().shards(SHARDS).run(&world);
    (start.elapsed().as_secs_f64(), outcome)
}

fn run_uncached(scale: f64) -> (f64, CampaignRun) {
    let world = World::generate(provider_heavy(scale));
    let start = Instant::now();
    let outcome = CampaignBuilder::new()
        .shards(SHARDS)
        .policy_cache(false)
        .run(&world);
    (start.elapsed().as_secs_f64(), outcome)
}

fn campaign(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.bench_function("cached_4_shards", |b| b.iter(|| run_cached(scale).1));
    group.bench_function("uncached_4_shards", |b| b.iter(|| run_uncached(scale).1));
    group.finish();
}

fn emit_json(_c: &mut Criterion) {
    let scale = bench_scale();
    let rounds = if fast() { 3 } else { 5 };

    let mut on_best = f64::INFINITY;
    let mut off_best = f64::INFINITY;
    let mut stats = None;
    let mut hosts = 0usize;
    for _ in 0..rounds {
        let (on_s, on) = run_cached(scale);
        let (off_s, off) = run_uncached(scale);
        // Measurement transparency, re-checked on the timed artifacts:
        // the cache must never change what the campaign observes.
        assert_eq!(
            on.data, off.data,
            "cache-on and cache-off campaigns diverged"
        );
        assert!(off.cache.is_none(), "disabled cache still reported stats");
        on_best = on_best.min(on_s);
        off_best = off_best.min(off_s);
        hosts = on.data.initial.results.len();
        stats = on.cache;
    }
    let stats = stats.expect("cached run reports cache stats");
    let evaluations = stats.hits + stats.misses;
    let hit_rate = stats.hits as f64 / (evaluations.max(1)) as f64;
    let speedup = off_best / on_best;

    let report = serde_json::json!({
        "bench": "campaign_throughput",
        "world": {
            "config": "provider_heavy(WorldConfig::small(2024))",
            "scale": scale,
            "shards": SHARDS,
            "hosts_probed": hosts,
        },
        "methodology": {
            "rounds": rounds,
            "statistic": "best_of_rounds",
            "fresh_world_per_run": true,
            "transparency_checked_per_round": true,
            "uncached_baseline": "policy_cache(false): every SPF check parses and \
                                  compiles its policies through a cache of its own",
        },
        "wall_clock_s": {
            "cached": on_best,
            "uncached": off_best,
        },
        "speedup": speedup,
        "speedup_target": 2.0,
        "policy_cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": hit_rate,
            "interned_policies": stats.interned,
        },
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_campaign_throughput.json"
    );
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write bench report");
    eprintln!(
        "campaign_throughput: cached {on_best:.3}s, uncached {off_best:.3}s, \
         speedup {speedup:.2}x, hit rate {:.1}% ({} policies interned) -> {path}",
        100.0 * hit_rate,
        stats.interned,
    );
    // Regression tripwire: a cache that stops paying for itself should
    // fail the bench loudly. The full 2x headline lives in the JSON
    // (wall clock on shared runners is too noisy for a hard assert).
    assert!(
        speedup > 1.2,
        "policy cache speedup regressed to {speedup:.2}x"
    );
}

criterion_group!(benches, campaign, emit_json);
criterion_main!(benches);
