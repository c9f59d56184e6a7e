//! Peak-heap footprint of the streaming campaign engine vs the eager
//! one, measured with a byte-counting global allocator.
//!
//! The streaming driver's claim is architectural — peak heap
//! O(shards + tracked + masks) instead of O(hosts) — and the hard
//! budgets live in tier-1 (`crates/bench/tests/alloc_count.rs`). This
//! bench *measures* the curve: eager and streaming campaigns over the
//! same worlds at two scales, recording each mode's high-water mark and
//! wall clock, re-asserting cross-mode record equality on every
//! measured pair (bounded memory must never cost a bit of output).
//! Emits `BENCH_memory_footprint.json` next to the criterion output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use spfail_prober::{CampaignBuilder, CampaignSummary};
use spfail_world::{World, WorldConfig};

struct MeteredAllocator;

static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for MeteredAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let now =
            CURRENT_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let now = CURRENT_BYTES.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: MeteredAllocator = MeteredAllocator;

/// Peak heap growth of `f` over the live bytes at entry, plus wall
/// clock. Criterion runs benches single-threaded, so the window is
/// exclusive without a lock.
fn metered<R>(f: impl FnOnce() -> R) -> (u64, f64, R) {
    let baseline = CURRENT_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(baseline, Ordering::SeqCst);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let peak = PEAK_BYTES.load(Ordering::SeqCst);
    (peak.saturating_sub(baseline), wall, out)
}

fn fast() -> bool {
    std::env::var_os("SPFAIL_BENCH_FAST").is_some_and(|v| v != "0")
}

fn config(scale: f64) -> WorldConfig {
    WorldConfig {
        seed: 0x5bf2_a117,
        scale,
        ..WorldConfig::default()
    }
}

/// One eager + one streaming campaign over the same world config;
/// returns the per-mode (peak bytes, wall seconds) and the host count,
/// having asserted that both runs hold the same sweep record and the
/// same longitudinal data (`initial` aside: a streamed sweep leaves it
/// empty, the mask column is its record).
fn measure_pair(scale: f64) -> ((u64, f64), (u64, f64), usize) {
    let (eager_peak, eager_wall, eager_record) = metered(|| {
        let world = World::generate(config(scale));
        let mut data = CampaignBuilder::new().run(&world).data;
        let summary = CampaignSummary::from_data(&data);
        data.initial = Default::default();
        (summary, data)
    });
    let (streaming_peak, streaming_wall, streamed_record) = metered(|| {
        let run = CampaignBuilder::new().run_streaming(config(scale)).run;
        (run.summary, run.data)
    });
    assert_eq!(
        eager_record, streamed_record,
        "bounded memory must not change a single measurement"
    );
    let hosts = eager_record.0.masks.len();
    (
        (eager_peak, eager_wall),
        (streaming_peak, streaming_wall),
        hosts,
    )
}

fn footprint(c: &mut Criterion) {
    let scale = if fast() { 0.01 } else { 0.02 };
    let mut group = c.benchmark_group("streaming_memory");
    group.sample_size(10);
    group.bench_function("eager_campaign", |b| {
        b.iter(|| {
            let world = World::generate(config(scale));
            CampaignBuilder::new().run(&world).data
        })
    });
    group.bench_function("streaming_campaign", |b| {
        b.iter(|| CampaignBuilder::new().run_streaming(config(scale)).run.data)
    });
    group.finish();
}

fn emit_json(_c: &mut Criterion) {
    // Two points on the curve: the ratio should *fall* as the world
    // grows, because the eager side is O(hosts) and the streaming side
    // is dominated by flat terms plus the 4-byte mask column.
    let scales: &[f64] = if fast() { &[0.01, 0.04] } else { &[0.02, 0.08] };
    let mut points = Vec::new();
    let mut last_ratio = f64::NAN;
    for &scale in scales {
        let ((eager_peak, eager_wall), (streaming_peak, streaming_wall), hosts) =
            measure_pair(scale);
        let ratio = streaming_peak as f64 / eager_peak.max(1) as f64;
        eprintln!(
            "streaming_memory: scale {scale} ({hosts} hosts): eager {:.1} MiB / {:.2}s, \
             streaming {:.1} MiB / {:.2}s, ratio {:.1}%",
            eager_peak as f64 / (1 << 20) as f64,
            eager_wall,
            streaming_peak as f64 / (1 << 20) as f64,
            streaming_wall,
            100.0 * ratio,
        );
        points.push(serde_json::json!({
            "scale": scale,
            "hosts": hosts,
            "eager_peak_bytes": eager_peak,
            "streaming_peak_bytes": streaming_peak,
            "peak_ratio": ratio,
            "eager_wall_s": eager_wall,
            "streaming_wall_s": streaming_wall,
        }));
        last_ratio = ratio;
    }
    let report = serde_json::json!({
        "bench": "streaming_memory",
        "world": { "config": "WorldConfig::default()", "seed": "0x5bf2a117" },
        "methodology": {
            "allocator": "byte-counting global allocator, high-water mark over baseline",
            "equality_checked_per_pair": true,
            "statistic": "single measured pair per scale",
        },
        "points": points,
        "budget": {
            "tier1": "crates/bench/tests/alloc_count.rs (always-on <=50%, 50K-host soak <=25%)",
        },
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_memory_footprint.json"
    );
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write bench report");
    eprintln!("streaming_memory: wrote {path}");
    // Regression tripwire: at the largest measured scale the streaming
    // engine must hold a decisive advantage (the hard tier-1 budget is
    // stricter; this guards the bench itself staying meaningful).
    assert!(
        last_ratio < 0.5,
        "streaming peak-heap ratio regressed to {:.1}% of eager",
        100.0 * last_ratio
    );
}

criterion_group!(benches, footprint, emit_json);
criterion_main!(benches);
