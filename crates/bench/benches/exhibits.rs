//! One benchmark per paper exhibit: each regenerates its table/figure
//! from a shared pipeline run, so the numbers report the cost of the
//! *aggregation*, while `pipeline_full` reports the cost of the whole
//! reproduction (world + campaigns) at a reduced scale.

use std::sync::OnceLock;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spfail_report::pipeline::Context;
use spfail_report::{figures, tables};

fn shared() -> &'static Context {
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(|| Context::run(0.01, 0xBE7C))
}

fn bench_tables(c: &mut Criterion) {
    let ctx = shared();
    c.bench_function("table1_overlap", |b| {
        b.iter(|| tables::table1(black_box(ctx)))
    });
    c.bench_function("table2_tlds", |b| b.iter(|| tables::table2(black_box(ctx))));
    c.bench_function("table3_probe_outcomes", |b| {
        b.iter(|| tables::table3(black_box(ctx)))
    });
    c.bench_function("table4_breakdown", |b| {
        b.iter(|| tables::table4(black_box(ctx)))
    });
    c.bench_function("table5_tld_patch", |b| {
        b.iter(|| tables::table5(black_box(ctx)))
    });
    c.bench_function("table6_pkgmgr", |b| {
        b.iter(|| tables::table6(black_box(ctx)))
    });
    c.bench_function("table7_behaviors", |b| {
        b.iter(|| tables::table7(black_box(ctx)))
    });
}

fn bench_figures(c: &mut Criterion) {
    let ctx = shared();
    c.bench_function("fig2_final_snapshot", |b| {
        b.iter(|| figures::fig2(black_box(ctx)))
    });
    c.bench_function("fig3_geo", |b| b.iter(|| figures::fig3(black_box(ctx))));
    c.bench_function("fig4_rank", |b| b.iter(|| figures::fig4(black_box(ctx))));
    c.bench_function("fig5_conclusive", |b| {
        b.iter(|| figures::fig5(black_box(ctx)))
    });
    c.bench_function("fig6_window1", |b| b.iter(|| figures::fig6(black_box(ctx))));
    c.bench_function("fig7_full", |b| b.iter(|| figures::fig7(black_box(ctx))));
    c.bench_function("fig8_top1000", |b| b.iter(|| figures::fig8(black_box(ctx))));
    c.bench_function("notify_funnel", |b| {
        b.iter(|| figures::notification_funnel(black_box(ctx)))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    // The entire reproduction — world generation, initial sweep over every
    // host, 34 longitudinal rounds, snapshot, and notifications — at
    // 1:500 scale.
    group.bench_function("pipeline_full_scale_0.002", |b| {
        b.iter(|| Context::run(black_box(0.002), 0xFEED))
    });
    group.bench_function("world_generate_scale_0.01", |b| {
        b.iter(|| {
            spfail_world::World::generate(spfail_world::WorldConfig {
                seed: 0xF00D,
                scale: black_box(0.01),
                ..spfail_world::WorldConfig::default()
            })
        })
    });
    // Multi-seed replication: the bench-harness use case for crossbeam —
    // independent seeds are embarrassingly parallel because each Context
    // owns its whole world.
    group.bench_function("replicate_4_seeds_sequential", |b| {
        b.iter(|| {
            (0..4u64)
                .map(|seed| Context::run(black_box(0.002), 0xC0DE + seed))
                .collect::<Vec<_>>()
                .len()
        })
    });
    group.bench_function("replicate_4_seeds_parallel", |b| {
        b.iter(|| {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..4u64)
                    .map(|seed| scope.spawn(move |_| Context::run(black_box(0.002), 0xC0DE + seed)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect::<Vec<_>>()
                    .len()
            })
            .expect("scope completes")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tables, bench_figures, bench_pipeline);
criterion_main!(benches);
