//! DNS hot-path microbenches for the compact `Name` representation:
//! wire encode/decode round-trip and cached-vs-cold resolves.
//!
//! The allocation *bounds* live in `tests/alloc_count.rs` (tier-1, exact
//! counts); this bench reports the wall-clock side and emits
//! `BENCH_dns_hotpath.json` with the measured numbers so CI runs leave a
//! machine-readable record next to the criterion output.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spfail_dns::rdata::{RData, Record};
use spfail_dns::{
    wire, Directory, Message, Name, RecordType, Resolver, StaticAuthority, ZoneBuilder,
};
use spfail_netsim::{Link, SimClock, SimRng};

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A response-shaped message with heavy shared suffixes — the case the
/// compression scanner earns its keep on.
fn fixture_message() -> Message {
    let qname = n("k7q2.suite1.spf-test.dns-lab.org");
    let mut m = Message::query(41, qname.clone(), RecordType::TXT);
    m.answers.push(Record::new(
        qname.clone(),
        300,
        RData::txt("v=spf1 a:%{d1r}.foo.com include:spf.dns-lab.org -all"),
    ));
    for host in ["mail", "mx1", "mx2", "backup"] {
        let owner = n(&format!("{host}.suite1.spf-test.dns-lab.org"));
        m.answers.push(Record::new(
            owner.clone(),
            300,
            RData::Mx {
                preference: 10,
                exchange: n("mail.dns-lab.org"),
            },
        ));
        m.additionals.push(Record::new(
            owner,
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 25)),
        ));
    }
    m
}

fn resolver_fixture() -> (Resolver, SimRng) {
    let directory = Directory::new();
    let zone = ZoneBuilder::new(n("example.com"))
        .a(&n("example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
        .a(&n("mail.example.com"), 300, Ipv4Addr::new(192, 0, 2, 25))
        .mx(&n("example.com"), 300, 10, &n("mail.example.com"))
        .txt(&n("example.com"), 300, "v=spf1 a mx -all")
        .build();
    directory.register(Arc::new(StaticAuthority::new(zone)));
    let clock = SimClock::new();
    let resolver = Resolver::new(
        directory,
        Link::ideal(clock),
        "198.51.100.1".parse().unwrap(),
    );
    (resolver, SimRng::new(0x5bf5_fa11))
}

/// Median ns/op over `samples` timed batches, calibrated like the
/// criterion stand-in but returning the number (the stand-in only
/// prints, and the JSON exhibit needs the value).
fn measure_ns<R>(samples: usize, mut routine: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(routine());
    let single = start.elapsed().as_nanos().max(1);
    let iters = (2_000_000u128 / single).clamp(1, 100_000) as u64;
    let mut medians: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    medians.sort_unstable();
    medians[medians.len() / 2] as f64
}

fn wire_codec(c: &mut Criterion) {
    let message = fixture_message();
    let encoded = wire::encode(&message);
    let mut group = c.benchmark_group("dns_hotpath");
    group.bench_function("encode", |b| b.iter(|| wire::encode(black_box(&message))));
    group.bench_function("decode", |b| {
        b.iter(|| wire::decode(black_box(&encoded)).unwrap())
    });
    group.bench_function("encode_decode_round_trip", |b| {
        b.iter(|| wire::decode(&wire::encode(black_box(&message))).unwrap())
    });
    group.finish();
}

fn resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("dns_hotpath");
    group.bench_function("resolve_cold", |b| {
        b.iter(|| {
            // A fresh resolver per iteration: every lookup misses.
            let (mut resolver, mut rng) = resolver_fixture();
            resolver
                .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
                .unwrap()
        })
    });
    let (mut resolver, mut rng) = resolver_fixture();
    resolver
        .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
        .unwrap();
    group.bench_function("resolve_cached", |b| {
        b.iter(|| {
            resolver
                .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
                .unwrap()
        })
    });
    group.finish();
}

fn emit_json(_c: &mut Criterion) {
    let message = fixture_message();
    let encoded = wire::encode(&message);
    let samples = 9;

    let encode_ns = measure_ns(samples, || wire::encode(&message));
    let decode_ns = measure_ns(samples, || wire::decode(&encoded).unwrap());
    let cold_ns = measure_ns(samples, || {
        let (mut resolver, mut rng) = resolver_fixture();
        resolver
            .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
            .unwrap()
    });
    let (mut resolver, mut rng) = resolver_fixture();
    resolver
        .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
        .unwrap();
    let cached_ns = measure_ns(samples, || {
        resolver
            .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
            .unwrap()
    });

    let report = serde_json::json!({
        "bench": "dns_hotpath",
        "fixture": {
            "message_records": message.answers.len() + message.additionals.len(),
            "encoded_bytes": encoded.len(),
        },
        "ns_per_op": {
            "wire_encode": encode_ns,
            "wire_decode": decode_ns,
            "resolve_cold": cold_ns,
            "resolve_cached": cached_ns,
        },
        "allocs_per_op": {
            // Enforced exactly in crates/bench/tests/alloc_count.rs;
            // recorded here so one artifact carries both dimensions.
            "resolve_cold_budget": 12,
            "resolve_cached_budget": 3,
            "vec_string_baseline_cold": 85,
            "vec_string_baseline_cached": 18,
        },
    });
    // Anchor to the workspace root (cargo bench runs in the package
    // dir), next to exhibits.json.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dns_hotpath.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write bench report");
    eprintln!(
        "dns_hotpath: encode {encode_ns:.0} ns, decode {decode_ns:.0} ns, \
         resolve cold {cold_ns:.0} ns, cached {cached_ns:.0} ns -> {path}"
    );
}

criterion_group!(benches, wire_codec, resolve, emit_json);
criterion_main!(benches);
