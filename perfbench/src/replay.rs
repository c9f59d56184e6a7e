//! Layer replays for the traced run: one layer call at a time over a
//! fixed sample of the workload's own hosts, each timed on its own.
//!
//! The sample is every `n / SAMPLE`-th host of the workload's world
//! (generated eagerly here; a streamed world is host-for-host the same).
//! For each sampled host the replay builds its MTA, probes it once with
//! the workload's fault options, classifies that probe's query-log
//! window, parses, compiles and evaluates the SPF policy the probe's
//! sender domain publishes (cold cache, against the world directory),
//! and resolves, encodes and decodes every name the probe queried.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use spfail::dns::{wire, Message, QueryLog, Resolver, SpfTestAuthority};
use spfail::libspf2::MacroBehavior;
use spfail::netsim::{Link, Metrics, SimRng};
use spfail::prober::{classify, ethics::MAX_CONCURRENT, ProbeContext, ProbeTest, Prober};
use spfail::spf::{CompiledEvaluator, CompiledPolicy, PolicyCache, SpfRecord};
use spfail::trace::Tracer;
use spfail::world::{HostId, MtaInstrumentation, Timeline, World};

use crate::workload::Spec;

/// Hosts in the replay sample (fewer when the world is smaller).
const SAMPLE: usize = 1000;

/// The suite label replay probes carry.
const SUITE: &str = "bench";

/// Per-layer replay latencies in microseconds, keyed by metric stem
/// (`mta.build_us`, …), one sample per replayed call.
pub fn run(spec: &Spec) -> BTreeMap<&'static str, Vec<f64>> {
    let world = World::generate(spec.config());
    let runtime = world.runtime();
    let n = world.hosts.len();
    let sample: Vec<HostId> = (0..SAMPLE.min(n))
        .map(|i| HostId((i * n / SAMPLE.min(n)) as u32))
        .collect();
    let options = spec.options();
    let mut prober = Prober::with_options(
        &world,
        SUITE,
        ProbeContext::shared(&world).with_policy_cache(true),
        MAX_CONCURRENT,
        options,
    );
    let authority = SpfTestAuthority::new(runtime.zone_origin.clone(), QueryLog::new());
    let origin = runtime.zone_origin.to_ascii();
    let day = Timeline::INITIAL;
    let mut rng = SimRng::new(spec.seed).fork("replay");
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut time = |name: &'static str, start: Instant| {
        out.entry(name)
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e6);
    };

    for host in sample {
        let record = world.host(host);
        let start = Instant::now();
        let mta = runtime.build_mta_record(
            host,
            record,
            day,
            runtime.directory.clone(),
            runtime.clock.clone(),
            MtaInstrumentation {
                dns_faults: options.faults.dns,
                metrics: Metrics::new(),
                reroll: None,
                tracer: Tracer::disabled(),
                policy_cache: None,
            },
        );
        time("mta.build_us", start);
        drop(black_box(mta));

        let log = prober.context().query_log.clone();
        let log_start = log.len();
        let start = Instant::now();
        let outcome = prober.probe(host, day, ProbeTest::NoMsg, 0);
        time("prober.probe_us", start);
        let entries = log.entries_from(log_start);
        let start = Instant::now();
        black_box(classify(&entries, &outcome.id, SUITE, &runtime.zone_origin));
        time("prober.classify_us", start);

        let policy = authority.policy_for(&outcome.id, SUITE);
        let start = Instant::now();
        let parsed = SpfRecord::parse(&policy).expect("the measurement zone's policy parses");
        time("spf.parse_us", start);
        let start = Instant::now();
        black_box(CompiledPolicy::compile(&parsed));
        time("spf.compile_us", start);

        let client = IpAddr::V4(record.ip);
        let mut resolver = Resolver::new(
            runtime.directory.clone(),
            Link::ideal(runtime.clock.clone()),
            client,
        );
        let behavior = record
            .profile
            .mta_config("replay", day)
            .spf_impls
            .first()
            .copied()
            .unwrap_or(MacroBehavior::Compliant);
        let mut expander = behavior.expander();
        let mut cache = PolicyCache::new();
        let sender_domain = format!("{}.{SUITE}.{origin}", outcome.id);
        let start = Instant::now();
        {
            let mut dns = |name: &_, rtype| resolver.resolve(&mut rng, name, rtype);
            let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut cache);
            black_box(eval.check_host(
                IpAddr::V4(Ipv4Addr::new(203, 0, 113, 25)),
                "postmaster",
                &sender_domain,
            ));
        }
        time("spf.check_host_us", start);

        for (i, entry) in entries.iter().enumerate() {
            resolver.flush_cache();
            let start = Instant::now();
            let _ = black_box(resolver.resolve(&mut rng, &entry.qname, entry.qtype));
            time("dns.resolve_us", start);
            let query = Message::query(i as u16, entry.qname.clone(), entry.qtype);
            let start = Instant::now();
            let bytes = wire::encode(&query);
            time("dns.wire_encode_us", start);
            let start = Instant::now();
            black_box(wire::decode(&bytes).expect("an encoded query decodes"));
            time("dns.wire_decode_us", start);
        }
    }
    out
}

/// The `q`-quantile (0..=1) of `values` by nearest rank. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
