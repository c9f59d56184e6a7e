//! Allocation budget for the DNS resolve hot path, enforced in tier-1.
//!
//! A counting global allocator wraps the system allocator and the test
//! asserts hard upper bounds on heap allocations per cold
//! `Resolver::resolve` and per cached hit. The bounds are set at least 5x
//! below what the pre-compact `Name { labels: Vec<String> }`
//! representation measured (see DESIGN.md, "Name representation and
//! allocation budget"), so any change that reintroduces per-label or
//! per-lookup allocation fails tier-1 here — an exact count that
//! wall-clock noise cannot hide.
//!
//! Allocation counts are per thread: only allocations made by the thread
//! inside [`count_allocs`] are counted, so fixtures other test threads
//! build — or the backtraces they print when they fail — never land in a
//! budget. No budgeted closure spawns threads, so this is every
//! allocation the measured code makes. Peak-heap windows (whole
//! campaigns, which do spawn worker threads) stay process-wide, so every
//! test holds [`exclusive`] for its whole body: the tests of this file
//! run one at a time, and no other test's fixtures land in a window (or
//! free memory during one, which once read an eager campaign's peak as
//! 0.4 MiB instead of 1.8).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use spfail_dns::{Directory, Name, RecordType, Resolver, StaticAuthority, ZoneBuilder};
use spfail_netsim::{Link, SimClock, SimRng};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`count_allocs`]; only its allocations
    /// count. `const`-initialized with no destructor, so reading it never
    /// allocates (which would recurse into the allocator).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a counting window. `try_with`
/// answers `false` during thread teardown instead of panicking.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

thread_local! {
    /// Bytes the thread inside a counting window allocated minus the
    /// bytes it freed there; read by [`retained_bytes`].
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Add `delta` to the calling thread's [`NET_BYTES`] if it is counting.
fn note_bytes(delta: i64) {
    if counting() {
        let _ = NET_BYTES.try_with(|n| n.set(n.get() + delta));
    }
}

/// Live heap bytes right now. Tracked from the first allocation of the
/// process, so every dealloc pairs with a tracked alloc and the counter
/// never underflows.
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CURRENT_BYTES`] since the last reset.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        note_bytes(layout.size() as i64);
        let now =
            CURRENT_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as i64));
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        note_bytes(new_size as i64 - layout.size() as i64);
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let now = CURRENT_BYTES.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Serialises the tests of this file; each holds the guard for its
/// whole body.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another test failed; holding it is
    // still exclusive.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Heap allocations performed by `f` on the calling thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let after = ALLOCS.load(Ordering::SeqCst);
    (after - before, out)
}

/// Heap bytes `f` leaves allocated on the calling thread: what it
/// allocated minus what it freed. Counted per thread, like
/// [`count_allocs`], so other test threads never land in the figure.
fn retained_bytes<R>(f: impl FnOnce() -> R) -> (i64, R) {
    NET_BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (NET_BYTES.with(Cell::get), out)
}

/// Peak heap growth of `f` over the live bytes at entry — the
/// high-water mark a campaign's working set reaches above its baseline.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let baseline = CURRENT_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(baseline, Ordering::SeqCst);
    let out = f();
    let peak = PEAK_BYTES.load(Ordering::SeqCst);
    (peak.saturating_sub(baseline), out)
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn fixture() -> (Resolver, SimRng) {
    let directory = Directory::new();
    let origin = n("example.com");
    let zone = ZoneBuilder::new(origin.clone())
        .a(&n("example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
        .a(&n("mail.example.com"), 300, Ipv4Addr::new(192, 0, 2, 25))
        .mx(&n("example.com"), 300, 10, &n("mail.example.com"))
        .txt(
            &n("example.com"),
            300,
            "v=spf1 a mx include:spf.example.com -all",
        )
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

/// The pre-compact `Vec<String>` representation measured 85 allocations
/// for the cold resolve below and 18 per cached hit (see DESIGN.md for
/// the breakdown). The bounds assert the >=5x reduction (85/5 = 17,
/// 18/5 = 3.6) and are set below even that so headroom never erodes
/// silently.
const COLD_RESOLVE_BUDGET: u64 = 12;
const CACHED_HIT_BUDGET: u64 = 3;

#[test]
fn resolve_hot_path_stays_within_allocation_budget() {
    let _exclusive = exclusive();
    let (mut resolver, mut rng) = fixture();
    let qname = n("mail.example.com");

    // Warm up lazy one-time structures (query-id state, link metrics)
    // against an unrelated name so the measured resolve is steady-state.
    resolver
        .resolve(&mut rng, &n("example.com"), RecordType::MX)
        .unwrap();

    let (cold, outcome) =
        count_allocs(|| resolver.resolve(&mut rng, &qname, RecordType::A).unwrap());
    assert_eq!(outcome.records().len(), 1, "fixture must answer");

    let (hit, outcome) =
        count_allocs(|| resolver.resolve(&mut rng, &qname, RecordType::A).unwrap());
    assert_eq!(outcome.records().len(), 1, "cache must answer");

    eprintln!("alloc_count: cold resolve = {cold}, cached hit = {hit}");
    assert!(
        cold <= COLD_RESOLVE_BUDGET,
        "cold Resolver::resolve allocated {cold} times, budget {COLD_RESOLVE_BUDGET} \
         (Vec<String> baseline was 85; the compact Name must stay >=5x below it)"
    );
    assert!(
        hit <= CACHED_HIT_BUDGET,
        "cached hit allocated {hit} times, budget {CACHED_HIT_BUDGET} \
         (Vec<String> baseline was 18; the compact Name must stay >=5x below it)"
    );
}

/// TXT policies are what SPF evaluation actually fetches; make sure the
/// multi-record path (TXT rdata carries owned strings) also stays flat.
#[test]
fn txt_resolve_allocation_budget() {
    let _exclusive = exclusive();
    let (mut resolver, mut rng) = fixture();
    let qname = n("example.com");
    resolver
        .resolve(&mut rng, &n("mail.example.com"), RecordType::A)
        .unwrap();

    let (cold, _) = count_allocs(|| resolver.resolve(&mut rng, &qname, RecordType::TXT).unwrap());
    let (hit, _) = count_allocs(|| resolver.resolve(&mut rng, &qname, RecordType::TXT).unwrap());
    eprintln!("alloc_count: cold TXT resolve = {cold}, cached TXT hit = {hit}");
    // TXT rdata owns its strings, so the cold path pays for the record
    // copy into the cache; the cached hit must still be O(1) shared.
    // Vec<String> baseline: 59 cold / 18 hit; 59/5 = 11.8.
    assert!(cold <= 11, "cold TXT resolve allocated {cold} times");
    assert!(
        hit <= CACHED_HIT_BUDGET,
        "cached TXT hit allocated {hit} times"
    );
}

/// Tracing must be free when it is off: a resolver carrying a *disabled*
/// `Tracer` allocates exactly as much as one carrying no tracer at all —
/// zero extra allocations on the cached-resolve hot path. The enabled
/// path pays a bounded per-span cost (events plus the lazily formatted
/// label), capped here so instrumentation creep shows up in tier-1.
#[test]
fn tracing_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_trace::{TraceConfig, Tracer};

    let cached_hit = |resolver: &mut Resolver, rng: &mut SimRng, qname: &Name| {
        let (allocs, outcome) =
            count_allocs(|| resolver.resolve(rng, qname, RecordType::A).unwrap());
        assert_eq!(outcome.records().len(), 1, "cache must answer");
        allocs
    };

    // Baseline: no tracer attached.
    let (mut resolver, mut rng) = fixture();
    let qname = n("mail.example.com");
    resolver.resolve(&mut rng, &qname, RecordType::A).unwrap();
    let baseline = cached_hit(&mut resolver, &mut rng, &qname);

    // A disabled tracer must change nothing: same cached-hit count, and
    // zero allocations attributable to tracing.
    resolver.set_tracer(Tracer::disabled());
    let disabled = cached_hit(&mut resolver, &mut rng, &qname);
    eprintln!("alloc_count: cached hit baseline = {baseline}, with disabled tracer = {disabled}");
    assert_eq!(
        disabled, baseline,
        "a disabled Tracer must add zero allocations to the cached-resolve hot path"
    );
    assert_eq!(
        disabled, 0,
        "the cached-resolve hot path with tracing disabled must stay allocation-free"
    );

    // Enabled tracing, inside an open probe record (the campaign shape):
    // amortized per-span overhead over a run of cached resolves.
    let tracer = Tracer::new(TraceConfig::enabled());
    resolver.set_tracer(tracer.clone());
    tracer.begin_probe(spfail_netsim::SimTime::EPOCH, 0, 0, 0, 0);
    // Warm up the event buffer so Vec growth amortizes out of the sample.
    for _ in 0..4 {
        resolver.resolve(&mut rng, &qname, RecordType::A).unwrap();
    }
    const SPANS: u64 = 32;
    let (traced, _) = count_allocs(|| {
        for _ in 0..SPANS {
            resolver.resolve(&mut rng, &qname, RecordType::A).unwrap();
        }
    });
    let per_span = (traced.saturating_sub(baseline * SPANS)) / SPANS;
    eprintln!(
        "alloc_count: traced cached hit = {per_span} allocs/span over baseline \
         ({traced} total over {SPANS})"
    );
    assert!(
        per_span <= PER_SPAN_TRACING_BUDGET,
        "enabled tracing averaged {per_span} allocations per dns_resolve span, \
         budget {PER_SPAN_TRACING_BUDGET}"
    );
}

/// Measured: 3 allocations per traced span on the run above — the
/// formatted label String, its `Some(String)` event slot, and amortized
/// event-buffer growth. The budget leaves room for one more field
/// without letting a per-event or per-byte allocation (10x+) sneak past.
const PER_SPAN_TRACING_BUDGET: u64 = 4;

/// The differential conformance oracle runs `run_case` thousands of
/// times per tier-1 run (and 5000 times in the CI smoke), so its
/// per-case allocation count is a budgeted quantity like the resolve hot
/// path: a regression here multiplies straight into fuzz wall-clock.
/// The budget is an average over a fixed slice of generated cases —
/// individual cases vary widely (include chains, void pileups).
#[test]
fn conformance_oracle_per_case_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_conformance::{generate_case, run_case};

    const SEED: u64 = 0x5bf5_fa11;
    const SAMPLE: u64 = 16;

    // Warm-up: fault any lazy one-time structures.
    let _ = run_case(&generate_case(SEED, 0));

    let cases: Vec<_> = (0..SAMPLE).map(|i| generate_case(SEED, i)).collect();
    let (allocs, reports) = count_allocs(|| cases.iter().map(run_case).collect::<Vec<_>>());
    assert_eq!(reports.len(), SAMPLE as usize);
    let per_case = allocs / SAMPLE;
    eprintln!("alloc_count: conformance oracle = {per_case} allocs/case ({allocs} over {SAMPLE})");
    assert!(
        per_case <= PER_CASE_ORACLE_BUDGET,
        "conformance oracle averaged {per_case} allocations per case, \
         budget {PER_CASE_ORACLE_BUDGET}"
    );
}

/// The compiled-policy cache hot path (see `spfail_spf::compile`): a
/// result-memo hit must be a pure probe — **zero** allocations, no
/// record parse, no op interpretation — and a warm intern must pay only
/// the canonical-text key (one String, plus padding for allocator
/// noise). The cold compile is pinned too, so the lowering never grows
/// a per-term or per-byte allocation silently.
#[test]
fn policy_cache_allocation_budget() {
    let _exclusive = exclusive();
    use std::net::IpAddr;

    use spfail_spf::{PolicyCache, SpfResult};

    let text = "v=spf1 ip4:192.0.2.0/24 ip4:198.51.100.0/24 ~all";
    let ip: IpAddr = "192.0.2.9".parse().unwrap();

    // Warm up the cache's lazy map storage with an unrelated policy so
    // the cold measurement is the compile, not HashMap table growth.
    let mut cache = PolicyCache::new();
    let (warm_id, _) = cache.intern("v=spf1 -all").unwrap();
    cache.insert_result(warm_id, ip, SpfResult::Fail);

    let (cold, interned) = count_allocs(|| cache.intern(text).unwrap());
    let (id, policy) = interned;
    assert!(policy.memoizable(), "fixture policy must be memoizable");
    cache.insert_result(id, ip, SpfResult::SoftFail);

    let (warm_intern, _) = count_allocs(|| cache.intern(text).unwrap());
    let (memo_hit, result) = count_allocs(|| cache.memo_result(id, ip));
    assert_eq!(result, Some(SpfResult::SoftFail));

    eprintln!(
        "alloc_count: policy compile cold = {cold}, warm intern = {warm_intern}, \
         memo hit = {memo_hit}"
    );
    assert_eq!(
        memo_hit, 0,
        "a result-memo hit must not allocate — it is the evaluation hot path"
    );
    assert!(
        warm_intern <= WARM_INTERN_BUDGET,
        "warm intern allocated {warm_intern} times, budget {WARM_INTERN_BUDGET} \
         (one canonical-text String plus headroom)"
    );
    assert!(
        cold <= COLD_COMPILE_BUDGET,
        "cold compile allocated {cold} times, budget {COLD_COMPILE_BUDGET}"
    );
}

/// Measured: 1 allocation per warm intern (the canonicalized key) and
/// 7 for the cold parse+compile of the three-term fixture. The budgets
/// sit ~50% above measured: tight enough that a per-term
/// interpretation sneaking into the hit path (10x+) fails immediately.
const WARM_INTERN_BUDGET: u64 = 2;
const COLD_COMPILE_BUDGET: u64 = 12;

/// Measured: ~900 allocations per case on the fixed slice above (9
/// profile evaluations plus two reference expansions of every macro
/// string in the case). The budget sits ~50% above the measured value:
/// tight enough to catch an accidental per-byte or per-query allocation
/// (those show up as 10x), loose enough to absorb generator drift when
/// cases get richer.
const PER_CASE_ORACLE_BUDGET: u64 = 1400;

/// A longitudinal round probe — the probe the campaign issues ~240K
/// times at paper scale — of a tracked host with a warm policy cache:
/// its whole allocation count, averaged over eight round days (so the
/// repetition counters' amortised table growth is part of it). The
/// probe's identity stream, sender domain, connection replay and
/// classification window are allocation-free; what is left is the
/// probe id, the MTA and its SMTP session, and the outcome itself.
#[test]
fn round_probe_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_prober::{ethics::MAX_CONCURRENT, ProbeContext, ProbeOptions, ProbeTest, Prober};
    use spfail_world::{Timeline, World, WorldConfig};

    let world = World::generate(WorldConfig::small(123));
    let days = Timeline::all_round_days();
    const PROBES: u64 = 8;
    let prober = || {
        let ctx = ProbeContext::isolated(&world).with_policy_cache(true);
        Prober::with_options(&world, "s1", ctx, MAX_CONCURRENT, ProbeOptions::default())
    };
    let probe = |prober: &mut Prober, host, day| {
        prober
            .probe(host, day, ProbeTest::NoMsg, 1)
            .classification
            .vulnerable()
    };
    // Probe streams depend only on the probe's identity, so a dry run on
    // another prober finds a host whose every probe here concludes
    // (every host of a small world is a little flaky).
    let host = world
        .initially_vulnerable_hosts()
        .into_iter()
        .find(|&h| {
            let p = &world.host(h).profile;
            let mut dry = prober();
            p.blacklist_after.is_none()
                && !p.greylist
                && p.quirk == spfail_mta::SmtpQuirk::None
                && days[..2 + PROBES as usize]
                    .iter()
                    .all(|&day| probe(&mut dry, h, day))
        })
        .expect("a vulnerable host every probe measures");
    let mut prober = prober();
    // Warm the policy cache (compile, result memo, replay script).
    for &day in &days[..2] {
        assert!(probe(&mut prober, host, day));
    }
    let (allocs, vulnerable) = count_allocs(|| {
        days[2..2 + PROBES as usize]
            .iter()
            .all(|&day| probe(&mut prober, host, day))
    });
    assert!(vulnerable, "every measured probe must conclude");
    let per_probe = allocs / PROBES;
    eprintln!(
        "alloc_count: round probe = {per_probe} allocs ({allocs} over {PROBES}, host {host:?})"
    );
    assert!(
        per_probe <= ROUND_PROBE_BUDGET,
        "a warm round probe allocated {per_probe} times on average, budget {ROUND_PROBE_BUDGET}"
    );
}

/// Measured: 36 allocations per probe (58 before the prober reused one
/// MTA and fixed replies stopped copying their text; 78 before the
/// probe's identity labels, connection replay, classification window
/// and transaction plan stopped allocating). Most of the rest is the
/// first probes of a new id shape recording replay scripts; a fully
/// warm probe makes 8 (30 before): its id, its sender domain, the
/// session's hostname, banner, EHLO and rejection texts, one spliced
/// query name and its classification. The ~10% headroom lets a field be
/// added, while a per-probe MTA build (4) or copied reply texts
/// (several per probe) fail.
const ROUND_PROBE_BUDGET: u64 = 40;

/// Rebuilding the prober's reused MTA for the next host: once its
/// strings, lists and tables have grown to the hosts' shape, a rebuild —
/// hostname, behaviour, random stream, and every per-instance field
/// reset — allocates nothing, even after the MTA ran a transaction that
/// validated, greylisted and warmed its resolver.
#[test]
fn mta_rebuild_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_mta::mta::ConnectDecision;
    use spfail_smtp::address::EmailAddress;
    use spfail_smtp::command::Command;
    use spfail_world::{HostId, MtaInstrumentation, World, WorldConfig};

    let world = World::generate(WorldConfig::small(123));
    let runtime = world.runtime();
    let mut validating = world.initially_vulnerable_hosts().into_iter().filter(|&h| {
        let p = &world.host(h).profile;
        p.impls.len() == 1
            && p.spf_stage == spfail_mta::SpfStage::OnMailFrom
            && p.quirk == spfail_mta::SmtpQuirk::None
            && p.blacklist_after.is_none()
    });
    let (a, b): (HostId, HostId) = (
        validating.next().expect("a validating host"),
        validating.next().expect("a second validating host"),
    );
    let mut mta = runtime.build_mta_record(
        a,
        world.host(a),
        0,
        runtime.directory.clone(),
        runtime.clock.clone(),
        MtaInstrumentation {
            dns_faults: spfail_netsim::FaultPlan::NONE,
            metrics: spfail_netsim::Metrics::new(),
            reroll: None,
            tracer: spfail_trace::Tracer::disabled(),
            policy_cache: Some(spfail_mta::new_policy_cache()),
        },
    );
    let sender = EmailAddress::parse("mmj7yzdm0tbk@k7q2.s1.spf-test.dns-lab.org").unwrap();
    let transact = |mta: &mut spfail_mta::Mta| {
        assert_eq!(
            mta.connect("203.0.113.25".parse().unwrap()),
            ConnectDecision::Proceed
        );
        let (mut session, _) = mta.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(sender.clone()));
    };
    // Grow every buffer to the pair's shape, one rebuild each way.
    for host in [b, a] {
        transact(&mut mta);
        runtime.rebuild_mta_record(&mut mta, host, world.host(host), 0, None);
    }
    transact(&mut mta);
    assert!(
        !mta.validations().is_empty(),
        "the MTA validated before the rebuild"
    );
    let (allocs, ()) =
        count_allocs(|| runtime.rebuild_mta_record(&mut mta, b, world.host(b), 0, None));
    eprintln!("alloc_count: warm MTA rebuild = {allocs}");
    assert_eq!(
        allocs, 0,
        "rebuilding a warm MTA for a same-shape host must not allocate"
    );
}

/// The checkpoint codec's allocations, at two host counts. `to_text`
/// writes an eager state into one buffer sized up front, so its count
/// does not grow with the hosts; `parse` allocates at most what the
/// parsed state owns — each probe outcome's id, each non-empty behaviour
/// set, one column per round, two per worker (contacts, counts) and the
/// state's three top-level columns — plus its one token buffer.
#[test]
fn checkpoint_codec_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_prober::{CampaignBuilder, CampaignState};
    use spfail_world::{World, WorldConfig};

    let mut to_text_allocs = Vec::new();
    for scale in [0.005, 0.01] {
        let world = World::generate(WorldConfig {
            seed: 0x5bf2_a117,
            scale,
            ..WorldConfig::default()
        });
        let mut session = CampaignBuilder::new().session(&world);
        session.initial_sweep();
        while session.advance_round().is_some() {}
        let state = session.to_state();
        assert!(state.trace_records.is_empty(), "tracing is off");

        let (to_text, text) = count_allocs(|| state.to_text());
        let (parse, parsed) = count_allocs(|| CampaignState::parse(&text));
        assert!(parsed.expect("an engine-written checkpoint parses") == state);
        let outcomes: Vec<_> = state
            .initial
            .iter()
            .flat_map(|(_, r)| std::iter::once(&r.nomsg).chain(&r.blankmsg))
            .collect();
        let behavior_sets = outcomes
            .iter()
            .filter(|o| !o.classification.behaviors.is_empty())
            .count();
        let owned =
            outcomes.len() + behavior_sets + state.rounds.len() + 2 * state.workers.len() + 3;
        eprintln!(
            "alloc_count: checkpoint codec at {} hosts ({} bytes): to_text = {to_text}, \
             parse = {parse} (state owns {owned})",
            state.initial.len(),
            text.len()
        );
        assert!(
            parse as usize <= owned + 1,
            "parse allocated {parse} times, more than the {owned} allocations the state \
             owns plus its token buffer"
        );
        to_text_allocs.push(to_text);
    }
    assert_eq!(
        to_text_allocs[0], to_text_allocs[1],
        "to_text's allocations grew with the host count"
    );
    assert!(
        to_text_allocs[1] <= TO_TEXT_BUDGET,
        "to_text allocated {} times, budget {TO_TEXT_BUDGET}",
        to_text_allocs[1]
    );
}

/// Measured: 1 — the text buffer, sized once (before, the buffer grew
/// by doubling and every probe outcome formatted its tokens into fresh
/// strings).
const TO_TEXT_BUDGET: u64 = 1;

/// Run one eager campaign and report (peak heap growth, hosts probed).
fn eager_campaign_peak(config: &spfail_world::WorldConfig) -> (u64, usize) {
    use spfail_prober::CampaignBuilder;
    use spfail_world::World;
    peak_heap(|| {
        let world = World::generate(config.clone());
        let run = CampaignBuilder::new().run(&world);
        run.data.initial.results.len()
    })
}

/// Run one streaming campaign and report (peak heap growth, hosts probed).
fn streaming_campaign_peak(config: &spfail_world::WorldConfig) -> (u64, usize) {
    use spfail_prober::CampaignBuilder;
    peak_heap(|| {
        let streamed = CampaignBuilder::new().run_streaming(config.clone());
        assert!(
            !streamed.run.summary.tracked.is_empty(),
            "a degenerate campaign would make the budget vacuous"
        );
        streamed.run.summary.masks.len()
    })
}

/// The streaming engine's bounded-memory claim, always-on at a small
/// scale: peak heap growth of a full streaming campaign stays under
/// half the eager engine's. (At this scale fixed overheads — channel
/// buffers, the retained population, each worker's reused MTA and
/// policy cache — still loom large; a worker's query log holds only the
/// current host's queries. The ratio tightens as the world grows, which
/// the `50k` and million-host soaks below pin at ≤25%.)
#[test]
fn streaming_campaign_peak_heap_stays_under_half_of_eager() {
    let _exclusive = exclusive();
    let config = spfail_world::WorldConfig {
        seed: 0x5bf2_a117,
        scale: 0.01,
        ..spfail_world::WorldConfig::default()
    };
    let (eager_peak, eager_hosts) = eager_campaign_peak(&config);
    let (streaming_peak, streamed_hosts) = streaming_campaign_peak(&config);
    assert_eq!(
        eager_hosts, streamed_hosts,
        "both modes probed the same world"
    );
    eprintln!(
        "alloc_count: {eager_hosts}-host campaign peak heap: eager {:.1} MiB, \
         streaming {:.1} MiB ({:.1}%)",
        eager_peak as f64 / (1 << 20) as f64,
        streaming_peak as f64 / (1 << 20) as f64,
        100.0 * streaming_peak as f64 / eager_peak.max(1) as f64,
    );
    assert!(
        streaming_peak * 2 <= eager_peak,
        "streaming peak heap ({streaming_peak} B) must stay under half the eager \
         engine's ({eager_peak} B) even at {eager_hosts} hosts"
    );
}

/// The ISSUE-9 acceptance budget: at a ~50K-host world the streaming
/// campaign's peak heap is ≤25% of the eager engine's. Release-mode
/// soak — minutes of wall clock — so it is `#[ignore]`d out of tier-1
/// and run by the scheduled CI soak job (`cargo test --release -p
/// spfail-bench --test alloc_count -- --ignored 50k_hosts`).
#[test]
#[ignore = "release-mode soak (~50K hosts); run with --ignored"]
fn streaming_peak_heap_is_quarter_of_eager_at_50k_hosts() {
    let _exclusive = exclusive();
    // Default demographics put ~191K unique server addresses at scale
    // 1.0, so 0.26 lands within a few percent of 50K hosts.
    let config = spfail_world::WorldConfig {
        seed: 0x5bf2_a117,
        scale: 0.26,
        ..spfail_world::WorldConfig::default()
    };
    let (eager_peak, hosts) = eager_campaign_peak(&config);
    let (streaming_peak, streamed_hosts) = streaming_campaign_peak(&config);
    assert_eq!(hosts, streamed_hosts);
    assert!(
        hosts >= 40_000,
        "world too small for the 50K budget ({hosts} hosts)"
    );
    eprintln!(
        "alloc_count: {hosts}-host soak peak heap: eager {:.1} MiB, streaming \
         {:.1} MiB ({:.1}%)",
        eager_peak as f64 / (1 << 20) as f64,
        streaming_peak as f64 / (1 << 20) as f64,
        100.0 * streaming_peak as f64 / eager_peak.max(1) as f64,
    );
    assert!(
        streaming_peak * 4 <= eager_peak,
        "streaming peak heap ({streaming_peak} B) exceeded 25% of eager \
         ({eager_peak} B) at {hosts} hosts"
    );
}

/// The million-host soak: the streaming engine completes a campaign the
/// eager engine's O(hosts) residency makes impractical, within a flat
/// absolute budget — O(shards + tracked + masks) in practice means the
/// 4-byte mask column plus the retained few percent. `#[ignore]`d:
/// ~a minute of release-mode wall clock; the scheduled CI soak job
/// runs it.
#[test]
#[ignore = "release-mode soak (~1M hosts, long); run with --ignored"]
fn streaming_campaign_completes_a_million_host_world_within_budget() {
    let _exclusive = exclusive();
    let config = spfail_world::WorldConfig {
        seed: 0x5bf2_a117,
        scale: 5.4,
        ..spfail_world::WorldConfig::default()
    };
    let (streaming_peak, hosts) = streaming_campaign_peak(&config);
    assert!(
        hosts >= 1_000_000,
        "world too small for the soak ({hosts} hosts)"
    );
    eprintln!(
        "alloc_count: {hosts}-host streaming soak peak heap growth {:.1} MiB",
        streaming_peak as f64 / (1 << 20) as f64,
    );
    // 48 B/host covers the mask column and retention bookkeeping with
    // 12x headroom; the flat term covers the retained population and
    // per-round columns. The eager engine's world alone (records, names,
    // profiles) wants well over a gigabyte before probing starts.
    let budget = hosts as u64 * 48 + (512 << 20);
    assert!(
        streaming_peak <= budget,
        "streaming peak heap {streaming_peak} B exceeded the {budget} B budget \
         at {hosts} hosts"
    );
}

/// Allocations per step of the lazy synthesis stream. Every pass over
/// the population (the streamed sweep with its retention fold, the
/// Tables 1–4 fold) pays them once per domain, so a step allocates only
/// what it hands out: the domain's name and host list, the fresh-host
/// vector when the step creates hosts, and each fresh host's
/// implementation list. TLDs are static strings and the 2-Week rank is
/// read by a cursor, so nothing else is allocated. Measured: 2.80 per
/// step on this world (7.52 when a step still grew its formatted name,
/// cloned its TLD into two strings and rebuilt a weight vector per
/// draw).
#[test]
fn world_stream_allocation_budget() {
    let _exclusive = exclusive();
    use spfail_world::{LazyWorld, WorldConfig};

    let mut stream = LazyWorld::new(WorldConfig::small(41));
    let (mut steps, mut allocs, mut owned) = (0u64, 0u64, 0u64);
    loop {
        let (n, step) = count_allocs(|| stream.next());
        let Some(step) = step else { break };
        let budget = 2 + u64::from(!step.fresh.is_empty()) + step.fresh.len() as u64;
        assert!(
            n <= budget,
            "domain {:?} allocated {n} times for {budget} owned buffers",
            step.id
        );
        steps += 1;
        allocs += n;
        owned += budget;
    }
    eprintln!(
        "alloc_count: world stream = {allocs} allocs over {steps} steps ({:.2} per step, \
         {owned} owned buffers)",
        allocs as f64 / steps as f64
    );
    assert_eq!(steps, 4_388);
}

/// The eager world is the stream collected: `World::generate` keeps
/// every step's records and allocates nothing of its own per host, only
/// the growth of its two record vectors. Counted against one bare pass
/// over the same stream, which allocates every buffer the steps hand
/// out. Measured: 11 more allocations for 1,955 hosts (a host-to-domains
/// reverse index cost one more per host).
#[test]
fn world_generate_adds_no_per_host_allocation() {
    let _exclusive = exclusive();
    use spfail_world::{LazyWorld, World, WorldConfig};

    let config = WorldConfig::small(41);
    let (bare, hosts) = count_allocs(|| {
        LazyWorld::new(config.clone())
            .map(|step| step.fresh.len())
            .sum::<usize>()
    });
    let (eager, world) = count_allocs(|| World::generate(config.clone()));
    assert_eq!(world.hosts.len(), hosts);
    let extra = eager.saturating_sub(bare);
    eprintln!(
        "alloc_count: World::generate = {eager} allocs, bare stream pass = {bare} \
         ({extra} more for {hosts} hosts)"
    );
    assert!(
        extra <= WORLD_GENERATE_EXTRA_BUDGET,
        "World::generate allocated {extra} times beyond the stream's {bare} \
         (budget {WORLD_GENERATE_EXTRA_BUDGET}) for {hosts} hosts"
    );
}

/// The measured 11 plus a small margin.
const WORLD_GENERATE_EXTRA_BUDGET: u64 = 16;

/// The heap the streaming driver's retention fold leaves retained in
/// its `SparsePopulation`, per retained host and per retained domain.
/// `StreamedCampaign::adopt` runs that fold over one pass of the stream,
/// reading each host's verdict from the sweep record's mask column; here
/// the column marks the initially vulnerable hosts, so no probe runs.
/// The same adoption of a column that tracks nothing retains no record,
/// and its bytes (the runtime surface) are subtracted. The fold's final
/// shrink must leave no spare slot in either column. A domain is charged
/// its id plus an exact copy of its record (the record and every buffer
/// it owns, measured as it is cloned); the hosts are charged the rest.
/// Returns (total bytes, hosts, domains, bytes per host, bytes per
/// domain).
fn sparse_population_bytes(scale: f64) -> (i64, usize, usize, f64, f64) {
    use std::mem::size_of;

    use spfail_netsim::SimDuration;
    use spfail_prober::{CampaignBuilder, CampaignState, HostMask, SessionStats, StreamedCampaign};
    use spfail_world::{DomainId, DomainRecord, LazyWorld, WorldConfig};

    let config = WorldConfig {
        seed: 0x5bf2_a117,
        scale,
        ..WorldConfig::default()
    };
    // An unmeasured pass builds the mask column (and warms anything
    // synthesis initialises once).
    let mut masks: Vec<u32> = Vec::new();
    for step in LazyWorld::new(config.clone()) {
        masks.extend(step.fresh.iter().map(|record| {
            if record.profile.initially_vulnerable() {
                HostMask::VULNERABLE
            } else {
                0
            }
        }));
    }
    let state = |masks: Vec<u32>| CampaignState {
        builder: CampaignBuilder::new(),
        world_seed: config.seed,
        world_scale: config.scale,
        masks: Some(masks),
        rounds_done: 0,
        initial_busy: SimDuration::ZERO,
        rounds_busy: SimDuration::ZERO,
        stats: SessionStats::default(),
        initial: Vec::new(),
        rounds: Vec::new(),
        workers: Vec::new(),
        trace_records: Vec::new(),
    };
    let nothing_tracked = state(vec![0; masks.len()]);
    let vulnerable_tracked = state(masks);
    let (baseline, empty) =
        retained_bytes(|| StreamedCampaign::adopt(nothing_tracked, config.clone()));
    assert_eq!(empty.population().host_count(), 0);
    let (bytes, adopted) =
        retained_bytes(|| StreamedCampaign::adopt(vulnerable_tracked, config.clone()));
    let population = adopted.population();
    assert_eq!(
        population.spare_slots(),
        (0, 0),
        "the fold leaves spare (host, domain) column slots at scale {scale}"
    );
    let (copied, copy) = retained_bytes(|| {
        population
            .domains()
            .map(|(_, domain)| domain.clone())
            .collect::<Vec<DomainRecord>>()
    });
    assert_eq!(copy.capacity(), copy.len());
    let (hosts, domains) = (population.host_count(), population.domain_count());
    let total = bytes - baseline;
    let domain_bytes = (domains * size_of::<DomainId>()) as f64 + copied as f64;
    (
        total,
        hosts,
        domains,
        (total as f64 - domain_bytes) / hosts as f64,
        domain_bytes / domains as f64,
    )
}

/// Bytes a retained host may cost. Measured: 126.0 at both scales (its
/// 4-byte id, the record, and the record's implementation list, in
/// columns shrunk to size); the two hash maps the columns replaced cost
/// 167.3 and 207.2, rising with the table's load factor.
const HOST_BYTES_BUDGET: f64 = 140.0;
/// Bytes a retained domain may cost. Measured: 105.0 and 105.3 (id,
/// record, name and host list); 140.4 and 187.9 as a hash map.
const DOMAIN_BYTES_BUDGET: f64 = 120.0;

/// Retained bytes of the streamed engine's `SparsePopulation`, pinned
/// per retained record at two scales: a record costs the same at both,
/// so the population grows by a fixed slope in what it retains (DESIGN.md,
/// "Streaming memory model", has the measured figures).
#[test]
fn sparse_population_retained_bytes_budget() {
    let _exclusive = exclusive();
    for scale in [0.005, 0.02] {
        let (total, hosts, domains, per_host, per_domain) = sparse_population_bytes(scale);
        eprintln!(
            "alloc_count: sparse population at scale {scale}: {total} B, {per_host:.1} B per \
             host ({hosts} hosts), {per_domain:.1} B per domain ({domains} domains)"
        );
        assert!(hosts > 0 && domains > 0, "scale {scale} retained nothing");
        let budget = HOST_BYTES_BUDGET * hosts as f64 + DOMAIN_BYTES_BUDGET * domains as f64;
        assert!(
            total as f64 <= budget,
            "the population retains {total} B at scale {scale} (budget {budget:.0} B for \
             {hosts} hosts and {domains} domains)"
        );
        assert!(
            per_host <= HOST_BYTES_BUDGET,
            "a retained host costs {per_host:.1} B at scale {scale} (budget {HOST_BYTES_BUDGET})"
        );
        assert!(
            per_domain <= DOMAIN_BYTES_BUDGET,
            "a retained domain costs {per_domain:.1} B at scale {scale} \
             (budget {DOMAIN_BYTES_BUDGET})"
        );
    }
}

/// What a finished streamed campaign costs, at one scale: the world's
/// host count, the peak heap growth of the sweep and of
/// `Session::finish`, and the bytes the finished run keeps.
struct CampaignBytes {
    hosts: usize,
    tracked: usize,
    sweep_peak: u64,
    finish_peak: u64,
    retained: i64,
}

impl CampaignBytes {
    /// Run the streamed campaign of the provider-heavy world at `scale`
    /// on two shards with incremental rounds, stage by stage. The run's
    /// retained bytes are what dropping it frees on this thread.
    fn measure(scale: f64) -> CampaignBytes {
        use spfail_prober::{CampaignBuilder, StreamedCampaign};
        use spfail_world::WorldConfig;

        let config = WorldConfig {
            scale,
            ..WorldConfig::provider_heavy(0x5bf2_a117)
        };
        let builder = CampaignBuilder::new().shards(2).incremental();
        let (sweep_peak, streamed) = peak_heap(|| StreamedCampaign::sweep(builder, config));
        let mut session = streamed.session().expect("a fresh handoff restores");
        while session.advance_round().is_some() {}
        let (finish_peak, run) = peak_heap(|| session.finish());
        let hosts = run.summary.masks.len();
        let tracked = run.data.tracked.len();
        assert!(
            tracked > 0 && !run.data.rounds.is_empty() && !run.data.snapshot.is_empty(),
            "a degenerate campaign at scale {scale} would make the budget vacuous"
        );
        let (freed, ()) = retained_bytes(|| drop(run));
        CampaignBytes {
            hosts,
            tracked,
            sweep_peak,
            finish_peak,
            retained: -freed,
        }
    }

    fn per_host(&self, bytes: f64) -> f64 {
        bytes / self.hosts as f64
    }
}

/// Budgets in bytes per world host: `(scale, sweep peak, finish peak,
/// retained)`. Measured over nine runs (six release, three debug):
///
/// | scale | hosts | sweep peak | finish peak | retained |
/// | ----- | ----- | ---------- | ----------- | -------- |
/// | 0.005 |   935 | 582–843    | 94.5–102.5  | 19.7     |
/// | 0.02  | 3,341 | 335–352    | 49.7–51.0   | 19.2     |
///
/// The sweep peak at 0.005 is mostly the channels' fixed backlog, so
/// it moves with thread timing. Each budget sits 10–20% above the
/// highest reading. A query log kept across hosts until it held 50,000
/// entries read 581 B (sweep) and 87.3 B (finish) at 0.02; round
/// workers kept alive through the snapshot sweep read 69.6 B (finish)
/// at 0.02 and 118.2 B at 0.005.
const CAMPAIGN_BUDGETS: [(f64, f64, f64, f64); 2] =
    [(0.005, 1000.0, 115.0, 22.0), (0.02, 400.0, 60.0, 22.0)];

/// The streamed campaign's bytes per world host, pinned at two scales:
/// the peak growth of the initial sweep and of `Session::finish`, and
/// what the finished run retains (the mask column, the tracked hosts,
/// one status per tracked host and round, and the snapshot). Every
/// worker's query log holds one host's queries, and `finish` retires
/// the round workers before the snapshot workers exist; a log kept
/// across hosts, or round workers kept through the snapshot sweep,
/// raises a peak past its budget.
#[test]
fn streamed_campaign_bytes_per_host_budget() {
    let _exclusive = exclusive();
    for (scale, sweep_budget, finish_budget, retained_budget) in CAMPAIGN_BUDGETS {
        let bytes = CampaignBytes::measure(scale);
        let sweep = bytes.per_host(bytes.sweep_peak as f64);
        let finish = bytes.per_host(bytes.finish_peak as f64);
        let retained = bytes.per_host(bytes.retained as f64);
        eprintln!(
            "alloc_count: streamed campaign at scale {scale} ({} hosts, {} tracked): \
             sweep peak {sweep:.1} B, finish peak {finish:.1} B, retained {retained:.1} B \
             per host",
            bytes.hosts, bytes.tracked,
        );
        assert!(
            sweep <= sweep_budget,
            "the sweep's peak grew {sweep:.1} B per host at scale {scale} \
             (budget {sweep_budget})"
        );
        assert!(
            finish <= finish_budget,
            "Session::finish's peak grew {finish:.1} B per host at scale {scale} \
             (budget {finish_budget})"
        );
        assert!(
            retained <= retained_budget,
            "the finished run retains {retained:.1} B per host at scale {scale} \
             (budget {retained_budget})"
        );
    }
}
