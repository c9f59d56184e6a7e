//! The three workloads and the staged pipeline every iteration runs.
//!
//! Each iteration drives one whole reproduction through the public
//! stage functions, timing each stage: set-up (`World::generate`, or
//! `LazyWorld::new` when streaming), the initial sweep, the rounds with
//! checkpoints at a fixed cadence of round boundaries, `Session::finish`,
//! then notification, aggregates and every registry exhibit. Every
//! workload runs every stage, so every metric is measured on every
//! workload; the workloads differ in scale, world, engine and network.

use std::collections::BTreeMap;

use spfail::netsim::{FaultPlan, FaultProfile, FlakyWindow, SimDuration};
use spfail::notify::{NotificationCampaign, PixelLog};
use spfail::prober::{
    CampaignBuilder, CampaignRun, CampaignState, ProbeOptions, RetryPolicy, Session,
    StreamedCampaign,
};
use spfail::report::{
    Context, Exhibit, ExhibitEntry, StreamContext, WorldAggregates, EXHIBIT_REGISTRY,
};
use spfail::world::{LazyWorld, Population, World, WorldConfig};

use crate::digest;
use crate::pace::Yardstick;
use crate::spans::{Interval, Recorder, Timer};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments --scale 1`: calibrated world, eager, sequential,
    /// clean network, non-incremental rounds.
    PaperScale,
    /// Provider-heavy world streamed through `StreamedCampaign` with two
    /// shards and incremental rounds.
    ProviderStream,
    /// Calibrated world at scale 0.25 under the combined fault profile
    /// with standard retries, resumed from checkpoints.
    FaultyResume,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperScale,
        Workload::ProviderStream,
        Workload::FaultyResume,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScale => "paper_scale",
            Workload::ProviderStream => "provider_stream",
            Workload::FaultyResume => "faulty_resume",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that fixes one workload's inputs. [`Spec::new`] gives the
/// benchmark's settings; tests shrink `scale` and vary `shards` and
/// `checkpoint_every`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The world seed.
    pub seed: u64,
    /// The world scale (1.0 = the paper's population).
    pub scale: f64,
    /// Campaign shards (1 = sequential).
    pub shards: usize,
    /// Checkpoint after every this many rounds; 0 never checkpoints.
    pub checkpoint_every: usize,
}

impl Spec {
    /// The benchmark's settings for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let rounds = spfail::world::Timeline::all_round_days().len();
        let (scale, shards, checkpoint_every) = match workload {
            // One checkpoint, at the last round boundary.
            Workload::PaperScale => (1.0, 1, rounds),
            Workload::ProviderStream => (1.0, 2, rounds / 2),
            // Frequent enough that checkpointing and probing each take
            // a real share of the run.
            Workload::FaultyResume => (0.25, 1, 6),
        };
        Spec {
            workload,
            seed,
            scale,
            shards,
            checkpoint_every,
        }
    }

    /// The world the workload measures.
    pub fn config(&self) -> WorldConfig {
        match self.workload {
            Workload::PaperScale | Workload::FaultyResume => WorldConfig {
                seed: self.seed,
                scale: self.scale,
                ..WorldConfig::default()
            },
            Workload::ProviderStream => provider_heavy(self.seed, self.scale),
        }
    }

    /// The fault regime and retry policy the probes run under.
    pub fn options(&self) -> ProbeOptions {
        match self.workload {
            Workload::FaultyResume => ProbeOptions {
                faults: combined_faults(),
                retry: RetryPolicy::standard(),
            },
            _ => ProbeOptions::default(),
        }
    }

    /// The campaign configuration.
    pub fn builder(&self) -> CampaignBuilder {
        let options = self.options();
        let builder = CampaignBuilder::new()
            .shards(self.shards)
            .faults(options.faults)
            .retry(options.retry);
        match self.workload {
            Workload::ProviderStream => builder.incremental(),
            _ => builder,
        }
    }

    /// Whether the campaign continues from each restored checkpoint (the
    /// resume workload) or only round-trips it and carries on live, so
    /// the cache tallies in `cache_efficiency` stay those of an
    /// uninterrupted run.
    fn resumes(&self) -> bool {
        self.workload == Workload::FaultyResume
    }
}

/// The provider-heavy world of `crates/bench/benches/campaign_throughput.rs`:
/// heavy shared hosting, many multi-implementation MTAs, and almost
/// every set member publishing SPF.
fn provider_heavy(seed: u64, scale: f64) -> WorldConfig {
    let mut config = WorldConfig {
        scale,
        shared_hosting_rate: 8.0,
        multi_impl_rate: 0.5,
        ..WorldConfig::small(seed)
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

/// The combined fault regime of `tests/trace_equivalence.rs`.
fn combined_faults() -> FaultProfile {
    FaultProfile {
        dns: FaultPlan {
            drop_chance: 0.05,
            servfail_chance: 0.05,
            truncate_chance: 0.1,
            ..FaultPlan::NONE
        },
        smtp: FaultPlan {
            tempfail_chance: 0.05,
            reset_chance: 0.05,
            ..FaultPlan::NONE
        },
        flaky_fraction: 0.2,
        window: Some(FlakyWindow::new(SimDuration::from_mins(360), 0.6)),
    }
}

/// How often streaming set-up is timed per iteration: `LazyWorld::new`
/// takes about a millisecond, so one sample is too noisy to track.
const STREAMING_SETUP_REPS: usize = 51;

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// The output hash.
    pub hash: u64,
    /// Stage durations, keyed by metric name (seconds unless the name
    /// says otherwise; reference seconds in a paced run).
    pub times: BTreeMap<String, f64>,
    /// Layer counters, keyed by metric name.
    pub counts: BTreeMap<String, f64>,
    /// Mean host speed over the iteration: reference seconds per second
    /// (1 when unpaced).
    pub speed: f64,
    /// Every closed stage under its metric name, until [`settle`] turns
    /// them into `times`.
    intervals: Vec<(String, Interval)>,
}

impl Iteration {
    fn set_count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    fn time(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of the stage times `names`, under `total` when any ran.
    fn add_up(&mut self, total: &str, names: &[&str]) {
        if names.iter().any(|n| self.times.contains_key(*n)) {
            let sum = names.iter().map(|n| self.time(n)).sum();
            self.times.insert(total.to_string(), sum);
        }
    }
}

/// The finished pipeline, kept whole until the clock stops so dropping
/// the world is not timed.
enum Output {
    Eager(Box<Context>, Vec<u32>),
    Streaming(Box<StreamContext>),
}

/// Run one iteration of `spec`, keeping per-layer spans when `traced`,
/// with times in raw seconds.
pub fn run_once(spec: &Spec, traced: bool) -> Iteration {
    run_paced(spec, traced, None)
}

/// Run one iteration of `spec`, keeping per-layer spans when `traced`;
/// given a `yardstick`, times are in reference seconds (see
/// [`crate::pace`]).
pub fn run_paced(spec: &Spec, traced: bool, yardstick: Option<&mut Yardstick>) -> Iteration {
    let mut rec = Recorder::paced(traced, yardstick);
    let mut it = Iteration::default();
    let root = rec.begin("bench.iteration");
    let (output, exhibits) = match spec.workload {
        Workload::ProviderStream => streaming(spec, &mut rec, &mut it),
        _ => eager(spec, &mut rec, &mut it),
    };
    let whole = rec.end(root);
    it.intervals.push(("wall_s".into(), whole));
    settle(&rec, &mut it);
    it.speed = it.time("wall_s") / (whole.end - whole.start);
    if traced {
        for (layer, seconds) in rec.self_times() {
            it.times.insert(format!("{layer}.self_s"), seconds);
        }
    }
    it.hash = match (&output, spec.workload) {
        (_, Workload::PaperScale) => digest::paper_hash(&exhibits),
        (Output::Eager(ctx, masks), _) => digest::campaign_hash(&ctx.campaign, masks, &exhibits),
        (Output::Streaming(sc), _) => {
            digest::campaign_hash(&sc.campaign, &sc.summary.masks, &exhibits)
        }
    };
    it
}

/// Close `timer` and keep its interval under `name`.
fn stage(rec: &mut Recorder, it: &mut Iteration, timer: Timer, name: &str) {
    let interval = rec.end(timer);
    it.intervals.push((name.to_string(), interval));
}

/// Turn the iteration's intervals into stage times, now that the speed
/// curve is complete, and derive the end-to-end sums.
fn settle(rec: &Recorder, it: &mut Iteration) {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, interval) in it.intervals.drain(..) {
        by_name.entry(name).or_default().push(rec.seconds(interval));
    }
    for (name, mut values) in by_name {
        let value = match name.as_str() {
            // Timed several times when a single set-up is too short to
            // time (streaming); one figure per iteration.
            "world.generate_s" => median(&mut values),
            "prober.rounds_s" => {
                let total = values.iter().sum();
                let max = values.iter().copied().fold(0.0, f64::max);
                it.times.insert("prober.round_ms_max".into(), 1e3 * max);
                it.times
                    .insert("prober.round_ms_p50".into(), 1e3 * median(&mut values));
                total
            }
            _ => values.iter().sum(),
        };
        it.times.insert(name, value);
    }
    it.add_up("setup_s", &["world.generate_s"]);
    it.add_up(
        "campaign_s",
        &[
            "prober.initial_sweep_s",
            "prober.rounds_s",
            "prober.finish_s",
        ],
    );
    it.add_up(
        "checkpoint_s",
        &[
            "checkpoint.to_state_s",
            "checkpoint.to_text_s",
            "checkpoint.parse_s",
            "checkpoint.from_state_s",
        ],
    );
    it.add_up(
        "report_s",
        &["notify.run_s", "report.aggregates_s", "report.exhibits_s"],
    );
}

fn eager(spec: &Spec, rec: &mut Recorder, it: &mut Iteration) -> (Output, Vec<Exhibit>) {
    let t = rec.begin("world.generate");
    let world = World::generate(spec.config());
    stage(rec, it, t, "world.generate_s");
    it.set_count("hosts", world.hosts.len() as f64);
    it.set_count("prober.retained_hosts", world.hosts.len() as f64);

    let t = rec.begin("prober.handoff");
    let mut session = spec.builder().session(&world);
    stage(rec, it, t, "prober.handoff_s");
    let t = rec.begin("prober.initial_sweep");
    session.initial_sweep();
    stage(rec, it, t, "prober.initial_sweep_s");
    let run = rounds_and_finish(spec, rec, it, session, &world);

    let t = rec.begin("notify.run");
    let mut pixels = PixelLog::new();
    let (notifications, funnel) =
        NotificationCampaign::run(&world, &run.data.vulnerable_domains, &mut pixels);
    stage(rec, it, t, "notify.run_s");
    let t = rec.begin("report.aggregates");
    let aggregates = WorldAggregates::from_world(&world, &run.summary.masks);
    stage(rec, it, t, "report.aggregates_s");
    let ctx = Context {
        world,
        campaign: run.data,
        notifications,
        funnel,
        pixels,
        cache: run.cache,
        aggregates,
    };
    let exhibits = build_exhibits(rec, it, |entry| (entry.build)(&ctx));
    (Output::Eager(Box::new(ctx), run.summary.masks), exhibits)
}

fn streaming(spec: &Spec, rec: &mut Recorder, it: &mut Iteration) -> (Output, Vec<Exhibit>) {
    let config = spec.config();
    for _ in 0..STREAMING_SETUP_REPS {
        let t = rec.begin("world.generate");
        let lazy = LazyWorld::new(config.clone());
        stage(rec, it, t, "world.generate_s");
        drop(std::hint::black_box(lazy));
    }

    let t = rec.begin("prober.initial_sweep");
    let streamed = StreamedCampaign::sweep(spec.builder(), config.clone());
    stage(rec, it, t, "prober.initial_sweep_s");
    it.set_count(
        "prober.retained_hosts",
        streamed.population().host_count() as f64,
    );
    let t = rec.begin("prober.handoff");
    let session = streamed
        .session()
        .expect("a fresh streamed handoff restores");
    stage(rec, it, t, "prober.handoff_s");
    let run = rounds_and_finish(spec, rec, it, session, streamed.population());
    it.set_count("hosts", run.summary.masks.len() as f64);

    let t = rec.begin("notify.run");
    let mut pixels = PixelLog::new();
    let (notifications, funnel) = NotificationCampaign::run(
        streamed.population(),
        &run.summary.vulnerable_domains,
        &mut pixels,
    );
    stage(rec, it, t, "notify.run_s");
    let t = rec.begin("report.aggregates");
    let aggregates = WorldAggregates::from_config(&config, &run.summary.masks);
    stage(rec, it, t, "report.aggregates_s");
    let sc = StreamContext {
        config,
        population: streamed.into_population(),
        campaign: run.data,
        summary: run.summary,
        aggregates,
        notifications,
        funnel,
        pixels,
        cache: run.cache,
    };
    let exhibits = build_exhibits(rec, it, |entry| (entry.build_streaming)(&sc));
    (Output::Streaming(Box::new(sc)), exhibits)
}

/// Every round (checkpointing on the cadence), then `Session::finish`.
fn rounds_and_finish<'w>(
    spec: &Spec,
    rec: &mut Recorder,
    it: &mut Iteration,
    mut session: Session<'w>,
    pop: &'w dyn Population,
) -> CampaignRun {
    while session.rounds_remaining() > 0 {
        let t = rec.begin("prober.round");
        session.advance_round();
        stage(rec, it, t, "prober.rounds_s");
        if spec.checkpoint_every > 0 && session.rounds_done() % spec.checkpoint_every == 0 {
            session = checkpoint(spec, rec, it, session, pop);
        }
    }
    let stats = session.stats();
    let t = rec.begin("prober.finish");
    let run = session.finish();
    stage(rec, it, t, "prober.finish_s");

    let issued = stats.round_probes_issued as f64;
    let skipped = stats.round_probes_skipped as f64;
    it.set_count("prober.round_probes_issued", issued);
    it.set_count("prober.round_probes_skipped", skipped);
    it.set_count("prober.skip_ratio", ratio(skipped, issued + skipped));
    let net = run.data.network;
    it.set_count("prober.retries", net.probe_retries as f64);
    it.set_count("prober.recovered", net.probes_recovered as f64);
    it.set_count("dns.queries", net.dns_queries as f64);
    it.set_count("dns.cache_hits", net.dns_cache_hits as f64);
    it.set_count(
        "dns.cache_hit_ratio",
        ratio(
            net.dns_cache_hits as f64,
            (net.dns_cache_hits + net.dns_queries) as f64,
        ),
    );
    it.set_count("dns.bytes_sent", net.bytes_sent as f64);
    it.set_count("dns.datagrams_dropped", net.datagrams_dropped as f64);
    it.set_count("dns.truncated", net.dns_truncated as f64);
    it.set_count("dns.timeouts", net.dns_timeouts as f64);
    it.set_count("dns.servfails", net.dns_servfails as f64);
    let cache = run.cache.unwrap_or_default();
    it.set_count("spf.cache_hits", cache.hits as f64);
    it.set_count("spf.cache_misses", cache.misses as f64);
    it.set_count("spf.interned", cache.interned as f64);
    it.set_count(
        "spf.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    run
}

/// Round-trip the session through the checkpoint text format:
/// `to_state`, `to_text`, `parse`, `from_state`.
fn checkpoint<'w>(
    spec: &Spec,
    rec: &mut Recorder,
    it: &mut Iteration,
    mut session: Session<'w>,
    pop: &'w dyn Population,
) -> Session<'w> {
    let t = rec.begin("checkpoint.to_state");
    let state = session.to_state();
    stage(rec, it, t, "checkpoint.to_state_s");
    let t = rec.begin("checkpoint.to_text");
    let text = state.to_text();
    stage(rec, it, t, "checkpoint.to_text_s");
    let t = rec.begin("checkpoint.parse");
    let parsed = CampaignState::parse(&text).expect("a written checkpoint parses");
    stage(rec, it, t, "checkpoint.parse_s");
    if !spec.resumes() {
        assert!(parsed == state, "a checkpoint round trip changed the state");
    }
    drop(state);
    let t = rec.begin("checkpoint.from_state");
    let restored = Session::from_state(parsed, pop).expect("a checkpoint restores");
    stage(rec, it, t, "checkpoint.from_state_s");
    let bytes = it
        .counts
        .get("checkpoint.bytes_max")
        .copied()
        .unwrap_or(0.0);
    it.set_count("checkpoint.bytes_max", bytes.max(text.len() as f64));
    let count = it.counts.get("checkpoint.count").copied().unwrap_or(0.0);
    it.set_count("checkpoint.count", count + 1.0);
    if spec.resumes() {
        restored
    } else {
        session
    }
}

/// Build every registry exhibit in paper order, each in its own stage.
fn build_exhibits(
    rec: &mut Recorder,
    it: &mut Iteration,
    build: impl Fn(&ExhibitEntry) -> Exhibit,
) -> Vec<Exhibit> {
    let all = rec.begin("report.exhibits");
    let mut exhibits = Vec::with_capacity(EXHIBIT_REGISTRY.len());
    for entry in EXHIBIT_REGISTRY {
        let name = format!("report.exhibit.{}", entry.id);
        let t = rec.begin(&name);
        exhibits.push(build(entry));
        stage(rec, it, t, &format!("{name}_s"));
    }
    stage(rec, it, all, "report.exhibits_s");
    exhibits
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The median of `values` (mean of the middle two for even counts), or
/// 0 for none. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
