//! The staged longitudinal engine: explicit campaign stages, checkpoint
//! and resume at round boundaries, and incremental rounds.
//!
//! [`CampaignBuilder::run`] drives a [`Session`] end to end; callers
//! that need finer control open one with
//! [`CampaignBuilder::session`] and drive the stages themselves:
//!
//! 1. [`Session::initial_sweep`] — probe every host once (day 0);
//! 2. [`Session::advance_round`] — one longitudinal round per call;
//! 3. [`Session::finish`] — the re-resolving February snapshot and the
//!    assembled [`CampaignRun`].
//!
//! **One worker lifecycle for every shard count.** The initial sweep
//! creates one worker per shard (`shards(1)` is simply one worker), each
//! probing its [`shard_of`](crate::shard_of) partition through its own
//! isolated [`ProbeContext`](crate::ProbeContext). After the sweep each
//! worker forgets the per-host state of every host outside its
//! partition of the tracked set, then keeps its prober — clock, ethics
//! guard, policy cache — through every round. The snapshot runs on
//! fresh per-shard workers, and `finish` mirrors the snapshot's clock
//! and query log onto the world. Each stage runs its workers through
//! one helper: inline for one worker, on scoped threads for several.
//! Shard count is therefore only an execution strategy: the data,
//! trace and exhibits are bit-for-bit the same for every count
//! (`tests/parallel.rs`); only the cache tallies differ, since each
//! worker caches its own partition's policies.
//!
//! Between stages the session can be serialised with
//! [`Session::checkpoint`] and later continued with
//! [`Session::restore`]: killing a campaign at *any* round boundary and
//! resuming it produces byte-for-byte the [`CampaignData`], trace
//! export, and report exhibits of an uninterrupted run, for any shard
//! count and fault profile (`tests/session_checkpoint.rs`).
//!
//! That works because a campaign's durable state at a round boundary is
//! small and explicit. Every probe's randomness is derived from the
//! probe's own identity (see [`Prober::probe`]), never drawn from a
//! consuming stream, so no rng positions need saving: the only live
//! facts are the sweep results so far, each worker's clock, ethics
//! audit + contact history, network counters, probe-repetition
//! counters, and blacklist counters — plus the trace records already
//! emitted. [`CampaignState`] is exactly that inventory.
//!
//! **Incremental rounds** ([`CampaignBuilder::incremental`]) re-probe
//! only hosts whose status can have changed since their last conclusive
//! measurement. A tracked host may be *skipped* in a round when no
//! injected fault profile is active (faults perturb every probe), and
//! either:
//!
//! * the host is past its blacklist threshold and no retry policy is
//!   active: every connection is rejected at the banner, so the round
//!   is `Inconclusive` by construction; or
//! * the host never blacklists, no patch event lies in the window since
//!   its last conclusive measurement
//!   ([`spfail_world::HostProfile::status_event_in`], the patch-event
//!   horizon from the world timeline), and the probe the round would
//!   issue misses the host's flaky roll — replayed exactly from the
//!   probe's identity rng ([`Prober`]'s `would_flake`) without issuing
//!   the probe, so its last conclusive status carries.
//!
//! A skipped host records its carried status for the round and its
//! blacklist counter advances by the one attempt the full rescan would
//! have spent, so every *issued* probe still rolls exactly the dice it
//! would in a full rescan. The measurement fields of [`CampaignData`]
//! (`initial`, `tracked`, `rounds`, `snapshot`, `vulnerable_domains`)
//! are therefore identical to a full rescan; the ethics audit, network
//! counters, and trace shrink with the probe volume — that reduction
//! (≥5× at paper scale) is the point. [`Session::full_rescan`] forces
//! the next round to probe everything.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use spfail_dns::QueryLog;
use spfail_mta::PolicyCacheHandle;
use spfail_netsim::{MetricsSnapshot, PolicyCacheStats, SimDuration, SimTime};
use spfail_trace::{Phase, Trace, Tracer};
use spfail_world::{DomainId, HostId, Population, Timeline};

use crate::aggregate::{CampaignSummary, Tracking};
use crate::campaign::{
    interleave_shards, partition_hosts, Campaign, CampaignBuilder, CampaignData, CampaignRun,
    CampaignTiming, InitialMeasurement, RoundStatus,
};
use crate::checkpoint::{CampaignState, WorkerState};
use crate::ethics::EthicsAudit;
use crate::probe::{ProbeTest, Prober};

/// Probe-volume counters for a session's longitudinal rounds — the
/// incremental engine's savings, measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Probes actually issued during rounds (retried sequences count
    /// once, like the paper's per-host probe budget).
    pub round_probes_issued: u64,
    /// Round probes the incremental horizon model answered from carried
    /// state instead of the network.
    pub round_probes_skipped: u64,
}

/// One live probing worker, one per shard. A worker probes its
/// partition of the world in the initial sweep, keeps its prober (clock,
/// ethics guard, policy cache) through every round, and probes its
/// partition of the tracked hosts there.
struct Worker<'w> {
    prober: Prober<'w>,
    tracer: Tracer,
    counts: HashMap<HostId, u32>,
    hosts: Vec<HostId>,
}

impl<'w> Worker<'w> {
    fn new(pop: &'w dyn Population, builder: &CampaignBuilder, hosts: Vec<HostId>) -> Worker<'w> {
        let tracer = Tracer::new(builder.trace);
        Worker {
            prober: builder.worker_prober(pop, &tracer),
            tracer,
            counts: HashMap::new(),
            hosts,
        }
    }
}

impl WorkerState {
    /// Capture a worker's durable state: its clock, ethics guard,
    /// metrics and probe-repetition counters, plus `counts`, its
    /// per-host blacklist counters.
    pub(crate) fn capture(prober: &Prober<'_>, counts: &HashMap<HostId, u32>) -> WorkerState {
        let (ethics, contacts) = prober.ethics().export();
        let mut counts: Vec<_> = counts.iter().map(|(&h, &n)| (h, n)).collect();
        counts.sort_unstable_by_key(|(h, _)| *h);
        WorkerState {
            clock_micros: prober.context().clock.now().as_micros(),
            ethics,
            contacts,
            metrics: prober.metrics().snapshot(),
            occurrences: prober.occurrences_export(),
            counts,
        }
    }
}

/// Run `step` on every worker and collect the results in worker order:
/// inline when there is one worker, on scoped threads when there are
/// several. Every worker starts a stage at the same simulated day, so a
/// stage costs its slowest worker.
fn on_workers<W: Send, T: Send>(workers: &mut [W], step: impl Fn(&mut W) -> T + Sync) -> Vec<T> {
    if let [only] = workers {
        return vec![step(only)];
    }
    let step = &step;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| s.spawn(move |_| step(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("scope")
}

/// A staged, checkpointable campaign run. See the module docs.
pub struct Session<'w> {
    pop: &'w dyn Population,
    builder: CampaignBuilder,
    /// Rounds completed so far (index into `Timeline::all_round_days()`).
    rounds_done: usize,
    full_rescan_next: bool,
    /// The initial sweep's per-host results: kept by an eager session
    /// (its checkpoints write them as `init` lines), `None` for a
    /// streamed one, whose record is `masks` alone.
    initial: Option<InitialMeasurement>,
    /// The initial sweep compressed to one [`HostMask`](crate::HostMask)
    /// per host (index = host id); every session carries it, and
    /// tracking is derived from it.
    masks: Vec<u32>,
    tracked: Vec<HostId>,
    vulnerable_domains: Vec<DomainId>,
    preferred: HashMap<HostId, ProbeTest>,
    rounds: Vec<(u16, HashMap<HostId, RoundStatus>)>,
    initial_busy: SimDuration,
    rounds_busy: SimDuration,
    /// Trace records drained at checkpoints; the final trace is the
    /// identity-ordered merge of these with the workers' tracers, so
    /// draining points leave no mark.
    trace_parts: Vec<Trace>,
    /// Per-host last conclusive measurement `(day, status)` — the
    /// incremental engine's carried state. Derivable from `initial` +
    /// `rounds`, so it is never checkpointed.
    last_conclusive: HashMap<HostId, (u16, RoundStatus)>,
    stats: SessionStats,
    /// One per shard from the initial sweep on; retired in `finish`.
    workers: Vec<Worker<'w>>,
}

impl<'w> Session<'w> {
    /// A fresh session for `builder` against `pop`.
    /// [`CampaignBuilder::session`] is the public spelling.
    pub(crate) fn new(builder: CampaignBuilder, pop: &'w dyn Population) -> Session<'w> {
        Session {
            pop,
            builder,
            rounds_done: 0,
            full_rescan_next: false,
            initial: None,
            masks: Vec::new(),
            tracked: Vec::new(),
            vulnerable_domains: Vec::new(),
            preferred: HashMap::new(),
            rounds: Vec::new(),
            initial_busy: SimDuration::ZERO,
            rounds_busy: SimDuration::ZERO,
            trace_parts: Vec::new(),
            last_conclusive: HashMap::new(),
            stats: SessionStats::default(),
            workers: Vec::new(),
        }
    }

    /// Whether the initial sweep has run (or been restored): workers
    /// live from the sweep on.
    fn swept(&self) -> bool {
        !self.workers.is_empty()
    }

    /// The hosts tracked longitudinally (set by the initial sweep).
    pub fn tracked(&self) -> &[HostId] {
        &self.tracked
    }

    /// Round days still to run.
    pub fn rounds_remaining(&self) -> usize {
        Timeline::all_round_days().len() - self.rounds_done
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// The session's probe-volume counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Force the next [`Session::advance_round`] to probe every tracked
    /// host, ignoring the incremental horizon for that round.
    pub fn full_rescan(&mut self) {
        self.full_rescan_next = true;
    }

    /// Stage 1: probe every unique server address once (day 0) and
    /// derive the longitudinal tracking set.
    ///
    /// Each worker sweeps its partition of the world, then forgets the
    /// per-host state of every host outside its partition of the
    /// tracked set, which it never probes again.
    ///
    /// # Panics
    ///
    /// If the initial sweep already ran (including via restore).
    pub fn initial_sweep(&mut self) {
        assert!(
            !self.swept(),
            "Session::initial_sweep: the initial sweep already ran"
        );
        let world = self.pop;
        let host_count = world
            .full_host_count()
            .expect("the eager initial sweep needs the full population");
        let all_hosts: Vec<HostId> = (0..host_count as u32).map(HostId).collect();
        let shards = self.builder.worker_count();
        let mut workers: Vec<Worker<'w>> = partition_hosts(&all_hosts, shards)
            .into_iter()
            .map(|part| Worker::new(world, &self.builder, part))
            .collect();
        let mut masks = Vec::with_capacity(shards);
        let (initial, busy) = on_workers(&mut workers, |w| {
            Campaign::initial_sweep(&mut w.prober, world, &mut w.counts, &w.hosts)
        })
        .into_iter()
        .map(|(part, part_masks, busy)| {
            masks.push(part_masks);
            (part, busy)
        })
        .reduce(|(mut initial, busy), (part, part_busy)| {
            initial.results.extend(part.results);
            (initial, busy.max(part_busy))
        })
        .expect("a campaign has at least one worker");
        self.initial_busy = busy;
        self.initial = Some(initial);
        self.note_sweep(interleave_shards(masks));
        for (w, part) in workers
            .iter_mut()
            .zip(partition_hosts(&self.tracked, shards))
        {
            let keep: Vec<_> = part.iter().map(|&h| (h, world.host(h).ip)).collect();
            w.prober.retain_hosts(&keep);
            w.counts.retain(|h, _| part.binary_search(h).is_ok());
            w.hosts = part;
        }
        self.workers = workers;
    }

    /// Keep the sweep's mask column, derive tracking from it and seed
    /// the incremental engine's carried state: every tracked host was
    /// conclusively measured vulnerable on day 0 (that is what made it
    /// tracked).
    fn note_sweep(&mut self, masks: Vec<u32>) {
        let Tracking {
            tracked,
            preferred,
            vulnerable_domains,
        } = Tracking::from_masks(&masks, self.pop);
        self.masks = masks;
        self.last_conclusive = tracked
            .iter()
            .map(|&h| (h, (Timeline::INITIAL, RoundStatus::Vulnerable)))
            .collect();
        self.tracked = tracked;
        self.vulnerable_domains = vulnerable_domains;
        self.preferred = preferred;
    }

    /// Record a finished round: push it onto the results and advance the
    /// carried per-host state by its conclusive measurements.
    fn note_round(&mut self, day: u16, statuses: HashMap<HostId, RoundStatus>) {
        let mut conclusive: Vec<(HostId, RoundStatus)> = statuses
            .iter()
            .filter(|(_, &status)| status != RoundStatus::Inconclusive)
            .map(|(&host, &status)| (host, status))
            .collect();
        conclusive.sort_unstable_by_key(|(host, _)| *host);
        for (host, status) in conclusive {
            self.last_conclusive.insert(host, (day, status));
        }
        self.rounds.push((day, statuses));
        self.rounds_done += 1;
        self.full_rescan_next = false;
    }

    /// Stage 2: run the next longitudinal round. Returns the round's
    /// day, or `None` when all rounds have run.
    ///
    /// # Panics
    ///
    /// If the initial sweep has not run.
    pub fn advance_round(&mut self) -> Option<u16> {
        assert!(
            self.swept(),
            "Session::advance_round: run initial_sweep first"
        );
        let day = *Timeline::all_round_days().get(self.rounds_done)?;
        // A non-incremental round is a full rescan every time.
        let full_rescan = self.full_rescan_next || !self.builder.incremental;
        let world = self.pop;
        let preferred = &self.preferred;
        let last_conclusive = &self.last_conclusive;
        let outputs = on_workers(&mut self.workers, |w| {
            incremental_round_sweep(
                &mut w.prober,
                day,
                &w.hosts,
                preferred,
                &mut w.counts,
                last_conclusive,
                world,
                full_rescan,
            )
        });
        let mut statuses = HashMap::new();
        let mut round_busy = SimDuration::ZERO;
        for (part_statuses, busy, issued, skipped) in outputs {
            statuses.extend(part_statuses);
            round_busy = round_busy.max(busy);
            self.stats.round_probes_issued += issued;
            self.stats.round_probes_skipped += skipped;
        }
        self.rounds_busy = self.rounds_busy + round_busy;
        self.note_round(day, statuses);
        Some(day)
    }

    /// Stage 3: the re-resolving February snapshot, then everything the
    /// campaign measured.
    ///
    /// # Panics
    ///
    /// If any stage is missing (initial sweep not run, rounds left).
    pub fn finish(mut self) -> CampaignRun {
        assert_eq!(
            self.rounds_remaining(),
            0,
            "Session::finish: advance_round until all rounds have run"
        );
        let world = self.pop;

        // The snapshot re-resolves addresses (§5.1, §7.2): fresh
        // resolution reaches the provider's current servers, so the
        // campaign's accumulated blacklisting does not apply. It is its
        // own measurement sweep on fresh workers: contact-spacing
        // decisions then depend only on the snapshot's own probe
        // sequence, never on how close the last longitudinal round
        // happened to finish.
        let (targets, domain_hosts) =
            Campaign::snapshot_targets(world, &self.vulnerable_domains, &self.tracked);
        let mut snapshot_workers: Vec<Worker<'w>> =
            partition_hosts(&targets, self.builder.worker_count())
                .into_iter()
                .map(|part| Worker::new(world, &self.builder, part))
                .collect();
        let preferred = &self.preferred;
        let outputs = on_workers(&mut snapshot_workers, |w| {
            Campaign::snapshot_sweep(&mut w.prober, &w.hosts, preferred)
        });
        let mut host_statuses: HashMap<HostId, RoundStatus> = HashMap::new();
        let mut snapshot_busy = SimDuration::ZERO;
        for (statuses, busy) in outputs {
            host_statuses.extend(statuses);
            snapshot_busy = snapshot_busy.max(busy);
        }
        let snapshot = Campaign::aggregate_snapshot(&domain_hosts, &host_statuses);

        // Leave the world's shared surfaces at the snapshot: clock on
        // the snapshot day, query log holding the snapshot's queries in
        // simulated-time order.
        let runtime = world.runtime();
        runtime
            .clock
            .advance_to(Timeline::day_to_time(Timeline::END));
        runtime.query_log.clear();
        runtime.query_log.extend(
            QueryLog::merged(
                snapshot_workers
                    .iter()
                    .map(|w| &w.prober.context().query_log),
            )
            .snapshot(),
        );

        // Retire every worker, merging in a fixed order.
        let mut ethics = EthicsAudit::default();
        let mut network = MetricsSnapshot::default();
        let mut cache = PolicyCacheStats::default();
        for w in self.workers.drain(..).chain(snapshot_workers) {
            ethics = ethics.merge(w.prober.ethics().audit());
            network = network.merge(&w.prober.metrics().snapshot());
            cache = cache.merge(&w.prober.policy_cache_stats());
            self.trace_parts.push(w.tracer.finish());
        }

        let data = CampaignData {
            initial: self.initial.unwrap_or_default(),
            tracked: self.tracked,
            rounds: self.rounds,
            snapshot,
            vulnerable_domains: self.vulnerable_domains,
            ethics,
            network,
        };
        let summary = CampaignSummary::with_masks(self.masks, &data);
        let timing = CampaignTiming {
            initial: self.initial_busy,
            rounds: self.rounds_busy,
            snapshot: snapshot_busy,
        };
        // Identity-order merge: neither which worker recorded a probe
        // nor where a checkpoint drained the tracer leaves any mark, so
        // this equals the uninterrupted single-tracer trace exactly.
        let trace = self
            .builder
            .trace
            .enabled
            .then(|| Trace::merge(self.trace_parts.drain(..)));
        CampaignRun {
            data,
            summary,
            timing: self.builder.timed.then_some(timing),
            trace,
            cache: (!self.builder.no_policy_cache).then_some(cache),
        }
    }

    /// Serialise the session's durable state. Only legal at a stage
    /// boundary (which is the only place the caller can be): after
    /// `initial_sweep` or any number of `advance_round`s.
    ///
    /// Draining the live tracers into the state is not destructive —
    /// the final trace is an identity-ordered merge, so a session that
    /// checkpoints and carries on still produces the uninterrupted
    /// trace.
    ///
    /// # Panics
    ///
    /// If the initial sweep has not run (there is nothing to save that
    /// re-running `initial_sweep` would not recompute).
    pub fn to_state(&mut self) -> CampaignState {
        assert!(self.swept(), "Session::checkpoint: run initial_sweep first");
        // An eager session writes its per-host results as `init` lines,
        // a streamed one its mask column as the `aggregate v1` section.
        let mut initial: Vec<_> = self
            .initial
            .iter()
            .flat_map(|initial| initial.results.iter().map(|(&h, r)| (h, r.clone())))
            .collect();
        initial.sort_by_key(|(h, _)| *h);
        let rounds = self
            .rounds
            .iter()
            .map(|(day, statuses)| {
                let mut hosts: Vec<_> = statuses.iter().map(|(&h, &s)| (h, s)).collect();
                hosts.sort_by_key(|(h, _)| *h);
                (*day, hosts)
            })
            .collect();
        let workers = self
            .workers
            .iter()
            .map(|w| WorkerState::capture(&w.prober, &w.counts))
            .collect();
        // Drain the live tracers so the state holds every record
        // emitted so far; the handles stay usable for the next stage.
        for w in &self.workers {
            self.trace_parts.push(w.tracer.finish());
        }
        let trace_records = self
            .trace_parts
            .iter()
            .flat_map(|t| t.records.iter().cloned())
            .collect();
        let config = &self.pop.runtime().config;
        CampaignState {
            builder: self.builder,
            world_seed: config.seed,
            world_scale: config.scale,
            masks: self.initial.is_none().then(|| self.masks.clone()),
            rounds_done: self.rounds_done,
            initial_busy: self.initial_busy,
            rounds_busy: self.rounds_busy,
            stats: self.stats,
            initial,
            rounds,
            workers,
            trace_records,
        }
    }

    /// Rebuild a session from a [`CampaignState`] against `world`,
    /// which must be (a retained subset of) the world the checkpointed
    /// session ran against (same seed and scale — worlds are pure
    /// functions of those).
    ///
    /// Either sweep record restores: `init` lines (written by an eager
    /// session, whose per-host results the restored session keeps) or
    /// an aggregate section (written by a streaming session). Both
    /// become the session's mask column, and tracking is derived from
    /// that column as after a fresh sweep. A record that does not cover
    /// the world is refused (see `CampaignState::mask_column`). Either
    /// state vintage restores against either population kind — mode can
    /// be toggled across a stop/resume boundary.
    pub fn from_state(state: CampaignState, world: &'w dyn Population) -> Result<Session<'w>, String> {
        let config = &world.runtime().config;
        if config.seed != state.world_seed {
            return Err(format!(
                "checkpoint is for world seed {}, got {}",
                state.world_seed, config.seed
            ));
        }
        if config.scale.to_bits() != state.world_scale.to_bits() {
            return Err(format!(
                "checkpoint is for world scale {}, got {}",
                state.world_scale, config.scale
            ));
        }
        let masks = state.mask_column(world.full_host_count())?;
        let mut session = Session::new(state.builder, world);
        if state.masks.is_none() {
            session.initial = Some(InitialMeasurement {
                results: state.initial.into_iter().collect(),
            });
        }
        session.note_sweep(masks);
        session.initial_busy = state.initial_busy;
        session.rounds_busy = state.rounds_busy;
        session.stats = state.stats;
        // Only rounds the engine can write restore: each on the
        // timeline's day for its position (so days strictly increase),
        // naming tracked hosts in strictly ascending order (as
        // `to_state` writes them, so no host twice). The report's
        // longitudinal view relies on exactly this.
        let round_days = Timeline::all_round_days();
        for (i, (day, hosts)) in state.rounds.into_iter().enumerate() {
            if round_days.get(i) != Some(&day) {
                return Err(format!(
                    "checkpoint round {} is on day {day}, off the timeline's strictly \
                     increasing round days",
                    i + 1
                ));
            }
            // One merge walk against the sorted tracked list.
            let mut pos = 0;
            let mut prev = None;
            for &(host, _) in &hosts {
                if prev >= Some(host) {
                    return Err(format!(
                        "checkpoint round on day {day} names host {} twice or out of host order",
                        host.0
                    ));
                }
                prev = Some(host);
                while session.tracked.get(pos).is_some_and(|&t| t < host) {
                    pos += 1;
                }
                if session.tracked.get(pos) != Some(&host) {
                    return Err(format!(
                        "checkpoint round on day {day} names host {} outside the tracked set",
                        host.0
                    ));
                }
            }
            session.note_round(day, hosts.into_iter().collect());
        }
        if session.rounds_done != state.rounds_done {
            return Err(format!(
                "checkpoint records {} rounds but claims {} done",
                session.rounds_done, state.rounds_done
            ));
        }
        if !state.trace_records.is_empty() {
            session.trace_parts.push(Trace {
                records: state.trace_records,
            });
        }

        // Rebuild the live workers: a prober's durable state is its
        // clock, ethics guard, metrics, and probe-repetition counters —
        // everything else is a pure function of the world seed and the
        // suite label, so a fresh worker plus restore reproduces it
        // exactly. Rebuilt workers start with cold policy caches: the
        // cache is derived state, deliberately absent from checkpoints,
        // and re-warming it is invisible to every measurement surface.
        let shards = session.builder.worker_count();
        if state.workers.len() != shards {
            return Err(format!(
                "checkpoint has {} worker states, expected one per shard ({shards})",
                state.workers.len()
            ));
        }
        let parts = partition_hosts(&session.tracked, shards);
        for (ws, part) in state.workers.into_iter().zip(parts) {
            let mut w = Worker::new(world, &session.builder, part);
            w.prober
                .context()
                .clock
                .advance_to(SimTime::from_micros(ws.clock_micros));
            w.prober.ethics_mut().restore(ws.ethics, ws.contacts);
            w.prober.metrics().add_snapshot(&ws.metrics);
            w.prober.occurrences_restore(ws.occurrences);
            // lint:allow(det-hash-iter) ws.counts is the checkpoint's sorted Vec, not a hash map; the name merely matches the Worker field
            w.counts = ws.counts.into_iter().collect();
            session.workers.push(w);
        }
        Ok(session)
    }

    /// Write the session's durable state to `path`. See
    /// [`Session::to_state`] for what is saved and when this is legal.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_state().to_text())
    }

    /// Continue a checkpointed session from `path` against `world` —
    /// the inverse of [`Session::checkpoint`].
    pub fn restore(path: impl AsRef<Path>, world: &'w dyn Population) -> io::Result<Session<'w>> {
        let text = std::fs::read_to_string(path)?;
        let state = CampaignState::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Session::from_state(state, world)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Streaming handoff only: give each worker the warm policy cache
    /// of the streamed sweep worker for the same shard, so cache tallies
    /// accumulate across the sweep→rounds boundary exactly as an eager
    /// session's long-lived workers do. Workers beyond `caches` keep
    /// their cold caches.
    pub(crate) fn hand_off_caches(&mut self, caches: &[Option<PolicyCacheHandle>]) {
        for (w, cache) in self.workers.iter_mut().zip(caches) {
            w.prober.set_policy_cache(cache.clone());
        }
    }
}

/// One longitudinal round over one worker's `hosts`. Hosts inside the
/// incremental skip horizon answer from carried state; with
/// `full_rescan` every host is probed. Returns the round statuses, the
/// busy time, and the issued/skipped probe counts.
#[allow(clippy::too_many_arguments)]
fn incremental_round_sweep(
    prober: &mut Prober<'_>,
    day: u16,
    hosts: &[HostId],
    preferred: &HashMap<HostId, ProbeTest>,
    counts: &mut HashMap<HostId, u32>,
    last_conclusive: &HashMap<HostId, (u16, RoundStatus)>,
    world: &dyn Population,
    full_rescan: bool,
) -> (HashMap<HostId, RoundStatus>, SimDuration, u64, u64) {
    let start = Campaign::begin_sweep(prober, Phase::Round(day), day);
    let faults_active = prober.options().faults.is_active();
    let retries_active = prober.options().retry.max_attempts > 1;
    let mut statuses = HashMap::new();
    let mut issued = 0u64;
    let mut skipped = 0u64;
    for &host in hosts {
        let seen = counts.entry(host).or_insert(0);
        let test = preferred[&host];
        // The skip horizon. A host's round probe can be answered from
        // carried state only when nothing that can change the answer
        // lies in between — and injected faults perturb every probe, so
        // they disable skipping wholesale.
        let carried = if full_rescan || faults_active {
            None
        } else {
            let profile = &world.host(host).profile;
            match profile.blacklist_after {
                // A host past its blacklist threshold rejects every
                // connection at the banner, so the round is Inconclusive
                // no matter what (even a flaky connect times out into
                // the same verdict) and a no-retry probe spends exactly
                // one attempt. Pre-threshold probes run for real — one
                // probe can open more than one connection (greylisting),
                // so predicting the crossing is not worth the machinery
                // — as do retried ones, whose attempt count depends on
                // the rejection banner drawn.
                Some(limit) => {
                    (*seen >= limit && !retries_active).then_some(RoundStatus::Inconclusive)
                }
                // Deterministic host: its last conclusive status
                // survives if no patch event lies in the window since
                // and this round's probe would miss the host's flaky
                // roll (replayed from the probe's identity rng without
                // issuing it).
                None => last_conclusive
                    .get(&host)
                    .filter(|(last_day, _)| !profile.status_event_in(*last_day, day))
                    .map(|&(_, status)| status)
                    .filter(|_| !prober.would_flake(host, day, test, *seen)),
            }
        };
        if let Some(status) = carried {
            // A full rescan would spend exactly one deterministic,
            // conclusive attempt here; mirror its blacklist counter so
            // every probe this engine *does* issue rolls the same dice.
            *seen += 1;
            skipped += 1;
            statuses.insert(host, status);
            continue;
        }
        let (outcome, attempts) = prober.probe_with_retry(host, day, test, *seen);
        *seen += attempts;
        issued += 1;
        statuses.insert(host, Campaign::round_status(&outcome));
    }
    let busy = prober.context().clock.now().since(start);
    (statuses, busy, issued, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            scale: 0.004,
            ..WorldConfig::small(11)
        })
    }

    /// A checkpoint after two rounds, plus the session's tracked hosts.
    fn two_round_state(world: &World) -> (CampaignState, Vec<HostId>) {
        let mut session = CampaignBuilder::new().session(world);
        session.initial_sweep();
        session.advance_round();
        session.advance_round();
        (session.to_state(), session.tracked().to_vec())
    }

    fn restore_error(state: CampaignState, world: &World) -> String {
        match Session::from_state(state, world) {
            Ok(_) => panic!("a state the engine cannot write must not restore"),
            Err(e) => e,
        }
    }

    /// A small world and its campaign checkpointed right after the
    /// initial sweep (round boundary 0).
    fn boundary_zero() -> (World, CampaignState) {
        let world = World::generate(WorldConfig {
            scale: 0.002,
            ..WorldConfig::small(11)
        });
        let mut session = CampaignBuilder::new().session(&world);
        session.initial_sweep();
        let state = session.to_state();
        (world, state)
    }

    #[test]
    fn from_state_restores_an_engine_written_sweep_record() {
        let (world, state) = boundary_zero();
        assert_eq!(state.initial.len(), world.hosts.len());
        let session = Session::from_state(state, &world).expect("engine-written state restores");
        assert!(!session.tracked().is_empty());
    }

    #[test]
    fn from_state_rejects_init_lines_with_a_gap() {
        let (world, mut state) = boundary_zero();
        let gap = state.initial.len() / 2;
        state.initial.remove(gap);
        let err = restore_error(state, &world);
        assert!(err.contains(&format!("where host {gap} belongs")), "{err}");
    }

    #[test]
    fn from_state_rejects_init_lines_short_of_the_world() {
        let (world, mut state) = boundary_zero();
        state.initial.pop();
        let err = restore_error(state, &world);
        assert!(err.contains("the world has"), "{err}");
    }

    #[test]
    fn from_state_rejects_a_duplicated_init_line() {
        let (world, mut state) = boundary_zero();
        let line = state.initial[3].clone();
        state.initial.insert(4, line);
        let err = restore_error(state, &world);
        assert!(err.contains("names host 3 where host 4 belongs"), "{err}");
    }

    #[test]
    fn from_state_rejects_an_aggregate_column_short_of_the_world() {
        let (world, mut state) = boundary_zero();
        let mut masks = state.mask_column(None).expect("engine-written record");
        masks.pop();
        state.initial.clear();
        state.masks = Some(masks);
        let err = restore_error(state, &world);
        assert!(err.contains("the world has"), "{err}");
    }

    #[test]
    fn from_state_restores_engine_written_rounds() {
        let world = world();
        let (state, _) = two_round_state(&world);
        let session = Session::from_state(state, &world).expect("engine-written state restores");
        assert_eq!(session.rounds_done(), 2);
    }

    #[test]
    fn from_state_rejects_a_round_naming_an_untracked_host() {
        let world = world();
        let (mut state, tracked) = two_round_state(&world);
        let outsider = (0..world.hosts.len() as u32)
            .map(HostId)
            .find(|h| !tracked.contains(h))
            .expect("some host is not tracked");
        let round = &mut state.rounds[1].1;
        let at = round.partition_point(|(h, _)| *h < outsider);
        round.insert(at, (outsider, RoundStatus::Patched));
        let err = restore_error(state, &world);
        assert!(err.contains("outside the tracked set"), "{err}");
    }

    #[test]
    fn from_state_rejects_round_days_that_do_not_strictly_increase() {
        let world = world();
        let (state, _) = two_round_state(&world);
        let mut swapped = state.clone();
        let (first, second) = (swapped.rounds[0].0, swapped.rounds[1].0);
        swapped.rounds[0].0 = second;
        swapped.rounds[1].0 = first;
        let err = restore_error(swapped, &world);
        assert!(err.contains("strictly increasing"), "{err}");

        let mut repeated = state;
        repeated.rounds[1].0 = repeated.rounds[0].0;
        let err = restore_error(repeated, &world);
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn from_state_rejects_a_round_naming_a_host_twice() {
        let world = world();
        let (state, _) = two_round_state(&world);
        let mut twice = state.clone();
        let (host, status) = twice.rounds[0].1[0];
        let flipped = if status == RoundStatus::Patched {
            RoundStatus::Vulnerable
        } else {
            RoundStatus::Patched
        };
        twice.rounds[0].1.insert(1, (host, flipped));
        let err = restore_error(twice, &world);
        assert!(err.contains("twice"), "{err}");

        let mut unordered = state;
        unordered.rounds[0].1.swap(0, 1);
        let err = restore_error(unordered, &world);
        assert!(err.contains("out of host order"), "{err}");
    }
}
