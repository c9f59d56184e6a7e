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
//! probing its [`shard_of`] partition through its own
//! isolated [`ProbeContext`](crate::ProbeContext). A worker keeps a
//! host's per-host state (contact history, blacklist counter) only once
//! the host's verdict says it is tracked, so it leaves the sweep holding
//! exactly its partition of the tracked set, then keeps its prober —
//! clock, ethics guard, policy cache — through every round. The snapshot
//! runs on fresh per-shard workers, and `finish` leaves the world's
//! clock on the snapshot day. Each stage runs its workers through
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
//! audit + contact history, network counters, and blacklist counters —
//! plus the trace records already emitted. [`CampaignState`] is exactly
//! that inventory. A worker's probe-repetition counters are not in it:
//! each key carries the day of the sweep that made it, later sweeps use
//! strictly later days and the snapshot runs on fresh workers, so the
//! initial and snapshot sweeps drop a host's counters once the host is
//! done and a round drops them at its end: none is live at a boundary.
//!
//! The session keeps its record in checkpoint order. The sweep's
//! `(host, result)` pairs are a host-sorted column, merged from the
//! workers' partitions by their [`shard_of`] stride. Each round is a
//! dense column of statuses by tracked position, one byte per tracked
//! host: every worker returns its statuses in its own host order and
//! the session scatters them through the worker's tracked positions.
//! A worker's blacklist counters are likewise one per host of its
//! partition, in partition order. [`Session::to_state`] therefore
//! copies these columns without a hash walk or a sort,
//! [`Session::from_state`] moves the parsed columns back in once their
//! lengths match the tracked set, and [`Session::finish`] moves the
//! sweep column and every round's statuses into [`CampaignData`] as they
//! are, each round a [`RoundColumn`] sharing one copy of the tracked
//! list; the snapshot is folded into an [`IdColumn`]. [`Session::checkpoint`]
//! writes a temporary file and renames it over the target, so a crash
//! mid-write never destroys the last good checkpoint.
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

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

use spfail_mta::PolicyCacheHandle;
use spfail_netsim::{MetricsSnapshot, PolicyCacheStats, SimDuration, SimTime};
use spfail_trace::{Phase, Trace, Tracer};
use spfail_world::{DomainId, HostId, Population, Timeline};

use crate::aggregate::{CampaignSummary, HostMask, Tracking};
use crate::campaign::{
    interleave_shards, partition_hosts, shard_of, Campaign, CampaignBuilder, CampaignData,
    CampaignRun, CampaignTiming, HostResults, InitialMeasurement, RoundColumn, RoundStatus,
};
use crate::checkpoint::{mask_column, CampaignState, WorkerState};
use crate::column::IdColumn;
use crate::ethics::EthicsAudit;
use crate::probe::Prober;

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
    hosts: Vec<HostId>,
    /// From the initial sweep (or restore) on: each of `hosts`'
    /// blacklist counter, the connections it has received so far.
    counts: Vec<u32>,
    /// From the initial sweep (or restore) on: each of `hosts`' position
    /// in the session's tracked list, where its carried state lives.
    positions: Vec<u32>,
}

impl<'w> Worker<'w> {
    fn new(pop: &'w dyn Population, builder: &CampaignBuilder, hosts: Vec<HostId>) -> Worker<'w> {
        let tracer = Tracer::new(builder.trace);
        Worker {
            prober: builder.worker_prober(pop, &tracer),
            tracer,
            hosts,
            counts: Vec::new(),
            positions: Vec::new(),
        }
    }
}

/// Each shard's part of `tracked` (id-sorted), in shard order: its
/// hosts, as [`partition_hosts`] splits them, and their positions in
/// `tracked`.
fn partition_tracked(tracked: &[HostId], shards: usize) -> Vec<(Vec<HostId>, Vec<u32>)> {
    let mut parts = vec![(Vec::new(), Vec::new()); shards.max(1)];
    for (position, &host) in tracked.iter().enumerate() {
        let (hosts, positions) = &mut parts[shard_of(host, shards)];
        hosts.push(host);
        positions.push(position as u32);
    }
    parts
}

impl WorkerState {
    /// Capture a worker's durable state: its clock, ethics guard and
    /// metrics, plus `counts`, its tracked hosts' blacklist counters in
    /// host order.
    pub(crate) fn capture(prober: &Prober<'_>, counts: Vec<u32>) -> WorkerState {
        let (ethics, contacts) = prober.ethics().export();
        WorkerState {
            clock_micros: prober.context().clock.now().as_micros(),
            ethics,
            contacts,
            metrics: prober.metrics().snapshot(),
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
    /// The initial sweep's per-host results, host-sorted: kept by an
    /// eager session (its checkpoints write them as `init` lines), `None`
    /// for a streamed one, whose record is `masks` alone.
    initial: Option<HostResults>,
    /// The initial sweep compressed to one [`HostMask`](crate::HostMask)
    /// per host (index = host id); every session carries it, and
    /// tracking is derived from it.
    masks: Vec<u32>,
    tracked: Vec<HostId>,
    vulnerable_domains: Vec<DomainId>,
    /// Completed rounds: `(day, statuses)`, each round's statuses one
    /// per tracked host by tracked position — the checkpoint's `round`
    /// lines.
    rounds: Vec<(u16, Vec<RoundStatus>)>,
    initial_busy: SimDuration,
    rounds_busy: SimDuration,
    /// Trace records drained at checkpoints; the final trace is the
    /// identity-ordered merge of these with the workers' tracers, so
    /// draining points leave no mark.
    trace_parts: Vec<Trace>,
    /// Each tracked host's last conclusive measurement `(day, status)`,
    /// indexed by its position in `tracked` — the incremental engine's
    /// carried state. Derivable from `masks` + `rounds`, so it is never
    /// checkpointed.
    last_conclusive: Vec<(u16, RoundStatus)>,
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
            rounds: Vec::new(),
            initial_busy: SimDuration::ZERO,
            rounds_busy: SimDuration::ZERO,
            trace_parts: Vec::new(),
            last_conclusive: Vec::new(),
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
    /// Each worker sweeps its partition of the world through
    /// `Campaign::sweep_host`, which keeps per-host state only for the
    /// tracked hosts, so the worker leaves the sweep holding exactly its
    /// partition of the tracked set.
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
        let sweeps = on_workers(&mut workers, |w| {
            Campaign::initial_sweep(&mut w.prober, world, &w.hosts)
        });
        let mut results = Vec::with_capacity(shards);
        let mut masks = Vec::with_capacity(shards);
        for (w, sweep) in workers.iter_mut().zip(sweeps) {
            results.push(sweep.results);
            masks.push(sweep.masks);
            (w.hosts, w.counts) = sweep.tracked.into_iter().unzip();
            self.initial_busy = self.initial_busy.max(sweep.busy);
        }
        self.initial = Some(IdColumn::from_sorted(interleave_shards(
            results,
            all_hosts.iter().copied(),
        )));
        self.note_sweep(interleave_shards(masks, all_hosts.iter().copied()));
        for (w, (part, positions)) in workers
            .iter_mut()
            .zip(partition_tracked(&self.tracked, shards))
        {
            debug_assert_eq!(w.hosts, part, "a worker tracks its partition");
            w.positions = positions;
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
            vulnerable_domains,
        } = Tracking::from_masks(&masks, self.pop);
        self.masks = masks;
        self.last_conclusive = vec![(Timeline::INITIAL, RoundStatus::Vulnerable); tracked.len()];
        self.tracked = tracked;
        self.vulnerable_domains = vulnerable_domains;
    }

    /// Record a finished round (one status per tracked host, by tracked
    /// position): push it onto the results and advance the carried
    /// per-host state by its conclusive measurements.
    fn note_round(&mut self, day: u16, statuses: Vec<RoundStatus>) {
        for (last, &status) in self.last_conclusive.iter_mut().zip(&statuses) {
            if status != RoundStatus::Inconclusive {
                *last = (day, status);
            }
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
        let masks = &self.masks;
        let last_conclusive = &self.last_conclusive;
        let outputs = on_workers(&mut self.workers, |w| {
            incremental_round_sweep(
                &mut w.prober,
                day,
                &w.hosts,
                &w.positions,
                masks,
                &mut w.counts,
                last_conclusive,
                world,
                full_rescan,
            )
        });
        let mut parts = Vec::with_capacity(outputs.len());
        let mut round_busy = SimDuration::ZERO;
        for (part_statuses, busy, issued, skipped) in outputs {
            parts.push(part_statuses);
            round_busy = round_busy.max(busy);
            self.stats.round_probes_issued += issued;
            self.stats.round_probes_skipped += skipped;
        }
        self.rounds_busy = self.rounds_busy + round_busy;
        let statuses = scatter_round(&self.workers, parts, self.tracked.len());
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

        // Retire the round workers before the snapshot's fresh ones
        // exist, so the two never hold memory at once. Every worker's
        // audit, metrics, cache tallies and trace merge in a fixed
        // order: the round workers, then the snapshot workers.
        let mut ethics = EthicsAudit::default();
        let mut network = MetricsSnapshot::default();
        let mut cache = PolicyCacheStats::default();
        let trace_parts = &mut self.trace_parts;
        let mut retire = |workers: Vec<Worker<'w>>| {
            for w in workers {
                ethics = ethics.merge(w.prober.ethics().audit());
                network = network.merge(&w.prober.metrics().snapshot());
                cache = cache.merge(&w.prober.policy_cache_stats());
                trace_parts.push(w.tracer.finish());
            }
        };
        retire(std::mem::take(&mut self.workers));

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
        let masks = &self.masks;
        let outputs = on_workers(&mut snapshot_workers, |w| {
            Campaign::snapshot_sweep(&mut w.prober, world, &w.hosts, masks)
        });
        retire(snapshot_workers);
        let mut parts = Vec::with_capacity(outputs.len());
        let mut snapshot_busy = SimDuration::ZERO;
        for (statuses, busy) in outputs {
            parts.push(statuses);
            snapshot_busy = snapshot_busy.max(busy);
        }
        let host_statuses = IdColumn::from_sorted(interleave_shards(parts, targets));
        let snapshot = Campaign::aggregate_snapshot(&domain_hosts, &host_statuses);

        // Leave the world's clock on the snapshot day.
        world
            .runtime()
            .clock
            .advance_to(Timeline::day_to_time(Timeline::END));

        let tracked: Arc<[HostId]> = self.tracked.as_slice().into();
        let rounds = self
            .rounds
            .into_iter()
            .map(|(day, statuses)| (day, RoundColumn::new(Arc::clone(&tracked), statuses)))
            .collect();
        let data = CampaignData {
            initial: InitialMeasurement {
                results: self.initial.unwrap_or_default(),
            },
            tracked: self.tracked,
            rounds,
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
        // The session keeps its record in checkpoint order, so capture is
        // a copy. An eager session writes its per-host results as `init`
        // lines, a streamed one its mask column as the `aggregate v1`
        // section.
        let initial = self
            .initial
            .as_ref()
            .map(|results| results.as_slice().to_vec())
            .unwrap_or_default();
        let rounds = self.rounds.clone();
        let workers = self
            .workers
            .iter()
            .map(|w| WorkerState::capture(&w.prober, w.counts.clone()))
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
    /// the world is refused (see `checkpoint::mask_column`). Either
    /// state vintage restores against either population kind — mode can
    /// be toggled across a stop/resume boundary.
    pub fn from_state(
        state: CampaignState,
        world: &'w dyn Population,
    ) -> Result<Session<'w>, String> {
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
        let streamed = state.masks.is_some();
        let masks = mask_column(state.masks, &state.initial, world.full_host_count())?;
        let mut session = Session::new(state.builder, world);
        if !streamed {
            session.initial = Some(IdColumn::from_sorted(state.initial));
        }
        session.note_sweep(masks);
        session.initial_busy = state.initial_busy;
        session.rounds_busy = state.rounds_busy;
        session.stats = state.stats;
        // Only rounds the engine can write restore: each on the
        // timeline's day for its position (so days strictly increase),
        // carrying one status per tracked host. The report's
        // longitudinal view relies on exactly this.
        let round_days = Timeline::all_round_days();
        for (i, (day, statuses)) in state.rounds.into_iter().enumerate() {
            if round_days.get(i) != Some(&day) {
                return Err(format!(
                    "checkpoint round {} is on day {day}, off the timeline's strictly \
                     increasing round days",
                    i + 1
                ));
            }
            if statuses.len() != session.tracked.len() {
                return Err(format!(
                    "checkpoint round on day {day} carries {} statuses for {} tracked hosts \
                     (one per tracked host)",
                    statuses.len(),
                    session.tracked.len()
                ));
            }
            session.note_round(day, statuses);
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
        // clock, ethics guard and metrics — everything else is a pure
        // function of the world seed and the suite label (its
        // probe-repetition counters never outlive a sweep), so a fresh
        // worker plus restore reproduces it exactly. Rebuilt workers start with cold policy caches: the
        // cache is derived state, deliberately absent from checkpoints,
        // and re-warming it is invisible to every measurement surface.
        let shards = session.builder.worker_count();
        if state.workers.len() != shards {
            return Err(format!(
                "checkpoint has {} worker states, expected one per shard ({shards})",
                state.workers.len()
            ));
        }
        let parts = partition_tracked(&session.tracked, shards);
        for (i, (ws, (part, positions))) in state.workers.into_iter().zip(parts).enumerate() {
            // Only counters the engine can write restore: one per host
            // of the worker's partition of the tracked set.
            if ws.counts.len() != part.len() {
                return Err(format!(
                    "checkpoint worker {i} keeps {} counters for its {} tracked hosts \
                     (one per host of its partition)",
                    ws.counts.len(),
                    part.len()
                ));
            }
            let mut w = Worker::new(world, &session.builder, part);
            w.positions = positions;
            w.counts = ws.counts;
            w.prober
                .context()
                .clock
                .advance_to(SimTime::from_micros(ws.clock_micros));
            w.prober.ethics_mut().restore(ws.ethics, ws.contacts);
            w.prober.metrics().add_snapshot(&ws.metrics);
            session.workers.push(w);
        }
        Ok(session)
    }

    /// Write the session's durable state to `path`. See
    /// [`Session::to_state`] for what is saved and when this is legal.
    ///
    /// The text goes to a temporary file beside `path` that is synced
    /// and then renamed over it, so a crash mid-write leaves the previous
    /// checkpoint whole instead of a torn file that may still parse.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        replace_file(path.as_ref(), self.to_state().to_text().as_bytes())
    }

    /// Continue a checkpointed session from `path` against `world` —
    /// the inverse of [`Session::checkpoint`].
    pub fn restore(path: impl AsRef<Path>, world: &'w dyn Population) -> io::Result<Session<'w>> {
        let text = std::fs::read_to_string(path)?;
        let state = CampaignState::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Session::from_state(state, world).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
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

/// Replace the file at `path` with `bytes` so that it holds either its
/// old or its new contents after a crash, never a mix: write a sibling
/// temporary file, sync it, rename it over `path`, then sync the
/// directory so the rename itself is durable.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(".{}.tmp", std::process::id()));
    let temp = std::path::PathBuf::from(temp);
    let written = std::fs::File::create(&temp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&temp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
        return written;
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    // A directory opens for syncing on Unix only.
    if cfg!(unix) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Scatter each worker's round statuses, in its own host order, to the
/// tracked positions it names in `Worker::positions`: the round as one
/// column by tracked position. One worker's statuses are that column
/// already (its positions are `0, 1, 2, …`) and move as they are.
fn scatter_round(
    workers: &[Worker<'_>],
    mut parts: Vec<Vec<RoundStatus>>,
    tracked: usize,
) -> Vec<RoundStatus> {
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut statuses = vec![RoundStatus::Inconclusive; tracked];
    for (w, part) in workers.iter().zip(parts) {
        debug_assert_eq!(w.positions.len(), part.len());
        for (&position, status) in w.positions.iter().zip(part) {
            statuses[position as usize] = status;
        }
    }
    statuses
}

/// One longitudinal round over one worker's `hosts`, at `positions` in
/// the tracked list that indexes `last_conclusive`, with `counts` their
/// blacklist counters. Hosts inside the
/// incremental skip horizon answer from carried state; with
/// `full_rescan` every host is probed. Returns the round statuses in
/// `hosts` order, the busy time, and the issued/skipped probe counts.
#[allow(clippy::too_many_arguments)]
fn incremental_round_sweep(
    prober: &mut Prober<'_>,
    day: u16,
    hosts: &[HostId],
    positions: &[u32],
    masks: &[u32],
    counts: &mut [u32],
    last_conclusive: &[(u16, RoundStatus)],
    world: &dyn Population,
    full_rescan: bool,
) -> (Vec<RoundStatus>, SimDuration, u64, u64) {
    let start = Campaign::begin_sweep(prober, Phase::Round(day), day);
    let faults_active = prober.options().faults.is_active();
    let retries_active = prober.options().retry.max_attempts > 1;
    let mut statuses = Vec::with_capacity(hosts.len());
    let mut issued = 0u64;
    let mut skipped = 0u64;
    debug_assert_eq!(hosts.len(), positions.len());
    debug_assert_eq!(hosts.len(), counts.len());
    for ((&host, &position), seen) in hosts.iter().zip(positions).zip(counts) {
        let record = world.host(host);
        let test = HostMask(masks[host.0 as usize]).preferred_test();
        // The skip horizon. A host's round probe can be answered from
        // carried state only when nothing that can change the answer
        // lies in between — and injected faults perturb every probe, so
        // they disable skipping wholesale.
        let carried = if full_rescan || faults_active {
            None
        } else {
            let profile = &record.profile;
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
                None => {
                    let (last_day, status) = last_conclusive[position as usize];
                    (!profile.status_event_in(last_day, day)
                        && !prober.would_flake(host, day, test, *seen))
                    .then_some(status)
                }
            }
        };
        if let Some(status) = carried {
            // A full rescan would spend exactly one deterministic,
            // conclusive attempt here; mirror its blacklist counter so
            // every probe this engine *does* issue rolls the same dice.
            *seen += 1;
            skipped += 1;
            statuses.push(status);
            continue;
        }
        let (outcome, attempts) = prober.probe_with_retry(host, record, day, test, *seen);
        *seen += attempts;
        issued += 1;
        statuses.push(Campaign::round_status(&outcome));
        Campaign::bound_query_log(prober);
    }
    prober.forget_repetitions();
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
        let mut masks =
            mask_column(state.masks.take(), &state.initial, None).expect("engine-written record");
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

    /// A two-round checkpoint's text with the line starting `prefix`
    /// passed through `edit`; it must still parse, and must not restore.
    fn edited_text_error(prefix: &str, edit: impl Fn(&str) -> String) -> String {
        let world = world();
        let (state, _) = two_round_state(&world);
        let text = state.to_text();
        let line = text
            .lines()
            .find(|l| l.starts_with(prefix))
            .expect("the checkpoint has the line");
        let edited = text.replacen(line, &edit(line), 1);
        assert_ne!(edited, text);
        let state = CampaignState::parse(&edited).expect("the edited text still parses");
        restore_error(state, &world)
    }

    #[test]
    fn from_state_rejects_a_round_one_status_short() {
        let world = world();
        let (_, tracked) = two_round_state(&world);
        let n = tracked.len();
        let day = Timeline::all_round_days()[1];
        let err = edited_text_error(&format!("round {day} "), |l| l[..l.len() - 1].to_string());
        assert!(
            err.contains(&format!(
                "round on day {day} carries {} statuses for {n} tracked hosts",
                n - 1
            )),
            "{err}"
        );
    }

    #[test]
    fn from_state_rejects_a_round_one_status_long() {
        let world = world();
        let (_, tracked) = two_round_state(&world);
        let n = tracked.len();
        let day = Timeline::all_round_days()[0];
        let err = edited_text_error(&format!("round {day} "), |l| format!("{l}p"));
        assert!(
            err.contains(&format!(
                "round on day {day} carries {} statuses for {n} tracked hosts",
                n + 1
            )),
            "{err}"
        );
    }

    #[test]
    fn from_state_rejects_counters_one_short_of_the_partition() {
        let world = world();
        let (state, _) = two_round_state(&world);
        let n = state.workers[0].counts.len();
        assert!(n > 1, "the worker tracks hosts");
        let err = edited_text_error("wcounts ", |l| {
            l.rsplit_once(' ').expect("counters").0.to_string()
        });
        assert!(
            err.contains(&format!(
                "worker 0 keeps {} counters for its {n} tracked hosts",
                n - 1
            )),
            "{err}"
        );
    }

    #[test]
    fn from_state_rejects_counters_one_past_the_partition() {
        let world = world();
        let (state, _) = two_round_state(&world);
        let n = state.workers[0].counts.len();
        let err = edited_text_error("wcounts ", |l| format!("{l} 1"));
        assert!(
            err.contains(&format!(
                "worker 0 keeps {} counters for its {n} tracked hosts",
                n + 1
            )),
            "{err}"
        );
    }
}
