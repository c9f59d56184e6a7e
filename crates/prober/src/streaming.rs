//! The streaming campaign driver: bounded-memory measurement over a
//! lazily synthesized world.
//!
//! The eager engine materializes the whole population, probes it, and
//! keeps every per-host initial result for the lifetime of the run —
//! peak heap O(hosts). This driver runs the same campaign over one
//! [`LazyWorld`] pass, in two stages:
//!
//! 1. **Sweep, with retention folded in** — feed the host stream over
//!    bounded channels to one worker per shard (one worker for
//!    `shards(1)`), each the same worker an eager [`Session`] sweeps
//!    with, running each host through the same per-host step
//!    (`Campaign::sweep_host`): it folds the host's results into one
//!    [`HostMask`] the moment they exist, appends a tracked host and
//!    its blacklist counter to the worker's tracked column, forgets an
//!    untracked host's contact history, and drops the host's repetition
//!    counters. That is sound because host addresses are unique and
//!    every later phase re-probes only tracked hosts, so a worker never
//!    holds per-host state for more than the tracked hosts and the one
//!    it is probing. Each worker hands every probed record back to the
//!    feeder with its verdict, and the feeder's retention fold keeps
//!    the domains with a tracked host and every host they name: a
//!    [`SparsePopulation`] of O(tracked) records. A host record lives
//!    from its synthesis step until its step is decided, a bounded lag
//!    behind the stream.
//! 2. **Handoff** — assemble the sweep into an in-memory
//!    [`CampaignState`] (the same structure a checkpoint serialises,
//!    with the mask column as its `aggregate v1` section and every
//!    worker's state, identical to an eager session's) and continue
//!    through the ordinary staged [`Session`]: tracking is derived from
//!    the mask column exactly as after an eager sweep, and the rounds,
//!    snapshot, trace merge, and summary are *the checkpoint-resume
//!    path*, which `tests/session_checkpoint.rs` already proves
//!    byte-identical to an uninterrupted run. Each restored worker
//!    adopts its sweep worker's warm policy cache, so cache tallies
//!    match the eager engine's too.
//!
//! [`StreamedCampaign::adopt`] runs the same fold over its own single
//! pass, taking each verdict from a checkpoint's sweep record instead of
//! a probe. The report's `WorldAggregates` fold is the only other pass
//! a streamed run makes over the stream.
//!
//! Peak heap is O(shards + tracked + masks) — the mask column is 4
//! bytes per host, the one deliberately compact O(hosts) term — instead
//! of the eager engine's full population plus per-host probe outcomes
//! (`crates/bench/tests/alloc_count.rs` pins the budget).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};

use spfail_mta::PolicyCacheHandle;
use spfail_netsim::SimDuration;
use spfail_trace::{Phase, ProbeRecord, Tracer};
use spfail_world::{
    DomainId, DomainRecord, DomainStep, HostId, HostRecord, LazyWorld, RuntimePopulation,
    SparsePopulation, Timeline, WorldConfig,
};

use crate::aggregate::HostMask;
use crate::campaign::{interleave_shards, shard_of, Campaign, CampaignBuilder, CampaignRun};
use crate::checkpoint::{mask_column, CampaignState, WorkerState};
use crate::session::{Session, SessionStats};

/// Bound on in-flight host records per shard channel — the streamed
/// sweep's only buffering between synthesis and probing. A deep buffer
/// keeps each worker busy across the feeder's scheduling gaps; every
/// host in flight also keeps its step's domain record (and those of the
/// steps sharing its pool host) waiting in the retention fold.
const CHANNEL_DEPTH: usize = 512;

/// Everything a streaming campaign run produced: the run itself plus
/// the retained population the longitudinal phases ran over (the
/// notification and reporting layers keep using it).
pub struct StreamingRun {
    /// The campaign run — summary, traces, and longitudinal data
    /// bit-for-bit those of the eager engine; `run.data.initial` is
    /// empty (the sweep's record is [`CampaignRun::summary`]'s masks).
    pub run: CampaignRun,
    /// The retained O(tracked) population.
    pub population: SparsePopulation,
}

/// A streamed initial sweep, ready to hand off to a staged [`Session`]:
/// the retained population plus the in-memory checkpoint the session
/// continues from. Built by [`StreamedCampaign::sweep`] (a fresh
/// campaign) or [`StreamedCampaign::adopt`] (resuming a checkpoint of
/// either vintage in streaming mode).
pub struct StreamedCampaign {
    population: SparsePopulation,
    /// The checkpoint state, until [`StreamedCampaign::session`] takes it.
    state: Cell<Option<CampaignState>>,
    /// Each sweep worker's warm policy cache, in shard order, handed to
    /// the session's worker for the same shard — an eager session keeps
    /// one cache per worker across the sweep and every round. Empty for
    /// an adopted checkpoint, whose workers start cold.
    caches: Vec<Option<PolicyCacheHandle>>,
}

impl StreamedCampaign {
    /// Run the initial sweep for `builder` over the lazily synthesized
    /// world of `config`, retaining the tracked subset as the sweep
    /// decides it.
    pub fn sweep(builder: CampaignBuilder, config: WorldConfig) -> StreamedCampaign {
        let sweep = sweep_stream(&builder, LazyWorld::new(config.clone()));
        let state = CampaignState {
            builder,
            world_seed: config.seed,
            world_scale: config.scale,
            masks: Some(sweep.masks),
            rounds_done: 0,
            initial_busy: sweep.busy,
            rounds_busy: SimDuration::ZERO,
            stats: SessionStats::default(),
            initial: Vec::new(),
            rounds: Vec::new(),
            workers: sweep.workers,
            trace_records: sweep.trace_records,
        };
        StreamedCampaign {
            population: sweep.population,
            state: Cell::new(Some(state)),
            caches: sweep.caches,
        }
    }

    /// Resume a checkpointed campaign state (of either vintage: eager
    /// init lines or a streamed aggregate section) in streaming mode:
    /// one pass of the synthesis stream through the sweep's retention
    /// fold, each verdict read from the checkpoint's sweep record, then
    /// continue through [`StreamedCampaign::session`]. The checkpoint
    /// must be for the world of `config` (seed and scale are validated
    /// at session construction).
    pub fn adopt(state: CampaignState, config: WorldConfig) -> StreamedCampaign {
        // A sweep record that does not cover the world retains nothing
        // here; `session` then refuses it with the reason. A streamed
        // record is read in place; an `init`-line state derives its column.
        let derived;
        let masks: &[u32] = match &state.masks {
            Some(masks) if state.initial.is_empty() => masks,
            Some(_) => &[],
            None => {
                derived = mask_column(None, &state.initial, None).unwrap_or_default();
                &derived
            }
        };
        let tracked = |host: HostId| {
            masks
                .get(host.0 as usize)
                .is_some_and(|&m| HostMask(m).tracked())
        };
        let mut lazy = LazyWorld::new(config);
        // Every verdict is at hand, so each step is decided as it passes.
        let mut retention = Retention::new(&lazy, 0);
        while let Some(step) = lazy.next() {
            for (host, record) in retention.queue(step, lazy.live_pool_hosts()) {
                retention.verdict(host, tracked(host), record);
            }
            retention.resolve();
        }
        StreamedCampaign {
            population: retention.finish(),
            state: Cell::new(Some(state)),
            // A resumed session starts with cold caches in either mode
            // (the cache is derived state, absent from checkpoints).
            caches: Vec::new(),
        }
    }

    /// The retained population.
    pub fn population(&self) -> &SparsePopulation {
        &self.population
    }

    /// Consume the handoff, keeping the retained population.
    pub fn into_population(self) -> SparsePopulation {
        self.population
    }

    /// Open the staged [`Session`] that continues this campaign: rounds,
    /// snapshot, and finish run exactly as the eager engine's
    /// checkpoint-resume path. The state moves into the session, so only
    /// the first call can open one; it errs when the state does not fit
    /// the world (see [`Session::from_state`]), and every later call errs.
    pub fn session(&self) -> Result<Session<'_>, String> {
        let state = self
            .state
            .take()
            .ok_or("the campaign state was already handed to a session")?;
        let mut session = Session::from_state(state, &self.population)?;
        session.hand_off_caches(&self.caches);
        Ok(session)
    }
}

/// The retention fold: keeps the domains with a tracked host and
/// *every* host those domains name — the records the rounds, snapshot,
/// and notification phases look up (delivery walks a vulnerable domain's
/// whole MX list, and the funnel reads every member host's ground truth,
/// so tracked hosts alone are not enough). The retained domains are
/// precisely the initially vulnerable ones, which is what makes
/// [`SparsePopulation::derive_vulnerable_domains`] agree with the eager
/// full-world scan.
///
/// Steps are queued in stream order and decided in that order, each as
/// soon as every host it names has a verdict, so the result depends on
/// the verdicts alone, never on when they arrive. A step names its own
/// fresh hosts and, from earlier steps, at most the live pool hosts
/// [`LazyWorld::live_pool_hosts`] reported before it; so besides the
/// fresh records of undecided steps the fold holds at most two records,
/// those of the live pool hosts, for a later domain that may still name
/// them. Debug builds check after every [`Retention::resolve`] that the
/// queued hosts stay within the caller's in-flight bound and the queued
/// steps within what those hosts' steps and the runs of pool-only steps
/// after each ([`LazyWorld::max_steps_without_fresh_hosts`]) add up to.
///
/// Every host in flight keeps a queue slot and its step's domain record
/// (and those of the steps sharing its pool host) waiting here, so the
/// queues hold what they must compactly: host records travel boxed, and
/// a queued step keeps its record and three bytes besides.
struct Retention {
    population: SparsePopulation,
    /// Queued steps not decided yet, in domain-id order from
    /// `next_domain`.
    steps: VecDeque<PendingStep>,
    /// Id of the first step in `steps`.
    next_domain: u32,
    /// The fresh hosts of the queued steps, in id order from
    /// `next_host`: each one's verdict and record, `None` until its
    /// verdict is in.
    fresh: VecDeque<Option<(bool, Box<HostRecord>)>>,
    /// Id of the first host in `fresh`.
    next_host: u32,
    /// [`LazyWorld::live_pool_hosts`] after the last queued step.
    live: [Option<HostId>; 2],
    /// The pool hosts live after the last decided step, in the order of
    /// [`LazyWorld::live_pool_hosts`].
    pools: [Option<PoolHost>; 2],
    /// Bound on the queued hosts past the oldest undecided step's.
    in_flight: usize,
    /// [`LazyWorld::max_steps_without_fresh_hosts`].
    max_run: usize,
}

/// A queued synthesis step waiting for the verdicts of its hosts.
struct PendingStep {
    domain: DomainRecord,
    /// How many hosts the step created.
    fresh: u8,
    /// For each pool of [`LazyWorld::live_pool_hosts`], the offset among
    /// the step's fresh hosts of the one that refilled it, if one did.
    refills: [Option<u8>; 2],
}

/// A live pool host, kept for the later steps that may name it.
struct PoolHost {
    id: HostId,
    tracked: bool,
    /// `None` once retained.
    record: Option<Box<HostRecord>>,
}

impl Retention {
    /// An empty fold over the stream `lazy`, before its first step.
    /// `in_flight` caps the queued hosts past the oldest undecided
    /// step's: the hosts the sweep may have sent on without a verdict
    /// back (see [`sweep_stream`]), or none when every verdict is at hand.
    fn new(lazy: &LazyWorld, in_flight: usize) -> Retention {
        Retention {
            population: SparsePopulation::new(lazy.runtime().clone()),
            steps: VecDeque::new(),
            next_domain: 0,
            fresh: VecDeque::new(),
            next_host: 0,
            live: lazy.live_pool_hosts(),
            pools: [None, None],
            in_flight,
            max_run: lazy.max_steps_without_fresh_hosts(),
        }
    }

    /// Queue `step`, the stream's next, with the pool hosts left live
    /// after it, and hand back its fresh host records with their ids:
    /// each must come back through [`Retention::verdict`].
    fn queue(
        &mut self,
        step: DomainStep,
        live: [Option<HostId>; 2],
    ) -> impl Iterator<Item = (HostId, Box<HostRecord>)> {
        let first = step.first_fresh.0;
        debug_assert_eq!(
            (step.id.0 as usize, first as usize),
            (
                self.next_domain as usize + self.steps.len(),
                self.next_host as usize + self.fresh.len()
            ),
            "steps are queued in stream order"
        );
        let fresh = u8::try_from(step.fresh.len()).expect("a step creates a few hosts");
        // A pool that changed hands was refilled by one of this step's
        // fresh hosts.
        let refill = |pool: usize| {
            let host = live[pool].filter(|_| live[pool] != self.live[pool])?;
            let offset = host
                .0
                .checked_sub(first)
                .and_then(|offset| u8::try_from(offset).ok())
                .filter(|&offset| offset < fresh)
                .expect("a pool refills with a fresh host");
            Some(offset)
        };
        let refills = [refill(0), refill(1)];
        self.live = live;
        self.fresh
            .resize_with(self.fresh.len() + step.fresh.len(), || None);
        self.steps.push_back(PendingStep {
            domain: step.domain,
            fresh,
            refills,
        });
        step.fresh
            .into_iter()
            .enumerate()
            .map(move |(offset, record)| (HostId(first + offset as u32), Box::new(record)))
    }

    /// Record a queued host's verdict (tracked or not), with its record.
    fn verdict(&mut self, host: HostId, tracked: bool, record: Box<HostRecord>) {
        let slot = &mut self.fresh[(host.0 - self.next_host) as usize];
        debug_assert!(slot.is_none(), "one verdict per host");
        *slot = Some((tracked, record));
    }

    /// Decide every queued step, oldest first, whose hosts all have
    /// their verdicts.
    fn resolve(&mut self) {
        while let Some(step) = self.steps.front() {
            if self
                .fresh
                .range(..usize::from(step.fresh))
                .any(Option::is_none)
            {
                break;
            }
            let step = self.steps.pop_front().expect("front checked above");
            self.decide(step);
        }
        let oldest = self.steps.front().map_or(0, |s| usize::from(s.fresh));
        debug_assert!(
            self.fresh.len() <= self.in_flight + oldest,
            "retention queues {} hosts, past its bound of {} plus the oldest step's",
            self.fresh.len(),
            self.in_flight
        );
        // The oldest queued step has a host still undecided, so it
        // created hosts; every later one created hosts or is one of at
        // most `max_run` pool-only steps after one that did.
        debug_assert!(
            self.steps.len() <= self.fresh.len() * (self.max_run + 1),
            "retention queues {} steps behind {} hosts, past {} steps a host",
            self.steps.len(),
            self.fresh.len(),
            self.max_run + 1
        );
    }

    /// Decide the oldest queued step, whose verdicts are all in.
    fn decide(&mut self, step: PendingStep) {
        let first = self.next_host;
        let fresh = usize::from(step.fresh);
        let keep = step
            .domain
            .hosts
            .iter()
            .any(|&host| self.is_tracked(host, fresh));
        if keep {
            // A pool host from an earlier step joins with the first kept
            // domain that names it.
            for &host in step.domain.hosts.iter().filter(|h| h.0 < first) {
                if let Some(pool) = self.pools.iter_mut().flatten().find(|p| p.id == host) {
                    if let Some(record) = pool.record.take() {
                        self.population.insert_host(host, *record);
                    }
                }
            }
        }
        for (offset, slot) in self.fresh.drain(..fresh).enumerate() {
            let id = HostId(first + offset as u32);
            let (tracked, record) = slot.expect("a decided step has every verdict");
            let record = if keep && step.domain.hosts.contains(&id) {
                self.population.insert_host(id, *record);
                None
            } else {
                Some(record)
            };
            if let Some(pool) = step.refills.iter().position(|&r| r == Some(offset as u8)) {
                self.pools[pool] = Some(PoolHost {
                    id,
                    tracked,
                    record,
                });
            }
        }
        self.next_host += u32::from(step.fresh);
        if keep {
            self.population
                .insert_domain(DomainId(self.next_domain), step.domain);
        }
        self.next_domain += 1;
    }

    /// The verdict of `host`, named by the oldest queued step, which
    /// created the first `fresh` hosts of the queue: one of those, or a
    /// live pool host.
    fn is_tracked(&self, host: HostId, fresh: usize) -> bool {
        if let Some(offset) = host.0.checked_sub(self.next_host) {
            debug_assert!((offset as usize) < fresh, "a step names no later host");
            return self.fresh[offset as usize]
                .as_ref()
                .expect("a decided step has every verdict")
                .0;
        }
        self.pools
            .iter()
            .flatten()
            .find(|p| p.id == host)
            .expect("a step names only its fresh hosts and the live pool hosts")
            .tracked
    }

    /// The retained population, once every queued step has its
    /// verdicts, with the columns' growth slack dropped.
    fn finish(mut self) -> SparsePopulation {
        self.resolve();
        assert!(
            self.steps.is_empty(),
            "every queued host gets its verdict before the fold finishes"
        );
        self.population.shrink_to_fit();
        self.population
    }
}

/// What the streamed sweep hands to the session.
struct SweepOutput {
    /// One [`HostMask`] per host, index = host id — the 4-bytes-per-host
    /// column that replaces the eager engine's per-host results.
    masks: Vec<u32>,
    /// Each worker's durable state, which names only its tracked hosts,
    /// in shard order.
    workers: Vec<WorkerState>,
    /// Each worker's policy cache, in shard order.
    caches: Vec<Option<PolicyCacheHandle>>,
    trace_records: Vec<ProbeRecord>,
    busy: SimDuration,
    /// The retention fold's result.
    population: SparsePopulation,
}

/// One sweep worker's results.
struct ShardOut {
    /// Masks of this shard's hosts in arrival (id) order; host id =
    /// `shard + i * shards`, so the stride reconstructs the column
    /// without shipping ids.
    masks: Vec<u32>,
    state: WorkerState,
    cache: Option<PolicyCacheHandle>,
    trace: Vec<ProbeRecord>,
    busy: SimDuration,
}

/// The streamed sweep: the synthesis stream is dispatched to one worker
/// per shard over bounded channels ([`shard_of`] keys the partition, so
/// each worker receives exactly its eager partition in id order), each
/// worker running every host through the per-host step
/// `Session::initial_sweep`'s workers use (`Campaign::sweep_host`) and
/// sending the record back with its verdict to the feeder's
/// [`Retention`] fold.
///
/// The fold's backlog is bounded: the feeder drains the verdicts after
/// every step, and while the oldest host it has no verdict for is still
/// with its worker, that worker's channel holds at most [`CHANNEL_DEPTH`]
/// later hosts of its shard — so, shards taking ids in turn, fewer than
/// `shards × (CHANNEL_DEPTH + 1)` hosts from that one on have been sent.
fn sweep_stream(builder: &CampaignBuilder, mut lazy: LazyWorld) -> SweepOutput {
    let shards = builder.worker_count();
    let runtime = lazy.runtime().clone();
    let worker = |rx: Receiver<(HostId, Box<HostRecord>)>,
                  verdicts: Sender<(HostId, bool, Box<HostRecord>)>|
     -> ShardOut {
        let pop = RuntimePopulation(runtime.clone());
        let tracer = Tracer::new(builder.trace);
        let mut prober = builder.worker_prober(&pop, &tracer);
        let start = Campaign::begin_sweep(&mut prober, Phase::Initial, Timeline::INITIAL);
        let mut masks = Vec::new();
        let mut tracked = Vec::new();
        while let Ok((host, record)) = rx.recv() {
            let (_, mask) = Campaign::sweep_host(&mut prober, host, &record, &mut tracked);
            masks.push(mask.0);
            verdicts
                .send((host, mask.tracked(), record))
                .expect("the feeder drains verdicts until every worker is done");
        }
        ShardOut {
            masks,
            state: WorkerState::capture(&prober, tracked.into_iter().map(|(_, n)| n).collect()),
            cache: prober.context().policy_cache.clone(),
            trace: tracer.finish().records,
            busy: prober.context().clock.now().since(start),
        }
    };

    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<(HostId, Box<HostRecord>)>(CHANNEL_DEPTH);
        txs.push(tx);
        rxs.push(rx);
    }
    // Unbounded, so a worker never waits on the feeder while the feeder
    // waits on its channel; the backlog is bounded all the same (above).
    let (verdict_tx, verdict_rx) = channel::<(HostId, bool, Box<HostRecord>)>();
    let mut retention = Retention::new(&lazy, shards * (CHANNEL_DEPTH + 1));
    let shard_outputs: Vec<ShardOut> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = rxs
            .into_iter()
            .map(|rx| {
                let verdicts = verdict_tx.clone();
                s.spawn(|_| worker(rx, verdicts))
            })
            .collect();
        drop(verdict_tx);
        // The feeder: synthesize on this thread, dispatch each fresh
        // host's record to its shard, fold the verdicts back in as they
        // come, and drop the senders to close.
        while let Some(step) = lazy.next() {
            for (host, record) in retention.queue(step, lazy.live_pool_hosts()) {
                txs[shard_of(host, shards)]
                    .send((host, record))
                    .expect("shard worker hung up");
            }
            for (host, tracked, record) in verdict_rx.try_iter() {
                retention.verdict(host, tracked, record);
            }
            retention.resolve();
        }
        drop(txs);
        for (host, tracked, record) in verdict_rx.iter() {
            retention.verdict(host, tracked, record);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("scope");

    let mut masks = Vec::with_capacity(shards);
    let mut out = SweepOutput {
        masks: Vec::new(),
        workers: Vec::with_capacity(shards),
        caches: Vec::with_capacity(shards),
        trace_records: Vec::new(),
        busy: SimDuration::ZERO,
        population: retention.finish(),
    };
    for shard_out in shard_outputs {
        masks.push(shard_out.masks);
        out.workers.push(shard_out.state);
        out.caches.push(shard_out.cache);
        out.trace_records.extend(shard_out.trace);
        out.busy = out.busy.max(shard_out.busy);
    }
    let hosts = masks.iter().map(Vec::len).sum::<usize>() as u32;
    out.masks = interleave_shards(masks, (0..hosts).map(HostId));
    out
}

/// The two-pass retention the fold replaced, kept as the reference the
/// fold is tested against: re-drive the synthesis stream keeping the
/// domains with a tracked host and every host they name. Two passes,
/// because a shared-hosting domain can name a host synthesized for an
/// earlier domain: pass one collects the host ids, pass two the records.
#[cfg(test)]
mod reference {
    use spfail_world::{HostId, LazyWorld, SparsePopulation, WorldConfig, WorldRuntime};

    pub(super) fn retain(config: WorldConfig, tracked: &[HostId]) -> SparsePopulation {
        let kept = |hosts: &[HostId]| hosts.iter().any(|h| tracked.binary_search(h).is_ok());
        let mut keep_hosts: Vec<HostId> = Vec::new();
        for step in LazyWorld::new(config.clone()) {
            if kept(&step.domain.hosts) {
                keep_hosts.extend(step.domain.hosts.iter().copied());
            }
        }
        keep_hosts.sort();
        keep_hosts.dedup();

        let mut population = SparsePopulation::new(WorldRuntime::new(config.clone()));
        for step in LazyWorld::new(config) {
            let first = step.first_fresh.0;
            for (offset, record) in step.fresh.into_iter().enumerate() {
                let id = HostId(first + offset as u32);
                if keep_hosts.binary_search(&id).is_ok() {
                    population.insert_host(id, record);
                }
            }
            if kept(&step.domain.hosts) {
                population.insert_domain(step.id, step.domain);
            }
        }
        population
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::tracked_hosts;
    use spfail_world::{Population, World};

    fn config() -> WorldConfig {
        WorldConfig {
            scale: 0.004,
            ..WorldConfig::small(7)
        }
    }

    /// The streamed run's sweep record and longitudinal data equal the
    /// eager run's; `initial` is deliberately empty when streaming.
    fn assert_same_run(streamed: &crate::CampaignRun, eager: &crate::CampaignRun) {
        assert_eq!(streamed.summary, eager.summary);
        let (s, e) = (&streamed.data, &eager.data);
        assert_eq!(s.tracked, e.tracked);
        assert_eq!(s.rounds, e.rounds);
        assert_eq!(s.snapshot, e.snapshot);
        assert_eq!(s.vulnerable_domains, e.vulnerable_domains);
        assert_eq!(s.ethics, e.ethics);
        assert_eq!(s.network, e.network);
        assert!(s.initial.results.is_empty());
    }

    #[test]
    fn streaming_summary_matches_eager_sequential() {
        let world = World::generate(config());
        let eager = CampaignBuilder::new().run(&world);
        let streamed = CampaignBuilder::new().run_streaming(config());
        assert_same_run(&streamed.run, &eager);
    }

    #[test]
    fn streaming_summary_matches_eager_sharded() {
        let world = World::generate(config());
        let eager = CampaignBuilder::new().shards(3).run(&world);
        let streamed = CampaignBuilder::new().shards(3).run_streaming(config());
        assert_same_run(&streamed.run, &eager);
    }

    /// The provider-heavy world of the `provider_stream` benchmark
    /// workload, at test scale.
    fn provider_heavy() -> WorldConfig {
        WorldConfig {
            scale: config().scale,
            ..WorldConfig::provider_heavy(config().seed)
        }
    }

    /// Every retained id, record and domain, in column order.
    fn dump(population: &SparsePopulation) -> (Vec<String>, Vec<String>) {
        (
            population
                .hosts()
                .map(|(id, record)| format!("{id:?} {record:?}"))
                .collect(),
            population
                .domains()
                .map(|(id, record)| format!("{id:?} {record:?}"))
                .collect(),
        )
    }

    /// The one-pass fold retains exactly what the two-pass replay does,
    /// in the sweep (whatever order the workers' verdicts arrive in) and
    /// in an adoption of the sweep's record.
    #[test]
    fn retention_fold_matches_the_two_pass_replay() {
        for config in [config(), provider_heavy()] {
            for shards in [1, 2, 4] {
                let streamed =
                    StreamedCampaign::sweep(CampaignBuilder::new().shards(shards), config.clone());
                let state = streamed.state.take().expect("a fresh handoff");
                let masks = state.masks.as_deref().expect("a streamed record");
                let tracked = tracked_hosts(masks);
                assert!(!tracked.is_empty());
                let expected = dump(&reference::retain(config.clone(), &tracked));
                assert!(!expected.1.is_empty());
                assert_eq!(
                    dump(&streamed.population),
                    expected,
                    "sweep, {shards} shards, shared hosting {}",
                    config.shared_hosting_rate
                );
                let adopted = StreamedCampaign::adopt(state, config.clone());
                assert_eq!(
                    dump(&adopted.population),
                    expected,
                    "adopt, {shards} shards, shared hosting {}",
                    config.shared_hosting_rate
                );
            }
        }
    }

    /// The handoff moves the sweep state into the first session; every
    /// later call errs instead of resuming from a copy.
    #[test]
    fn second_session_errs() {
        let streamed = StreamedCampaign::sweep(CampaignBuilder::new(), config());
        let first = streamed.session().expect("the first handoff restores");
        assert!(streamed.session().is_err());
        drop(first);
        assert!(streamed.session().is_err());
    }

    #[test]
    fn retained_population_covers_the_longitudinal_phases() {
        let streamed = CampaignBuilder::new().run_streaming(config());
        for &host in &streamed.run.summary.tracked {
            assert!(streamed.population.has_host(host));
        }
        assert_eq!(
            streamed.population.domain_count(),
            streamed.run.summary.vulnerable_domains.len()
        );
        // Delivery and the snapshot walk each vulnerable domain's whole
        // MX list, so every member host must be retained, tracked or not.
        for &d in &streamed.run.summary.vulnerable_domains {
            for &h in &streamed.population.domain(d).hosts {
                assert!(streamed.population.has_host(h));
            }
        }
    }
}
