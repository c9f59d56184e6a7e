//! The streaming campaign driver: bounded-memory measurement over a
//! lazily synthesized world.
//!
//! The eager engine materializes the whole population, probes it, and
//! keeps every per-host initial result for the lifetime of the run —
//! peak heap O(hosts). This driver runs the same campaign in three
//! bounded passes:
//!
//! 1. **Sweep** — feed a [`LazyWorld`] host stream over bounded
//!    channels to one worker per shard (one worker for `shards(1)`),
//!    each the same worker an eager [`Session`] sweeps with, folding
//!    each host's results into one [`HostMask`] the moment they exist
//!    and recording only the vulnerable `(host, ip)` pairs. Host
//!    records live exactly as long as their synthesis step; prober-side
//!    per-host state (contact history, blacklist counters) is pruned to
//!    the vulnerable set as the sweep goes — the same rule an eager
//!    session applies at the end of its sweep, and sound because host
//!    addresses are unique and every later phase re-probes only tracked
//!    hosts. The repetition counters are dropped at each prune: the
//!    hosts probed so far are done for the sweep's day.
//! 2. **Retention replay** — re-drive the synthesis stream (identical by
//!    construction) keeping just the tracked host records and the
//!    domains that reference them: a [`SparsePopulation`] of O(tracked)
//!    records over the *live* runtime surface of pass 1.
//! 3. **Handoff** — assemble the sweep into an in-memory
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
//! Peak heap is O(shards + tracked + masks) — the mask column is 4
//! bytes per host, the one deliberately compact O(hosts) term — instead
//! of the eager engine's full population plus per-host probe outcomes
//! (`crates/bench/tests/alloc_count.rs` pins the budget).

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, Receiver};

use spfail_mta::PolicyCacheHandle;
use spfail_netsim::SimDuration;
use spfail_trace::{Phase, ProbeRecord, Tracer};
use spfail_world::{
    HostId, HostRecord, LazyWorld, RuntimePopulation, SparsePopulation, Timeline, WorldConfig,
    WorldRuntime,
};

use crate::aggregate::{tracked_hosts, HostMask};
use crate::campaign::{
    interleave_shards, shard_of, Campaign, CampaignBuilder, CampaignRun, QUERY_LOG_BOUND,
};
use crate::checkpoint::{mask_column, CampaignState, WorkerState};
use crate::session::{Session, SessionStats};

/// How many hosts a sweep worker probes between prunes of its per-host
/// state. Between prunes the maps hold at most this many dead entries,
/// so the interval trades prune overhead against the high-water mark.
const PRUNE_INTERVAL: usize = 4096;

/// Bound on in-flight host records per shard channel — the streamed
/// sweep's only buffering between synthesis and probing.
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
    state: CampaignState,
    /// Each sweep worker's warm policy cache, in shard order, handed to
    /// the session's worker for the same shard — an eager session keeps
    /// one cache per worker across the sweep and every round. Empty for
    /// an adopted checkpoint, whose workers start cold.
    caches: Vec<Option<PolicyCacheHandle>>,
}

impl StreamedCampaign {
    /// Run the initial sweep for `builder` over the lazily synthesized
    /// world of `config`, then replay the stream to retain the tracked
    /// subset.
    pub fn sweep(builder: CampaignBuilder, config: WorldConfig) -> StreamedCampaign {
        let lazy = LazyWorld::new(config.clone());
        let runtime = lazy.runtime().clone();
        let sweep = sweep_stream(&builder, lazy, &runtime);
        let population = retain(config.clone(), runtime, &tracked_hosts(&sweep.masks));
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
            population,
            state,
            caches: sweep.caches,
        }
    }

    /// Resume a checkpointed campaign state (of either vintage: eager
    /// init lines or a streamed aggregate section) in streaming mode:
    /// replay the synthesis stream to retain the tracked subset, then
    /// continue through [`StreamedCampaign::session`]. The checkpoint
    /// must be for the world of `config` (seed and scale are validated
    /// at session construction).
    pub fn adopt(state: CampaignState, config: WorldConfig) -> StreamedCampaign {
        // A sweep record that does not cover the world retains nothing
        // here; `session` then refuses it with the reason.
        let tracked = mask_column(state.masks.clone(), &state.initial, None)
            .map(|masks| tracked_hosts(&masks))
            .unwrap_or_default();
        let runtime = WorldRuntime::new(config.clone());
        let population = retain(config, runtime, &tracked);
        StreamedCampaign {
            population,
            state,
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
    /// checkpoint-resume path. Errs when the state does not fit the
    /// world (see [`Session::from_state`]).
    pub fn session(&self) -> Result<Session<'_>, String> {
        let mut session = Session::from_state(self.state.clone(), &self.population)?;
        session.hand_off_caches(&self.caches);
        Ok(session)
    }
}

/// What the streamed sweep hands to the session.
struct SweepOutput {
    /// One [`HostMask`] per host, index = host id — the 4-bytes-per-host
    /// column that replaces the eager engine's per-host results.
    masks: Vec<u32>,
    /// Each worker's durable state, pruned to its tracked hosts, in
    /// shard order.
    workers: Vec<WorkerState>,
    /// Each worker's policy cache, in shard order.
    caches: Vec<Option<PolicyCacheHandle>>,
    trace_records: Vec<ProbeRecord>,
    busy: SimDuration,
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
/// worker probing through its own prober exactly as
/// `Session::initial_sweep`'s workers do. Each worker folds every host
/// into its [`HostMask`] the moment its probes finish and prunes its
/// per-host state to the tracked hosts as it goes.
fn sweep_stream(builder: &CampaignBuilder, lazy: LazyWorld, runtime: &WorldRuntime) -> SweepOutput {
    let shards = builder.worker_count();
    let worker = |rx: Receiver<(HostId, HostRecord)>| -> ShardOut {
        let pop = RuntimePopulation(runtime.clone());
        let tracer = Tracer::new(builder.trace);
        let mut prober = builder.worker_prober(&pop, &tracer);
        let query_log = prober.context().query_log.clone();
        let start = Campaign::begin_sweep(&mut prober, Phase::Initial, Timeline::INITIAL);
        let mut masks = Vec::new();
        let mut vulnerable: Vec<(HostId, Ipv4Addr)> = Vec::new();
        let mut counts = HashMap::default();
        while let Ok((host, record)) = rx.recv() {
            let (result, seen) = Campaign::probe_initial(&mut prober, host, &record);
            let mask = HostMask::from_initial(&result);
            masks.push(mask.0);
            if mask.tracked() {
                vulnerable.push((host, record.ip));
                counts.insert(host, seen);
            }
            if query_log.len() > QUERY_LOG_BOUND {
                query_log.clear();
            }
            if masks.len() % PRUNE_INTERVAL == 0 {
                prober.retain_hosts(&vulnerable);
                prober.forget_repetitions();
            }
        }
        prober.retain_hosts(&vulnerable);
        prober.forget_repetitions();
        ShardOut {
            masks,
            state: WorkerState::capture(&prober, &counts),
            cache: prober.context().policy_cache.clone(),
            trace: tracer.finish().records,
            busy: prober.context().clock.now().since(start),
        }
    };

    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<(HostId, HostRecord)>(CHANNEL_DEPTH);
        txs.push(tx);
        rxs.push(rx);
    }
    let shard_outputs: Vec<ShardOut> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = rxs.into_iter().map(|rx| s.spawn(|_| worker(rx))).collect();
        // The feeder: synthesize on this thread, dispatch each fresh
        // host's record to its shard, drop the senders to close.
        for step in lazy {
            let first = step.first_fresh.0;
            for (offset, record) in step.fresh.into_iter().enumerate() {
                let host = HostId(first + offset as u32);
                txs[shard_of(host, shards)]
                    .send((host, record))
                    .expect("shard worker hung up");
            }
        }
        drop(txs);
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

/// The retention replay: re-drive the synthesis stream (bit-identical
/// to the sweep's, both are `LazyWorld::new(config)`) keeping the
/// domains with a tracked host and *every* host those domains
/// reference — the records the rounds, snapshot, and notification
/// phases look up (delivery walks a vulnerable domain's whole MX list,
/// and the funnel reads every member host's ground truth, so tracked
/// hosts alone are not enough). The retained domains are precisely the
/// initially vulnerable ones, which is what makes
/// [`SparsePopulation::derive_vulnerable_domains`] agree with the eager
/// full-world scan.
///
/// Two passes: shared-hosting domains reference hosts synthesized for
/// *earlier* domains, so which hosts to keep is only known once every
/// domain's membership has streamed by. Pass one collects the host-id
/// set and counts the domains, pass two the records into columns
/// reserved to exactly those counts — synthesis is cheap, holding the
/// population is what streaming avoids.
fn retain(config: WorldConfig, runtime: WorldRuntime, tracked: &[HostId]) -> SparsePopulation {
    let mut keep_hosts: Vec<HostId> = Vec::new();
    let mut keep_domains = 0;
    for step in LazyWorld::new(config.clone()) {
        if step
            .domain
            .hosts
            .iter()
            .any(|h| tracked.binary_search(h).is_ok())
        {
            keep_hosts.extend(step.domain.hosts.iter().copied());
            keep_domains += 1;
        }
    }
    keep_hosts.sort();
    keep_hosts.dedup();

    let mut population = SparsePopulation::new(runtime);
    population.reserve(keep_hosts.len(), keep_domains);
    for step in LazyWorld::new(config) {
        let first = step.first_fresh.0;
        for (offset, record) in step.fresh.into_iter().enumerate() {
            let id = HostId(first + offset as u32);
            if keep_hosts.binary_search(&id).is_ok() {
                population.insert_host(id, record);
            }
        }
        if step
            .domain
            .hosts
            .iter()
            .any(|h| tracked.binary_search(h).is_ok())
        {
            population.insert_domain(step.id, step.domain);
        }
    }
    population
}

#[cfg(test)]
mod tests {
    use super::*;
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
