//! The full measurement programme (paper §5.3):
//!
//! * **Initial sweep** (day 0, 2021-10-11): every unique server address of
//!   both domain sets, NoMsg first, BlankMsg where NoMsg elicited no SPF.
//! * **Longitudinal rounds** every 2 days across two windows
//!   (Oct 26 – Nov 30 and Jan 15 – Feb 14), restricted to the initially
//!   vulnerable and the inconclusive-but-remeasurable addresses.
//! * **Final snapshot** (February 2022) with freshly resolved MX records.
//! * The §7.6 **inference rules**: a host measured vulnerable at time *t*
//!   was vulnerable at all *t' ≤ t*; one measured patched at *t* stays
//!   patched for all *t' ≥ t*.

use std::collections::HashMap;

use spfail_netsim::{FaultProfile, MetricsSnapshot, PolicyCacheStats, SimDuration, SimTime};
use spfail_trace::{Phase, Trace, TraceConfig, Tracer};
use spfail_world::{DomainId, HostId, HostRecord, Population, Timeline, World};

use crate::aggregate::HostMask;
use crate::classify::Classification;
use crate::ethics::{EthicsAudit, MAX_CONCURRENT};
use crate::probe::{
    ProbeContext, ProbeOptions, ProbeOutcome, ProbeTest, ProbeVerdict, Prober, RetryPolicy,
};

/// The initial sweep clears a worker's query log once it holds more
/// entries than this; a probe only ever reads its own window.
pub(crate) const QUERY_LOG_BOUND: usize = 50_000;

/// Which shard a host belongs to when the campaign is split `shards` ways.
///
/// The key is the host id itself, so the partition depends only on the
/// host set and the shard count — never on thread scheduling — and a
/// host keeps all of its probes (and therefore its blacklisting counter
/// and contact-spacing history) on a single worker.
pub fn shard_of(host: HostId, shards: usize) -> usize {
    host.0 as usize % shards.max(1)
}

/// Partition `hosts` into `shards` deterministic groups by [`shard_of`],
/// preserving the input order within each group.
pub fn partition_hosts(hosts: &[HostId], shards: usize) -> Vec<Vec<HostId>> {
    let shards = shards.max(1);
    let mut parts = vec![Vec::new(); shards];
    for &host in hosts {
        parts[shard_of(host, shards)].push(host);
    }
    parts
}

/// The inverse of [`partition_hosts`] over the host range `0..n`: merge
/// per-shard mask columns, shard `s` holding the masks of hosts `s`,
/// `s + shards`, `s + 2 * shards`, … in order, into one column indexed
/// by host id.
pub(crate) fn interleave_shards(parts: Vec<Vec<u32>>) -> Vec<u32> {
    let shards = parts.len();
    let mut masks = vec![0u32; parts.iter().map(Vec::len).sum()];
    for (shard, part) in parts.into_iter().enumerate() {
        for (i, mask) in part.into_iter().enumerate() {
            masks[shard + i * shards] = mask;
        }
    }
    masks
}

/// Table 3's per-address outcome ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostClass {
    /// TCP refused.
    Refused,
    /// SMTP failed before the probe ran its course, in every test tried.
    SmtpFailure,
    /// SPF behaviour conclusively measured.
    SpfMeasured,
    /// Transactions completed but no SPF activity was observed.
    SpfNotMeasured,
}

/// Both initial probes of one host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInitialResult {
    /// The NoMsg probe (always attempted).
    pub nomsg: ProbeOutcome,
    /// The BlankMsg probe, when the NoMsg result warranted one.
    pub blankmsg: Option<ProbeOutcome>,
}

impl HostInitialResult {
    /// The conclusive classification, from whichever test produced one.
    pub fn classification(&self) -> Option<&Classification> {
        if self.nomsg.spf_measured() {
            return Some(&self.nomsg.classification);
        }
        self.blankmsg
            .as_ref()
            .filter(|b| b.spf_measured())
            .map(|b| &b.classification)
    }

    /// The probe variant that produced the conclusive measurement.
    pub fn measured_by(&self) -> Option<ProbeTest> {
        if self.nomsg.spf_measured() {
            Some(ProbeTest::NoMsg)
        } else if self.blankmsg.as_ref().is_some_and(|b| b.spf_measured()) {
            Some(ProbeTest::BlankMsg)
        } else {
            None
        }
    }

    /// Whether the vulnerable fingerprint was observed in either test.
    pub fn vulnerable(&self) -> bool {
        self.classification().is_some_and(Classification::vulnerable)
    }

    /// Whether any probe ended in a transient failure (re-measurable).
    pub fn transient(&self) -> bool {
        let t = |p: &ProbeOutcome| {
            p.transaction
                .as_ref()
                .is_some_and(|o| o.is_transient())
        };
        t(&self.nomsg) || self.blankmsg.as_ref().is_some_and(t)
    }

    /// The Table 3 outcome class.
    pub fn class(&self) -> HostClass {
        if self.classification().is_some() {
            return HostClass::SpfMeasured;
        }
        if self.nomsg.refused() {
            return HostClass::Refused;
        }
        let failed = |p: &ProbeOutcome| p.smtp_failure();
        match &self.blankmsg {
            Some(blank) => {
                if failed(&self.nomsg) || failed(blank) {
                    HostClass::SmtpFailure
                } else {
                    HostClass::SpfNotMeasured
                }
            }
            None => {
                if failed(&self.nomsg) {
                    HostClass::SmtpFailure
                } else {
                    HostClass::SpfNotMeasured
                }
            }
        }
    }
}

/// The initial sweep's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InitialMeasurement {
    /// Per-host results (every unique address probed once).
    pub results: HashMap<HostId, HostInitialResult>,
}

impl InitialMeasurement {
    /// Hosts whose initial measurement showed the vulnerable fingerprint.
    pub fn vulnerable_hosts(&self) -> Vec<HostId> {
        let mut hosts: Vec<HostId> = self
            .results
            .iter()
            .filter(|(_, r)| r.vulnerable())
            .map(|(&h, _)| h)
            .collect();
        hosts.sort();
        hosts
    }
}

/// A host's status in one longitudinal round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundStatus {
    /// Measured with the vulnerable fingerprint.
    Vulnerable,
    /// Measured with a non-vulnerable (typically compliant) fingerprint.
    Patched,
    /// No conclusive measurement this round.
    Inconclusive,
}

/// A domain's status in the final snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotStatus {
    /// All of the domain's initially vulnerable hosts measured patched.
    Patched,
    /// At least one still measured vulnerable.
    Vulnerable,
    /// Never conclusively measured in February.
    Unknown,
}

/// Everything the campaign measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignData {
    /// The initial sweep.
    pub initial: InitialMeasurement,
    /// Hosts tracked longitudinally: the initially vulnerable, sorted.
    pub tracked: Vec<HostId>,
    /// Per-round measurements: `(day, host -> status)`.
    pub rounds: Vec<(u16, HashMap<HostId, RoundStatus>)>,
    /// The final snapshot, per initially-vulnerable domain.
    pub snapshot: HashMap<DomainId, SnapshotStatus>,
    /// Initially vulnerable domains (any vulnerable host).
    pub vulnerable_domains: Vec<DomainId>,
    /// The §6.1 self-restraint audit for the whole campaign.
    pub ethics: EthicsAudit,
    /// Network-layer counters for the whole campaign: DNS queries and
    /// faults, injected SMTP faults, retries and recoveries. Shard
    /// snapshots merge commutatively, so this too is identical across
    /// shard counts.
    pub network: MetricsSnapshot,
}

impl CampaignData {
    /// First round day a host was measured `Patched`, if ever.
    pub fn first_patched_day(&self, host: HostId) -> Option<u16> {
        self.rounds
            .iter()
            .find(|(_, statuses)| statuses.get(&host) == Some(&RoundStatus::Patched))
            .map(|(day, _)| *day)
    }

    /// Last round day a host was measured `Vulnerable`, if ever.
    pub fn last_vulnerable_day(&self, host: HostId) -> Option<u16> {
        self.rounds
            .iter()
            .rev()
            .find(|(_, statuses)| statuses.get(&host) == Some(&RoundStatus::Vulnerable))
            .map(|(day, _)| *day)
    }

    /// A host's status on `day` after applying the inference rules.
    pub fn inferred_status(&self, host: HostId, day: u16) -> RoundStatus {
        // Direct measurement wins.
        if let Some((_, statuses)) = self.rounds.iter().find(|(d, _)| *d == day) {
            match statuses.get(&host) {
                Some(&RoundStatus::Vulnerable) => return RoundStatus::Vulnerable,
                Some(&RoundStatus::Patched) => return RoundStatus::Patched,
                _ => {}
            }
        }
        // Rule 1: vulnerable later => vulnerable now (no regressions).
        if self.last_vulnerable_day(host).is_some_and(|d| d >= day) {
            return RoundStatus::Vulnerable;
        }
        // Rule 2: patched earlier => patched now.
        if self.first_patched_day(host).is_some_and(|d| d <= day) {
            return RoundStatus::Patched;
        }
        RoundStatus::Inconclusive
    }
}

/// Simulated probing time per campaign phase.
///
/// Wall-clock numbers on one machine mostly measure the scheduler; the
/// quantity sharding actually improves is how long the campaign keeps
/// probers busy in *simulated* time — connection latency, SMTP
/// round trips, contact-spacing waits, greylist retries. One worker
/// serialises every probe on one clock, so a sweep costs the sum of its
/// probes; with several workers a sweep costs only its busiest one. The
/// `scaling` benchmark reports the resulting speedup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTiming {
    /// Busy time of the initial sweep.
    pub initial: SimDuration,
    /// Busy time of all longitudinal rounds combined.
    pub rounds: SimDuration,
    /// Busy time of the final snapshot.
    pub snapshot: SimDuration,
}

impl CampaignTiming {
    /// Total simulated probing time across all phases.
    pub fn total(&self) -> SimDuration {
        self.initial + self.rounds + self.snapshot
    }
}

/// Everything one campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The campaign's measurements.
    pub data: CampaignData,
    /// The mode-independent comparison surface: initial results as
    /// [`HostMask`]s plus the longitudinal fields.
    /// Streaming and eager runs of the same configuration produce equal
    /// summaries bit for bit (`tests/streaming_equivalence.rs`); like
    /// `cache`, it is derived bookkeeping and excluded from run equality
    /// (`data.initial` already carries the same information eagerly).
    pub summary: crate::CampaignSummary,
    /// Per-phase simulated busy time, when requested with
    /// [`CampaignBuilder::timed`].
    pub timing: Option<CampaignTiming>,
    /// The campaign's structured trace, when requested with
    /// [`CampaignBuilder::trace`]. Identity-ordered, so identical for
    /// every shard count — `tests/trace_equivalence.rs` asserts
    /// byte-for-byte equality of its exported forms.
    pub trace: Option<Trace>,
    /// Compiled-policy cache tallies summed over every worker, `None`
    /// when the cache was disabled with
    /// [`CampaignBuilder::policy_cache`].
    pub cache: Option<PolicyCacheStats>,
}

/// Cache tallies are bookkeeping about *how* evaluations were answered,
/// not *what* was measured, so they are excluded from run equality: a
/// cached run equals its interpretive twin.
impl PartialEq for CampaignRun {
    fn eq(&self, other: &CampaignRun) -> bool {
        self.data == other.data && self.timing == other.timing && self.trace == other.trace
    }
}

/// The one way to configure and run a measurement campaign.
///
/// Every axis is a named builder method; the defaults are the reference
/// configuration: one worker, no faults, no retries.
///
/// ```
/// use spfail_netsim::FaultProfile;
/// use spfail_prober::{CampaignBuilder, RetryPolicy};
/// use spfail_world::{World, WorldConfig};
///
/// let world = World::generate(WorldConfig {
///     scale: 0.002,
///     ..WorldConfig::small(7)
/// });
/// let run = CampaignBuilder::new()
///     .shards(4)
///     .faults(FaultProfile::NONE)
///     .retry(RetryPolicy::standard())
///     .timed()
///     .run(&world);
/// assert!(run.timing.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignBuilder {
    pub(crate) shards: usize,
    pub(crate) options: ProbeOptions,
    pub(crate) timed: bool,
    pub(crate) trace: TraceConfig,
    pub(crate) incremental: bool,
    /// Inverted so the zero-value default keeps the cache *on*.
    pub(crate) no_policy_cache: bool,
}

impl CampaignBuilder {
    /// A one-worker, fault-free, no-retry, untimed campaign — the
    /// reference configuration.
    pub fn new() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// Split the campaign across `shards` parallel workers (0 and 1
    /// both mean one worker, run on the calling thread). Every shard
    /// count runs the same worker lifecycle and produces bit-for-bit the
    /// same data, under any fault profile.
    pub fn shards(mut self, shards: usize) -> CampaignBuilder {
        self.shards = shards;
        self
    }

    /// Inject network faults from `profile` into every probe.
    pub fn faults(mut self, profile: FaultProfile) -> CampaignBuilder {
        self.options.faults = profile;
        self
    }

    /// Answer transient probe failures with `policy` retries.
    pub fn retry(mut self, policy: RetryPolicy) -> CampaignBuilder {
        self.options.retry = policy;
        self
    }

    /// Also report per-phase simulated busy time in
    /// [`CampaignRun::timing`].
    pub fn timed(mut self) -> CampaignBuilder {
        self.timed = true;
        self
    }

    /// Record a structured trace of every probe into
    /// [`CampaignRun::trace`].
    pub fn trace(mut self, config: TraceConfig) -> CampaignBuilder {
        self.trace = config;
        self
    }

    /// Enable (`true`, the default) or disable the per-shard compiled
    /// SPF policy cache. The cache is measurement-transparent:
    /// [`CampaignData`], traces, and exhibits are bit-for-bit identical
    /// either way (`tests/policy_cache.rs`), only the wall-clock cost of
    /// re-parsing and re-interpreting policies changes — so `false`
    /// exists for measuring the cache and fencing it off when debugging.
    pub fn policy_cache(mut self, enabled: bool) -> CampaignBuilder {
        self.no_policy_cache = !enabled;
        self
    }

    /// Re-probe only hosts whose status can have changed since their
    /// last conclusive measurement (see
    /// [`Session`](crate::Session) for the horizon model). The
    /// measurement fields of [`CampaignData`] are identical to a full
    /// rescan; the ethics audit, network counters, and trace reflect the
    /// probes actually issued — that reduction is the point.
    pub fn incremental(mut self) -> CampaignBuilder {
        self.incremental = true;
        self
    }

    /// Open a staged [`Session`](crate::Session) for this configuration:
    /// the caller drives `initial_sweep` → `advance_round`* → `finish`
    /// explicitly and may checkpoint between stages.
    pub fn session<'w>(self, world: &'w dyn Population) -> crate::Session<'w> {
        crate::Session::new(self, world)
    }

    /// How many probing workers the campaign runs: one per shard (0 and
    /// 1 both mean one).
    pub(crate) fn worker_count(&self) -> usize {
        self.shards.max(1)
    }

    /// A fresh probing worker over `pop` recording into `tracer`: its
    /// own isolated directory, query log and clock, its own policy cache
    /// (unless disabled), and its share of the concurrency budget, so
    /// the fleet-wide cap holds for any worker count.
    pub(crate) fn worker_prober<'w>(&self, pop: &'w dyn Population, tracer: &Tracer) -> Prober<'w> {
        Prober::with_options(
            pop,
            "s1",
            ProbeContext::isolated(pop)
                .with_tracer(tracer.clone())
                .with_policy_cache(!self.no_policy_cache),
            (MAX_CONCURRENT / self.worker_count()).max(1),
            self.options,
        )
    }

    /// Run the configured campaign against `world` — the staged
    /// [`Session`](crate::Session) driven end to end in one call.
    pub fn run(self, world: &World) -> CampaignRun {
        let mut session = self.session(world);
        session.initial_sweep();
        while session.advance_round().is_some() {}
        session.finish()
    }

    /// Run the configured campaign in streaming mode: hosts are
    /// synthesized on demand from the world seed and each folded into
    /// its 4-byte [`HostMask`], so peak memory is O(tracked + mask
    /// column) instead of O(hosts) — with [`CampaignData`]'s
    /// longitudinal fields, traces, exhibits, and checkpoints
    /// bit-for-bit identical to [`CampaignBuilder::run`] on the eagerly
    /// generated world. The initial per-host results exist only as
    /// [`HostMask`]s: `run.data.initial` is empty and
    /// [`CampaignRun::summary`] carries the comparison surface.
    pub fn run_streaming(self, config: spfail_world::WorldConfig) -> crate::StreamingRun {
        let streamed = crate::StreamedCampaign::sweep(self, config);
        let mut session = streamed
            .session()
            .expect("a fresh handoff state is self-consistent");
        while session.advance_round().is_some() {}
        let run = session.finish();
        crate::StreamingRun {
            run,
            population: streamed.into_population(),
        }
    }
}

/// The shared sweep primitives behind the staged
/// [`Session`](crate::Session) engine (and therefore behind
/// [`CampaignBuilder::run`]) and the streamed sweep. Each helper is one
/// self-contained stage step over one worker's prober; the session runs
/// it on every worker.
pub(crate) struct Campaign;

impl Campaign {
    /// Open a sweep on `prober`: label its trace records with `phase`,
    /// move its clock to `day`, drop the query log's earlier entries
    /// (each probe reads only its own window) and reset the ethics
    /// guard's per-sweep dedup. Returns the sweep's start time.
    pub(crate) fn begin_sweep(prober: &mut Prober<'_>, phase: Phase, day: u16) -> SimTime {
        prober.context().tracer.set_phase(phase);
        prober
            .context()
            .clock
            .advance_to(Timeline::day_to_time(day));
        prober.context().query_log.clear();
        prober.ethics_mut().begin_sweep();
        prober.context().clock.now()
    }

    /// Both initial probes of one host: NoMsg first, then BlankMsg only
    /// when NoMsg ran but elicited no SPF (§5.1). Returns the result and
    /// the connections spent (the host's blacklist counter).
    pub(crate) fn probe_initial(
        prober: &mut Prober<'_>,
        host: HostId,
        record: &HostRecord,
    ) -> (HostInitialResult, u32) {
        let (nomsg, mut seen) =
            prober.probe_with_retry_record(host, record, Timeline::INITIAL, ProbeTest::NoMsg, 0);
        let blankmsg = if !nomsg.refused() && !nomsg.smtp_failure() && !nomsg.spf_measured() {
            let (outcome, attempts) = prober.probe_with_retry_record(
                host,
                record,
                Timeline::INITIAL,
                ProbeTest::BlankMsg,
                seen,
            );
            seen += attempts;
            Some(outcome)
        } else {
            None
        };
        (HostInitialResult { nomsg, blankmsg }, seen)
    }

    /// The initial sweep over one worker's partition of `world`. Returns
    /// the results, each host's [`HostMask`] in `hosts` order (folded as
    /// the host finishes, as the streamed sweep does) and the busy time.
    pub(crate) fn initial_sweep(
        prober: &mut Prober<'_>,
        world: &dyn Population,
        counts: &mut HashMap<HostId, u32>,
        hosts: &[HostId],
    ) -> (InitialMeasurement, Vec<u32>, SimDuration) {
        let start = Self::begin_sweep(prober, Phase::Initial, Timeline::INITIAL);
        let query_log = prober.context().query_log.clone();
        let mut results = HashMap::with_capacity(hosts.len());
        let mut masks = Vec::with_capacity(hosts.len());
        for &host in hosts {
            let (result, seen) = Self::probe_initial(prober, host, world.host(host));
            counts.insert(host, seen);
            masks.push(HostMask::from_initial(&result).0);
            results.insert(host, result);
            // Keep the query log bounded: each probe reads only its own
            // window, so anything older is dead weight.
            if query_log.len() > QUERY_LOG_BOUND {
                query_log.clear();
            }
        }
        let busy = prober.context().clock.now().since(start);
        (InitialMeasurement { results }, masks, busy)
    }

    /// The snapshot's probe targets: for each initially vulnerable
    /// domain, its freshly re-resolved hosts that are tracked; plus the
    /// deduplicated, sorted union (each host is probed exactly once even
    /// when domains share servers).
    pub(crate) fn snapshot_targets(
        world: &dyn Population,
        vulnerable_domains: &[DomainId],
        tracked: &[HostId],
    ) -> (Vec<HostId>, Vec<(DomainId, Vec<HostId>)>) {
        let mut domain_hosts = Vec::with_capacity(vulnerable_domains.len());
        let mut targets = Vec::new();
        for &domain in vulnerable_domains {
            let hosts: Vec<HostId> = world
                .resolve_mail_hosts(domain, Timeline::END)
                .into_iter()
                .filter(|h| tracked.binary_search(h).is_ok())
                .collect();
            targets.extend(hosts.iter().copied());
            domain_hosts.push((domain, hosts));
        }
        targets.sort();
        targets.dedup();
        (targets, domain_hosts)
    }

    /// Probe each of one worker's snapshot targets once (with one retry
    /// when the first attempt was inconclusive) on the snapshot day and
    /// record its February status.
    pub(crate) fn snapshot_sweep(
        prober: &mut Prober<'_>,
        hosts: &[HostId],
        preferred: &HashMap<HostId, ProbeTest>,
    ) -> (HashMap<HostId, RoundStatus>, SimDuration) {
        let start = Self::begin_sweep(prober, Phase::Snapshot, Timeline::END);
        let mut statuses = HashMap::new();
        for &host in hosts {
            let test = preferred.get(&host).copied().unwrap_or(ProbeTest::BlankMsg);
            let (mut outcome, _) = prober.probe_with_retry(host, Timeline::END, test, 0);
            if !outcome.spf_measured() {
                (outcome, _) = prober.probe_with_retry(host, Timeline::END, test, 0);
            }
            statuses.insert(host, Self::round_status(&outcome));
        }
        let busy = prober.context().clock.now().since(start);
        (statuses, busy)
    }

    /// Fold per-host snapshot statuses into per-domain verdicts: any
    /// vulnerable host condemns the domain; otherwise any inconclusive
    /// host leaves it unknown; only a clean sweep of patched hosts (of
    /// at least one host) counts as patched.
    pub(crate) fn aggregate_snapshot(
        domain_hosts: &[(DomainId, Vec<HostId>)],
        statuses: &HashMap<HostId, RoundStatus>,
    ) -> HashMap<DomainId, SnapshotStatus> {
        domain_hosts
            .iter()
            .map(|(domain, hosts)| {
                let status = if hosts.is_empty() {
                    SnapshotStatus::Unknown
                } else if hosts
                    .iter()
                    .any(|h| statuses.get(h) == Some(&RoundStatus::Vulnerable))
                {
                    SnapshotStatus::Vulnerable
                } else if hosts
                    .iter()
                    .any(|h| statuses.get(h) != Some(&RoundStatus::Patched))
                {
                    SnapshotStatus::Unknown
                } else {
                    SnapshotStatus::Patched
                };
                (*domain, status)
            })
            .collect()
    }

    /// A round's status is the probe's graceful-degradation verdict:
    /// only conclusive measurements claim `Vulnerable`/`Patched`; a
    /// host that was unreachable (or measured nothing) stays
    /// `Inconclusive` — it is never downgraded to patched.
    pub(crate) fn round_status(outcome: &ProbeOutcome) -> RoundStatus {
        match outcome.verdict() {
            ProbeVerdict::Vulnerable => RoundStatus::Vulnerable,
            ProbeVerdict::NotVulnerable => RoundStatus::Patched,
            ProbeVerdict::Unreachable | ProbeVerdict::Inconclusive => RoundStatus::Inconclusive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_world::WorldConfig;

    fn campaign() -> (World, CampaignData) {
        let world = World::generate(WorldConfig {
            scale: 0.004,
            ..WorldConfig::small(2024)
        });
        let data = CampaignBuilder::new().run(&world).data;
        (world, data)
    }

    #[test]
    fn initial_sweep_covers_every_host() {
        let (world, data) = campaign();
        assert_eq!(data.initial.results.len(), world.hosts.len());
    }

    #[test]
    fn detected_vulnerable_hosts_really_are_vulnerable() {
        let (world, data) = campaign();
        let detected = data.initial.vulnerable_hosts();
        assert!(!detected.is_empty(), "world must contain vulnerable hosts");
        for host in &detected {
            assert!(
                world.host(*host).profile.initially_vulnerable(),
                "no false positives: the fingerprint is unique to libSPF2"
            );
        }
    }

    #[test]
    fn detection_recall_is_high() {
        let (world, data) = campaign();
        // Ground truth: vulnerable AND reachable AND actually validating.
        let measurable: Vec<HostId> = world
            .initially_vulnerable_hosts()
            .into_iter()
            .filter(|&h| {
                let p = &world.host(h).profile;
                p.connect == spfail_mta::ConnectPolicy::Accept
                    && matches!(
                        p.quirk,
                        spfail_mta::SmtpQuirk::None | spfail_mta::SmtpQuirk::RejectMessage(_)
                    )
            })
            .collect();
        let detected = data.initial.vulnerable_hosts();
        let found = measurable
            .iter()
            .filter(|h| detected.contains(h))
            .count();
        let recall = found as f64 / measurable.len().max(1) as f64;
        assert!(recall > 0.75, "recall {recall} over {}", measurable.len());
    }

    #[test]
    fn rounds_cover_both_windows() {
        let (_, data) = campaign();
        assert_eq!(data.rounds.len(), Timeline::all_round_days().len());
        assert_eq!(data.rounds.first().map(|(d, _)| *d), Some(15));
        assert_eq!(data.rounds.last().map(|(d, _)| *d), Some(126));
    }

    #[test]
    fn patching_hosts_flip_status_at_their_patch_day() {
        let (world, data) = campaign();
        let mut checked = 0;
        for &host in &data.tracked {
            let profile = &world.host(host).profile;
            let Some(patch_day) = profile.patch_day else {
                continue;
            };
            if patch_day > Timeline::END || profile.blacklist_after.is_some() {
                continue;
            }
            // After the patch day the host must never measure vulnerable.
            for (day, statuses) in &data.rounds {
                if *day >= patch_day {
                    assert_ne!(
                        statuses.get(&host),
                        Some(&RoundStatus::Vulnerable),
                        "host {host:?} patched on day {patch_day} but vulnerable on {day}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "some patching host must have been checked");
    }

    #[test]
    fn inference_rules_work() {
        let (_, data) = campaign();
        let host = *data.tracked.first().expect("tracked hosts exist");
        // Whatever the measurements, inference must be monotone: never
        // Patched before Vulnerable.
        let mut seen_patched = false;
        for (day, _) in &data.rounds {
            match data.inferred_status(host, *day) {
                RoundStatus::Patched => seen_patched = true,
                RoundStatus::Vulnerable => {
                    assert!(!seen_patched, "no regression from patched to vulnerable");
                }
                RoundStatus::Inconclusive => {}
            }
        }
    }

    #[test]
    fn ethics_audit_reflects_the_campaign() {
        let (world, data) = campaign();
        // Longitudinal rounds re-contact the same addresses, so some
        // contacts must have waited out the 90-second spacing...
        assert!(data.ethics.immediate > 0);
        // ... and the sequential prober never holds two connections.
        assert!(data.ethics.peak_concurrency <= 2);
        // Every probe admitted went through the guard: at least one
        // contact per host in the initial sweep.
        assert!(
            (data.ethics.immediate + data.ethics.spaced) as usize >= world.hosts.len(),
            "every address was contacted at least once"
        );
    }

    #[test]
    fn snapshot_covers_all_vulnerable_domains() {
        let (_, data) = campaign();
        assert_eq!(data.snapshot.len(), data.vulnerable_domains.len());
        assert!(!data.snapshot.is_empty());
    }

    #[test]
    fn some_patching_is_observed_by_february() {
        let (_, data) = campaign();
        let patched = data
            .snapshot
            .values()
            .filter(|s| **s == SnapshotStatus::Patched)
            .count();
        assert!(
            patched > 0,
            "the snapshot must observe some patched domains"
        );
        let vulnerable = data
            .snapshot
            .values()
            .filter(|s| **s == SnapshotStatus::Vulnerable)
            .count();
        assert!(
            vulnerable > patched,
            "but the strong majority must remain vulnerable (~80%)"
        );
    }
}
