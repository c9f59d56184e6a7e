//! Driving one probe transaction against one simulated host.
//!
//! A [`Prober`] owns the objects every probe needs and reuses them
//! across probes: the MTA of the last probed host is rebuilt in place
//! for the next one (`WorldRuntime::rebuild_mta_record`), the sender
//! domain is written into a reused buffer, and the sender's local part,
//! the HELO domain and the recipient ladder are shared. What a probe
//! still allocates is what it returns or hands to the host: its id, its
//! sender domain, the session's reply texts that name the host, and its
//! classification.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use spfail_dns::{Directory, QueryLog, SpfTestAuthority};
use spfail_mta::mta::ConnectDecision;
use spfail_mta::{new_policy_cache, Mta, PolicyCacheHandle};
use spfail_netsim::{
    FaultOutcome, FaultProfile, Metrics, PolicyCacheStats, ProbeError, SimClock, SimDuration,
    SimRng,
};
use spfail_smtp::address::EmailAddress;
use spfail_smtp::client::{
    ClientAction, ClientRunner, TransactionOutcome, TransactionPlan, TransactionStep,
    USERNAME_LADDER,
};
use spfail_smtp::session::SessionState;
use spfail_trace::{SpanKind, Tracer};
use spfail_world::{HostId, HostRecord, MtaInstrumentation, Population, Timeline};

use crate::classify::{classify, Classification, RESERVED_ID_LABELS};
use crate::ethics::{EthicsGuard, GREYLIST_WAIT, MIN_RECONTACT};
use crate::fxhash::FxBuildHasher;

/// How long a connection attempt waits before giving up on a host that
/// never answers (a flaky host or a closed reachability window). The
/// wait is charged to the simulated clock: unreachability costs time,
/// it is never an instant failure.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// The local part of every probe's sender address (also the first rung
/// of [`USERNAME_LADDER`]).
const PROBE_MAILBOX: &str = "mmj7yzdm0tbk";

/// How an attempt ends that never got an answer to its connect: a flaky
/// host or a closed reachability window.
const CONNECT_TIMED_OUT: TransactionOutcome = TransactionOutcome::Transient {
    stage: "connect",
    code: 0,
};

/// Which probe variant ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeTest {
    /// Abort before sending any message.
    NoMsg,
    /// Send an entirely blank message.
    BlankMsg,
}

impl ProbeTest {
    fn step(self) -> TransactionStep {
        match self {
            ProbeTest::NoMsg => TransactionStep::AbortBeforeMessage,
            ProbeTest::BlankMsg => TransactionStep::SendBlankMessage,
        }
    }

    fn tag(self) -> u8 {
        match self {
            ProbeTest::NoMsg => 0,
            ProbeTest::BlankMsg => 1,
        }
    }
}

/// Graceful-degradation verdict of one probe: what the measurement is
/// allowed to claim about the host given how the probe concluded.
///
/// The distinction that matters under fault load is `Unreachable` /
/// `Inconclusive` vs [`ProbeVerdict::NotVulnerable`]: a host that stayed
/// dark is *never* reported as not vulnerable — only a conclusive
/// non-vulnerable fingerprint earns that verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeVerdict {
    /// The vulnerable fingerprint was conclusively measured.
    Vulnerable,
    /// A non-vulnerable (typically compliant) fingerprint was
    /// conclusively measured.
    NotVulnerable,
    /// The host could not be reached (refused, timed out, reset, or
    /// tempfailed): nothing can be claimed about its SPF behaviour.
    Unreachable,
    /// The host was reached but the probe produced no conclusive
    /// measurement.
    Inconclusive,
}

/// Retry/timeout/backoff policy for [`Prober::probe_with_retry`].
///
/// Backoff is exponential with deterministic jitter: attempt `k` waits
/// `base_backoff * 2^(k-1)` (capped at `max_backoff`), scaled by a
/// jitter factor drawn from a stream forked off the probe's identity —
/// so sharded and sequential campaigns wait out identical backoffs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Upper bound on a single backoff (`ZERO` = uncapped).
    pub max_backoff: SimDuration,
    /// Jitter width as a fraction of the backoff: the wait is scaled
    /// uniformly within `[1 - jitter/2, 1 + jitter/2)`.
    pub jitter: f64,
    /// Give up retrying once this much simulated time has elapsed since
    /// the probe's first attempt.
    pub deadline: Option<SimDuration>,
}

impl RetryPolicy {
    /// No retries: a single attempt, exactly the pre-retry behaviour.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff: SimDuration::ZERO,
        max_backoff: SimDuration::ZERO,
        jitter: 0.0,
        deadline: None,
    };

    /// The per-probe deadline, drawn from the ethics budget: one
    /// greylist wait plus two contact-spacing intervals. Retrying past
    /// this point would spend more of the per-host contact budget than
    /// the §6.1 self-restraint rules allot to a single measurement.
    pub const DEADLINE: SimDuration =
        SimDuration::from_micros(GREYLIST_WAIT.as_micros() + 2 * MIN_RECONTACT.as_micros());

    /// The standard resilient policy: three attempts, 10 s base backoff
    /// doubling to at most 2 min, 50% jitter, deadline from the ethics
    /// budget.
    pub const fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_secs(10),
            max_backoff: SimDuration::from_mins(2),
            jitter: 0.5,
            deadline: Some(RetryPolicy::DEADLINE),
        }
    }

    /// The jittered backoff before retry number `attempt` (1-based: the
    /// wait between the first and second attempts is `backoff(1, ..)`).
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        let mut wait = self.base_backoff.mul(1u64 << exp);
        if self.max_backoff > SimDuration::ZERO && wait > self.max_backoff {
            wait = self.max_backoff;
        }
        if self.jitter <= 0.0 || wait == SimDuration::ZERO {
            return wait;
        }
        let factor = 1.0 - self.jitter / 2.0 + rng.unit() * self.jitter;
        SimDuration::from_micros((wait.as_micros() as f64 * factor) as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::NONE
    }
}

/// Everything configurable about how a prober probes: the fault regime
/// the network imposes on it and the retry policy it answers with. The
/// default injects nothing and never retries — byte-for-byte the
/// pre-fault-subsystem behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeOptions {
    /// Faults injected on the DNS and SMTP paths.
    pub faults: FaultProfile,
    /// The prober's retry/backoff policy.
    pub retry: RetryPolicy,
}

/// The simulation surfaces a prober probes through: the DNS directory
/// the probed MTAs resolve against (holding the measurement zone's
/// authority), that zone's query log, and the clock the ethics spacing
/// rules are enforced on.
///
/// Every campaign worker, for any shard count, probes through its own
/// [`ProbeContext::isolated`] copy, so probing on one shard never
/// observes another shard's queries or clock waits; the session mirrors
/// the snapshot's clock and queries back onto the world when it
/// finishes. [`ProbeContext::shared`] serves standalone probers (the
/// layer replays of the benchmark, tests).
#[derive(Debug, Clone)]
pub struct ProbeContext {
    /// DNS directory the probed MTAs resolve through.
    pub directory: Directory,
    /// The measurement zone's query log.
    pub query_log: QueryLog,
    /// The clock probing advances.
    pub clock: SimClock,
    /// The tracing handle probe spans are recorded into (disabled by
    /// default, which costs nothing).
    pub tracer: Tracer,
    /// The shard's compiled-policy evaluation cache, shared by every MTA
    /// this context builds (`None` = each SPF check gets a cache of its
    /// own, so nothing carries over between checks). The shared cache is
    /// measurement-transparent, so probing observes the same queries,
    /// clock, and traces either way.
    pub policy_cache: Option<PolicyCacheHandle>,
}

impl ProbeContext {
    /// The population's own directory, log, and clock (a standalone
    /// prober).
    pub fn shared(pop: &dyn Population) -> ProbeContext {
        let runtime = pop.runtime();
        ProbeContext {
            directory: runtime.directory.clone(),
            query_log: runtime.query_log.clone(),
            clock: runtime.clock.clone(),
            tracer: Tracer::disabled(),
            policy_cache: None,
        }
    }

    /// A private directory, log, and clock for one campaign worker. The
    /// clock starts at the population's current time; the directory holds
    /// a fresh measurement-zone authority recording into the private log.
    pub fn isolated(pop: &dyn Population) -> ProbeContext {
        let runtime = pop.runtime();
        let clock = SimClock::starting_at(runtime.clock.now());
        let query_log = QueryLog::new();
        let directory = Directory::new();
        directory.register(Arc::new(SpfTestAuthority::new(
            runtime.zone_origin.clone(),
            query_log.clone(),
        )));
        ProbeContext {
            directory,
            query_log,
            clock,
            tracer: Tracer::disabled(),
            policy_cache: None,
        }
    }

    /// The same context recording into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> ProbeContext {
        self.tracer = tracer;
        self
    }

    /// The same context with a fresh shared compiled-policy cache when
    /// `enabled`, or with a per-check cache when not.
    pub fn with_policy_cache(mut self, enabled: bool) -> ProbeContext {
        self.policy_cache = enabled.then(new_policy_cache);
        self
    }
}

/// Everything one probe produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOutcome {
    /// The probed host.
    pub host: HostId,
    /// Which variant ran.
    pub test: ProbeTest,
    /// The probe's unique id label.
    pub id: String,
    /// How the SMTP transaction concluded (None = TCP refused).
    pub transaction: Option<TransactionOutcome>,
    /// What the DNS queries revealed.
    pub classification: Classification,
    /// An injected DNS fault observed on the probed host's resolver
    /// during this probe (`None` when the resolver ran clean). A
    /// transaction can run to completion and still carry one of these —
    /// the host's SPF check silently timed out — which is why an
    /// unmeasured-but-completed probe with a DNS fault retries instead
    /// of being taken at face value.
    pub dns_fault: Option<ProbeError>,
}

impl ProbeOutcome {
    /// An attempt that never reached the host's SPF check: `transaction`
    /// is how the connection ended, nothing was classified, and no DNS
    /// fault was observed.
    fn unmeasured(
        host: HostId,
        test: ProbeTest,
        id: String,
        transaction: TransactionOutcome,
    ) -> ProbeOutcome {
        ProbeOutcome {
            host,
            test,
            id,
            transaction: Some(transaction),
            classification: Classification::default(),
            dns_fault: None,
        }
    }

    /// Whether TCP was refused outright.
    pub fn refused(&self) -> bool {
        self.transaction.is_none()
    }

    /// Whether the SMTP conversation failed before running its course
    /// (Table 3's "SMTP Failure" rows).
    pub fn smtp_failure(&self) -> bool {
        match &self.transaction {
            None => false,
            Some(outcome) => !matches!(
                outcome,
                TransactionOutcome::NoMsgCompleted
                    | TransactionOutcome::MessageAccepted(_)
                    | TransactionOutcome::MessageRejected(_)
            ),
        }
    }

    /// Whether SPF behaviour was conclusively measured.
    pub fn spf_measured(&self) -> bool {
        self.classification.conclusive()
    }

    /// Why the probe failed to measure, in the stack-wide [`ProbeError`]
    /// vocabulary, or `None` when it measured (or completed without any
    /// SPF activity to observe).
    pub fn probe_error(&self) -> Option<ProbeError> {
        if self.spf_measured() {
            // A vulnerable fingerprint is a positive signal — dropped
            // datagrams cannot fabricate it. A *non*-vulnerable shape
            // seen through a DNS fault is suspect: the fault may have
            // eaten the fingerprint queries, so the measurement is
            // retryable, not conclusive.
            return if self.classification.vulnerable() {
                None
            } else {
                self.dns_fault
            };
        }
        match &self.transaction {
            None => Some(ProbeError::ConnectRefused),
            Some(outcome) => outcome.probe_error().or(self.dns_fault),
        }
    }

    /// The graceful-degradation verdict (see [`ProbeVerdict`]).
    pub fn verdict(&self) -> ProbeVerdict {
        if self.spf_measured() {
            if self.classification.vulnerable() {
                return ProbeVerdict::Vulnerable;
            }
            return if self.dns_fault.is_none() {
                ProbeVerdict::NotVulnerable
            } else {
                // The host answered and its queries looked compliant,
                // but an injected DNS fault disturbed the resolution —
                // never downgrade a possibly-dark host to NotVulnerable.
                ProbeVerdict::Inconclusive
            };
        }
        match self.probe_error() {
            Some(err) if err.is_transient() => ProbeVerdict::Unreachable,
            Some(ProbeError::ConnectRefused) => ProbeVerdict::Unreachable,
            _ => ProbeVerdict::Inconclusive,
        }
    }
}

/// The probing client: owns the ethics guard and the reused MTA, and
/// drives transactions against the world's hosts.
///
/// Every probe draws its randomness from a stream forked off the suite's
/// base RNG by the probe's full identity — host, day, test, replayed
/// connection count, and an occurrence counter for repeats. A host's
/// k-th identical probe therefore rolls identical dice no matter how
/// hosts are interleaved on one worker or partitioned across many,
/// which is the property the sharded campaign engine's shard-count
/// invariance rests on.
pub struct Prober<'w> {
    pop: &'w dyn Population,
    /// The per-campaign suite label (§5.1: unique per test suite).
    pub suite: String,
    /// `.<suite>.<zone>`: a probe's sender domain is its id plus this.
    sender_suffix: String,
    /// The probe sender's mailbox, whose shared local part every probe's
    /// sender reuses ([`EmailAddress::with_domain`]).
    sender_mailbox: EmailAddress,
    /// Reused buffer the next sender domain is written into.
    sender_domain: String,
    source_ip: IpAddr,
    ctx: ProbeContext,
    base_rng: SimRng,
    /// Root for per-host fault-window materialisation; depends only on
    /// the world seed and suite, so all shards agree on which hosts blink.
    fault_rng: SimRng,
    ethics: EthicsGuard,
    options: ProbeOptions,
    metrics: Metrics,
    /// Probe-repetition counters, `(host, day, test, extra) ->
    /// occurrence`. Every key carries the day of the sweep that made
    /// it, so a campaign drops them after each host it sweeps and at
    /// the end of each round (see [`Prober::forget_repetitions`]).
    occurrences: HashMap<(u32, u16, u8, u32), u64, FxBuildHasher>,
    /// The MTA the last probe ran against, rebuilt in place for the
    /// next host ([`WorldRuntime::rebuild_mta_record`]) instead of built
    /// and dropped per probe. Everything it keeps across hosts comes
    /// from this prober's context and options, so it is discarded when
    /// the context changes ([`Prober::set_policy_cache`]).
    ///
    /// [`WorldRuntime::rebuild_mta_record`]: spfail_world::WorldRuntime::rebuild_mta_record
    mta: Option<Mta>,
}

impl<'w> Prober<'w> {
    /// A prober for `pop` with the given suite label, probing through
    /// `ctx` under `options` with an explicit concurrency budget (a
    /// campaign splits [`MAX_CONCURRENT`] across its workers so the
    /// fleet-wide cap still holds).
    ///
    /// The base RNG depends only on the world seed and suite — never on
    /// the context, budget or options — so probers on different shards
    /// draw from the same per-probe streams.
    ///
    /// [`MAX_CONCURRENT`]: crate::ethics::MAX_CONCURRENT
    pub fn with_options(
        pop: &'w dyn Population,
        suite: &str,
        ctx: ProbeContext,
        max_concurrent: usize,
        options: ProbeOptions,
    ) -> Prober<'w> {
        let base_rng = pop.runtime().fork_rng(&format!("prober-{suite}"));
        let sender_suffix = format!(".{suite}.{}", pop.runtime().zone_origin.to_ascii());
        Prober {
            pop,
            suite: suite.to_string(),
            sender_mailbox: EmailAddress::new(PROBE_MAILBOX, &sender_suffix[1..])
                .expect("the probe mailbox at the suite's zone is a valid address"),
            sender_domain: String::with_capacity(5 + sender_suffix.len()),
            sender_suffix,
            source_ip: "203.0.113.25".parse().expect("static address"),
            ethics: EthicsGuard::with_budget(ctx.clock.clone(), max_concurrent),
            fault_rng: base_rng.fork("fault-injector"),
            base_rng,
            ctx,
            options,
            metrics: Metrics::new(),
            occurrences: HashMap::default(),
            mta: None,
        }
    }

    /// The context this prober probes through.
    pub fn context(&self) -> &ProbeContext {
        &self.ctx
    }

    /// The fault/retry options this prober runs under.
    pub fn options(&self) -> &ProbeOptions {
        &self.options
    }

    /// The prober's network counters (DNS traffic, injected faults,
    /// retries). Per-prober, so shard snapshots merge into campaign
    /// totals without double counting.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The context's compiled-policy cache tallies (zeros when this
    /// prober has no shared cache). Shard-local, merged like any other
    /// per-worker counter — and deliberately kept out of
    /// [`MetricsSnapshot`](spfail_netsim::MetricsSnapshot), which must
    /// stay identical cache on or off.
    pub fn policy_cache_stats(&self) -> PolicyCacheStats {
        self.ctx
            .policy_cache
            .as_ref()
            .map(|cache| cache.lock().stats())
            .unwrap_or_default()
    }

    /// The ethics guard (for audits).
    pub fn ethics(&self) -> &EthicsGuard {
        &self.ethics
    }

    /// Mutable ethics access (campaigns `forget` and `restore`).
    pub fn ethics_mut(&mut self) -> &mut EthicsGuard {
        &mut self.ethics
    }

    /// Forget every probe-repetition counter, keeping the map's
    /// allocation for the next host.
    ///
    /// A counter only matters to a later probe with the same host, day,
    /// test and connection count. A campaign sweep probes each host in
    /// one stretch on one day, later sweeps on a worker use strictly
    /// later days, and the snapshot runs on fresh workers. So the
    /// initial and snapshot sweeps call this after every host and the
    /// round sweep at its end, and the counters never outlive a sweep:
    /// together with the ethics guard's export, the metrics snapshot and
    /// the context clock, a prober's durable state at a round boundary
    /// is a pure function of the world seed and the suite label.
    pub(crate) fn forget_repetitions(&mut self) {
        self.occurrences.clear();
    }

    /// Replace the context's compiled-policy cache with `cache` — the
    /// streamed sweep hands each worker's warm cache to the session's
    /// restored worker for the same shard.
    pub(crate) fn set_policy_cache(&mut self, cache: Option<PolicyCacheHandle>) {
        self.ctx.policy_cache = cache;
        // The reused MTA holds the old cache.
        self.mta = None;
    }

    /// Whether the *next* probe with this exact identity would hit the
    /// host's flaky roll, without issuing it.
    ///
    /// Probe randomness is derived from the probe's identity (see
    /// [`Prober::probe`]), not drawn from a consuming stream, so the
    /// incremental round engine can replay the first draws of the
    /// attempt it is about to skip: the stream from
    /// [`Prober::probe_stream`], the id draw, and the flaky roll below
    /// mirror the opening of [`Prober::attempt`] exactly. A `true` answer
    /// means the attempt would fail transiently (and possibly retry), so
    /// the host must be probed for real; `false` means the attempt
    /// proceeds to the host's deterministic behaviour.
    pub(crate) fn would_flake(
        &self,
        host: HostId,
        day: u16,
        test: ProbeTest,
        extra_connections: u32,
    ) -> bool {
        let occurrence = self
            .occurrences
            .get(&(host.0, day, test.tag(), extra_connections))
            .copied()
            .unwrap_or(0);
        let mut rng = self.probe_stream(host, day, test, extra_connections, occurrence);
        let _ = Self::probe_id(&mut rng, &self.suite);
        rng.chance(self.pop.host(host).profile.flaky)
    }

    /// The random stream of the `occurrence`-th probe with this identity
    /// — the one place the identity label is spelled, so a skipped
    /// probe's replay ([`Prober::would_flake`]) and the probe itself
    /// can never drift apart.
    fn probe_stream(
        &self,
        host: HostId,
        day: u16,
        test: ProbeTest,
        extra_connections: u32,
        occurrence: u64,
    ) -> SimRng {
        self.base_rng
            .fork_label()
            .str("probe-h")
            .dec(host.0)
            .str("-d")
            .dec(day)
            .str("-t")
            .dec(test.tag())
            .str("-x")
            .dec(extra_connections)
            .str("-n")
            .dec(occurrence)
            .finish()
    }

    /// Probe one host with one test variant as of measurement day `day`.
    ///
    /// `extra_connections` is how many probe connections this host has
    /// already received across the campaign (its blacklisting counter).
    ///
    /// The outcome is a pure function of `(host, day, test,
    /// extra_connections)` and how many times this prober has issued
    /// that exact probe before — repeating a probe rolls fresh (but
    /// reproducible) dice, and no other host's probes perturb it.
    pub fn probe(
        &mut self,
        host: HostId,
        day: u16,
        test: ProbeTest,
        extra_connections: u32,
    ) -> ProbeOutcome {
        // One `probe` call = one trace record; events inside are stamped
        // relative to this instant, which is the property that makes a
        // sharded trace merge byte-identical to the sequential one.
        self.ctx.tracer.begin_probe(
            self.ctx.clock.now(),
            host.0,
            day,
            test.tag(),
            extra_connections,
        );
        let record = self.pop.host(host);
        let outcome = self.attempt(host, record, day, test, extra_connections);
        self.ctx.tracer.end_probe(self.ctx.clock.now());
        outcome
    }

    /// One attempt, without opening a trace record of its own —
    /// [`Prober::probe_with_retry`] wraps a whole retried sequence in a
    /// single probe span with the attempts and backoffs as children. The
    /// host's record is passed in: the streamed sweep probes each host
    /// while its record exists, over a population that retains nothing.
    fn attempt(
        &mut self,
        host: HostId,
        record: &HostRecord,
        day: u16,
        test: ProbeTest,
        extra_connections: u32,
    ) -> ProbeOutcome {
        let test_tag = test.tag();
        let occurrence = {
            let counter = self
                .occurrences
                .entry((host.0, day, test_tag, extra_connections))
                .or_insert(0);
            let occurrence = *counter;
            *counter += 1;
            occurrence
        };
        let mut rng = self.probe_stream(host, day, test, extra_connections, occurrence);
        let id = Self::probe_id(&mut rng, &self.suite);

        // Transient flakiness: the host is unreachable this round. The
        // failed attempt is not free — it consumes the connect timeout
        // on the simulated clock, like any unreachable peer.
        if rng.chance(record.profile.flaky) {
            self.ctx.tracer.enter(self.ctx.clock.now(), SpanKind::Fault);
            self.ctx.clock.advance(CONNECT_TIMEOUT);
            self.ctx
                .tracer
                .exit(self.ctx.clock.now(), SpanKind::Fault, "flaky");
            return ProbeOutcome::unmeasured(host, test, id, CONNECT_TIMED_OUT);
        }

        // Injected reachability window: evaluated at the probe's
        // scheduled day, never at `clock.now()` — a worker's clock is
        // shared by every host of its partition, which depends on the
        // shard count, and only the scheduled day is common to all.
        if let Some(window) = self
            .options
            .faults
            .window_for_host(&self.fault_rng, u64::from(host.0))
        {
            if !window.is_open(Timeline::day_to_time(day)) {
                self.metrics.inc_window_closed_probes();
                self.ctx.tracer.enter(self.ctx.clock.now(), SpanKind::Fault);
                self.ctx.clock.advance(CONNECT_TIMEOUT);
                self.ctx
                    .tracer
                    .exit(self.ctx.clock.now(), SpanKind::Fault, "window_closed");
                return ProbeOutcome::unmeasured(host, test, id, CONNECT_TIMED_OUT);
            }
        }

        // Injected SMTP-path faults, rolled from the probe's identity
        // stream (zero-probability plans draw nothing, preserving the
        // stream byte-for-byte).
        match self.options.faults.smtp.smtp_outcome(&mut rng) {
            FaultOutcome::TempFailed => {
                self.metrics.inc_smtp_tempfails();
                let now = self.ctx.clock.now();
                self.ctx.tracer.enter(now, SpanKind::Fault);
                self.ctx.tracer.exit(now, SpanKind::Fault, "smtp_tempfail");
                let tempfail = TransactionOutcome::Transient {
                    stage: "connect",
                    code: 421,
                };
                return ProbeOutcome::unmeasured(host, test, id, tempfail);
            }
            FaultOutcome::Reset => {
                self.metrics.inc_connection_resets();
                let now = self.ctx.clock.now();
                self.ctx.tracer.enter(now, SpanKind::Fault);
                self.ctx.tracer.exit(now, SpanKind::Fault, "smtp_reset");
                let reset = TransactionOutcome::ConnectionReset;
                return ProbeOutcome::unmeasured(host, test, id, reset);
            }
            _ => {}
        }

        // When DNS faults are active the MTA's stream is salted with the
        // probe identity, so a retried probe re-rolls the resolver's
        // fault dice instead of replaying the same timeout forever.
        let dns_faults_active = self.options.faults.dns.is_active();
        let dns_salt = dns_faults_active.then(|| {
            format!(
                "dns-h{}-d{day}-t{test_tag}-x{extra_connections}-n{occurrence}",
                host.0
            )
        });
        let runtime = self.pop.runtime();
        let mut mta = match self.mta.take() {
            Some(mut mta) => {
                runtime.rebuild_mta_record(&mut mta, host, record, day, dns_salt.as_deref());
                mta
            }
            None => runtime.build_mta_record(
                host,
                record,
                day,
                self.ctx.directory.clone(),
                self.ctx.clock.clone(),
                MtaInstrumentation {
                    dns_faults: self.options.faults.dns,
                    metrics: self.metrics.clone(),
                    reroll: dns_salt.as_deref(),
                    tracer: self.ctx.tracer.clone(),
                    policy_cache: self.ctx.policy_cache.clone(),
                },
            ),
        };
        // Restore the host's cross-round connection count so blacklisting
        // thresholds apply campaign-wide, not per-instance.
        mta.replay_connections(self.source_ip, extra_connections);

        let log_start = self.ctx.query_log.len();
        self.sender_domain.clear();
        self.sender_domain.push_str(&id);
        self.sender_domain.push_str(&self.sender_suffix);
        let sender = self
            .sender_mailbox
            .with_domain(&self.sender_domain)
            .expect("probe sender addresses are valid by construction");
        // The MTA's resolver reports into this prober's metrics; the
        // delta across the transaction tells us whether injected DNS
        // faults disturbed this particular probe's measurement.
        let dns_before = dns_faults_active.then(|| {
            let snap = self.metrics.snapshot();
            (snap.dns_timeouts, snap.dns_servfails)
        });
        let transaction = self.run_transaction(&mut mta, IpAddr::V4(record.ip), &sender, test);
        let dns_fault = dns_before.and_then(|(timeouts, servfails)| {
            let snap = self.metrics.snapshot();
            if snap.dns_timeouts > timeouts {
                Some(ProbeError::DnsTimeout)
            } else if snap.dns_servfails > servfails {
                Some(ProbeError::DnsServFail)
            } else {
                None
            }
        });
        self.mta = Some(mta);
        let zone = &self.pop.runtime().zone_origin;
        let classification = self.ctx.query_log.with_entries_from(log_start, |entries| {
            classify(entries, &id, &self.suite, zone)
        });

        ProbeOutcome {
            host,
            test,
            id,
            transaction,
            classification,
            dns_fault,
        }
    }

    /// [`Prober::probe`] of `host`, whose record is `record`, under the
    /// prober's [`RetryPolicy`]: retry while the outcome maps to a
    /// *transient* [`ProbeError`], attempts remain, and the per-probe
    /// deadline (measured on the simulated clock from the first attempt)
    /// has not passed. Returns the final outcome and how many attempts
    /// ran.
    ///
    /// Each retry waits out a jittered exponential backoff drawn from a
    /// stream forked off the probe's identity, and repeats the probe with
    /// the same arguments — the occurrence counter gives the retry fresh
    /// (but reproducible) dice. Under [`RetryPolicy::NONE`] this is
    /// exactly one `probe` call.
    pub fn probe_with_retry(
        &mut self,
        host: HostId,
        record: &HostRecord,
        day: u16,
        test: ProbeTest,
        extra_connections: u32,
    ) -> (ProbeOutcome, u32) {
        let started = self.ctx.clock.now();
        // The whole retried sequence is one probe record: attempts and
        // their `retry_wait` backoffs are children of a single span.
        self.ctx
            .tracer
            .begin_probe(started, host.0, day, test.tag(), extra_connections);
        let mut outcome = self.attempt(host, record, day, test, extra_connections);
        let mut attempts = 1u32;
        let max_attempts = self.options.retry.max_attempts.max(1);
        while attempts < max_attempts {
            let Some(err) = outcome.probe_error() else {
                break;
            };
            if !err.is_transient() {
                break;
            }
            if let Some(deadline) = self.options.retry.deadline {
                if self.ctx.clock.now().since(started) >= deadline {
                    break;
                }
            }
            let mut backoff_rng = self
                .base_rng
                .fork_label()
                .str("backoff-h")
                .dec(host.0)
                .str("-d")
                .dec(day)
                .str("-t")
                .dec(test.tag())
                .str("-x")
                .dec(extra_connections)
                .str("-a")
                .dec(attempts)
                .finish();
            self.ctx
                .tracer
                .enter(self.ctx.clock.now(), SpanKind::RetryWait);
            self.ctx
                .clock
                .advance(self.options.retry.backoff(attempts, &mut backoff_rng));
            self.ctx
                .tracer
                .exit(self.ctx.clock.now(), SpanKind::RetryWait, "backoff");
            self.metrics.inc_probe_retries();
            outcome = self.attempt(host, record, day, test, extra_connections);
            attempts += 1;
        }
        if attempts > 1 && outcome.spf_measured() {
            self.metrics.inc_probes_recovered();
        }
        self.ctx.tracer.end_probe(self.ctx.clock.now());
        (outcome, attempts)
    }

    /// A probe id drawn from the probe's own stream: a 4–5 character
    /// alphanumeric label avoiding the fingerprint's fixed labels. Ids
    /// only need to be unique within one probe's query-log window (each
    /// probe classifies only the entries it appended itself), so two
    /// different probes drawing the same label is harmless.
    fn probe_id(rng: &mut SimRng, suite: &str) -> String {
        loop {
            let len = 4 + rng.below(2) as usize;
            let id = rng.alnum_label(len);
            if !RESERVED_ID_LABELS.contains(&id.as_str()) && id != suite {
                return id;
            }
        }
    }

    fn run_transaction(
        &mut self,
        mta: &mut Mta,
        ip: IpAddr,
        sender: &EmailAddress,
        test: ProbeTest,
    ) -> Option<TransactionOutcome> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            // The ethics admit wait stays outside the session span: it is
            // contact spacing, not conversation time.
            self.ethics.admit(ip);
            self.ctx
                .tracer
                .enter(self.ctx.clock.now(), SpanKind::SmtpSession);
            let outcome = converse(mta, &self.ethics, self.source_ip, sender, test);
            self.ctx.tracer.exit(
                self.ctx.clock.now(),
                SpanKind::SmtpSession,
                outcome
                    .as_ref()
                    .map_or("refused", TransactionOutcome::label),
            );
            self.ethics.release(ip);
            match &outcome {
                // Greylisting: wait 8 minutes and retry once (§6.1).
                Some(TransactionOutcome::Transient { code, .. })
                    if (*code == 450 || *code == 451) && attempt == 1 =>
                {
                    self.ctx
                        .tracer
                        .enter(self.ctx.clock.now(), SpanKind::GreylistWait);
                    self.ethics.greylist_wait(ip);
                    self.ctx.tracer.exit(
                        self.ctx.clock.now(),
                        SpanKind::GreylistWait,
                        "greylisted",
                    );
                }
                _ => return outcome,
            }
        }
    }

    fn plan(sender: &EmailAddress, test: ProbeTest) -> TransactionPlan {
        // The HELO domain and the recipient ladder are the same for every
        // probe: build them once and hand out shared references.
        static SHARED: OnceLock<(Arc<str>, Arc<[EmailAddress]>)> = OnceLock::new();
        let (helo_domain, recipients) = SHARED.get_or_init(|| {
            let ladder = USERNAME_LADDER
                .iter()
                .map(|user| {
                    EmailAddress::new(user, "recipient.invalid")
                        .expect("ladder usernames are valid")
                })
                .collect();
            (Arc::from("probe.dns-lab.org"), ladder)
        });
        TransactionPlan {
            helo_domain: helo_domain.clone(),
            sender: sender.clone(),
            recipients: recipients.clone(),
            step: test.step(),
        }
    }
}

/// One SMTP conversation: connect from `source_ip` and run the `test`
/// transaction for `sender` against `mta`, inside a slot `ethics` has
/// admitted. Returns `None` when TCP itself was refused.
fn converse(
    mta: &mut Mta,
    ethics: &EthicsGuard,
    source_ip: IpAddr,
    sender: &EmailAddress,
    test: ProbeTest,
) -> Option<TransactionOutcome> {
    debug_assert!(
        ethics.holds_slot(),
        "SMTP traffic outside an admit/release bracket: every conversation must hold an ethics slot"
    );
    let banner = match mta.connect(source_ip) {
        ConnectDecision::Refused => return None,
        ConnectDecision::RejectedBanner(reply) => reply,
        ConnectDecision::Proceed => {
            let plan = Prober::plan(sender, test);
            let (mut session, banner) = mta.open_session();
            let mut runner = ClientRunner::new(plan);
            let mut action = runner.on_reply(&banner);
            loop {
                match action {
                    ClientAction::Send(cmd) => {
                        let reply = session.handle(&cmd);
                        action = runner.on_reply(&reply);
                    }
                    ClientAction::SendMessage(body) => {
                        let reply = session.handle_message(&body);
                        action = runner.on_reply(&reply);
                    }
                    ClientAction::HangUp(outcome) | ClientAction::Finish(outcome) => {
                        // Best-effort QUIT on clean finishes.
                        if session.state() != SessionState::Closed {
                            let _ = session.handle(&spfail_smtp::command::Command::Quit);
                        }
                        return Some(outcome);
                    }
                }
            }
        }
    };
    // A rejecting banner concludes the transaction immediately.
    let plan = Prober::plan(sender, test);
    let mut runner = ClientRunner::new(plan);
    match runner.on_reply(&banner) {
        ClientAction::Finish(outcome) | ClientAction::HangUp(outcome) => Some(outcome),
        _ => Some(TransactionOutcome::RejectedAtConnect(banner.code)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethics::MAX_CONCURRENT;
    use spfail_netsim::{FaultPlan, FlakyWindow};
    use spfail_world::{World, WorldConfig};

    impl Prober<'_> {
        /// How many probe-repetition counters the prober holds.
        pub(crate) fn repetition_counters(&self) -> usize {
            self.occurrences.len()
        }
    }

    fn world() -> World {
        World::generate(WorldConfig::small(123))
    }

    /// A standalone prober: the world's shared context, the full
    /// concurrency budget, no faults and no retries.
    fn prober<'w>(w: &'w World, suite: &str) -> Prober<'w> {
        let ctx = ProbeContext::shared(w);
        Prober::with_options(w, suite, ctx, MAX_CONCURRENT, ProbeOptions::default())
    }

    /// What one MTA shows before and through a NoMsg and a BlankMsg
    /// transaction, with times relative to the start so MTAs on
    /// different clocks compare.
    fn mta_observation(mta: &mut Mta, ctx: &ProbeContext) -> Vec<String> {
        let t0 = ctx.clock.now();
        let mut rng = mta.rng().clone();
        let mut seen = vec![
            format!("{:?}", mta.config()),
            format!("connections {}", mta.connections_seen()),
            format!("draws {:?}", (0..8).map(|_| rng.unit()).collect::<Vec<_>>()),
            format!(
                "resolver {} cold {}",
                mta.resolver().client(),
                mta.resolver().cache_is_empty()
            ),
        ];
        let sender = EmailAddress::parse("mmj7yzdm0tbk@k7q2.s01.spf-test.dns-lab.org")
            .expect("valid probe address");
        let source: IpAddr = "203.0.113.25".parse().expect("static address");
        let mut ethics = EthicsGuard::new(ctx.clock.clone());
        for test in [ProbeTest::NoMsg, ProbeTest::BlankMsg] {
            let log_start = ctx.query_log.len();
            ethics.admit(source);
            let outcome = converse(mta, &ethics, source, &sender, test);
            ethics.release(source);
            seen.push(format!("{test:?} {outcome:?}"));
            seen.extend(ctx.query_log.entries_from(log_start).iter().map(|e| {
                format!(
                    "query {} {} {:?} {}",
                    e.at.since(t0).as_micros(),
                    e.source,
                    e.qtype,
                    e.qname
                )
            }));
        }
        seen.extend(mta.validations().iter().map(|v| {
            format!(
                "validation {} {:?} {}",
                v.implementation,
                v.result,
                v.at.since(t0).as_micros()
            )
        }));
        seen
    }

    /// An MTA rebuilt in place after serving another host is the MTA a
    /// fresh build gives the new host: same configuration, connection
    /// counter, random stream and cold resolver, and the same outcomes,
    /// validations and queries through a NoMsg and a BlankMsg
    /// transaction. The sample covers greylisting, blacklisting, multi-
    /// and single-implementation hosts of every behaviour present, both
    /// sides of a patch day, every SMTP quirk, and a rerolled stream.
    #[test]
    fn rebuilt_mta_equals_a_fresh_build() {
        use spfail_mta::SmtpQuirk;
        use spfail_world::HostProfile;
        use std::collections::{BTreeSet, HashSet};

        let w = World::generate(WorldConfig::small(123));
        let runtime = w.runtime();
        let hosts: Vec<HostId> = (0..w.hosts.len() as u32).map(HostId).collect();
        let find_all = |pred: &dyn Fn(&HostProfile) -> bool| -> Vec<HostId> {
            hosts
                .iter()
                .copied()
                .filter(|&h| pred(&w.host(h).profile))
                .collect()
        };
        let find = |what: &str, pred: &dyn Fn(&HostProfile) -> bool| {
            *find_all(pred)
                .first()
                .unwrap_or_else(|| panic!("the sample world has a {what} host"))
        };
        // Greylisting hosts that reach RCPT (no SPF rejection at MAIL).
        let greylisting = find_all(&|p| {
            p.greylist
                && p.connect == spfail_mta::ConnectPolicy::Accept
                && p.quirk == SmtpQuirk::None
                && p.spf_stage != spfail_mta::SpfStage::OnMailFrom
        });
        assert!(greylisting.len() >= 2, "two greylisting hosts reach RCPT");
        let patched = find("patching vulnerable", &|p| {
            p.initially_vulnerable() && p.patch_day.is_some_and(|d| d > 0 && d <= Timeline::END)
        });
        let patch_day = w.host(patched).profile.patch_day.expect("patches");
        let mut cases: Vec<(HostId, u16, Option<&str>)> = vec![
            (greylisting[1], 0, None),
            (
                find("blacklisting", &|p| p.blacklist_after.is_some()),
                0,
                None,
            ),
            (
                find("multi-implementation", &|p| p.impls.len() >= 2),
                0,
                None,
            ),
            (patched, patch_day - 1, None),
            (patched, patch_day, None),
            (hosts[1], 0, Some("dns-h1-d0-t0-x0-n0")),
        ];
        // A validating host for each first implementation and each kind
        // of SMTP quirk.
        let (mut behaviours, mut quirks) = (BTreeSet::new(), HashSet::new());
        for &h in &hosts {
            let p = &w.host(h).profile;
            if !p.validates_spf() {
                continue;
            }
            let new_behaviour = behaviours.insert(p.impls[0]);
            let new_quirk = quirks.insert(std::mem::discriminant(&p.quirk));
            if new_behaviour || new_quirk {
                cases.push((h, 0, None));
            }
        }
        assert!(
            behaviours.len() >= 3,
            "several SPF implementations: {behaviours:?}"
        );
        assert_eq!(quirks.len(), 5, "every kind of SMTP quirk");

        let instrumentation = |ctx: &ProbeContext, reroll| MtaInstrumentation {
            dns_faults: spfail_netsim::FaultPlan::NONE,
            metrics: Metrics::new(),
            reroll,
            tracer: Tracer::disabled(),
            policy_cache: ctx.policy_cache.clone(),
        };
        // Each MTA to reuse first serves a greylisting host, then a
        // validating one: their transactions leave greylist entries,
        // validations, connections, a warm resolver and a replay script
        // recorded under another implementation mix behind.
        let validating = find("validating", &|p| {
            p.initially_vulnerable()
                && p.spf_stage == spfail_mta::SpfStage::OnMailFrom
                && p.quirk == SmtpQuirk::None
                && p.blacklist_after.is_none()
        });
        for &(host, day, reroll) in &cases {
            let reused_ctx = ProbeContext::isolated(&w).with_policy_cache(true);
            let fresh_ctx = ProbeContext::isolated(&w).with_policy_cache(true);
            let mut reused = runtime.build_mta_record(
                greylisting[0],
                w.host(greylisting[0]),
                0,
                reused_ctx.directory.clone(),
                reused_ctx.clock.clone(),
                instrumentation(&reused_ctx, None),
            );
            for previous in [greylisting[0], validating] {
                runtime.rebuild_mta_record(&mut reused, previous, w.host(previous), 0, None);
                let _ = mta_observation(&mut reused, &reused_ctx);
            }
            runtime.rebuild_mta_record(&mut reused, host, w.host(host), day, reroll);
            let mut fresh = runtime.build_mta_record(
                host,
                w.host(host),
                day,
                fresh_ctx.directory.clone(),
                fresh_ctx.clock.clone(),
                instrumentation(&fresh_ctx, reroll),
            );
            assert_eq!(
                mta_observation(&mut reused, &reused_ctx),
                mta_observation(&mut fresh, &fresh_ctx),
                "host {host:?} on day {day} (reroll {reroll:?})"
            );
        }
    }

    /// The streamed hand-off swaps a worker's policy cache: the reused
    /// MTA, which holds the old cache, goes with it, and the next probe
    /// validates through the new one.
    #[test]
    fn set_policy_cache_discards_the_reused_mta() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        let ctx = ProbeContext::isolated(&w).with_policy_cache(true);
        let mut prober = Prober::with_options(&w, "s12", ctx, 64, ProbeOptions::default());
        let _ = prober.probe(host, 0, ProbeTest::NoMsg, 0);
        assert!(prober.mta.is_some(), "a probe leaves its MTA for reuse");
        let cache = new_policy_cache();
        prober.set_policy_cache(Some(Arc::clone(&cache)));
        assert!(prober.mta.is_none(), "a new cache discards the reused MTA");
        for day in 1..6 {
            let _ = prober.probe(host, day, ProbeTest::BlankMsg, 0);
        }
        let stats = cache.lock().stats();
        assert!(
            stats.hits + stats.misses > 0,
            "later probes validate through the new cache"
        );
    }

    /// Every probe draws its id from its own identity stream. Ids need
    /// not be unique (a probe classifies only its own query-log window),
    /// but each must be a 4–5 character alphanumeric label that is
    /// neither a fixed fingerprint label nor the suite label.
    #[test]
    fn probe_ids_are_unique_and_safe() {
        let root = SimRng::new(123).fork("prober-s01");
        // A suite label the generator itself can draw: the first stream's
        // id, which that stream must then skip.
        let suite = Prober::probe_id(&mut root.fork_idx("probe", 0), "s01");
        let again = Prober::probe_id(&mut root.fork_idx("probe", 0), &suite);
        assert_ne!(again, suite, "the suite label is never an id");
        for i in 0..4_000 {
            let id = Prober::probe_id(&mut root.fork_idx("probe", i), &suite);
            assert!((4..=5).contains(&id.len()), "id length: {id}");
            assert!(id.bytes().all(|b| b.is_ascii_alphanumeric()), "{id}");
            assert!(!RESERVED_ID_LABELS.contains(&id.as_str()), "{id}");
            assert_ne!(id, suite);
        }
    }

    #[test]
    fn vulnerable_host_is_detected_remotely() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        // Pick the right test variant for the host's validation stage.
        let mut prober = prober(&w, "s01");
        let nomsg = prober.probe(host, 0, ProbeTest::NoMsg, 0);
        let outcome = if nomsg.spf_measured() {
            nomsg
        } else {
            prober.probe(host, 0, ProbeTest::BlankMsg, 0)
        };
        // A flaky roll may still have interfered; retry a bounded number
        // of times like the campaign does.
        let mut outcome = outcome;
        for _ in 0..5 {
            if outcome.spf_measured() {
                break;
            }
            outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        }
        assert!(outcome.spf_measured(), "vulnerable host must be measurable");
        assert!(outcome.classification.vulnerable());
    }

    #[test]
    fn refused_host_yields_refused_outcome() {
        let w = world();
        let host = (0..w.hosts.len() as u32)
            .map(HostId)
            .find(|&h| {
                matches!(w.host(h).profile.connect, spfail_mta::ConnectPolicy::Refuse)
                    && w.host(h).profile.flaky == 0.0
            })
            .or_else(|| {
                (0..w.hosts.len() as u32).map(HostId).find(|&h| {
                    matches!(w.host(h).profile.connect, spfail_mta::ConnectPolicy::Refuse)
                })
            })
            .expect("some refusing host");
        let mut prober = prober(&w, "s02");
        let mut outcome = prober.probe(host, 0, ProbeTest::NoMsg, 0);
        for _ in 0..5 {
            if outcome.refused() {
                break;
            }
            outcome = prober.probe(host, 0, ProbeTest::NoMsg, 0);
        }
        assert!(outcome.refused());
        assert!(!outcome.spf_measured());
    }

    #[test]
    fn blacklisted_host_fails_smtp() {
        let w = world();
        let host = w
            .initially_vulnerable_hosts()
            .into_iter()
            .find(|&h| w.host(h).profile.blacklist_after.is_some())
            .expect("some blacklisting host");
        let threshold = w.host(host).profile.blacklist_after.unwrap();
        let mut prober = prober(&w, "s03");
        let mut outcome = prober.probe(host, 20, ProbeTest::NoMsg, threshold + 1);
        for _ in 0..5 {
            if outcome.smtp_failure() {
                break;
            }
            outcome = prober.probe(host, 20, ProbeTest::NoMsg, threshold + 1);
        }
        assert!(outcome.smtp_failure());
        assert!(!outcome.spf_measured());
    }

    #[test]
    fn patched_host_measures_compliant_after_patch_day() {
        let w = world();
        let host = w
            .initially_vulnerable_hosts()
            .into_iter()
            .find(|&h| {
                let p = &w.host(h).profile;
                p.patch_day.is_some_and(|d| d <= 126)
                    && p.blacklist_after.is_none()
                    && p.quirk == spfail_mta::SmtpQuirk::None
                    && p.connect == spfail_mta::ConnectPolicy::Accept
                    && p.impls.len() == 1
            })
            .expect("a cleanly patching host");
        let patch_day = w.host(host).profile.patch_day.unwrap();
        let mut prober = prober(&w, "s04");
        let probe_once = |prober: &mut Prober, day: u16| {
            let mut outcome = prober.probe(host, day, ProbeTest::NoMsg, 0);
            if !outcome.spf_measured() {
                outcome = prober.probe(host, day, ProbeTest::BlankMsg, 0);
            }
            for _ in 0..6 {
                if outcome.spf_measured() {
                    break;
                }
                outcome = prober.probe(host, day, ProbeTest::BlankMsg, 0);
            }
            outcome
        };
        let before = probe_once(&mut prober, patch_day.saturating_sub(1));
        assert!(before.classification.vulnerable());
        let after = probe_once(&mut prober, patch_day);
        assert!(after.spf_measured());
        assert!(!after.classification.vulnerable());
        assert!(after.classification.compliant_only());
    }

    #[test]
    fn greylisting_host_is_retried_and_measured() {
        let w = world();
        // Find a greylisting SPF host that otherwise behaves. It must
        // validate at the DATA stage: an OnMailFrom host rejects the
        // probe's failing SPF before RCPT, so its greylisting never
        // engages.
        let host = (0..w.hosts.len() as u32).map(HostId).find(|&h| {
            let p = &w.host(h).profile;
            p.greylist
                && p.spf_stage == spfail_mta::SpfStage::OnData
                && p.connect == spfail_mta::ConnectPolicy::Accept
                && p.quirk == spfail_mta::SmtpQuirk::None
                && p.rcpt_reject_first_n == 0
        });
        let Some(host) = host else {
            return; // tiny worlds may lack one; other tests cover the logic
        };
        let mut prober = prober(&w, "s05");
        let mut outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        for _ in 0..6 {
            if outcome.spf_measured() {
                break;
            }
            outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        }
        assert!(outcome.spf_measured());
        assert!(prober.ethics().audit().greylist_waits >= 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_secs(10),
            max_backoff: SimDuration::from_secs(40),
            jitter: 0.0,
            deadline: None,
        };
        let mut rng = SimRng::new(7);
        assert_eq!(policy.backoff(1, &mut rng), SimDuration::from_secs(10));
        assert_eq!(policy.backoff(2, &mut rng), SimDuration::from_secs(20));
        assert_eq!(policy.backoff(3, &mut rng), SimDuration::from_secs(40));
        // Capped from here on.
        assert_eq!(policy.backoff(4, &mut rng), SimDuration::from_secs(40));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::standard();
        let base = policy.base_backoff.as_micros() as f64;
        let mut a = SimRng::new(99).fork("backoff");
        let mut b = SimRng::new(99).fork("backoff");
        for attempt in 1..=3 {
            let da = policy.backoff(attempt, &mut a);
            let db = policy.backoff(attempt, &mut b);
            assert_eq!(da, db, "same stream, same delay");
            let nominal = base * f64::from(1u32 << (attempt - 1));
            let nominal = nominal.min(policy.max_backoff.as_micros() as f64);
            let lo = nominal * (1.0 - policy.jitter / 2.0);
            let hi = nominal * (1.0 + policy.jitter / 2.0);
            let got = da.as_micros() as f64;
            assert!(
                got >= lo - 1.0 && got <= hi + 1.0,
                "delay {got} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn verdicts_distinguish_unreachable_from_inconclusive() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        let mut prober = prober(&w, "s06");
        let mut outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        for _ in 0..6 {
            if outcome.spf_measured() {
                break;
            }
            outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        }
        assert_eq!(outcome.verdict(), ProbeVerdict::Vulnerable);

        // A tempfail is transient: the host was reachable but the probe is
        // unreachable-for-now rather than conclusively unmeasurable.
        let faulty = ProbeOptions {
            faults: FaultProfile {
                smtp: FaultPlan::smtp_tempfail(1.0),
                ..FaultProfile::NONE
            },
            retry: RetryPolicy::NONE,
        };
        let ctx = ProbeContext::isolated(&w);
        let mut prober = Prober::with_options(&w, "s07", ctx, 64, faulty);
        let outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        assert!(!outcome.spf_measured());
        assert_eq!(outcome.probe_error(), Some(ProbeError::SmtpTempFail(421)));
        assert_eq!(outcome.verdict(), ProbeVerdict::Unreachable);
    }

    #[test]
    fn retry_recovers_probes_lost_to_dns_timeouts() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        // Heavy loss: most lookups time out end-to-end, so many probes
        // fail to measure on their first attempt.
        let faults = FaultProfile {
            dns: FaultPlan::dns_timeout(0.9),
            ..FaultProfile::NONE
        };
        let no_retry = ProbeOptions {
            faults,
            retry: RetryPolicy::NONE,
        };
        let with_retry = ProbeOptions {
            faults,
            retry: RetryPolicy {
                max_attempts: 5,
                deadline: None,
                ..RetryPolicy::standard()
            },
        };
        let measure = |opts: ProbeOptions, suite: &str| {
            let ctx = ProbeContext::isolated(&w);
            let mut prober = Prober::with_options(&w, suite, ctx, 64, opts);
            let mut measured = 0u32;
            for _ in 0..12 {
                let (outcome, _) =
                    prober.probe_with_retry(host, w.host(host), 0, ProbeTest::BlankMsg, 0);
                if outcome.spf_measured() {
                    measured += 1;
                }
            }
            (measured, prober.metrics().snapshot())
        };
        let (bare, bare_metrics) = measure(no_retry, "s08");
        let (retried, retry_metrics) = measure(with_retry, "s08");
        assert!(
            retried >= bare,
            "retry must not lose probes: {retried} < {bare}"
        );
        assert_eq!(bare_metrics.probe_retries, 0);
        assert!(
            retry_metrics.probe_retries > 0,
            "faults should trigger retries"
        );
        assert!(
            retry_metrics.probes_recovered > 0,
            "some retried probes should recover"
        );
    }

    #[test]
    fn retry_respects_deadline_and_attempt_budget() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        let faults = FaultProfile {
            smtp: FaultPlan::smtp_tempfail(1.0),
            ..FaultProfile::NONE
        };
        // Attempt budget binds first.
        let opts = ProbeOptions {
            faults,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::standard()
            },
        };
        let ctx = ProbeContext::isolated(&w);
        let mut prober = Prober::with_options(&w, "s09", ctx, 64, opts);
        let (outcome, attempts) =
            prober.probe_with_retry(host, w.host(host), 0, ProbeTest::BlankMsg, 0);
        assert_eq!(attempts, 3);
        assert!(!outcome.spf_measured());
        assert_eq!(outcome.verdict(), ProbeVerdict::Unreachable);

        // A zero deadline stops after the first attempt even though the
        // attempt budget would allow more.
        let opts = ProbeOptions {
            faults,
            retry: RetryPolicy {
                max_attempts: 5,
                deadline: Some(SimDuration::ZERO),
                ..RetryPolicy::standard()
            },
        };
        let ctx = ProbeContext::isolated(&w);
        let mut prober = Prober::with_options(&w, "s10", ctx, 64, opts);
        let (_, attempts) = prober.probe_with_retry(host, w.host(host), 0, ProbeTest::BlankMsg, 0);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn window_closed_hosts_consume_timeout_time() {
        let w = world();
        let host = w.initially_vulnerable_hosts()[0];
        // A window that is always closed.
        let opts = ProbeOptions {
            faults: FaultProfile {
                flaky_fraction: 1.0,
                window: Some(FlakyWindow::new(SimDuration::from_mins(60), 0.0)),
                ..FaultProfile::NONE
            },
            retry: RetryPolicy::NONE,
        };
        let ctx = ProbeContext::isolated(&w);
        let mut prober = Prober::with_options(&w, "s11", ctx, 64, opts);
        let before = prober.ctx.clock.now();
        let outcome = prober.probe(host, 0, ProbeTest::BlankMsg, 0);
        let elapsed = prober.ctx.clock.now().since(before);
        assert!(!outcome.spf_measured());
        assert_eq!(outcome.verdict(), ProbeVerdict::Unreachable);
        assert!(
            elapsed >= CONNECT_TIMEOUT,
            "a dark host must cost timeout time, got {elapsed:?}"
        );
        assert!(prober.metrics().snapshot().window_closed_probes >= 1);
    }
}
