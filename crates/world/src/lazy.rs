//! Lazy world synthesis: the same population as
//! [`World::generate`](crate::World::generate), produced one domain at a
//! time.
//!
//! [`LazyWorld`] is an iterator of [`DomainStep`]s. Each step carries one
//! [`DomainRecord`] (in [`DomainId`] order) plus the [`HostRecord`]s that
//! domain caused to be created (in [`HostId`] order). Driving the
//! iterator to completion visits every domain and every host of the
//! eager world exactly once, **bit-for-bit identical** to the records
//! [`World::generate`](crate::World::generate) materializes —
//! `World::generate` is in fact the collector over this very iterator,
//! so the two cannot drift.
//!
//! The synthesis state is bounded: per-stream RNGs, the shared-hosting
//! pool cursors, and one compact precomputed table (the 2-Week rank
//! shuffle — the only genuinely global draw in generation, O(two-week
//! domains) of `u32`s, independent of host count). Everything else is
//! recomputed per step and freed with the step, which is what makes the
//! streaming campaign's peak heap independent of population size (see
//! DESIGN.md, "Streaming memory model").

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::Arc;

use spfail_dns::{Directory, Name, QueryLog, SpfTestAuthority};
use spfail_libspf2::MacroBehavior;
use spfail_mta::{ConnectPolicy, Mta, MtaConfig, SpfStage};
use spfail_netsim::{LatencyModel, Link, SimClock, SimRng};

use crate::config::WorldConfig;
use crate::domains::{DomainId, DomainRecord, SetMembership, TldSampler};
use crate::geo;
use crate::hosting::{sample_patch, sample_profile, HostId, HostRecord};
use crate::timeline::Timeline;
use crate::world::MtaInstrumentation;

/// The world's population-free runtime surface: configuration, the
/// shared simulation clock, the DNS directory with the measurement zone,
/// and the runtime RNG root. [`World`](crate::World) owns one; streaming
/// campaigns construct one without ever materializing the population.
///
/// Cloning is cheap handle semantics: the clone shares the clock,
/// directory, and query log with the original (they are `Arc`-backed
/// handles), and its RNG root forks the same streams — which is what
/// lets the streaming driver hand the live runtime to probers and to
/// the retained [`SparsePopulation`] without a materialized `World`.
#[derive(Clone)]
pub struct WorldRuntime {
    /// The configuration the world is generated from.
    pub config: WorldConfig,
    /// The shared simulation clock.
    pub clock: SimClock,
    /// The DNS directory (holds the measurement zone's authority).
    pub directory: Directory,
    /// The measurement zone's query log.
    pub query_log: QueryLog,
    /// The measurement zone origin (`spf-test.dns-lab.org`).
    pub zone_origin: Name,
    rng_root: SimRng,
}

impl WorldRuntime {
    /// Build the runtime for `config`: fresh clock, directory with the
    /// measurement zone registered, and the `world-runtime` RNG root —
    /// exactly the state [`World::generate`](crate::World::generate)
    /// ends with, derived from the seed alone.
    pub fn new(config: WorldConfig) -> WorldRuntime {
        let clock = SimClock::new();
        let directory = Directory::new();
        let query_log = QueryLog::new();
        let zone_origin = SpfTestAuthority::default_origin();
        directory.register(Arc::new(SpfTestAuthority::new(
            zone_origin.clone(),
            query_log.clone(),
        )));
        let rng_root = SimRng::new(config.seed).fork("world-runtime");
        WorldRuntime {
            config,
            clock,
            directory,
            query_log,
            zone_origin,
            rng_root,
        }
    }

    /// A deterministic RNG stream for a named consumer of this world.
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.rng_root.fork(label)
    }

    /// Build the live MTA for `record` (the record of `host`) as of day
    /// `day` — the record-passing core behind
    /// [`World::build_mta_instrumented`](crate::World::build_mta_instrumented).
    /// The MTA's RNG stream depends only on the host id, so any engine
    /// holding the host's record builds exactly the MTA the eager world
    /// would.
    ///
    /// This is a blank MTA wired to the instrumentation, then
    /// [`WorldRuntime::rebuild_mta_record`]: the per-host derivation is
    /// spelled once, so a reused MTA cannot drift from a fresh one.
    pub fn build_mta_record(
        &self,
        host: HostId,
        record: &HostRecord,
        day: u16,
        directory: Directory,
        clock: SimClock,
        instrumentation: MtaInstrumentation<'_>,
    ) -> Mta {
        let link = Link::new(
            LatencyModel::ZERO,
            instrumentation.dns_faults,
            clock.clone(),
            instrumentation.metrics,
        );
        let ip = std::net::IpAddr::V4(record.ip);
        let rng = self.mta_rng(host, instrumentation.reroll);
        let mut mta = Mta::with_dns_link(MtaConfig::default(), ip, directory, link, clock, rng);
        mta.set_dns_tracer(instrumentation.tracer);
        if let Some(cache) = instrumentation.policy_cache {
            mta.set_policy_cache(cache);
        }
        self.rebuild_mta_record(&mut mta, host, record, day, instrumentation.reroll);
        mta
    }

    /// Make `mta` — built by [`WorldRuntime::build_mta_record`] for any
    /// host, and used since — the MTA that call would build for `host`
    /// on `day` with the same instrumentation and `reroll` salt: the
    /// hostname `mx{id}.{tld}` written into the config's own string,
    /// the host's behaviour as of `day`, and the `mta`-forked random
    /// stream, with every per-instance field reset ([`Mta::reset`]).
    /// Once its buffers have grown to the host's shape, this allocates
    /// nothing.
    pub fn rebuild_mta_record(
        &self,
        mta: &mut Mta,
        host: HostId,
        record: &HostRecord,
        day: u16,
        reroll: Option<&str>,
    ) {
        let config = mta.config_mut();
        config.hostname.clear();
        write!(config.hostname, "mx{}.{}", host.0, record.primary_tld)
            .expect("writing to a String cannot fail");
        record.profile.fill_mta_config(config, day);
        mta.reset(std::net::IpAddr::V4(record.ip), self.mta_rng(host, reroll));
    }

    /// The random stream of `host`'s MTA, salted with `reroll` when one
    /// is given.
    fn mta_rng(&self, host: HostId, reroll: Option<&str>) -> SimRng {
        let rng = self.rng_root.fork_idx("mta", u64::from(host.0));
        match reroll {
            Some(salt) => rng.fork(salt),
            None => rng,
        }
    }
}

/// A population lookup surface: everything the probing, notification,
/// and reporting layers read about hosts and domains. The eager
/// [`World`](crate::World) answers from its vectors; a
/// [`SparsePopulation`] answers from a retained subset — which is how
/// streaming campaigns run their longitudinal rounds, snapshot, and
/// notification phases over O(tracked) memory.
pub trait Population: Sync {
    /// The population-free runtime surface.
    fn runtime(&self) -> &WorldRuntime;

    /// Look up a host. Panics if the host is outside the population
    /// (for a sparse population: outside the retained subset).
    fn host(&self, id: HostId) -> &HostRecord;

    /// Look up a domain. Panics outside the (retained) population.
    fn domain(&self, id: DomainId) -> &DomainRecord;

    /// Resolve a domain's mail hosts as of measurement day `day` — the
    /// paper's MX+A/AAAA resolution step. Short-lived spam domains lose
    /// their MX records before the final snapshot (§7.2).
    fn resolve_mail_hosts(&self, id: DomainId, day: u16) -> Vec<HostId> {
        let d = self.domain(id);
        if d.spam_churn && day >= Timeline::WINDOW2_START {
            return Vec::new();
        }
        d.hosts.clone()
    }

    /// Build an instrumented MTA for `host`; see
    /// [`WorldRuntime::build_mta_record`].
    fn build_mta_instrumented(
        &self,
        host: HostId,
        day: u16,
        directory: Directory,
        clock: SimClock,
        instrumentation: MtaInstrumentation<'_>,
    ) -> Mta {
        self.runtime().build_mta_record(
            host,
            self.host(host),
            day,
            directory,
            clock,
            instrumentation,
        )
    }

    /// Build the live MTA for `host` as of day `day` against the shared
    /// runtime surfaces — the [`Population`] spelling of
    /// [`World::build_mta`](crate::World::build_mta).
    fn build_mta(&self, host: HostId, day: u16) -> Mta {
        let runtime = self.runtime();
        self.build_mta_instrumented(
            host,
            day,
            runtime.directory.clone(),
            runtime.clock.clone(),
            MtaInstrumentation {
                dns_faults: spfail_netsim::FaultPlan::NONE,
                metrics: spfail_netsim::Metrics::new(),
                reroll: None,
                tracer: spfail_trace::Tracer::disabled(),
                policy_cache: None,
            },
        )
    }

    /// The number of hosts in the *full* generated population, or
    /// `None` when this population is a retained subset. The campaign
    /// engine's eager initial sweep needs the host universe; the
    /// streaming engine never asks (its sweep enumerates hosts from the
    /// [`LazyWorld`] stream instead).
    fn full_host_count(&self) -> Option<usize>;

    /// The initially-vulnerable-domain derivation shared by the eager
    /// and streaming campaign engines: every domain (in id order) with
    /// at least one host in `tracked` (which must be sorted). The full
    /// world scans all domains; a retained subset scans exactly the
    /// domains it kept — identical by construction, because the
    /// streaming driver retains precisely the domains this predicate
    /// selects.
    fn derive_vulnerable_domains(&self, tracked: &[HostId]) -> Vec<DomainId>;
}

/// A retained subset of the population, sharing the runtime surface.
///
/// Streaming campaigns keep only the hosts and domains the longitudinal
/// phases actually touch (tracked hosts and initially-vulnerable
/// domains, a few percent of the world); every other record exists only
/// for the lifetime of its [`DomainStep`].
pub struct SparsePopulation {
    /// The runtime surface.
    pub runtime: WorldRuntime,
    hosts: HashMap<HostId, HostRecord>,
    domains: HashMap<DomainId, DomainRecord>,
}

impl SparsePopulation {
    /// An empty sparse population over `runtime`.
    pub fn new(runtime: WorldRuntime) -> SparsePopulation {
        SparsePopulation {
            runtime,
            hosts: HashMap::new(),
            domains: HashMap::new(),
        }
    }

    /// Retain a host record.
    pub fn insert_host(&mut self, id: HostId, record: HostRecord) {
        self.hosts.insert(id, record);
    }

    /// Retain a domain record.
    pub fn insert_domain(&mut self, id: DomainId, record: DomainRecord) {
        self.domains.insert(id, record);
    }

    /// Whether a host is retained.
    pub fn has_host(&self, id: HostId) -> bool {
        self.hosts.contains_key(&id)
    }

    /// Number of retained hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of retained domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }
}

impl Population for SparsePopulation {
    fn runtime(&self) -> &WorldRuntime {
        &self.runtime
    }

    fn host(&self, id: HostId) -> &HostRecord {
        self.hosts
            .get(&id)
            .expect("streaming phases only touch retained hosts")
    }

    fn domain(&self, id: DomainId) -> &DomainRecord {
        self.domains
            .get(&id)
            .expect("streaming phases only touch retained domains")
    }

    fn full_host_count(&self) -> Option<usize> {
        None
    }

    fn derive_vulnerable_domains(&self, tracked: &[HostId]) -> Vec<DomainId> {
        // Sorted after collection, so the HashMap's iteration order
        // never reaches the result.
        let mut ids: Vec<DomainId> = self
            .domains
            .iter()
            .filter(|(_, d)| d.hosts.iter().any(|h| tracked.binary_search(h).is_ok()))
            .map(|(&id, _)| id)
            .collect();
        ids.sort();
        ids
    }
}

/// A population with *no* records at all: just the runtime surface.
///
/// The streaming driver's sweep-phase probers run over this — every
/// host record reaches them from the synthesis stream through the
/// record-passing probe methods, so a lookup would be a bug, and the
/// panic message says which one.
pub struct RuntimePopulation(pub WorldRuntime);

impl Population for RuntimePopulation {
    fn runtime(&self) -> &WorldRuntime {
        &self.0
    }

    fn host(&self, _id: HostId) -> &HostRecord {
        // lint:allow(panic-explicit) trait-contract misuse: the streamed engine passes records by value, so a lookup here is a caller bug the message names
        panic!("RuntimePopulation holds no host records: the streamed sweep passes records")
    }

    fn domain(&self, _id: DomainId) -> &DomainRecord {
        // lint:allow(panic-explicit) trait-contract misuse: the streamed engine passes records by value, so a lookup here is a caller bug the message names
        panic!("RuntimePopulation holds no domain records: the streamed sweep passes records")
    }

    fn full_host_count(&self) -> Option<usize> {
        None
    }

    fn derive_vulnerable_domains(&self, _tracked: &[HostId]) -> Vec<DomainId> {
        // lint:allow(panic-explicit) trait-contract misuse: domain retention runs on the replay passes, never through this accessor
        panic!("RuntimePopulation cannot derive domains: retention happens on the replay passes")
    }
}

impl Population for crate::world::World {
    fn runtime(&self) -> &WorldRuntime {
        crate::world::World::runtime(self)
    }

    fn host(&self, id: HostId) -> &HostRecord {
        crate::world::World::host(self, id)
    }

    fn domain(&self, id: DomainId) -> &DomainRecord {
        crate::world::World::domain(self, id)
    }

    fn full_host_count(&self) -> Option<usize> {
        Some(self.hosts.len())
    }

    fn derive_vulnerable_domains(&self, tracked: &[HostId]) -> Vec<DomainId> {
        (0..self.domains.len() as u32)
            .map(DomainId)
            .filter(|&d| {
                self.domain(d)
                    .hosts
                    .iter()
                    .any(|h| tracked.binary_search(h).is_ok())
            })
            .collect()
    }
}

/// One step of lazy synthesis: a domain, its serving hosts, and the
/// host records this domain caused to be created.
pub struct DomainStep {
    /// The domain's id (steps arrive in id order).
    pub id: DomainId,
    /// The full domain record, `hosts` filled in.
    pub domain: DomainRecord,
    /// Id of the first freshly created host (fresh ids are consecutive).
    pub first_fresh: HostId,
    /// Host records created by this domain, in [`HostId`] order starting
    /// at `first_fresh`. A domain served from a shared-hosting pool
    /// creates at most one fresh host (the pool refill); its
    /// `domain.hosts` may instead reference a host from an earlier step.
    pub fresh: Vec<HostRecord>,
}

/// The provider TLD table (§7.5's twenty top email providers).
const PROVIDER_TLDS: [&str; 20] = [
    "com", "com", "kr", "ru", "pl", "cz", "com", "net", "com", "jp", "de", "fr", "com", "uk",
    "com", "in", "br", "com", "it", "com",
];

/// Lazily synthesizes the world population, domain by domain.
///
/// See the module docs for the identity contract with
/// [`World::generate`](crate::World::generate).
pub struct LazyWorld {
    runtime: WorldRuntime,
    /// Copy of the configuration, split off from `runtime` so the forge
    /// can borrow rates and RNG streams disjointly.
    config: WorldConfig,
    // Domain plan.
    n_alexa: usize,
    n_two_week: usize,
    n_domains: usize,
    n_providers: usize,
    cutoff: usize,
    alexa_tlds: TldSampler,
    two_week_tlds: TldSampler,
    /// Precomputed `(domain index, 2-Week rank)` for every 2-Week member,
    /// ascending by domain index — the rank shuffle is the one global
    /// draw in generation. O(two-week set) pairs, read by a cursor as
    /// domain ids ascend.
    two_week_ranks: Vec<(u32, u32)>,
    /// The next unread entry of `two_week_ranks`.
    rank_cursor: usize,
    // Sequential per-domain RNG streams, consumed in domain-id order.
    tld_rng: SimRng,
    churn_rng: SimRng,
    mx_rng: SimRng,
    next_domain: usize,
    // Host forge state (the former eager `Builder`, pools reduced to
    // their live cursor).
    rng: SimRng,
    next_host: u32,
    next_ip: u32,
    parking_last: Option<HostId>,
    parking_slots: u32,
    shared_last: Option<HostId>,
    shared_slots: u32,
    // Per-step scratch, drained into the emitted `DomainStep`.
    first_fresh: u32,
    fresh: Vec<HostRecord>,
}

impl LazyWorld {
    /// Plan lazy synthesis for `config`.
    pub fn new(config: WorldConfig) -> LazyWorld {
        let rng = SimRng::new(config.seed);
        let n_alexa = config.scaled(config.alexa_total);
        let n_two_week = config.scaled(config.two_week_total);
        let cutoff = config.top1000_cutoff();
        let n_providers = config.top_providers.min(PROVIDER_TLDS.len());

        // The 2-Week overlap picks and rank shuffle, exactly as the
        // eager generator draws them (same RNG streams, same order).
        let overlap_total = config
            .scaled(config.overlap_toplist_two_week)
            .min(n_two_week);
        let overlap_1000 = config
            .scaled(config.overlap_top1000_two_week)
            .min(overlap_total)
            .min(cutoff);
        let mut overlap_rng = rng.fork("overlap");
        let mut picks = pick_distinct(&mut overlap_rng, cutoff.min(n_alexa), overlap_1000);
        if n_alexa > cutoff {
            let lower = pick_distinct(
                &mut overlap_rng,
                n_alexa - cutoff,
                overlap_total - overlap_1000,
            );
            picks.extend(lower.into_iter().map(|i| i + cutoff));
        }
        let mut two_week_members: Vec<usize> = picks;
        let n_two_week_only = n_two_week.saturating_sub(two_week_members.len());
        for i in 0..n_two_week_only {
            two_week_members.push(n_alexa + i);
        }
        let two_week_ranks = two_week_ranks(&two_week_members, rng.fork("two-week-ranks"));

        let alexa_tlds = TldSampler::alexa(&config);
        let two_week_tlds = TldSampler::two_week(&config);
        LazyWorld {
            config: config.clone(),
            n_alexa,
            n_two_week,
            n_domains: n_alexa + n_two_week_only,
            n_providers,
            cutoff,
            alexa_tlds,
            two_week_tlds,
            two_week_ranks,
            rank_cursor: 0,
            tld_rng: rng.fork("alexa-tlds"),
            churn_rng: rng.fork("churn"),
            mx_rng: rng.fork("mx"),
            next_domain: 0,
            rng: rng.fork("hosts"),
            next_host: 0,
            next_ip: u32::from(Ipv4Addr::new(11, 0, 0, 1)),
            parking_last: None,
            parking_slots: 0,
            shared_last: None,
            shared_slots: 0,
            first_fresh: 0,
            fresh: Vec::new(),
            runtime: WorldRuntime::new(config),
        }
    }

    /// Total number of domains the stream will emit.
    pub fn domain_count(&self) -> usize {
        self.n_domains
    }

    /// The runtime surface (clock, DNS directory, RNG root).
    pub fn runtime(&self) -> &WorldRuntime {
        &self.runtime
    }

    /// Consume the stream, keeping the runtime surface.
    pub fn into_runtime(self) -> WorldRuntime {
        self.runtime
    }

    // --- The host forge (the eager generator's `Builder`, verbatim     ---
    // --- logic; pools keep only their live cursor).                    ---

    fn alloc_ip(&mut self) -> Ipv4Addr {
        let ip = Ipv4Addr::from(self.next_ip);
        self.next_ip += 1;
        ip
    }

    fn push_host(
        &mut self,
        set: SetMembership,
        tld: &'static str,
        rank_fraction: f64,
        refuse_override: Option<f64>,
        serves_top1000: bool,
    ) -> HostId {
        let rates = match set {
            SetMembership::Alexa => &self.config.alexa_rates,
            SetMembership::TwoWeek => &self.config.two_week_rates,
            SetMembership::TopProvider => &self.config.top_provider_rates,
        };
        let mut profile = sample_profile(
            &self.config,
            rates,
            tld,
            rank_fraction,
            refuse_override,
            &mut self.rng,
        );
        if serves_top1000 && profile.impls.iter().any(|b| b.is_vulnerable()) {
            // §7.6: Alexa Top 1000 hosts go inconclusive early (blacklist)
            // and only the final snapshot sees the few that patched.
            profile.blacklist_after = Some(4 + self.rng.below(5) as u32);
            let (day, cause) = sample_patch(&self.config, tld, true, profile.distro, &mut self.rng);
            profile.patch_day = day;
            profile.patch_cause = cause;
        }
        let ip = self.alloc_ip();
        let geo = geo::locate(tld, &mut self.rng);
        self.fresh.push(HostRecord {
            ip,
            geo,
            primary_set: set,
            primary_tld: tld,
            serves_top1000,
            profile,
        });
        let id = HostId(self.next_host);
        self.next_host += 1;
        id
    }

    /// A parked/no-MX host: almost always refuses connections.
    fn parking_host(&mut self, tld: &'static str) -> HostId {
        if self.parking_slots == 0 {
            let id = self.push_host(SetMembership::Alexa, tld, 0.9, Some(0.92), false);
            self.parking_last = Some(id);
            self.parking_slots = 4 + self.rng.below(6) as u32;
        }
        self.parking_slots -= 1;
        self.parking_last.expect("pool refilled above")
    }

    /// Mail hosts for an ordinary domain: either from a shared-hosting
    /// pool or dedicated server(s).
    fn mail_hosts(
        &mut self,
        set: SetMembership,
        tld: &'static str,
        rank_fraction: f64,
        serves_top1000: bool,
    ) -> Vec<HostId> {
        // Top-1000 domains self-host; sharing is a long-tail phenomenon.
        if !serves_top1000 && self.rng.chance(0.68) {
            if self.shared_slots == 0 {
                let id = self.push_host(set, tld, rank_fraction, Some(0.22), false);
                self.shared_last = Some(id);
                let span = (self.config.shared_hosting_rate * 4.0) as u32 + 1;
                self.shared_slots = 2 + self.rng.below(u64::from(span)) as u32;
            }
            self.shared_slots -= 1;
            return vec![self.shared_last.expect("pool refilled above")];
        }
        let count = match self.rng.below(20) {
            0..=13 => 1,
            14..=18 => 2,
            _ => 3,
        };
        (0..count)
            .map(|_| self.push_host(set, tld, rank_fraction, None, serves_top1000))
            .collect()
    }

    /// Hosts for a top email provider: several addresses, no refusals.
    fn provider_hosts(&mut self, tld: &'static str, provider_index: usize) -> Vec<HostId> {
        let count = 2 + self.rng.below(4) as usize;
        self.fresh.reserve_exact(count);
        // §7.5 names exactly four vulnerable providers; the rest are kept
        // explicitly clean so the reference-set counts stay calibrated.
        let vulnerable = provider_index < self.config.vulnerable_top_providers;
        let first_fresh = self.first_fresh;
        (0..count)
            .map(|_| {
                let id = self.push_host(SetMembership::TopProvider, tld, 0.1, Some(0.0), true);
                let blacklist = Some(5 + self.rng.below(5) as u32);
                let profile = &mut self.fresh[(id.0 - first_fresh) as usize].profile;
                if vulnerable {
                    profile.connect = ConnectPolicy::Accept;
                    profile.quirk = spfail_mta::SmtpQuirk::None;
                    if profile.spf_stage == SpfStage::Never {
                        profile.spf_stage = SpfStage::OnData;
                    }
                    profile.impls.clear();
                    profile.impls.push(MacroBehavior::VulnerableLibSpf2);
                    // §7.5: none of the vulnerable providers patched during
                    // the four months of measurement.
                    profile.patch_day = None;
                    profile.patch_cause = None;
                    profile.blacklist_after = blacklist;
                } else {
                    for b in &mut profile.impls {
                        if b.is_vulnerable() {
                            *b = MacroBehavior::Compliant;
                        }
                    }
                    profile.patch_day = None;
                    profile.patch_cause = None;
                }
                id
            })
            .collect()
    }
}

impl Iterator for LazyWorld {
    type Item = DomainStep;

    fn next(&mut self) -> Option<DomainStep> {
        let idx = self.next_domain;
        if idx >= self.n_domains {
            return None;
        }
        self.next_domain += 1;

        // --- The domain record (the eager generator's first four       ---
        // --- passes, fused per domain; each RNG stream is its own       ---
        // --- fork, so per-stream draw order is domain-id order in       ---
        // --- both engines).                                             ---
        let mut record = if idx < self.n_alexa {
            let rank = idx + 1;
            // The eager generator samples a TLD for every Alexa rank and
            // then *overwrites* provider ranks; the draw must still be
            // consumed here.
            let tld = self.alexa_tlds.sample(&mut self.tld_rng);
            if rank >= 6 && rank < 6 + self.n_providers {
                let i = rank - 6;
                let tld = PROVIDER_TLDS[i];
                DomainRecord {
                    name: domain_name("mailprov", i, tld),
                    tld,
                    alexa_rank: Some(rank as u32),
                    two_week_rank: None,
                    top_provider: true,
                    has_mx: true,
                    spam_churn: false,
                    hosts: Vec::new(),
                }
            } else {
                DomainRecord {
                    name: domain_name("a", rank, tld),
                    tld,
                    alexa_rank: Some(rank as u32),
                    two_week_rank: None,
                    top_provider: false,
                    has_mx: true,
                    spam_churn: false,
                    hosts: Vec::new(),
                }
            }
        } else {
            let i = idx - self.n_alexa;
            let tld = self.two_week_tlds.sample(&mut self.tld_rng);
            DomainRecord {
                name: domain_name("m", i, tld),
                tld,
                alexa_rank: None,
                two_week_rank: None,
                top_provider: false,
                has_mx: true,
                spam_churn: self.churn_rng.chance(self.config.spam_churn_rate),
                hosts: Vec::new(),
            }
        };
        if let Some(&(member, rank)) = self.two_week_ranks.get(self.rank_cursor) {
            if member as usize == idx {
                record.two_week_rank = Some(rank);
                self.rank_cursor += 1;
            }
        }
        if record.alexa_rank.is_some()
            && record.two_week_rank.is_none()
            && !record.top_provider
            && self.mx_rng.chance(self.config.no_mx_rate)
        {
            record.has_mx = false;
        }

        // --- Hosting (the eager generator's fifth pass).               ---
        self.first_fresh = self.next_host;
        self.fresh = Vec::new();
        let set = record.primary_set();
        let rank_fraction = match (record.alexa_rank, record.two_week_rank) {
            (Some(r), _) => f64::from(r) / self.n_alexa.max(1) as f64,
            (None, Some(r)) => f64::from(r) / self.n_two_week.max(1) as f64,
            (None, None) => 0.75,
        };
        let in_top1000 = record.in_alexa_top(self.cutoff);
        let tld = record.tld;
        let host_ids = if record.top_provider {
            // Providers occupy ranks 6..6+P, i.e. indices 5..5+P.
            self.provider_hosts(tld, idx - 5)
        } else if !record.has_mx {
            vec![self.parking_host(tld)]
        } else {
            self.mail_hosts(set, tld, rank_fraction, in_top1000)
        };
        record.hosts = host_ids;

        Some(DomainStep {
            id: DomainId(idx as u32),
            domain: record,
            first_fresh: HostId(self.first_fresh),
            fresh: std::mem::take(&mut self.fresh),
        })
    }
}

/// The 2-Week rank of every member of `members` (domain indices, in
/// the order the overlap picks produced them), as `(domain index, rank)`
/// pairs ascending by index.
///
/// The ranks are those of shuffling `members` with `rng` and numbering
/// the result from 1. A shuffle's draws depend only on the slice's
/// length, so shuffling member *positions* applies the same permutation:
/// the member at position `order[k]` gets rank `k + 1`, and no hashing
/// is needed to look a rank up. `members` is already ascending unless
/// [`pick_distinct`] took its dense branch with more than one pick,
/// which no calibrated world does; only then are the pairs sorted.
fn two_week_ranks(members: &[usize], mut rng: SimRng) -> Vec<(u32, u32)> {
    let mut order: Vec<u32> = (0..members.len() as u32).collect();
    rng.shuffle(&mut order);
    let mut ranks: Vec<(u32, u32)> = members.iter().map(|&idx| (idx as u32, 0)).collect();
    for (rank0, &position) in order.iter().enumerate() {
        ranks[position as usize].1 = rank0 as u32 + 1;
    }
    if !ranks.windows(2).all(|w| w[0].0 < w[1].0) {
        ranks.sort_unstable();
    }
    ranks
}

/// `{prefix}{n}.{tld}`, written into one exactly-sized `String`.
fn domain_name(prefix: &str, n: usize, tld: &str) -> String {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&digits[start..]).expect("ASCII digits");
    let mut name = String::with_capacity(prefix.len() + digits.len() + 1 + tld.len());
    name.push_str(prefix);
    name.push_str(digits);
    name.push('.');
    name.push_str(tld);
    name
}

/// Pick `count` distinct indices in `[0, bound)`.
///
/// Deterministic for a given `SimRng`: the sparse branch sorts the
/// `HashSet` draw before returning (iteration order of a `HashSet`
/// depends on the per-process hash seed — the ISSUE-4 bug class), and
/// the dense branch is a plain seeded shuffle.
pub(crate) fn pick_distinct(rng: &mut SimRng, bound: usize, count: usize) -> Vec<usize> {
    let count = count.min(bound);
    if count == 0 || bound == 0 {
        return Vec::new();
    }
    if count * 3 >= bound {
        let mut all: Vec<usize> = (0..bound).collect();
        rng.shuffle(&mut all);
        all.truncate(count);
        return all;
    }
    let mut seen = std::collections::HashSet::new();
    while seen.len() < count {
        seen.insert(rng.below(bound as u64) as usize);
    }
    // HashSet iteration order depends on the per-process hash seed; a
    // sort keeps the world identical across runs for the same SimRng.
    let mut out: Vec<usize> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn lazy_stream_matches_eager_world() {
        let config = WorldConfig {
            scale: 0.005,
            ..WorldConfig::small(41)
        };
        let world = World::generate(config.clone());
        let mut hosts_seen = 0usize;
        let mut domains_seen = 0usize;
        for step in LazyWorld::new(config) {
            let d = world.domain(step.id);
            assert_eq!(step.domain.name, d.name);
            assert_eq!(step.domain.tld, d.tld);
            assert_eq!(step.domain.alexa_rank, d.alexa_rank);
            assert_eq!(step.domain.two_week_rank, d.two_week_rank);
            assert_eq!(step.domain.top_provider, d.top_provider);
            assert_eq!(step.domain.has_mx, d.has_mx);
            assert_eq!(step.domain.spam_churn, d.spam_churn);
            assert_eq!(step.domain.hosts, d.hosts);
            assert_eq!(step.first_fresh.0 as usize, hosts_seen);
            for (offset, fresh) in step.fresh.iter().enumerate() {
                let id = HostId(step.first_fresh.0 + offset as u32);
                let h = world.host(id);
                assert_eq!(fresh.ip, h.ip);
                assert_eq!(fresh.geo, h.geo);
                assert_eq!(fresh.primary_tld, h.primary_tld);
                assert_eq!(fresh.profile.patch_day, h.profile.patch_day);
                assert_eq!(fresh.profile.impls, h.profile.impls);
            }
            hosts_seen += step.fresh.len();
            domains_seen += 1;
        }
        assert_eq!(domains_seen, world.domains.len());
        assert_eq!(hosts_seen, world.hosts.len());
    }

    #[test]
    fn pick_distinct_is_sorted_and_deterministic() {
        // Regression pin for the ISSUE-4 bug class: the sparse branch
        // draws into a HashSet whose iteration order is per-process
        // random; the result must not depend on it.
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let x = pick_distinct(&mut a, 10_000, 50);
        let y = pick_distinct(&mut b, 10_000, 50);
        assert_eq!(x, y);
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(x, sorted, "sparse branch must return sorted picks");
        assert_eq!(x.len(), 50);
    }

    #[test]
    fn two_week_ranks_number_a_shuffle_of_the_members() {
        // Ascending members (every calibrated world), then members out
        // of order, as `pick_distinct`'s dense branch can return them.
        for members in [vec![0, 3, 7, 9, 12, 40, 41], vec![7, 3, 9, 0, 12, 40, 41]] {
            let mut shuffled = members.clone();
            SimRng::new(5).shuffle(&mut shuffled);
            let mut expected: Vec<(u32, u32)> = shuffled
                .iter()
                .enumerate()
                .map(|(rank0, &idx)| (idx as u32, rank0 as u32 + 1))
                .collect();
            expected.sort_unstable();
            assert_eq!(two_week_ranks(&members, SimRng::new(5)), expected);
        }
    }

    #[test]
    fn sparse_population_answers_for_retained_records() {
        let config = WorldConfig {
            scale: 0.002,
            ..WorldConfig::small(43)
        };
        let world = World::generate(config.clone());
        let mut sparse = SparsePopulation::new(WorldRuntime::new(config));
        let d = DomainId(0);
        sparse.insert_domain(d, world.domain(d).clone());
        for &h in &world.domain(d).hosts {
            sparse.insert_host(h, world.host(h).clone());
        }
        let h = world.domain(d).hosts[0];
        assert_eq!(Population::host(&sparse, h).ip, world.host(h).ip);
        assert_eq!(
            Population::resolve_mail_hosts(&sparse, d, 0),
            world.resolve_mail_hosts(d, 0)
        );
        assert_eq!(
            sparse.runtime().zone_origin.to_ascii(),
            world.zone_origin.to_ascii()
        );
    }
}
