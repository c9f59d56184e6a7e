//! A caching resolver over a directory of authorities.
//!
//! The simulation replaces the Internet's recursive-resolution machinery
//! with a [`Directory`]: a longest-suffix-match registry from zone origins
//! to [`Authority`] handles. A [`Resolver`] walks the directory, follows
//! CNAME chains, caches positive and negative answers by TTL against the
//! shared simulated clock, and charges every authoritative round trip to a
//! [`Link`].
//!
//! The paper's probe design defeats caching deliberately (every probe uses
//! a unique label), so probe queries always miss; the cache answers only
//! repeated lookups of one name within its TTL.

use std::collections::HashMap;
use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use spfail_netsim::{Link, Metrics, SimDuration, SimRng, SimTime};
use spfail_trace::{SpanKind, Tracer};

use crate::authority::Authority;
use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::rdata::{RData, Record, RecordType};

/// Longest-suffix-match registry of authorities.
#[derive(Clone, Default)]
pub struct Directory {
    authorities: Arc<Mutex<Vec<Arc<dyn Authority>>>>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Register an authority. Later registrations win ties, which makes it
    /// easy to shadow a zone in tests.
    pub fn register(&self, authority: Arc<dyn Authority>) {
        self.authorities.lock().push(authority);
    }

    /// The authority with the longest origin that is a suffix of `name`.
    pub fn authority_for(&self, name: &Name) -> Option<Arc<dyn Authority>> {
        let authorities = self.authorities.lock();
        authorities
            .iter()
            .filter(|a| name.is_subdomain_of(a.origin()))
            .max_by_key(|a| {
                // Prefer deeper origins; among equals prefer the most recent.
                let depth = a.origin().label_count();
                let index = authorities
                    .iter()
                    .position(|b| Arc::ptr_eq(a, b))
                    .unwrap_or(0);
                (depth, index)
            })
            .cloned()
    }

    /// Number of registered authorities.
    pub fn len(&self) -> usize {
        self.authorities.lock().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.authorities.lock().is_empty()
    }
}

impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Directory({} authorities)", self.len())
    }
}

/// Outcome of a successful resolution exchange.
///
/// Records are shared (`Arc<[Record]>`) so a cached outcome is returned
/// by reference-count bump — a cache hit never copies record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Records of the requested type (CNAME chains already followed).
    Records(Arc<[Record]>),
    /// The name does not exist.
    NxDomain,
    /// The name exists but has no data of the requested type.
    NoRecords,
}

impl LookupOutcome {
    /// Whether this outcome is a "void lookup" in RFC 7208 §4.6.4 terms.
    pub fn is_void(&self) -> bool {
        !matches!(self, LookupOutcome::Records(_))
    }

    /// The records, if any.
    pub fn records(&self) -> &[Record] {
        match self {
            LookupOutcome::Records(r) => r.as_ref(),
            _ => &[],
        }
    }
}

/// Errors that prevent any outcome at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupError {
    /// No registered authority covers the name.
    NoAuthority(Name),
    /// The query or its response was lost and retries were exhausted.
    Timeout,
    /// The authority returned SERVFAIL/REFUSED.
    ServFail(Rcode),
    /// A CNAME chain exceeded the depth limit.
    CnameChainTooLong,
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupError::NoAuthority(n) => write!(f, "no authority for {n}"),
            LookupError::Timeout => write!(f, "query timed out"),
            LookupError::ServFail(rc) => write!(f, "server failure: {rc}"),
            LookupError::CnameChainTooLong => write!(f, "CNAME chain too long"),
        }
    }
}

impl std::error::Error for LookupError {}

impl From<&LookupError> for spfail_netsim::ProbeError {
    fn from(err: &LookupError) -> spfail_netsim::ProbeError {
        match err {
            LookupError::NoAuthority(_) | LookupError::CnameChainTooLong => {
                spfail_netsim::ProbeError::DnsLame
            }
            LookupError::Timeout => spfail_netsim::ProbeError::DnsTimeout,
            LookupError::ServFail(_) => spfail_netsim::ProbeError::DnsServFail,
        }
    }
}

/// Per-query timeout charged when a datagram is lost.
const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Retransmissions after a lost datagram.
const RETRIES: u32 = 2;
/// Maximum CNAME chain length.
const MAX_CNAME_DEPTH: u32 = 8;
/// Maximum UDP payload before the server truncates and the resolver
/// retries over TCP (classic 512-byte limit, RFC 1035 §4.2.1).
const MAX_UDP_PAYLOAD: usize = 512;

#[derive(Debug, Clone)]
struct CacheEntry {
    expires: SimTime,
    outcome: LookupOutcome,
}

/// One resolver exchange recorded while a memoized evaluation candidate
/// is being captured (see [`Resolver::begin_transcript`]).
#[derive(Debug, Clone)]
pub struct TranscriptStep {
    /// The question name as asked.
    pub name: Name,
    /// The question type.
    pub rtype: RecordType,
    /// Whether the resolver's TTL cache answered (no authority contact).
    pub cache_hit: bool,
    /// The outcome handed to the caller.
    pub outcome: LookupOutcome,
}

impl TranscriptStep {
    /// The trace-span outcome label the live path emitted for this step.
    pub fn outcome_label(&self) -> &'static str {
        match &self.outcome {
            LookupOutcome::Records(_) => "ok",
            LookupOutcome::NxDomain => "nxdomain",
            LookupOutcome::NoRecords => "nodata",
        }
    }
}

/// A capture of every exchange a resolver performed, used to decide
/// whether an evaluation is replayable and to validate its replay script.
///
/// `clean` is true only when every [`Resolver::resolve`] call mapped to
/// exactly one cache hit or one single-attempt authoritative exchange —
/// no errors, retries, truncation fallbacks, CNAME chains, or authorities
/// that cannot transparently log replayed queries. Anything else makes
/// the evaluation unreplayable and it stays on the live path forever.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    /// The exchanges, in order.
    pub steps: Vec<TranscriptStep>,
    /// Whether every exchange is replayable (see type docs).
    pub clean: bool,
}

/// A caching resolver bound to one client address.
pub struct Resolver {
    directory: Directory,
    link: Link,
    client: IpAddr,
    cache: HashMap<(Name, RecordType), CacheEntry>,
    metrics: Metrics,
    tracer: Tracer,
    next_id: u16,
    transcript: Option<Transcript>,
}

impl Resolver {
    /// A resolver for `client`, querying through `link`.
    pub fn new(directory: Directory, link: Link, client: IpAddr) -> Resolver {
        let metrics = link.metrics().clone();
        Resolver {
            directory,
            link,
            client,
            cache: HashMap::new(),
            metrics,
            tracer: Tracer::disabled(),
            next_id: 1,
            transcript: None,
        }
    }

    /// Attach a tracing handle; every subsequent [`Resolver::resolve`]
    /// records a `dns_resolve` span labelled with its question.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The client address queries are attributed to.
    pub fn client(&self) -> IpAddr {
        self.client
    }

    /// Drop all cached entries.
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }

    /// Rebind this resolver to `client` in the state a fresh
    /// [`Resolver::new`] has: an empty cache (its table capacity
    /// kept for reuse), query ids restarting at 1, and no transcript.
    /// The directory, link and tracer stay.
    pub fn rehost(&mut self, client: IpAddr) {
        self.client = client;
        self.cache.clear();
        self.next_id = 1;
        self.transcript = None;
    }

    /// Whether the TTL cache holds no entries at all (live or expired).
    ///
    /// Memoized-evaluation capture and replay both require a cold cache:
    /// with a warm one, which queries reach the authority depends on what
    /// an earlier evaluation left behind, and the recorded exchange
    /// sequence would not transfer.
    pub fn cache_is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The link queries are charged to.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Start recording a [`Transcript`] of every subsequent exchange.
    pub fn begin_transcript(&mut self) {
        self.transcript = Some(Transcript {
            steps: Vec::new(),
            clean: true,
        });
    }

    /// Stop recording and hand back the transcript, if one was started.
    pub fn take_transcript(&mut self) -> Option<Transcript> {
        self.transcript.take()
    }

    /// Re-emit the observable effects of one recorded clean exchange
    /// without doing its work.
    ///
    /// A cache-hit step ticks the cache-hit counter; a live step charges
    /// the query datagram to the link and logs the query with the
    /// authority via [`Authority::log_replayed_query`]. Both emit the same
    /// `dns_resolve` trace span the live path emits. Skipped entirely:
    /// message build, wire encode/decode, zone walk, and the resolver's
    /// own TTL-cache bookkeeping (replayed answers are never cached, which
    /// is unobservable — and `cache_is_empty` gating depends on it).
    pub fn replay_resolve(
        &mut self,
        rng: &mut SimRng,
        name: &Name,
        rtype: RecordType,
        cache_hit: bool,
        outcome_label: &'static str,
    ) {
        let traced = self.tracer.is_enabled();
        if traced {
            self.tracer
                .enter_labeled(self.link.clock().now(), SpanKind::DnsResolve, || {
                    // lint:allow(alloc-hot-path) the label closure only runs when tracing is on; the cache-hit path never formats
                    format!("{rtype} {name}")
                });
        }
        if cache_hit {
            self.metrics.inc_dns_cache_hits();
        } else {
            self.metrics.inc_dns_queries();
            let _ = self
                .link
                .datagram(rng, estimate_query_size(name), QUERY_TIMEOUT);
            if let Some(authority) = self.directory.authority_for(name) {
                authority.log_replayed_query(name, rtype, self.client, self.link.clock().now());
            }
        }
        if traced {
            self.tracer
                .exit(self.link.clock().now(), SpanKind::DnsResolve, outcome_label);
        }
    }

    /// Resolve `name`/`rtype`, following CNAME chains.
    pub fn resolve(
        &mut self,
        rng: &mut SimRng,
        name: &Name,
        rtype: RecordType,
    ) -> Result<LookupOutcome, LookupError> {
        let steps_before = self.transcript.as_ref().map(|t| t.steps.len());
        let result = self.resolve_traced(rng, name, rtype);
        if let Some(before) = steps_before {
            if let Some(t) = &mut self.transcript {
                // A replayable resolve is exactly one recorded exchange;
                // errors and CNAME chains (multiple hops per resolve) are
                // not transferable to another probe's names.
                if result.is_err() || t.steps.len() != before + 1 {
                    t.clean = false;
                }
            }
        }
        result
    }

    fn resolve_traced(
        &mut self,
        rng: &mut SimRng,
        name: &Name,
        rtype: RecordType,
    ) -> Result<LookupOutcome, LookupError> {
        // The untraced path must stay allocation-free on cache hits
        // (`crates/bench/tests/alloc_count.rs`), so the span — and its
        // label formatting — exist only behind the enabled check.
        if !self.tracer.is_enabled() {
            return self.resolve_chain(rng, name, rtype);
        }
        self.tracer
            .enter_labeled(self.link.clock().now(), SpanKind::DnsResolve, || {
                // lint:allow(alloc-hot-path) guarded by the is_enabled early return above; only traced runs format labels
                format!("{rtype} {name}")
            });
        let result = self.resolve_chain(rng, name, rtype);
        let outcome = match &result {
            Ok(LookupOutcome::Records(_)) => "ok",
            Ok(LookupOutcome::NxDomain) => "nxdomain",
            Ok(LookupOutcome::NoRecords) => "nodata",
            Err(LookupError::Timeout) => "timeout",
            Err(LookupError::ServFail(_)) => "servfail",
            Err(LookupError::NoAuthority(_)) => "no_authority",
            Err(LookupError::CnameChainTooLong) => "cname_loop",
        };
        self.tracer
            .exit(self.link.clock().now(), SpanKind::DnsResolve, outcome);
        result
    }

    fn resolve_chain(
        &mut self,
        rng: &mut SimRng,
        name: &Name,
        rtype: RecordType,
    ) -> Result<LookupOutcome, LookupError> {
        let mut current = name.clone();
        // lint:allow(alloc-hot-path) Vec::new is allocation-free; it only grows if a CNAME chain actually collects records
        let mut collected: Vec<Record> = Vec::new();
        for _depth in 0..=MAX_CNAME_DEPTH {
            let outcome = self.resolve_one(rng, &current, rtype)?;
            match &outcome {
                LookupOutcome::Records(records) => {
                    // A CNAME answer redirects unless CNAME itself was asked.
                    let cname = records
                        .iter()
                        .find(|r| r.record_type() == RecordType::CNAME);
                    match (cname, rtype) {
                        (Some(alias), t) if t != RecordType::CNAME => {
                            if let RData::Cname(target) = &alias.rdata {
                                collected.push(alias.clone());
                                current = target.clone();
                                continue;
                            }
                            return Ok(outcome);
                        }
                        // No chain followed: hand the (possibly cached)
                        // outcome through without copying any record.
                        _ if collected.is_empty() => return Ok(outcome),
                        _ => {
                            collected.extend(records.iter().cloned());
                            return Ok(LookupOutcome::Records(collected.into()));
                        }
                    }
                }
                _ if collected.is_empty() => return Ok(outcome),
                // A chain ending in NXDOMAIN/NODATA yields just the chain.
                _ => return Ok(LookupOutcome::Records(collected.into())),
            }
        }
        Err(LookupError::CnameChainTooLong)
    }

    fn resolve_one(
        &mut self,
        rng: &mut SimRng,
        name: &Name,
        rtype: RecordType,
    ) -> Result<LookupOutcome, LookupError> {
        let now = self.link.clock().now();
        // `Name` hashes and compares by its canonical form, so the name
        // itself is the case-insensitive cache key; cloning it is a copy
        // or refcount bump, never a heap allocation.
        let key = (name.clone(), rtype);
        if let Some(entry) = self.cache.get(&key) {
            if entry.expires > now {
                self.metrics.inc_dns_cache_hits();
                if let Some(t) = &mut self.transcript {
                    t.steps.push(TranscriptStep {
                        name: name.clone(),
                        rtype,
                        cache_hit: true,
                        outcome: entry.outcome.clone(),
                    });
                }
                return Ok(entry.outcome.clone());
            }
            self.cache.remove(&key);
        }

        let authority = self
            .directory
            .authority_for(name)
            .ok_or_else(|| LookupError::NoAuthority(name.clone()))?;

        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let query = Message::query(id, name.clone(), rtype);

        let mut attempts = 0;
        let mut forced_tc = false;
        let mut response = loop {
            attempts += 1;
            self.metrics.inc_dns_queries();
            let obs = self
                .link
                .datagram(rng, estimate_query_size(name), QUERY_TIMEOUT);
            match obs {
                spfail_netsim::LinkObservation::Ok => {
                    break authority.answer(&query, self.client, self.link.clock().now());
                }
                // An injected SERVFAIL is an answer: no retry recovers it
                // within this lookup.
                spfail_netsim::LinkObservation::ServFail => {
                    return Err(LookupError::ServFail(Rcode::ServFail));
                }
                // An injected TC bit: take the real answer, but only via
                // the TCP fallback below.
                spfail_netsim::LinkObservation::Truncated => {
                    forced_tc = true;
                    break authority.answer(&query, self.client, self.link.clock().now());
                }
                _ => {
                    if attempts > RETRIES {
                        self.metrics.inc_dns_timeouts();
                        return Err(LookupError::Timeout);
                    }
                }
            }
        };

        // RFC 1035 §4.2.1: responses that do not fit the UDP payload come
        // back truncated (TC) and the client retries over TCP — an extra
        // connection's worth of round trips, charged to the link. An
        // injected truncation fault takes the same fallback.
        let wire_len = crate::wire::encode(&response).len();
        if forced_tc || wire_len > MAX_UDP_PAYLOAD {
            self.metrics.inc_dns_truncated();
            // TCP handshake + the re-sent query and full response.
            let _ = self.link.turn(rng, estimate_query_size(name));
            let _ = self.link.turn(rng, wire_len);
            if let Some(t) = &mut self.transcript {
                // The TCP fallback's turns depend on the response's wire
                // size; a replay works with names, not responses.
                t.clean = false;
            }
        }

        let outcome = match response.header.rcode {
            Rcode::NoError => {
                if response.answers.is_empty() {
                    LookupOutcome::NoRecords
                } else {
                    // The response is ours; move its answers into the
                    // shared slice instead of cloning record data.
                    LookupOutcome::Records(std::mem::take(&mut response.answers).into())
                }
            }
            Rcode::NxDomain => LookupOutcome::NxDomain,
            other => return Err(LookupError::ServFail(other)),
        };

        if let Some(t) = &mut self.transcript {
            // A retried exchange charged extra datagrams, and an authority
            // that is not replay-loggable cannot reproduce its answer path
            // on replay.
            if attempts != 1 || !authority.replay_loggable() {
                t.clean = false;
            }
            t.steps.push(TranscriptStep {
                name: name.clone(),
                rtype,
                cache_hit: false,
                outcome: outcome.clone(),
            });
        }

        let ttl = match &outcome {
            LookupOutcome::Records(records) => records.iter().map(|r| r.ttl).min().unwrap_or(0),
            // Negative TTL from the SOA minimum, when present.
            _ => response
                .authorities
                .iter()
                .find_map(|r| match &r.rdata {
                    RData::Soa(soa) => Some(soa.minimum.min(r.ttl)),
                    _ => None,
                })
                .unwrap_or(60),
        };
        self.cache.insert(
            key,
            CacheEntry {
                expires: now + SimDuration::from_secs(u64::from(ttl)),
                outcome: outcome.clone(),
            },
        );
        Ok(outcome)
    }
}

/// Rough wire size of a query for accounting purposes.
fn estimate_query_size(name: &Name) -> usize {
    12 + name.wire_len() + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::StaticAuthority;
    use crate::zone::ZoneBuilder;
    use spfail_netsim::{FaultPlan, LatencyModel, SimClock};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn setup() -> (Directory, SimClock) {
        let directory = Directory::new();
        let zone = ZoneBuilder::new(n("example.com"))
            .a(&n("example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
            .a(&n("mx.example.com"), 300, Ipv4Addr::new(192, 0, 2, 25))
            .mx(&n("example.com"), 300, 10, &n("mx.example.com"))
            .record(Record::new(
                n("www.example.com"),
                300,
                RData::Cname(n("example.com")),
            ))
            .build();
        directory.register(Arc::new(StaticAuthority::new(zone)));
        (directory, SimClock::new())
    }

    fn resolver(directory: &Directory, clock: &SimClock) -> Resolver {
        Resolver::new(
            directory.clone(),
            Link::ideal(clock.clone()),
            "198.51.100.1".parse().unwrap(),
        )
    }

    #[test]
    fn resolves_a_records() {
        let (dir, clock) = setup();
        let mut r = resolver(&dir, &clock);
        let mut rng = SimRng::new(1);
        let outcome = r
            .resolve(&mut rng, &n("example.com"), RecordType::A)
            .unwrap();
        assert_eq!(outcome.records().len(), 1);
    }

    #[test]
    fn follows_cname_chain() {
        let (dir, clock) = setup();
        let mut r = resolver(&dir, &clock);
        let mut rng = SimRng::new(2);
        let outcome = r
            .resolve(&mut rng, &n("www.example.com"), RecordType::A)
            .unwrap();
        let records = outcome.records();
        assert_eq!(records.len(), 2, "CNAME + target A");
        assert_eq!(records[0].record_type(), RecordType::CNAME);
        assert_eq!(records[1].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn nxdomain_and_nodata_are_void() {
        let (dir, clock) = setup();
        let mut r = resolver(&dir, &clock);
        let mut rng = SimRng::new(3);
        let nx = r
            .resolve(&mut rng, &n("missing.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(nx, LookupOutcome::NxDomain);
        assert!(nx.is_void());
        let nodata = r
            .resolve(&mut rng, &n("example.com"), RecordType::AAAA)
            .unwrap();
        assert_eq!(nodata, LookupOutcome::NoRecords);
        assert!(nodata.is_void());
    }

    #[test]
    fn no_authority_is_an_error() {
        let (dir, clock) = setup();
        let mut r = resolver(&dir, &clock);
        let mut rng = SimRng::new(4);
        assert!(matches!(
            r.resolve(&mut rng, &n("unknown.test"), RecordType::A),
            Err(LookupError::NoAuthority(_))
        ));
    }

    #[test]
    fn cache_serves_repeat_queries() {
        let (dir, clock) = setup();
        let metrics = Metrics::new();
        let link = Link::new(
            LatencyModel::ZERO,
            FaultPlan::NONE,
            clock.clone(),
            metrics.clone(),
        );
        let mut r = Resolver::new(dir, link, "198.51.100.1".parse().unwrap());
        let mut rng = SimRng::new(5);
        r.resolve(&mut rng, &n("example.com"), RecordType::A)
            .unwrap();
        r.resolve(&mut rng, &n("example.com"), RecordType::A)
            .unwrap();
        assert_eq!(metrics.dns_queries(), 1);
        assert_eq!(metrics.dns_cache_hits(), 1);
    }

    #[test]
    fn cache_is_case_insensitive() {
        // RFC 1035 §2.3.3 / RFC 4343: MAIL.Example.COM and
        // mail.example.com are the same name, so the second spelling must
        // be served from cache, not re-queried.
        let (dir, clock) = setup();
        let metrics = Metrics::new();
        let link = Link::new(
            LatencyModel::ZERO,
            FaultPlan::NONE,
            clock.clone(),
            metrics.clone(),
        );
        let mut r = Resolver::new(dir, link, "198.51.100.1".parse().unwrap());
        let mut rng = SimRng::new(11);
        let first = r
            .resolve(&mut rng, &n("MX.Example.COM"), RecordType::A)
            .unwrap();
        let second = r
            .resolve(&mut rng, &n("mx.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(metrics.dns_queries(), 1, "one authoritative query");
        assert_eq!(metrics.dns_cache_hits(), 1, "case variant must hit");
        assert_eq!(first, second);
    }

    #[test]
    fn cache_expires_with_ttl() {
        let (dir, clock) = setup();
        let metrics = Metrics::new();
        let link = Link::new(
            LatencyModel::ZERO,
            FaultPlan::NONE,
            clock.clone(),
            metrics.clone(),
        );
        let mut r = Resolver::new(dir, link, "198.51.100.1".parse().unwrap());
        let mut rng = SimRng::new(6);
        r.resolve(&mut rng, &n("example.com"), RecordType::A)
            .unwrap();
        clock.advance(SimDuration::from_secs(301));
        r.resolve(&mut rng, &n("example.com"), RecordType::A)
            .unwrap();
        assert_eq!(metrics.dns_queries(), 2);
    }

    #[test]
    fn lost_datagrams_exhaust_retries() {
        let (dir, clock) = setup();
        let link = Link::new(
            LatencyModel::ZERO,
            FaultPlan {
                drop_chance: 1.0,
                ..FaultPlan::NONE
            },
            clock.clone(),
            Metrics::new(),
        );
        let mut r = Resolver::new(dir, link, "198.51.100.1".parse().unwrap());
        let mut rng = SimRng::new(8);
        let before = clock.now();
        let err = r.resolve(&mut rng, &n("example.com"), RecordType::A);
        assert_eq!(err, Err(LookupError::Timeout));
        // 1 try + 2 retries, 3 seconds each.
        assert_eq!((clock.now() - before).as_secs(), 9);
    }

    #[test]
    fn oversized_responses_fall_back_to_tcp() {
        let directory = Directory::new();
        let origin = n("big.example");
        // A TXT record far beyond 512 bytes of wire.
        let zone = ZoneBuilder::new(origin.clone())
            .txt(&origin, 300, &"x".repeat(900))
            .build();
        directory.register(Arc::new(StaticAuthority::new(zone)));
        let clock = SimClock::new();
        let metrics = Metrics::new();
        let link = Link::new(LatencyModel::ZERO, FaultPlan::NONE, clock, metrics.clone());
        let mut r = Resolver::new(directory, link, "198.51.100.1".parse().unwrap());
        let mut rng = SimRng::new(10);
        let outcome = r.resolve(&mut rng, &origin, RecordType::TXT).unwrap();
        assert_eq!(outcome.records().len(), 1);
        assert_eq!(metrics.dns_truncated(), 1);
        // Small answers never trip the fallback.
        let outcome = r.resolve(&mut rng, &origin, RecordType::A);
        assert!(outcome.is_ok());
        assert_eq!(metrics.dns_truncated(), 1);
    }

    #[test]
    fn deepest_origin_wins() {
        let (dir, clock) = setup();
        let subzone = ZoneBuilder::new(n("sub.example.com"))
            .a(&n("sub.example.com"), 30, Ipv4Addr::new(192, 0, 2, 77))
            .build();
        dir.register(Arc::new(StaticAuthority::new(subzone)));
        let mut r = resolver(&dir, &clock);
        let mut rng = SimRng::new(9);
        let outcome = r
            .resolve(&mut rng, &n("sub.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(
            outcome.records()[0].rdata,
            RData::A(Ipv4Addr::new(192, 0, 2, 77))
        );
    }
}
