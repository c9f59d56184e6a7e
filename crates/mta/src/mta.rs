//! The simulated MTA proper.
//!
//! An [`Mta`] is built once per prober and reused: [`Mta::reset`] turns
//! it into the MTA a fresh build would give the next host (new random
//! stream, empty greylist memory and validation log, zeroed counters, a
//! cold resolver), while the DNS link, clock, directory, tracer and
//! policy cache — the same for every host a prober probes — stay. The
//! reset keeps its tables' capacity, so probing a host costs no MTA
//! construction. `spfail_world::WorldRuntime::rebuild_mta_record` drives
//! the reset from a host record.

use std::collections::HashSet;
use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use spfail_dns::resolver::{LookupError, LookupOutcome, Transcript};
use spfail_dns::{Directory, Name, RData, Record, RecordType, Resolver};
use spfail_netsim::{LatencyModel, Link, SimClock, SimRng, SimTime};
use spfail_smtp::address::EmailAddress;
use spfail_smtp::reply::Reply;
use spfail_smtp::session::{ServerPolicy, ServerSession};
use spfail_spf::compile::{
    splice_id, templatize, CompiledEvaluator, PolicyCache, ScriptEntry, ScriptKey, ScriptStep,
};
use spfail_spf::eval::SpfDns;
use spfail_spf::result::SpfResult;

use crate::config::{ConnectPolicy, MtaConfig, SmtpQuirk, SpfStage};

/// A shard-shared handle to the compiled-policy evaluation cache.
///
/// One handle is created per shard worker and threaded into every MTA the
/// shard builds; the cache itself is purely derived state and is never
/// serialized into campaign checkpoints.
pub type PolicyCacheHandle = Arc<Mutex<PolicyCache>>;

/// A fresh, empty [`PolicyCacheHandle`] for one shard worker.
pub fn new_policy_cache() -> PolicyCacheHandle {
    Arc::new(Mutex::new(PolicyCache::new()))
}

/// One SPF validation the MTA performed, for post-hoc inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationRecord {
    /// Which implementation ran (`"rfc7208"`, `"libspf2-1.2.10"`, …).
    pub implementation: &'static str,
    /// The verdict.
    pub result: SpfResult,
    /// When it ran.
    pub at: SimTime,
}

/// Adapter giving the SPF evaluator access to the MTA's resolver.
struct ResolverDns<'a> {
    resolver: &'a mut Resolver,
    rng: &'a mut SimRng,
}

impl SpfDns for ResolverDns<'_> {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        self.resolver.resolve(self.rng, name, rtype)
    }
}

/// A simulated mail transfer agent.
pub struct Mta {
    config: MtaConfig,
    resolver: Resolver,
    rng: SimRng,
    clock: SimClock,
    /// Sender domains already seen once (greylisting state).
    greylist_seen: HashSet<String>,
    /// Recipient local-parts this host rejects (first N of any ladder).
    rcpt_reject_first_n: u8,
    rejected_rcpts_this_envelope: u8,
    probe_connections: u32,
    peer: IpAddr,
    pending_sender: Option<EmailAddress>,
    validations: Vec<ValidationRecord>,
    /// Shard-shared compiled-policy cache; `None` gives every SPF check
    /// a cache of its own, so nothing carries over between checks.
    policy_cache: Option<Arc<Mutex<PolicyCache>>>,
    /// The implementation-mix token of [`ScriptKey::impls`], joined once
    /// at construction so per-validation cache lookups borrow it.
    impls_label: String,
}

/// What `connect()` decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectDecision {
    /// TCP refused; nothing more happens.
    Refused,
    /// TCP accepted but the service rejects with this banner and closes.
    RejectedBanner(Reply),
    /// Proceed to the SMTP session.
    Proceed,
}

impl Mta {
    /// Build an MTA at `ip` resolving through `directory`.
    pub fn new(
        config: MtaConfig,
        ip: IpAddr,
        directory: Directory,
        clock: SimClock,
        rng: SimRng,
    ) -> Mta {
        let link = Link::ideal(clock.clone());
        Mta::with_dns_link(config, ip, directory, link, clock, rng)
    }

    /// Build an MTA whose resolver queries over an explicit [`Link`] —
    /// the fault-injection hook: the link's fault plan decides whether
    /// the MTA's own DNS lookups time out, SERVFAIL, or truncate, and
    /// its metrics handle receives the resulting counters.
    pub fn with_dns_link(
        config: MtaConfig,
        ip: IpAddr,
        directory: Directory,
        dns_link: Link,
        clock: SimClock,
        rng: SimRng,
    ) -> Mta {
        let mut mta = Mta {
            resolver: Resolver::new(directory, dns_link, ip),
            config,
            rng,
            clock,
            greylist_seen: HashSet::new(),
            rcpt_reject_first_n: 0,
            rejected_rcpts_this_envelope: 0,
            probe_connections: 0,
            peer: ip,
            pending_sender: None,
            validations: Vec::new(),
            policy_cache: None,
            impls_label: String::new(),
        };
        mta.push_impls_label();
        mta
    }

    /// Turn this MTA into the one [`Mta::with_dns_link`] would build for
    /// another host at `ip` drawing from `rng`, with the configuration
    /// the caller has already written through [`Mta::config_mut`].
    ///
    /// Every per-instance field returns to its freshly built value: the
    /// random stream, the greylisting memory, the recipient ladder
    /// depth, the connection counter, the peer, the pending sender, the
    /// validation log, the implementation-mix token, and the resolver
    /// (rebound to `ip` with a cold cache). What stays is what a prober
    /// builds identically for every host: the DNS link, directory and
    /// tracer, the clock, and the policy cache. The sets and buffers keep
    /// their capacity, so rebuilding a warm MTA allocates nothing.
    pub fn reset(&mut self, ip: IpAddr, rng: SimRng) {
        self.rng = rng;
        self.greylist_seen.clear();
        self.rcpt_reject_first_n = 0;
        self.rejected_rcpts_this_envelope = 0;
        self.probe_connections = 0;
        self.peer = ip;
        self.pending_sender = None;
        self.validations.clear();
        self.impls_label.clear();
        self.push_impls_label();
        self.resolver.rehost(ip);
    }

    /// Write the [`ScriptKey::impls`] token of the configured
    /// implementation mix into the (empty) `impls_label`.
    fn push_impls_label(&mut self) {
        for (i, behavior) in self.config.spf_impls.iter().enumerate() {
            if i > 0 {
                self.impls_label.push(',');
            }
            self.impls_label.push_str(behavior.label());
        }
    }

    /// Attach the shard's shared [`PolicyCache`]. SPF validation then
    /// reuses compiled policies across checks and, where provably
    /// transparent, replays whole memoized evaluations instead of
    /// re-doing their work.
    pub fn set_policy_cache(&mut self, cache: Arc<Mutex<PolicyCache>>) {
        self.policy_cache = Some(cache);
    }

    /// Attach a tracing handle to the MTA's resolver so the DNS lookups
    /// its SPF validation performs appear as `dns_resolve` spans in the
    /// probing client's trace.
    pub fn set_dns_tracer(&mut self, tracer: spfail_trace::Tracer) {
        self.resolver.set_tracer(tracer);
    }

    /// The configuration (mutable, so campaigns can patch the host).
    pub fn config_mut(&mut self) -> &mut MtaConfig {
        &mut self.config
    }

    /// The configuration.
    pub fn config(&self) -> &MtaConfig {
        &self.config
    }

    /// Reject the first `n` recipient usernames of every envelope, forcing
    /// clients down their username ladder.
    #[cfg(test)]
    pub(crate) fn set_rcpt_reject_first_n(&mut self, n: u8) {
        self.rcpt_reject_first_n = n;
    }

    /// Apply the libSPF2 patch to this host.
    pub fn patch(&mut self) {
        self.config.apply_patch();
    }

    /// All SPF validations performed so far.
    pub fn validations(&self) -> &[ValidationRecord] {
        &self.validations
    }

    /// Number of connections this host has seen.
    pub fn connections_seen(&self) -> u32 {
        self.probe_connections
    }

    /// The MTA's random stream, for inspection: clone it to preview the
    /// draws its next connections and lookups will make.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// The resolver the MTA's SPF validation queries through.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Decide a new inbound connection from `peer`.
    pub fn connect(&mut self, peer: IpAddr) -> ConnectDecision {
        self.probe_connections += 1;
        self.peer = peer;
        self.pending_sender = None;
        self.rejected_rcpts_this_envelope = 0;
        if let Some(limit) = self.config.blacklist_after {
            if self.probe_connections > limit {
                // §7.6: blacklisting hosts answered TCP but aborted the
                // SMTP conversation with a 5XX/421.
                let reply = if self.rng.chance(0.5) {
                    Reply::service_unavailable()
                } else {
                    Reply::new(554, "Transaction failed: sender blocked")
                };
                return ConnectDecision::RejectedBanner(reply);
            }
        }
        match self.config.connect {
            ConnectPolicy::Refuse => ConnectDecision::Refused,
            ConnectPolicy::RejectBanner(code) => {
                ConnectDecision::RejectedBanner(Reply::new(code, "Service rejecting connections"))
            }
            ConnectPolicy::Accept => ConnectDecision::Proceed,
        }
    }

    /// Replay `n` past connections from `peer` without holding them:
    /// the state `n` calls to [`Mta::connect`] would leave. The counter
    /// advances by `n`, and each replayed connection past the blacklist
    /// threshold makes the one banner draw its `connect` would make;
    /// no other work is done per connection.
    pub fn replay_connections(&mut self, peer: IpAddr, n: u32) {
        if n == 0 {
            return;
        }
        let before = self.probe_connections;
        self.probe_connections += n;
        self.peer = peer;
        self.pending_sender = None;
        self.rejected_rcpts_this_envelope = 0;
        if let Some(limit) = self.config.blacklist_after {
            // Connections `before + 1 ..= before + n` are replayed; the
            // ones numbered above `limit` drew a rejection banner.
            for _ in 0..self.probe_connections.saturating_sub(limit.max(before)) {
                let _ = self.rng.chance(0.5);
            }
        }
    }

    /// Open the SMTP session after a `Proceed` decision.
    pub fn open_session(&mut self) -> (ServerSession<&mut Mta>, Reply) {
        let hostname = self.config.hostname.clone();
        ServerSession::open(hostname, self)
    }

    /// Run SPF validation for `sender` with every configured
    /// implementation; returns the reply that should reject the mail, if
    /// any. Without a shared cache the check gets a cache of its own, the
    /// cache-off reference the shared one must be transparent against;
    /// that cache is dropped with the check, so no replay script is
    /// recorded into it.
    fn run_spf(&mut self, sender: &EmailAddress) -> Option<Reply> {
        let (cache, shape) = match self.policy_cache.clone() {
            Some(cache) => (cache, self.script_shape(sender)),
            None => (new_policy_cache(), None),
        };
        self.run_spf_cached(sender, &cache, shape)
    }

    /// Record one implementation's verdict and fold it into the pending
    /// reject decision.
    fn record_validation(
        &mut self,
        sender: &EmailAddress,
        reject: Option<Reply>,
        implementation: &'static str,
        result: SpfResult,
    ) -> Option<Reply> {
        self.validations.push(ValidationRecord {
            implementation,
            result,
            at: self.clock.now(),
        });
        if reject.is_some() {
            return reject;
        }
        match result {
            SpfResult::Fail if self.config.reject_on_spf_fail => {
                Some(Reply::spf_rejected(sender.domain()))
            }
            SpfResult::TempError => Some(Reply::new(451, "Temporary SPF validation failure")),
            _ => None,
        }
    }

    /// Cache-backed validation: replay a memoized evaluation when one
    /// exists for this probe `shape` (see `script_shape`), otherwise
    /// evaluate live through the compiled evaluator and — when the
    /// exchange was provably clean — record a validated replay script for
    /// the next same-shape probe.
    fn run_spf_cached(
        &mut self,
        sender: &EmailAddress,
        cache: &Arc<Mutex<PolicyCache>>,
        shape: Option<(&str, &str)>,
    ) -> Option<Reply> {
        let record_candidate = match shape {
            Some((id, domain_rest)) => {
                let entry = cache.lock().script_for(
                    id.len(),
                    domain_rest,
                    sender.local(),
                    self.peer,
                    &self.impls_label,
                );
                if let Some(entry) = entry {
                    return self.replay_script(sender, id, &entry);
                }
                true
            }
            None => {
                // A gate closed (warm resolver cache, latency, faults, a
                // non-probe sender shape, or no shared cache): the
                // evaluation is live and unmemoizable, but still runs
                // compiled.
                cache.lock().note_miss();
                false
            }
        };

        if record_candidate {
            self.resolver.begin_transcript();
        }
        let impls = self.config.spf_impls.clone();
        let mut results: Vec<(&'static str, SpfResult)> = Vec::with_capacity(impls.len());
        let mut reject: Option<Reply> = None;
        for behavior in impls {
            let mut expander = behavior.expander();
            let result = {
                let mut guard = cache.lock();
                let mut dns = ResolverDns {
                    resolver: &mut self.resolver,
                    rng: &mut self.rng,
                };
                let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut guard);
                eval.check_host(self.peer, sender.local(), sender.domain())
            };
            results.push((expander.describe(), result));
            reject = self.record_validation(sender, reject, expander.describe(), result);
        }
        if let Some(transcript) = self.resolver.take_transcript() {
            if transcript.clean {
                let (id, domain_rest) = shape.expect("transcript implies shape");
                let key = ScriptKey {
                    id_len: id.len(),
                    domain_rest: domain_rest.to_string(),
                    sender_local: sender.local().to_string(),
                    client_ip: self.peer,
                    impls: self.impls_label.clone(),
                };
                if let Some(entry) = self.build_script(sender, &key, &transcript, &results) {
                    cache.lock().insert_script(key, entry);
                }
            }
        }
        reject
    }

    /// The replay-script shape of `sender` — its probe id and the rest of
    /// the domain (leading dot included) — or `None` when any transparency
    /// gate is closed. The gates guarantee that replaying a recorded
    /// exchange is observably identical to performing it: a cold resolver
    /// cache (which queries happen must not depend on earlier leftovers),
    /// a zero-latency faultless link (no clock advance, no randomness, no
    /// divergent outcomes during evaluation), and a probe-shaped sender
    /// domain whose first label is the unique id.
    fn script_shape<'s>(&self, sender: &'s EmailAddress) -> Option<(&'s str, &'s str)> {
        if !self.resolver.cache_is_empty() {
            return None;
        }
        let link = self.resolver.link();
        if *link.latency() != LatencyModel::ZERO || link.faults().is_active() {
            return None;
        }
        let domain = sender.domain();
        let (id, rest) = domain.split_once('.')?;
        if id.is_empty() || rest.is_empty() {
            return None;
        }
        if !id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        {
            return None;
        }
        let domain_rest = &domain[id.len()..];
        // The id must not collide with any other text the evaluation can
        // observe, or the recorded templates would hole non-id content.
        if domain_rest.contains(id) || sender.local().contains(id) {
            return None;
        }
        Some((id, domain_rest))
    }

    /// Replay a memoized evaluation: re-emit every DNS exchange's
    /// observable effects (query log, link charge, metrics, trace span),
    /// then push the recorded verdicts and derive the reject reply from
    /// the *current* configuration. Splicing `id` over the recorded wire
    /// names cannot fail — ids are keyed by length and validated bytes.
    fn replay_script(
        &mut self,
        sender: &EmailAddress,
        id: &str,
        entry: &ScriptEntry,
    ) -> Option<Reply> {
        for step in &entry.steps {
            let name = step.qname_for(id);
            self.resolver.replay_resolve(
                &mut self.rng,
                &name,
                step.rtype,
                step.cache_hit,
                step.outcome_label,
            );
        }
        let mut reject: Option<Reply> = None;
        for (implementation, result) in &entry.results {
            reject = self.record_validation(sender, reject, implementation, *result);
        }
        reject
    }

    /// Turn a clean transcript into a validated [`ScriptEntry`], or `None`
    /// if the evaluation does not generalise over the probe id. Every
    /// name and record string is templatized over the id (refusing
    /// non-label-aligned occurrences), then the whole multi-implementation
    /// evaluation is re-run — side-effect-free, over a scratch cache so the
    /// shared one neither interns the shadow's texts nor counts its
    /// lookups — against the templates spliced for a *different*
    /// same-length id. Only when that shadow run asks exactly the spliced
    /// questions and reaches exactly the same verdicts is the script
    /// accepted; any id-specific behaviour fails the shadow run and the
    /// probe shape simply stays live.
    fn build_script(
        &self,
        sender: &EmailAddress,
        key: &ScriptKey,
        transcript: &Transcript,
        results: &[(&'static str, SpfResult)],
    ) -> Option<ScriptEntry> {
        let id = sender.domain().split_once('.').map(|(id, _)| id)?;
        let shadow = rotate_id(id);
        if shadow == id || key.domain_rest.contains(&shadow) || key.sender_local.contains(&shadow) {
            return None;
        }
        let mut steps = Vec::with_capacity(transcript.steps.len());
        let mut shadow_steps = Vec::with_capacity(transcript.steps.len());
        for step in &transcript.steps {
            let ascii = step.name.to_ascii();
            if !aligned_occurrences_only(&ascii, id) {
                return None;
            }
            let qname = templatize(&ascii, id)?;
            let outcome = templatize_outcome(&step.outcome, id)?;
            shadow_steps.push((qname, step.rtype, outcome));
            steps.push(ScriptStep {
                qname: step.name.clone(),
                id_offsets: id_wire_offsets(&ascii, id),
                rtype: step.rtype,
                cache_hit: step.cache_hit,
                outcome_label: step.outcome_label(),
            });
        }

        let shadow_domain = format!("{shadow}{}", key.domain_rest);
        let cursor = std::cell::Cell::new(0usize);
        let diverged = std::cell::Cell::new(false);
        let mut dns = |name: &Name, rtype: RecordType| -> Result<LookupOutcome, LookupError> {
            let i = cursor.get();
            cursor.set(i + 1);
            let Some((qname, want_rtype, outcome)) = shadow_steps.get(i) else {
                diverged.set(true);
                return Err(LookupError::Timeout);
            };
            if rtype != *want_rtype || name.to_ascii() != splice_id(qname, &shadow) {
                diverged.set(true);
                return Err(LookupError::Timeout);
            }
            match splice_outcome(outcome, &shadow) {
                Some(outcome) => Ok(outcome),
                None => {
                    diverged.set(true);
                    Err(LookupError::Timeout)
                }
            }
        };
        let mut scratch = PolicyCache::new();
        for (i, behavior) in self.config.spf_impls.iter().enumerate() {
            let mut expander = behavior.expander();
            let verdict = {
                let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut scratch);
                eval.check_host(self.peer, &key.sender_local, &shadow_domain)
            };
            if diverged.get() || results.get(i).map(|(_, r)| *r) != Some(verdict) {
                return None;
            }
        }
        if diverged.get() || cursor.get() != shadow_steps.len() {
            return None;
        }
        Some(ScriptEntry {
            steps,
            results: results.to_vec(),
        })
    }
}

/// A deterministic same-length, same-alphabet id distinct from `id`, used
/// to shadow-validate replay scripts.
fn rotate_id(id: &str) -> String {
    id.chars()
        .map(|c| match c {
            'z' => 'a',
            '9' => '0',
            'a'..='y' | '0'..='8' => (c as u8 + 1) as char,
            other => other,
        })
        .collect()
}

/// Wire-byte offsets (as [`Name::splice_content`] counts them) of each
/// `id` occurrence in a name's dotted spelling. Every ascii index shifts
/// by exactly one in wire form: each inter-label dot becomes the next
/// label's length octet and the first label gains its own. Occurrences
/// never overlap — [`aligned_occurrences_only`] has already rejected any
/// id adjacent to alphanumeric text.
fn id_wire_offsets(ascii: &str, id: &str) -> Vec<u16> {
    let mut offsets = Vec::new();
    let mut from = 0;
    while let Some(pos) = ascii[from..].find(id) {
        let at = from + pos;
        offsets.push((at + 1) as u16);
        from = at + id.len();
    }
    offsets
}

/// Whether every occurrence of `id` in `text` sits on label boundaries
/// (adjacent characters are absent or non-alphanumeric). A mid-label
/// occurrence means `id` collides with unrelated content and templating
/// it would corrupt the replay.
fn aligned_occurrences_only(text: &str, id: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(id) {
        let at = from + pos;
        let end = at + id.len();
        let before_ok = at == 0 || !bytes[at - 1].is_ascii_alphanumeric();
        let after_ok = end == bytes.len() || !bytes[end].is_ascii_alphanumeric();
        if !before_ok || !after_ok {
            return false;
        }
        from = at + 1;
    }
    true
}

/// A recorded lookup outcome with the probe id excised — used only while
/// shadow-validating a script, never stored.
enum OutcomeTemplate {
    Records(Vec<(String, u32, RDataTemplate)>),
    NxDomain,
    NoRecords,
}

enum RDataTemplate {
    /// Record data with no id occurrence anywhere; reused verbatim.
    Plain(RData),
    Txt(Vec<String>),
    Mx {
        preference: u16,
        exchange: String,
    },
    Cname(String),
    Ns(String),
    Ptr(String),
}

fn templatize_outcome(outcome: &LookupOutcome, id: &str) -> Option<OutcomeTemplate> {
    Some(match outcome {
        LookupOutcome::NxDomain => OutcomeTemplate::NxDomain,
        LookupOutcome::NoRecords => OutcomeTemplate::NoRecords,
        LookupOutcome::Records(records) => OutcomeTemplate::Records(
            records
                .iter()
                .map(|r| {
                    let name = r.name.to_ascii();
                    if !aligned_occurrences_only(&name, id) {
                        return None;
                    }
                    Some((
                        templatize(&name, id)?,
                        r.ttl,
                        templatize_rdata(&r.rdata, id)?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
        ),
    })
}

fn templatize_rdata(rdata: &RData, id: &str) -> Option<RDataTemplate> {
    let t = |s: &str| -> Option<String> {
        if !aligned_occurrences_only(s, id) {
            return None;
        }
        templatize(s, id)
    };
    Some(match rdata {
        RData::Txt(parts) => {
            RDataTemplate::Txt(parts.iter().map(|p| t(p)).collect::<Option<Vec<_>>>()?)
        }
        RData::Mx {
            preference,
            exchange,
        } => RDataTemplate::Mx {
            preference: *preference,
            exchange: t(&exchange.to_ascii())?,
        },
        RData::Cname(name) => RDataTemplate::Cname(t(&name.to_ascii())?),
        RData::Ns(name) => RDataTemplate::Ns(t(&name.to_ascii())?),
        RData::Ptr(name) => RDataTemplate::Ptr(t(&name.to_ascii())?),
        RData::Soa(soa) => {
            if soa.mname.to_ascii().contains(id) || soa.rname.to_ascii().contains(id) {
                return None;
            }
            RDataTemplate::Plain(rdata.clone())
        }
        RData::Opaque(bytes) => {
            if bytes.windows(id.len()).any(|w| w == id.as_bytes()) {
                return None;
            }
            RDataTemplate::Plain(rdata.clone())
        }
        other => RDataTemplate::Plain(other.clone()),
    })
}

fn splice_outcome(template: &OutcomeTemplate, id: &str) -> Option<LookupOutcome> {
    Some(match template {
        OutcomeTemplate::NxDomain => LookupOutcome::NxDomain,
        OutcomeTemplate::NoRecords => LookupOutcome::NoRecords,
        OutcomeTemplate::Records(records) => LookupOutcome::Records(
            records
                .iter()
                .map(|(name, ttl, rdata)| {
                    Some(Record::new(
                        Name::parse(&splice_id(name, id)).ok()?,
                        *ttl,
                        splice_rdata(rdata, id)?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?
                .into(),
        ),
    })
}

fn splice_rdata(template: &RDataTemplate, id: &str) -> Option<RData> {
    Some(match template {
        RDataTemplate::Plain(rdata) => rdata.clone(),
        RDataTemplate::Txt(parts) => RData::Txt(parts.iter().map(|p| splice_id(p, id)).collect()),
        RDataTemplate::Mx {
            preference,
            exchange,
        } => RData::Mx {
            preference: *preference,
            exchange: Name::parse(&splice_id(exchange, id)).ok()?,
        },
        RDataTemplate::Cname(name) => RData::Cname(Name::parse(&splice_id(name, id)).ok()?),
        RDataTemplate::Ns(name) => RData::Ns(Name::parse(&splice_id(name, id)).ok()?),
        RDataTemplate::Ptr(name) => RData::Ptr(Name::parse(&splice_id(name, id)).ok()?),
    })
}

impl ServerPolicy for &mut Mta {
    fn on_mail_from(&mut self, sender: Option<&EmailAddress>) -> Option<Reply> {
        if let SmtpQuirk::RejectMailFrom(code) = self.config.quirk {
            return Some(Reply::new(code, "Sender rejected by policy"));
        }
        self.pending_sender = sender.cloned();
        self.rejected_rcpts_this_envelope = 0;
        if self.config.spf_stage == SpfStage::OnMailFrom {
            if let Some(sender) = sender.cloned() {
                if let Some(reject) = self.run_spf(&sender) {
                    return Some(reject);
                }
            }
        }
        None
    }

    fn on_rcpt_to(&mut self, recipient: &EmailAddress) -> Option<Reply> {
        if let SmtpQuirk::RejectAllRcpt(code) = self.config.quirk {
            return Some(Reply::new(code, "No such recipient"));
        }
        let is_postmaster = recipient.local().eq_ignore_ascii_case("postmaster");
        // RFC 5321 §4.5.1 says postmaster MUST be accepted; compliant
        // hosts do, and the unknown-user rejections only apply to
        // ordinary mailboxes. Hosts configured to violate the MUST are
        // the paper's main notification-bounce source.
        if is_postmaster && self.config.reject_postmaster {
            return Some(Reply::mailbox_unavailable());
        }
        if !is_postmaster && self.rejected_rcpts_this_envelope < self.rcpt_reject_first_n {
            self.rejected_rcpts_this_envelope += 1;
            return Some(Reply::mailbox_unavailable());
        }
        if self.config.greylist {
            let key = self
                .pending_sender
                .as_ref()
                .map(|s| format!("{}/{}", s.domain_lower(), recipient.local()))
                .unwrap_or_else(|| format!("<>/{}", recipient.local()));
            if self.greylist_seen.insert(key) {
                return Some(Reply::greylisted());
            }
        }
        None
    }

    fn on_data_begin(&mut self) -> Option<Reply> {
        if let SmtpQuirk::RejectData(code) = self.config.quirk {
            return Some(Reply::new(code, "DATA not accepted"));
        }
        None
    }

    fn on_message(&mut self, _body: &str) -> Option<Reply> {
        if let SmtpQuirk::RejectMessage(code) = self.config.quirk {
            return Some(Reply::new(code, "Message rejected by content policy"));
        }
        if self.config.spf_stage == SpfStage::OnData {
            if let Some(sender) = self.pending_sender.clone() {
                if let Some(reject) = self.run_spf(&sender) {
                    return Some(reject);
                }
            }
        }
        // Blank probe messages are accepted here but would be discarded by
        // the spam filter; the probe design counts on rejection *or*
        // discard, either way no inbox delivery.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_dns::{QueryLog, SpfTestAuthority};
    use spfail_smtp::command::Command;
    use std::sync::Arc;

    fn setup() -> (Directory, QueryLog, SimClock) {
        let directory = Directory::new();
        let log = QueryLog::new();
        directory.register(Arc::new(SpfTestAuthority::new(
            SpfTestAuthority::default_origin(),
            log.clone(),
        )));
        (directory, log, SimClock::new())
    }

    fn mta(config: MtaConfig) -> (Mta, QueryLog) {
        let (directory, log, clock) = setup();
        let m = Mta::new(
            config,
            "198.51.100.9".parse().unwrap(),
            directory,
            clock,
            SimRng::new(7),
        );
        (m, log)
    }

    fn probe_addr() -> EmailAddress {
        EmailAddress::parse("mmj7yzdm0tbk@k7q2.s01.spf-test.dns-lab.org").unwrap()
    }

    /// `replay_connections(peer, n)` leaves the state of `n` real
    /// `connect(peer)` calls: the same counter, the same next connect
    /// decision, and the same position in the MTA's random stream —
    /// also on an MTA that already saw connections, past the threshold
    /// or not.
    #[test]
    fn replay_connections_equals_repeated_connects() {
        let peer: IpAddr = "203.0.113.9".parse().unwrap();
        for blacklist_after in [None, Some(0), Some(3)] {
            for (prior, n) in [0u32, 5]
                .into_iter()
                .flat_map(|p| [0u32, 1, 3, 4, 40].map(|n| (p, n)))
            {
                let config = MtaConfig {
                    blacklist_after,
                    ..MtaConfig::vulnerable("mx.test")
                };
                let (mut replayed, _) = mta(config.clone());
                let (mut connected, _) = mta(config);
                for _ in 0..prior {
                    let _ = replayed.connect(peer);
                    let _ = connected.connect(peer);
                }
                replayed.replay_connections(peer, n);
                for _ in 0..n {
                    let _ = connected.connect(peer);
                }
                let case = format!("blacklist_after {blacklist_after:?}, prior {prior}, n {n}");
                assert_eq!(
                    replayed.connections_seen(),
                    connected.connections_seen(),
                    "{case}"
                );
                assert_eq!(replayed.connect(peer), connected.connect(peer), "{case}");
                for _ in 0..8 {
                    assert_eq!(replayed.rng.unit(), connected.rng.unit(), "{case}");
                }
            }
        }
    }

    fn drive_through_mail_from(m: &mut Mta) -> Reply {
        assert_eq!(
            m.connect("203.0.113.9".parse().unwrap()),
            ConnectDecision::Proceed
        );
        let (mut session, banner) = m.open_session();
        assert_eq!(banner.code, 220);
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(probe_addr()))
    }

    #[test]
    fn vulnerable_mta_emits_the_fingerprint_query() {
        let (mut m, log) = mta(MtaConfig::vulnerable("mx.victim.test"));
        let reply = drive_through_mail_from(&mut m);
        // The probe record always ends in -all, so validation fails and
        // the mail is rejected — by design (§6.2).
        assert_eq!(reply.code, 550);
        let queried: Vec<String> = log.snapshot().iter().map(|e| e.qname.to_ascii()).collect();
        assert!(
            queried.contains(
                &"org.org.dns-lab.spf-test.s01.k7q2.k7q2.s01.spf-test.dns-lab.org".to_string()
            ),
            "vulnerable duplication fingerprint, got {queried:?}"
        );
        assert_eq!(m.validations().len(), 1);
        assert_eq!(m.validations()[0].implementation, "libspf2-1.2.10");
        assert_eq!(m.validations()[0].result, SpfResult::Fail);
    }

    #[test]
    fn compliant_mta_emits_the_rfc_query() {
        let (mut m, log) = mta(MtaConfig::compliant("mx.good.test"));
        drive_through_mail_from(&mut m);
        let queried: Vec<String> = log.snapshot().iter().map(|e| e.qname.to_ascii()).collect();
        assert!(
            queried.contains(&"k7q2.k7q2.s01.spf-test.dns-lab.org".to_string()),
            "compliant %{{d1r}} expansion, got {queried:?}"
        );
    }

    #[test]
    fn patching_switches_the_fingerprint() {
        let (mut m, log) = mta(MtaConfig::vulnerable("mx.victim.test"));
        drive_through_mail_from(&mut m);
        assert!(log
            .snapshot()
            .iter()
            .any(|e| e.qname.first_label() == Some("org")));
        log.clear();
        m.patch();
        assert!(!m.config().is_vulnerable());
        drive_through_mail_from(&mut m);
        assert!(
            !log.snapshot()
                .iter()
                .any(|e| e.qname.first_label() == Some("org")),
            "after the patch the duplicated expansion must be gone"
        );
    }

    #[test]
    fn ondata_stage_validates_only_at_message() {
        let mut config = MtaConfig::vulnerable("mx.late.test");
        config.spf_stage = SpfStage::OnData;
        let (mut m, log) = mta(config);
        let reply = drive_through_mail_from(&mut m);
        assert!(reply.is_positive());
        assert!(
            log.is_empty(),
            "NoMsg-style probes see nothing from OnData hosts"
        );

        // Run a full BlankMsg-style transaction.
        m.connect("203.0.113.9".parse().unwrap());
        let (mut session, _) = m.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(probe_addr()));
        session.handle(&Command::RcptTo(
            EmailAddress::parse("postmaster@mx.late.test").unwrap(),
        ));
        session.handle(&Command::Data);
        let final_reply = session.handle_message("");
        assert_eq!(final_reply.code, 550, "SPF fail at end-of-data");
        assert!(!log.is_empty());
    }

    #[test]
    fn never_stage_never_queries() {
        let mut config = MtaConfig::compliant("mx.nospf.test");
        config.spf_stage = SpfStage::Never;
        let (mut m, log) = mta(config);
        m.connect("203.0.113.9".parse().unwrap());
        let (mut session, _) = m.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(probe_addr()));
        session.handle(&Command::RcptTo(
            EmailAddress::parse("postmaster@mx.nospf.test").unwrap(),
        ));
        session.handle(&Command::Data);
        session.handle_message("");
        assert!(log.is_empty());
    }

    #[test]
    fn multiple_impls_emit_multiple_patterns() {
        let mut config = MtaConfig::vulnerable("mx.multi.test");
        config.spf_impls = vec![
            spfail_libspf2::MacroBehavior::VulnerableLibSpf2,
            spfail_libspf2::MacroBehavior::Compliant,
        ];
        config.reject_on_spf_fail = false;
        let (mut m, log) = mta(config);
        drive_through_mail_from(&mut m);
        let first_labels: Vec<Option<&str>> = log
            .snapshot()
            .iter()
            .filter(|e| e.qtype == RecordType::A)
            .map(|e| e.qname.first_label().map(|s| s.to_string()))
            .collect::<Vec<_>>()
            .iter()
            .map(|o| {
                o.as_deref()
                    .map(|s| if s == "org" { "org" } else { "other" })
            })
            .collect();
        assert!(
            first_labels.contains(&Some("org")),
            "vulnerable pattern present"
        );
        assert!(
            first_labels.contains(&Some("other")),
            "compliant pattern present"
        );
        assert_eq!(m.validations().len(), 2);
    }

    #[test]
    fn policy_cache_replay_is_query_log_identical_to_live() {
        // Two hosts in one shard share a PolicyCache; the second probe of
        // the same shape must replay, and the world's query log must be
        // byte-identical to a cache-off world probing the same ids.
        let addr1 = "mmj7yzdm0tbk@k7q2.s01.spf-test.dns-lab.org";
        let addr2 = "mmj7yzdm0tbk@x9f3.s01.spf-test.dns-lab.org";
        let run = |cache: Option<Arc<parking_lot::Mutex<PolicyCache>>>| {
            let (directory, log, clock) = setup();
            let mut logs = Vec::new();
            let mut validations = Vec::new();
            for (i, addr) in [addr1, addr2].iter().enumerate() {
                let mut config = MtaConfig::vulnerable("mx.victim.test");
                config.spf_impls = vec![
                    spfail_libspf2::MacroBehavior::VulnerableLibSpf2,
                    spfail_libspf2::MacroBehavior::Compliant,
                ];
                let mut m = Mta::new(
                    config,
                    format!("198.51.100.{}", 10 + i).parse().unwrap(),
                    directory.clone(),
                    clock.clone(),
                    SimRng::new(7),
                );
                if let Some(cache) = &cache {
                    m.set_policy_cache(Arc::clone(cache));
                }
                m.connect("203.0.113.9".parse().unwrap());
                let (mut session, _) = m.open_session();
                session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
                session.handle(&Command::MailFrom(EmailAddress::parse(addr).unwrap()));
                logs.push(
                    log.snapshot()
                        .iter()
                        .map(|e| {
                            format!(
                                "{} {} {:?} {}",
                                e.at.as_micros(),
                                e.source,
                                e.qtype,
                                e.qname
                            )
                        })
                        .collect::<Vec<_>>(),
                );
                log.clear();
                validations.push(m.validations().to_vec());
            }
            (logs, validations)
        };
        let cache = Arc::new(parking_lot::Mutex::new(PolicyCache::new()));
        let cached = run(Some(Arc::clone(&cache)));
        let baseline = run(None);
        assert_eq!(
            cached, baseline,
            "cache on/off worlds must be observably identical"
        );
        let stats = cache.lock().stats();
        assert_eq!(stats.hits, 1, "second probe replays");
        assert!(stats.interned >= 1, "probe policies interned");
    }

    #[test]
    fn policy_cache_colliding_id_stays_live_but_correct() {
        // An id that is a substring of the rest of the zone ("b" occurs in
        // "dns-lab") must refuse memoization and still evaluate correctly.
        let cache = Arc::new(parking_lot::Mutex::new(PolicyCache::new()));
        let (directory, log, clock) = setup();
        for _ in 0..2 {
            let mut m = Mta::new(
                MtaConfig::vulnerable("mx.victim.test"),
                "198.51.100.9".parse().unwrap(),
                directory.clone(),
                clock.clone(),
                SimRng::new(7),
            );
            m.set_policy_cache(Arc::clone(&cache));
            m.connect("203.0.113.9".parse().unwrap());
            let (mut session, _) = m.open_session();
            session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
            let reply = session.handle(&Command::MailFrom(
                EmailAddress::parse("user@b.s01.spf-test.dns-lab.org").unwrap(),
            ));
            assert_eq!(reply.code, 550, "still validated and rejected");
        }
        let stats = cache.lock().stats();
        assert_eq!(stats.hits, 0, "colliding shape never replays");
        assert!(!log.is_empty());
    }

    #[test]
    fn greylisting_rejects_first_attempt_only() {
        let mut config = MtaConfig::compliant("mx.grey.test");
        config.greylist = true;
        config.spf_stage = SpfStage::Never;
        let (mut m, _log) = mta(config);
        let rcpt = EmailAddress::parse("postmaster@mx.grey.test").unwrap();

        m.connect("203.0.113.9".parse().unwrap());
        let (mut session, _) = m.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(probe_addr()));
        assert_eq!(session.handle(&Command::RcptTo(rcpt.clone())).code, 450);

        m.connect("203.0.113.9".parse().unwrap());
        let (mut session, _) = m.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(probe_addr()));
        assert!(session.handle(&Command::RcptTo(rcpt)).is_positive());
    }

    #[test]
    fn blacklisting_kicks_in_after_threshold() {
        let mut config = MtaConfig::vulnerable("mx.bl.test");
        config.blacklist_after = Some(2);
        let (mut m, _log) = mta(config);
        let peer: IpAddr = "203.0.113.9".parse().unwrap();
        assert_eq!(m.connect(peer), ConnectDecision::Proceed);
        assert_eq!(m.connect(peer), ConnectDecision::Proceed);
        match m.connect(peer) {
            ConnectDecision::RejectedBanner(reply) => {
                assert!(reply.code == 421 || reply.code == 554);
            }
            other => panic!("expected blacklist banner, got {other:?}"),
        }
    }

    #[test]
    fn connect_policies() {
        let mut config = MtaConfig::compliant("mx.refuse.test");
        config.connect = ConnectPolicy::Refuse;
        let (mut m, _) = mta(config);
        assert_eq!(
            m.connect("203.0.113.9".parse().unwrap()),
            ConnectDecision::Refused
        );

        let mut config = MtaConfig::compliant("mx.banner.test");
        config.connect = ConnectPolicy::RejectBanner(554);
        let (mut m, _) = mta(config);
        match m.connect("203.0.113.9".parse().unwrap()) {
            ConnectDecision::RejectedBanner(reply) => assert_eq!(reply.code, 554),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rcpt_ladder_rejection() {
        let mut config = MtaConfig::compliant("mx.ladder.test");
        config.spf_stage = SpfStage::Never;
        let (mut m, _) = mta(config);
        m.set_rcpt_reject_first_n(2);
        m.connect("203.0.113.9".parse().unwrap());
        let (mut session, _) = m.open_session();
        session.handle(&Command::Ehlo("p.test".into()));
        session.handle(&Command::MailFrom(probe_addr()));
        let r1 = session.handle(&Command::RcptTo(
            EmailAddress::parse("mmj7yzdm0tbk@mx.ladder.test").unwrap(),
        ));
        assert_eq!(r1.code, 550);
        let r2 = session.handle(&Command::RcptTo(
            EmailAddress::parse("noreply@mx.ladder.test").unwrap(),
        ));
        assert_eq!(r2.code, 550);
        let r3 = session.handle(&Command::RcptTo(
            EmailAddress::parse("donotreply@mx.ladder.test").unwrap(),
        ));
        assert!(r3.is_positive());
    }

    #[test]
    fn quirks_fire_at_their_stage() {
        type QuirkCheck = fn(&mut Mta) -> u16;
        let cases: [(SmtpQuirk, QuirkCheck); 3] = [
            (SmtpQuirk::RejectMailFrom(553), |m: &mut Mta| {
                drive_through_mail_from(m).code
            }),
            (SmtpQuirk::RejectAllRcpt(550), |m: &mut Mta| {
                m.connect("203.0.113.9".parse().unwrap());
                let (mut s, _) = m.open_session();
                s.handle(&Command::Ehlo("p.test".into()));
                s.handle(&Command::MailFrom(probe_addr()));
                s.handle(&Command::RcptTo(
                    EmailAddress::parse("postmaster@x.test").unwrap(),
                ))
                .code
            }),
            (SmtpQuirk::RejectData(554), |m: &mut Mta| {
                m.connect("203.0.113.9".parse().unwrap());
                let (mut s, _) = m.open_session();
                s.handle(&Command::Ehlo("p.test".into()));
                s.handle(&Command::MailFrom(probe_addr()));
                s.handle(&Command::RcptTo(
                    EmailAddress::parse("postmaster@x.test").unwrap(),
                ));
                s.handle(&Command::Data).code
            }),
        ];
        for (quirk, check) in cases {
            let mut config = MtaConfig::compliant("mx.quirk.test");
            config.spf_stage = SpfStage::Never;
            config.quirk = quirk;
            let (mut m, _) = mta(config);
            let code = check(&mut m);
            assert!((400..600).contains(&code), "{quirk:?} gave {code}");
        }
    }
}
