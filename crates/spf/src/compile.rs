//! Compiled SPF policies and the measurement-transparent evaluation cache.
//!
//! A straightforward `check_host()` re-parses the TXT record and re-walks
//! the mechanism AST on every evaluation (the conformance crate keeps
//! one as the reference this module is checked against). In a
//! measurement campaign the same policy texts recur millions of times —
//! the wild is dominated by a handful of shared provider `include:`
//! chains, and every probe of a multi-implementation host evaluates one
//! text once per implementation — so this module lowers a parsed
//! [`SpfRecord`] once into a flat [`CompiledPolicy`]:
//!
//! * mechanisms become a jump-table of [`Op`]s walked without any AST
//!   dispatch or re-parse;
//! * macro-free domain-specs are pre-rendered to plain strings;
//! * macro-bearing domain-specs are pre-segmented into literal/variable
//!   runs ([`Segment`]) so compliant expansion is a scratch-buffer splice
//!   with no tokenizer in the loop.
//!
//! Compiled policies are interned in a [`PolicyCache`] keyed by the
//! canonical record text (whitespace-collapsed; parsing is insensitive to
//! the collapse, and non-compliant expanders never observe inter-term
//! spacing because macro-string sources are per-term). On top of the
//! intern arena sit two memo layers:
//!
//! * a **result memo** keyed by `(policy id, client ip)` that only
//!   engages when the policy is provably *macro-closed* over the
//!   `<ip, helo, sender>` projection **and** DNS-free — then the result
//!   is a pure function of the client address and can be replayed with
//!   zero observable difference;
//! * a **replay-script memo** ([`ScriptKey`]/[`ScriptEntry`]) used by the
//!   MTA layer to replay whole validated evaluations, re-emitting their
//!   DNS query-log entries, link charges, and trace spans without the
//!   real work. The cache stores only what replay needs; validation
//!   happens at record time (see `spfail-mta`).
//!
//! Everything here is rebuildable derived state: a cache is never
//! serialized into checkpoints, and a cold cache reproduces bit-for-bit
//! what a warm one answers.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use spfail_dns::{Name, RData, RecordType};
use spfail_netsim::PolicyCacheStats;

use crate::eval::{
    reverse_name, v4_in_network, v6_in_network, EvalConfig, QueryFail, SpfDns, TraceEvent,
};
use crate::expand::{
    apply_transform_into, url_escape_into, ExpandError, MacroContext, MacroExpander,
};
use crate::macrostring::{MacroLetter, MacroString, MacroToken, MacroTransform};
use crate::record::{MechanismKind, Modifier, RecordError, SpfRecord};
use crate::result::{Qualifier, SpfResult};

/// The hole character used in replay-script templates where a probe's
/// unique id label was excised; never legal in a domain name or policy.
pub const ID_HOLE: char = '\u{1}';

/// Collapse whitespace runs so textual variants of one policy intern to
/// one entry. [`SpfRecord::parse`] splits on single spaces and discards
/// empty terms, so parsing the canonical text yields the same record, and
/// per-term text (all any expander ever sees) is untouched.
pub fn canonicalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for term in text.split(' ').filter(|t| !t.is_empty()) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(term);
    }
    out
}

/// Replace every occurrence of `id` in `text` with [`ID_HOLE`], producing
/// a template that [`splice_id`] re-instantiates for another probe id of
/// the same length. Returns `None` when the text already contains the
/// hole character (nothing real does; refusing keeps splice unambiguous).
pub fn templatize(text: &str, id: &str) -> Option<String> {
    if id.is_empty() || text.contains(ID_HOLE) {
        return None;
    }
    Some(text.replace(id, "\u{1}"))
}

/// Fill a [`templatize`]d template's holes with `id`.
pub fn splice_id(template: &str, id: &str) -> String {
    template.replace(ID_HOLE, id)
}

fn letter_bit(letter: MacroLetter) -> u16 {
    1 << match letter {
        MacroLetter::Sender => 0,
        MacroLetter::Local => 1,
        MacroLetter::SenderDomain => 2,
        MacroLetter::Domain => 3,
        MacroLetter::Ip => 4,
        MacroLetter::Validated => 5,
        MacroLetter::IpVersion => 6,
        MacroLetter::Helo => 7,
        MacroLetter::ClientIp => 8,
        MacroLetter::Receiver => 9,
        MacroLetter::Timestamp => 10,
    }
}

/// Letters fully determined by the `<ip, helo, sender>` projection the
/// result memo keys on: `s l o d v h i`. Excluded: `p` (reverse DNS),
/// and the exp-only `c r t` (receiver/timestamp context).
const CLOSED_LETTERS: u16 = letter_mask(&[
    MacroLetter::Sender,
    MacroLetter::Local,
    MacroLetter::SenderDomain,
    MacroLetter::Domain,
    MacroLetter::IpVersion,
    MacroLetter::Helo,
    MacroLetter::Ip,
]);

const fn letter_mask(letters: &[MacroLetter]) -> u16 {
    // const fn: no iterators; mirror letter_bit by discriminant order.
    let mut mask = 0u16;
    let mut i = 0;
    while i < letters.len() {
        mask |= 1 << letters[i] as u16;
        i += 1;
    }
    mask
}

/// One pre-segmented run of a macro-bearing domain-spec.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Literal text, `%%`/`%_`/`%-` escapes already folded in.
    Literal(String),
    /// A macro expansion site.
    Var {
        /// Which value to expand.
        letter: MacroLetter,
        /// Whether the expansion is URL-escaped (uppercase letter).
        url_escape: bool,
        /// Split/reverse/truncate options.
        transform: MacroTransform,
    },
}

/// A compiled domain-spec: the original macro-string (the seam handed to
/// non-compliant expanders), its literal/variable segmentation, and the
/// fully pre-rendered text when no macro is present.
#[derive(Debug, Clone)]
pub struct DomainArg {
    ms: MacroString,
    segments: Vec<Segment>,
    rendered: Option<String>,
    letters: u16,
}

impl DomainArg {
    fn compile(ms: &MacroString) -> DomainArg {
        let mut segments: Vec<Segment> = Vec::new();
        let mut letters = 0u16;
        let push_lit = |segments: &mut Vec<Segment>, text: &str| {
            if let Some(Segment::Literal(last)) = segments.last_mut() {
                last.push_str(text);
            } else {
                segments.push(Segment::Literal(text.to_string()));
            }
        };
        for token in ms.tokens() {
            match token {
                MacroToken::Literal(text) => push_lit(&mut segments, text),
                MacroToken::Percent => push_lit(&mut segments, "%"),
                MacroToken::Space => push_lit(&mut segments, " "),
                MacroToken::UrlSpace => push_lit(&mut segments, "%20"),
                MacroToken::Macro {
                    letter,
                    url_escape,
                    transform,
                } => {
                    letters |= letter_bit(*letter);
                    segments.push(Segment::Var {
                        letter: *letter,
                        url_escape: *url_escape,
                        transform: transform.clone(),
                    });
                }
            }
        }
        let rendered = match segments.as_slice() {
            [] => Some(String::new()),
            [Segment::Literal(text)] => Some(text.clone()),
            _ if letters == 0 => {
                // All-literal after folding (cannot happen with merged
                // literals, but keep the invariant explicit).
                None
            }
            _ => None,
        };
        DomainArg {
            ms: ms.clone(),
            segments,
            rendered,
            letters,
        }
    }

    /// The macro-string as written, for expanders that must see it.
    pub fn macro_string(&self) -> &MacroString {
        &self.ms
    }

    /// The pre-rendered text, when the spec is macro-free.
    pub fn rendered(&self) -> Option<&str> {
        self.rendered.as_deref()
    }

    /// The literal/variable runs.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// RFC 7208 §7-compliant expansion as a scratch-buffer splice over the
    /// pre-segmented runs — behaviourally identical to
    /// [`crate::expand::CompliantExpander::expand`] outside `exp=` text.
    pub fn splice(
        &self,
        ctx: &MacroContext,
        out: &mut String,
        raw: &mut String,
        transformed: &mut String,
    ) -> Result<(), ExpandError> {
        for segment in &self.segments {
            match segment {
                Segment::Literal(text) => out.push_str(text),
                Segment::Var {
                    letter,
                    url_escape,
                    transform,
                } => {
                    if letter.exp_only() {
                        return Err(ExpandError::ExpOnlyLetter(letter.as_char()));
                    }
                    raw.clear();
                    ctx.write_raw_value(*letter, raw);
                    if *url_escape {
                        transformed.clear();
                        apply_transform_into(raw, transform, transformed);
                        url_escape_into(transformed, out);
                    } else {
                        apply_transform_into(raw, transform, out);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The target of a mechanism that takes an optional domain-spec.
#[derive(Debug, Clone)]
pub enum DomainOp {
    /// No spec: the current evaluation domain.
    Current,
    /// An explicit domain-spec.
    Spec(DomainArg),
}

impl DomainOp {
    fn compile(spec: Option<&MacroString>) -> DomainOp {
        match spec {
            None => DomainOp::Current,
            Some(ms) => DomainOp::Spec(DomainArg::compile(ms)),
        }
    }

    fn letters(&self) -> u16 {
        match self {
            DomainOp::Current => 0,
            DomainOp::Spec(arg) => arg.letters,
        }
    }
}

/// One mechanism, lowered to a flat jump-table op.
#[derive(Debug, Clone)]
pub enum Op {
    /// `all`.
    All {
        /// Qualifier applied on match.
        q: Qualifier,
    },
    /// `ip4:<network>`.
    Ip4 {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Network address.
        addr: std::net::Ipv4Addr,
        /// Prefix length.
        cidr: u8,
    },
    /// `ip6:<network>`.
    Ip6 {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Network address.
        addr: std::net::Ipv6Addr,
        /// Prefix length.
        cidr: u8,
    },
    /// `a[:domain]`.
    A {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Target domain.
        domain: DomainOp,
        /// IPv4 prefix length.
        cidr4: u8,
        /// IPv6 prefix length.
        cidr6: u8,
    },
    /// `mx[:domain]`.
    Mx {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Target domain.
        domain: DomainOp,
        /// IPv4 prefix length.
        cidr4: u8,
        /// IPv6 prefix length.
        cidr6: u8,
    },
    /// `ptr[:domain]`.
    Ptr {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Validation domain.
        domain: DomainOp,
    },
    /// `exists:<domain>`.
    Exists {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Target domain-spec (required).
        domain: DomainArg,
    },
    /// `include:<domain>`.
    Include {
        /// Qualifier applied on match.
        q: Qualifier,
        /// Included domain-spec.
        domain: DomainArg,
    },
}

impl Op {
    /// Mechanism name, as [`MechanismKind::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Op::All { .. } => "all",
            Op::Ip4 { .. } => "ip4",
            Op::Ip6 { .. } => "ip6",
            Op::A { .. } => "a",
            Op::Mx { .. } => "mx",
            Op::Ptr { .. } => "ptr",
            Op::Exists { .. } => "exists",
            Op::Include { .. } => "include",
        }
    }

    /// Whether this op consumes one of the ten DNS-querying terms
    /// (RFC 7208 §4.6.4), as [`MechanismKind::counts_against_lookup_limit`].
    pub fn counts_against_lookup_limit(&self) -> bool {
        matches!(
            self,
            Op::Include { .. } | Op::A { .. } | Op::Mx { .. } | Op::Ptr { .. } | Op::Exists { .. }
        )
    }

    fn is_dns(&self) -> bool {
        self.counts_against_lookup_limit()
    }

    fn letters(&self) -> u16 {
        match self {
            Op::All { .. } | Op::Ip4 { .. } | Op::Ip6 { .. } => 0,
            Op::A { domain, .. } | Op::Mx { domain, .. } | Op::Ptr { domain, .. } => {
                domain.letters()
            }
            Op::Exists { domain, .. } | Op::Include { domain, .. } => domain.letters,
        }
    }
}

/// An SPF record lowered to a flat op sequence.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    ops: Vec<Op>,
    redirect: Option<DomainArg>,
    explanation: Option<MacroString>,
    macro_letters: u16,
    dns_free: bool,
}

impl CompiledPolicy {
    /// Lower a parsed record.
    pub fn compile(record: &SpfRecord) -> CompiledPolicy {
        let ops: Vec<Op> = record
            .mechanisms
            .iter()
            .map(|m| {
                let q = m.qualifier;
                match &m.kind {
                    MechanismKind::All => Op::All { q },
                    MechanismKind::Ip4 { addr, cidr } => Op::Ip4 {
                        q,
                        addr: *addr,
                        cidr: *cidr,
                    },
                    MechanismKind::Ip6 { addr, cidr } => Op::Ip6 {
                        q,
                        addr: *addr,
                        cidr: *cidr,
                    },
                    MechanismKind::A {
                        domain,
                        cidr4,
                        cidr6,
                    } => Op::A {
                        q,
                        domain: DomainOp::compile(domain.as_ref()),
                        cidr4: *cidr4,
                        cidr6: *cidr6,
                    },
                    MechanismKind::Mx {
                        domain,
                        cidr4,
                        cidr6,
                    } => Op::Mx {
                        q,
                        domain: DomainOp::compile(domain.as_ref()),
                        cidr4: *cidr4,
                        cidr6: *cidr6,
                    },
                    MechanismKind::Ptr { domain } => Op::Ptr {
                        q,
                        domain: DomainOp::compile(domain.as_ref()),
                    },
                    MechanismKind::Exists(spec) => Op::Exists {
                        q,
                        domain: DomainArg::compile(spec),
                    },
                    MechanismKind::Include(spec) => Op::Include {
                        q,
                        domain: DomainArg::compile(spec),
                    },
                }
            })
            .collect();
        let redirect = record.redirect().map(DomainArg::compile);
        let explanation = record.explanation().cloned();
        let mut macro_letters = ops.iter().map(Op::letters).fold(0, |a, b| a | b);
        if let Some(r) = &redirect {
            macro_letters |= r.letters;
        }
        if let Some(e) = &explanation {
            for token in e.tokens() {
                if let MacroToken::Macro { letter, .. } = token {
                    macro_letters |= letter_bit(*letter);
                }
            }
        }
        // A redirect or exp= target means follow-up DNS work even when no
        // mechanism queries; `None` from a DNS-free record is impossible
        // to memoize wrongly but keep the condition strict and obvious.
        let dns_free =
            ops.iter().all(|op| !op.is_dns()) && redirect.is_none() && explanation.is_none();
        CompiledPolicy {
            ops,
            redirect,
            explanation,
            macro_letters,
            dns_free,
        }
    }

    /// The op sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The compiled `redirect=` target, if any.
    pub fn redirect(&self) -> Option<&DomainArg> {
        self.redirect.as_ref()
    }

    /// The `exp=` target, if any.
    pub fn explanation(&self) -> Option<&MacroString> {
        self.explanation.as_ref()
    }

    /// Whether every macro letter in the policy is determined by the
    /// `<ip, helo, sender>` projection (letters `s l o d v h i` only).
    pub fn macro_closed(&self) -> bool {
        self.macro_letters & !CLOSED_LETTERS == 0
    }

    /// Whether evaluation issues no DNS query beyond the TXT fetch:
    /// only `all`/`ip4`/`ip6` mechanisms, no `redirect=`, no `exp=`.
    pub fn dns_free(&self) -> bool {
        self.dns_free
    }

    /// Whether the result memo may answer for this policy: the verdict is
    /// a pure function of the client IP, so replaying it is observably
    /// identical to evaluating.
    pub fn memoizable(&self) -> bool {
        self.dns_free() && self.macro_closed()
    }
}

/// Handle to an interned [`CompiledPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyId(u32);

/// Key for the MTA-level replay-script memo: one entry per distinct
/// `(probe-domain shape, sender local part, client IP, implementation
/// mix)`. The probe id label is keyed only by its *length* — the
/// templated script re-instantiates any same-length id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScriptKey {
    /// Byte length of the probe id (first label of the sender domain).
    pub id_len: usize,
    /// The sender domain after the id label, including the leading dot.
    pub domain_rest: String,
    /// The sender's local part.
    pub sender_local: String,
    /// The SMTP client's address.
    pub client_ip: IpAddr,
    /// Caller-composed token identifying the SPF implementation mix.
    pub impls: String,
}

/// One replayable DNS exchange of a memoized evaluation.
#[derive(Debug, Clone)]
pub struct ScriptStep {
    /// The question name as recorded, in wire form. Replay re-instantiates
    /// it for the current probe by splicing the new id bytes over
    /// `id_offsets` — no dotted-string render or re-parse on the hit path.
    pub qname: Name,
    /// Wire-byte offsets of every probe-id occurrence in `qname` (each is
    /// label-content-aligned; ids are keyed by length, so a splice never
    /// moves framing).
    pub id_offsets: Vec<u16>,
    /// The question type.
    pub rtype: RecordType,
    /// Whether the resolver's TTL cache answered this step.
    pub cache_hit: bool,
    /// The trace-span outcome label the live path emitted.
    pub outcome_label: &'static str,
}

impl ScriptStep {
    /// The recorded question name with `id` spliced in for the recorded
    /// probe's id.
    pub fn qname_for(&self, id: &str) -> Name {
        if self.id_offsets.is_empty() {
            self.qname.clone()
        } else {
            self.qname.splice_content(&self.id_offsets, id.as_bytes())
        }
    }
}

/// A validated, replayable evaluation: its DNS exchanges plus the verdict
/// of every implementation that ran.
#[derive(Debug, Clone)]
pub struct ScriptEntry {
    /// The exchanges, in order.
    pub steps: Vec<ScriptStep>,
    /// `(implementation label, result)` per implementation, in run order.
    pub results: Vec<(&'static str, SpfResult)>,
}

/// The per-shard policy cache: intern arena plus the two memo layers.
///
/// Purely derived state — never serialized, safe to drop at any point
/// (a checkpoint restore starts cold and replays nothing until it has
/// re-validated entries).
#[derive(Debug, Default)]
pub struct PolicyCache {
    interned: HashMap<String, (PolicyId, Arc<CompiledPolicy>)>,
    results: HashMap<(PolicyId, IpAddr), SpfResult>,
    /// Buckets keyed by [`script_hash`] over the key *parts*, so the hot
    /// lookup hashes borrowed strings instead of allocating a
    /// [`ScriptKey`] per validation. Collisions land in the bucket `Vec`.
    scripts: HashMap<u64, Vec<(ScriptKey, Arc<ScriptEntry>)>>,
    hits: u64,
    misses: u64,
}

/// Deterministic hash over the borrowed parts of a [`ScriptKey`]. Uses
/// the fixed-key `DefaultHasher` so owned inserts and borrowed lookups
/// agree without a shared map state.
fn script_hash(
    id_len: usize,
    domain_rest: &str,
    sender_local: &str,
    client_ip: IpAddr,
    impls: &str,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    id_len.hash(&mut hasher);
    domain_rest.hash(&mut hasher);
    sender_local.hash(&mut hasher);
    client_ip.hash(&mut hasher);
    impls.hash(&mut hasher);
    hasher.finish()
}

impl ScriptKey {
    fn hash_parts(&self) -> u64 {
        script_hash(
            self.id_len,
            &self.domain_rest,
            &self.sender_local,
            self.client_ip,
            &self.impls,
        )
    }

    fn matches(
        &self,
        id_len: usize,
        domain_rest: &str,
        sender_local: &str,
        client_ip: IpAddr,
        impls: &str,
    ) -> bool {
        self.id_len == id_len
            && self.client_ip == client_ip
            && self.domain_rest == domain_rest
            && self.sender_local == sender_local
            && self.impls == impls
    }
}

impl PolicyCache {
    /// An empty cache.
    pub fn new() -> PolicyCache {
        PolicyCache::default()
    }

    /// Intern `text`, compiling it on first sight. Parse errors are not
    /// cached; callers map them exactly as RFC 7208 §4.5 maps
    /// [`SpfRecord::parse`] errors.
    pub fn intern(&mut self, text: &str) -> Result<(PolicyId, Arc<CompiledPolicy>), RecordError> {
        let canonical = canonicalize(text);
        if let Some((id, policy)) = self.interned.get(&canonical) {
            return Ok((*id, Arc::clone(policy)));
        }
        let record = SpfRecord::parse(&canonical)?;
        let id = PolicyId(self.interned.len() as u32);
        let policy = Arc::new(CompiledPolicy::compile(&record));
        self.interned.insert(canonical, (id, Arc::clone(&policy)));
        Ok((id, policy))
    }

    /// Look up the result memo; ticks the hit/miss counters. Callers must
    /// only ask for [`CompiledPolicy::memoizable`] policies.
    pub fn memo_result(&mut self, id: PolicyId, ip: IpAddr) -> Option<SpfResult> {
        let result = self.results.get(&(id, ip)).copied();
        match result {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        result
    }

    /// Record a result for the memo.
    pub fn insert_result(&mut self, id: PolicyId, ip: IpAddr, result: SpfResult) {
        self.results.insert((id, ip), result);
    }

    /// Look up a replay script; ticks the hit/miss counters.
    pub fn script(&mut self, key: &ScriptKey) -> Option<Arc<ScriptEntry>> {
        self.script_for(
            key.id_len,
            &key.domain_rest,
            &key.sender_local,
            key.client_ip,
            &key.impls,
        )
    }

    /// [`PolicyCache::script`] over borrowed key parts — the hot-path
    /// form, which allocates nothing on hit or miss.
    pub fn script_for(
        &mut self,
        id_len: usize,
        domain_rest: &str,
        sender_local: &str,
        client_ip: IpAddr,
        impls: &str,
    ) -> Option<Arc<ScriptEntry>> {
        let hash = script_hash(id_len, domain_rest, sender_local, client_ip, impls);
        let entry = self.scripts.get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|(key, _)| key.matches(id_len, domain_rest, sender_local, client_ip, impls))
                .map(|(_, entry)| Arc::clone(entry))
        });
        match entry {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        entry
    }

    /// Store a validated replay script.
    pub fn insert_script(&mut self, key: ScriptKey, entry: ScriptEntry) {
        let bucket = self.scripts.entry(key.hash_parts()).or_default();
        match bucket.iter_mut().find(|(existing, _)| *existing == key) {
            Some((_, slot)) => *slot = Arc::new(entry),
            None => bucket.push((key, Arc::new(entry))),
        }
    }

    /// Count a live evaluation that bypassed the cache entirely (gates
    /// closed: faults active, warm resolver cache, non-zero latency, …).
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> PolicyCacheStats {
        PolicyCacheStats {
            hits: self.hits,
            misses: self.misses,
            interned: self.interned.len() as u64,
        }
    }
}

/// The SPF evaluator: RFC 7208 §4 `check_host()` over [`CompiledPolicy`]
/// ops. Its result, query sequence and explanation equal those of the
/// conformance crate's reference evaluator (asserted by the differential
/// conformance sweep). A fresh [`PolicyCache`] per evaluation gives the
/// plain, memo-free evaluation.
pub struct CompiledEvaluator<'a, D: SpfDns, E: MacroExpander> {
    dns: &'a mut D,
    expander: &'a mut E,
    cache: &'a mut PolicyCache,
    config: EvalConfig,
    lookup_terms: u32,
    void_lookups: u32,
    trace: Vec<TraceEvent>,
    explanation: Option<String>,
    scratch_raw: String,
    scratch_transformed: String,
}

impl<'a, D: SpfDns, E: MacroExpander> CompiledEvaluator<'a, D, E> {
    /// A new evaluator with default limits, interning into `cache`.
    pub fn new(dns: &'a mut D, expander: &'a mut E, cache: &'a mut PolicyCache) -> Self {
        Self::with_config(dns, expander, cache, EvalConfig::default())
    }

    /// A new evaluator with explicit limits.
    pub fn with_config(
        dns: &'a mut D,
        expander: &'a mut E,
        cache: &'a mut PolicyCache,
        config: EvalConfig,
    ) -> Self {
        CompiledEvaluator {
            dns,
            expander,
            cache,
            config,
            lookup_terms: 0,
            void_lookups: 0,
            trace: Vec::new(),
            explanation: None,
            scratch_raw: String::new(),
            scratch_transformed: String::new(),
        }
    }

    /// The trace of this evaluator's most recent evaluation(s). Memoized
    /// sub-evaluations skip their `Mechanism` events; `Query` events are
    /// always exact (memoizable policies issue none).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The explanation produced by `exp=` on a top-level `Fail`.
    pub fn explanation(&self) -> Option<&str> {
        self.explanation.as_deref()
    }

    /// RFC 7208 §4: evaluate the policy for `sender_local@sender_domain`
    /// connecting from `client_ip`.
    pub fn check_host(
        &mut self,
        client_ip: IpAddr,
        sender_local: &str,
        sender_domain: &str,
    ) -> SpfResult {
        let ctx = MacroContext::new(sender_local, sender_domain, client_ip);
        self.explanation = None;
        self.check_domain(&ctx, sender_domain, 0)
    }

    fn check_domain(&mut self, outer_ctx: &MacroContext, domain: &str, depth: u32) -> SpfResult {
        if depth > self.config.max_depth {
            return SpfResult::PermError;
        }
        let Ok(domain_name) = Name::parse(domain) else {
            return SpfResult::PermError;
        };

        let outcome = match self.query(&domain_name, RecordType::TXT, false) {
            Ok(o) => o,
            Err(QueryFail::Temp) => return SpfResult::TempError,
            Err(QueryFail::LimitExceeded) => return SpfResult::PermError,
        };
        let spf_texts: Vec<String> = outcome
            .records()
            .iter()
            .filter_map(|r| r.rdata.txt_joined())
            .filter(|t| SpfRecord::looks_like_spf(t))
            .collect();
        let text = match spf_texts.len() {
            0 => return SpfResult::None,
            1 => &spf_texts[0],
            _ => return SpfResult::PermError,
        };
        let (policy_id, policy) = match self.cache.intern(text) {
            Ok(entry) => entry,
            Err(RecordError::NotSpf1) => return SpfResult::None,
            Err(_) => return SpfResult::PermError,
        };

        let mut ctx = outer_ctx.clone();
        ctx.domain = domain.to_string();

        // Result memo: for a macro-closed, DNS-free policy the verdict is
        // a pure function of the client IP — no queries, no explanation,
        // no limit consumption — so replaying it is exact.
        let memoizable = policy.memoizable();
        if memoizable {
            if let Some(result) = self.cache.memo_result(policy_id, ctx.client_ip) {
                return result;
            }
        }

        let result = self.run_ops(outer_ctx, &ctx, &policy, depth);
        if memoizable {
            self.cache.insert_result(policy_id, ctx.client_ip, result);
        }
        result
    }

    fn run_ops(
        &mut self,
        outer_ctx: &MacroContext,
        ctx: &MacroContext,
        policy: &CompiledPolicy,
        depth: u32,
    ) -> SpfResult {
        for op in policy.ops() {
            if op.counts_against_lookup_limit() {
                self.lookup_terms += 1;
                if self.lookup_terms > self.config.max_lookup_terms {
                    return SpfResult::PermError;
                }
            }
            match self.matches(ctx, op, depth) {
                Ok(true) => {
                    self.trace.push(TraceEvent::Mechanism {
                        name: op.name(),
                        matched: true,
                    });
                    let result = qualifier_of(op).result();
                    if result == SpfResult::Fail && depth == 0 {
                        if let Some(exp_target) = policy.explanation() {
                            self.explanation = self.fetch_explanation(ctx, exp_target);
                        }
                    }
                    return result;
                }
                Ok(false) => {
                    self.trace.push(TraceEvent::Mechanism {
                        name: op.name(),
                        matched: false,
                    });
                }
                Err(result) => return result,
            }
        }

        if let Some(target) = policy.redirect() {
            self.lookup_terms += 1;
            if self.lookup_terms > self.config.max_lookup_terms {
                return SpfResult::PermError;
            }
            let Ok(new_domain) = self.expand_arg(ctx, target) else {
                return SpfResult::PermError;
            };
            self.trace.push(TraceEvent::Recurse {
                domain: new_domain.clone(),
            });
            let result = self.check_domain(outer_ctx, &new_domain, depth + 1);
            return if result == SpfResult::None {
                SpfResult::PermError
            } else {
                result
            };
        }
        SpfResult::Neutral
    }

    fn fetch_explanation(&mut self, ctx: &MacroContext, target: &MacroString) -> Option<String> {
        let domain_text = self.expander.expand(target, ctx, false).ok()?;
        let domain = Name::parse(&domain_text).ok()?;
        let outcome = self.query(&domain, RecordType::TXT, false).ok()?;
        let records = outcome.records();
        let [record] = records else {
            return None;
        };
        let text = record.rdata.txt_joined()?;
        let ms = MacroString::parse(&text).ok()?;
        self.expander.expand(&ms, ctx, true).ok()
    }

    fn matches(&mut self, ctx: &MacroContext, op: &Op, depth: u32) -> Result<bool, SpfResult> {
        match op {
            Op::All { .. } => Ok(true),
            Op::Ip4 { addr, cidr, .. } => Ok(match ctx.client_ip {
                IpAddr::V4(ip) => v4_in_network(ip, *addr, *cidr),
                IpAddr::V6(_) => false,
            }),
            Op::Ip6 { addr, cidr, .. } => Ok(match ctx.client_ip {
                IpAddr::V6(ip) => v6_in_network(ip, *addr, *cidr),
                IpAddr::V4(_) => false,
            }),
            Op::A {
                domain,
                cidr4,
                cidr6,
                ..
            } => {
                let target = self.target_name(ctx, domain)?;
                self.address_match(ctx, &target, *cidr4, *cidr6)
            }
            Op::Mx {
                domain,
                cidr4,
                cidr6,
                ..
            } => {
                let target = self.target_name(ctx, domain)?;
                let outcome = self
                    .query(&target, RecordType::MX, true)
                    .map_err(QueryFail::into_result)?;
                let mut exchanges: Vec<Name> = outcome
                    .records()
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Mx { exchange, .. } => Some(exchange.clone()),
                        _ => None,
                    })
                    .collect();
                if exchanges.len() > self.config.max_mx_names {
                    return Err(SpfResult::PermError);
                }
                exchanges.truncate(self.config.max_mx_names);
                for exchange in exchanges {
                    if self.address_match(ctx, &exchange, *cidr4, *cidr6)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Op::Include { domain, .. } => {
                let Ok(new_domain) = self.expand_arg(ctx, domain) else {
                    return Err(SpfResult::PermError);
                };
                self.trace.push(TraceEvent::Recurse {
                    domain: new_domain.clone(),
                });
                match self.check_domain(ctx, &new_domain, depth + 1) {
                    SpfResult::Pass => Ok(true),
                    SpfResult::Fail | SpfResult::SoftFail | SpfResult::Neutral => Ok(false),
                    SpfResult::TempError => Err(SpfResult::TempError),
                    SpfResult::None | SpfResult::PermError => Err(SpfResult::PermError),
                }
            }
            Op::Exists { domain, .. } => {
                let text = self
                    .expand_arg(ctx, domain)
                    .map_err(|_| SpfResult::PermError)?;
                let target = Name::parse(&text).map_err(|_| SpfResult::PermError)?;
                let outcome = self
                    .query(&target, RecordType::A, true)
                    .map_err(QueryFail::into_result)?;
                Ok(!outcome.records().is_empty())
            }
            Op::Ptr { domain, .. } => {
                let target = self.target_name(ctx, domain)?;
                let reverse = reverse_name(ctx.client_ip);
                let outcome = self
                    .query(&reverse, RecordType::PTR, true)
                    .map_err(QueryFail::into_result)?;
                let mut candidates: Vec<Name> = outcome
                    .records()
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Ptr(host) => Some(host.clone()),
                        _ => None,
                    })
                    .filter(|host| host.is_subdomain_of(&target))
                    .collect();
                candidates.truncate(self.config.max_mx_names);
                for host in candidates {
                    if self.address_match(ctx, &host, 32, 128)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    fn target_name(&mut self, ctx: &MacroContext, domain: &DomainOp) -> Result<Name, SpfResult> {
        let text = match domain {
            DomainOp::Current => ctx.domain.clone(),
            DomainOp::Spec(arg) => self
                .expand_arg(ctx, arg)
                .map_err(|_| SpfResult::PermError)?,
        };
        Name::parse(&text).map_err(|_| SpfResult::PermError)
    }

    /// Expand a compiled domain-spec: the scratch-buffer splice (or the
    /// pre-rendered text) for a compliant expander, the trait seam for
    /// everything else. Every fault is recorded in the trace as a
    /// [`TraceEvent::ExpanderFault`].
    fn expand_arg(&mut self, ctx: &MacroContext, arg: &DomainArg) -> Result<String, ExpandError> {
        let result = if self.expander.is_rfc_compliant() {
            if let Some(rendered) = arg.rendered() {
                return Ok(rendered.to_string());
            }
            let mut out = String::new();
            arg.splice(
                ctx,
                &mut out,
                &mut self.scratch_raw,
                &mut self.scratch_transformed,
            )
            .map(|()| out)
        } else {
            self.expander.expand(arg.macro_string(), ctx, false)
        };
        match result {
            Ok(s) => Ok(s),
            Err(e) => {
                self.trace.push(TraceEvent::ExpanderFault(e.to_string()));
                Err(e)
            }
        }
    }

    fn address_match(
        &mut self,
        ctx: &MacroContext,
        target: &Name,
        cidr4: u8,
        cidr6: u8,
    ) -> Result<bool, SpfResult> {
        let rtype = match ctx.client_ip {
            IpAddr::V4(_) => RecordType::A,
            IpAddr::V6(_) => RecordType::AAAA,
        };
        let outcome = self
            .query(target, rtype, true)
            .map_err(QueryFail::into_result)?;
        for record in outcome.records() {
            let matched = match (&record.rdata, ctx.client_ip) {
                (RData::A(addr), IpAddr::V4(ip)) => v4_in_network(ip, *addr, cidr4),
                (RData::Aaaa(addr), IpAddr::V6(ip)) => v6_in_network(ip, *addr, cidr6),
                _ => false,
            };
            if matched {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn query(
        &mut self,
        name: &Name,
        rtype: RecordType,
        counted: bool,
    ) -> Result<spfail_dns::LookupOutcome, QueryFail> {
        self.trace.push(TraceEvent::Query {
            name: name.clone(),
            rtype,
        });
        match self.dns.lookup(name, rtype) {
            Ok(outcome) => {
                if counted && outcome.is_void() {
                    self.void_lookups += 1;
                    if self.void_lookups > self.config.max_void_lookups {
                        return Err(QueryFail::LimitExceeded);
                    }
                }
                Ok(outcome)
            }
            Err(_) => Err(QueryFail::Temp),
        }
    }
}

fn qualifier_of(op: &Op) -> Qualifier {
    match op {
        Op::All { q }
        | Op::Ip4 { q, .. }
        | Op::Ip6 { q, .. }
        | Op::A { q, .. }
        | Op::Mx { q, .. }
        | Op::Ptr { q, .. }
        | Op::Exists { q, .. }
        | Op::Include { q, .. } => *q,
    }
}

// Compile-time sanity: keep `Modifier` in scope so the lowering above is
// checked against the record model it mirrors.
const _: fn(&Modifier) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::CompliantExpander;
    use spfail_dns::resolver::{LookupError, LookupOutcome};
    use spfail_dns::Record;

    #[test]
    fn canonicalize_collapses_spaces_only() {
        assert_eq!(
            canonicalize("v=spf1   ip4:1.2.3.4  -all "),
            "v=spf1 ip4:1.2.3.4 -all"
        );
        assert_eq!(canonicalize("v=spf1 -all"), "v=spf1 -all");
    }

    #[test]
    fn templates_round_trip() {
        let t = templatize("ab12.s01.zone a:b.ab12.s01.zone", "ab12").unwrap();
        assert!(!t.contains("ab12"));
        assert_eq!(splice_id(&t, "ab12"), "ab12.s01.zone a:b.ab12.s01.zone");
        assert_eq!(splice_id(&t, "zz99"), "zz99.s01.zone a:b.zz99.s01.zone");
        assert!(templatize("x", "").is_none());
        assert!(templatize("al\u{1}ready", "al").is_none());
    }

    #[test]
    fn dns_free_and_macro_closed_predicates() {
        let free =
            CompiledPolicy::compile(&SpfRecord::parse("v=spf1 ip4:192.0.2.0/24 -all").unwrap());
        assert!(free.dns_free() && free.macro_closed() && free.memoizable());

        let with_a = CompiledPolicy::compile(&SpfRecord::parse("v=spf1 a -all").unwrap());
        assert!(!with_a.dns_free() && !with_a.memoizable());

        let with_exp =
            CompiledPolicy::compile(&SpfRecord::parse("v=spf1 -all exp=why.example.com").unwrap());
        assert!(!with_exp.dns_free());

        let open_letters = CompiledPolicy::compile(
            &SpfRecord::parse("v=spf1 exists:%{p}.example.com -all").unwrap(),
        );
        assert!(!open_letters.macro_closed());

        let closed_letters = CompiledPolicy::compile(
            &SpfRecord::parse("v=spf1 a:%{d1r}.x.example.com -all").unwrap(),
        );
        assert!(closed_letters.macro_closed() && !closed_letters.dns_free());
    }

    #[test]
    fn intern_shares_textual_variants_and_assigns_stable_ids() {
        let mut cache = PolicyCache::new();
        let (id1, p1) = cache.intern("v=spf1  ip4:192.0.2.0/24   -all").unwrap();
        let (id2, p2) = cache.intern("v=spf1 ip4:192.0.2.0/24 -all").unwrap();
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().interned, 1);
        let (id3, _) = cache.intern("v=spf1 -all").unwrap();
        assert_ne!(id1, id3);
        assert_eq!(cache.stats().interned, 2);
    }

    #[test]
    fn result_memo_hits_after_first_evaluation() {
        let mut cache = PolicyCache::new();
        let mut dns = |_: &Name, _: RecordType| -> Result<LookupOutcome, LookupError> {
            Ok(LookupOutcome::Records(
                vec![Record::new(
                    Name::parse("example.com").unwrap(),
                    300,
                    RData::txt("v=spf1 ip4:192.0.2.0/24 -all"),
                )]
                .into(),
            ))
        };
        let ip: IpAddr = "192.0.2.7".parse().unwrap();
        for round in 0..2 {
            let mut expander = CompliantExpander;
            let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut cache);
            assert_eq!(
                eval.check_host(ip, "user", "example.com"),
                SpfResult::Pass,
                "round {round}"
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let off: IpAddr = "198.51.100.9".parse().unwrap();
        let mut expander = CompliantExpander;
        let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut cache);
        assert_eq!(eval.check_host(off, "user", "example.com"), SpfResult::Fail);
    }

    #[test]
    fn splice_matches_compliant_expander() {
        let ms = MacroString::parse("%{d1r}.%%x%_%-.%{L}.tail").unwrap();
        let arg = DomainArg::compile(&ms);
        assert!(arg.rendered().is_none());
        let ctx = MacroContext::new("us/er", "a.b.c", "192.0.2.1".parse().unwrap());
        let mut out = String::new();
        let (mut raw, mut tr) = (String::new(), String::new());
        arg.splice(&ctx, &mut out, &mut raw, &mut tr).unwrap();
        let expected = CompliantExpander.expand(&ms, &ctx, false).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn macro_free_specs_pre_render() {
        let ms = MacroString::parse("b.example.com").unwrap();
        let arg = DomainArg::compile(&ms);
        assert_eq!(arg.rendered(), Some("b.example.com"));
        assert!(matches!(arg.segments(), [Segment::Literal(_)]));
    }

    #[test]
    fn exp_only_letter_faults_outside_exp() {
        let ms = MacroString::parse("%{t}.example.com").unwrap();
        let arg = DomainArg::compile(&ms);
        let ctx = MacroContext::new("u", "example.com", "192.0.2.1".parse().unwrap());
        let mut out = String::new();
        let (mut raw, mut tr) = (String::new(), String::new());
        assert!(matches!(
            arg.splice(&ctx, &mut out, &mut raw, &mut tr),
            Err(ExpandError::ExpOnlyLetter('t'))
        ));
    }
}
