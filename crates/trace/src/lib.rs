//! Deterministic structured tracing for the measurement pipeline.
//!
//! The campaign engines promise that a sharded run produces bit-for-bit
//! the data of the sequential reference. This crate extends that promise
//! to *telemetry*: spans and events recorded while probing merge across
//! shards into a trace that is byte-identical to the sequential run's.
//!
//! Two properties make that possible:
//!
//! * **Identity keys, not wall order.** Every probe record carries the
//!   probe's full identity — campaign phase, host, day, test variant,
//!   replayed-connection count, and a per-identity sequence number — and
//!   the merged trace is sorted by that key. How hosts interleave on a
//!   worker, or which worker they land on, never shows in the output.
//! * **Probe-relative timestamps.** The sequential engine serialises all
//!   hosts on one clock while each shard has its own, so *absolute*
//!   sim-times differ between engines. Within one probe, however, every
//!   clock advance is a pure function of the probe's identity (its forked
//!   RNG streams, fixed timeouts, its own host's contact history). Events
//!   are therefore stamped with the offset since their probe span opened,
//!   which is shard-invariant.
//!
//! On top of the raw trace: a self-time/cumulative-time [`Profile`] with
//! per-phase latency [`Histogram`]s, a JSONL exporter, and a
//! collapsed-stack exporter (one `frame;frame;frame count` line per
//! stack, the format flamegraph tooling consumes).
//!
//! The [`Tracer`] handle is cheap to clone and free when disabled: a
//! disabled tracer is a `None` and every recording call returns before
//! formatting anything, so the zero-allocation resolve hot path stays
//! zero-allocation (enforced in `crates/bench/tests/alloc_count.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use spfail_netsim::{Histogram, SimDuration, SimTime};

/// Tracing configuration handed to `CampaignBuilder::trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Whether tracing is on. Off is the default and costs nothing.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing switched on.
    pub const fn enabled() -> TraceConfig {
        TraceConfig { enabled: true }
    }

    /// Tracing switched off (the default).
    pub const fn disabled() -> TraceConfig {
        TraceConfig { enabled: false }
    }
}

/// Which campaign phase a probe ran in.
///
/// The derived `Ord` is the canonical phase order: the initial sweep,
/// then the longitudinal rounds by day, then the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The initial sweep over every host.
    Initial,
    /// One longitudinal round, keyed by its measurement day.
    Round(u16),
    /// The final re-resolving snapshot.
    Snapshot,
}

impl Phase {
    /// A stable text label: `initial`, `round-d15`, `snapshot`.
    pub fn label(&self) -> String {
        match self {
            Phase::Initial => "initial".to_string(),
            Phase::Round(day) => format!("round-d{day}"),
            Phase::Snapshot => "snapshot".to_string(),
        }
    }

    /// The inverse of [`Phase::label`].
    pub fn parse_label(s: &str) -> Option<Phase> {
        match s {
            "initial" => Some(Phase::Initial),
            "snapshot" => Some(Phase::Snapshot),
            _ => s
                .strip_prefix("round-d")
                .and_then(|day| day.parse().ok())
                .map(Phase::Round),
        }
    }
}

/// The span vocabulary under a probe span.
///
/// The hierarchy is `campaign → probe → {dns_resolve, smtp_session,
/// retry_wait, greylist_wait, fault}`, with `dns_resolve` nesting inside
/// `smtp_session` whenever SPF validation runs mid-transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One `Resolver::resolve` call (CNAME chain included).
    DnsResolve,
    /// One SMTP conversation, connect through QUIT/hang-up.
    SmtpSession,
    /// A retry-policy backoff wait between probe attempts.
    RetryWait,
    /// The §6.1 greylist wait before the in-transaction retry.
    GreylistWait,
    /// Time (possibly none) consumed by an injected fault: a flaky
    /// host's connect timeout, a closed reachability window, an SMTP
    /// tempfail or reset decision.
    Fault,
}

impl SpanKind {
    /// The stable frame name used in paths and exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DnsResolve => "dns_resolve",
            SpanKind::SmtpSession => "smtp_session",
            SpanKind::RetryWait => "retry_wait",
            SpanKind::GreylistWait => "greylist_wait",
            SpanKind::Fault => "fault",
        }
    }

    /// The inverse of [`SpanKind::name`].
    pub fn parse_name(s: &str) -> Option<SpanKind> {
        match s {
            "dns_resolve" => Some(SpanKind::DnsResolve),
            "smtp_session" => Some(SpanKind::SmtpSession),
            "retry_wait" => Some(SpanKind::RetryWait),
            "greylist_wait" => Some(SpanKind::GreylistWait),
            "fault" => Some(SpanKind::Fault),
            _ => None,
        }
    }
}

/// Map an outcome string back onto the stack's `&'static str` outcome
/// vocabulary, so a trace restored from a checkpoint compares equal
/// (pointer contents, not provenance) to a live-recorded one.
///
/// Every outcome the resolver, SMTP driver, fault layer, and retry loop
/// emit is matched explicitly; an unrecognised outcome (e.g. from a
/// checkpoint written by a newer vocabulary) is leaked once into a
/// `'static` string rather than rejected.
pub fn intern_outcome(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        // dns_resolve
        "ok",
        "nxdomain",
        "nodata",
        "timeout",
        "servfail",
        "no_authority",
        "cname_loop",
        // smtp_session (TransactionOutcome::label + refused connections)
        "refused",
        "rejected_connect",
        "rejected_hello",
        "rejected_mail_from",
        "rejected_rcpt",
        "rejected_data",
        "transient",
        "connection_reset",
        "nomsg_completed",
        "message_accepted",
        "message_rejected",
        // fault
        "flaky",
        "window_closed",
        "smtp_tempfail",
        "smtp_reset",
        // retry_wait / greylist_wait
        "backoff",
        "greylisted",
    ];
    match KNOWN.iter().find(|&&k| k == s) {
        Some(&k) => k,
        None => Box::leak(s.to_string().into_boxed_str()),
    }
}

/// One recorded event, stamped relative to its probe span's start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds of simulated time since the probe span opened.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Span boundary events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened.
    Enter {
        /// The span's kind.
        span: SpanKind,
        /// Optional detail (e.g. the DNS question), built only when
        /// tracing is enabled.
        label: Option<String>,
    },
    /// The innermost open span closed.
    Exit {
        /// The span's kind (must match the innermost open span).
        span: SpanKind,
        /// How the span concluded (`"ok"`, `"timeout"`, ...).
        outcome: &'static str,
    },
}

/// Everything one probe recorded: its identity key plus its events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Campaign phase the probe ran in.
    pub phase: Phase,
    /// Probed host id.
    pub host: u32,
    /// Scheduled measurement day.
    pub day: u16,
    /// Test-variant tag (0 = NoMsg, 1 = BlankMsg).
    pub test: u8,
    /// Replayed-connection count (the blacklisting counter).
    pub extra: u32,
    /// Sequence number among probes with the same identity in the same
    /// phase (a snapshot host probed twice gets 0 then 1).
    pub seq: u32,
    /// Total simulated microseconds the probe span covered.
    pub duration_us: u64,
    /// The probe's events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl ProbeRecord {
    /// The identity-order sort key shard merging uses.
    fn key(&self) -> (Phase, u32, u16, u8, u32, u32) {
        (
            self.phase, self.host, self.day, self.test, self.extra, self.seq,
        )
    }

    /// The test variant's stable name.
    pub fn test_name(&self) -> &'static str {
        match self.test {
            0 => "nomsg",
            1 => "blankmsg",
            _ => "other",
        }
    }

    /// Check the record's structural invariants: event times are
    /// monotone and within the probe interval, spans are strictly
    /// well-parenthesized, and every child interval lies inside its
    /// parent's.
    pub fn validate(&self) -> Result<(), String> {
        let mut stack: Vec<(SpanKind, u64)> = Vec::new();
        let mut last_at = 0u64;
        for (i, event) in self.events.iter().enumerate() {
            if event.at_us < last_at {
                return Err(format!("event {i} goes back in time"));
            }
            if event.at_us > self.duration_us {
                return Err(format!("event {i} is outside the probe interval"));
            }
            last_at = event.at_us;
            match &event.kind {
                TraceEventKind::Enter { span, .. } => stack.push((*span, event.at_us)),
                TraceEventKind::Exit { span, .. } => {
                    let Some((open, opened_at)) = stack.pop() else {
                        return Err(format!("event {i} exits with no open span"));
                    };
                    if open != *span {
                        return Err(format!("event {i} exits {:?} while {open:?} is open", span));
                    }
                    if event.at_us < opened_at {
                        return Err(format!("event {i} closes before it opened"));
                    }
                }
            }
        }
        if let Some((open, _)) = stack.last() {
            return Err(format!("span {open:?} never closed"));
        }
        Ok(())
    }

    /// Serialise the record onto one line of the checkpoint wire form:
    ///
    /// ```text
    /// <phase> <host> <day> <test> <extra> <seq> <duration_us> <event>...
    /// ```
    ///
    /// with each event either `+span@at[=label]` (enter) or
    /// `-span@at=outcome` (exit); labels and outcomes are percent-escaped
    /// so the line stays whitespace-delimited.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        self.write_wire(&mut out);
        out
    }

    /// Append the [`ProbeRecord::to_wire`] form to `out`, escaping in
    /// place.
    pub fn write_wire(&self, out: &mut String) {
        let _ = write!(
            out,
            "{} {} {} {} {} {} {}",
            self.phase.label(),
            self.host,
            self.day,
            self.test,
            self.extra,
            self.seq,
            self.duration_us,
        );
        for event in &self.events {
            match &event.kind {
                TraceEventKind::Enter { span, label } => {
                    let _ = write!(out, " +{}@{}", span.name(), event.at_us);
                    if let Some(label) = label {
                        out.push('=');
                        escape_field_into(out, label);
                    }
                }
                TraceEventKind::Exit { span, outcome } => {
                    let _ = write!(out, " -{}@{}=", span.name(), event.at_us);
                    escape_field_into(out, outcome);
                }
            }
        }
    }

    /// Parse one [`ProbeRecord::to_wire`] line. Exit outcomes are
    /// re-interned through [`intern_outcome`], so the restored record
    /// compares equal to the live-recorded original.
    pub fn from_wire(line: &str) -> Result<ProbeRecord, String> {
        let mut fields = line.split(' ');
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| format!("trace record: missing {what}"))
        };
        let phase = next("phase")?;
        let phase = Phase::parse_label(phase).ok_or_else(|| format!("bad phase {phase:?}"))?;
        let host = parse_num(next("host")?, "host")?;
        let day = parse_num(next("day")?, "day")?;
        let test = parse_num(next("test")?, "test")?;
        let extra = parse_num(next("extra")?, "extra")?;
        let seq = parse_num(next("seq")?, "seq")?;
        let duration_us = parse_num(next("duration_us")?, "duration_us")?;
        let mut events = Vec::new();
        for field in fields {
            let (enter, rest) = if let Some(rest) = field.strip_prefix('+') {
                (true, rest)
            } else if let Some(rest) = field.strip_prefix('-') {
                (false, rest)
            } else {
                return Err(format!("bad event field {field:?}"));
            };
            let (span, rest) = rest
                .split_once('@')
                .ok_or_else(|| format!("bad event field {field:?}"))?;
            let span = SpanKind::parse_name(span).ok_or_else(|| format!("bad span {span:?}"))?;
            let (at, detail) = match rest.split_once('=') {
                Some((at, detail)) => (at, Some(detail)),
                None => (rest, None),
            };
            let at_us = parse_num(at, "event time")?;
            let kind = if enter {
                TraceEventKind::Enter {
                    span,
                    label: detail.map(unescape_field),
                }
            } else {
                let outcome = detail.ok_or_else(|| format!("exit without outcome: {field:?}"))?;
                TraceEventKind::Exit {
                    span,
                    outcome: intern_outcome(&unescape_field(outcome)),
                }
            };
            events.push(TraceEvent { at_us, kind });
        }
        Ok(ProbeRecord {
            phase,
            host,
            day,
            test,
            extra,
            seq,
            duration_us,
            events,
        })
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Percent-escape a free-form field into pure printable ASCII with no
/// whitespace or separator bytes: `%`, space, `=`, control characters,
/// and every non-ASCII byte become `%XX`.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_field_into(&mut out, s);
    out
}

/// Append the [`escape_field`] form of `s` to `out`. A field with nothing
/// to escape is copied in one piece.
pub fn escape_field_into(out: &mut String, s: &str) {
    let needs_escape = |b: u8| matches!(b, b'%' | b' ' | b'=' | 0..=0x1f | 0x7f..);
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        return;
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for b in s.bytes() {
        if needs_escape(b) {
            out.push('%');
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push(char::from(b));
        }
    }
}

/// Undo [`escape_field`]. Malformed escapes pass through literally.
pub fn unescape_field(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let escaped = (bytes[i] == b'%' && i + 3 <= bytes.len())
            .then(|| std::str::from_utf8(&bytes[i + 1..i + 3]).ok())
            .flatten()
            .and_then(|hex| u8::from_str_radix(hex, 16).ok());
        match escaped {
            Some(b) => {
                out.push(b);
                i += 3;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[derive(Debug, Default)]
struct TraceBuf {
    phase: Option<Phase>,
    seq: HashMap<(Phase, u32, u16, u8, u32), u32>,
    open: Option<OpenProbe>,
    records: Vec<ProbeRecord>,
}

#[derive(Debug)]
struct OpenProbe {
    start: SimTime,
    record: ProbeRecord,
}

impl TraceBuf {
    fn close_open(&mut self, now: SimTime) {
        if let Some(mut open) = self.open.take() {
            open.record.duration_us = now.since(open.start).as_micros();
            self.records.push(open.record);
        }
    }
}

/// A cheap-to-clone recording handle threaded through `ProbeContext`
/// into the resolver, the SMTP driver, the retry loop, and the fault
/// layer. All clones append into one per-worker buffer.
///
/// A disabled tracer (the default) holds nothing; every method returns
/// immediately without formatting or allocating.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A tracer honouring `config`: recording when enabled, a free
    /// no-op handle otherwise.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            inner: config
                .enabled
                .then(|| Arc::new(Mutex::new(TraceBuf::default()))),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Set the campaign phase stamped onto subsequently opened probes.
    pub fn set_phase(&self, phase: Phase) {
        if let Some(inner) = &self.inner {
            inner.lock().phase = Some(phase);
        }
    }

    /// Open a probe span for the given probe identity at `now`.
    /// Subsequent child spans and the closing [`Tracer::end_probe`] are
    /// stamped relative to this instant.
    pub fn begin_probe(&self, now: SimTime, host: u32, day: u16, test: u8, extra: u32) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.lock();
        // Defensive: a dangling open probe is finalised rather than lost.
        buf.close_open(now);
        let phase = buf.phase.unwrap_or(Phase::Initial);
        let seq_slot = buf.seq.entry((phase, host, day, test, extra)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        buf.open = Some(OpenProbe {
            start: now,
            record: ProbeRecord {
                phase,
                host,
                day,
                test,
                extra,
                seq,
                duration_us: 0,
                events: Vec::new(),
            },
        });
    }

    /// Close the open probe span at `now`.
    pub fn end_probe(&self, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        inner.lock().close_open(now);
    }

    /// Open a child span. Events outside an open probe are dropped —
    /// background resolver traffic has no identity to merge under.
    pub fn enter(&self, now: SimTime, span: SpanKind) {
        self.push(now, |_| TraceEventKind::Enter { span, label: None });
    }

    /// Open a child span with a lazily built label. The closure runs
    /// only when the tracer is enabled *and* a probe is open, so the
    /// disabled path never pays for the formatting.
    pub fn enter_labeled(&self, now: SimTime, span: SpanKind, label: impl FnOnce() -> String) {
        self.push(now, |_| TraceEventKind::Enter {
            span,
            label: Some(label()),
        });
    }

    /// Close the innermost open span with an outcome tag.
    pub fn exit(&self, now: SimTime, span: SpanKind, outcome: &'static str) {
        self.push(now, |_| TraceEventKind::Exit { span, outcome });
    }

    #[inline]
    fn push(&self, now: SimTime, make: impl FnOnce(&ProbeRecord) -> TraceEventKind) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.lock();
        let Some(open) = buf.open.as_mut() else {
            return;
        };
        let at_us = now.since(open.start).as_micros();
        let kind = make(&open.record);
        open.record.events.push(TraceEvent { at_us, kind });
    }

    /// Drain everything recorded so far into a normalised [`Trace`]
    /// (records sorted in identity order). The handle stays usable.
    pub fn finish(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut buf = inner.lock();
        let records = std::mem::take(&mut buf.records);
        buf.seq.clear();
        buf.open = None;
        let mut trace = Trace { records };
        trace.normalize();
        trace
    }
}

/// A finished trace: probe records in canonical identity order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The records, sorted by `(phase, host, day, test, extra, seq)`.
    pub records: Vec<ProbeRecord>,
}

impl Trace {
    /// Sort records into identity order.
    fn normalize(&mut self) {
        self.records.sort_by_key(ProbeRecord::key);
    }

    /// Merge per-shard traces. Because the result is sorted by probe
    /// identity (which is unique across shards — each host lives on
    /// exactly one), the merged trace is byte-identical to the
    /// sequential engine's for the same campaign.
    pub fn merge(parts: impl IntoIterator<Item = Trace>) -> Trace {
        let mut merged = Trace::default();
        for part in parts {
            merged.records.extend(part.records);
        }
        merged.normalize();
        merged
    }

    /// Number of probe records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialise as JSONL: one `probe` object per record followed by one
    /// object per event. Fully deterministic — hand-formatted with keys
    /// in fixed order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let _ = writeln!(
                out,
                "{{\"type\":\"probe\",\"phase\":\"{}\",\"host\":{},\"day\":{},\
                 \"test\":\"{}\",\"extra\":{},\"seq\":{},\"duration_us\":{}}}",
                record.phase.label(),
                record.host,
                record.day,
                record.test_name(),
                record.extra,
                record.seq,
                record.duration_us,
            );
            for event in &record.events {
                match &event.kind {
                    TraceEventKind::Enter { span, label } => {
                        let _ = write!(
                            out,
                            "{{\"type\":\"enter\",\"span\":\"{}\",\"at_us\":{}",
                            span.name(),
                            event.at_us,
                        );
                        if let Some(label) = label {
                            let _ = write!(out, ",\"label\":\"{}\"", escape_json(label));
                        }
                        out.push_str("}\n");
                    }
                    TraceEventKind::Exit { span, outcome } => {
                        let _ = writeln!(
                            out,
                            "{{\"type\":\"exit\",\"span\":\"{}\",\"at_us\":{},\
                             \"outcome\":\"{}\"}}",
                            span.name(),
                            event.at_us,
                            outcome,
                        );
                    }
                }
            }
        }
        out
    }

    /// The aggregated latency profile.
    pub fn profile(&self) -> Profile {
        let mut profile = Profile::default();
        for record in &self.records {
            profile.add_record(record);
        }
        profile
    }

    /// Collapsed-stack output of [`Trace::profile`].
    pub fn to_collapsed(&self) -> String {
        self.profile().to_collapsed()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregated totals for one stack path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileRow {
    /// Spans observed on this path.
    pub count: u64,
    /// Cumulative simulated microseconds (span durations summed).
    pub total_us: u64,
    /// Self time: cumulative minus time spent in child spans.
    pub self_us: u64,
    /// Distribution of individual span durations.
    pub hist: Histogram,
}

impl ProfileRow {
    fn add(&mut self, total_us: u64, self_us: u64) {
        self.count += 1;
        self.total_us += total_us;
        self.self_us += self_us;
        self.hist.record(total_us);
    }

    fn merged(&self, other: &ProfileRow) -> ProfileRow {
        ProfileRow {
            count: self.count + other.count,
            total_us: self.total_us + other.total_us,
            self_us: self.self_us + other.self_us,
            hist: self.hist.merge(&other.hist),
        }
    }
}

/// Where the simulated makespan went: cumulative and self time per stack
/// path, plus a per-phase histogram of whole-probe latencies.
///
/// Merging is associative and commutative (every field is a sum or a
/// histogram merge), so per-shard or per-record profiles combine in any
/// order — `tests/props.rs` pins this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Per-path totals, keyed by `probe;...` stack paths.
    rows: BTreeMap<String, ProfileRow>,
    /// Whole-probe duration distribution per campaign phase.
    phases: BTreeMap<Phase, Histogram>,
}

impl Profile {
    /// Fold one probe record into the profile.
    fn add_record(&mut self, record: &ProbeRecord) {
        self.phases
            .entry(record.phase)
            .or_default()
            .record(record.duration_us);
        // Walk the event stream with a span stack; `child_us` accumulates
        // direct children's durations for self-time subtraction.
        let mut stack: Vec<(SpanKind, u64, u64)> = Vec::new();
        let mut probe_child_us = 0u64;
        for event in &record.events {
            match &event.kind {
                TraceEventKind::Enter { span, .. } => stack.push((*span, event.at_us, 0)),
                TraceEventKind::Exit { .. } => {
                    let Some((kind, opened_at, child_us)) = stack.pop() else {
                        continue;
                    };
                    let total = event.at_us.saturating_sub(opened_at);
                    let mut path = String::from("probe");
                    for (parent, _, _) in &stack {
                        path.push(';');
                        path.push_str(parent.name());
                    }
                    path.push(';');
                    path.push_str(kind.name());
                    self.rows
                        .entry(path)
                        .or_default()
                        .add(total, total.saturating_sub(child_us));
                    match stack.last_mut() {
                        Some(parent) => parent.2 += total,
                        None => probe_child_us += total,
                    }
                }
            }
        }
        self.rows.entry("probe".to_string()).or_default().add(
            record.duration_us,
            record.duration_us.saturating_sub(probe_child_us),
        );
    }

    /// The per-path rows in path order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &ProfileRow)> {
        self.rows.iter().map(|(path, row)| (path.as_str(), row))
    }

    /// The per-phase whole-probe latency histograms, in phase order.
    pub fn phases(&self) -> impl Iterator<Item = (&Phase, &Histogram)> {
        self.phases.iter()
    }

    /// Total probes profiled.
    pub fn probe_count(&self) -> u64 {
        self.rows.get("probe").map_or(0, |row| row.count)
    }

    /// Combine two profiles path-by-path and phase-by-phase.
    #[must_use]
    pub fn merge(&self, other: &Profile) -> Profile {
        let mut rows = self.rows.clone();
        for (path, row) in &other.rows {
            match rows.get_mut(path) {
                Some(existing) => *existing = existing.merged(row),
                None => {
                    rows.insert(path.clone(), row.clone());
                }
            }
        }
        let mut phases = self.phases.clone();
        for (phase, hist) in &other.phases {
            match phases.get_mut(phase) {
                Some(existing) => *existing = existing.merge(hist),
                None => {
                    phases.insert(*phase, hist.clone());
                }
            }
        }
        Profile { rows, phases }
    }

    /// Collapsed-stack (flamegraph-compatible) output: one
    /// `frame;frame;... self_us` line per path with nonzero self time,
    /// in path order.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, row) in &self.rows {
            if row.self_us > 0 {
                let _ = writeln!(out, "{path} {}", row.self_us);
            }
        }
        out
    }
}

/// Parse collapsed-stack text back into `(path, count)` pairs — the
/// round-trip counterpart of [`Profile::to_collapsed`], also handy for
/// feeding externally produced stacks into comparisons.
pub fn parse_collapsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (path, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count field", i + 1))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: bad count {count:?}", i + 1))?;
        out.push((path.to_string(), count));
    }
    Ok(out)
}

/// Render a microsecond total the way the rest of the stack prints
/// simulated durations.
pub fn format_us(us: u64) -> String {
    SimDuration::from_micros(us).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_netsim::SimClock;

    fn micros(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// One probe with an smtp_session containing a dns_resolve.
    fn sample_trace() -> Trace {
        let tracer = Tracer::new(TraceConfig::enabled());
        let clock = SimClock::new();
        tracer.set_phase(Phase::Initial);
        tracer.begin_probe(clock.now(), 7, 0, 0, 0);
        tracer.enter(clock.now(), SpanKind::SmtpSession);
        clock.advance(micros(10));
        tracer.enter_labeled(clock.now(), SpanKind::DnsResolve, || "TXT spf.test".into());
        clock.advance(micros(30));
        tracer.exit(clock.now(), SpanKind::DnsResolve, "ok");
        clock.advance(micros(5));
        tracer.exit(clock.now(), SpanKind::SmtpSession, "nomsg_completed");
        clock.advance(micros(2));
        tracer.end_probe(clock.now());
        tracer.finish()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let clock = SimClock::new();
        tracer.set_phase(Phase::Snapshot);
        tracer.begin_probe(clock.now(), 1, 0, 0, 0);
        tracer.enter(clock.now(), SpanKind::SmtpSession);
        tracer.exit(clock.now(), SpanKind::SmtpSession, "ok");
        tracer.end_probe(clock.now());
        assert!(!tracer.is_enabled());
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn events_are_probe_relative_and_validate() {
        let trace = sample_trace();
        assert_eq!(trace.len(), 1);
        let record = &trace.records[0];
        assert_eq!(record.duration_us, 47);
        assert_eq!(record.events[0].at_us, 0);
        assert_eq!(record.events[1].at_us, 10);
        assert_eq!(record.events[2].at_us, 40);
        assert_eq!(record.events[3].at_us, 45);
        record.validate().expect("well-formed record");
    }

    #[test]
    fn events_outside_probes_are_dropped() {
        let tracer = Tracer::new(TraceConfig::enabled());
        let clock = SimClock::new();
        tracer.enter(clock.now(), SpanKind::DnsResolve);
        tracer.exit(clock.now(), SpanKind::DnsResolve, "ok");
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn merge_sorts_by_identity_not_arrival() {
        let make = |host: u32, phase: Phase| {
            let tracer = Tracer::new(TraceConfig::enabled());
            let clock = SimClock::new();
            tracer.set_phase(phase);
            tracer.begin_probe(clock.now(), host, 0, 0, 0);
            clock.advance(micros(1));
            tracer.end_probe(clock.now());
            tracer.finish()
        };
        let merged = Trace::merge([
            make(9, Phase::Snapshot),
            make(4, Phase::Initial),
            make(2, Phase::Round(15)),
            make(1, Phase::Round(17)),
        ]);
        let keys: Vec<(Phase, u32)> = merged.records.iter().map(|r| (r.phase, r.host)).collect();
        assert_eq!(
            keys,
            vec![
                (Phase::Initial, 4),
                (Phase::Round(15), 2),
                (Phase::Round(17), 1),
                (Phase::Snapshot, 9),
            ]
        );
    }

    #[test]
    fn repeat_probes_get_sequence_numbers() {
        let tracer = Tracer::new(TraceConfig::enabled());
        let clock = SimClock::new();
        tracer.set_phase(Phase::Snapshot);
        for _ in 0..2 {
            tracer.begin_probe(clock.now(), 3, 126, 1, 0);
            clock.advance(micros(10));
            tracer.end_probe(clock.now());
        }
        let trace = tracer.finish();
        assert_eq!(trace.records[0].seq, 0);
        assert_eq!(trace.records[1].seq, 1);
    }

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let trace = sample_trace();
        let jsonl = trace.to_jsonl();
        assert!(jsonl.starts_with(
            "{\"type\":\"probe\",\"phase\":\"initial\",\"host\":7,\"day\":0,\
             \"test\":\"nomsg\",\"extra\":0,\"seq\":0,\"duration_us\":47}\n"
        ));
        assert!(jsonl.contains("\"label\":\"TXT spf.test\""));
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn wire_form_round_trips() {
        let trace = sample_trace();
        for record in &trace.records {
            let line = record.to_wire();
            assert!(!line.contains('\n'));
            let back = ProbeRecord::from_wire(&line).expect("parses");
            assert_eq!(&back, record);
        }
        // Labels with separator bytes survive the escaping.
        let mut record = trace.records[0].clone();
        record.events[1] = TraceEvent {
            at_us: 10,
            kind: TraceEventKind::Enter {
                span: SpanKind::DnsResolve,
                label: Some("TXT sp%f =weird\nlabel\u{fc}".into()),
            },
        };
        let back = ProbeRecord::from_wire(&record.to_wire()).expect("parses");
        assert_eq!(back, record);
        // Malformed lines are rejected, not misparsed.
        assert!(ProbeRecord::from_wire("initial 1 0 0 0").is_err());
        assert!(ProbeRecord::from_wire("nonsense 1 0 0 0 0 0").is_err());
        assert!(ProbeRecord::from_wire("initial 1 0 0 0 0 0 ~what@3").is_err());
        assert!(ProbeRecord::from_wire("initial 1 0 0 0 0 0 -fault@3").is_err());
    }

    /// Escaping in place appends exactly the form `escape_field` returns,
    /// and unescaping inverts it.
    #[test]
    fn escape_in_place_appends_the_escaped_field() {
        for (field, escaped) in [
            ("plain.label", "plain.label"),
            ("TXT sp%f =x", "TXT%20sp%25f%20%3dx"),
            ("tab\tnl\n\u{7f}\u{fc}", "tab%09nl%0a%7f%c3%bc"),
            ("", ""),
        ] {
            let mut out = String::from("head ");
            escape_field_into(&mut out, field);
            assert_eq!(out, format!("head {escaped}"));
            assert_eq!(escape_field(field), escaped);
            assert_eq!(unescape_field(escaped), field);
        }
    }

    #[test]
    fn outcome_interning_covers_the_vocabulary() {
        for outcome in ["ok", "nomsg_completed", "greylisted", "window_closed"] {
            // The interned pointer is the canonical constant, so restored
            // records compare equal to live ones even under pointer-based
            // shortcuts.
            assert_eq!(intern_outcome(&String::from(outcome)), outcome);
        }
        assert_eq!(intern_outcome("never_seen_before"), "never_seen_before");
    }

    #[test]
    fn phase_and_span_labels_round_trip() {
        for phase in [
            Phase::Initial,
            Phase::Round(15),
            Phase::Round(126),
            Phase::Snapshot,
        ] {
            assert_eq!(Phase::parse_label(&phase.label()), Some(phase));
        }
        assert_eq!(Phase::parse_label("round-dX"), None);
        for span in [
            SpanKind::DnsResolve,
            SpanKind::SmtpSession,
            SpanKind::RetryWait,
            SpanKind::GreylistWait,
            SpanKind::Fault,
        ] {
            assert_eq!(SpanKind::parse_name(span.name()), Some(span));
        }
        assert_eq!(SpanKind::parse_name("other"), None);
    }

    #[test]
    fn profile_attributes_self_and_cumulative_time() {
        let profile = sample_trace().profile();
        let rows: BTreeMap<&str, &ProfileRow> = profile.rows().collect();
        assert_eq!(rows["probe"].total_us, 47);
        assert_eq!(rows["probe"].self_us, 2, "47 - 45 in smtp_session");
        assert_eq!(rows["probe;smtp_session"].total_us, 45);
        assert_eq!(rows["probe;smtp_session"].self_us, 15, "45 - 30 in dns");
        assert_eq!(rows["probe;smtp_session;dns_resolve"].self_us, 30);
        let phases: Vec<_> = profile.phases().collect();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].1.count(), 1);
        assert_eq!(profile.probe_count(), 1);
    }

    #[test]
    fn collapsed_output_round_trips() {
        let profile = sample_trace().profile();
        let collapsed = profile.to_collapsed();
        let parsed = parse_collapsed(&collapsed).expect("parses");
        let expected: Vec<(String, u64)> = profile
            .rows()
            .filter(|(_, row)| row.self_us > 0)
            .map(|(path, row)| (path.to_string(), row.self_us))
            .collect();
        assert_eq!(parsed, expected);
        assert!(parse_collapsed("probe notanumber").is_err());
    }

    #[test]
    fn profile_merge_has_identity() {
        let profile = sample_trace().profile();
        assert_eq!(profile.merge(&Profile::default()), profile);
        assert_eq!(Profile::default().merge(&profile), profile);
    }
}
