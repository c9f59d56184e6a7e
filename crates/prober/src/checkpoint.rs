//! The serialisable campaign state behind [`Session`](crate::Session)
//! checkpointing.
//!
//! [`CampaignState`] is the complete durable-state inventory of a
//! campaign at a round boundary (see the [`crate::session`] module docs
//! for why this list is exhaustive): configuration, world identity,
//! stage progress, the sweep results so far, each worker's
//! clock/ethics/metrics/blacklist counters, and the trace records
//! emitted so far. Probe-repetition counters are absent: a worker drops
//! them at the end of every sweep, so none is live at a boundary.
//! Workers live from the initial sweep to the snapshot, so every audit
//! and network counter of the campaign so far sits in some worker's
//! state.
//!
//! The on-disk form (`spfail-checkpoint v4`) is a hand-rolled
//! line-oriented text format — one `keyword operand…` line per fact,
//! every collection in canonical (sorted) order, floats as their exact
//! IEEE-754 bit patterns — so a state round-trips bit-for-bit without a
//! JSON parser dependency and diffs of two checkpoints are meaningful.
//! [`CampaignState::to_text`] and [`CampaignState::parse`] are exact
//! inverses. The two record columns that grow with the campaign are
//! written by position, never naming a host: a round is one line,
//! `round <day> <status bytes>`, one `v`/`p`/`i` byte per tracked host
//! in host order, and a worker's blacklist counters are one line,
//! `wcounts n n …`, one per host of its partition of the tracked set.
//! Both sets follow from the sweep record, so
//! [`Session::from_state`](crate::Session::from_state) checks each
//! column's length against them.
//!
//! The codec is allocation-light, and its bytes are pinned by golden
//! digests (`tests/session_checkpoint.rs`). `to_text` sizes one buffer
//! up front and writes numbers and tokens straight into it, escaping ids
//! in place. `parse` reuses one token buffer for every line, reads a
//! `round` or `wcounts` line into its column in place, and counts each
//! run of same-kind per-host lines before allocating its column, so
//! beyond a few fixed buffers it allocates only what the parsed state
//! owns.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::IpAddr;

use spfail_libspf2::MacroBehavior;
use spfail_netsim::{
    decimal, FaultPlan, FaultProfile, FlakyWindow, MetricsSnapshot, ProbeError, SimDuration,
    SimTime,
};
use spfail_smtp::client::TransactionOutcome;
use spfail_trace::{escape_field_into, unescape_field, ProbeRecord, TraceConfig};
use spfail_world::{HostId, Timeline};

use crate::aggregate::HostMask;
use crate::campaign::{CampaignBuilder, HostInitialResult, RoundStatus};
use crate::classify::Classification;
use crate::probe::{ProbeOptions, ProbeOutcome, ProbeTest, RetryPolicy};
use crate::session::SessionStats;
use crate::EthicsAudit;

/// The durable state of one live probing worker at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerState {
    /// The worker's simulated clock, in microseconds since the epoch.
    pub clock_micros: u64,
    /// The worker's ethics audit counters.
    pub ethics: EthicsAudit,
    /// The worker's per-address last-contact history, address-sorted.
    pub contacts: Vec<(IpAddr, SimTime)>,
    /// The worker's network counters.
    pub metrics: MetricsSnapshot,
    /// The worker's per-host attempt counts (blacklist counters): one
    /// per host of its partition of the tracked set, in partition (host)
    /// order. The hosts themselves are not stored: the partition is a
    /// pure function of the tracked set and the shard count.
    pub counts: Vec<u32>,
}

/// Everything a [`Session`](crate::Session) needs to continue from a
/// round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// The campaign configuration (shards, faults, retry, trace,
    /// incremental).
    pub builder: CampaignBuilder,
    /// Seed of the world the session ran against.
    pub world_seed: u64,
    /// Scale of the world the session ran against.
    pub world_scale: f64,
    /// Longitudinal rounds completed.
    pub rounds_done: usize,
    /// Simulated busy time of the initial sweep.
    pub initial_busy: SimDuration,
    /// Simulated busy time of the rounds so far.
    pub rounds_busy: SimDuration,
    /// Probe-volume counters so far.
    pub stats: SessionStats,
    /// Streaming sessions only: the initial sweep compressed to one
    /// [`HostMask`] per host (index = host id), written as a versioned
    /// `aggregate v1` section. When present, `initial` is empty — the
    /// masks are the sweep's record. Checkpoints without the section
    /// (every eager checkpoint, and every file written before the
    /// section existed) parse exactly as before.
    pub masks: Option<Vec<u32>>,
    /// The initial sweep's per-host results, host-sorted.
    pub initial: Vec<(HostId, HostInitialResult)>,
    /// Completed rounds: `(day, statuses)`, one status per tracked host
    /// by tracked position. The hosts themselves are not stored: the
    /// tracked set is derived from the sweep record.
    pub rounds: Vec<(u16, Vec<RoundStatus>)>,
    /// The workers' durable state, one per shard, in shard order.
    pub workers: Vec<WorkerState>,
    /// Every trace record emitted so far (empty when tracing is off).
    pub trace_records: Vec<ProbeRecord>,
}

/// The header line. v2 dropped v1's campaign-level audit/network totals
/// and merged connection counts: every worker now lives from the
/// initial sweep on, so its own state carries them. v3 dropped v2's
/// per-worker `wocc` probe-repetition counters: a worker forgets them
/// once a sweep is done with them, so none is live at a round boundary.
/// v4 writes each round as one `round` line of status bytes and each
/// worker's blacklist counters as one `wcounts` line, both by position,
/// where v3 wrote one `st` or `wcount` line per host naming it.
const MAGIC: &str = "spfail-checkpoint v4";

/// Headers of the formats this build no longer reads; each is refused
/// by version rather than misparsed.
const RETIRED: [&str; 3] = [
    "spfail-checkpoint v1",
    "spfail-checkpoint v2",
    "spfail-checkpoint v3",
];

/// Append `v` as `width` lowercase hex digits (its low `4 * width` bits).
fn push_hex(out: &mut String, v: u64, width: u32) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..width).rev() {
        out.push(char::from(HEX[((v >> (4 * shift)) & 0xf) as usize]));
    }
}

/// Append a float as its 16-hex-digit IEEE-754 bit pattern.
fn push_f64(out: &mut String, v: f64) {
    push_hex(out, v.to_bits(), 16);
}

/// Append `n` in decimal, without going through the formatter.
fn push_dec(out: &mut String, n: impl Into<u64>) {
    out.extend(
        decimal(n.into(), &mut [0; 20])
            .iter()
            .map(|&d| char::from(d)),
    );
}

/// Append an address in its `Display` form, an IPv4 one octet by octet.
fn push_ip(out: &mut String, ip: &IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            for (i, octet) in v4.octets().into_iter().enumerate() {
                if i > 0 {
                    out.push('.');
                }
                push_dec(out, octet);
            }
        }
        IpAddr::V6(v6) => {
            let _ = write!(out, "{v6}");
        }
    }
}

/// The number of decimal digits [`push_dec`] writes for `n`.
fn dec_len(n: impl Into<u64>) -> usize {
    n.into().checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern {tok:?}"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
}

fn bool01(v: bool) -> &'static str {
    if v {
        "1"
    } else {
        "0"
    }
}

fn parse_bool01(tok: &str) -> Result<bool, String> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad flag {tok:?} (want 0 or 1)")),
    }
}

fn behavior_token(b: MacroBehavior) -> &'static str {
    match b {
        MacroBehavior::Compliant => "compliant",
        MacroBehavior::VulnerableLibSpf2 => "vulnerable_libspf2",
        MacroBehavior::PatchedLibSpf2 => "patched_libspf2",
        MacroBehavior::NoExpansion => "no_expansion",
        MacroBehavior::ReverseNoTruncate => "reverse_no_truncate",
        MacroBehavior::TruncateNoReverse => "truncate_no_reverse",
        MacroBehavior::IgnoreTransformers => "ignore_transformers",
        MacroBehavior::EmptyExpansion => "empty_expansion",
        MacroBehavior::MacroUnsupported => "macro_unsupported",
    }
}

fn parse_behavior(tok: &str) -> Result<MacroBehavior, String> {
    Ok(match tok {
        "compliant" => MacroBehavior::Compliant,
        "vulnerable_libspf2" => MacroBehavior::VulnerableLibSpf2,
        "patched_libspf2" => MacroBehavior::PatchedLibSpf2,
        "no_expansion" => MacroBehavior::NoExpansion,
        "reverse_no_truncate" => MacroBehavior::ReverseNoTruncate,
        "truncate_no_reverse" => MacroBehavior::TruncateNoReverse,
        "ignore_transformers" => MacroBehavior::IgnoreTransformers,
        "empty_expansion" => MacroBehavior::EmptyExpansion,
        "macro_unsupported" => MacroBehavior::MacroUnsupported,
        _ => return Err(format!("unknown macro behaviour {tok:?}")),
    })
}

/// A transaction outcome's token as fixed pieces plus its reply code:
/// `connect:550`, `transient:mail:451`, `reset`, …
fn transaction_parts(t: &TransactionOutcome) -> ([&'static str; 3], Option<u16>) {
    match *t {
        TransactionOutcome::RejectedAtConnect(c) => (["connect:", "", ""], Some(c)),
        TransactionOutcome::RejectedAtHello(c) => (["hello:", "", ""], Some(c)),
        TransactionOutcome::RejectedAtMailFrom(c) => (["mailfrom:", "", ""], Some(c)),
        TransactionOutcome::RejectedAtRcpt(c) => (["rcpt:", "", ""], Some(c)),
        TransactionOutcome::RejectedAtData(c) => (["data:", "", ""], Some(c)),
        TransactionOutcome::Transient { stage, code } => (["transient:", stage, ":"], Some(code)),
        TransactionOutcome::ConnectionReset => (["reset", "", ""], None),
        TransactionOutcome::NoMsgCompleted => (["nomsg", "", ""], None),
        TransactionOutcome::MessageAccepted(c) => (["accepted:", "", ""], Some(c)),
        TransactionOutcome::MessageRejected(c) => (["rejected:", "", ""], Some(c)),
    }
}

fn parse_transaction(tok: &str) -> Result<TransactionOutcome, String> {
    let mut parts = tok.split(':');
    let head = parts.next().unwrap_or_default();
    let code = |p: Option<&str>| -> Result<u16, String> {
        parse_num(p.ok_or_else(|| format!("missing code in {tok:?}"))?, "code")
    };
    Ok(match head {
        "connect" => TransactionOutcome::RejectedAtConnect(code(parts.next())?),
        "hello" => TransactionOutcome::RejectedAtHello(code(parts.next())?),
        "mailfrom" => TransactionOutcome::RejectedAtMailFrom(code(parts.next())?),
        "rcpt" => TransactionOutcome::RejectedAtRcpt(code(parts.next())?),
        "data" => TransactionOutcome::RejectedAtData(code(parts.next())?),
        "transient" => {
            let stage = match parts.next() {
                // The stage is a `&'static str` in the outcome; intern
                // the known vocabulary.
                Some("connect") => "connect",
                Some("mail") => "mail",
                Some("rcpt") => "rcpt",
                Some("data") => "data",
                other => return Err(format!("unknown transient stage {other:?}")),
            };
            TransactionOutcome::Transient {
                stage,
                code: code(parts.next())?,
            }
        }
        "reset" => TransactionOutcome::ConnectionReset,
        "nomsg" => TransactionOutcome::NoMsgCompleted,
        "accepted" => TransactionOutcome::MessageAccepted(code(parts.next())?),
        "rejected" => TransactionOutcome::MessageRejected(code(parts.next())?),
        _ => return Err(format!("unknown transaction outcome {tok:?}")),
    })
}

/// A probe error's token as a fixed piece plus its reply code:
/// `timeout`, `tempfail:451`, …
fn dns_fault_parts(e: &ProbeError) -> (&'static str, Option<u16>) {
    match *e {
        ProbeError::DnsTimeout => ("timeout", None),
        ProbeError::DnsServFail => ("servfail", None),
        ProbeError::DnsLame => ("lame", None),
        ProbeError::ConnectRefused => ("refused", None),
        ProbeError::ConnectTimeout => ("connect_timeout", None),
        ProbeError::ConnectionReset => ("reset", None),
        ProbeError::SmtpTempFail(c) => ("tempfail:", Some(c)),
        ProbeError::SmtpReject(c) => ("reject:", Some(c)),
    }
}

fn parse_dns_fault(tok: &str) -> Result<ProbeError, String> {
    let (head, code) = match tok.split_once(':') {
        Some((h, c)) => (h, Some(c)),
        None => (tok, None),
    };
    let code = || -> Result<u16, String> {
        parse_num(
            code.ok_or_else(|| format!("missing code in {tok:?}"))?,
            "code",
        )
    };
    Ok(match head {
        "timeout" => ProbeError::DnsTimeout,
        "servfail" => ProbeError::DnsServFail,
        "lame" => ProbeError::DnsLame,
        "refused" => ProbeError::ConnectRefused,
        "connect_timeout" => ProbeError::ConnectTimeout,
        "reset" => ProbeError::ConnectionReset,
        "tempfail" => ProbeError::SmtpTempFail(code()?),
        "reject" => ProbeError::SmtpReject(code()?),
        _ => return Err(format!("unknown probe error {tok:?}")),
    })
}

/// Serialise one probe outcome as six space-free tokens:
/// `id transaction spf_triggered behaviors unknown_patterns dns_fault`.
fn write_outcome(out: &mut String, o: &ProbeOutcome) {
    escape_field_into(out, &o.id);
    out.push(' ');
    match &o.transaction {
        Some(t) => {
            let (pieces, code) = transaction_parts(t);
            for piece in pieces {
                out.push_str(piece);
            }
            if let Some(code) = code {
                push_dec(out, code);
            }
        }
        None => out.push_str("none"),
    }
    out.push(' ');
    out.push_str(bool01(o.classification.spf_triggered));
    out.push(' ');
    if o.classification.behaviors.is_empty() {
        out.push('-');
    }
    for (i, &b) in o.classification.behaviors.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        out.push_str(behavior_token(b));
    }
    out.push(' ');
    push_dec(out, o.classification.unknown_patterns as u64);
    out.push(' ');
    match &o.dns_fault {
        Some(e) => {
            let (piece, code) = dns_fault_parts(e);
            out.push_str(piece);
            if let Some(code) = code {
                push_dec(out, code);
            }
        }
        None => out.push_str("none"),
    }
}

/// The length [`write_outcome`] writes for `o`, exact unless the id
/// needs escaping (engine ids never do).
fn outcome_len(o: &ProbeOutcome) -> usize {
    let transaction = o.transaction.as_ref().map_or(4, |t| {
        let (pieces, code) = transaction_parts(t);
        pieces.iter().map(|p| p.len()).sum::<usize>() + code.map_or(0, dec_len)
    });
    let behaviors = &o.classification.behaviors;
    let behaviors = behaviors
        .iter()
        .map(|&b| behavior_token(b).len() + 1)
        .sum::<usize>()
        .max(2)
        - 1;
    let dns_fault = o.dns_fault.as_ref().map_or(4, |e| {
        let (piece, code) = dns_fault_parts(e);
        piece.len() + code.map_or(0, dec_len)
    });
    o.id.len()
        + transaction
        + 1
        + behaviors
        + dec_len(o.classification.unknown_patterns as u64)
        + dns_fault
        + 5
}

fn parse_outcome(host: HostId, test: ProbeTest, toks: &[&str]) -> Result<ProbeOutcome, String> {
    let [id, txn, spf, behaviors, unknown, dns] = toks else {
        return Err(format!("probe outcome wants 6 tokens, got {}", toks.len()));
    };
    // Inserted one by one: collecting into a set would buffer the
    // tokens in a vector first.
    let mut behavior_set = BTreeSet::new();
    if *behaviors != "-" {
        for tok in behaviors.split('+') {
            behavior_set.insert(parse_behavior(tok)?);
        }
    }
    // An id copies once; only one with an escape goes through unescaping.
    let id = if id.contains('%') {
        unescape_field(id)
    } else {
        (*id).to_owned()
    };
    Ok(ProbeOutcome {
        host,
        test,
        id,
        transaction: match *txn {
            "none" => None,
            t => Some(parse_transaction(t)?),
        },
        classification: Classification {
            spf_triggered: parse_bool01(spf)?,
            behaviors: behavior_set,
            unknown_patterns: parse_num(unknown, "unknown_patterns")?,
        },
        dns_fault: match *dns {
            "none" => None,
            e => Some(parse_dns_fault(e)?),
        },
    })
}

fn status_byte(s: RoundStatus) -> u8 {
    match s {
        RoundStatus::Vulnerable => b'v',
        RoundStatus::Patched => b'p',
        RoundStatus::Inconclusive => b'i',
    }
}

/// A `round` line's status bytes, one per tracked host, as a column.
fn parse_statuses(bytes: &str) -> Result<Vec<RoundStatus>, String> {
    let mut statuses = Vec::with_capacity(bytes.len());
    for (position, b) in bytes.bytes().enumerate() {
        statuses.push(match b {
            b'v' => RoundStatus::Vulnerable,
            b'p' => RoundStatus::Patched,
            b'i' => RoundStatus::Inconclusive,
            _ => {
                return Err(format!(
                    "unknown round status byte {:?} at tracked position {position}",
                    char::from(b)
                ))
            }
        });
    }
    Ok(statuses)
}

/// A `wcounts` line's operands, one blacklist counter per host of the
/// worker's partition, as a column.
fn parse_counts(operands: &str) -> Result<Vec<u32>, String> {
    let mut counts = Vec::with_capacity(operands.bytes().filter(|&b| b == b' ').count() + 1);
    for tok in operands.split(' ').filter(|tok| !tok.is_empty()) {
        counts.push(parse_num(tok, "count")?);
    }
    Ok(counts)
}

fn write_plan(out: &mut String, p: &FaultPlan) {
    let chances = [
        p.refuse_chance,
        p.abort_chance,
        p.drop_chance,
        p.servfail_chance,
        p.truncate_chance,
        p.tempfail_chance,
        p.reset_chance,
    ];
    for (i, chance) in chances.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_f64(out, chance);
    }
}

fn parse_plan(toks: &[&str]) -> Result<FaultPlan, String> {
    let [refuse, abort, drop, servfail, truncate, tempfail, reset] = toks else {
        return Err(format!("fault plan wants 7 tokens, got {}", toks.len()));
    };
    Ok(FaultPlan {
        refuse_chance: parse_f64(refuse)?,
        abort_chance: parse_f64(abort)?,
        drop_chance: parse_f64(drop)?,
        servfail_chance: parse_f64(servfail)?,
        truncate_chance: parse_f64(truncate)?,
        tempfail_chance: parse_f64(tempfail)?,
        reset_chance: parse_f64(reset)?,
    })
}

fn metrics_fields(m: &MetricsSnapshot) -> [u64; 16] {
    [
        m.connections_attempted,
        m.connections_refused,
        m.connections_aborted,
        m.datagrams_sent,
        m.datagrams_dropped,
        m.bytes_sent,
        m.dns_queries,
        m.dns_cache_hits,
        m.dns_truncated,
        m.dns_timeouts,
        m.dns_servfails,
        m.smtp_tempfails,
        m.connection_resets,
        m.window_closed_probes,
        m.probe_retries,
        m.probes_recovered,
    ]
}

/// Append counters separated by single spaces.
fn write_counters(out: &mut String, counters: impl IntoIterator<Item = u64>) {
    for (i, n) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_dec(out, n);
    }
}

fn parse_metrics(toks: &[&str]) -> Result<MetricsSnapshot, String> {
    if toks.len() != 16 {
        return Err(format!("metrics want 16 counters, got {}", toks.len()));
    }
    let mut v = [0u64; 16];
    for (slot, tok) in v.iter_mut().zip(toks) {
        *slot = parse_num(tok, "counter")?;
    }
    Ok(MetricsSnapshot {
        connections_attempted: v[0],
        connections_refused: v[1],
        connections_aborted: v[2],
        datagrams_sent: v[3],
        datagrams_dropped: v[4],
        bytes_sent: v[5],
        dns_queries: v[6],
        dns_cache_hits: v[7],
        dns_truncated: v[8],
        dns_timeouts: v[9],
        dns_servfails: v[10],
        smtp_tempfails: v[11],
        connection_resets: v[12],
        window_closed_probes: v[13],
        probe_retries: v[14],
        probes_recovered: v[15],
    })
}

fn ethics_fields(a: &EthicsAudit) -> [u64; 5] {
    [
        a.immediate,
        a.spaced,
        a.greylist_waits,
        a.dedup_suppressed,
        a.peak_concurrency as u64,
    ]
}

fn parse_ethics(toks: &[&str]) -> Result<EthicsAudit, String> {
    let [immediate, spaced, greylist, dedup, peak] = toks else {
        return Err(format!("ethics audit wants 5 counters, got {}", toks.len()));
    };
    Ok(EthicsAudit {
        immediate: parse_num(immediate, "immediate")?,
        spaced: parse_num(spaced, "spaced")?,
        greylist_waits: parse_num(greylist, "greylist_waits")?,
        dedup_suppressed: parse_num(dedup, "dedup_suppressed")?,
        peak_concurrency: parse_num(peak, "peak_concurrency")?,
    })
}

/// The initial sweep's record as a mask column (index = host id): the
/// `aggregate v1` section `masks`, moved, or the masks of the `init`
/// lines `initial`. Refuses a record that does not cover the world: the
/// `init` lines must name hosts 0, 1, 2, … in order, once each, and when
/// the world's host count is known (`host_count`), the column must hold
/// exactly that many hosts.
pub(crate) fn mask_column(
    masks: Option<Vec<u32>>,
    initial: &[(HostId, HostInitialResult)],
    host_count: Option<usize>,
) -> Result<Vec<u32>, String> {
    let masks = match masks {
        Some(_) if !initial.is_empty() => {
            return Err("checkpoint carries both init lines and an aggregate section".into())
        }
        Some(masks) => masks,
        None => {
            let mut masks = Vec::with_capacity(initial.len());
            for (host, result) in initial {
                if host.0 as usize != masks.len() {
                    return Err(format!(
                        "checkpoint init line names host {} where host {} belongs: \
                         init hosts must ascend from 0, once each",
                        host.0,
                        masks.len()
                    ));
                }
                masks.push(HostMask::from_initial(result).0);
            }
            masks
        }
    };
    match host_count {
        Some(n) if masks.len() != n => Err(format!(
            "checkpoint's initial sweep covers {} hosts, but the world has {n}",
            masks.len()
        )),
        _ => Ok(masks),
    }
}

/// Upper bounds on the lines [`CampaignState::to_text`] writes whose
/// length is not worth computing exactly: every header line together,
/// one worker's fixed lines, the aggregate header, one `wcontact` line.
const HEADER_MAX: usize = 1024;
const WORKER_MAX: usize = 512;
const AGGREGATE_MAX: usize = 40;
const CONTACT_MAX: usize = "wcontact ".len() + 39 + 1 + 20 + 1;

/// Replace `toks` with the space-separated tokens of `operands`, empty
/// ones dropped. A byte scan: splitting on a `char` pattern costs more
/// than the token is long.
fn split_tokens<'a>(operands: &'a str, toks: &mut Vec<&'a str>) {
    toks.clear();
    let mut start = 0;
    for (i, b) in operands.bytes().enumerate() {
        if b == b' ' {
            if i > start {
                toks.push(&operands[start..i]);
            }
            start = i + 1;
        }
    }
    if start < operands.len() {
        toks.push(&operands[start..]);
    }
}

/// How many lines at the start of `text` begin with `prefix`: the length
/// of a run of same-kind lines, so its column can be allocated once.
fn run_len(text: &str, prefix: &str) -> usize {
    text.lines().take_while(|l| l.starts_with(prefix)).count()
}

impl CampaignState {
    /// The length of [`CampaignState::to_text`] without its trace lines:
    /// exact for the per-host lines, an upper bound for the rest, so the
    /// text is written into one allocation.
    fn text_len(&self) -> usize {
        let init: usize = self
            .initial
            .iter()
            .map(|(host, r)| {
                "init ".len()
                    + dec_len(host.0)
                    + 1
                    + outcome_len(&r.nomsg)
                    + r.blankmsg.as_ref().map_or(0, |b| 1 + outcome_len(b))
                    + 1
            })
            .sum();
        let masks = self.masks.as_ref().map_or(0, |masks| {
            AGGREGATE_MAX
                + masks
                    .chunks(64)
                    .enumerate()
                    .map(|(row, chunk)| {
                        "amask ".len() + dec_len((row * 64) as u64) + 9 * chunk.len() + 1
                    })
                    .sum::<usize>()
        });
        let rounds: usize = self
            .rounds
            .iter()
            .map(|(day, statuses)| "round ".len() + dec_len(*day) + 1 + statuses.len() + 1)
            .sum();
        let workers: usize = self
            .workers
            .iter()
            .map(|w| {
                WORKER_MAX
                    + w.contacts.len() * CONTACT_MAX
                    + "wcounts\n".len()
                    + w.counts.iter().map(|&n| 1 + dec_len(n)).sum::<usize>()
            })
            .sum();
        HEADER_MAX + init + masks + rounds + workers
    }

    /// Render the state into its canonical text form.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.text_len());
        let _ = writeln!(out, "{MAGIC}");
        let _ = write!(out, "world {} ", self.world_seed);
        push_f64(&mut out, self.world_scale);
        out.push('\n');
        let b = &self.builder;
        let _ = writeln!(
            out,
            "config {} {} {} {} {}",
            b.shards,
            bool01(b.timed),
            bool01(b.trace.enabled),
            bool01(b.incremental),
            bool01(b.no_policy_cache),
        );
        out.push_str("faults ");
        write_plan(&mut out, &b.options.faults.dns);
        out.push(' ');
        write_plan(&mut out, &b.options.faults.smtp);
        out.push(' ');
        push_f64(&mut out, b.options.faults.flaky_fraction);
        match &b.options.faults.window {
            Some(w) => {
                let _ = write!(out, " window {} ", w.period.as_micros());
                push_f64(&mut out, w.open_fraction);
                let _ = writeln!(out, " {}", w.phase.as_micros());
            }
            None => out.push_str(" nowindow\n"),
        }
        let r = &b.options.retry;
        let _ = write!(
            out,
            "retry {} {} {} ",
            r.max_attempts,
            r.base_backoff.as_micros(),
            r.max_backoff.as_micros(),
        );
        push_f64(&mut out, r.jitter);
        match r.deadline {
            Some(d) => {
                let _ = writeln!(out, " {}", d.as_micros());
            }
            None => out.push_str(" none\n"),
        }
        let _ = writeln!(out, "progress {}", self.rounds_done);
        let _ = writeln!(
            out,
            "busy {} {}",
            self.initial_busy.as_micros(),
            self.rounds_busy.as_micros()
        );
        let _ = writeln!(
            out,
            "stats {} {}",
            self.stats.round_probes_issued, self.stats.round_probes_skipped
        );
        for (host, result) in &self.initial {
            out.push_str("init ");
            push_dec(&mut out, host.0);
            out.push(' ');
            write_outcome(&mut out, &result.nomsg);
            if let Some(blank) = &result.blankmsg {
                out.push(' ');
                write_outcome(&mut out, blank);
            }
            out.push('\n');
        }
        if let Some(masks) = &self.masks {
            // The versioned aggregate section: a declared host count,
            // then rows of up to 64 masks packed as fixed-width hex.
            let _ = writeln!(out, "aggregate v1 {}", masks.len());
            for (row, chunk) in masks.chunks(64).enumerate() {
                out.push_str("amask ");
                push_dec(&mut out, (row * 64) as u64);
                for &m in chunk {
                    out.push(' ');
                    push_hex(&mut out, m.into(), 8);
                }
                out.push('\n');
            }
        }
        for (day, statuses) in &self.rounds {
            out.push_str("round ");
            push_dec(&mut out, *day);
            if !statuses.is_empty() {
                out.push(' ');
                out.extend(statuses.iter().map(|&s| char::from(status_byte(s))));
            }
            out.push('\n');
        }
        for w in &self.workers {
            out.push_str("worker\nwclock ");
            push_dec(&mut out, w.clock_micros);
            out.push_str("\nwethics ");
            write_counters(&mut out, ethics_fields(&w.ethics));
            out.push('\n');
            for (ip, at) in &w.contacts {
                out.push_str("wcontact ");
                push_ip(&mut out, ip);
                out.push(' ');
                push_dec(&mut out, at.as_micros());
                out.push('\n');
            }
            out.push_str("wmetrics ");
            write_counters(&mut out, metrics_fields(&w.metrics));
            out.push('\n');
            out.push_str("wcounts");
            for &n in &w.counts {
                out.push(' ');
                push_dec(&mut out, n);
            }
            out.push('\n');
        }
        for record in &self.trace_records {
            out.push_str("trace ");
            record.write_wire(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse the text form written by [`CampaignState::to_text`].
    ///
    /// One token buffer serves every line, and each run of same-kind
    /// per-host lines is counted before its column is allocated, so the
    /// parse allocates little beyond what the state owns.
    pub fn parse(text: &str) -> Result<CampaignState, String> {
        let (first, mut rest) = match text.split_once('\n') {
            Some((first, rest)) => (first, rest),
            None if text.is_empty() => return Err("empty checkpoint".to_string()),
            None => (text, ""),
        };
        let first = first.strip_suffix('\r').unwrap_or(first);
        if RETIRED.contains(&first) {
            return Err(format!(
                "checkpoint format {first} is no longer readable; \
                 this build reads {MAGIC} (re-run the campaign to write one)"
            ));
        }
        if first != MAGIC {
            return Err(format!("not a checkpoint: first line {first:?}"));
        }
        let mut world: Option<(u64, f64)> = None;
        let mut config: Option<(usize, bool, bool, bool, bool)> = None;
        let mut faults: Option<FaultProfile> = None;
        let mut retry: Option<RetryPolicy> = None;
        let mut rounds_done: Option<usize> = None;
        let mut busy: Option<(SimDuration, SimDuration)> = None;
        let mut stats = SessionStats::default();
        let mut masks: Option<(usize, Vec<u32>)> = None;
        let mut initial = Vec::new();
        let mut rounds: Vec<(u16, Vec<RoundStatus>)> = Vec::new();
        let mut workers: Vec<WorkerState> = Vec::new();
        // Whether the worker being read has had its `wcounts` line.
        let mut counts_seen = false;
        let mut trace_records = Vec::new();
        let mut toks: Vec<&str> = Vec::with_capacity(20);
        let mut number = 1;
        while !rest.is_empty() {
            let (raw, next) = rest.split_once('\n').unwrap_or((rest, ""));
            rest = next;
            number += 1;
            let line = raw.strip_suffix('\r').unwrap_or(raw);
            let err = |msg: String| format!("line {number}: {msg}");
            if line.is_empty() {
                continue;
            }
            let (keyword, operands) = line.split_once(' ').unwrap_or((line, ""));
            // `trace` operands carry their own escaping, and a `round`
            // or `wcounts` line is one column: each is read in place.
            // Everything else splits on single spaces.
            match keyword {
                "trace" => {
                    if trace_records.is_empty() {
                        trace_records.reserve_exact(1 + run_len(rest, "trace "));
                    }
                    trace_records.push(ProbeRecord::from_wire(operands).map_err(err)?);
                    continue;
                }
                "round" => {
                    let (day, statuses) = operands.split_once(' ').unwrap_or((operands, ""));
                    let day = parse_num(day, "day").map_err(err)?;
                    rounds.push((day, parse_statuses(statuses).map_err(err)?));
                    continue;
                }
                "wcounts" => {
                    let Some(w) = workers.last_mut() else {
                        return Err(err("wcounts before any worker".to_string()));
                    };
                    if std::mem::replace(&mut counts_seen, true) {
                        return Err(err("duplicate wcounts line".to_string()));
                    }
                    w.counts = parse_counts(operands).map_err(err)?;
                    continue;
                }
                _ => {}
            }
            split_tokens(operands, &mut toks);
            match keyword {
                "world" => {
                    let [seed, scale] = toks[..] else {
                        return Err(err("world wants seed and scale".to_string()));
                    };
                    world = Some((
                        parse_num(seed, "seed").map_err(err)?,
                        parse_f64(scale).map_err(err)?,
                    ));
                }
                "config" => {
                    let [shards, timed, trace, incremental, no_policy_cache] = toks[..] else {
                        return Err(err("config wants 5 flags".to_string()));
                    };
                    config = Some((
                        parse_num(shards, "shards").map_err(err)?,
                        parse_bool01(timed).map_err(err)?,
                        parse_bool01(trace).map_err(err)?,
                        parse_bool01(incremental).map_err(err)?,
                        parse_bool01(no_policy_cache).map_err(err)?,
                    ));
                }
                "faults" => {
                    if toks.len() < 16 {
                        return Err(err(format!("faults wants ≥16 tokens, got {}", toks.len())));
                    }
                    let dns = parse_plan(&toks[0..7]).map_err(err)?;
                    let smtp = parse_plan(&toks[7..14]).map_err(err)?;
                    let flaky_fraction = parse_f64(toks[14]).map_err(err)?;
                    let window = match toks[15] {
                        "nowindow" => None,
                        "window" => {
                            let [period, open, phase] = toks[16..] else {
                                return Err(err("window wants 3 operands".to_string()));
                            };
                            Some(FlakyWindow {
                                period: SimDuration::from_micros(
                                    parse_num(period, "period").map_err(err)?,
                                ),
                                open_fraction: parse_f64(open).map_err(err)?,
                                phase: SimDuration::from_micros(
                                    parse_num(phase, "phase").map_err(err)?,
                                ),
                            })
                        }
                        other => return Err(err(format!("unknown window form {other:?}"))),
                    };
                    faults = Some(FaultProfile {
                        dns,
                        smtp,
                        flaky_fraction,
                        window,
                    });
                }
                "retry" => {
                    let [attempts, base, max, jitter, deadline] = toks[..] else {
                        return Err(err("retry wants 5 operands".to_string()));
                    };
                    retry = Some(RetryPolicy {
                        max_attempts: parse_num(attempts, "max_attempts").map_err(err)?,
                        base_backoff: SimDuration::from_micros(
                            parse_num(base, "base_backoff").map_err(err)?,
                        ),
                        max_backoff: SimDuration::from_micros(
                            parse_num(max, "max_backoff").map_err(err)?,
                        ),
                        jitter: parse_f64(jitter).map_err(err)?,
                        deadline: match deadline {
                            "none" => None,
                            us => Some(SimDuration::from_micros(
                                parse_num(us, "deadline").map_err(err)?,
                            )),
                        },
                    });
                }
                "progress" => {
                    let [done] = toks[..] else {
                        return Err(err("progress wants 1 operand".to_string()));
                    };
                    let done = parse_num(done, "rounds_done").map_err(err)?;
                    rounds_done = Some(done);
                    // No more rounds than the timeline has are reserved,
                    // whatever the line claims.
                    let timeline = Timeline::window1_days().chain(Timeline::window2_days());
                    rounds.reserve_exact(done.min(timeline.count()));
                }
                "busy" => {
                    let [init, rnds] = toks[..] else {
                        return Err(err("busy wants 2 operands".to_string()));
                    };
                    busy = Some((
                        SimDuration::from_micros(parse_num(init, "initial_busy").map_err(err)?),
                        SimDuration::from_micros(parse_num(rnds, "rounds_busy").map_err(err)?),
                    ));
                }
                "stats" => {
                    let [issued, skipped] = toks[..] else {
                        return Err(err("stats wants 2 operands".to_string()));
                    };
                    stats = SessionStats {
                        round_probes_issued: parse_num(issued, "issued").map_err(err)?,
                        round_probes_skipped: parse_num(skipped, "skipped").map_err(err)?,
                    };
                }
                "init" => {
                    if toks.len() != 7 && toks.len() != 13 {
                        return Err(err(format!(
                            "init wants 7 or 13 tokens, got {}",
                            toks.len()
                        )));
                    }
                    if initial.is_empty() {
                        initial.reserve_exact(1 + run_len(rest, "init "));
                    }
                    let host = HostId(parse_num(toks[0], "host").map_err(err)?);
                    let nomsg = parse_outcome(host, ProbeTest::NoMsg, &toks[1..7]).map_err(err)?;
                    let blankmsg = if toks.len() == 13 {
                        Some(parse_outcome(host, ProbeTest::BlankMsg, &toks[7..13]).map_err(err)?)
                    } else {
                        None
                    };
                    initial.push((host, HostInitialResult { nomsg, blankmsg }));
                }
                "aggregate" => {
                    let [version, count] = toks[..] else {
                        return Err(err("aggregate wants version and count".to_string()));
                    };
                    if version != "v1" {
                        return Err(err(format!("unknown aggregate version {version:?}")));
                    }
                    if masks.is_some() {
                        return Err(err("duplicate aggregate section".to_string()));
                    }
                    let count = parse_num(count, "host count").map_err(err)?;
                    // Each mask takes nine bytes of text: the file bounds
                    // the column, whatever the header declares.
                    masks = Some((count, Vec::with_capacity(count.min(rest.len() / 9))));
                }
                "amask" => {
                    let Some((_, column)) = masks.as_mut() else {
                        return Err(err("amask before aggregate header".to_string()));
                    };
                    let [first, row @ ..] = &toks[..] else {
                        return Err(err("amask wants a first-host index".to_string()));
                    };
                    let first: usize = parse_num(first, "first host").map_err(err)?;
                    if first != column.len() {
                        return Err(err(format!(
                            "amask row starts at host {first}, expected {}",
                            column.len()
                        )));
                    }
                    for tok in row {
                        column.push(
                            u32::from_str_radix(tok, 16)
                                .map_err(|_| err(format!("bad mask {tok:?}")))?,
                        );
                    }
                }
                "worker" => {
                    workers.push(WorkerState {
                        clock_micros: 0,
                        ethics: EthicsAudit::default(),
                        contacts: Vec::new(),
                        metrics: MetricsSnapshot::default(),
                        counts: Vec::new(),
                    });
                    counts_seen = false;
                }
                "wclock" | "wethics" | "wcontact" | "wmetrics" => {
                    let Some(w) = workers.last_mut() else {
                        return Err(err(format!("{keyword} before any worker")));
                    };
                    match keyword {
                        "wclock" => {
                            let [us] = toks[..] else {
                                return Err(err("wclock wants 1 operand".to_string()));
                            };
                            w.clock_micros = parse_num(us, "clock").map_err(err)?;
                        }
                        "wethics" => w.ethics = parse_ethics(&toks).map_err(err)?,
                        "wcontact" => {
                            let [ip, us] = toks[..] else {
                                return Err(err("wcontact wants 2 operands".to_string()));
                            };
                            if w.contacts.is_empty() {
                                w.contacts.reserve_exact(1 + run_len(rest, "wcontact "));
                            }
                            w.contacts.push((
                                ip.parse().map_err(|_| err(format!("bad address {ip:?}")))?,
                                SimTime::from_micros(parse_num(us, "contact").map_err(err)?),
                            ));
                        }
                        "wmetrics" => w.metrics = parse_metrics(&toks).map_err(err)?,
                        _ => unreachable!(),
                    }
                }
                _ => return Err(err(format!("unknown keyword {keyword:?}"))),
            }
        }
        let (world_seed, world_scale) = world.ok_or("missing world line")?;
        let (shards, timed, trace_enabled, incremental, no_policy_cache) =
            config.ok_or("missing config line")?;
        let builder = CampaignBuilder {
            shards,
            options: ProbeOptions {
                faults: faults.ok_or("missing faults line")?,
                retry: retry.ok_or("missing retry line")?,
            },
            timed,
            trace: TraceConfig {
                enabled: trace_enabled,
            },
            incremental,
            no_policy_cache,
        };
        let (initial_busy, rounds_busy) = busy.ok_or("missing busy line")?;
        let masks = match masks {
            Some((declared, column)) => {
                if column.len() != declared {
                    return Err(format!(
                        "aggregate section declares {declared} hosts but carries {}",
                        column.len()
                    ));
                }
                Some(column)
            }
            None => None,
        };
        Ok(CampaignState {
            builder,
            world_seed,
            world_scale,
            rounds_done: rounds_done.ok_or("missing progress line")?,
            initial_busy,
            rounds_busy,
            stats,
            masks,
            initial,
            rounds,
            workers,
            trace_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_netsim::SimDuration;
    use spfail_trace::{Phase, TraceEvent, TraceEventKind};

    fn sample_outcome(host: u32, vulnerable: bool) -> ProbeOutcome {
        let mut behaviors = BTreeSet::new();
        if vulnerable {
            behaviors.insert(MacroBehavior::VulnerableLibSpf2);
            behaviors.insert(MacroBehavior::Compliant);
        }
        ProbeOutcome {
            host: HostId(host),
            test: ProbeTest::NoMsg,
            id: "ab3x".to_string(),
            transaction: Some(TransactionOutcome::NoMsgCompleted),
            classification: Classification {
                spf_triggered: vulnerable,
                behaviors,
                unknown_patterns: 1,
            },
            dns_fault: vulnerable.then_some(ProbeError::SmtpTempFail(451)),
        }
    }

    fn sample_state() -> CampaignState {
        let record = ProbeRecord {
            phase: Phase::Round(17),
            host: 9,
            day: 17,
            test: 1,
            extra: 2,
            seq: 0,
            duration_us: 830,
            events: vec![TraceEvent {
                at_us: 3,
                kind: TraceEventKind::Enter {
                    span: spfail_trace::SpanKind::SmtpSession,
                    label: Some("weird =label".to_string()),
                },
            }],
        };
        CampaignState {
            builder: CampaignBuilder {
                shards: 4,
                options: ProbeOptions {
                    faults: FaultProfile {
                        dns: FaultPlan {
                            drop_chance: 0.05,
                            ..FaultPlan::NONE
                        },
                        smtp: FaultPlan::NONE,
                        flaky_fraction: 0.2,
                        window: Some(FlakyWindow::new(SimDuration::from_mins(360), 0.6)),
                    },
                    retry: RetryPolicy::standard(),
                },
                timed: true,
                trace: TraceConfig { enabled: true },
                incremental: true,
                no_policy_cache: true,
            },
            world_seed: 2024,
            world_scale: 0.004,
            rounds_done: 2,
            initial_busy: SimDuration::from_secs(7),
            rounds_busy: SimDuration::from_secs(3),
            stats: SessionStats {
                round_probes_issued: 11,
                round_probes_skipped: 44,
            },
            masks: None,
            initial: vec![
                (
                    HostId(3),
                    HostInitialResult {
                        nomsg: sample_outcome(3, true),
                        blankmsg: None,
                    },
                ),
                (
                    HostId(9),
                    HostInitialResult {
                        nomsg: sample_outcome(9, false),
                        blankmsg: Some(ProbeOutcome {
                            test: ProbeTest::BlankMsg,
                            ..sample_outcome(9, true)
                        }),
                    },
                ),
            ],
            rounds: vec![
                (15, vec![RoundStatus::Vulnerable, RoundStatus::Patched]),
                (17, vec![RoundStatus::Patched, RoundStatus::Inconclusive]),
            ],
            workers: vec![WorkerState {
                clock_micros: 1_296_000_000_000,
                ethics: EthicsAudit {
                    immediate: 4,
                    ..EthicsAudit::default()
                },
                contacts: vec![(
                    "192.0.2.7".parse().unwrap(),
                    SimTime::from_micros(1_295_999_000_000),
                )],
                metrics: MetricsSnapshot {
                    connections_attempted: 9,
                    dns_queries: 120,
                    bytes_sent: 4096,
                    ..MetricsSnapshot::default()
                },
                counts: vec![3, 0],
            }],
            trace_records: vec![record],
        }
    }

    /// The text form round-trips the whole state exactly — floats by
    /// bit pattern, labels through their escaping.
    #[test]
    fn state_round_trips_exactly() {
        let state = sample_state();
        let text = state.to_text();
        let parsed = CampaignState::parse(&text).expect("parses");
        assert_eq!(parsed, state);
        // And the canonical text form is a fixed point.
        assert_eq!(parsed.to_text(), text);
    }

    /// A streamed state carries its sweep as the `aggregate v1` section
    /// (no init lines) and round-trips just like the eager form.
    #[test]
    fn aggregate_section_round_trips_exactly() {
        let mut state = sample_state();
        state.initial.clear();
        // More than one packed row, with high bits set.
        state.masks = Some((0..150u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect());
        let text = state.to_text();
        assert!(text.contains("aggregate v1 150\n"));
        assert!(text.contains("amask 0 "));
        assert!(text.contains("amask 64 "));
        assert!(text.contains("amask 128 "));
        let parsed = CampaignState::parse(&text).expect("parses");
        assert_eq!(parsed, state);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn truncated_aggregate_sections_are_rejected() {
        let mut state = sample_state();
        state.initial.clear();
        state.masks = Some(vec![0x0001_0000; 70]);
        let text = state.to_text();
        // Drop the second mask row: the declared count no longer matches.
        let truncated = text
            .lines()
            .filter(|l| !l.starts_with("amask 64"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&truncated).is_err());
        // An orphan mask row (no header) is rejected too.
        let headerless = text
            .lines()
            .filter(|l| !l.starts_with("aggregate "))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&headerless).is_err());
    }

    /// A v1 checkpoint (with the campaign-level totals and merged
    /// counts v2 dropped), a v2 one (with the `wocc` counters v3
    /// dropped) and a v3 one (with the per-host `st` and `wcount` lines
    /// v4 packed into one line per round and per worker) are refused up
    /// front, naming their version and v4.
    #[test]
    fn v1_checkpoints_are_rejected_by_version() {
        let text = sample_state().to_text();
        for retired in [
            "spfail-checkpoint v1",
            "spfail-checkpoint v2",
            "spfail-checkpoint v3",
        ] {
            let err = CampaignState::parse(&text.replacen(MAGIC, retired, 1))
                .expect_err("a retired header is refused");
            assert!(err.contains(retired), "{err}");
            assert!(err.contains("spfail-checkpoint v4"), "{err}");
        }
    }

    /// The `wocc` line kind v3 dropped, and the `st` and `wcount` kinds
    /// v4 dropped, are unknown keywords in a v4 file, never silently
    /// skipped.
    #[test]
    fn wocc_lines_are_rejected_in_v3() {
        let text = sample_state().to_text();
        for line in ["st 3 v", "wcount 3 3", "wocc 3 15 0 2 1"] {
            let mangled = text.replacen("wcounts ", &format!("{line}\nwcounts "), 1);
            assert!(mangled.contains(&format!("\n{line}\n")));
            let err = CampaignState::parse(&mangled).expect_err("a retired line kind is refused");
            let keyword = line.split(' ').next().unwrap_or_default();
            assert!(
                err.contains(&format!("unknown keyword {keyword:?}")),
                "{err}"
            );
        }
    }

    /// A round's status bytes are `v`, `p` or `i`; any other byte is
    /// refused, naming the byte and its tracked position.
    #[test]
    fn unknown_round_status_bytes_are_rejected() {
        let text = sample_state().to_text();
        assert!(text.contains("\nround 17 pi\n"));
        for (bad, named) in [
            ("round 17 px", "'x' at tracked position 1"),
            ("round 17 P", "'P' at tracked position 0"),
        ] {
            let err = CampaignState::parse(&text.replacen("round 17 pi", bad, 1))
                .expect_err("an unknown status byte is refused");
            assert!(err.contains("unknown round status byte"), "{err}");
            assert!(err.contains(named), "{err}");
        }
    }

    /// A campaign that tracks no host writes bare `round <day>` and
    /// `wcounts` lines, and they read back as empty columns.
    #[test]
    fn empty_round_and_counter_columns_round_trip() {
        let mut state = sample_state();
        for (_, statuses) in &mut state.rounds {
            statuses.clear();
        }
        state.workers[0].counts.clear();
        let text = state.to_text();
        assert!(text.contains("\nround 15\nround 17\n"));
        assert!(text.contains("\nwcounts\n"));
        let parsed = CampaignState::parse(&text).expect("parses");
        assert_eq!(parsed, state);
        assert_eq!(parsed.to_text(), text);
    }

    /// One `wcounts` line per worker: a second one is refused, as is
    /// one before any `worker` line or with a bad counter.
    #[test]
    fn malformed_wcounts_lines_are_rejected() {
        let text = sample_state().to_text();
        assert!(text.contains("\nwcounts 3 0\n"));
        let twice = text.replacen("wcounts 3 0", "wcounts 3 0\nwcounts 3 0", 1);
        let err = CampaignState::parse(&twice).expect_err("a second wcounts line is refused");
        assert!(err.contains("duplicate wcounts line"), "{err}");
        let bad = text.replacen("wcounts 3 0", "wcounts 3 x", 1);
        let err = CampaignState::parse(&bad).expect_err("a bad counter is refused");
        assert!(err.contains("bad count \"x\""), "{err}");
        let orphan = text.replacen("round 15 ", "wcounts 1\nround 15 ", 1);
        let err = CampaignState::parse(&orphan).expect_err("an orphan wcounts line is refused");
        assert!(err.contains("wcounts before any worker"), "{err}");
    }

    #[test]
    fn addresses_are_written_in_display_form() {
        for ip in [
            "0.0.0.0",
            "192.0.2.7",
            "255.255.255.255",
            "2001:db8::25",
            "::ffff:192.0.2.1",
        ] {
            let ip: IpAddr = ip.parse().expect("a valid address");
            let mut out = String::new();
            push_ip(&mut out, &ip);
            assert_eq!(out, ip.to_string());
        }
    }

    #[test]
    fn tokens_split_on_spaces_and_drop_empty_ones() {
        let mut toks = vec!["stale"];
        split_tokens("  a bb  c ", &mut toks);
        assert_eq!(toks, ["a", "bb", "c"]);
        split_tokens("", &mut toks);
        assert!(toks.is_empty());
    }

    #[test]
    fn decimal_writer_and_its_length_agree() {
        for n in [0, 9, 10, 99, 100, 65_535, 1_296_000_000_000, u64::MAX] {
            let mut out = String::new();
            push_dec(&mut out, n);
            assert_eq!(out, n.to_string());
            assert_eq!(dec_len(n), out.len(), "{n}");
        }
    }

    /// The size `to_text` reserves covers the text without its trace
    /// lines, so an untraced state is written into one allocation.
    #[test]
    fn text_len_bounds_the_untraced_text() {
        let mut state = sample_state();
        state.trace_records.clear();
        assert!(state.text_len() >= state.to_text().len());
        state.masks = Some(vec![u32::MAX; 130]);
        state.initial.clear();
        assert!(state.text_len() >= state.to_text().len());
        for (_, statuses) in &mut state.rounds {
            statuses.clear();
        }
        state.workers[0].counts = vec![u32::MAX; 40];
        assert!(state.text_len() >= state.to_text().len());
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        assert!(CampaignState::parse("").is_err());
        assert!(CampaignState::parse("not a checkpoint\n").is_err());
        let text = sample_state().to_text();
        let mangled = text.replace("retry ", "retry bogus ");
        assert!(CampaignState::parse(&mangled).is_err());
        // Keep the magic line but drop the config one.
        let truncated = text
            .lines()
            .filter(|l| !l.starts_with("config"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&truncated).is_err());
    }
}
