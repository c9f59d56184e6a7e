//! The serialisable campaign state behind [`Session`](crate::Session)
//! checkpointing.
//!
//! [`CampaignState`] is the complete durable-state inventory of a
//! campaign at a round boundary (see the [`crate::session`] module docs
//! for why this list is exhaustive): configuration, world identity,
//! stage progress, the sweep results so far, each worker's
//! clock/ethics/metrics/counters, and the trace records emitted so far.
//! Workers live from the initial sweep to the snapshot, so every audit
//! and network counter of the campaign so far sits in some worker's
//! state.
//!
//! The on-disk form is a hand-rolled line-oriented text format — one
//! `keyword operand…` line per fact, every collection in canonical
//! (sorted) order, floats as their exact IEEE-754 bit patterns — so a
//! state round-trips bit-for-bit without a JSON parser dependency and
//! diffs of two checkpoints are meaningful. [`CampaignState::to_text`]
//! and [`CampaignState::parse`] are exact inverses.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::IpAddr;

use spfail_libspf2::MacroBehavior;
use spfail_netsim::{
    FaultPlan, FaultProfile, FlakyWindow, MetricsSnapshot, ProbeError, SimDuration, SimTime,
};
use spfail_smtp::client::TransactionOutcome;
use spfail_trace::{escape_field, unescape_field, ProbeRecord, TraceConfig};
use spfail_world::HostId;

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
    /// The worker's probe-repetition counters
    /// (`(host, day, test, extra) -> occurrence`), key-sorted.
    pub occurrences: Vec<((u32, u16, u8, u32), u64)>,
    /// The worker's per-host attempt counts (blacklist counters),
    /// host-sorted.
    pub counts: Vec<(HostId, u32)>,
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
    /// Completed rounds: `(day, host-sorted statuses)`.
    pub rounds: Vec<(u16, Vec<(HostId, RoundStatus)>)>,
    /// The workers' durable state, one per shard, in shard order.
    pub workers: Vec<WorkerState>,
    /// Every trace record emitted so far (empty when tracing is off).
    pub trace_records: Vec<ProbeRecord>,
}

/// The header line. v2 dropped v1's campaign-level audit/network totals
/// and merged connection counts: every worker now lives from the
/// initial sweep on, so its own state carries them.
const MAGIC: &str = "spfail-checkpoint v2";

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern {tok:?}"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("bad {what} {tok:?}"))
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

fn transaction_token(t: &TransactionOutcome) -> String {
    match t {
        TransactionOutcome::RejectedAtConnect(c) => format!("connect:{c}"),
        TransactionOutcome::RejectedAtHello(c) => format!("hello:{c}"),
        TransactionOutcome::RejectedAtMailFrom(c) => format!("mailfrom:{c}"),
        TransactionOutcome::RejectedAtRcpt(c) => format!("rcpt:{c}"),
        TransactionOutcome::RejectedAtData(c) => format!("data:{c}"),
        TransactionOutcome::Transient { stage, code } => format!("transient:{stage}:{code}"),
        TransactionOutcome::ConnectionReset => "reset".to_string(),
        TransactionOutcome::NoMsgCompleted => "nomsg".to_string(),
        TransactionOutcome::MessageAccepted(c) => format!("accepted:{c}"),
        TransactionOutcome::MessageRejected(c) => format!("rejected:{c}"),
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

fn dns_fault_token(e: &ProbeError) -> String {
    match e {
        ProbeError::DnsTimeout => "timeout".to_string(),
        ProbeError::DnsServFail => "servfail".to_string(),
        ProbeError::DnsLame => "lame".to_string(),
        ProbeError::ConnectRefused => "refused".to_string(),
        ProbeError::ConnectTimeout => "connect_timeout".to_string(),
        ProbeError::ConnectionReset => "reset".to_string(),
        ProbeError::SmtpTempFail(c) => format!("tempfail:{c}"),
        ProbeError::SmtpReject(c) => format!("reject:{c}"),
    }
}

fn parse_dns_fault(tok: &str) -> Result<ProbeError, String> {
    let (head, code) = match tok.split_once(':') {
        Some((h, c)) => (h, Some(c)),
        None => (tok, None),
    };
    let code = || -> Result<u16, String> {
        parse_num(code.ok_or_else(|| format!("missing code in {tok:?}"))?, "code")
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
fn outcome_tokens(out: &mut String, o: &ProbeOutcome) {
    let behaviors = if o.classification.behaviors.is_empty() {
        "-".to_string()
    } else {
        o.classification
            .behaviors
            .iter()
            .map(|&b| behavior_token(b))
            .collect::<Vec<_>>()
            .join("+")
    };
    let _ = write!(
        out,
        "{} {} {} {} {} {}",
        escape_field(&o.id),
        o.transaction
            .as_ref()
            .map_or_else(|| "none".to_string(), transaction_token),
        bool01(o.classification.spf_triggered),
        behaviors,
        o.classification.unknown_patterns,
        o.dns_fault
            .as_ref()
            .map_or_else(|| "none".to_string(), dns_fault_token),
    );
}

fn parse_outcome(host: HostId, test: ProbeTest, toks: &[&str]) -> Result<ProbeOutcome, String> {
    let [id, txn, spf, behaviors, unknown, dns] = toks else {
        return Err(format!("probe outcome wants 6 tokens, got {}", toks.len()));
    };
    let behaviors: BTreeSet<MacroBehavior> = if *behaviors == "-" {
        BTreeSet::new()
    } else {
        behaviors
            .split('+')
            .map(parse_behavior)
            .collect::<Result<_, _>>()?
    };
    Ok(ProbeOutcome {
        host,
        test,
        id: unescape_field(id),
        transaction: match *txn {
            "none" => None,
            t => Some(parse_transaction(t)?),
        },
        classification: Classification {
            spf_triggered: parse_bool01(spf)?,
            behaviors,
            unknown_patterns: parse_num(unknown, "unknown_patterns")?,
        },
        dns_fault: match *dns {
            "none" => None,
            e => Some(parse_dns_fault(e)?),
        },
    })
}

fn status_token(s: RoundStatus) -> &'static str {
    match s {
        RoundStatus::Vulnerable => "v",
        RoundStatus::Patched => "p",
        RoundStatus::Inconclusive => "i",
    }
}

fn parse_status(tok: &str) -> Result<RoundStatus, String> {
    Ok(match tok {
        "v" => RoundStatus::Vulnerable,
        "p" => RoundStatus::Patched,
        "i" => RoundStatus::Inconclusive,
        _ => return Err(format!("unknown round status {tok:?}")),
    })
}

fn write_plan(out: &mut String, p: &FaultPlan) {
    let _ = write!(
        out,
        "{} {} {} {} {} {} {}",
        f64_hex(p.refuse_chance),
        f64_hex(p.abort_chance),
        f64_hex(p.drop_chance),
        f64_hex(p.servfail_chance),
        f64_hex(p.truncate_chance),
        f64_hex(p.tempfail_chance),
        f64_hex(p.reset_chance),
    );
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

fn write_metrics(out: &mut String, m: &MetricsSnapshot) {
    let fields = metrics_fields(m);
    let joined = fields
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ");
    let _ = write!(out, "{joined}");
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

fn write_ethics(out: &mut String, a: &EthicsAudit) {
    let _ = write!(
        out,
        "{} {} {} {} {}",
        a.immediate, a.spaced, a.greylist_waits, a.dedup_suppressed, a.peak_concurrency
    );
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

impl CampaignState {
    /// The initial sweep's record as a mask column (index = host id):
    /// the `aggregate v1` section, or the masks of the `init` lines.
    /// Refuses a record that does not cover the world: the `init` lines
    /// must name hosts 0, 1, 2, … in order, once each, and when the
    /// world's host count is known (`host_count`), the column must hold
    /// exactly that many hosts.
    pub(crate) fn mask_column(&self, host_count: Option<usize>) -> Result<Vec<u32>, String> {
        let masks = match &self.masks {
            Some(_) if !self.initial.is_empty() => {
                return Err("checkpoint carries both init lines and an aggregate section".into())
            }
            Some(masks) => masks.clone(),
            None => {
                let mut masks = Vec::with_capacity(self.initial.len());
                for (host, result) in &self.initial {
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

    /// Render the state into its canonical text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(
            out,
            "world {} {}",
            self.world_seed,
            f64_hex(self.world_scale)
        );
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
        let _ = write!(out, " {}", f64_hex(b.options.faults.flaky_fraction));
        match &b.options.faults.window {
            Some(w) => {
                let _ = writeln!(
                    out,
                    " window {} {} {}",
                    w.period.as_micros(),
                    f64_hex(w.open_fraction),
                    w.phase.as_micros()
                );
            }
            None => out.push_str(" nowindow\n"),
        }
        let r = &b.options.retry;
        let _ = writeln!(
            out,
            "retry {} {} {} {} {}",
            r.max_attempts,
            r.base_backoff.as_micros(),
            r.max_backoff.as_micros(),
            f64_hex(r.jitter),
            r.deadline
                .map_or_else(|| "none".to_string(), |d| d.as_micros().to_string()),
        );
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
            let _ = write!(out, "init {} ", host.0);
            outcome_tokens(&mut out, &result.nomsg);
            if let Some(blank) = &result.blankmsg {
                out.push(' ');
                outcome_tokens(&mut out, blank);
            }
            out.push('\n');
        }
        if let Some(masks) = &self.masks {
            // The versioned aggregate section: a declared host count,
            // then rows of up to 64 masks packed as fixed-width hex.
            let _ = writeln!(out, "aggregate v1 {}", masks.len());
            for (row, chunk) in masks.chunks(64).enumerate() {
                let _ = write!(out, "amask {}", row * 64);
                for m in chunk {
                    let _ = write!(out, " {m:08x}");
                }
                out.push('\n');
            }
        }
        for (day, statuses) in &self.rounds {
            let _ = writeln!(out, "round {day}");
            for (host, status) in statuses {
                let _ = writeln!(out, "st {} {}", host.0, status_token(*status));
            }
        }
        for w in &self.workers {
            let _ = writeln!(out, "worker");
            let _ = writeln!(out, "wclock {}", w.clock_micros);
            out.push_str("wethics ");
            write_ethics(&mut out, &w.ethics);
            out.push('\n');
            for (ip, at) in &w.contacts {
                let _ = writeln!(out, "wcontact {} {}", ip, at.as_micros());
            }
            out.push_str("wmetrics ");
            write_metrics(&mut out, &w.metrics);
            out.push('\n');
            for ((h, d, t, x), n) in &w.occurrences {
                let _ = writeln!(out, "wocc {h} {d} {t} {x} {n}");
            }
            for (host, n) in &w.counts {
                let _ = writeln!(out, "wcount {} {}", host.0, n);
            }
        }
        for record in &self.trace_records {
            let _ = writeln!(out, "trace {}", record.to_wire());
        }
        out
    }

    /// Parse the text form written by [`CampaignState::to_text`].
    pub fn parse(text: &str) -> Result<CampaignState, String> {
        let mut lines = text.lines().enumerate();
        let Some((_, first)) = lines.next() else {
            return Err("empty checkpoint".to_string());
        };
        if first == "spfail-checkpoint v1" {
            return Err(format!(
                "checkpoint format spfail-checkpoint v1 is no longer readable; \
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
        let mut rounds: Vec<(u16, Vec<(HostId, RoundStatus)>)> = Vec::new();
        let mut workers: Vec<WorkerState> = Vec::new();
        let mut trace_records = Vec::new();
        for (idx, line) in lines {
            let err = |msg: String| format!("line {}: {msg}", idx + 1);
            if line.is_empty() {
                continue;
            }
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            // `trace` operands carry their own escaping; everything else
            // splits on single spaces.
            if keyword == "trace" {
                trace_records.push(ProbeRecord::from_wire(rest).map_err(err)?);
                continue;
            }
            let toks: Vec<&str> = rest.split(' ').filter(|t| !t.is_empty()).collect();
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
                    rounds_done = Some(parse_num(done, "rounds_done").map_err(err)?);
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
                    let host = HostId(parse_num(toks[0], "host").map_err(err)?);
                    let nomsg =
                        parse_outcome(host, ProbeTest::NoMsg, &toks[1..7]).map_err(err)?;
                    let blankmsg = if toks.len() == 13 {
                        Some(
                            parse_outcome(host, ProbeTest::BlankMsg, &toks[7..13])
                                .map_err(err)?,
                        )
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
                    masks = Some((parse_num(count, "host count").map_err(err)?, Vec::new()));
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
                "round" => {
                    let [day] = toks[..] else {
                        return Err(err("round wants 1 operand".to_string()));
                    };
                    rounds.push((parse_num(day, "day").map_err(err)?, Vec::new()));
                }
                "st" => {
                    let [host, status] = toks[..] else {
                        return Err(err("st wants 2 operands".to_string()));
                    };
                    let Some((_, statuses)) = rounds.last_mut() else {
                        return Err(err("st before any round".to_string()));
                    };
                    statuses.push((
                        HostId(parse_num(host, "host").map_err(err)?),
                        parse_status(status).map_err(err)?,
                    ));
                }
                "worker" => workers.push(WorkerState {
                    clock_micros: 0,
                    ethics: EthicsAudit::default(),
                    contacts: Vec::new(),
                    metrics: MetricsSnapshot::default(),
                    occurrences: Vec::new(),
                    counts: Vec::new(),
                }),
                "wclock" | "wethics" | "wcontact" | "wmetrics" | "wocc" | "wcount" => {
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
                            w.contacts.push((
                                ip.parse()
                                    .map_err(|_| err(format!("bad address {ip:?}")))?,
                                SimTime::from_micros(parse_num(us, "contact").map_err(err)?),
                            ));
                        }
                        "wmetrics" => w.metrics = parse_metrics(&toks).map_err(err)?,
                        "wocc" => {
                            let [h, d, t, x, n] = toks[..] else {
                                return Err(err("wocc wants 5 operands".to_string()));
                            };
                            w.occurrences.push((
                                (
                                    parse_num(h, "host").map_err(err)?,
                                    parse_num(d, "day").map_err(err)?,
                                    parse_num(t, "test").map_err(err)?,
                                    parse_num(x, "extra").map_err(err)?,
                                ),
                                parse_num(n, "occurrence").map_err(err)?,
                            ));
                        }
                        "wcount" => {
                            let [host, n] = toks[..] else {
                                return Err(err("wcount wants 2 operands".to_string()));
                            };
                            w.counts.push((
                                HostId(parse_num(host, "host").map_err(err)?),
                                parse_num(n, "count").map_err(err)?,
                            ));
                        }
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
                (15, vec![(HostId(3), RoundStatus::Vulnerable)]),
                (
                    17,
                    vec![
                        (HostId(3), RoundStatus::Patched),
                        (HostId(9), RoundStatus::Inconclusive),
                    ],
                ),
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
                occurrences: vec![((3, 15, 0, 2), 1)],
                counts: vec![(HostId(3), 3)],
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
    /// counts v2 dropped) is refused up front, naming both versions.
    #[test]
    fn v1_checkpoints_are_rejected_by_version() {
        let text = sample_state()
            .to_text()
            .replacen(MAGIC, "spfail-checkpoint v1", 1);
        let err = CampaignState::parse(&text).expect_err("a v1 header is refused");
        assert!(err.contains("spfail-checkpoint v1"), "{err}");
        assert!(err.contains("spfail-checkpoint v2"), "{err}");
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
