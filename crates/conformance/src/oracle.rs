//! The differential oracle: evaluate one case under every expansion
//! profile over one shared zone and classify each divergence.
//!
//! Two layers of checking compound here:
//!
//! 1. **Expansion level.** Every macro string reachable from the case's
//!    TXT fixtures is expanded by the profile's real expander *and* by an
//!    independently written reference model of that profile (for the
//!    libSPF2 emulation the model re-derives the bogus-length/dup/
//!    sign-extension arithmetic from the CVE write-ups rather than
//!    calling into `spfail-libspf2`). Any mismatch is a bug. The model
//!    also predicts whether the expansion must corrupt the simulated
//!    heap, which is cross-checked against `memsim`.
//! 2. **Evaluation level.** `check_host` runs end to end per profile.
//!    Divergence from the compliant profile (result, query sequence as
//!    spelled, or explanation text) is only acceptable when the expansion
//!    layer produced a *named* quirk from the
//!    [`spfail_prober::KNOWN_QUIRKS`] allowlist; everything else is a bug.

use std::collections::{BTreeMap, BTreeSet};

use spfail_dns::resolver::{LookupError, LookupOutcome};
use spfail_dns::zone::{Zone, ZoneAnswer};
use spfail_dns::{Name, RData, RecordType};
use spfail_libspf2::{LibSpf2Expander, MacroBehavior};
use spfail_prober::quirks_for_behavior;
use spfail_spf::expand::{
    apply_transform, url_escape, CompliantExpander, ExpandError, MacroContext, MacroExpander,
};
use spfail_spf::macrostring::{MacroString, MacroToken, MacroTransform};
use spfail_spf::record::{MechanismKind, Modifier, SpfRecord};
use spfail_spf::{CompiledEvaluator, PolicyCache, SpfDns, SpfResult, TraceEvent};

use crate::case::ConformanceCase;
use crate::eval::Evaluator;

/// The profiles the oracle compares against [`MacroBehavior::Compliant`].
pub const PROFILES: &[MacroBehavior] = &[
    MacroBehavior::VulnerableLibSpf2,
    MacroBehavior::PatchedLibSpf2,
    MacroBehavior::NoExpansion,
    MacroBehavior::ReverseNoTruncate,
    MacroBehavior::TruncateNoReverse,
    MacroBehavior::IgnoreTransformers,
    MacroBehavior::EmptyExpansion,
    MacroBehavior::MacroUnsupported,
];

/// Mirror of `LibSpf2Config::{vulnerable,patched}().overrun_cap`, used by
/// the independent reference model.
const OVERRUN_CAP: usize = 100;

/// The case's DNS fixture as an [`SpfDns`] source: one root-origin
/// synthesized zone shared (by value) across all profile evaluations,
/// with in-fixture CNAME chains followed.
pub struct FixtureDns {
    zone: Zone,
}

impl FixtureDns {
    /// Build the zone for `case`.
    pub fn new(case: &ConformanceCase) -> FixtureDns {
        FixtureDns {
            zone: Zone::synthesize(case.dns_records()),
        }
    }
}

impl SpfDns for FixtureDns {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        let mut current = name.clone();
        for _ in 0..8 {
            match self.zone.lookup(&current, rtype) {
                ZoneAnswer::Records(records) => return Ok(LookupOutcome::Records(records.into())),
                ZoneAnswer::NoData => return Ok(LookupOutcome::NoRecords),
                ZoneAnswer::NxDomain => return Ok(LookupOutcome::NxDomain),
                // Generated fixtures are flat; treat a (synthetic) cut as
                // a dead end rather than chasing referrals.
                ZoneAnswer::Delegation { .. } => return Ok(LookupOutcome::NxDomain),
                ZoneAnswer::Cname(record) => match record.rdata {
                    RData::Cname(target) => current = target,
                    _ => return Ok(LookupOutcome::NoRecords),
                },
            }
        }
        Err(LookupError::CnameChainTooLong)
    }
}

/// Everything observable from one profile's end-to-end evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOutcome {
    /// The profile evaluated.
    pub behavior: MacroBehavior,
    /// `check_host`'s verdict.
    pub result: SpfResult,
    /// Every DNS query issued, with the name *as spelled* — the paper's
    /// fingerprints live in the spelling, so comparison is byte-level.
    pub queries: Vec<(String, RecordType)>,
    /// The `exp=` explanation, when one was produced.
    pub explanation: Option<String>,
    /// Expander faults recorded in the trace.
    pub expander_faults: usize,
    /// Whether the profile's simulated heap was corrupted (libSPF2 only).
    pub heap_corrupted: bool,
    /// Largest overrun distance in bytes (libSPF2 only).
    pub heap_max_overrun: usize,
}

fn run_eval<E: MacroExpander>(
    case: &ConformanceCase,
    expander: &mut E,
) -> (SpfResult, Vec<(String, RecordType)>, Option<String>, usize) {
    let mut dns = FixtureDns::new(case);
    let mut eval = Evaluator::new(&mut dns, expander);
    let result = eval.check_host(case.client_ip, &case.sender_local, &case.sender_domain);
    let mut queries = Vec::new();
    let mut faults = 0;
    for event in eval.trace() {
        match event {
            TraceEvent::Query { name, rtype } => queries.push((name.to_ascii(), *rtype)),
            TraceEvent::ExpanderFault(_) => faults += 1,
            _ => {}
        }
    }
    let explanation = eval.explanation().map(str::to_string);
    (result, queries, explanation, faults)
}

/// Run `check_host` for `case` under one profile.
pub fn eval_profile(case: &ConformanceCase, behavior: MacroBehavior) -> ProfileOutcome {
    match behavior {
        MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2 => {
            let mut expander = if behavior.is_vulnerable() {
                LibSpf2Expander::vulnerable()
            } else {
                LibSpf2Expander::patched()
            };
            let (result, queries, explanation, expander_faults) = run_eval(case, &mut expander);
            ProfileOutcome {
                behavior,
                result,
                queries,
                explanation,
                expander_faults,
                heap_corrupted: expander.heap().corrupted(),
                heap_max_overrun: expander.heap().max_overrun(),
            }
        }
        _ => {
            let mut expander = behavior.expander();
            let (result, queries, explanation, expander_faults) = run_eval(case, &mut expander);
            ProfileOutcome {
                behavior,
                result,
                queries,
                explanation,
                expander_faults,
                heap_corrupted: false,
                heap_max_overrun: 0,
            }
        }
    }
}

/// Run `check_host` for `case` through the compiled-policy evaluator,
/// interning into (and memoizing through) `cache`.
fn run_eval_compiled<E: MacroExpander>(
    case: &ConformanceCase,
    expander: &mut E,
    cache: &mut PolicyCache,
) -> (SpfResult, Vec<(String, RecordType)>, Option<String>) {
    let mut dns = FixtureDns::new(case);
    let mut eval = CompiledEvaluator::new(&mut dns, expander, cache);
    let result = eval.check_host(case.client_ip, &case.sender_local, &case.sender_domain);
    let queries = eval
        .trace()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Query { name, rtype } => Some((name.to_ascii(), *rtype)),
            _ => None,
        })
        .collect();
    let explanation = eval.explanation().map(str::to_string);
    (result, queries, explanation)
}

/// Differential check of the compiled-policy evaluator against the
/// interpretive reference [`Evaluator`]: every profile, evaluated on a cold cache
/// and again on the warm cache (so the result-memo replay path is
/// exercised, not just compilation). Compares the full observable
/// surface the paper's fingerprints live in — verdict, DNS query
/// sequence *as spelled*, and the `exp=` explanation. Returns
/// human-readable divergences; equivalence is the empty vector.
pub fn diff_compiled(case: &ConformanceCase) -> Vec<String> {
    let mut divergences = Vec::new();
    let mut check = |behavior: MacroBehavior| {
        let reference = eval_profile(case, behavior);
        let mut cache = PolicyCache::new();
        for pass in ["cold", "warm"] {
            let (result, queries, explanation) = match behavior {
                MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2 => {
                    let mut expander = if behavior.is_vulnerable() {
                        LibSpf2Expander::vulnerable()
                    } else {
                        LibSpf2Expander::patched()
                    };
                    run_eval_compiled(case, &mut expander, &mut cache)
                }
                _ => {
                    let mut expander = behavior.expander();
                    run_eval_compiled(case, &mut expander, &mut cache)
                }
            };
            if result != reference.result {
                divergences.push(format!(
                    "[{behavior:?}/{pass}] result {result:?} != interpretive {:?}",
                    reference.result
                ));
            }
            if queries != reference.queries {
                divergences.push(format!(
                    "[{behavior:?}/{pass}] queries {queries:?} != interpretive {:?}",
                    reference.queries
                ));
            }
            if explanation != reference.explanation {
                divergences.push(format!(
                    "[{behavior:?}/{pass}] explanation {explanation:?} != interpretive {:?}",
                    reference.explanation
                ));
            }
        }
    };
    check(MacroBehavior::Compliant);
    for &behavior in PROFILES {
        check(behavior);
    }
    divergences
}

/// Divergence-relevant properties of one reference expansion.
#[derive(Debug, Default, Clone, Copy)]
struct RefFlags {
    /// CVE-2021-33913 first-label duplication fired.
    dup: bool,
    /// CVE-2021-33912 sign-extended escape fired.
    sign_extend: bool,
    /// A `%xx` escape used lowercase hex where the RFC path uses upper.
    lowercase_hex: bool,
    /// The model predicts an out-of-bounds write for this expansion.
    overflow: bool,
}

/// What a reference model expects an expansion to do.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RefOut {
    Ok(String),
    ExpOnly(char),
    Fault,
}

/// Independent model of `SPF_record_expand_data`'s per-macro path: split,
/// (buggy) reverse/truncate, then the (buggy) URL-escape arithmetic. The
/// allocation is `3 × len + 1` bytes where `len` may be the *truncated*
/// length (CVE-2021-33913); writes stop `OVERRUN_CAP` bytes past it.
fn ref_libspf2_macro(
    raw: &str,
    transform: &MacroTransform,
    escape: bool,
    vulnerable: bool,
    flags: &mut RefFlags,
) -> String {
    let delims = transform.delimiters_or_default();
    let mut parts: Vec<&str> = raw.split(|c| delims.contains(&c)).collect();
    let keep = |transform: &MacroTransform, n: usize| match transform.digits {
        Some(d) => (d.max(1) as usize).min(n),
        None => n,
    };
    let (plain, len_var) = if transform.reverse {
        parts.reverse();
        let kept = keep(transform, parts.len());
        let truncated = parts[parts.len() - kept..].join(".");
        if vulnerable && transform.digits.is_some() {
            flags.dup = true;
            (format!("{}.{}", parts[0], parts.join(".")), truncated.len())
        } else {
            let len = truncated.len();
            (truncated, len)
        }
    } else {
        let kept = keep(transform, parts.len());
        let out = parts[parts.len() - kept..].join(".");
        let len = out.len();
        (out, len)
    };
    if !escape {
        return plain;
    }
    let mut encoded: Vec<u8> = Vec::new();
    for &b in plain.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            encoded.push(b);
        } else if b < 0x80 || !vulnerable {
            let escaped = format!("%{b:02x}");
            if escaped.bytes().any(|c| c.is_ascii_lowercase()) {
                flags.lowercase_hex = true;
            }
            encoded.extend_from_slice(escaped.as_bytes());
        } else {
            flags.sign_extend = true;
            let widened = b as i8 as i32 as u32;
            encoded.extend_from_slice(format!("%{widened:08x}").as_bytes());
        }
    }
    let alloc_size = len_var * 3 + 1;
    // The NUL terminator counts: `encoded.len() + 1 > alloc_size` means
    // some write lands out of bounds.
    if encoded.len() >= alloc_size {
        flags.overflow = true;
    }
    encoded.truncate(alloc_size + OVERRUN_CAP);
    String::from_utf8_lossy(&encoded).into_owned()
}

fn maybe_escape(value: String, escape: bool) -> String {
    if escape {
        url_escape(&value)
    } else {
        value
    }
}

/// Reference expansion of a whole macro string under `behavior`.
fn ref_expand(
    behavior: MacroBehavior,
    ms: &MacroString,
    ctx: &MacroContext,
    in_exp: bool,
    flags: &mut RefFlags,
) -> RefOut {
    if behavior == MacroBehavior::NoExpansion {
        return RefOut::Ok(ms.source().to_string());
    }
    // Only the compliant path and the libSPF2 emulation police exp-only
    // letters; the quirk profiles deliberately do not.
    let enforce_exp_only = matches!(
        behavior,
        MacroBehavior::Compliant | MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2
    );
    let mut out = String::new();
    for token in ms.tokens() {
        match token {
            MacroToken::Literal(text) => out.push_str(text),
            MacroToken::Percent => out.push('%'),
            MacroToken::Space => out.push(' '),
            MacroToken::UrlSpace => out.push_str("%20"),
            MacroToken::Macro {
                letter,
                url_escape: escape,
                transform,
            } => {
                if letter.exp_only() && !in_exp && enforce_exp_only {
                    return RefOut::ExpOnly(letter.as_char());
                }
                let raw = ctx.raw_value(*letter);
                let expanded = match behavior {
                    MacroBehavior::Compliant => {
                        maybe_escape(apply_transform(&raw, transform), *escape)
                    }
                    MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2 => {
                        ref_libspf2_macro(&raw, transform, *escape, behavior.is_vulnerable(), flags)
                    }
                    MacroBehavior::ReverseNoTruncate => {
                        let t = MacroTransform {
                            digits: None,
                            ..transform.clone()
                        };
                        maybe_escape(apply_transform(&raw, &t), *escape)
                    }
                    MacroBehavior::TruncateNoReverse => {
                        let t = MacroTransform {
                            reverse: false,
                            ..transform.clone()
                        };
                        maybe_escape(apply_transform(&raw, &t), *escape)
                    }
                    MacroBehavior::IgnoreTransformers => maybe_escape(raw.clone(), *escape),
                    MacroBehavior::EmptyExpansion => String::new(),
                    MacroBehavior::MacroUnsupported => return RefOut::Fault,
                    MacroBehavior::NoExpansion => unreachable!("handled above"),
                };
                out.push_str(&expanded);
            }
        }
    }
    if behavior == MacroBehavior::EmptyExpansion {
        return RefOut::Ok(out.trim_start_matches('.').to_string());
    }
    RefOut::Ok(out)
}

/// Expansion-layer findings for one (case, profile) pair.
#[derive(Debug, Default, Clone)]
struct ExpansionFinding {
    quirks: BTreeSet<&'static str>,
    bugs: Vec<String>,
}

/// Every macro string the case's fixtures can put in front of an
/// expander, with the evaluation domain it would be expanded under and
/// whether it is explanation text.
fn macro_strings_of(case: &ConformanceCase) -> Vec<(String, MacroString, bool)> {
    let mut out = Vec::new();
    for (owner, content) in case.txt_contents() {
        if SpfRecord::looks_like_spf(content) {
            let Ok(record) = SpfRecord::parse(content) else {
                // Unparseable policies permerror identically everywhere
                // before any expansion happens.
                continue;
            };
            let mut push = |ms: &MacroString| out.push((owner.to_string(), ms.clone(), false));
            for mechanism in &record.mechanisms {
                match &mechanism.kind {
                    MechanismKind::Include(ms) | MechanismKind::Exists(ms) => push(ms),
                    MechanismKind::A { domain, .. }
                    | MechanismKind::Mx { domain, .. }
                    | MechanismKind::Ptr { domain } => {
                        if let Some(ms) = domain {
                            push(ms);
                        }
                    }
                    _ => {}
                }
            }
            for modifier in &record.modifiers {
                match modifier {
                    Modifier::Redirect(ms) | Modifier::Explanation(ms) => push(ms),
                    Modifier::Unknown { .. } => {}
                }
            }
        } else if let Ok(ms) = MacroString::parse(content) {
            // A non-policy TXT is a potential exp= explanation body.
            out.push((owner.to_string(), ms, true));
        }
    }
    out
}

fn check_expansions(case: &ConformanceCase, behavior: MacroBehavior) -> ExpansionFinding {
    let mut finding = ExpansionFinding::default();
    for (domain, ms, in_exp) in macro_strings_of(case) {
        let mut ctx = MacroContext::new(&case.sender_local, &case.sender_domain, case.client_ip);
        // check_domain() carries the current evaluation domain into the
        // context while helo stays pinned to the sender domain; mirror it.
        ctx.domain = domain.clone();

        let compliant = CompliantExpander.expand(&ms, &ctx, in_exp);
        let (actual, heap_corrupted) = match behavior {
            MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2 => {
                let mut expander = if behavior.is_vulnerable() {
                    LibSpf2Expander::vulnerable()
                } else {
                    LibSpf2Expander::patched()
                };
                let actual = expander.expand(&ms, &ctx, in_exp);
                (actual, expander.heap().corrupted())
            }
            _ => (behavior.expander().expand(&ms, &ctx, in_exp), false),
        };

        let mut flags = RefFlags::default();
        let expected = ref_expand(behavior, &ms, &ctx, in_exp, &mut flags);

        let matches_model = match (&actual, &expected) {
            (Ok(a), RefOut::Ok(e)) => a == e,
            (Err(ExpandError::ExpOnlyLetter(c)), RefOut::ExpOnly(e)) => c == e,
            (Err(ExpandError::ImplementationFault(_)), RefOut::Fault) => true,
            _ => false,
        };
        if !matches_model {
            finding.bugs.push(format!(
                "{behavior:?} expanding {:?} under domain {domain:?}: got {actual:?}, model expected {expected:?}",
                ms.source(),
            ));
        }

        if matches!(
            behavior,
            MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2
        ) {
            if heap_corrupted != flags.overflow {
                finding.bugs.push(format!(
                    "{behavior:?} expanding {:?}: memsim corruption {heap_corrupted} but the model predicted {}",
                    ms.source(),
                    flags.overflow,
                ));
            }
            if !behavior.is_vulnerable() && heap_corrupted {
                finding.bugs.push(format!(
                    "patched expander corrupted the heap on {:?}",
                    ms.source(),
                ));
            }
            // A predicted overflow is a physical CVE fingerprint even
            // when the logical outcome agrees with the compliant path —
            // e.g. a later exp-only letter faults the whole expansion
            // after the heap is already smashed — so name it without
            // waiting for a visible divergence.
            if behavior.is_vulnerable() && flags.overflow {
                if flags.sign_extend {
                    finding.quirks.insert("sign-extended-escape");
                }
                if flags.dup {
                    finding.quirks.insert("bogus-length-overflow");
                }
                if !flags.sign_extend && !flags.dup {
                    finding.bugs.push(format!(
                        "model predicted an overflow on {:?} with no CVE flag set",
                        ms.source(),
                    ));
                }
            }
        }

        let diverged = match (&actual, &compliant) {
            (Ok(a), Ok(c)) => a != c,
            (Err(a), Err(c)) => a != c,
            _ => true,
        };
        if !diverged || behavior == MacroBehavior::Compliant {
            continue;
        }
        match behavior {
            MacroBehavior::VulnerableLibSpf2 | MacroBehavior::PatchedLibSpf2 => {
                let mut named = false;
                if flags.dup {
                    finding.quirks.insert("dup-first-reversed-label");
                    named = true;
                }
                if flags.sign_extend {
                    finding.quirks.insert("sign-extended-escape");
                    named = true;
                }
                if flags.lowercase_hex {
                    finding.quirks.insert("lowercase-hex-escape");
                    named = true;
                }
                if flags.overflow && flags.dup {
                    finding.quirks.insert("bogus-length-overflow");
                }
                if !named {
                    finding.bugs.push(format!(
                        "{behavior:?} diverged on {:?} with no known-quirk flag set",
                        ms.source(),
                    ));
                }
            }
            other => {
                for quirk in quirks_for_behavior(other) {
                    finding.quirks.insert(quirk.name);
                }
            }
        }
    }
    finding
}

/// The oracle's judgement of one profile on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to the compliant evaluation.
    Agreement,
    /// Diverged, and every divergence matched the named allowlist.
    KnownQuirk(BTreeSet<&'static str>),
    /// Unexplained divergence or model mismatch — a real defect.
    Bug(Vec<String>),
}

/// One profile's outcome plus its classification.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The profile.
    pub behavior: MacroBehavior,
    /// What the evaluation observed.
    pub outcome: ProfileOutcome,
    /// How the oracle classified it.
    pub verdict: Verdict,
}

/// The full differential report for one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The compliant baseline every profile is compared against.
    pub compliant: ProfileOutcome,
    /// One report per entry in [`PROFILES`].
    pub profiles: Vec<ProfileReport>,
}

impl CaseReport {
    /// All bug descriptions, tagged with the profile that produced them.
    pub fn bugs(&self) -> Vec<(MacroBehavior, String)> {
        let mut out = Vec::new();
        for profile in &self.profiles {
            if let Verdict::Bug(bugs) = &profile.verdict {
                for bug in bugs {
                    out.push((profile.behavior, bug.clone()));
                }
            }
        }
        out
    }

    /// The union of quirk names observed across profiles.
    pub fn quirk_names(&self) -> BTreeSet<&'static str> {
        let mut out = BTreeSet::new();
        for profile in &self.profiles {
            if let Verdict::KnownQuirk(names) = &profile.verdict {
                out.extend(names.iter().copied());
            }
        }
        out
    }
}

/// Run the full differential oracle on one case.
pub fn run_case(case: &ConformanceCase) -> CaseReport {
    // The compliant profile is also checked against its own reference
    // model, so a defect in the baseline itself cannot hide.
    let compliant_finding = check_expansions(case, MacroBehavior::Compliant);
    let compliant = eval_profile(case, MacroBehavior::Compliant);

    let mut profiles = Vec::with_capacity(PROFILES.len());
    for &behavior in PROFILES {
        let finding = check_expansions(case, behavior);
        let outcome = eval_profile(case, behavior);
        let mut bugs = finding.bugs;
        bugs.extend(compliant_finding.bugs.iter().cloned());

        if outcome.heap_corrupted {
            let predicted_overflow = finding.quirks.contains("bogus-length-overflow")
                || finding.quirks.contains("sign-extended-escape");
            if !behavior.is_vulnerable() {
                bugs.push("non-vulnerable profile corrupted the simulated heap".to_string());
            } else if !predicted_overflow {
                bugs.push(
                    "heap corruption observed without a predicting overflow quirk".to_string(),
                );
            }
        }

        // Heap corruption counts as divergence even when the protocol-
        // visible behaviour agrees: the smashed allocation is the CVE,
        // whether or not this particular case surfaced it in a query.
        let diverged = outcome.result != compliant.result
            || outcome.queries != compliant.queries
            || outcome.explanation != compliant.explanation
            || outcome.heap_corrupted;
        let verdict = if !bugs.is_empty() {
            Verdict::Bug(bugs)
        } else if !diverged {
            Verdict::Agreement
        } else if !finding.quirks.is_empty() {
            Verdict::KnownQuirk(finding.quirks)
        } else {
            Verdict::Bug(vec![format!(
                "evaluation diverged from compliant (result {:?} vs {:?}) with no expansion-level quirk",
                outcome.result, compliant.result,
            )])
        };
        profiles.push(ProfileReport {
            behavior,
            outcome,
            verdict,
        });
    }
    CaseReport {
        compliant,
        profiles,
    }
}

/// Aggregate statistics over a seeded differential run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Cases evaluated.
    pub cases: usize,
    /// (profile, case-name, description) for every bug verdict.
    pub bugs: Vec<(MacroBehavior, String, String)>,
    /// How often each named quirk was observed.
    pub quirk_counts: BTreeMap<&'static str, usize>,
    /// Cases where every profile agreed byte-for-byte.
    pub full_agreements: usize,
}

/// Generate `count` cases from `seed` and run the oracle over each.
pub fn run_seeded(seed: u64, count: usize) -> Summary {
    let mut summary = Summary::default();
    for index in 0..count {
        let case = crate::gen::generate_case(seed, index as u64);
        let report = run_case(&case);
        summary.cases += 1;
        for (behavior, bug) in report.bugs() {
            summary.bugs.push((behavior, case.name.clone(), bug));
        }
        let quirks = report.quirk_names();
        for quirk in &quirks {
            *summary.quirk_counts.entry(quirk).or_insert(0) += 1;
        }
        if quirks.is_empty() && report.bugs().is_empty() {
            summary.full_agreements += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ConformanceCase;

    fn base(policy: &str) -> ConformanceCase {
        ConformanceCase::new("t", "192.0.2.3".parse().unwrap(), "user", "example.com")
            .txt("example.com", policy)
    }

    #[test]
    fn plain_policy_agrees_everywhere() {
        let report = run_case(&base("v=spf1 ip4:192.0.2.0/24 -all"));
        for profile in &report.profiles {
            assert_eq!(
                profile.verdict,
                Verdict::Agreement,
                "{:?}",
                profile.behavior
            );
        }
    }

    #[test]
    fn fingerprint_macro_is_a_named_quirk_not_a_bug() {
        let case = base("v=spf1 a:%{d1r}.probe.example.org -all")
            .a("example.probe.example.org", "192.0.2.3".parse().unwrap())
            .a(
                "com.com.example.probe.example.org",
                "192.0.2.3".parse().unwrap(),
            );
        let report = run_case(&case);
        assert!(report.bugs().is_empty(), "{:?}", report.bugs());
        assert!(report.quirk_names().contains("dup-first-reversed-label"));
    }

    #[test]
    fn uppercase_high_byte_macro_overflows_only_the_vulnerable_heap() {
        let case = ConformanceCase::new(
            "t",
            "192.0.2.3".parse().unwrap(),
            "caf\u{e9}-caf\u{e9}-caf\u{e9}",
            "example.com",
        )
        .txt("example.com", "v=spf1 exists:%{L}.e.example.org -all");
        let report = run_case(&case);
        assert!(report.bugs().is_empty(), "{:?}", report.bugs());
        let vulnerable = report
            .profiles
            .iter()
            .find(|p| p.behavior == MacroBehavior::VulnerableLibSpf2)
            .unwrap();
        assert!(vulnerable.outcome.heap_corrupted);
        assert!(report.quirk_names().contains("sign-extended-escape"));
        let patched = report
            .profiles
            .iter()
            .find(|p| p.behavior == MacroBehavior::PatchedLibSpf2)
            .unwrap();
        assert!(!patched.outcome.heap_corrupted);
    }

    #[test]
    fn exp_only_letter_outside_exp_is_uniform_permerror_for_real_impls() {
        let report = run_case(&base("v=spf1 exists:%{c}.e.example.org -all"));
        assert_eq!(report.compliant.result, SpfResult::PermError);
        for profile in &report.profiles {
            assert!(
                !matches!(profile.verdict, Verdict::Bug(_)),
                "{:?}: {:?}",
                profile.behavior,
                profile.verdict,
            );
        }
    }
}
