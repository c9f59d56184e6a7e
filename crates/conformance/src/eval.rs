//! The reference `check_host()` evaluator (RFC 7208 §4): the
//! differential oracle the compiled evaluator is checked against.
//!
//! Campaigns validate through [`spfail_spf::CompiledEvaluator`] alone.
//! This evaluator is the straightforward reading of the RFC it must
//! agree with: it re-parses the TXT record and re-walks the mechanism
//! AST on every evaluation, with no cache to get wrong. The oracle
//! ([`crate::oracle`] compares result, query sequence and explanation)
//! and the RFC 7208 and IPv6 scenario tests run it next to the compiled
//! walker and require the two to agree.
//!
//! It is generic over the same two seams as the compiled evaluator:
//! [`SpfDns`] (where answers come from) and [`MacroExpander`] (how
//! macro-strings become domain names — compliant, or one of the buggy
//! `spfail-libspf2` profiles). Every DNS query it issues is appended to
//! its trace, the observable the paper's methodology rests on.

use std::net::IpAddr;

use spfail_dns::resolver::LookupOutcome;
use spfail_dns::{Name, RData, RecordType};
use spfail_spf::eval::{
    reverse_name, v4_in_network, v6_in_network, EvalConfig, QueryFail, SpfDns, TraceEvent,
};
use spfail_spf::expand::{ExpandError, MacroContext, MacroExpander};
use spfail_spf::macrostring::MacroString;
use spfail_spf::record::{MechanismKind, RecordError, SpfRecord};
use spfail_spf::result::SpfResult;

/// The reference SPF evaluator.
pub struct Evaluator<'a, D: SpfDns, E: MacroExpander> {
    dns: &'a mut D,
    expander: &'a mut E,
    config: EvalConfig,
    lookup_terms: u32,
    void_lookups: u32,
    trace: Vec<TraceEvent>,
    explanation: Option<String>,
}

impl<'a, D: SpfDns, E: MacroExpander> Evaluator<'a, D, E> {
    /// A new evaluator with default limits.
    pub fn new(dns: &'a mut D, expander: &'a mut E) -> Self {
        Self::with_config(dns, expander, EvalConfig::default())
    }

    /// A new evaluator with explicit limits.
    pub fn with_config(dns: &'a mut D, expander: &'a mut E, config: EvalConfig) -> Self {
        Evaluator {
            dns,
            expander,
            config,
            lookup_terms: 0,
            void_lookups: 0,
            trace: Vec::new(),
            explanation: None,
        }
    }

    /// The trace of this evaluator's most recent evaluation(s).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The explanation string produced by the record's `exp=` modifier
    /// when the most recent evaluation ended in `Fail` (RFC 7208 §6.2).
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

        // Fetch and select the SPF record (RFC 7208 §4.4–4.5). The TXT
        // fetch itself does not count against the lookup-term limit.
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
        let record = match SpfRecord::parse(text) {
            Ok(r) => r,
            Err(RecordError::NotSpf1) => return SpfResult::None,
            Err(_) => return SpfResult::PermError,
        };

        // Evaluate in a context whose `d` is the current domain.
        let mut ctx = outer_ctx.clone();
        ctx.domain = domain.to_string();

        for mechanism in &record.mechanisms {
            if mechanism.kind.counts_against_lookup_limit() {
                self.lookup_terms += 1;
                if self.lookup_terms > self.config.max_lookup_terms {
                    return SpfResult::PermError;
                }
            }
            match self.matches(&ctx, &mechanism.kind, depth) {
                Ok(true) => {
                    self.trace.push(TraceEvent::Mechanism {
                        name: mechanism.kind.name(),
                        matched: true,
                    });
                    let result = mechanism.qualifier.result();
                    // §6.2: only the *outermost* record's exp= applies,
                    // and only to a Fail produced by its own mechanisms.
                    if result == SpfResult::Fail && depth == 0 {
                        if let Some(exp_target) = record.explanation() {
                            self.explanation = self.fetch_explanation(&ctx, exp_target);
                        }
                    }
                    return result;
                }
                Ok(false) => {
                    self.trace.push(TraceEvent::Mechanism {
                        name: mechanism.kind.name(),
                        matched: false,
                    });
                }
                Err(result) => return result,
            }
        }

        // No mechanism matched: follow redirect if present (§6.1).
        if let Some(target) = record.redirect() {
            self.lookup_terms += 1;
            if self.lookup_terms > self.config.max_lookup_terms {
                return SpfResult::PermError;
            }
            let Ok(new_domain) = self.expand(&ctx, target) else {
                return SpfResult::PermError;
            };
            self.trace.push(TraceEvent::Recurse {
                domain: new_domain.clone(),
            });
            let result = self.check_domain(outer_ctx, &new_domain, depth + 1);
            // redirect to a domain with no record is PermError (§6.1).
            return if result == SpfResult::None {
                SpfResult::PermError
            } else {
                result
            };
        }
        SpfResult::Neutral
    }

    /// Fetch and expand an `exp=` explanation (RFC 7208 §6.2). Every
    /// failure mode — bad expansion, DNS trouble, no TXT record, multiple
    /// records — silently yields no explanation; exp can never change the
    /// SPF result itself.
    fn fetch_explanation(&mut self, ctx: &MacroContext, target: &MacroString) -> Option<String> {
        let domain_text = self.expander.expand(target, ctx, false).ok()?;
        let domain = Name::parse(&domain_text).ok()?;
        let outcome = self.query(&domain, RecordType::TXT, false).ok()?;
        let records = outcome.records();
        let [record] = records else {
            // Zero or multiple TXT records: no explanation (§6.2).
            return None;
        };
        let text = record.rdata.txt_joined()?;
        let ms = MacroString::parse(&text).ok()?;
        // Explanation text unlocks the exp-only macro letters (c, r, t).
        self.expander.expand(&ms, ctx, true).ok()
    }

    /// Evaluate a single mechanism. `Err` carries a terminal result.
    fn matches(
        &mut self,
        ctx: &MacroContext,
        kind: &MechanismKind,
        depth: u32,
    ) -> Result<bool, SpfResult> {
        match kind {
            MechanismKind::All => Ok(true),
            MechanismKind::Ip4 { addr, cidr } => Ok(match ctx.client_ip {
                IpAddr::V4(ip) => v4_in_network(ip, *addr, *cidr),
                IpAddr::V6(_) => false,
            }),
            MechanismKind::Ip6 { addr, cidr } => Ok(match ctx.client_ip {
                IpAddr::V6(ip) => v6_in_network(ip, *addr, *cidr),
                IpAddr::V4(_) => false,
            }),
            MechanismKind::A {
                domain,
                cidr4,
                cidr6,
            } => {
                let target = self.target_name(ctx, domain.as_ref())?;
                self.address_match(ctx, &target, *cidr4, *cidr6)
            }
            MechanismKind::Mx {
                domain,
                cidr4,
                cidr6,
            } => {
                let target = self.target_name(ctx, domain.as_ref())?;
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
            MechanismKind::Include(domain_spec) => {
                let Ok(new_domain) = self.expand(ctx, domain_spec) else {
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
            MechanismKind::Exists(domain_spec) => {
                let target = self.target_name(ctx, Some(domain_spec))?;
                let outcome = self
                    .query(&target, RecordType::A, true)
                    .map_err(QueryFail::into_result)?;
                Ok(!outcome.records().is_empty())
            }
            MechanismKind::Ptr { domain } => {
                // Deprecated mechanism (§5.5). Full validation: reverse-map
                // the client IP, then *forward-confirm* each candidate host
                // name — a PTR record alone proves nothing, since the
                // in-addr.arpa zone owner controls it freely.
                let target = self.target_name(ctx, domain.as_ref())?;
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
                // §5.5: evaluate at most 10 candidate names.
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

    /// Resolve the target-name of a mechanism: the expanded domain-spec, or
    /// the current domain when absent.
    fn target_name(
        &mut self,
        ctx: &MacroContext,
        domain_spec: Option<&MacroString>,
    ) -> Result<Name, SpfResult> {
        let text = match domain_spec {
            Some(ms) => self.expand(ctx, ms).map_err(|_| SpfResult::PermError)?,
            None => ctx.domain.clone(),
        };
        Name::parse(&text).map_err(|_| SpfResult::PermError)
    }

    fn expand(&mut self, ctx: &MacroContext, ms: &MacroString) -> Result<String, ExpandError> {
        match self.expander.expand(ms, ctx, false) {
            Ok(s) => Ok(s),
            Err(e) => {
                self.trace.push(TraceEvent::ExpanderFault(e.to_string()));
                Err(e)
            }
        }
    }

    /// Check whether any address record of `target` covers the client IP.
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

    /// Issue one DNS query, recording it in the trace and enforcing the
    /// void-lookup limit when `counted` is set.
    fn query(
        &mut self,
        name: &Name,
        rtype: RecordType,
        counted: bool,
    ) -> Result<LookupOutcome, QueryFail> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_dns::rdata::Record;
    use spfail_dns::resolver::LookupError;
    use spfail_spf::expand::CompliantExpander;
    use std::collections::HashMap;

    /// An in-memory DNS fixture.
    #[derive(Default)]
    struct FakeDns {
        records: HashMap<(Name, RecordType), Vec<Record>>,
        fail: bool,
        queries: Vec<(Name, RecordType)>,
    }

    impl FakeDns {
        fn add_txt(&mut self, name: &str, text: &str) {
            let n = Name::parse(name).unwrap();
            self.records
                .entry((n.clone(), RecordType::TXT))
                .or_default()
                .push(Record::new(n, 300, RData::txt(text)));
        }

        fn add_a(&mut self, name: &str, ip: &str) {
            let n = Name::parse(name).unwrap();
            self.records
                .entry((n.clone(), RecordType::A))
                .or_default()
                .push(Record::new(n, 300, RData::A(ip.parse().unwrap())));
        }

        fn add_mx(&mut self, name: &str, exchange: &str) {
            let n = Name::parse(name).unwrap();
            self.records
                .entry((n.clone(), RecordType::MX))
                .or_default()
                .push(Record::new(
                    n,
                    300,
                    RData::Mx {
                        preference: 10,
                        exchange: Name::parse(exchange).unwrap(),
                    },
                ));
        }
    }

    impl SpfDns for FakeDns {
        fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
            if self.fail {
                return Err(LookupError::Timeout);
            }
            self.queries.push((name.clone(), rtype));
            match self.records.get(&(name.to_lowercase(), rtype)) {
                Some(records) => Ok(LookupOutcome::Records(records.clone().into())),
                None => Ok(LookupOutcome::NxDomain),
            }
        }
    }

    fn check(dns: &mut FakeDns, ip: &str, sender_domain: &str) -> SpfResult {
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(dns, &mut expander);
        eval.check_host(ip.parse().unwrap(), "user", sender_domain)
    }

    #[test]
    fn no_record_is_none() {
        let mut dns = FakeDns::default();
        assert_eq!(check(&mut dns, "192.0.2.1", "example.com"), SpfResult::None);
    }

    #[test]
    fn ip4_match_passes() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 ip4:192.0.2.0/24 -all");
        assert_eq!(check(&mut dns, "192.0.2.7", "example.com"), SpfResult::Pass);
        assert_eq!(
            check(&mut dns, "198.51.100.1", "example.com"),
            SpfResult::Fail
        );
    }

    #[test]
    fn a_mechanism_resolves_current_domain() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 a -all");
        dns.add_a("example.com", "192.0.2.10");
        assert_eq!(
            check(&mut dns, "192.0.2.10", "example.com"),
            SpfResult::Pass
        );
        assert_eq!(
            check(&mut dns, "192.0.2.11", "example.com"),
            SpfResult::Fail
        );
    }

    #[test]
    fn a_mechanism_with_macro_issues_expanded_query() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 a:%{d1r}.foo.com -all");
        dns.add_a("example.foo.com", "192.0.2.10");
        assert_eq!(
            check(&mut dns, "192.0.2.10", "example.com"),
            SpfResult::Pass
        );
        // The expanded name was queried — the paper's observable.
        assert!(dns
            .queries
            .iter()
            .any(|(n, t)| *t == RecordType::A && n.to_ascii() == "example.foo.com"));
    }

    #[test]
    fn mx_mechanism() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 mx -all");
        dns.add_mx("example.com", "mail.example.com");
        dns.add_a("mail.example.com", "192.0.2.25");
        assert_eq!(
            check(&mut dns, "192.0.2.25", "example.com"),
            SpfResult::Pass
        );
        assert_eq!(
            check(&mut dns, "192.0.2.26", "example.com"),
            SpfResult::Fail
        );
    }

    #[test]
    fn include_pass_and_fail_semantics() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 include:allowed.org -all");
        dns.add_txt("allowed.org", "v=spf1 ip4:203.0.113.0/24 -all");
        // Pass inside include -> Pass outside.
        assert_eq!(
            check(&mut dns, "203.0.113.5", "example.com"),
            SpfResult::Pass
        );
        // Fail inside include -> not-match -> falls to -all -> Fail.
        assert_eq!(check(&mut dns, "192.0.2.1", "example.com"), SpfResult::Fail);
    }

    #[test]
    fn include_of_missing_record_is_permerror() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 include:missing.org -all");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn redirect_is_followed() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 redirect=_spf.example.com");
        dns.add_txt("_spf.example.com", "v=spf1 ip4:192.0.2.0/24 -all");
        assert_eq!(check(&mut dns, "192.0.2.9", "example.com"), SpfResult::Pass);
        assert_eq!(
            check(&mut dns, "198.51.100.9", "example.com"),
            SpfResult::Fail
        );
    }

    #[test]
    fn redirect_to_nothing_is_permerror() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 redirect=void.example.net");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn neutral_when_nothing_matches_and_no_all() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 ip4:203.0.113.0/24");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::Neutral
        );
    }

    #[test]
    fn two_spf_records_is_permerror() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 -all");
        dns.add_txt("example.com", "v=spf1 +all");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn non_spf_txt_records_are_ignored() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "google-site-verification=abc123");
        dns.add_txt("example.com", "v=spf1 ip4:192.0.2.0/24 -all");
        assert_eq!(check(&mut dns, "192.0.2.1", "example.com"), SpfResult::Pass);
    }

    #[test]
    fn syntax_error_is_permerror() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 bogus-mechanism -all");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn dns_failure_is_temperror() {
        let mut dns = FakeDns {
            fail: true,
            ..FakeDns::default()
        };
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::TempError
        );
    }

    #[test]
    fn lookup_term_limit_enforced() {
        let mut dns = FakeDns::default();
        // 11 `a` terms, each counting against the limit of 10.
        let mechanisms: Vec<String> = (0..11).map(|i| format!("a:h{i}.example.com")).collect();
        dns.add_txt(
            "example.com",
            &format!("v=spf1 {} -all", mechanisms.join(" ")),
        );
        for i in 0..11 {
            dns.add_a(&format!("h{i}.example.com"), "203.0.113.1");
        }
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn void_lookup_limit_enforced() {
        let mut dns = FakeDns::default();
        dns.add_txt(
            "example.com",
            "v=spf1 a:v1.example.com a:v2.example.com a:v3.example.com +all",
        );
        // None of v1..v3 exist: third void lookup exceeds the limit of 2.
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::PermError
        );
    }

    #[test]
    fn exists_mechanism() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 exists:%{ir}.check.example.com -all");
        dns.add_a("1.2.0.192.check.example.com", "127.0.0.2");
        assert_eq!(check(&mut dns, "192.0.2.1", "example.com"), SpfResult::Pass);
        assert_eq!(check(&mut dns, "192.0.2.2", "example.com"), SpfResult::Fail);
    }

    #[test]
    fn trace_records_query_sequence() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 a:%{d1r}.foo.com a:b.foo.com -all");
        dns.add_a("b.foo.com", "192.0.2.50");
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(&mut dns, &mut expander);
        let result = eval.check_host("192.0.2.50".parse().unwrap(), "user", "example.com");
        assert_eq!(result, SpfResult::Pass);
        let queried: Vec<String> = eval
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Query { name, .. } => Some(name.to_ascii()),
                _ => None,
            })
            .collect();
        assert_eq!(
            queried,
            vec!["example.com", "example.foo.com", "b.foo.com"],
            "TXT then the two expanded A queries, in order"
        );
    }

    #[test]
    fn ptr_mechanism_requires_forward_confirmation() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 ptr -all");
        // The reverse zone claims the client is mail.example.com...
        let reverse = Name::parse("1.2.0.192.in-addr.arpa").unwrap();
        dns.records
            .entry((reverse.clone(), RecordType::PTR))
            .or_default()
            .push(Record::new(
                reverse,
                300,
                RData::Ptr(Name::parse("mail.example.com").unwrap()),
            ));
        // ... but without a confirming A record the claim is worthless.
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::Fail,
            "PTR without forward confirmation must not match"
        );
        // With the confirming A record, it matches.
        dns.add_a("mail.example.com", "192.0.2.1");
        assert_eq!(check(&mut dns, "192.0.2.1", "example.com"), SpfResult::Pass);
    }

    #[test]
    fn ptr_outside_target_domain_never_matches() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 ptr -all");
        let reverse = Name::parse("1.2.0.192.in-addr.arpa").unwrap();
        dns.records
            .entry((reverse.clone(), RecordType::PTR))
            .or_default()
            .push(Record::new(
                reverse,
                300,
                RData::Ptr(Name::parse("mail.attacker.net").unwrap()),
            ));
        dns.add_a("mail.attacker.net", "192.0.2.1");
        assert_eq!(
            check(&mut dns, "192.0.2.1", "example.com"),
            SpfResult::Fail,
            "a confirmed PTR outside the target domain is still no match"
        );
    }

    #[test]
    fn exp_modifier_produces_explanation_on_fail() {
        let mut dns = FakeDns::default();
        dns.add_txt(
            "example.com",
            "v=spf1 ip4:203.0.113.0/24 exp=explain.example.com -all",
        );
        dns.add_txt(
            "explain.example.com",
            "%{i} is not a permitted sender for %{d}",
        );
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(&mut dns, &mut expander);
        let result = eval.check_host("192.0.2.1".parse().unwrap(), "user", "example.com");
        assert_eq!(result, SpfResult::Fail);
        assert_eq!(
            eval.explanation(),
            Some("192.0.2.1 is not a permitted sender for example.com")
        );
        // A passing evaluation produces no explanation.
        let result = eval.check_host("203.0.113.7".parse().unwrap(), "user", "example.com");
        assert_eq!(result, SpfResult::Pass);
        assert_eq!(eval.explanation(), None);
    }

    #[test]
    fn exp_failures_never_change_the_result() {
        let mut dns = FakeDns::default();
        // exp target has no TXT record at all.
        dns.add_txt("example.com", "v=spf1 exp=missing.example.com -all");
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(&mut dns, &mut expander);
        let result = eval.check_host("192.0.2.1".parse().unwrap(), "user", "example.com");
        assert_eq!(result, SpfResult::Fail);
        assert_eq!(eval.explanation(), None);
    }

    #[test]
    fn exp_inside_include_is_ignored() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 include:inner.org -all");
        dns.add_txt(
            "inner.org",
            "v=spf1 exp=explain.inner.org ip4:203.0.113.0/24",
        );
        dns.add_txt("explain.inner.org", "inner explanation");
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(&mut dns, &mut expander);
        let result = eval.check_host("192.0.2.1".parse().unwrap(), "user", "example.com");
        // Fail comes from the outer -all; the inner exp must not leak.
        assert_eq!(result, SpfResult::Fail);
        assert_eq!(eval.explanation(), None);
    }

    #[test]
    fn exp_with_multiple_txt_records_yields_none() {
        let mut dns = FakeDns::default();
        dns.add_txt("example.com", "v=spf1 exp=e.example.com -all");
        dns.add_txt("e.example.com", "first");
        dns.add_txt("e.example.com", "second");
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(&mut dns, &mut expander);
        let result = eval.check_host("192.0.2.1".parse().unwrap(), "user", "example.com");
        assert_eq!(result, SpfResult::Fail);
        assert_eq!(eval.explanation(), None);
    }

    #[test]
    fn include_loop_hits_depth_limit() {
        let mut dns = FakeDns::default();
        dns.add_txt("a.test", "v=spf1 include:b.test -all");
        dns.add_txt("b.test", "v=spf1 include:a.test -all");
        // The 10-term lookup limit fires before max depth here; either way
        // the result must be PermError, not a hang.
        assert_eq!(check(&mut dns, "192.0.2.1", "a.test"), SpfResult::PermError);
    }
}
