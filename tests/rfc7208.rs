//! RFC 7208 conformance scenarios, modelled on the RFC's Appendix A
//! example zone. These exercise the SPF engine exactly as a validating
//! MTA would.

use std::collections::HashMap;
use std::net::IpAddr;

use spfail::conformance::Evaluator;
use spfail::dns::resolver::{LookupError, LookupOutcome};
use spfail::dns::{Name, RData, Record, RecordType};
use spfail::spf::eval::SpfDns;
use spfail::spf::expand::CompliantExpander;
use spfail::spf::result::SpfResult;
use spfail::spf::{CompiledEvaluator, PolicyCache};

/// The RFC's example.com zone (Appendix A), plus helpers.
#[derive(Default)]
struct Zone {
    records: HashMap<(Name, RecordType), Vec<Record>>,
}

impl Zone {
    fn add(&mut self, name: &str, rdata: RData) {
        let name = Name::parse(name).expect("valid name");
        self.records
            .entry((name.clone(), rdata.record_type()))
            .or_default()
            .push(Record::new(name, 3600, rdata));
    }

    fn rfc_appendix_a() -> Zone {
        let mut z = Zone::default();
        // Hosts.
        z.add("example.com", RData::A("192.0.2.10".parse().expect("ip")));
        z.add("example.com", RData::A("192.0.2.11".parse().expect("ip")));
        z.add(
            "amy.example.com",
            RData::A("192.0.2.65".parse().expect("ip")),
        );
        z.add(
            "bob.example.com",
            RData::A("192.0.2.66".parse().expect("ip")),
        );
        z.add(
            "mail-a.example.com",
            RData::A("192.0.2.129".parse().expect("ip")),
        );
        z.add(
            "mail-b.example.com",
            RData::A("192.0.2.130".parse().expect("ip")),
        );
        z.add(
            "mail-c.example.org",
            RData::A("192.0.2.140".parse().expect("ip")),
        );
        // MX records.
        for (pref, exchange) in [(10, "mail-a.example.com"), (20, "mail-b.example.com")] {
            z.add(
                "example.com",
                RData::Mx {
                    preference: pref,
                    exchange: Name::parse(exchange).expect("valid"),
                },
            );
        }
        z
    }

    fn with_policy(mut self, policy: &str) -> Zone {
        self.add("example.com", RData::txt(policy));
        self
    }
}

impl SpfDns for Zone {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        match self.records.get(&(name.to_lowercase(), rtype)) {
            Some(records) => Ok(LookupOutcome::Records(records.clone().into())),
            None => {
                // NODATA when the name exists with other types.
                let exists = self.records.keys().any(|(n, _)| n == &name.to_lowercase());
                if exists {
                    Ok(LookupOutcome::NoRecords)
                } else {
                    Ok(LookupOutcome::NxDomain)
                }
            }
        }
    }
}

fn check(zone: &mut Zone, client: &str) -> SpfResult {
    let ip: IpAddr = client.parse().expect("ip");
    let reference = {
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(zone, &mut expander);
        eval.check_host(ip, "strong-bad", "example.com")
    };
    // Every scenario doubles as a differential vector: the compiled
    // evaluator must agree, both compiling cold and replaying from the
    // warm cache.
    let mut cache = PolicyCache::new();
    for pass in ["cold", "warm"] {
        let mut expander = CompliantExpander;
        let mut eval = CompiledEvaluator::new(zone, &mut expander, &mut cache);
        let compiled = eval.check_host(ip, "strong-bad", "example.com");
        assert_eq!(
            compiled, reference,
            "compiled evaluator diverged from the reference ({pass} cache)"
        );
    }
    reference
}

// --- RFC 7208 Appendix A.1: simple examples --------------------------------

#[test]
fn a1_plus_all_passes_anyone() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 +all");
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Pass);
}

#[test]
fn a1_a_minus_all() {
    // "v=spf1 a -all" — hosts 192.0.2.10/11 pass, others fail.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 a -all");
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.11"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.65"), SpfResult::Fail);
}

#[test]
fn a1_a_colon_domain() {
    // "v=spf1 a:example.org -all": example.org has no A records here.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 a:example.org -all");
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Fail);
}

#[test]
fn a1_mx_minus_all() {
    // "v=spf1 mx -all" — the two MX hosts pass.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 mx -all");
    assert_eq!(check(&mut zone, "192.0.2.129"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.130"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Fail);
}

#[test]
fn a1_mx_with_cidr() {
    // "v=spf1 mx/30 mx:example.org/30 -all": 192.0.2.128/30 covers both
    // MX hosts and their /30 neighbours.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 mx/30 -all");
    assert_eq!(check(&mut zone, "192.0.2.131"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.132"), SpfResult::Fail);
}

#[test]
fn a1_ip4_with_cidr() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ip4:192.0.2.128/28 -all");
    assert_eq!(check(&mut zone, "192.0.2.129"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.140"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.1"), SpfResult::Fail);
}

// --- Result semantics (§2.6, §8) -------------------------------------------

#[test]
fn neutral_qualifier() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ?all");
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Neutral);
}

#[test]
fn softfail_qualifier() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 a ~all");
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::SoftFail);
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Pass);
}

#[test]
fn none_when_no_record() {
    let mut zone = Zone::rfc_appendix_a();
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::None);
}

#[test]
fn first_match_wins() {
    // §4.6.2: mechanisms are evaluated left to right; the first match's
    // qualifier decides.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 -ip4:192.0.2.10 +a -all");
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Fail);
    assert_eq!(check(&mut zone, "192.0.2.11"), SpfResult::Pass);
}

// --- Evaluation limits (§4.6.4) ---------------------------------------------

#[test]
fn ten_lookup_terms_is_the_ceiling() {
    // Exactly 10 DNS-querying terms is fine...
    let terms: Vec<String> = (0..10).map(|_| "a".to_string()).collect();
    let mut zone = Zone::rfc_appendix_a().with_policy(&format!("v=spf1 {} +all", terms.join(" ")));
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Pass);
    // ... the eleventh is PermError.
    let terms: Vec<String> = (0..11).map(|_| "a".to_string()).collect();
    let mut zone = Zone::rfc_appendix_a().with_policy(&format!("v=spf1 {} +all", terms.join(" ")));
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::PermError);
}

#[test]
fn ip_mechanisms_do_not_count_against_the_limit() {
    let terms: Vec<String> = (0..30).map(|i| format!("ip4:198.51.100.{i}")).collect();
    let mut zone = Zone::rfc_appendix_a().with_policy(&format!("v=spf1 {} -all", terms.join(" ")));
    assert_eq!(check(&mut zone, "198.51.100.7"), SpfResult::Pass);
}

// --- Macros in policies (§7) -------------------------------------------------

#[test]
fn exists_with_ip_macro() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 exists:%{ir}.sbl.example.com -all");
    zone.add(
        "65.2.0.192.sbl.example.com",
        RData::A("127.0.0.2".parse().expect("ip")),
    );
    // 192.0.2.65 is listed; it "passes" (the RFC's DNSBL-style example,
    // typically used with a - qualifier in practice).
    assert_eq!(check(&mut zone, "192.0.2.65"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.66"), SpfResult::Fail);
}

#[test]
fn include_with_macro_domain() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 include:_spf.%{d2} -all");
    zone.add("_spf.example.com", RData::txt("v=spf1 ip4:203.0.113.0/24"));
    assert_eq!(check(&mut zone, "203.0.113.99"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "198.51.100.1"), SpfResult::Fail);
}

#[test]
fn exists_with_plain_ip_macro() {
    // %{i} expands to the client IP in its natural (unreversed) form.
    let mut zone =
        Zone::rfc_appendix_a().with_policy("v=spf1 exists:%{i}.allowed.example.com -all");
    zone.add(
        "192.0.2.65.allowed.example.com",
        RData::A("127.0.0.2".parse().expect("ip")),
    );
    assert_eq!(check(&mut zone, "192.0.2.65"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "192.0.2.66"), SpfResult::Fail);
}

#[test]
fn validated_domain_macro_expands_to_unknown() {
    // §7.3 discourages %{p}; the compliant expander never performs the
    // PTR dance and substitutes the literal "unknown" instead, exactly
    // as the RFC allows for an unresolved validated domain.
    let mut zone =
        Zone::rfc_appendix_a().with_policy("v=spf1 exists:%{p}._pvalid.example.com -all");
    zone.add(
        "unknown._pvalid.example.com",
        RData::A("127.0.0.2".parse().expect("ip")),
    );
    assert_eq!(check(&mut zone, "192.0.2.65"), SpfResult::Pass);

    // Without the "unknown" marker record the mechanism never matches.
    let mut zone =
        Zone::rfc_appendix_a().with_policy("v=spf1 exists:%{p}._pvalid.example.com -all");
    assert_eq!(check(&mut zone, "192.0.2.65"), SpfResult::Fail);
}

// --- ptr mechanism (§5.5, Appendix A.1 "v=spf1 ptr -all") ---------------------

#[test]
fn ptr_matches_with_forward_confirmation() {
    // "v=spf1 ptr -all": mail-a's reverse record names a host inside
    // example.com, and mail-a's A record confirms the claim.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ptr -all");
    zone.add(
        "129.2.0.192.in-addr.arpa",
        RData::Ptr(Name::parse("mail-a.example.com").expect("valid")),
    );
    assert_eq!(check(&mut zone, "192.0.2.129"), SpfResult::Pass);
    // A client with no reverse mapping at all cannot match.
    assert_eq!(check(&mut zone, "192.0.2.130"), SpfResult::Fail);
}

#[test]
fn spoofed_ptr_without_forward_record_fails() {
    // An attacker controls their own reverse zone and claims to be
    // amy.example.com — but amy's A record points elsewhere, so the
    // forward-confirmation step rejects the claim.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ptr -all");
    zone.add(
        "1.113.0.203.in-addr.arpa",
        RData::Ptr(Name::parse("amy.example.com").expect("valid")),
    );
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Fail);
}

#[test]
fn confirmed_ptr_outside_target_domain_fails() {
    // mail-c.example.org reverse-maps and forward-confirms correctly,
    // but it is not a subdomain of example.com, so "ptr" must not match.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ptr -all");
    zone.add(
        "140.2.0.192.in-addr.arpa",
        RData::Ptr(Name::parse("mail-c.example.org").expect("valid")),
    );
    assert_eq!(check(&mut zone, "192.0.2.140"), SpfResult::Fail);
}

// --- include terms and the lookup limit (§4.6.4) -------------------------------

#[test]
fn includes_count_against_the_lookup_limit() {
    // Each include is a DNS-querying term. Ten non-matching includes
    // followed by +all still pass...
    let mk = |n: usize| -> Zone {
        let terms: Vec<String> = (0..n)
            .map(|i| format!("include:_s{i}.example.com"))
            .collect();
        let mut zone =
            Zone::rfc_appendix_a().with_policy(&format!("v=spf1 {} +all", terms.join(" ")));
        for i in 0..n {
            zone.add(&format!("_s{i}.example.com"), RData::txt("v=spf1 ?all"));
        }
        zone
    };
    assert_eq!(check(&mut mk(10), "203.0.113.1"), SpfResult::Pass);
    // ... the eleventh include trips the §4.6.4 ceiling.
    assert_eq!(check(&mut mk(11), "203.0.113.1"), SpfResult::PermError);
}

#[test]
fn nested_includes_share_the_global_limit() {
    // A chain of includes nested one inside the next draws from the
    // same global budget as a flat list.
    let mk = |depth: usize| -> Zone {
        let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 include:_n0.example.com +all");
        for i in 0..depth - 1 {
            zone.add(
                &format!("_n{i}.example.com"),
                RData::txt(&format!("v=spf1 include:_n{}.example.com ?all", i + 1)),
            );
        }
        zone.add(
            &format!("_n{}.example.com", depth - 1),
            RData::txt("v=spf1 ?all"),
        );
        zone
    };
    // Ten chained includes in total: the budget is exactly spent.
    assert_eq!(check(&mut mk(10), "203.0.113.1"), SpfResult::Pass);
    // An eleventh link exhausts it mid-chain.
    assert_eq!(check(&mut mk(11), "203.0.113.1"), SpfResult::PermError);
}

// --- Multiple / malformed records (§3.2, §4.5) --------------------------------

#[test]
fn unrelated_txt_records_are_transparent() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 a -all");
    zone.add("example.com", RData::txt("v=verify123 site-ownership"));
    zone.add("example.com", RData::txt("some random text"));
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Pass);
}

#[test]
fn duplicate_spf_records_are_permerror() {
    let mut zone = Zone::rfc_appendix_a()
        .with_policy("v=spf1 a -all")
        .with_policy("v=spf1 mx -all");
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::PermError);
}

#[test]
fn case_insensitive_version_and_mechanisms() {
    let mut zone = Zone::rfc_appendix_a().with_policy("V=SpF1 A -ALL");
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Fail);
}

// --- redirect (§6.1) -----------------------------------------------------------

#[test]
fn redirect_chains_and_inherits_sender_domain() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 redirect=_spf.example.com");
    // %{d} inside the redirected record refers to the *redirect target*
    // domain (the current domain), while %{o} stays the sender's.
    zone.add("_spf.example.com", RData::txt("v=spf1 a:%{o} -all"));
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Fail);
}

#[test]
fn mechanisms_before_redirect_win() {
    let mut zone =
        Zone::rfc_appendix_a().with_policy("v=spf1 ip4:198.51.100.0/24 redirect=_spf.example.com");
    zone.add("_spf.example.com", RData::txt("v=spf1 -all"));
    assert_eq!(check(&mut zone, "198.51.100.1"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::Fail);
}

#[test]
fn all_before_redirect_makes_redirect_inert() {
    // §6.1: redirect= is only used when the record's mechanisms ran out
    // without a match — an `all` term always matches first, even when the
    // redirect target would give a different answer.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 ~all redirect=_spf.example.com");
    zone.add("_spf.example.com", RData::txt("v=spf1 +all"));
    assert_eq!(check(&mut zone, "203.0.113.1"), SpfResult::SoftFail);
}

#[test]
fn duplicate_redirect_modifier_is_permerror() {
    // §6: redirect appearing twice is a syntax error for the whole record.
    let mut zone = Zone::rfc_appendix_a()
        .with_policy("v=spf1 redirect=_spf.example.com redirect=_spf.example.com");
    zone.add("_spf.example.com", RData::txt("v=spf1 +all"));
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::PermError);
}

#[test]
fn duplicate_exp_modifier_is_permerror() {
    let mut zone = Zone::rfc_appendix_a()
        .with_policy("v=spf1 -all exp=explain.example.com exp=explain.example.com");
    zone.add("explain.example.com", RData::txt("go away"));
    assert_eq!(check(&mut zone, "192.0.2.10"), SpfResult::PermError);
}

#[test]
fn exp_expansion_uses_macros_from_the_failing_check() {
    // §6.2: the explanation TXT is macro-expanded with the connection's
    // context — client IP, sender, and the domain whose policy failed.
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 mx -all exp=explain.example.com");
    zone.add(
        "explain.example.com",
        RData::txt("%{i} is not a listed MX for %{s}"),
    );
    let mut expander = CompliantExpander;
    let mut eval = Evaluator::new(&mut zone, &mut expander);
    let result = eval.check_host(
        "203.0.113.1".parse().expect("ip"),
        "strong-bad",
        "example.com",
    );
    assert_eq!(result, SpfResult::Fail);
    assert_eq!(
        eval.explanation(),
        Some("203.0.113.1 is not a listed MX for strong-bad@example.com"),
    );

    // The compiled evaluator expands the same explanation.
    let mut cache = PolicyCache::new();
    let mut expander = CompliantExpander;
    let mut eval = CompiledEvaluator::new(&mut zone, &mut expander, &mut cache);
    let result = eval.check_host(
        "203.0.113.1".parse().expect("ip"),
        "strong-bad",
        "example.com",
    );
    assert_eq!(result, SpfResult::Fail);
    assert_eq!(
        eval.explanation(),
        Some("203.0.113.1 is not a listed MX for strong-bad@example.com"),
    );
}

#[test]
fn exp_is_ignored_on_non_fail_results() {
    let mut zone = Zone::rfc_appendix_a().with_policy("v=spf1 mx ~all exp=explain.example.com");
    zone.add("explain.example.com", RData::txt("unused"));
    let mut expander = CompliantExpander;
    let mut eval = Evaluator::new(&mut zone, &mut expander);
    let result = eval.check_host(
        "203.0.113.1".parse().expect("ip"),
        "strong-bad",
        "example.com",
    );
    assert_eq!(result, SpfResult::SoftFail);
    assert_eq!(eval.explanation(), None);
}
