//! IPv6 paths through the SPF engine: `ip6` mechanisms, AAAA-based `a`
//! matching, and the nibble forms of the `i`/`v` macros.
//!
//! Every evaluation runs through the conformance crate's reference
//! evaluator and through the compiled evaluator campaigns use, cold and
//! then warm on one [`PolicyCache`]; all three must agree on the result
//! and on the DNS queries sent.

use std::collections::HashMap;

use spfail::conformance::Evaluator;
use spfail::dns::resolver::{LookupError, LookupOutcome};
use spfail::dns::{Name, RData, Record, RecordType};
use spfail::libspf2::LibSpf2Expander;
use spfail::spf::eval::{SpfDns, TraceEvent};
use spfail::spf::expand::{CompliantExpander, MacroContext, MacroExpander};
use spfail::spf::macrostring::MacroString;
use spfail::spf::result::SpfResult;
use spfail::spf::{CompiledEvaluator, PolicyCache};

#[derive(Default)]
struct V6Zone {
    records: HashMap<(Name, RecordType), Vec<Record>>,
}

impl V6Zone {
    fn add(&mut self, name: &str, rdata: RData) {
        let name = Name::parse(name).expect("valid name");
        self.records
            .entry((name.clone(), rdata.record_type()))
            .or_default()
            .push(Record::new(name, 300, rdata));
    }
}

impl SpfDns for V6Zone {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        match self.records.get(&(name.to_lowercase(), rtype)) {
            Some(records) => Ok(LookupOutcome::Records(records.clone().into())),
            None => Ok(LookupOutcome::NxDomain),
        }
    }
}

/// The DNS queries of an evaluation trace, in order.
fn queries(trace: &[TraceEvent]) -> Vec<(Name, RecordType)> {
    trace
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Query { name, rtype } => Some((name.clone(), *rtype)),
            _ => None,
        })
        .collect()
}

/// Evaluate `user@example.com` from `client` with the reference
/// evaluator, then with the compiled one cold and warm; returns the
/// agreed result and query sequence.
fn evaluate(zone: &mut V6Zone, client: &str) -> (SpfResult, Vec<(Name, RecordType)>) {
    let ip = client.parse().expect("ip");
    let reference = {
        let mut expander = CompliantExpander;
        let mut eval = Evaluator::new(zone, &mut expander);
        let result = eval.check_host(ip, "user", "example.com");
        (result, queries(eval.trace()))
    };
    let mut cache = PolicyCache::new();
    for pass in ["cold", "warm"] {
        let mut expander = CompliantExpander;
        let mut eval = CompiledEvaluator::new(zone, &mut expander, &mut cache);
        let result = eval.check_host(ip, "user", "example.com");
        assert_eq!(
            (result, queries(eval.trace())),
            reference,
            "compiled evaluator diverged from the reference for {client} ({pass} cache)"
        );
    }
    reference
}

fn check(zone: &mut V6Zone, client: &str) -> SpfResult {
    evaluate(zone, client).0
}

#[test]
fn ip6_mechanism_matches_prefixes() {
    let mut zone = V6Zone::default();
    zone.add(
        "example.com",
        RData::txt("v=spf1 ip6:2001:db8:100::/48 -all"),
    );
    assert_eq!(check(&mut zone, "2001:db8:100::25"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "2001:db8:100:ffff::1"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "2001:db8:200::25"), SpfResult::Fail);
    // An IPv4 client never matches an ip6 mechanism.
    assert_eq!(check(&mut zone, "192.0.2.1"), SpfResult::Fail);
}

#[test]
fn a_mechanism_uses_aaaa_for_v6_clients() {
    let mut zone = V6Zone::default();
    zone.add("example.com", RData::txt("v=spf1 a -all"));
    zone.add(
        "example.com",
        RData::Aaaa("2001:db8::25".parse().expect("ip")),
    );
    assert_eq!(check(&mut zone, "2001:db8::25"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "2001:db8::26"), SpfResult::Fail);

    // The evaluators must have asked for AAAA, not A.
    let (_, queried) = evaluate(&mut zone, "2001:db8::25");
    assert!(queried.iter().any(|(_, rtype)| *rtype == RecordType::AAAA));
    assert!(!queried.iter().any(|(_, rtype)| *rtype == RecordType::A));
}

#[test]
fn ip4_and_ip6_mechanisms_coexist() {
    let mut zone = V6Zone::default();
    zone.add(
        "example.com",
        RData::txt("v=spf1 ip4:192.0.2.0/24 ip6:2001:db8::/32 -all"),
    );
    assert_eq!(check(&mut zone, "192.0.2.9"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "2001:db8::9"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "198.51.100.9"), SpfResult::Fail);
    assert_eq!(check(&mut zone, "2001:db9::9"), SpfResult::Fail);
}

#[test]
fn i_macro_expands_to_nibbles_for_v6() {
    let ctx = MacroContext::new("u", "example.com", "2001:db8::1".parse().expect("ip"));
    let out = CompliantExpander
        .expand(
            &MacroString::parse("%{ir}.%{v}.arpa").expect("macro"),
            &ctx,
            false,
        )
        .expect("expands");
    // 32 nibbles reversed + ip6.arpa — the standard reverse-zone shape.
    assert!(out.ends_with(".ip6.arpa"));
    assert!(out.starts_with("1.0.0.0."));
    assert_eq!(out.split('.').count(), 32 + 2); // 32 nibbles + ip6 + arpa
}

#[test]
fn exists_with_v6_macro_is_usable() {
    let mut zone = V6Zone::default();
    // The full reversed nibble string distinguishes individual addresses
    // (the rightmost reversed labels are the *high-order* nibbles, which
    // neighbouring addresses share — a truncated %{i6r} would not work).
    zone.add(
        "example.com",
        RData::txt("v=spf1 exists:%{ir}.list.example.com -all"),
    );
    let ctx = MacroContext::new("u", "example.com", "2001:db8::1".parse().expect("ip"));
    let listed = CompliantExpander
        .expand(
            &MacroString::parse("%{ir}.list.example.com").expect("macro"),
            &ctx,
            false,
        )
        .expect("expands");
    zone.add(&listed, RData::A("127.0.0.2".parse().expect("ip")));
    assert_eq!(check(&mut zone, "2001:db8::1"), SpfResult::Pass);
    assert_eq!(check(&mut zone, "2001:db8::2"), SpfResult::Fail);
}

#[test]
fn vulnerable_expander_handles_v6_macros_benignly() {
    // The buggy reversal path operates on nibble labels just the same;
    // with lowercase macros it stays benign and merely mangles the name.
    let ctx = MacroContext::new("u", "example.com", "2001:db8::1".parse().expect("ip"));
    let mut vulnerable = LibSpf2Expander::vulnerable();
    let out = vulnerable
        .expand(&MacroString::parse("%{i1r}").expect("macro"), &ctx, false)
        .expect("expands");
    // reversed nibbles start with [1, 0, 0, ...]; the duplicated first
    // label makes it "1.1.0.0....".
    assert!(out.starts_with("1.1.0.0."));
    assert!(!vulnerable.heap().corrupted());
}
