//! Quickstart: parse and evaluate SPF policies, and see the three-way
//! behavioural split at the heart of the paper.
//!
//! ```text
//! cargo run -p spfail --example quickstart
//! ```

use std::collections::HashMap;

use spfail::dns::resolver::{LookupError, LookupOutcome};
use spfail::dns::{Name, RData, Record, RecordType};
use spfail::libspf2::LibSpf2Expander;
use spfail::spf::eval::SpfDns;
use spfail::spf::expand::{CompliantExpander, MacroContext, MacroExpander};
use spfail::spf::macrostring::MacroString;
use spfail::spf::record::SpfRecord;
use spfail::spf::{CompiledEvaluator, PolicyCache};

/// A tiny in-memory DNS fixture.
#[derive(Default)]
struct FixtureDns {
    records: HashMap<(Name, RecordType), Vec<Record>>,
}

impl FixtureDns {
    fn add(&mut self, name: &str, rdata: RData) {
        let name = Name::parse(name).expect("valid name");
        self.records
            .entry((name.clone(), rdata.record_type()))
            .or_default()
            .push(Record::new(name, 300, rdata));
    }
}

impl SpfDns for FixtureDns {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        match self.records.get(&(name.to_lowercase(), rtype)) {
            Some(records) => Ok(LookupOutcome::Records(records.clone().into())),
            None => Ok(LookupOutcome::NxDomain),
        }
    }
}

fn main() {
    // ---- 1. Parse the paper's example policy (§2.2). --------------------
    let policy = "v=spf1 a:foo.example.com ip4:192.0.2.1 include:bar.org -all";
    let record = SpfRecord::parse(policy).expect("valid policy");
    println!("policy: {policy}");
    println!("  parsed {} mechanisms", record.mechanisms.len());

    // ---- 2. Evaluate check_host() against fixture DNS. ------------------
    let mut dns = FixtureDns::default();
    dns.add("example.com", RData::txt(policy));
    dns.add(
        "foo.example.com",
        RData::A("192.0.2.7".parse().expect("ip")),
    );
    dns.add("bar.org", RData::txt("v=spf1 ip4:203.0.113.0/24 -all"));

    // The cache keeps each policy compiled across the four checks, the
    // way a campaign shares one cache across its probes.
    let mut expander = CompliantExpander;
    let mut cache = PolicyCache::new();
    for client in ["192.0.2.7", "192.0.2.1", "203.0.113.9", "198.51.100.1"] {
        let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut cache);
        let result = eval.check_host(client.parse().expect("ip"), "user", "example.com");
        println!("  mail from user@example.com via {client}: {result}");
    }

    // ---- 3. The fingerprint: one macro, three implementations. ----------
    println!();
    println!("the %{{d1r}} fingerprint for sender user@example.com (§4.2):");
    let ms = MacroString::parse("%{d1r}.foo.com").expect("valid macro");
    let ctx = MacroContext::new("user", "example.com", "192.0.2.3".parse().expect("ip"));
    let mut implementations: Vec<(&str, Box<dyn MacroExpander>)> = vec![
        ("RFC 7208 compliant", Box::new(CompliantExpander)),
        (
            "libSPF2 1.2.10 (vulnerable)",
            Box::new(LibSpf2Expander::vulnerable()),
        ),
        ("libSPF2 patched", Box::new(LibSpf2Expander::patched())),
    ];
    for (label, expander) in implementations.iter_mut() {
        let out = expander.expand(&ms, &ctx, false).expect("expansion");
        println!("  {label:<28} -> DNS query for {out}");
    }
    println!();
    println!(
        "a vulnerable server reveals itself by *what it asks the DNS* — no\n\
         exploit, no crash, no delivered email."
    );
}
