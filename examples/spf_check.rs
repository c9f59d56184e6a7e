//! `spf_check` — evaluate an SPF policy from the command line, the way a
//! receiving MTA would, with a choice of SPF implementation.
//!
//! ```text
//! cargo run -p spfail --example spf_check -- \
//!     --record 'v=spf1 a:%{d1r}.foo.com ip4:192.0.2.0/24 -all' \
//!     --sender user@example.com --ip 192.0.2.55 \
//!     [--impl rfc7208|libspf2-vulnerable|libspf2-patched]
//! ```
//!
//! Because no live DNS exists here, every A/AAAA/MX lookup the policy
//! triggers resolves to `192.0.2.55` (so `--ip 192.0.2.55` exercises the
//! matching path) and the queried names are printed — which is the
//! interesting part: run it with `--impl libspf2-vulnerable` and watch the
//! mangled queries appear.

use spfail::dns::resolver::{LookupError, LookupOutcome};
use spfail::dns::{Name, RData, Record, RecordType};
use spfail::libspf2::LibSpf2Expander;
use spfail::spf::eval::{SpfDns, TraceEvent};
use spfail::spf::expand::{CompliantExpander, MacroExpander};
use spfail::spf::record::SpfRecord;
use spfail::spf::{CompiledEvaluator, PolicyCache};

struct EchoDns {
    record: String,
    sender_domain: String,
}

impl SpfDns for EchoDns {
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        match rtype {
            RecordType::TXT if name.to_ascii().eq_ignore_ascii_case(&self.sender_domain) => {
                Ok(LookupOutcome::Records(
                    vec![Record::new(name.clone(), 300, RData::txt(&self.record))].into(),
                ))
            }
            RecordType::A => Ok(LookupOutcome::Records(
                vec![Record::new(
                    name.clone(),
                    300,
                    RData::A("192.0.2.55".parse().expect("ip")),
                )]
                .into(),
            )),
            RecordType::MX => Ok(LookupOutcome::Records(
                vec![Record::new(
                    name.clone(),
                    300,
                    RData::Mx {
                        preference: 10,
                        exchange: name.child("mx").unwrap_or_else(|_| name.clone()),
                    },
                )]
                .into(),
            )),
            _ => Ok(LookupOutcome::NoRecords),
        }
    }
}

fn main() {
    let mut record = "v=spf1 a:%{d1r}.foo.com ip4:192.0.2.0/24 -all".to_string();
    let mut sender = "user@example.com".to_string();
    let mut ip = "192.0.2.55".to_string();
    let mut implementation = "rfc7208".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--record" => record = value("--record"),
            "--sender" => sender = value("--sender"),
            "--ip" => ip = value("--ip"),
            "--impl" => implementation = value("--impl"),
            other => {
                eprintln!("unknown flag {other}; see the doc comment for usage");
                std::process::exit(2);
            }
        }
    }

    let parsed = match SpfRecord::parse(&record) {
        Ok(r) => r,
        Err(e) => {
            println!("record does not parse: {e} -> permerror");
            std::process::exit(1);
        }
    };
    println!("record: {record}");
    println!(
        "  {} mechanisms, {} modifiers",
        parsed.mechanisms.len(),
        parsed.modifiers.len()
    );

    let (local, domain) = sender.split_once('@').unwrap_or(("postmaster", &sender));
    let client: std::net::IpAddr = ip.parse().expect("--ip must be an IP address");

    let mut dns = EchoDns {
        record: record.clone(),
        sender_domain: domain.to_string(),
    };
    let mut expander: Box<dyn MacroExpander> = match implementation.as_str() {
        "rfc7208" => Box::new(CompliantExpander),
        "libspf2-vulnerable" => Box::new(LibSpf2Expander::vulnerable()),
        "libspf2-patched" => Box::new(LibSpf2Expander::patched()),
        other => {
            eprintln!("unknown --impl {other}");
            std::process::exit(2);
        }
    };
    let mut cache = PolicyCache::new();
    let mut eval = CompiledEvaluator::new(&mut dns, &mut expander, &mut cache);
    let result = eval.check_host(client, local, domain);

    println!("sender: {local}@{domain}, client ip: {client}, impl: {implementation}");
    println!("DNS activity:");
    for event in eval.trace() {
        match event {
            TraceEvent::Query { name, rtype } => println!("  query {rtype} {name}"),
            TraceEvent::Mechanism { name, matched } => {
                println!(
                    "  mechanism {name}: {}",
                    if *matched { "match" } else { "no match" }
                )
            }
            TraceEvent::Recurse { domain } => println!("  recurse into {domain}"),
            TraceEvent::ExpanderFault(fault) => println!("  expander fault: {fault}"),
        }
    }
    if let Some(explanation) = eval.explanation() {
        println!("explanation: {explanation}");
    }
    println!("result: {result}");
}
