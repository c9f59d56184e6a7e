//! Remote detection end-to-end (paper §4.2/§5.1): probe three mail
//! servers over simulated SMTP and classify their SPF implementations
//! from the DNS queries they send — without harming any of them.
//!
//! ```text
//! cargo run -p spfail --example detect_vulnerable
//! ```

use std::sync::Arc;

use spfail::dns::{Directory, QueryLog, SpfTestAuthority};
use spfail::libspf2::MacroBehavior;
use spfail::mta::{Mta, MtaConfig};
use spfail::netsim::{SimClock, SimRng};
use spfail::prober::classify;
use spfail::smtp::address::EmailAddress;
use spfail::smtp::command::Command;

fn probe(mta: &mut Mta, log: &QueryLog, id: &str, suite: &str) {
    let log_start = log.len();

    // The NoMsg probe: EHLO, MAIL FROM with the unique probe domain,
    // RCPT, DATA — then hang up before a single message byte.
    let origin = SpfTestAuthority::default_origin();
    let sender = EmailAddress::new(
        "mmj7yzdm0tbk",
        &format!("{id}.{suite}.{}", origin.to_ascii()),
    )
    .expect("valid probe address");

    mta.connect("203.0.113.25".parse().expect("ip"));
    let (mut session, banner) = mta.open_session();
    println!("  S: {banner}");
    for command in [
        Command::Ehlo("probe.dns-lab.org".into()),
        Command::MailFrom(sender),
        Command::RcptTo(EmailAddress::parse("postmaster@target.test").expect("valid")),
        Command::Data,
    ] {
        println!("  C: {command}");
        let reply = session.handle(&command);
        println!("  S: {reply}");
        if reply.is_failure() {
            break;
        }
    }
    println!("  C: <connection dropped before message data (NoMsg)>");

    // Classify from the authoritative server's query log.
    let entries = log.entries_from(log_start);
    println!("  measurement zone observed:");
    for entry in &entries {
        println!("    {} {}", entry.qtype, entry.qname);
    }
    let classification = classify(&entries, id, suite, &origin);
    let verdict = if classification.vulnerable() {
        "VULNERABLE libSPF2 (CVE-2021-33912/33913)"
    } else if classification.erroneous_non_vulnerable() {
        "non-compliant macro expansion (but not the vulnerable pattern)"
    } else if classification.conclusive() {
        "RFC-compliant SPF implementation"
    } else {
        "inconclusive (no SPF activity observed)"
    };
    println!("  verdict: {verdict}");
    println!();
}

fn main() {
    // The measurement infrastructure: an authoritative DNS server for
    // spf-test.dns-lab.org that synthesises per-probe SPF policies and
    // logs every query.
    let clock = SimClock::new();
    let log = QueryLog::new();
    let directory = Directory::new();
    directory.register(Arc::new(SpfTestAuthority::new(
        SpfTestAuthority::default_origin(),
        log.clone(),
    )));

    let build = |config: MtaConfig, seed: u64| {
        Mta::new(
            config,
            "198.51.100.10".parse().expect("ip"),
            directory.clone(),
            clock.clone(),
            SimRng::new(seed),
        )
    };

    println!("=== probing mx.vulnerable.example (libSPF2 1.2.10) ===");
    probe(
        &mut build(MtaConfig::vulnerable("mx.vulnerable.example"), 1),
        &log,
        "aa1",
        "demo",
    );

    println!("=== probing mx.compliant.example (RFC 7208) ===");
    probe(
        &mut build(MtaConfig::compliant("mx.compliant.example"), 2),
        &log,
        "bb2",
        "demo",
    );

    println!("=== probing mx.sloppy.example (reverses but never truncates) ===");
    let mut sloppy = MtaConfig::compliant("mx.sloppy.example");
    sloppy.spf_impls = vec![MacroBehavior::ReverseNoTruncate];
    probe(&mut build(sloppy, 3), &log, "cc3", "demo");
}
