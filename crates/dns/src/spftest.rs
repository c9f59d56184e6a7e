//! The dynamic SPF measurement zone of paper §5.1.
//!
//! The probing client advertises `MAIL FROM` addresses under unique
//! subdomains of the measurement zone, `<id>.<suite>.spf-test.dns-lab.org`.
//! This authority synthesises, for any such name, a TXT record of the form
//!
//! ```text
//! v=spf1 a:%{d1r}.<id>.<suite>.spf-test.dns-lab.org
//!        a:b.<id>.<suite>.spf-test.dns-lab.org -all
//! ```
//!
//! populating `<id>` and `<suite>` from the queried name itself. When the
//! probed MTA expands `%{d1r}` and issues the follow-up A/AAAA query, the
//! *shape* of that query's name — recorded in the shared [`QueryLog`] —
//! reveals the MTA's SPF implementation:
//!
//! | prefix observed                         | implementation              |
//! |-----------------------------------------|-----------------------------|
//! | `<id>`                                  | RFC-compliant               |
//! | `org.org.dns-lab.spf-test.<suite>.<id>` | vulnerable libSPF2          |
//! | `org.dns-lab.spf-test.<suite>.<id>`     | reversal without truncation |
//! | `org`                                   | truncation without reversal |
//! | `<id>.<suite>.spf-test.dns-lab.org`     | neither                     |
//! | `%{d1r}` (literal)                      | no macro expansion          |
//! | `b` only                                | macros ignored entirely     |
//!
//! All address queries under the zone are answered with a fixed address that
//! never matches the prober, so the eventual SPF verdict is `Fail` — per the
//! paper's §6.2, the measurement is designed so probe mail is rejected.

use std::net::{IpAddr, Ipv4Addr};

use spfail_netsim::SimTime;

use crate::authority::Authority;
use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::querylog::{QueryLog, QueryLogEntry};
use crate::rdata::{RData, Record, RecordType, Soa};

/// The authority for the dynamic measurement zone.
pub struct SpfTestAuthority {
    origin: Name,
    log: QueryLog,
    answer_a: Ipv4Addr,
    ttl: u32,
}

impl SpfTestAuthority {
    /// The default measurement zone origin used throughout the reproduction.
    pub fn default_origin() -> Name {
        Name::parse("spf-test.dns-lab.org").expect("static name")
    }

    /// A new authority for `origin`, logging to `log`.
    pub fn new(origin: Name, log: QueryLog) -> SpfTestAuthority {
        SpfTestAuthority {
            origin,
            log,
            // TEST-NET-1; deliberately never the prober's address.
            answer_a: Ipv4Addr::new(192, 0, 2, 200),
            ttl: 60,
        }
    }

    /// The shared query log.
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// The SPF policy text synthesised for a probe domain.
    pub fn policy_for(&self, id: &str, suite: &str) -> String {
        format!(
            "v=spf1 a:%{{d1r}}.{id}.{suite}.{origin} a:b.{id}.{suite}.{origin} -all",
            origin = self.origin.to_ascii()
        )
    }

    fn soa(&self) -> Record {
        Record::new(
            self.origin.clone(),
            self.ttl,
            RData::Soa(Soa {
                mname: self
                    .origin
                    .child("ns1")
                    .unwrap_or_else(|_| self.origin.clone()),
                rname: self
                    .origin
                    .child("hostmaster")
                    .unwrap_or_else(|_| self.origin.clone()),
                serial: 20_211_011, // 2021-10-11
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: self.ttl,
            }),
        )
    }
}

impl Authority for SpfTestAuthority {
    fn origin(&self) -> &Name {
        &self.origin
    }

    /// The query log is this authority's only side effect, so a replayed
    /// query that logs the same entry is indistinguishable from an
    /// answered one.
    fn replay_loggable(&self) -> bool {
        true
    }

    fn log_replayed_query(&self, qname: &Name, qtype: RecordType, source: IpAddr, now: SimTime) {
        self.log.record(QueryLogEntry {
            at: now,
            source,
            qname: qname.clone(),
            qtype,
        });
    }

    fn answer(&self, query: &Message, source: IpAddr, now: SimTime) -> Message {
        let mut response = Message::respond_to(query);
        let Some(question) = query.question() else {
            return response.with_rcode(Rcode::FormErr);
        };
        self.log.record(QueryLogEntry {
            at: now,
            source,
            qname: question.name.clone(),
            qtype: question.qtype,
        });
        let Some(prefix) = question.name.strip_suffix(&self.origin) else {
            return response.with_rcode(Rcode::Refused);
        };
        match question.qtype {
            RecordType::TXT | RecordType::SPF => {
                // §6.2: the probe source domains publish DMARC reject
                // policies so that any mail claiming to be from them is
                // rejected outright rather than delivered.
                if prefix
                    .first()
                    .is_some_and(|l| l.eq_ignore_ascii_case("_dmarc"))
                {
                    response.answers.push(Record::new(
                        question.name.clone(),
                        self.ttl,
                        RData::txt("v=DMARC1; p=reject; sp=reject; adkim=s; aspf=s"),
                    ));
                    return response;
                }
                // The probe's MAIL FROM domain is exactly <id>.<suite>.origin.
                if prefix.len() == 2 {
                    let policy = self.policy_for(&prefix[0], &prefix[1]);
                    response.answers.push(Record::new(
                        question.name.clone(),
                        self.ttl,
                        RData::txt(&policy),
                    ));
                    response
                } else {
                    // Expanded names have no TXT data, only addresses.
                    response.with_authority(self.soa())
                }
            }
            RecordType::A => {
                response.answers.push(Record::new(
                    question.name.clone(),
                    self.ttl,
                    RData::A(self.answer_a),
                ));
                response
            }
            RecordType::AAAA => {
                // NODATA: the measurement only publishes IPv4 answers, which
                // keeps per-probe query counts predictable.
                response.with_authority(self.soa())
            }
            RecordType::MX => response.with_authority(self.soa()),
            _ => response.with_authority(self.soa()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn src() -> IpAddr {
        "203.0.113.50".parse().unwrap()
    }

    fn authority() -> (SpfTestAuthority, QueryLog) {
        let log = QueryLog::new();
        (
            SpfTestAuthority::new(SpfTestAuthority::default_origin(), log.clone()),
            log,
        )
    }

    #[test]
    fn txt_query_synthesises_policy_with_ids() {
        let (auth, _log) = authority();
        let q = Message::query(1, n("k7q2x.s01.spf-test.dns-lab.org"), RecordType::TXT);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::NoError);
        let txt = r.answers[0].rdata.txt_joined().unwrap();
        assert_eq!(
            txt,
            "v=spf1 a:%{d1r}.k7q2x.s01.spf-test.dns-lab.org \
             a:b.k7q2x.s01.spf-test.dns-lab.org -all"
        );
    }

    #[test]
    fn expanded_a_queries_get_fixed_answer() {
        let (auth, _log) = authority();
        let q = Message::query(
            2,
            n("org.org.dns-lab.spf-test.s01.k7q2x.k7q2x.s01.spf-test.dns-lab.org"),
            RecordType::A,
        );
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 200)));
    }

    #[test]
    fn aaaa_is_nodata() {
        let (auth, _log) = authority();
        let q = Message::query(3, n("b.k7q2x.s01.spf-test.dns-lab.org"), RecordType::AAAA);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities.len(), 1);
    }

    #[test]
    fn out_of_zone_is_refused_but_still_logged() {
        let (auth, log) = authority();
        let q = Message::query(4, n("example.com"), RecordType::A);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::Refused);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn every_query_is_logged_with_source_and_time() {
        let (auth, log) = authority();
        let t = SimTime::from_micros(42_000_000);
        let q = Message::query(5, n("id1.s2.spf-test.dns-lab.org"), RecordType::TXT);
        auth.answer(&q, src(), t);
        let entries = log.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].at, t);
        assert_eq!(entries[0].source, src());
        assert_eq!(entries[0].qtype, RecordType::TXT);
    }

    #[test]
    fn deep_txt_query_is_nodata() {
        let (auth, _log) = authority();
        let q = Message::query(6, n("a.b.c.spf-test.dns-lab.org"), RecordType::TXT);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert!(r.answers.is_empty());
        assert_eq!(r.header.rcode, Rcode::NoError);
    }

    #[test]
    fn dmarc_reject_policy_is_published() {
        let (auth, _log) = authority();
        for qname in [
            "_dmarc.k7q2.s01.spf-test.dns-lab.org",
            "_dmarc.spf-test.dns-lab.org",
        ] {
            let q = Message::query(7, n(qname), RecordType::TXT);
            let r = auth.answer(&q, src(), SimTime::EPOCH);
            let txt = r.answers[0].rdata.txt_joined().unwrap();
            assert!(txt.starts_with("v=DMARC1; p=reject"), "{qname}: {txt}");
        }
    }

    #[test]
    fn policy_for_formats_labels() {
        let (auth, _log) = authority();
        let p = auth.policy_for("abc", "xyz");
        assert!(p.starts_with("v=spf1 a:%{d1r}.abc.xyz."));
        assert!(p.ends_with("-all"));
    }
}
