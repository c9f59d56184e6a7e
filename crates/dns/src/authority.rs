//! Authoritative server behaviour.
//!
//! An [`Authority`] answers queries for the zones it serves. The static
//! implementation wraps a [`Zone`]; the measurement's dynamic zone lives in
//! [`crate::spftest`].

use std::net::IpAddr;

use spfail_netsim::SimTime;

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::rdata::RecordType;
use crate::zone::{Zone, ZoneAnswer};

/// Something that can authoritatively answer DNS queries.
pub trait Authority: Send + Sync {
    /// The zone origin this authority serves.
    fn origin(&self) -> &Name;

    /// Answer `query` received from `source` at simulated time `now`.
    fn answer(&self, query: &Message, source: IpAddr, now: SimTime) -> Message;

    /// Whether a memoized evaluation may *replay* queries against this
    /// authority instead of re-answering them.
    ///
    /// Replaying skips [`Authority::answer`] — no message is built or
    /// encoded — so it is only transparent when query logging is this
    /// authority's sole answer-path side effect, reproducible through
    /// [`Authority::log_replayed_query`]. Authorities with other
    /// answer-path side effects, or none worth replaying, return `false`,
    /// which keeps every query on the live path. The conservative default
    /// is `false`.
    fn replay_loggable(&self) -> bool {
        false
    }

    /// Record a replayed query exactly as the answer path would have.
    ///
    /// Called instead of [`Authority::answer`] when a cached evaluation is
    /// replayed; implementations that log queries append the same entry the
    /// live path appends. Only invoked when [`Authority::replay_loggable`]
    /// returned `true` at memoization time.
    fn log_replayed_query(
        &self,
        _qname: &Name,
        _qtype: RecordType,
        _source: IpAddr,
        _now: SimTime,
    ) {
    }
}

/// An authority serving a single static [`Zone`]. Answering has no side
/// effect, so a memoized evaluation may replay its queries.
pub struct StaticAuthority {
    zone: Zone,
}

impl StaticAuthority {
    /// Serve `zone`.
    pub fn new(zone: Zone) -> StaticAuthority {
        StaticAuthority { zone }
    }

    /// The underlying zone.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }
}

impl Authority for StaticAuthority {
    fn origin(&self) -> &Name {
        self.zone.origin()
    }

    fn replay_loggable(&self) -> bool {
        true
    }

    fn answer(&self, query: &Message, _source: IpAddr, _now: SimTime) -> Message {
        let mut response = Message::respond_to(query);
        let Some(question) = query.question() else {
            return response.with_rcode(Rcode::FormErr);
        };
        match self.zone.lookup(&question.name, question.qtype) {
            ZoneAnswer::Records(records) => {
                response.answers = records;
                response
            }
            ZoneAnswer::Cname(alias) => {
                // Answer with the alias; in-zone chasing is the resolver's
                // job in this simulation (it re-queries at the target).
                response.answers.push(alias);
                response
            }
            ZoneAnswer::NoData => response.with_authority(self.zone.soa_record()),
            ZoneAnswer::NxDomain => response
                .with_rcode(Rcode::NxDomain)
                .with_authority(self.zone.soa_record()),
            ZoneAnswer::Delegation { ns, glue } => {
                // A referral: not authoritative for the subtree; the NS set
                // goes in the authority section, glue in additional.
                response.header.authoritative = false;
                response.authorities = ns;
                response.additionals = glue;
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::{RData, RecordType};
    use crate::zone::ZoneBuilder;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn authority() -> StaticAuthority {
        let zone = ZoneBuilder::new(n("example.com"))
            .a(&n("example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
            .txt(&n("example.com"), 300, "v=spf1 -all")
            .build();
        StaticAuthority::new(zone)
    }

    fn src() -> IpAddr {
        "198.51.100.7".parse().unwrap()
    }

    #[test]
    fn answers_positive_queries() {
        let auth = authority();
        let q = Message::query(1, n("example.com"), RecordType::A);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.header.authoritative);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn nxdomain_carries_soa() {
        let auth = authority();
        let q = Message::query(2, n("nope.example.com"), RecordType::A);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.authorities[0].record_type(), RecordType::SOA);
    }

    #[test]
    fn nodata_is_noerror_with_soa() {
        let auth = authority();
        let q = Message::query(3, n("example.com"), RecordType::MX);
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities.len(), 1);
    }

    #[test]
    fn empty_question_is_formerr() {
        let auth = authority();
        let q = Message::default();
        let r = auth.answer(&q, src(), SimTime::EPOCH);
        assert_eq!(r.header.rcode, Rcode::FormErr);
    }
}
