//! Static zone data with wildcard support.

use std::collections::BTreeMap;

use crate::name::Name;
use crate::rdata::{RData, Record, RecordType, Soa};

/// A static DNS zone: an origin plus owner-name → record sets.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Soa,
    records: BTreeMap<Name, Vec<Record>>,
}

/// Result of looking a name up in a zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records of the requested type at the name (possibly via wildcard).
    Records(Vec<Record>),
    /// The name exists but holds no records of the requested type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The name exists and is an alias; the CNAME record is returned and
    /// resolution should continue at its target.
    Cname(Record),
    /// The name falls under a zone cut: resolution must continue at the
    /// delegated nameservers (RFC 1034 §4.2.1).
    Delegation {
        /// The NS records at the cut.
        ns: Vec<Record>,
        /// Glue address records for the nameservers, where present.
        glue: Vec<Record>,
    },
}

impl Zone {
    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The zone's SOA record (owned by the origin).
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.origin.clone(),
            self.soa.minimum,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Whether `name` falls inside this zone.
    pub fn contains(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.origin)
    }

    /// Look up `name`/`rtype`, applying wildcard synthesis per RFC 1034 §4.3.2
    /// (simplified: a `*` label directly under any existing node).
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> ZoneAnswer {
        if !self.contains(name) {
            return ZoneAnswer::NxDomain;
        }
        // Zone cuts: NS records at any node strictly below the origin and
        // at-or-above the queried name delegate the subtree away (unless
        // the query is for the NS records of the cut itself).
        let mut cut = name.clone();
        while cut.label_count() > self.origin.label_count() {
            if let Some(records) = self.records.get(&cut) {
                let ns: Vec<Record> = records
                    .iter()
                    .filter(|r| r.record_type() == RecordType::NS)
                    .cloned()
                    .collect();
                let ns_of_cut_itself = cut == *name && rtype == RecordType::NS;
                if !ns.is_empty() && !ns_of_cut_itself {
                    let glue = self.glue_for(&ns);
                    return ZoneAnswer::Delegation { ns, glue };
                }
            }
            cut = cut.parent();
        }
        if let Some(records) = self.records.get(name) {
            return Self::select(records, name, rtype);
        }
        // Wildcard: replace the leftmost label(s) with `*` at each depth.
        let mut candidate = name.clone();
        while candidate.label_count() > self.origin.label_count() {
            let parent = candidate.parent();
            if let Ok(star) = parent.child("*") {
                if let Some(records) = self.records.get(&star) {
                    let mut answer = Self::select(records, name, rtype);
                    // Synthesised records take the queried owner name.
                    if let ZoneAnswer::Records(ref mut list) = answer {
                        for r in list {
                            r.name = name.clone();
                        }
                    }
                    if let ZoneAnswer::Cname(ref mut r) = answer {
                        r.name = name.clone();
                    }
                    return answer;
                }
            }
            // An existing node on the path means the name is an empty
            // non-terminal's sibling, not NXDOMAIN territory... keep walking.
            candidate = parent;
        }
        ZoneAnswer::NxDomain
    }

    /// Address records for delegated nameservers that live in this zone.
    fn glue_for(&self, ns: &[Record]) -> Vec<Record> {
        let mut glue = Vec::new();
        for record in ns {
            if let RData::Ns(host) = &record.rdata {
                if let Some(records) = self.records.get(host) {
                    glue.extend(
                        records
                            .iter()
                            .filter(|r| r.record_type().is_address())
                            .cloned(),
                    );
                }
            }
        }
        glue
    }

    fn select(records: &[Record], _name: &Name, rtype: RecordType) -> ZoneAnswer {
        let cname = records
            .iter()
            .find(|r| r.record_type() == RecordType::CNAME);
        if let Some(alias) = cname {
            if rtype != RecordType::CNAME {
                return ZoneAnswer::Cname(alias.clone());
            }
        }
        let matching: Vec<Record> = records
            .iter()
            .filter(|r| r.record_type() == rtype)
            .cloned()
            .collect();
        if matching.is_empty() {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::Records(matching)
        }
    }

    /// Synthesise a root-origin zone from a flat record list.
    ///
    /// Conformance fixtures (generated and corpus cases) describe records
    /// spread over arbitrary unrelated domains; a zone rooted at `.`
    /// contains them all, and [`Zone::lookup`] then provides the
    /// wildcard/NODATA/NXDOMAIN semantics a real authoritative stack
    /// would — the distinction the evaluator's void-lookup accounting
    /// depends on.
    pub fn synthesize(records: impl IntoIterator<Item = Record>) -> Zone {
        let mut builder = ZoneBuilder::new(Name::root());
        for record in records {
            builder = builder.record(record);
        }
        builder.build()
    }

    /// Iterate over all records in the zone.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }
}

/// Builder for [`Zone`].
pub struct ZoneBuilder {
    origin: Name,
    soa: Soa,
    records: BTreeMap<Name, Vec<Record>>,
}

impl ZoneBuilder {
    /// Start a zone at `origin` with a default SOA.
    pub fn new(origin: Name) -> ZoneBuilder {
        let soa = Soa {
            mname: origin.child("ns1").unwrap_or_else(|_| origin.clone()),
            rname: origin
                .child("hostmaster")
                .unwrap_or_else(|_| origin.clone()),
            serial: 20_211_011, // 2021-10-11
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        };
        ZoneBuilder {
            origin,
            soa,
            records: BTreeMap::new(),
        }
    }

    /// Override the SOA.
    pub fn soa(mut self, soa: Soa) -> ZoneBuilder {
        self.soa = soa;
        self
    }

    /// Add a record. The owner name must be inside the zone; out-of-zone
    /// records are rejected with a panic because they indicate a programming
    /// error in world construction, not a runtime condition.
    pub fn record(mut self, record: Record) -> ZoneBuilder {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        self.records
            .entry(record.name.clone())
            .or_default()
            .push(record);
        self
    }

    /// Convenience: add an A record for `name`.
    pub fn a(self, name: &Name, ttl: u32, ip: std::net::Ipv4Addr) -> ZoneBuilder {
        self.record(Record::new(name.clone(), ttl, RData::A(ip)))
    }

    /// Convenience: add a TXT record for `name`.
    pub fn txt(self, name: &Name, ttl: u32, content: &str) -> ZoneBuilder {
        self.record(Record::new(name.clone(), ttl, RData::txt(content)))
    }

    /// Convenience: add an MX record for `name`.
    pub fn mx(self, name: &Name, ttl: u32, preference: u16, exchange: &Name) -> ZoneBuilder {
        self.record(Record::new(
            name.clone(),
            ttl,
            RData::Mx {
                preference,
                exchange: exchange.clone(),
            },
        ))
    }

    /// Finish the zone.
    pub fn build(self) -> Zone {
        Zone {
            origin: self.origin,
            soa: self.soa,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn synthesized_root_zone_holds_unrelated_domains() {
        let zone = Zone::synthesize([
            Record::new(n("example.com"), 300, RData::txt("v=spf1 -all")),
            Record::new(n("other.org"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1))),
        ]);
        assert!(zone.origin().is_root());
        assert!(matches!(
            zone.lookup(&n("example.com"), RecordType::TXT),
            ZoneAnswer::Records(_)
        ));
        assert!(matches!(
            zone.lookup(&n("other.org"), RecordType::A),
            ZoneAnswer::Records(_)
        ));
        // NODATA vs NXDOMAIN survives synthesis — the evaluator's
        // void-lookup accounting depends on the distinction.
        assert_eq!(
            zone.lookup(&n("other.org"), RecordType::TXT),
            ZoneAnswer::NoData
        );
        assert_eq!(
            zone.lookup(&n("missing.test"), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    fn sample_zone() -> Zone {
        ZoneBuilder::new(n("example.com"))
            .a(&n("example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
            .mx(&n("example.com"), 300, 10, &n("mx.example.com"))
            .a(&n("mx.example.com"), 300, Ipv4Addr::new(192, 0, 2, 25))
            .txt(&n("example.com"), 300, "v=spf1 mx -all")
            .record(Record::new(
                n("www.example.com"),
                300,
                RData::Cname(n("example.com")),
            ))
            .a(&n("*.dyn.example.com"), 60, Ipv4Addr::new(192, 0, 2, 99))
            .build()
    }

    #[test]
    fn exact_lookup() {
        let zone = sample_zone();
        match zone.lookup(&n("example.com"), RecordType::MX) {
            ZoneAnswer::Records(rs) => assert_eq!(rs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let zone = sample_zone();
        assert_eq!(
            zone.lookup(&n("example.com"), RecordType::AAAA),
            ZoneAnswer::NoData
        );
        assert_eq!(
            zone.lookup(&n("missing.example.com"), RecordType::A),
            ZoneAnswer::NxDomain
        );
        assert_eq!(
            zone.lookup(&n("other.org"), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn cname_is_returned_for_other_types() {
        let zone = sample_zone();
        match zone.lookup(&n("www.example.com"), RecordType::A) {
            ZoneAnswer::Cname(r) => {
                assert_eq!(r.rdata, RData::Cname(n("example.com")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Asking for the CNAME itself returns it as a record.
        match zone.lookup(&n("www.example.com"), RecordType::CNAME) {
            ZoneAnswer::Records(rs) => assert_eq!(rs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis_takes_query_name() {
        let zone = sample_zone();
        match zone.lookup(&n("abc123.dyn.example.com"), RecordType::A) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].name, n("abc123.dyn.example.com"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_insensitive_lookup() {
        let zone = sample_zone();
        assert!(matches!(
            zone.lookup(&n("EXAMPLE.COM"), RecordType::A),
            ZoneAnswer::Records(_)
        ));
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn out_of_zone_record_panics() {
        let _ =
            ZoneBuilder::new(n("example.com")).a(&n("other.org"), 60, Ipv4Addr::new(192, 0, 2, 1));
    }

    #[test]
    fn delegations_are_detected_below_zone_cuts() {
        let zone = ZoneBuilder::new(n("com"))
            .record(Record::new(
                n("example.com"),
                3600,
                RData::Ns(n("ns1.example.com")),
            ))
            .a(&n("ns1.example.com"), 3600, Ipv4Addr::new(192, 0, 2, 53))
            .a(&n("com"), 300, Ipv4Addr::new(192, 0, 2, 1))
            .build();
        // A name below the cut refers.
        match zone.lookup(&n("mail.example.com"), RecordType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1, "in-zone glue is attached");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The cut itself refers for non-NS queries...
        assert!(matches!(
            zone.lookup(&n("example.com"), RecordType::A),
            ZoneAnswer::Delegation { .. }
        ));
        // ... but answers NS queries for the cut directly.
        assert!(matches!(
            zone.lookup(&n("example.com"), RecordType::NS),
            ZoneAnswer::Records(_)
        ));
        // Data at the origin is unaffected.
        assert!(matches!(
            zone.lookup(&n("com"), RecordType::A),
            ZoneAnswer::Records(_)
        ));
    }

    #[test]
    fn soa_record_is_at_origin() {
        let zone = sample_zone();
        let soa = zone.soa_record();
        assert_eq!(soa.name, n("example.com"));
        assert_eq!(soa.record_type(), RecordType::SOA);
    }
}
