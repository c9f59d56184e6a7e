//! The vocabulary of SPF evaluation (RFC 7208 §4), shared by the
//! compiled evaluator ([`crate::compile::CompiledEvaluator`]) and the
//! reference evaluator the conformance suite checks it against
//! (`spfail_conformance::eval`).
//!
//! * [`SpfDns`] — where DNS answers come from (the simulated resolver in
//!   production code, a fixture map in tests);
//! * [`EvalConfig`] — the lookup limits of RFC 7208 §4.6.4;
//! * [`TraceEvent`] — what an evaluation did, in order. The DNS queries
//!   in it are the observable the paper's whole methodology rests on;
//! * [`QueryFail`], [`v4_in_network`], [`v6_in_network`] and
//!   [`reverse_name`] — the DNS-failure mapping and address arithmetic
//!   both evaluators apply.

use std::net::IpAddr;

use spfail_dns::resolver::{LookupError, LookupOutcome};
use spfail_dns::{Name, RecordType};

use crate::result::SpfResult;

/// Source of DNS answers for an SPF evaluator.
pub trait SpfDns {
    /// Resolve `name`/`rtype`.
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError>;
}

impl<F> SpfDns for F
where
    F: FnMut(&Name, RecordType) -> Result<LookupOutcome, LookupError>,
{
    fn lookup(&mut self, name: &Name, rtype: RecordType) -> Result<LookupOutcome, LookupError> {
        self(name, rtype)
    }
}

/// Evaluation limits (RFC 7208 §4.6.4).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Maximum DNS-querying terms per evaluation (default 10).
    pub max_lookup_terms: u32,
    /// Maximum void lookups (default 2).
    pub max_void_lookups: u32,
    /// Maximum MX names resolved per `mx` term (default 10).
    pub max_mx_names: usize,
    /// Maximum include/redirect depth.
    pub max_depth: u32,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_lookup_terms: 10,
            max_void_lookups: 2,
            max_mx_names: 10,
            max_depth: 10,
        }
    }
}

/// Things that happened during one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A DNS query was issued.
    Query {
        /// The queried name.
        name: Name,
        /// The queried type.
        rtype: RecordType,
    },
    /// A mechanism finished evaluating.
    Mechanism {
        /// Mechanism name (`"a"`, `"include"`, …).
        name: &'static str,
        /// Whether it matched.
        matched: bool,
    },
    /// Evaluation recursed into another domain via include/redirect.
    Recurse {
        /// The new evaluation domain.
        domain: String,
    },
    /// Macro expansion failed inside the SPF implementation — for the
    /// vulnerable expanders this is a simulated crash.
    ExpanderFault(String),
}

/// Why a DNS query made during evaluation ended the evaluation.
pub enum QueryFail {
    /// The lookup failed (timeout, SERVFAIL): `TempError`.
    Temp,
    /// The query was void and exceeded the void-lookup limit: `PermError`.
    LimitExceeded,
}

impl QueryFail {
    /// The SPF result this failure ends an evaluation with.
    pub fn into_result(self) -> SpfResult {
        match self {
            QueryFail::Temp => SpfResult::TempError,
            QueryFail::LimitExceeded => SpfResult::PermError,
        }
    }
}

/// Whether `ip` lies in `network/cidr` (a `cidr` above 32 counts as 32).
pub fn v4_in_network(ip: std::net::Ipv4Addr, network: std::net::Ipv4Addr, cidr: u8) -> bool {
    if cidr == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - u32::from(cidr.min(32)));
    (u32::from(ip) & mask) == (u32::from(network) & mask)
}

/// Whether `ip` lies in `network/cidr` (a `cidr` above 128 counts as 128).
pub fn v6_in_network(ip: std::net::Ipv6Addr, network: std::net::Ipv6Addr, cidr: u8) -> bool {
    if cidr == 0 {
        return true;
    }
    let cidr = cidr.min(128);
    let ip = u128::from(ip);
    let network = u128::from(network);
    let mask = u128::MAX << (128 - u32::from(cidr));
    (ip & mask) == (network & mask)
}

/// The reverse-DNS name of an address (`in-addr.arpa` / `ip6.arpa`),
/// rendered into one pre-sized buffer (72 bytes covers the longest
/// `ip6.arpa` form) instead of a nibble list plus joins.
pub fn reverse_name(ip: IpAddr) -> Name {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(72);
    match ip {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            let _ = write!(s, "{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]);
        }
        IpAddr::V6(v6) => {
            for byte in v6.octets().iter().rev() {
                let _ = write!(s, "{:x}.{:x}.", byte & 0x0f, byte >> 4);
            }
            s.push_str("ip6.arpa");
        }
    }
    Name::parse(&s).expect("static shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn cidr_helpers() {
        assert!(v4_in_network(
            Ipv4Addr::new(192, 0, 2, 200),
            Ipv4Addr::new(192, 0, 2, 0),
            24
        ));
        assert!(!v4_in_network(
            Ipv4Addr::new(192, 0, 3, 1),
            Ipv4Addr::new(192, 0, 2, 0),
            24
        ));
        assert!(v4_in_network(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(9, 9, 9, 9),
            0
        ));
        assert!(v6_in_network(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::".parse().unwrap(),
            32
        ));
        assert!(!v6_in_network(
            "2001:db9::1".parse().unwrap(),
            "2001:db8::".parse().unwrap(),
            32
        ));
    }

    #[test]
    fn reverse_names() {
        assert_eq!(
            reverse_name("192.0.2.1".parse().unwrap()).to_ascii(),
            "1.2.0.192.in-addr.arpa"
        );
        let v6 = reverse_name("2001:db8::1".parse().unwrap()).to_ascii();
        assert!(v6.ends_with(".ip6.arpa"));
        assert!(v6.starts_with("1.0.0.0."));
    }
}
