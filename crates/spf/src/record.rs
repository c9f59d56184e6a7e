//! `v=spf1` record parsing (RFC 7208 §4.6.1, §5).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::macrostring::{MacroError, MacroString};
use crate::result::Qualifier;

/// Errors parsing an SPF record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Missing or wrong version tag.
    NotSpf1,
    /// An unrecognised mechanism name.
    UnknownMechanism(String),
    /// A mechanism that requires a domain-spec lacked one.
    MissingDomain(String),
    /// A malformed IP network.
    BadNetwork(String),
    /// A malformed CIDR prefix length.
    BadCidr(String),
    /// A malformed macro-string.
    BadMacro(MacroError),
    /// A term that is neither mechanism nor modifier.
    BadTerm(String),
    /// `redirect=` or `exp=` appeared more than once (RFC 7208 §6:
    /// "MUST NOT appear in a record more than once each").
    DuplicateModifier(&'static str),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::NotSpf1 => write!(f, "record does not begin with v=spf1"),
            RecordError::UnknownMechanism(s) => write!(f, "unknown mechanism {s}"),
            RecordError::MissingDomain(s) => write!(f, "mechanism {s} requires a domain"),
            RecordError::BadNetwork(s) => write!(f, "bad network {s}"),
            RecordError::BadCidr(s) => write!(f, "bad cidr {s}"),
            RecordError::BadMacro(e) => write!(f, "bad macro: {e}"),
            RecordError::BadTerm(s) => write!(f, "unparsable term {s}"),
            RecordError::DuplicateModifier(s) => {
                write!(f, "modifier {s}= appears more than once")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<MacroError> for RecordError {
    fn from(e: MacroError) -> Self {
        RecordError::BadMacro(e)
    }
}

/// The mechanism kinds of RFC 7208 §5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MechanismKind {
    /// `all`.
    All,
    /// `include:<domain-spec>`.
    Include(MacroString),
    /// `a[:<domain-spec>][/cidr[//cidr6]]`.
    A {
        /// Target domain; `None` means the current domain.
        domain: Option<MacroString>,
        /// IPv4 prefix length applied to the addresses found.
        cidr4: u8,
        /// IPv6 prefix length applied to the addresses found.
        cidr6: u8,
    },
    /// `mx[:<domain-spec>][/cidr[//cidr6]]`.
    Mx {
        /// Target domain; `None` means the current domain.
        domain: Option<MacroString>,
        /// IPv4 prefix length.
        cidr4: u8,
        /// IPv6 prefix length.
        cidr6: u8,
    },
    /// `ptr[:<domain-spec>]` (deprecated but still seen).
    Ptr {
        /// Validation domain; `None` means the current domain.
        domain: Option<MacroString>,
    },
    /// `ip4:<network>[/cidr]`.
    Ip4 {
        /// Network address.
        addr: Ipv4Addr,
        /// Prefix length.
        cidr: u8,
    },
    /// `ip6:<network>[/cidr]`.
    Ip6 {
        /// Network address.
        addr: Ipv6Addr,
        /// Prefix length.
        cidr: u8,
    },
    /// `exists:<domain-spec>`.
    Exists(MacroString),
}

impl MechanismKind {
    /// Whether evaluating this mechanism consumes one of the ten permitted
    /// DNS-querying terms (RFC 7208 §4.6.4).
    pub fn counts_against_lookup_limit(&self) -> bool {
        matches!(
            self,
            MechanismKind::Include(_)
                | MechanismKind::A { .. }
                | MechanismKind::Mx { .. }
                | MechanismKind::Ptr { .. }
                | MechanismKind::Exists(_)
        )
    }

    /// The mechanism's name as written in records.
    pub fn name(&self) -> &'static str {
        match self {
            MechanismKind::All => "all",
            MechanismKind::Include(_) => "include",
            MechanismKind::A { .. } => "a",
            MechanismKind::Mx { .. } => "mx",
            MechanismKind::Ptr { .. } => "ptr",
            MechanismKind::Ip4 { .. } => "ip4",
            MechanismKind::Ip6 { .. } => "ip6",
            MechanismKind::Exists(_) => "exists",
        }
    }
}

/// A qualified mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mechanism {
    /// The qualifier (`+`/`-`/`~`/`?`).
    pub qualifier: Qualifier,
    /// The mechanism proper.
    pub kind: MechanismKind,
}

/// Modifiers (RFC 7208 §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Modifier {
    /// `redirect=<domain-spec>`.
    Redirect(MacroString),
    /// `exp=<domain-spec>`.
    Explanation(MacroString),
    /// Any other `name=value`, preserved and ignored per the RFC.
    Unknown {
        /// Modifier name.
        name: String,
        /// Raw value.
        value: String,
    },
}

/// A parsed SPF record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpfRecord {
    /// Mechanisms in evaluation order.
    pub mechanisms: Vec<Mechanism>,
    /// Modifiers in appearance order.
    pub modifiers: Vec<Modifier>,
}

impl SpfRecord {
    /// Whether `text` even looks like an SPF record (has the version tag).
    /// Used to select among multiple TXT records (RFC 7208 §4.5).
    pub fn looks_like_spf(text: &str) -> bool {
        let lower = text.trim_start().to_ascii_lowercase();
        lower == "v=spf1" || lower.starts_with("v=spf1 ")
    }

    /// Parse the text of a `v=spf1` record.
    pub fn parse(text: &str) -> Result<SpfRecord, RecordError> {
        let mut terms = text.split(' ').filter(|t| !t.is_empty());
        match terms.next() {
            Some(v) if v.eq_ignore_ascii_case("v=spf1") => {}
            _ => return Err(RecordError::NotSpf1),
        }
        let mut mechanisms = Vec::new();
        let mut modifiers = Vec::new();
        for term in terms {
            // A modifier is name=value where name is alphanumeric; this
            // check precedes mechanism parsing because `exists:%{x}=y` can't
            // occur (no '=' before ':') but redirect=... has no ':' first.
            if let Some(eq) = term.find('=') {
                let colon = term.find(':');
                if colon.map_or(true, |c| eq < c) {
                    let modifier = Self::parse_modifier(&term[..eq], &term[eq + 1..])?;
                    // §6: redirect= and exp= MUST NOT appear more than once
                    // each; a repeat is a syntax error (check_host() returns
                    // permerror). Unknown modifiers may repeat freely.
                    let dup = |wanted: &Modifier| -> bool {
                        matches!(
                            (wanted, &modifier),
                            (Modifier::Redirect(_), Modifier::Redirect(_))
                                | (Modifier::Explanation(_), Modifier::Explanation(_))
                        )
                    };
                    if modifiers.iter().any(dup) {
                        return Err(RecordError::DuplicateModifier(match modifier {
                            Modifier::Redirect(_) => "redirect",
                            _ => "exp",
                        }));
                    }
                    modifiers.push(modifier);
                    continue;
                }
            }
            mechanisms.push(Self::parse_mechanism(term)?);
        }
        Ok(SpfRecord {
            mechanisms,
            modifiers,
        })
    }

    fn parse_modifier(name: &str, value: &str) -> Result<Modifier, RecordError> {
        match name.to_ascii_lowercase().as_str() {
            "redirect" => Ok(Modifier::Redirect(MacroString::parse(value)?)),
            "exp" => Ok(Modifier::Explanation(MacroString::parse(value)?)),
            _ => Ok(Modifier::Unknown {
                name: name.to_string(),
                value: value.to_string(),
            }),
        }
    }

    fn parse_mechanism(term: &str) -> Result<Mechanism, RecordError> {
        let (qualifier, rest) = Qualifier::strip(term);
        // Split name from argument at ':'; CIDR suffixes come after '/'.
        let (name_part, arg) = match rest.find(':') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => match rest.find('/') {
                Some(i) => (&rest[..i], None),
                None => (rest, None),
            },
        };
        // When there was no ':', the cidr (if any) is still attached to arg
        // handling below; recompute the slash-free name and cidr text.
        let name_lower = name_part.to_ascii_lowercase();
        let cidr_text = match rest.find(':') {
            Some(_) => None, // cidr then lives at the end of `arg`
            None => rest.find('/').map(|i| &rest[i..]),
        };

        let kind = match name_lower.as_str() {
            "all" => {
                if arg.is_some() || cidr_text.is_some() {
                    return Err(RecordError::BadTerm(term.to_string()));
                }
                MechanismKind::All
            }
            "include" => {
                let domain = arg.ok_or_else(|| RecordError::MissingDomain("include".into()))?;
                MechanismKind::Include(MacroString::parse(domain)?)
            }
            "exists" => {
                let domain = arg.ok_or_else(|| RecordError::MissingDomain("exists".into()))?;
                MechanismKind::Exists(MacroString::parse(domain)?)
            }
            "a" | "mx" => {
                let (domain, cidr4, cidr6) = Self::parse_domain_and_cidr(arg, cidr_text)?;
                if name_lower == "a" {
                    MechanismKind::A {
                        domain,
                        cidr4,
                        cidr6,
                    }
                } else {
                    MechanismKind::Mx {
                        domain,
                        cidr4,
                        cidr6,
                    }
                }
            }
            "ptr" => {
                let domain = match arg {
                    Some(d) => Some(MacroString::parse(d)?),
                    None => None,
                };
                MechanismKind::Ptr { domain }
            }
            "ip4" => {
                let arg = arg.ok_or_else(|| RecordError::MissingDomain("ip4".into()))?;
                let (addr_text, cidr) = split_cidr(arg);
                let addr: Ipv4Addr = addr_text
                    .parse()
                    .map_err(|_| RecordError::BadNetwork(addr_text.to_string()))?;
                let cidr = parse_cidr(cidr, 32)?;
                MechanismKind::Ip4 { addr, cidr }
            }
            "ip6" => {
                let arg = arg.ok_or_else(|| RecordError::MissingDomain("ip6".into()))?;
                let (addr_text, cidr) = split_cidr(arg);
                let addr: Ipv6Addr = addr_text
                    .parse()
                    .map_err(|_| RecordError::BadNetwork(addr_text.to_string()))?;
                let cidr = parse_cidr(cidr, 128)?;
                MechanismKind::Ip6 { addr, cidr }
            }
            other => return Err(RecordError::UnknownMechanism(other.to_string())),
        };
        Ok(Mechanism { qualifier, kind })
    }

    /// Parse `[domain][/c4[//c6]]` for `a`/`mx`.
    fn parse_domain_and_cidr(
        arg: Option<&str>,
        bare_cidr: Option<&str>,
    ) -> Result<(Option<MacroString>, u8, u8), RecordError> {
        let mut domain = None;
        let mut cidr_part: Option<&str> = bare_cidr;
        if let Some(arg) = arg {
            let (dom, cidr) = split_cidr_keep(arg);
            if !dom.is_empty() {
                domain = Some(MacroString::parse(dom)?);
            }
            cidr_part = cidr;
        }
        let (cidr4, cidr6) = match cidr_part {
            None => (32, 128),
            Some(text) => {
                let text = text.strip_prefix('/').unwrap_or(text);
                match text.split_once("//") {
                    Some((c4, c6)) => (
                        parse_cidr(if c4.is_empty() { None } else { Some(c4) }, 32)?,
                        parse_cidr(Some(c6), 128)?,
                    ),
                    None => (parse_cidr(Some(text), 32)?, 128),
                }
            }
        };
        Ok((domain, cidr4, cidr6))
    }

    /// The `redirect=` target, if present.
    pub fn redirect(&self) -> Option<&MacroString> {
        self.modifiers.iter().find_map(|m| match m {
            Modifier::Redirect(ms) => Some(ms),
            _ => None,
        })
    }

    /// The `exp=` target, if present.
    pub fn explanation(&self) -> Option<&MacroString> {
        self.modifiers.iter().find_map(|m| match m {
            Modifier::Explanation(ms) => Some(ms),
            _ => None,
        })
    }
}

fn split_cidr(arg: &str) -> (&str, Option<&str>) {
    match arg.find('/') {
        Some(i) => (&arg[..i], Some(&arg[i + 1..])),
        None => (arg, None),
    }
}

fn split_cidr_keep(arg: &str) -> (&str, Option<&str>) {
    match arg.find('/') {
        Some(i) => (&arg[..i], Some(&arg[i..])),
        None => (arg, None),
    }
}

fn parse_cidr(text: Option<&str>, max: u8) -> Result<u8, RecordError> {
    match text {
        None => Ok(max),
        Some(t) => {
            let v: u8 = t.parse().map_err(|_| RecordError::BadCidr(t.to_string()))?;
            if v > max {
                Err(RecordError::BadCidr(t.to_string()))
            } else {
                Ok(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_tag_required() {
        assert!(SpfRecord::parse("v=spf1 -all").is_ok());
        assert!(SpfRecord::parse("V=SPF1 -all").is_ok());
        assert_eq!(SpfRecord::parse("spf2.0/pra"), Err(RecordError::NotSpf1));
        assert_eq!(SpfRecord::parse(""), Err(RecordError::NotSpf1));
        assert!(SpfRecord::looks_like_spf("v=spf1 a -all"));
        assert!(SpfRecord::looks_like_spf("v=spf1"));
        assert!(!SpfRecord::looks_like_spf("v=spf10 a"));
        assert!(!SpfRecord::looks_like_spf("verification=xyz"));
    }

    /// The example policy from paper §2.2.
    #[test]
    fn paper_policy_parses() {
        let r = SpfRecord::parse("v=spf1 a:foo.example.com ip4:192.0.2.1 include:bar.org -all")
            .unwrap();
        assert_eq!(r.mechanisms.len(), 4);
        assert!(matches!(r.mechanisms[0].kind, MechanismKind::A { .. }));
        assert!(matches!(
            r.mechanisms[1].kind,
            MechanismKind::Ip4 { cidr: 32, .. }
        ));
        assert!(matches!(r.mechanisms[2].kind, MechanismKind::Include(_)));
        assert_eq!(r.mechanisms[3].kind, MechanismKind::All);
        assert_eq!(r.mechanisms[3].qualifier, Qualifier::Fail);
    }

    /// The measurement policy of paper §5.1 parses with its macro.
    #[test]
    fn measurement_policy_parses() {
        let r = SpfRecord::parse(
            "v=spf1 a:%{d1r}.ab1c.s1.spf-test.dns-lab.org \
             a:b.ab1c.s1.spf-test.dns-lab.org -all",
        )
        .unwrap();
        assert_eq!(r.mechanisms.len(), 3);
        match &r.mechanisms[0].kind {
            MechanismKind::A {
                domain: Some(ms), ..
            } => assert!(ms.has_macros()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cidr_suffixes() {
        let r = SpfRecord::parse("v=spf1 a/24 mx:mail.example.com/28//64 ip4:10.0.0.0/8").unwrap();
        match &r.mechanisms[0].kind {
            MechanismKind::A {
                domain,
                cidr4,
                cidr6,
            } => {
                assert!(domain.is_none());
                assert_eq!(*cidr4, 24);
                assert_eq!(*cidr6, 128);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &r.mechanisms[1].kind {
            MechanismKind::Mx {
                domain,
                cidr4,
                cidr6,
            } => {
                assert!(domain.is_some());
                assert_eq!(*cidr4, 28);
                assert_eq!(*cidr6, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &r.mechanisms[2].kind {
            MechanismKind::Ip4 { addr, cidr } => {
                assert_eq!(*addr, Ipv4Addr::new(10, 0, 0, 0));
                assert_eq!(*cidr, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ip6_parses() {
        let r = SpfRecord::parse("v=spf1 ip6:2001:db8::/32 ~all").unwrap();
        match &r.mechanisms[0].kind {
            MechanismKind::Ip6 { cidr, .. } => assert_eq!(*cidr, 32),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.mechanisms[1].qualifier, Qualifier::SoftFail);
    }

    #[test]
    fn modifiers() {
        let r = SpfRecord::parse("v=spf1 redirect=_spf.example.com exp=explain.%{d} x-custom=1")
            .unwrap();
        assert!(r.redirect().is_some());
        assert!(r.explanation().is_some());
        assert!(matches!(
            &r.modifiers[2],
            Modifier::Unknown { name, .. } if name == "x-custom"
        ));
    }

    #[test]
    fn bad_records() {
        assert!(matches!(
            SpfRecord::parse("v=spf1 bogus"),
            Err(RecordError::UnknownMechanism(_))
        ));
        assert!(matches!(
            SpfRecord::parse("v=spf1 include"),
            Err(RecordError::MissingDomain(_))
        ));
        assert!(matches!(
            SpfRecord::parse("v=spf1 ip4:not-an-ip"),
            Err(RecordError::BadNetwork(_))
        ));
        assert!(matches!(
            SpfRecord::parse("v=spf1 ip4:10.0.0.0/99"),
            Err(RecordError::BadCidr(_))
        ));
        assert!(matches!(
            SpfRecord::parse("v=spf1 all:extra"),
            Err(RecordError::BadTerm(_))
        ));
        assert!(matches!(
            SpfRecord::parse("v=spf1 exists:%{q}"),
            Err(RecordError::BadMacro(_))
        ));
    }

    /// RFC 7208 §6: a second redirect= or exp= is a syntax error. Found by
    /// the differential conformance fuzzer (crates/conformance): the
    /// pre-fix parser silently kept both and evaluated the first, where
    /// every RFC-conformant validator returns permerror.
    #[test]
    fn duplicate_redirect_or_exp_is_an_error() {
        assert_eq!(
            SpfRecord::parse("v=spf1 redirect=a.example.com redirect=b.example.com"),
            Err(RecordError::DuplicateModifier("redirect"))
        );
        assert_eq!(
            SpfRecord::parse("v=spf1 exp=e1.example.com -all exp=e2.example.com"),
            Err(RecordError::DuplicateModifier("exp"))
        );
        // One of each is fine, and unknown modifiers may repeat.
        assert!(SpfRecord::parse("v=spf1 redirect=a.test exp=e.test").is_ok());
        assert!(SpfRecord::parse("v=spf1 x-a=1 x-a=2 -all").is_ok());
    }

    #[test]
    fn qualifiers_apply_to_any_mechanism() {
        let r = SpfRecord::parse("v=spf1 ?include:x.test ~mx -ip4:192.0.2.0/24 +a").unwrap();
        assert_eq!(r.mechanisms[0].qualifier, Qualifier::Neutral);
        assert_eq!(r.mechanisms[1].qualifier, Qualifier::SoftFail);
        assert_eq!(r.mechanisms[2].qualifier, Qualifier::Fail);
        assert_eq!(r.mechanisms[3].qualifier, Qualifier::Pass);
    }

    #[test]
    fn lookup_limit_accounting() {
        assert!(
            MechanismKind::Include(MacroString::parse("x").unwrap()).counts_against_lookup_limit()
        );
        assert!(!MechanismKind::All.counts_against_lookup_limit());
        assert!(!MechanismKind::Ip4 {
            addr: Ipv4Addr::new(10, 0, 0, 0),
            cidr: 8
        }
        .counts_against_lookup_limit());
    }

    #[test]
    fn extra_spaces_tolerated() {
        let r = SpfRecord::parse("v=spf1   a    -all").unwrap();
        assert_eq!(r.mechanisms.len(), 2);
    }
}
