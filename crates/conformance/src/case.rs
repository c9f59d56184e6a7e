//! One conformance case: a sender identity, a client IP, and a flat DNS
//! fixture, with an optional set of expectations.
//!
//! Cases round-trip through a small line-oriented script format so that
//! minimized reproducers can live in the committed corpus as readable
//! text (`crates/conformance/corpus/*.case`) rather than opaque seeds:
//!
//! ```text
//! # free-form comment
//! name lowercase-hex-escape
//! ip 192.0.2.3
//! sender a/b example.com
//! txt example.com v=spf1 exists:%{L}.e.example.com -all
//! a a%2Fb.e.example.com 127.0.0.2
//! expect-result pass
//! expect-quirk lowercase-hex-escape
//! ```

use std::fmt::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use spfail_dns::{Name, RData, Record};
use spfail_spf::SpfResult;

/// The typed payload of one fixture record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixtureData {
    /// An IPv4 address record.
    A(Ipv4Addr),
    /// An IPv6 address record.
    Aaaa(Ipv6Addr),
    /// A TXT record holding one logical string (SPF policy or not).
    Txt(String),
    /// A mail exchanger.
    Mx(u16, String),
    /// A reverse pointer.
    Ptr(String),
    /// An alias.
    Cname(String),
}

/// One fixture record: an owner name (kept as spelled) plus typed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureRecord {
    /// The owner name, as spelled in the script.
    pub owner: String,
    /// The record payload.
    pub data: FixtureData,
}

/// A complete differential-evaluation case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceCase {
    /// A short identifier (kebab-case) for reports and corpus files.
    pub name: String,
    /// The SMTP client address `check_host` is evaluated for.
    pub client_ip: IpAddr,
    /// The local part of `MAIL FROM`.
    pub sender_local: String,
    /// The domain of `MAIL FROM` (also the initial evaluation domain).
    pub sender_domain: String,
    /// The shared DNS fixture all evaluators see.
    pub records: Vec<FixtureRecord>,
    /// Expected compliant-evaluator result, when the case pins one.
    pub expect_result: Option<SpfResult>,
    /// Quirk names the case is expected to exhibit (subset check).
    pub expect_quirks: Vec<String>,
}

/// A malformed `.case` script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line the error was found on (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

fn result_name(result: SpfResult) -> &'static str {
    match result {
        SpfResult::None => "none",
        SpfResult::Neutral => "neutral",
        SpfResult::Pass => "pass",
        SpfResult::Fail => "fail",
        SpfResult::SoftFail => "softfail",
        SpfResult::TempError => "temperror",
        SpfResult::PermError => "permerror",
    }
}

fn parse_result(s: &str) -> Option<SpfResult> {
    Some(match s {
        "none" => SpfResult::None,
        "neutral" => SpfResult::Neutral,
        "pass" => SpfResult::Pass,
        "fail" => SpfResult::Fail,
        "softfail" => SpfResult::SoftFail,
        "temperror" => SpfResult::TempError,
        "permerror" => SpfResult::PermError,
        _ => return None,
    })
}

impl ConformanceCase {
    /// A minimal empty case evaluating `user@<domain>` from `client_ip`.
    pub fn new(name: &str, client_ip: IpAddr, sender_local: &str, sender_domain: &str) -> Self {
        ConformanceCase {
            name: name.to_string(),
            client_ip,
            sender_local: sender_local.to_string(),
            sender_domain: sender_domain.to_string(),
            records: Vec::new(),
            expect_result: None,
            expect_quirks: Vec::new(),
        }
    }

    /// Append a TXT fixture (convenience for policies).
    pub fn txt(mut self, owner: &str, content: &str) -> Self {
        self.records.push(FixtureRecord {
            owner: owner.to_string(),
            data: FixtureData::Txt(content.to_string()),
        });
        self
    }

    /// Append an A fixture.
    pub fn a(mut self, owner: &str, addr: Ipv4Addr) -> Self {
        self.records.push(FixtureRecord {
            owner: owner.to_string(),
            data: FixtureData::A(addr),
        });
        self
    }

    /// Materialize the fixture into DNS [`Record`]s. Records whose owner
    /// does not parse as a [`Name`] are dropped — generated expansions can
    /// exceed label limits, which a real zone simply could not hold.
    pub fn dns_records(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for fixture in &self.records {
            let Ok(owner) = Name::parse(&fixture.owner) else {
                continue;
            };
            let rdata = match &fixture.data {
                FixtureData::A(ip) => RData::A(*ip),
                FixtureData::Aaaa(ip) => RData::Aaaa(*ip),
                FixtureData::Txt(content) => RData::txt(content),
                FixtureData::Mx(preference, exchange) => match Name::parse(exchange) {
                    Ok(exchange) => RData::Mx {
                        preference: *preference,
                        exchange,
                    },
                    Err(_) => continue,
                },
                FixtureData::Ptr(target) => match Name::parse(target) {
                    Ok(target) => RData::Ptr(target),
                    Err(_) => continue,
                },
                FixtureData::Cname(target) => match Name::parse(target) {
                    Ok(target) => RData::Cname(target),
                    Err(_) => continue,
                },
            };
            out.push(Record::new(owner, 300, rdata));
        }
        out
    }

    /// Every TXT fixture content, with its owner spelling — the macro
    /// strings the expansion-level oracle inspects.
    pub fn txt_contents(&self) -> impl Iterator<Item = (&str, &str)> {
        self.records.iter().filter_map(|r| match &r.data {
            FixtureData::Txt(content) => Some((r.owner.as_str(), content.as_str())),
            _ => None,
        })
    }

    /// Render the case as a `.case` script.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "ip {}", self.client_ip);
        let _ = writeln!(out, "sender {} {}", self.sender_local, self.sender_domain);
        for record in &self.records {
            match &record.data {
                FixtureData::A(ip) => {
                    let _ = writeln!(out, "a {} {ip}", record.owner);
                }
                FixtureData::Aaaa(ip) => {
                    let _ = writeln!(out, "aaaa {} {ip}", record.owner);
                }
                FixtureData::Txt(content) => {
                    let _ = writeln!(out, "txt {} {content}", record.owner);
                }
                FixtureData::Mx(preference, exchange) => {
                    let _ = writeln!(out, "mx {} {preference} {exchange}", record.owner);
                }
                FixtureData::Ptr(target) => {
                    let _ = writeln!(out, "ptr {} {target}", record.owner);
                }
                FixtureData::Cname(target) => {
                    let _ = writeln!(out, "cname {} {target}", record.owner);
                }
            }
        }
        if let Some(result) = self.expect_result {
            let _ = writeln!(out, "expect-result {}", result_name(result));
        }
        for quirk in &self.expect_quirks {
            let _ = writeln!(out, "expect-quirk {quirk}");
        }
        out
    }

    /// Parse a `.case` script.
    pub fn parse_script(script: &str) -> Result<ConformanceCase, ScriptError> {
        let mut name = None;
        let mut client_ip = None;
        let mut sender = None;
        let mut records = Vec::new();
        let mut expect_result = None;
        let mut expect_quirks = Vec::new();

        for (idx, raw) in script.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            let mut fields = rest.split_whitespace();
            match verb {
                "name" => name = Some(rest.to_string()),
                "ip" => {
                    let ip: IpAddr = rest
                        .parse()
                        .map_err(|_| err(lineno, format!("bad ip {rest:?}")))?;
                    client_ip = Some(ip);
                }
                "sender" => {
                    let local = fields
                        .next()
                        .ok_or_else(|| err(lineno, "sender needs <local> <domain>"))?;
                    let domain = fields
                        .next()
                        .ok_or_else(|| err(lineno, "sender needs <local> <domain>"))?;
                    sender = Some((local.to_string(), domain.to_string()));
                }
                "txt" => {
                    let (owner, content) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err(lineno, "txt needs <owner> <content>"))?;
                    records.push(FixtureRecord {
                        owner: owner.to_string(),
                        data: FixtureData::Txt(content.trim().to_string()),
                    });
                }
                "a" | "aaaa" => {
                    let owner = fields
                        .next()
                        .ok_or_else(|| err(lineno, "address record needs <owner> <addr>"))?;
                    let addr = fields
                        .next()
                        .ok_or_else(|| err(lineno, "address record needs <owner> <addr>"))?;
                    let data = if verb == "a" {
                        FixtureData::A(
                            addr.parse()
                                .map_err(|_| err(lineno, format!("bad v4 address {addr:?}")))?,
                        )
                    } else {
                        FixtureData::Aaaa(
                            addr.parse()
                                .map_err(|_| err(lineno, format!("bad v6 address {addr:?}")))?,
                        )
                    };
                    records.push(FixtureRecord {
                        owner: owner.to_string(),
                        data,
                    });
                }
                "mx" => {
                    let owner = fields
                        .next()
                        .ok_or_else(|| err(lineno, "mx needs <owner> <pref> <exchange>"))?;
                    let preference: u16 = fields
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| err(lineno, "mx needs a numeric preference"))?;
                    let exchange = fields
                        .next()
                        .ok_or_else(|| err(lineno, "mx needs <owner> <pref> <exchange>"))?;
                    records.push(FixtureRecord {
                        owner: owner.to_string(),
                        data: FixtureData::Mx(preference, exchange.to_string()),
                    });
                }
                "ptr" | "cname" => {
                    let owner = fields
                        .next()
                        .ok_or_else(|| err(lineno, format!("{verb} needs <owner> <target>")))?;
                    let target = fields
                        .next()
                        .ok_or_else(|| err(lineno, format!("{verb} needs <owner> <target>")))?;
                    let data = if verb == "ptr" {
                        FixtureData::Ptr(target.to_string())
                    } else {
                        FixtureData::Cname(target.to_string())
                    };
                    records.push(FixtureRecord {
                        owner: owner.to_string(),
                        data,
                    });
                }
                "expect-result" => {
                    expect_result = Some(
                        parse_result(rest)
                            .ok_or_else(|| err(lineno, format!("unknown result {rest:?}")))?,
                    );
                }
                "expect-quirk" => {
                    if rest.is_empty() {
                        return Err(err(lineno, "expect-quirk needs a quirk name"));
                    }
                    expect_quirks.push(rest.to_string());
                }
                other => return Err(err(lineno, format!("unknown directive {other:?}"))),
            }
        }

        let (sender_local, sender_domain) =
            sender.ok_or_else(|| err(0, "missing sender directive"))?;
        Ok(ConformanceCase {
            name: name.ok_or_else(|| err(0, "missing name directive"))?,
            client_ip: client_ip.ok_or_else(|| err(0, "missing ip directive"))?,
            sender_local,
            sender_domain,
            records,
            expect_result,
            expect_quirks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips() {
        let case = ConformanceCase::new("demo", "192.0.2.9".parse().unwrap(), "a/b", "example.com")
            .txt("example.com", "v=spf1 exists:%{L}.e.example.com -all")
            .a("a%2Fb.e.example.com", "127.0.0.2".parse().unwrap());
        let script = case.to_script();
        let reparsed = ConformanceCase::parse_script(&script).unwrap();
        assert_eq!(case, reparsed);
        assert_eq!(reparsed.dns_records().len(), 2);
    }

    #[test]
    fn expectations_round_trip() {
        let script = "\
name pinned
ip 2001:db8::1
sender user example.com
txt example.com v=spf1 -all
expect-result fail
expect-quirk lowercase-hex-escape
";
        let case = ConformanceCase::parse_script(script).unwrap();
        assert_eq!(case.expect_result, Some(SpfResult::Fail));
        assert_eq!(case.expect_quirks, vec!["lowercase-hex-escape"]);
        assert_eq!(case.to_script(), script);
    }

    #[test]
    fn malformed_scripts_are_rejected_with_line_numbers() {
        let bad = "name x\nip not-an-ip\nsender u d\n";
        let e = ConformanceCase::parse_script(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(ConformanceCase::parse_script("frobnicate y\n").is_err());
        assert!(ConformanceCase::parse_script("name only\n").is_err());
    }

    #[test]
    fn unparseable_owner_names_are_dropped_from_the_zone() {
        let case = ConformanceCase::new("drop", "192.0.2.1".parse().unwrap(), "u", "example.com")
            .a(
                &format!("{}.example.com", "x".repeat(64)),
                Ipv4Addr::LOCALHOST,
            )
            .txt("example.com", "v=spf1 -all");
        assert_eq!(case.dns_records().len(), 1);
    }
}
