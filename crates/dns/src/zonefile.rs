//! A master-file (zone file) parser — the RFC 1035 §5 textual format.
//!
//! Supports the subset a mail-measurement needs: `$ORIGIN`, `$TTL`,
//! relative and absolute owner names, `@`, comments, quoted TXT strings
//! (with concatenation), and the record types in [`RData`]. Directives
//! like `$INCLUDE` and multi-line parentheses are intentionally out of
//! scope.
//!
//! Note that leading whitespace is significant (it means "inherit the
//! previous owner"), exactly as in BIND master files:
//!
//! ```
//! use spfail_dns::zonefile::parse_zone;
//!
//! let zone = parse_zone(concat!(
//!     "$ORIGIN example.com.\n",
//!     "$TTL 300\n",
//!     "@        IN MX  10 mail\n",
//!     "mail     IN A   192.0.2.25\n",
//!     "@        IN TXT \"v=spf1 mx -all\"\n",
//! ))
//! .unwrap();
//! assert_eq!(zone.origin().to_ascii(), "example.com");
//! assert_eq!(zone.records().count(), 3);
//! ```

use std::fmt;

use crate::name::{Name, NameError};
use crate::rdata::{RData, Record, Soa};
use crate::zone::{Zone, ZoneBuilder};

/// Errors parsing a zone file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneFileError {
    /// No `$ORIGIN` and no absolute owner to anchor the zone.
    NoOrigin,
    /// A malformed line, with its 1-based line number and a message.
    Bad {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ZoneFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneFileError::NoOrigin => write!(f, "zone file has no $ORIGIN"),
            ZoneFileError::Bad { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ZoneFileError {}

fn bad(line: usize, message: impl Into<String>) -> ZoneFileError {
    ZoneFileError::Bad {
        line,
        message: message.into(),
    }
}

fn name_err(line: usize, e: NameError) -> ZoneFileError {
    bad(line, format!("bad name: {e}"))
}

/// Split a line into fields, honouring double-quoted strings and `;`
/// comments.
fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if in_quotes {
                    // Closing quote: push even if empty (TXT "" is valid).
                    tokens.push(format!("\"{current}"));
                    current.clear();
                    in_quotes = false;
                } else {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                    in_quotes = true;
                }
            }
            '\\' if in_quotes => {
                if let Some(&next) = chars.peek() {
                    current.push(next);
                    chars.next();
                }
            }
            ';' if !in_quotes => break,
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Resolve an owner-name token against the origin.
fn resolve_name(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneFileError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return Name::parse(absolute).map_err(|e| name_err(line, e));
    }
    let relative = Name::parse(token).map_err(|e| name_err(line, e))?;
    relative.concat(origin).map_err(|e| name_err(line, e))
}

/// Parse zone-file text into a [`Zone`].
pub fn parse_zone(text: &str) -> Result<Zone, ZoneFileError> {
    let mut origin: Option<Name> = None;
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut records: Vec<Record> = Vec::new();
    let mut soa: Option<Soa> = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let starts_with_space = raw_line.starts_with([' ', '\t']);
        let tokens = tokenize(raw_line);
        if tokens.is_empty() {
            continue;
        }

        // Directives.
        if tokens[0] == "$ORIGIN" {
            let arg = tokens
                .get(1)
                .ok_or_else(|| bad(line_no, "$ORIGIN needs a name"))?;
            let name = arg.strip_suffix('.').unwrap_or(arg);
            origin = Some(Name::parse(name).map_err(|e| name_err(line_no, e))?);
            continue;
        }
        if tokens[0] == "$TTL" {
            default_ttl = tokens
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad(line_no, "$TTL needs a number"))?;
            continue;
        }
        if tokens[0].starts_with('$') {
            return Err(bad(line_no, format!("unsupported directive {}", tokens[0])));
        }

        let origin_name = origin.clone().ok_or(ZoneFileError::NoOrigin)?;

        // Owner: either inherited (leading whitespace) or the first field.
        let mut fields = tokens.as_slice();
        let owner = if starts_with_space {
            last_owner
                .clone()
                .ok_or_else(|| bad(line_no, "no previous owner to inherit"))?
        } else {
            let owner = resolve_name(&tokens[0], &origin_name, line_no)?;
            fields = &tokens[1..];
            owner
        };
        last_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        let mut cursor = 0;
        for _ in 0..2 {
            match fields.get(cursor).map(String::as_str) {
                Some(token) if token.chars().all(|c| c.is_ascii_digit()) => {
                    ttl = token.parse().map_err(|_| bad(line_no, "bad TTL"))?;
                    cursor += 1;
                }
                Some("IN") | Some("in") => cursor += 1,
                _ => break,
            }
        }

        let rtype_token = fields
            .get(cursor)
            .ok_or_else(|| bad(line_no, "missing record type"))?;
        let data = &fields[cursor + 1..];
        let unquote = |s: &String| s.strip_prefix('"').map(str::to_string);

        let rdata = match rtype_token.to_ascii_uppercase().as_str() {
            "A" => {
                let ip = data
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(line_no, "A needs an IPv4 address"))?;
                RData::A(ip)
            }
            "AAAA" => {
                let ip = data
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(line_no, "AAAA needs an IPv6 address"))?;
                RData::Aaaa(ip)
            }
            "MX" => {
                let preference = data
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(line_no, "MX needs a preference"))?;
                let exchange = data
                    .get(1)
                    .ok_or_else(|| bad(line_no, "MX needs an exchange"))?;
                RData::Mx {
                    preference,
                    exchange: resolve_name(exchange, &origin_name, line_no)?,
                }
            }
            "TXT" => {
                let parts: Vec<String> = data.iter().filter_map(unquote).collect();
                if parts.is_empty() {
                    return Err(bad(line_no, "TXT needs at least one quoted string"));
                }
                RData::Txt(parts)
            }
            "NS" => {
                let host = data
                    .first()
                    .ok_or_else(|| bad(line_no, "NS needs a host"))?;
                RData::Ns(resolve_name(host, &origin_name, line_no)?)
            }
            "CNAME" => {
                let target = data
                    .first()
                    .ok_or_else(|| bad(line_no, "CNAME needs a target"))?;
                RData::Cname(resolve_name(target, &origin_name, line_no)?)
            }
            "PTR" => {
                let target = data
                    .first()
                    .ok_or_else(|| bad(line_no, "PTR needs a target"))?;
                RData::Ptr(resolve_name(target, &origin_name, line_no)?)
            }
            "SOA" => {
                if data.len() < 7 {
                    return Err(bad(line_no, "SOA needs mname rname and 5 numbers"));
                }
                let number = |i: usize| -> Result<u32, ZoneFileError> {
                    data[i]
                        .parse()
                        .map_err(|_| bad(line_no, format!("bad SOA field {}", data[i])))
                };
                let parsed = Soa {
                    mname: resolve_name(&data[0], &origin_name, line_no)?,
                    rname: resolve_name(&data[1], &origin_name, line_no)?,
                    serial: number(2)?,
                    refresh: number(3)?,
                    retry: number(4)?,
                    expire: number(5)?,
                    minimum: number(6)?,
                };
                soa = Some(parsed.clone());
                RData::Soa(parsed)
            }
            other => return Err(bad(line_no, format!("unsupported type {other}"))),
        };
        records.push(Record::new(owner, ttl, rdata));
    }

    let origin = origin.ok_or(ZoneFileError::NoOrigin)?;
    let mut builder = ZoneBuilder::new(origin);
    if let Some(soa) = soa {
        builder = builder.soa(soa);
    }
    for record in records {
        builder = builder.record(record);
    }
    Ok(builder.build())
}

/// Render a [`Zone`] back into master-file text that [`parse_zone`]
/// accepts — absolute owner names throughout, so no `$ORIGIN`-relativity
/// ambiguity survives the round trip.
pub fn render_zone(zone: &Zone) -> String {
    let mut out = format!("$ORIGIN {}.\n", zone.origin().to_ascii());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('\"', "\\\""));
    for record in zone.records() {
        let owner = format!("{}.", record.name.to_ascii());
        let ttl = record.ttl;
        let rhs = match &record.rdata {
            RData::A(ip) => format!("A     {ip}"),
            RData::Aaaa(ip) => format!("AAAA  {ip}"),
            RData::Mx {
                preference,
                exchange,
            } => format!("MX    {preference} {}.", exchange.to_ascii()),
            RData::Txt(parts) => format!(
                "TXT   {}",
                parts.iter().map(|p| quote(p)).collect::<Vec<_>>().join(" ")
            ),
            RData::Ns(n) => format!("NS    {}.", n.to_ascii()),
            RData::Cname(n) => format!("CNAME {}.", n.to_ascii()),
            RData::Ptr(n) => format!("PTR   {}.", n.to_ascii()),
            RData::Soa(soa) => format!(
                "SOA   {}. {}. {} {} {} {} {}",
                soa.mname.to_ascii(),
                soa.rname.to_ascii(),
                soa.serial,
                soa.refresh,
                soa.retry,
                soa.expire,
                soa.minimum
            ),
            RData::Opaque(_) => return out, // not representable; skip
        };
        out.push_str(&format!("{owner} {ttl} IN {rhs}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RecordType;
    use crate::zone::ZoneAnswer;
    use std::net::Ipv4Addr;

    const SAMPLE: &str = r#"
; the RFC 1035 example, trimmed
$ORIGIN example.com.
$TTL 3600
@        IN SOA   ns1 hostmaster 2021101101 7200 3600 1209600 300
@        IN NS    ns1
@        IN MX    10 mail
@        IN TXT   "v=spf1 mx -all"
ns1      IN A     192.0.2.53
mail 300 IN A     192.0.2.25
www      IN CNAME @
ext      IN MX    20 backup.example.net.
"#;

    #[test]
    fn parses_the_sample_zone() {
        let zone = parse_zone(SAMPLE).unwrap();
        assert_eq!(zone.origin().to_ascii(), "example.com");
        assert_eq!(zone.records().count(), 8);
        let mail = Name::parse("mail.example.com").unwrap();
        match zone.lookup(&mail, RecordType::A) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(rs[0].ttl, 300, "inline TTL overrides $TTL");
                assert_eq!(rs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 25)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn at_and_relative_names_resolve_against_origin() {
        let zone = parse_zone(SAMPLE).unwrap();
        let apex = Name::parse("example.com").unwrap();
        match zone.lookup(&apex, RecordType::MX) {
            ZoneAnswer::Records(rs) => match &rs[0].rdata {
                RData::Mx { exchange, .. } => {
                    assert_eq!(exchange.to_ascii(), "mail.example.com")
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // An absolute exchange (trailing dot) is NOT origin-qualified.
        let ext = Name::parse("ext.example.com").unwrap();
        match zone.lookup(&ext, RecordType::MX) {
            ZoneAnswer::Records(rs) => match &rs[0].rdata {
                RData::Mx { exchange, .. } => {
                    assert_eq!(exchange.to_ascii(), "backup.example.net")
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txt_quoting_and_concatenation() {
        let zone = parse_zone(
            r#"$ORIGIN t.test.
@ IN TXT "v=spf1 " "ip4:192.0.2.0/24" " -all"
@ IN TXT "quote \" inside; not a comment"
"#,
        )
        .unwrap();
        let apex = Name::parse("t.test").unwrap();
        match zone.lookup(&apex, RecordType::TXT) {
            ZoneAnswer::Records(rs) => {
                assert_eq!(
                    rs[0].rdata.txt_joined().unwrap(),
                    "v=spf1 ip4:192.0.2.0/24 -all"
                );
                assert_eq!(
                    rs[1].rdata.txt_joined().unwrap(),
                    "quote \" inside; not a comment"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn owner_inheritance_via_leading_whitespace() {
        let zone =
            parse_zone("$ORIGIN i.test.\nhost IN A 192.0.2.1\n     IN A 192.0.2.2\n").unwrap();
        let host = Name::parse("host.i.test").unwrap();
        match zone.lookup(&host, RecordType::A) {
            ZoneAnswer::Records(rs) => assert_eq!(rs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_are_stripped() {
        let zone =
            parse_zone("; leading comment\n$ORIGIN c.test. ; trailing\n@ IN A 192.0.2.9 ; note\n")
                .unwrap();
        assert_eq!(zone.records().count(), 1);
    }

    #[test]
    fn soa_is_adopted_by_the_zone() {
        let zone = parse_zone(SAMPLE).unwrap();
        let soa = zone.soa_record();
        match soa.rdata {
            RData::Soa(s) => {
                assert_eq!(s.serial, 2021101101);
                assert_eq!(s.mname.to_ascii(), "ns1.example.com");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_zone("$ORIGIN e.test.\n@ IN A not-an-ip\n").unwrap_err();
        assert_eq!(
            err,
            ZoneFileError::Bad {
                line: 2,
                message: "A needs an IPv4 address".into()
            }
        );
        assert_eq!(
            parse_zone("@ IN A 192.0.2.1\n").map(|_| ()),
            Err(ZoneFileError::NoOrigin)
        );
        assert!(matches!(
            parse_zone("$ORIGIN x.test.\n@ IN WKS whatever\n"),
            Err(ZoneFileError::Bad { line: 2, .. })
        ));
        assert!(matches!(
            parse_zone("$INCLUDE other.zone\n"),
            Err(ZoneFileError::Bad { line: 1, .. })
        ));
    }

    #[test]
    fn render_parse_round_trip() {
        let zone = parse_zone(SAMPLE).unwrap();
        let rendered = render_zone(&zone);
        let reparsed = parse_zone(&rendered).unwrap();
        assert_eq!(reparsed.origin(), zone.origin());
        let mut a: Vec<String> = zone.records().map(|r| r.to_string()).collect();
        let mut b: Vec<String> = reparsed.records().map(|r| r.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn aaaa_and_ptr_round_trip() {
        let zone = parse_zone("$ORIGIN p.test.\nv6 IN AAAA 2001:db8::1\nrev IN PTR host.p.test.\n")
            .unwrap();
        assert_eq!(zone.records().count(), 2);
    }
}
