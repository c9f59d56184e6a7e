//! Macro expansion: the RFC-compliant reference implementation.
//!
//! The [`MacroExpander`] trait is the seam the whole reproduction pivots
//! on. The evaluator asks its expander to turn a macro-string plus a
//! [`MacroContext`] into a domain name; a compliant expander produces
//! `example.foo.com` where the vulnerable libSPF2 one produces
//! `com.com.example.foo.com` — and that difference, observed at the
//! authoritative DNS server, is the paper's detection fingerprint.

use std::fmt;
use std::fmt::Write as _;
use std::net::IpAddr;

use crate::macrostring::{MacroLetter, MacroString, MacroToken, MacroTransform};

/// Everything a macro expansion can draw on (RFC 7208 §7.2).
#[derive(Debug, Clone)]
pub struct MacroContext {
    /// The sender's local part (`l`).
    pub sender_local: String,
    /// The sender's domain (`o`).
    pub sender_domain: String,
    /// The current evaluation domain (`d`); changes across `include`/`redirect`.
    pub domain: String,
    /// The SMTP client's IP address (`i`, `c`, `v`).
    pub client_ip: IpAddr,
    /// The HELO/EHLO identity (`h`).
    pub helo: String,
    /// The receiving host (`r`, exp-only).
    pub receiver: String,
    /// Unix timestamp (`t`, exp-only).
    pub timestamp: u64,
}

impl MacroContext {
    /// A context for sender `local@domain` from `client_ip`.
    pub fn new(local: &str, domain: &str, client_ip: IpAddr) -> MacroContext {
        MacroContext {
            sender_local: local.to_string(),
            sender_domain: domain.to_string(),
            domain: domain.to_string(),
            client_ip,
            helo: domain.to_string(),
            receiver: "receiver.invalid".to_string(),
            timestamp: 0,
        }
    }

    /// The full sender address (`s`).
    pub fn sender(&self) -> String {
        format!("{}@{}", self.sender_local, self.sender_domain)
    }

    /// The raw (pre-transform) value of a macro letter.
    pub fn raw_value(&self, letter: MacroLetter) -> String {
        let mut out = String::new();
        self.write_raw_value(letter, &mut out);
        out
    }

    /// Append the raw (pre-transform) value of a macro letter to `out`
    /// — the allocation-free core of [`MacroContext::raw_value`], used
    /// by expanders that reuse one scratch buffer across tokens.
    pub fn write_raw_value(&self, letter: MacroLetter, out: &mut String) {
        match letter {
            MacroLetter::Sender => {
                out.push_str(&self.sender_local);
                out.push('@');
                out.push_str(&self.sender_domain);
            }
            MacroLetter::Local => out.push_str(&self.sender_local),
            MacroLetter::SenderDomain => out.push_str(&self.sender_domain),
            MacroLetter::Domain => out.push_str(&self.domain),
            MacroLetter::Ip => match self.client_ip {
                IpAddr::V4(v4) => {
                    let _ = write!(out, "{v4}");
                }
                IpAddr::V6(v6) => {
                    // Dotted nibble form, as used under ip6.arpa.
                    for (i, byte) in v6.octets().iter().enumerate() {
                        if i > 0 {
                            out.push('.');
                        }
                        out.push(
                            char::from_digit(u32::from(byte >> 4), 16)
                                .expect("a shifted nibble is always < 16"),
                        );
                        out.push('.');
                        out.push(
                            char::from_digit(u32::from(byte & 0x0f), 16)
                                .expect("a masked nibble is always < 16"),
                        );
                    }
                }
            },
            MacroLetter::Validated => out.push_str("unknown"),
            MacroLetter::IpVersion => out.push_str(match self.client_ip {
                IpAddr::V4(_) => "in-addr",
                IpAddr::V6(_) => "ip6",
            }),
            MacroLetter::Helo => out.push_str(&self.helo),
            MacroLetter::ClientIp => {
                let _ = write!(out, "{}", self.client_ip);
            }
            MacroLetter::Receiver => out.push_str(&self.receiver),
            MacroLetter::Timestamp => {
                let _ = write!(out, "{}", self.timestamp);
            }
        }
    }
}

/// Errors during expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// An exp-only macro letter appeared outside `exp=` text.
    ExpOnlyLetter(char),
    /// The implementation crashed while expanding (vulnerable
    /// implementations corrupting their heap report this).
    ImplementationFault(String),
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::ExpOnlyLetter(c) => {
                write!(f, "macro letter {c} only allowed in exp text")
            }
            ExpandError::ImplementationFault(s) => write!(f, "implementation fault: {s}"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// The pluggable expansion strategy.
pub trait MacroExpander {
    /// Expand `ms` in `ctx`. `in_exp` marks explanation-string context,
    /// where the `c`/`r`/`t` letters become legal.
    fn expand(
        &mut self,
        ms: &MacroString,
        ctx: &MacroContext,
        in_exp: bool,
    ) -> Result<String, ExpandError>;

    /// A short identifier for logs and classification tables.
    fn describe(&self) -> &'static str;

    /// Whether this expander's semantics are exactly RFC 7208 §7.
    ///
    /// The compiled evaluator (`crate::compile`) may substitute its
    /// pre-segmented scratch-buffer splice for a trait call only when the
    /// expander asserts full compliance; every quirky or vulnerable
    /// expander keeps the default `false` and is always consulted, since
    /// even a literal-only macro-string can legally be mangled by a
    /// non-compliant implementation.
    fn is_rfc_compliant(&self) -> bool {
        false
    }
}

impl<T: MacroExpander + ?Sized> MacroExpander for Box<T> {
    fn expand(
        &mut self,
        ms: &MacroString,
        ctx: &MacroContext,
        in_exp: bool,
    ) -> Result<String, ExpandError> {
        (**self).expand(ms, ctx, in_exp)
    }

    fn describe(&self) -> &'static str {
        (**self).describe()
    }

    fn is_rfc_compliant(&self) -> bool {
        (**self).is_rfc_compliant()
    }
}

/// Apply split / reverse / truncate / re-join (RFC 7208 §7.3).
pub fn apply_transform(value: &str, transform: &MacroTransform) -> String {
    let mut out = String::with_capacity(value.len());
    apply_transform_into(value, transform, &mut out);
    out
}

/// Append the transformed `value` to `out` without building a part
/// list: `rsplit` walks the parts in reverse order directly, and the
/// RFC's "keep the right-most n" truncation becomes a `take`/`skip`
/// over the split iterator.
pub fn apply_transform_into(value: &str, transform: &MacroTransform, out: &mut String) {
    let delims = transform.delimiters_or_default();
    let is_delim = |c: char| delims.contains(&c);
    let total = value.split(is_delim).count();
    // digits=0 is nonsense; treat as 1 (defensive).
    let keep = transform
        .digits
        .map_or(total, |n| total.min(n.max(1) as usize));
    // Truncation keeps the right-most `keep` parts of the (possibly
    // reversed) sequence, so both arms skip the same count up front.
    if transform.reverse {
        for (i, part) in value.rsplit(is_delim).skip(total - keep).enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(part);
        }
    } else {
        for (i, part) in value.split(is_delim).skip(total - keep).enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(part);
        }
    }
}

/// Percent-encode everything outside RFC 3986 unreserved characters.
pub fn url_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    url_escape_into(value, &mut out);
    out
}

/// Append the percent-encoded `value` to `out`, one hex digit pair per
/// escaped byte — no per-byte `format!` temporaries.
pub fn url_escape_into(value: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for &b in value.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0x0f)] as char);
        }
    }
}

/// The RFC 7208-compliant expander.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompliantExpander;

impl MacroExpander for CompliantExpander {
    fn expand(
        &mut self,
        ms: &MacroString,
        ctx: &MacroContext,
        in_exp: bool,
    ) -> Result<String, ExpandError> {
        let mut out = String::new(); // lint:allow(alloc-hot-path) the trait returns an owned String; one result buffer per expansion is the contract
                                     // Two scratch buffers reused across every macro token: one for
                                     // the raw letter value, one for its transformed form when the
                                     // token also asks for URL escaping.
        let mut raw = String::new(); // lint:allow(alloc-hot-path) String::new is allocation-free; the buffer is reused across all tokens
        let mut transformed = String::new(); // lint:allow(alloc-hot-path) String::new is allocation-free; the buffer is reused across all tokens
        for token in ms.tokens() {
            match token {
                MacroToken::Literal(text) => out.push_str(text),
                MacroToken::Percent => out.push('%'),
                MacroToken::Space => out.push(' '),
                MacroToken::UrlSpace => out.push_str("%20"),
                MacroToken::Macro {
                    letter,
                    url_escape: escape,
                    transform,
                } => {
                    if letter.exp_only() && !in_exp {
                        return Err(ExpandError::ExpOnlyLetter(letter.as_char()));
                    }
                    raw.clear();
                    ctx.write_raw_value(*letter, &mut raw);
                    if *escape {
                        transformed.clear();
                        apply_transform_into(&raw, transform, &mut transformed);
                        url_escape_into(&transformed, &mut out);
                    } else {
                        apply_transform_into(&raw, transform, &mut out);
                    }
                }
            }
        }
        Ok(out)
    }

    fn describe(&self) -> &'static str {
        "rfc7208"
    }

    fn is_rfc_compliant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MacroContext {
        MacroContext::new("user", "example.com", "192.0.2.3".parse().unwrap())
    }

    fn expand(s: &str) -> String {
        CompliantExpander
            .expand(&MacroString::parse(s).unwrap(), &ctx(), false)
            .unwrap()
    }

    /// The exact examples from paper §2.2.
    #[test]
    fn paper_examples() {
        assert_eq!(expand("%{l}"), "user");
        assert_eq!(expand("%{d}"), "example.com");
        assert_eq!(expand("%{d2}"), "example.com");
        assert_eq!(expand("%{d1}"), "com");
        assert_eq!(expand("%{dr}"), "com.example");
        assert_eq!(expand("%{d1r}"), "example");
    }

    /// The detection mechanism from paper §4.2: RFC-compliant behaviour.
    #[test]
    fn paper_detection_compliant_case() {
        assert_eq!(expand("%{d1r}.foo.com"), "example.foo.com");
    }

    #[test]
    fn sender_macros() {
        assert_eq!(expand("%{s}"), "user@example.com");
        assert_eq!(expand("%{o}"), "example.com");
        assert_eq!(expand("%{h}"), "example.com");
    }

    #[test]
    fn ip_macros() {
        assert_eq!(expand("%{i}"), "192.0.2.3");
        assert_eq!(expand("%{ir}"), "3.2.0.192");
        assert_eq!(expand("%{v}"), "in-addr");
        assert_eq!(
            expand("%{ir}.%{v}.arpa"),
            "3.2.0.192.in-addr.arpa",
            "classic reverse-zone construction"
        );
    }

    #[test]
    fn ipv6_nibbles() {
        let ctx6 = MacroContext::new("u", "example.com", "2001:db8::1".parse().unwrap());
        let out = CompliantExpander
            .expand(&MacroString::parse("%{i}").unwrap(), &ctx6, false)
            .unwrap();
        assert!(out.starts_with("2.0.0.1.0.d.b.8"));
        assert_eq!(out.split('.').count(), 32);
        let v = CompliantExpander
            .expand(&MacroString::parse("%{v}").unwrap(), &ctx6, false)
            .unwrap();
        assert_eq!(v, "ip6");
    }

    #[test]
    fn url_escaping_uppercase_letter() {
        let ctx = MacroContext::new("strange/user", "example.com", "192.0.2.3".parse().unwrap());
        let out = CompliantExpander
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "strange%2Fuser");
    }

    #[test]
    fn url_escape_handles_high_bytes() {
        // The correct rendering of a byte ≥ 0x80 — exactly what the buggy
        // sprintf in libSPF2 gets wrong (it emits %FFFFFFxx instead).
        assert_eq!(url_escape("caf\u{e9}"), "caf%C3%A9"); // UTF-8 of é
        assert_eq!(url_escape("a b"), "a%20b");
        assert_eq!(url_escape("safe-._~"), "safe-._~");
    }

    #[test]
    fn custom_delimiters_split_local_parts() {
        let ctx = MacroContext::new("a-b+c", "example.com", "192.0.2.3".parse().unwrap());
        let out = CompliantExpander
            .expand(&MacroString::parse("%{l-+}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "a.b.c", "split on - and +, rejoined with dots");
    }

    #[test]
    fn exp_only_letters_rejected_outside_exp() {
        let err = CompliantExpander
            .expand(&MacroString::parse("%{t}").unwrap(), &ctx(), false)
            .unwrap_err();
        assert_eq!(err, ExpandError::ExpOnlyLetter('t'));
        // ... but allowed inside exp.
        let ok = CompliantExpander
            .expand(&MacroString::parse("%{r}").unwrap(), &ctx(), true)
            .unwrap();
        assert_eq!(ok, "receiver.invalid");
    }

    #[test]
    fn escapes_expand() {
        assert_eq!(expand("a%%b"), "a%b");
        assert_eq!(expand("a%_b"), "a b");
        assert_eq!(expand("a%-b"), "a%20b");
    }

    #[test]
    fn transform_digits_larger_than_label_count() {
        assert_eq!(expand("%{d9}"), "example.com");
        assert_eq!(expand("%{d9r}"), "com.example");
    }

    #[test]
    fn apply_transform_unit() {
        let t = MacroTransform {
            digits: Some(2),
            reverse: true,
            delimiters: vec![],
        };
        assert_eq!(apply_transform("a.b.c.d", &t), "b.a");
        let t0 = MacroTransform {
            digits: Some(0),
            reverse: false,
            delimiters: vec![],
        };
        // digits=0 is nonsense; treat as 1 (defensive).
        assert_eq!(apply_transform("a.b", &t0), "b");
    }
}
