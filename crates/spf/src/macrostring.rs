//! The SPF macro language (RFC 7208 §7), parsed into tokens.
//!
//! A macro-string is a sequence of literal characters and macro expansions
//! of the form `%{<letter><digits?><r?><delimiters?>}`, plus the escapes
//! `%%`, `%_` and `%-`. The *uppercase* form of a letter requests URL
//! escaping of the expanded value — the trigger condition for both libSPF2
//! CVEs the paper studies.

use std::fmt;

/// A macro letter (RFC 7208 §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroLetter {
    /// `s` — the full sender address, `local@domain`.
    Sender,
    /// `l` — the sender's local part.
    Local,
    /// `o` — the sender's domain.
    SenderDomain,
    /// `d` — the current evaluation domain.
    Domain,
    /// `i` — the client IP in dotted / nibble form.
    Ip,
    /// `p` — the validated reverse-DNS domain of the client IP.
    Validated,
    /// `v` — `"in-addr"` for IPv4, `"ip6"` for IPv6.
    IpVersion,
    /// `h` — the HELO/EHLO domain.
    Helo,
    /// `c` — the client IP in readable form (exp-only).
    ClientIp,
    /// `r` — the receiving host's domain (exp-only).
    Receiver,
    /// `t` — the current timestamp (exp-only).
    Timestamp,
}

impl MacroLetter {
    /// Parse a letter; uppercase selects URL escaping, reported separately.
    pub fn from_char(c: char) -> Option<(MacroLetter, bool)> {
        let escape = c.is_ascii_uppercase();
        let letter = match c.to_ascii_lowercase() {
            's' => MacroLetter::Sender,
            'l' => MacroLetter::Local,
            'o' => MacroLetter::SenderDomain,
            'd' => MacroLetter::Domain,
            'i' => MacroLetter::Ip,
            'p' => MacroLetter::Validated,
            'v' => MacroLetter::IpVersion,
            'h' => MacroLetter::Helo,
            'c' => MacroLetter::ClientIp,
            'r' => MacroLetter::Receiver,
            't' => MacroLetter::Timestamp,
            _ => return None,
        };
        Some((letter, escape))
    }

    /// Whether this letter is only valid inside `exp=` text.
    pub fn exp_only(self) -> bool {
        matches!(
            self,
            MacroLetter::ClientIp | MacroLetter::Receiver | MacroLetter::Timestamp
        )
    }

    /// The canonical lowercase character.
    pub fn as_char(self) -> char {
        match self {
            MacroLetter::Sender => 's',
            MacroLetter::Local => 'l',
            MacroLetter::SenderDomain => 'o',
            MacroLetter::Domain => 'd',
            MacroLetter::Ip => 'i',
            MacroLetter::Validated => 'p',
            MacroLetter::IpVersion => 'v',
            MacroLetter::Helo => 'h',
            MacroLetter::ClientIp => 'c',
            MacroLetter::Receiver => 'r',
            MacroLetter::Timestamp => 't',
        }
    }
}

/// The transformer part of a macro: keep the last `digits` labels after the
/// optional reversal (RFC 7208 §7.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MacroTransform {
    /// Keep only the rightmost N labels after splitting (and reversing).
    pub digits: Option<u32>,
    /// Reverse the label order before truncating.
    pub reverse: bool,
    /// Split delimiters; empty means the default `.`.
    pub delimiters: Vec<char>,
}

impl MacroTransform {
    /// The effective delimiter set.
    pub fn delimiters_or_default(&self) -> &[char] {
        if self.delimiters.is_empty() {
            &['.']
        } else {
            &self.delimiters
        }
    }
}

/// One token of a macro-string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroToken {
    /// Literal text, copied through.
    Literal(String),
    /// A macro expansion.
    Macro {
        /// Which value to expand.
        letter: MacroLetter,
        /// Whether to URL-escape the expansion (uppercase letter).
        url_escape: bool,
        /// Split/reverse/truncate options.
        transform: MacroTransform,
    },
    /// `%%` — a literal percent sign.
    Percent,
    /// `%_` — a literal space.
    Space,
    /// `%-` — a URL-encoded space (`%20`).
    UrlSpace,
}

/// Errors parsing a macro-string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroError {
    /// A `%` was followed by something other than `{`, `%`, `_` or `-`.
    BadEscape(char),
    /// `%{` without a closing `}`.
    Unterminated,
    /// An unknown macro letter.
    BadLetter(char),
    /// Junk inside the braces after the transformers.
    BadTransformer(char),
    /// `%` at end of input.
    TrailingPercent,
}

impl fmt::Display for MacroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroError::BadEscape(c) => write!(f, "invalid escape %{c}"),
            MacroError::Unterminated => write!(f, "unterminated macro"),
            MacroError::BadLetter(c) => write!(f, "unknown macro letter {c}"),
            MacroError::BadTransformer(c) => write!(f, "invalid transformer character {c}"),
            MacroError::TrailingPercent => write!(f, "trailing %"),
        }
    }
}

impl std::error::Error for MacroError {}

/// A parsed macro-string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroString {
    tokens: Vec<MacroToken>,
    source: String,
}

impl MacroString {
    /// Parse `input` as a macro-string.
    pub fn parse(input: &str) -> Result<MacroString, MacroError> {
        let mut tokens = Vec::new();
        let mut literal = String::new();
        let mut chars = input.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                literal.push(c);
                continue;
            }
            let Some(&next) = chars.peek() else {
                return Err(MacroError::TrailingPercent);
            };
            if !literal.is_empty() {
                tokens.push(MacroToken::Literal(std::mem::take(&mut literal)));
            }
            match next {
                '%' => {
                    chars.next();
                    tokens.push(MacroToken::Percent);
                }
                '_' => {
                    chars.next();
                    tokens.push(MacroToken::Space);
                }
                '-' => {
                    chars.next();
                    tokens.push(MacroToken::UrlSpace);
                }
                '{' => {
                    chars.next();
                    tokens.push(Self::parse_braced(&mut chars)?);
                }
                other => return Err(MacroError::BadEscape(other)),
            }
        }
        if !literal.is_empty() {
            tokens.push(MacroToken::Literal(literal));
        }
        Ok(MacroString {
            tokens,
            source: input.to_string(),
        })
    }

    fn parse_braced(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    ) -> Result<MacroToken, MacroError> {
        let letter_char = chars.next().ok_or(MacroError::Unterminated)?;
        let (letter, url_escape) =
            MacroLetter::from_char(letter_char).ok_or(MacroError::BadLetter(letter_char))?;
        let mut transform = MacroTransform::default();
        let mut digits = String::new();
        // digits, then optional 'r', then delimiters, then '}'.
        loop {
            let c = chars.next().ok_or(MacroError::Unterminated)?;
            match c {
                '}' => break,
                '0'..='9' if !transform.reverse && transform.delimiters.is_empty() => {
                    digits.push(c);
                }
                'r' | 'R' if !transform.reverse && transform.delimiters.is_empty() => {
                    transform.reverse = true;
                }
                '.' | '-' | '+' | ',' | '/' | '_' | '=' => {
                    transform.delimiters.push(c);
                }
                other => return Err(MacroError::BadTransformer(other)),
            }
        }
        if !digits.is_empty() {
            // Cap instead of erroring on absurd digit strings; RFC digits
            // are unbounded but any value beyond the label count behaves
            // like "keep everything".
            transform.digits = Some(digits.parse::<u32>().unwrap_or(u32::MAX));
        }
        Ok(MacroToken::Macro {
            letter,
            url_escape,
            transform,
        })
    }

    /// The parsed tokens.
    pub fn tokens(&self) -> &[MacroToken] {
        &self.tokens
    }

    /// The original text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether any token is a macro (as opposed to pure literal text).
    pub fn has_macros(&self) -> bool {
        self.tokens
            .iter()
            .any(|t| !matches!(t, MacroToken::Literal(_)))
    }

    /// Whether any macro requests URL escaping — the precondition for both
    /// libSPF2 memory-corruption bugs.
    pub fn requests_url_escape(&self) -> bool {
        self.tokens.iter().any(|t| {
            matches!(
                t,
                MacroToken::Macro {
                    url_escape: true,
                    ..
                } | MacroToken::UrlSpace
            )
        })
    }
}

impl fmt::Display for MacroString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_literal() {
        let ms = MacroString::parse("foo.example.com").unwrap();
        assert_eq!(
            ms.tokens(),
            &[MacroToken::Literal("foo.example.com".into())]
        );
        assert!(!ms.has_macros());
    }

    #[test]
    fn the_papers_macro() {
        let ms = MacroString::parse("%{d1r}.foo.com").unwrap();
        assert_eq!(ms.tokens().len(), 2);
        match &ms.tokens()[0] {
            MacroToken::Macro {
                letter,
                url_escape,
                transform,
            } => {
                assert_eq!(*letter, MacroLetter::Domain);
                assert!(!url_escape);
                assert_eq!(transform.digits, Some(1));
                assert!(transform.reverse);
                assert!(transform.delimiters.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ms.tokens()[1], MacroToken::Literal(".foo.com".into()));
        assert!(ms.has_macros());
        assert!(!ms.requests_url_escape());
    }

    #[test]
    fn uppercase_letter_requests_url_escape() {
        let ms = MacroString::parse("%{L}.x").unwrap();
        assert!(ms.requests_url_escape());
        match &ms.tokens()[0] {
            MacroToken::Macro {
                letter, url_escape, ..
            } => {
                assert_eq!(*letter, MacroLetter::Local);
                assert!(url_escape);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_delimiters() {
        let ms = MacroString::parse("%{l-+}").unwrap();
        match &ms.tokens()[0] {
            MacroToken::Macro { transform, .. } => {
                assert_eq!(transform.delimiters, vec!['-', '+']);
                assert_eq!(transform.delimiters_or_default(), &['-', '+']);
            }
            other => panic!("unexpected {other:?}"),
        }
        let default = MacroTransform::default();
        assert_eq!(default.delimiters_or_default(), &['.']);
    }

    #[test]
    fn escapes() {
        let ms = MacroString::parse("a%%b%_c%-d").unwrap();
        assert_eq!(
            ms.tokens(),
            &[
                MacroToken::Literal("a".into()),
                MacroToken::Percent,
                MacroToken::Literal("b".into()),
                MacroToken::Space,
                MacroToken::Literal("c".into()),
                MacroToken::UrlSpace,
                MacroToken::Literal("d".into()),
            ]
        );
        assert!(ms.requests_url_escape(), "%- is a URL escape");
    }

    #[test]
    fn errors() {
        assert_eq!(MacroString::parse("%x"), Err(MacroError::BadEscape('x')));
        assert_eq!(MacroString::parse("%{d"), Err(MacroError::Unterminated));
        assert_eq!(MacroString::parse("%{q}"), Err(MacroError::BadLetter('q')));
        assert_eq!(MacroString::parse("abc%"), Err(MacroError::TrailingPercent));
        assert_eq!(
            MacroString::parse("%{d1r5}"),
            Err(MacroError::BadTransformer('5')),
            "digits after r are invalid"
        );
    }

    #[test]
    fn huge_digit_strings_are_capped() {
        let ms = MacroString::parse("%{d99999999999999999999}").unwrap();
        match &ms.tokens()[0] {
            MacroToken::Macro { transform, .. } => {
                assert_eq!(transform.digits, Some(u32::MAX));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exp_only_letters() {
        assert!(MacroLetter::Timestamp.exp_only());
        assert!(MacroLetter::Receiver.exp_only());
        assert!(MacroLetter::ClientIp.exp_only());
        assert!(!MacroLetter::Domain.exp_only());
    }

    #[test]
    fn letter_round_trip() {
        for c in ['s', 'l', 'o', 'd', 'i', 'p', 'v', 'h', 'c', 'r', 't'] {
            let (letter, escape) = MacroLetter::from_char(c).unwrap();
            assert!(!escape);
            assert_eq!(letter.as_char(), c);
            let (upper, escape) = MacroLetter::from_char(c.to_ascii_uppercase()).unwrap();
            assert!(escape);
            assert_eq!(upper, letter);
        }
        assert_eq!(MacroLetter::from_char('z'), None);
    }

    #[test]
    fn source_is_preserved() {
        let src = "%{d2}.%{i}.x";
        assert_eq!(MacroString::parse(src).unwrap().source(), src);
        assert_eq!(MacroString::parse(src).unwrap().to_string(), src);
    }
}
