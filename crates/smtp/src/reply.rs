//! SMTP server replies.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The broad class of a reply code (its first digit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyCategory {
    /// 2xx — success.
    Success,
    /// 3xx — intermediate (354 after `DATA`).
    Intermediate,
    /// 4xx — transient failure (greylisting lives here).
    TransientFailure,
    /// 5xx — permanent failure.
    PermanentFailure,
    /// Anything else (never sent by a conforming server).
    Unknown,
}

/// A server reply: a three-digit code plus one or more text lines.
///
/// The text is borrowed when it is fixed (`250 OK`, `221 Bye`, …), so
/// the replies a session sends on every transaction allocate nothing;
/// only replies that name a host or a domain own their text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The reply code, e.g. 250.
    pub code: u16,
    /// The text lines joined by `'\n'`; on the wire each line becomes its
    /// own `250-...` continuation (see [`Reply::to_wire`]).
    text: Cow<'static, str>,
}

impl Reply {
    /// A reply with `text`; a `'\n'` in `text` starts another line.
    pub fn new(code: u16, text: impl Into<Cow<'static, str>>) -> Reply {
        Reply {
            code,
            text: text.into(),
        }
    }

    /// 220 service-ready banner.
    pub fn banner(host: &str) -> Reply {
        Reply::new(220, [host, " ESMTP ready"].concat())
    }

    /// 250 OK.
    pub fn ok() -> Reply {
        Reply::new(250, "OK")
    }

    /// 250 greeting response to EHLO, advertising no extensions.
    pub fn ehlo_ok(host: &str) -> Reply {
        Reply::new(250, [host, " greets you\nSIZE ", EHLO_SIZE].concat())
    }

    /// 354 start-mail-input.
    pub fn start_mail_input() -> Reply {
        Reply::new(354, "Start mail input; end with <CRLF>.<CRLF>")
    }

    /// 221 closing.
    pub fn closing() -> Reply {
        Reply::new(221, "Bye")
    }

    /// 421 service not available (also used when blacklisting probers).
    pub fn service_unavailable() -> Reply {
        Reply::new(421, "Service not available, closing transmission channel")
    }

    /// 450 mailbox unavailable (greylisting).
    pub fn greylisted() -> Reply {
        Reply::new(450, "Greylisted, try again later")
    }

    /// 550 mailbox unavailable.
    pub fn mailbox_unavailable() -> Reply {
        Reply::new(550, "No such user here")
    }

    /// 550 rejected by SPF policy, in the style of real MTA rejections.
    pub fn spf_rejected(domain: &str) -> Reply {
        Reply::new(
            550,
            ["SPF check failed for ", domain, ": sender not authorized"].concat(),
        )
    }

    /// 503 bad sequence of commands.
    pub fn bad_sequence() -> Reply {
        Reply::new(503, "Bad sequence of commands")
    }

    /// The text lines, first to last (at least one, possibly empty).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.text.split('\n')
    }

    /// The category of this reply.
    pub fn category(&self) -> ReplyCategory {
        match self.code / 100 {
            2 => ReplyCategory::Success,
            3 => ReplyCategory::Intermediate,
            4 => ReplyCategory::TransientFailure,
            5 => ReplyCategory::PermanentFailure,
            _ => ReplyCategory::Unknown,
        }
    }

    /// Whether the reply is a success (2xx).
    pub fn is_positive(&self) -> bool {
        self.category() == ReplyCategory::Success
    }

    /// Whether the reply is any failure (4xx/5xx).
    pub fn is_failure(&self) -> bool {
        matches!(
            self.category(),
            ReplyCategory::TransientFailure | ReplyCategory::PermanentFailure
        )
    }

    /// Render the reply in wire form (with CRLFs and continuation dashes).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        let mut lines = self.lines().peekable();
        while let Some(line) = lines.next() {
            let sep = if lines.peek().is_none() { ' ' } else { '-' };
            let _ = write!(out, "{}{sep}{line}\r\n", self.code);
        }
        out
    }

    /// Parse a wire-form reply (one or more lines). Returns `None` unless
    /// every line is three ASCII digits of one shared code, a `' '` or
    /// `'-'` separator, and text without a bare LF.
    pub fn parse(wire: &str) -> Option<Reply> {
        let mut code = None;
        let mut text = String::new();
        for raw in wire.split("\r\n").filter(|l| !l.is_empty()) {
            let bytes = raw.as_bytes();
            if bytes.len() < 4
                || !bytes[..3].iter().all(u8::is_ascii_digit)
                || !matches!(bytes[3], b' ' | b'-')
            {
                return None;
            }
            // The first four bytes are ASCII, so both slices below start
            // and end on character boundaries.
            let this_code: u16 = raw[..3].parse().ok()?;
            let line = &raw[4..];
            if line.contains('\n') {
                return None;
            }
            match code {
                Some(c) if c != this_code => return None,
                Some(_) => text.push('\n'),
                None => code = Some(this_code),
            }
            text.push_str(line);
        }
        Some(Reply::new(code?, text))
    }

    /// Approximate wire size, for link accounting.
    pub fn wire_size(&self) -> usize {
        self.to_wire().len()
    }
}

/// [`MAX_MESSAGE_SIZE`](crate::session::MAX_MESSAGE_SIZE) as the EHLO
/// `SIZE` keyword spells it (pinned by a test).
const EHLO_SIZE: &str = "10485760";

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.lines().next().unwrap_or(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(Reply::ok().category(), ReplyCategory::Success);
        assert_eq!(
            Reply::start_mail_input().category(),
            ReplyCategory::Intermediate
        );
        assert_eq!(
            Reply::greylisted().category(),
            ReplyCategory::TransientFailure
        );
        assert_eq!(
            Reply::mailbox_unavailable().category(),
            ReplyCategory::PermanentFailure
        );
        assert!(Reply::ok().is_positive());
        assert!(Reply::greylisted().is_failure());
        assert!(!Reply::start_mail_input().is_failure());
    }

    #[test]
    fn single_line_wire_round_trip() {
        let r = Reply::new(250, "OK");
        assert_eq!(r.to_wire(), "250 OK\r\n");
        assert_eq!(Reply::parse(&r.to_wire()), Some(r));
    }

    #[test]
    fn multi_line_wire_round_trip() {
        let r = Reply::ehlo_ok("mx.example.com");
        let wire = r.to_wire();
        assert!(wire.starts_with("250-mx.example.com greets you\r\n"));
        assert!(wire.ends_with("250 SIZE 10485760\r\n"));
        assert_eq!(Reply::parse(&wire), Some(r));
    }

    #[test]
    fn ehlo_size_keyword_is_the_session_limit() {
        assert_eq!(
            EHLO_SIZE,
            crate::session::MAX_MESSAGE_SIZE.to_string(),
            "the advertised SIZE must be the enforced one"
        );
    }

    #[test]
    fn mismatched_codes_rejected() {
        assert_eq!(Reply::parse("250-a\r\n550 b\r\n"), None);
        assert_eq!(Reply::parse("xx\r\n"), None);
        assert_eq!(Reply::parse(""), None);
    }

    #[test]
    fn malformed_code_prefixes_and_separators_rejected() {
        // Non-ASCII inside or right after the code used to slice through
        // a character and panic.
        assert_eq!(Reply::parse("25é x\r\n"), None);
        assert_eq!(Reply::parse("250é\r\n"), None);
        assert_eq!(Reply::parse("2é0 x\r\n"), None);
        assert_eq!(Reply::parse("250xhello\r\n"), None);
        assert_eq!(Reply::parse("+25 x\r\n"), None);
        assert_eq!(Reply::parse("250 a\nb\r\n"), None, "bare LF");
        assert_eq!(
            Reply::parse("250 é ok\r\n").map(|r| r.to_string()),
            Some("250 é ok".to_string())
        );
    }

    #[test]
    fn multi_line_text_keeps_empty_lines() {
        let r = Reply::parse("250-\r\n250-a\r\n250 \r\n").expect("parses");
        assert_eq!(r.lines().collect::<Vec<_>>(), ["", "a", ""]);
        assert_eq!(r.to_wire(), "250-\r\n250-a\r\n250 \r\n");
        assert_eq!(r.to_string(), "250 ");
    }

    #[test]
    fn display_shows_code_and_first_line() {
        assert_eq!(
            Reply::banner("mx.test").to_string(),
            "220 mx.test ESMTP ready"
        );
    }
}
