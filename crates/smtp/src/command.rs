//! SMTP client commands.

use std::fmt;
use std::sync::Arc;

use crate::address::EmailAddress;

/// The SMTP commands the measurement needs (RFC 5321 §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `HELO <domain>` — the legacy greeting.
    Helo(Arc<str>),
    /// `EHLO <domain>` — the extended greeting. The domain is shared, so
    /// a client greeting with one fixed name never copies it.
    Ehlo(Arc<str>),
    /// `MAIL FROM:<reverse-path>`.
    MailFrom(EmailAddress),
    /// `MAIL FROM:<>` — the null reverse-path used by bounce messages.
    MailFromNull,
    /// `RCPT TO:<forward-path>`.
    RcptTo(EmailAddress),
    /// `DATA`.
    Data,
    /// `RSET`.
    Rset,
    /// `NOOP`.
    Noop,
    /// `QUIT`.
    Quit,
}

impl Command {
    /// Parse one command line (without the trailing CRLF).
    pub fn parse(line: &str) -> Option<Command> {
        let line = line.trim_end_matches(['\r', '\n']);
        let upper = line.to_ascii_uppercase();
        if let Some(rest) = strip_verb(line, &upper, "HELO") {
            return Some(Command::Helo(rest.trim().into()));
        }
        if let Some(rest) = strip_verb(line, &upper, "EHLO") {
            return Some(Command::Ehlo(rest.trim().into()));
        }
        if let Some(rest) = strip_verb(line, &upper, "MAIL FROM:") {
            let rest = rest.trim();
            if rest == "<>" {
                return Some(Command::MailFromNull);
            }
            return EmailAddress::parse(rest).ok().map(Command::MailFrom);
        }
        if let Some(rest) = strip_verb(line, &upper, "RCPT TO:") {
            return EmailAddress::parse(rest.trim()).ok().map(Command::RcptTo);
        }
        match upper.as_str() {
            "DATA" => Some(Command::Data),
            "RSET" => Some(Command::Rset),
            "NOOP" => Some(Command::Noop),
            "QUIT" => Some(Command::Quit),
            _ => None,
        }
    }

    /// The wire form of the command, without the trailing CRLF.
    pub fn to_line(&self) -> String {
        match self {
            Command::Helo(d) => format!("HELO {d}"),
            Command::Ehlo(d) => format!("EHLO {d}"),
            Command::MailFrom(a) => format!("MAIL FROM:{}", a.as_path()),
            Command::MailFromNull => "MAIL FROM:<>".to_string(),
            Command::RcptTo(a) => format!("RCPT TO:{}", a.as_path()),
            Command::Data => "DATA".to_string(),
            Command::Rset => "RSET".to_string(),
            Command::Noop => "NOOP".to_string(),
            Command::Quit => "QUIT".to_string(),
        }
    }

    /// Approximate wire size including CRLF, for link accounting.
    pub fn wire_size(&self) -> usize {
        self.to_line().len() + 2
    }
}

fn strip_verb<'a>(line: &'a str, upper: &str, verb: &str) -> Option<&'a str> {
    if upper.starts_with(verb) {
        Some(&line[verb.len()..])
    } else {
        None
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_commands() {
        let addr = EmailAddress::parse("mmj7yzdm0tbk@ab1c.s1.spf-test.dns-lab.org").unwrap();
        let commands = vec![
            Command::Helo("probe.dns-lab.org".into()),
            Command::Ehlo("probe.dns-lab.org".into()),
            Command::MailFrom(addr.clone()),
            Command::MailFromNull,
            Command::RcptTo(addr),
            Command::Data,
            Command::Rset,
            Command::Noop,
            Command::Quit,
        ];
        for cmd in commands {
            assert_eq!(Command::parse(&cmd.to_line()), Some(cmd));
        }
    }

    #[test]
    fn parsing_is_case_insensitive_in_verbs() {
        assert_eq!(
            Command::parse("ehlo Probe.example"),
            Some(Command::Ehlo("Probe.example".into()))
        );
        assert_eq!(Command::parse("data"), Some(Command::Data));
        assert_eq!(
            Command::parse("mail from:<a@b.c>"),
            Some(Command::MailFrom(EmailAddress::parse("a@b.c").unwrap()))
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(Command::parse("FOO BAR"), None);
        assert_eq!(Command::parse("MAIL FROM:<not-an-address>"), None);
        assert_eq!(Command::parse(""), None);
    }

    #[test]
    fn trailing_crlf_is_tolerated() {
        assert_eq!(Command::parse("QUIT\r\n"), Some(Command::Quit));
    }

    #[test]
    fn wire_size_includes_crlf() {
        assert_eq!(Command::Data.wire_size(), 6);
    }
}
