//! SPF results and mechanism qualifiers.

use std::fmt;

/// The seven results of `check_host()` (RFC 7208 §2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpfResult {
    /// No SPF record was found (or the domain is invalid).
    None,
    /// A record exists but asserts nothing about the client.
    Neutral,
    /// The client is authorized.
    Pass,
    /// The client is *not* authorized.
    Fail,
    /// The client is probably not authorized; weak assertion.
    SoftFail,
    /// A transient error (DNS timeouts); the check may be retried.
    TempError,
    /// The record is invalid or limits were exceeded.
    PermError,
}

impl SpfResult {
    /// Whether receiving mail should typically proceed under this result.
    pub fn is_acceptable(self) -> bool {
        matches!(
            self,
            SpfResult::None | SpfResult::Neutral | SpfResult::Pass | SpfResult::SoftFail
        )
    }
}

impl fmt::Display for SpfResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpfResult::None => "none",
            SpfResult::Neutral => "neutral",
            SpfResult::Pass => "pass",
            SpfResult::Fail => "fail",
            SpfResult::SoftFail => "softfail",
            SpfResult::TempError => "temperror",
            SpfResult::PermError => "permerror",
        };
        f.write_str(s)
    }
}

/// Mechanism qualifiers (RFC 7208 §4.6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Qualifier {
    /// `+` — a match yields `Pass` (the default).
    #[default]
    Pass,
    /// `-` — a match yields `Fail`.
    Fail,
    /// `~` — a match yields `SoftFail`.
    SoftFail,
    /// `?` — a match yields `Neutral`.
    Neutral,
}

impl Qualifier {
    /// The result a matching mechanism with this qualifier produces.
    pub fn result(self) -> SpfResult {
        match self {
            Qualifier::Pass => SpfResult::Pass,
            Qualifier::Fail => SpfResult::Fail,
            Qualifier::SoftFail => SpfResult::SoftFail,
            Qualifier::Neutral => SpfResult::Neutral,
        }
    }

    /// Parse a leading qualifier character, returning it and the rest.
    pub fn strip(term: &str) -> (Qualifier, &str) {
        match term.as_bytes().first() {
            Some(b'+') => (Qualifier::Pass, &term[1..]),
            Some(b'-') => (Qualifier::Fail, &term[1..]),
            Some(b'~') => (Qualifier::SoftFail, &term[1..]),
            Some(b'?') => (Qualifier::Neutral, &term[1..]),
            _ => (Qualifier::Pass, term),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualifier_results() {
        assert_eq!(Qualifier::Pass.result(), SpfResult::Pass);
        assert_eq!(Qualifier::Fail.result(), SpfResult::Fail);
        assert_eq!(Qualifier::SoftFail.result(), SpfResult::SoftFail);
        assert_eq!(Qualifier::Neutral.result(), SpfResult::Neutral);
    }

    #[test]
    fn strip_parses_all_prefixes() {
        assert_eq!(Qualifier::strip("-all"), (Qualifier::Fail, "all"));
        assert_eq!(Qualifier::strip("~all"), (Qualifier::SoftFail, "all"));
        assert_eq!(Qualifier::strip("?all"), (Qualifier::Neutral, "all"));
        assert_eq!(Qualifier::strip("+all"), (Qualifier::Pass, "all"));
        assert_eq!(Qualifier::strip("all"), (Qualifier::Pass, "all"));
        assert_eq!(Qualifier::strip(""), (Qualifier::Pass, ""));
    }

    #[test]
    fn acceptability() {
        assert!(SpfResult::Pass.is_acceptable());
        assert!(SpfResult::None.is_acceptable());
        assert!(SpfResult::SoftFail.is_acceptable());
        assert!(!SpfResult::Fail.is_acceptable());
        assert!(!SpfResult::PermError.is_acceptable());
        assert!(!SpfResult::TempError.is_acceptable());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(SpfResult::SoftFail.to_string(), "softfail");
        assert_eq!(SpfResult::PermError.to_string(), "permerror");
    }
}
