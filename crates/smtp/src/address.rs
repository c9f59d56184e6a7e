//! Email addresses and reverse-paths.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Errors parsing an email address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressError {
    /// No `@` separator.
    MissingAt,
    /// Empty or invalid local part.
    BadLocalPart,
    /// Empty or invalid domain.
    BadDomain,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::MissingAt => write!(f, "missing '@'"),
            AddressError::BadLocalPart => write!(f, "invalid local part"),
            AddressError::BadDomain => write!(f, "invalid domain"),
        }
    }
}

impl std::error::Error for AddressError {}

/// An email address: `local@domain`.
///
/// The local part is kept verbatim (it is case-sensitive per RFC 5321);
/// the domain is compared case-insensitively.
/// Parts are shared (`Arc<str>`) so cloning an address — the probe
/// planner reuses a constant recipient ladder per transaction — is two
/// refcount bumps, not two re-allocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmailAddress {
    local: Arc<str>,
    domain: Arc<str>,
}

impl EmailAddress {
    /// Construct from parts, validating both.
    pub fn new(local: &str, domain: &str) -> Result<EmailAddress, AddressError> {
        if local.is_empty()
            || !local
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-/=?^_`{|}~.".contains(&b))
        {
            return Err(AddressError::BadLocalPart);
        }
        Ok(EmailAddress {
            local: Arc::from(local),
            domain: Arc::from(check_domain(domain)?),
        })
    }

    /// This address's local part at `domain` (validated). The local part
    /// is shared, so a prober addressing one mailbox name at a fresh
    /// domain per probe allocates only the domain.
    pub fn with_domain(&self, domain: &str) -> Result<EmailAddress, AddressError> {
        Ok(EmailAddress {
            local: Arc::clone(&self.local),
            domain: Arc::from(check_domain(domain)?),
        })
    }

    /// Parse `local@domain`, with or without surrounding angle brackets.
    pub fn parse(s: &str) -> Result<EmailAddress, AddressError> {
        let s = s
            .strip_prefix('<')
            .and_then(|s| s.strip_suffix('>'))
            .unwrap_or(s);
        let (local, domain) = s.rsplit_once('@').ok_or(AddressError::MissingAt)?;
        EmailAddress::new(local, domain)
    }

    /// The local part, verbatim.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// The domain, verbatim.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The domain, lowercased, for map keys.
    pub fn domain_lower(&self) -> String {
        self.domain.to_ascii_lowercase()
    }

    /// Render as a reverse-path for `MAIL FROM:`.
    pub fn as_path(&self) -> String {
        format!("<{}@{}>", self.local, self.domain)
    }
}

/// `domain` if it is a valid address domain: non-empty dot-separated
/// labels of ASCII letters, digits and hyphens.
fn check_domain(domain: &str) -> Result<&str, AddressError> {
    if domain.is_empty()
        || domain.starts_with('.')
        || domain.ends_with('.')
        || domain.contains("..")
        || !domain
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
    {
        return Err(AddressError::BadDomain);
    }
    Ok(domain)
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.local, self.domain)
    }
}

impl FromStr for EmailAddress {
    type Err = AddressError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EmailAddress::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_and_bracketed() {
        let a = EmailAddress::parse("user@example.com").unwrap();
        assert_eq!(a.local(), "user");
        assert_eq!(a.domain(), "example.com");
        let b = EmailAddress::parse("<user@example.com>").unwrap();
        assert_eq!(a, b);
        assert_eq!(b.as_path(), "<user@example.com>");
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(
            EmailAddress::parse("nodomain"),
            Err(AddressError::MissingAt)
        );
        assert_eq!(
            EmailAddress::parse("@example.com"),
            Err(AddressError::BadLocalPart)
        );
        assert_eq!(EmailAddress::parse("user@"), Err(AddressError::BadDomain));
        assert_eq!(
            EmailAddress::parse("user@bad..domain"),
            Err(AddressError::BadDomain)
        );
        assert_eq!(
            EmailAddress::parse("user@.leading"),
            Err(AddressError::BadDomain)
        );
        assert_eq!(
            EmailAddress::parse("us er@example.com"),
            Err(AddressError::BadLocalPart)
        );
    }

    #[test]
    fn with_domain_keeps_the_local_part_and_checks_the_domain() {
        let a = EmailAddress::parse("user@example.com").unwrap();
        let b = a.with_domain("k7q2.example.org").unwrap();
        assert_eq!(b, EmailAddress::parse("user@k7q2.example.org").unwrap());
        assert_eq!(a.with_domain("bad..domain"), Err(AddressError::BadDomain));
    }

    #[test]
    fn domain_lower_normalises() {
        let a = EmailAddress::parse("User@Example.COM").unwrap();
        assert_eq!(a.local(), "User");
        assert_eq!(a.domain_lower(), "example.com");
    }

    #[test]
    fn rsplit_handles_local_part_with_special_chars() {
        let a = EmailAddress::parse("a+b.c@example.com").unwrap();
        assert_eq!(a.local(), "a+b.c");
        assert_eq!(a.to_string(), "a+b.c@example.com");
    }

    #[test]
    fn probe_usernames_are_valid() {
        // The paper's curated username ladder must all parse.
        for user in [
            "mmj7yzdm0tbk",
            "noreply",
            "donotreply",
            "no-reply",
            "postmaster",
            "abuse",
            "admin",
            "administrator",
            "newsletters",
            "alerts",
            "info",
            "auto-confirm",
            "appointments",
            "service",
        ] {
            assert!(EmailAddress::new(user, "x.spf-test.dns-lab.org").is_ok());
        }
    }
}
