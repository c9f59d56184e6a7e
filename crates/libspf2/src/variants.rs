//! Non-compliant macro-expansion behaviours observed in the wild.
//!
//! Paper §7.9 reports that ~6% of conclusively measured servers expanded
//! SPF macros *incorrectly but not in the libSPF2 pattern*: some never
//! expanded at all (querying the literal `%{d1r}`), some reversed without
//! truncating, some truncated without reversing, and some ignored the
//! transformers entirely. Each behaviour leaves a distinct query shape at
//! the measurement DNS server, so the classifier can tell them apart.
//!
//! [`QuirkExpander`] implements each behaviour behind the same
//! [`MacroExpander`] trait the compliant and vulnerable expanders use.

use spfail_spf::expand::{
    apply_transform, url_escape, CompliantExpander, ExpandError, MacroContext, MacroExpander,
};
use spfail_spf::macrostring::{MacroString, MacroToken, MacroTransform};

use crate::expand::LibSpf2Expander;

/// The space of macro-expansion behaviours the measurement distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MacroBehavior {
    /// Correct RFC 7208 expansion.
    Compliant,
    /// The vulnerable libSPF2 duplication fingerprint.
    VulnerableLibSpf2,
    /// Patched libSPF2 (compliant output, different implementation).
    PatchedLibSpf2,
    /// No expansion at all: the literal `%{d1r}` goes into the query.
    NoExpansion,
    /// Labels reversed but never truncated (`com.example`).
    ReverseNoTruncate,
    /// Labels truncated but never reversed (`com`).
    TruncateNoReverse,
    /// Transformers ignored wholesale: the raw value (`example.com`).
    IgnoreTransformers,
    /// Macros expand to the empty string (some filters blank them out).
    EmptyExpansion,
    /// Macro-bearing terms abort the whole evaluation (no A queries at
    /// all, only the TXT fetch is visible).
    MacroUnsupported,
}

impl MacroBehavior {
    /// Behaviours whose expansion differs from RFC 7208 output but that
    /// are not the vulnerable fingerprint — the paper's "other erroneous"
    /// bucket.
    pub fn is_erroneous_but_not_vulnerable(self) -> bool {
        matches!(
            self,
            MacroBehavior::NoExpansion
                | MacroBehavior::ReverseNoTruncate
                | MacroBehavior::TruncateNoReverse
                | MacroBehavior::IgnoreTransformers
                | MacroBehavior::EmptyExpansion
                | MacroBehavior::MacroUnsupported
        )
    }

    /// Whether this behaviour is the remotely detectable vulnerable one.
    pub fn is_vulnerable(self) -> bool {
        self == MacroBehavior::VulnerableLibSpf2
    }

    /// A stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MacroBehavior::Compliant => "rfc-compliant",
            MacroBehavior::VulnerableLibSpf2 => "vulnerable-libspf2",
            MacroBehavior::PatchedLibSpf2 => "patched-libspf2",
            MacroBehavior::NoExpansion => "no-expansion",
            MacroBehavior::ReverseNoTruncate => "reverse-no-truncate",
            MacroBehavior::TruncateNoReverse => "truncate-no-reverse",
            MacroBehavior::IgnoreTransformers => "ignore-transformers",
            MacroBehavior::EmptyExpansion => "empty-expansion",
            MacroBehavior::MacroUnsupported => "macro-unsupported",
        }
    }

    /// Build the expander implementing this behaviour.
    pub fn expander(self) -> Box<dyn MacroExpander> {
        match self {
            MacroBehavior::Compliant => Box::new(CompliantExpander),
            MacroBehavior::VulnerableLibSpf2 => Box::new(LibSpf2Expander::vulnerable()),
            MacroBehavior::PatchedLibSpf2 => Box::new(LibSpf2Expander::patched()),
            other => Box::new(QuirkExpander::new(other)),
        }
    }
}

/// An expander implementing one of the sloppy behaviours.
#[derive(Debug, Clone, Copy)]
pub struct QuirkExpander {
    behavior: MacroBehavior,
}

impl QuirkExpander {
    /// An expander for `behavior`. Panics on the behaviours that have
    /// dedicated implementations ([`MacroBehavior::expander`] routes those
    /// elsewhere).
    pub fn new(behavior: MacroBehavior) -> QuirkExpander {
        assert!(
            !matches!(
                behavior,
                MacroBehavior::Compliant
                    | MacroBehavior::VulnerableLibSpf2
                    | MacroBehavior::PatchedLibSpf2
            ),
            "behaviour {behavior:?} has a dedicated expander"
        );
        QuirkExpander { behavior }
    }

    fn expand_macro(
        &self,
        raw: &str,
        transform: &MacroTransform,
        escape: bool,
    ) -> Result<String, ExpandError> {
        let out = match self.behavior {
            MacroBehavior::ReverseNoTruncate => {
                // Honour reversal and delimiters; drop the digit count.
                let t = MacroTransform {
                    digits: None,
                    ..transform.clone()
                };
                apply_transform(raw, &t)
            }
            MacroBehavior::TruncateNoReverse => {
                // Honour the digit count; drop reversal.
                let t = MacroTransform {
                    reverse: false,
                    ..transform.clone()
                };
                apply_transform(raw, &t)
            }
            MacroBehavior::IgnoreTransformers => raw.to_string(),
            MacroBehavior::EmptyExpansion => String::new(),
            MacroBehavior::MacroUnsupported => {
                return Err(ExpandError::ImplementationFault(
                    "macros not supported".to_string(),
                ))
            }
            // NoExpansion never reaches here (handled at the token level).
            _ => unreachable!("handled in expand()"),
        };
        Ok(if escape { url_escape(&out) } else { out })
    }
}

impl MacroExpander for QuirkExpander {
    fn expand(
        &mut self,
        ms: &MacroString,
        ctx: &MacroContext,
        _in_exp: bool,
    ) -> Result<String, ExpandError> {
        if self.behavior == MacroBehavior::NoExpansion {
            // The implementation treats the macro text as literal data.
            return Ok(ms.source().to_string());
        }
        let mut out = String::new();
        // Reusable scratch for raw letter values, as in the other
        // expanders' hot paths.
        let mut raw = String::new();
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
                    raw.clear();
                    ctx.write_raw_value(*letter, &mut raw);
                    out.push_str(&self.expand_macro(&raw, transform, *escape)?);
                }
            }
        }
        // Filters that blank out macros often leave a leading dot behind;
        // strip it so the result is still a queryable name.
        if self.behavior == MacroBehavior::EmptyExpansion {
            return Ok(out.trim_start_matches('.').to_string());
        }
        Ok(out)
    }

    fn describe(&self) -> &'static str {
        self.behavior.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MacroContext {
        MacroContext::new("user", "example.com", "192.0.2.3".parse().unwrap())
    }

    fn expand(behavior: MacroBehavior, s: &str) -> String {
        behavior
            .expander()
            .expand(&MacroString::parse(s).unwrap(), &ctx(), false)
            .unwrap()
    }

    /// Paper §4.2's behaviour table, extended to every variant: the same
    /// probe mechanism yields a distinct query name per implementation.
    #[test]
    fn all_behaviours_are_distinguishable() {
        let probe = "%{d1r}.foo.com";
        let outputs = [
            (MacroBehavior::Compliant, "example.foo.com"),
            (MacroBehavior::VulnerableLibSpf2, "com.com.example.foo.com"),
            (MacroBehavior::PatchedLibSpf2, "example.foo.com"),
            (MacroBehavior::NoExpansion, "%{d1r}.foo.com"),
            (MacroBehavior::ReverseNoTruncate, "com.example.foo.com"),
            (MacroBehavior::TruncateNoReverse, "com.foo.com"),
            (MacroBehavior::IgnoreTransformers, "example.com.foo.com"),
            (MacroBehavior::EmptyExpansion, "foo.com"),
        ];
        for (behavior, expected) in outputs {
            assert_eq!(expand(behavior, probe), expected, "{behavior:?}");
        }
        // Modulo patched-vs-compliant (identical on the wire by design),
        // all outputs are pairwise distinct.
        let mut seen: Vec<String> = outputs
            .iter()
            .filter(|(b, _)| *b != MacroBehavior::PatchedLibSpf2)
            .map(|(_, o)| o.to_string())
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn macro_unsupported_faults() {
        let err = MacroBehavior::MacroUnsupported
            .expander()
            .expand(&MacroString::parse("%{d1r}.x").unwrap(), &ctx(), false)
            .unwrap_err();
        assert!(matches!(err, ExpandError::ImplementationFault(_)));
        // ... but pure literals still work.
        let ok = MacroBehavior::MacroUnsupported
            .expander()
            .expand(&MacroString::parse("b.x").unwrap(), &ctx(), false)
            .unwrap();
        assert_eq!(ok, "b.x");
    }

    #[test]
    fn classification_predicates() {
        assert!(MacroBehavior::VulnerableLibSpf2.is_vulnerable());
        assert!(!MacroBehavior::Compliant.is_vulnerable());
        assert!(MacroBehavior::NoExpansion.is_erroneous_but_not_vulnerable());
        assert!(MacroBehavior::ReverseNoTruncate.is_erroneous_but_not_vulnerable());
        assert!(!MacroBehavior::VulnerableLibSpf2.is_erroneous_but_not_vulnerable());
        assert!(!MacroBehavior::Compliant.is_erroneous_but_not_vulnerable());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            MacroBehavior::VulnerableLibSpf2.label(),
            "vulnerable-libspf2"
        );
        assert_eq!(MacroBehavior::NoExpansion.label(), "no-expansion");
    }

    #[test]
    #[should_panic(expected = "dedicated expander")]
    fn quirk_expander_rejects_dedicated_behaviours() {
        let _ = QuirkExpander::new(MacroBehavior::Compliant);
    }

    #[test]
    fn url_escape_applies_to_quirks_too() {
        let ctx = MacroContext::new("a b", "example.com", "192.0.2.3".parse().unwrap());
        let out = MacroBehavior::IgnoreTransformers
            .expander()
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "a%20b");
    }
}
