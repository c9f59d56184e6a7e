//! Classify a server's SPF implementation from its DNS queries.
//!
//! The measurement zone serves every probe domain the policy
//!
//! ```text
//! v=spf1 a:%{d1r}.<id>.<suite>.Z a:b.<id>.<suite>.Z -all
//! ```
//!
//! so a validating server issues a TXT query for `<id>.<suite>.Z`, one A
//! query whose name reveals how it expanded `%{d1r}`, and one baseline A
//! query for `b.<id>.<suite>.Z`. The expansion prefix decodes as:
//!
//! | prefix (labels before `<id>.<suite>.Z`)    | behaviour             |
//! |--------------------------------------------|-----------------------|
//! | `<id>`                                     | RFC-compliant         |
//! | `org.org.dns-lab.spf-test.<suite>.<id>`    | **vulnerable libSPF2**|
//! | `org.dns-lab.spf-test.<suite>.<id>`        | reverse, no truncate  |
//! | `org`                                      | truncate, no reverse  |
//! | `<id>.<suite>.spf-test.dns-lab.org`        | transformers ignored  |
//! | `%{d1r}` (literal)                         | no expansion          |
//! | *(empty)*                                  | empty expansion       |
//! | *(TXT only, no A at all)*                  | macros unsupported    |

use std::collections::BTreeSet;

use spfail_dns::{Name, QueryLogEntry, RecordType};
use spfail_libspf2::MacroBehavior;

/// One named, intentional divergence from RFC 7208 behaviour.
///
/// This table is the single source of truth shared by two consumers:
///
/// * the **online classifier** below, which decodes the expansion prefix
///   a server queried into a [`MacroBehavior`] and names it via
///   [`quirks_for_behavior`];
/// * the **offline differential oracle** (`spfail-conformance`), which
///   evaluates generated policies through every expander and must match
///   each observed divergence against exactly one of these names — any
///   divergence *not* in this list is a bug, not a quirk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownQuirk {
    /// Stable identifier used in tables, corpus files and CI output.
    pub name: &'static str,
    /// The expansion behaviour this quirk is part of, when it maps onto
    /// one of the measured behaviour classes.
    pub behavior: Option<MacroBehavior>,
    /// The CVE this quirk fingerprints, if any.
    pub cve: Option<&'static str>,
    /// Whether exercising the quirk can corrupt the simulated heap
    /// (detected by `spfail_libspf2::MemSim` overflow events).
    pub overflows_heap: bool,
    /// One-line description of the divergence.
    pub description: &'static str,
}

/// The explicit allowlist of every divergence the reproduction treats as
/// intentional. Paper §4.2 (libSPF2 fingerprints) and §7.9 (the "other
/// erroneous" behaviours).
pub const KNOWN_QUIRKS: &[KnownQuirk] = &[
    KnownQuirk {
        name: "dup-first-reversed-label",
        behavior: Some(MacroBehavior::VulnerableLibSpf2),
        cve: Some("CVE-2021-33913"),
        overflows_heap: false,
        description: "reverse+truncate re-emits the first reversed label \
                      (example.com -> com.com.example); the benign, remotely \
                      visible fingerprint",
    },
    KnownQuirk {
        name: "bogus-length-overflow",
        behavior: Some(MacroBehavior::VulnerableLibSpf2),
        cve: Some("CVE-2021-33913"),
        overflows_heap: true,
        description: "URL-escape allocation sized from the truncated length \
                      while the full duplicated expansion is written",
    },
    KnownQuirk {
        name: "sign-extended-escape",
        behavior: Some(MacroBehavior::VulnerableLibSpf2),
        cve: Some("CVE-2021-33912"),
        overflows_heap: true,
        description: "bytes >= 0x80 escape as %ffffffxx through signed-char \
                      sign-extension, 9 bytes where 3 were budgeted",
    },
    KnownQuirk {
        name: "lowercase-hex-escape",
        behavior: None,
        cve: None,
        overflows_heap: false,
        description: "sprintf(\"%%%02x\") emits lowercase hex digits where the \
                      RFC reference escapes uppercase; both libSPF2 releases, \
                      wire-equivalent because DNS names compare case-blind",
    },
    KnownQuirk {
        name: "no-expansion",
        behavior: Some(MacroBehavior::NoExpansion),
        cve: None,
        overflows_heap: false,
        description: "macro text treated as literal data (queries %{d1r} verbatim)",
    },
    KnownQuirk {
        name: "reverse-no-truncate",
        behavior: Some(MacroBehavior::ReverseNoTruncate),
        cve: None,
        overflows_heap: false,
        description: "honours reversal and delimiters but drops the digit count",
    },
    KnownQuirk {
        name: "truncate-no-reverse",
        behavior: Some(MacroBehavior::TruncateNoReverse),
        cve: None,
        overflows_heap: false,
        description: "honours the digit count but never reverses",
    },
    KnownQuirk {
        name: "ignore-transformers",
        behavior: Some(MacroBehavior::IgnoreTransformers),
        cve: None,
        overflows_heap: false,
        description: "substitutes the raw macro value, ignoring transformers",
    },
    KnownQuirk {
        name: "empty-expansion",
        behavior: Some(MacroBehavior::EmptyExpansion),
        cve: None,
        overflows_heap: false,
        description: "macros expand to the empty string; a leading dot is trimmed",
    },
    KnownQuirk {
        name: "macro-unsupported",
        behavior: Some(MacroBehavior::MacroUnsupported),
        cve: None,
        overflows_heap: false,
        description: "macro-bearing terms abort evaluation entirely",
    },
];

/// Look a quirk up by its stable name.
pub fn quirk_by_name(name: &str) -> Option<&'static KnownQuirk> {
    KNOWN_QUIRKS.iter().find(|q| q.name == name)
}

/// All quirks attributed to one expansion behaviour.
pub fn quirks_for_behavior(behavior: MacroBehavior) -> Vec<&'static KnownQuirk> {
    KNOWN_QUIRKS
        .iter()
        .filter(|q| q.behavior == Some(behavior))
        .collect()
}

/// The classification of one probe's DNS activity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Classification {
    /// Whether the SPF policy TXT record was fetched at all.
    pub spf_triggered: bool,
    /// The distinct expansion behaviours observed (≥2 means the host runs
    /// multiple SPF implementations, §7.9).
    pub behaviors: BTreeSet<MacroBehavior>,
    /// Expansion prefixes that matched no known pattern.
    pub unknown_patterns: usize,
}

impl Classification {
    /// Whether the probe produced a usable SPF measurement.
    pub fn conclusive(&self) -> bool {
        self.spf_triggered && (!self.behaviors.is_empty() || self.unknown_patterns > 0)
    }

    /// Whether the vulnerable libSPF2 fingerprint was observed.
    pub fn vulnerable(&self) -> bool {
        self.behaviors.contains(&MacroBehavior::VulnerableLibSpf2)
    }

    /// Whether a non-vulnerable erroneous expansion was observed.
    pub fn erroneous_non_vulnerable(&self) -> bool {
        self.unknown_patterns > 0
            || self
                .behaviors
                .iter()
                .any(|b| b.is_erroneous_but_not_vulnerable())
    }

    /// Whether ≥2 distinct expansion patterns were observed.
    pub fn multi_pattern(&self) -> bool {
        self.behaviors.len() + usize::from(self.unknown_patterns > 0) >= 2
    }

    /// Whether only RFC-compliant expansion was observed.
    pub fn compliant_only(&self) -> bool {
        self.conclusive() && !self.vulnerable() && !self.erroneous_non_vulnerable()
    }

    /// The allowlist names ([`KNOWN_QUIRKS`]) of every non-compliant
    /// behaviour observed — the vocabulary shared with the conformance
    /// oracle's divergence reports.
    pub fn quirk_names(&self) -> BTreeSet<&'static str> {
        self.behaviors
            .iter()
            .flat_map(|&b| quirks_for_behavior(b))
            .map(|q| q.name)
            .collect()
    }
}

/// Classify the query-log window of one probe identified by
/// `<id>.<suite>` under the measurement zone `zone`.
pub fn classify(entries: &[QueryLogEntry], id: &str, suite: &str, zone: &Name) -> Classification {
    let mut result = Classification::default();
    let probe_domain = match zone.child(suite).and_then(|n| n.child(id)) {
        Ok(name) => name,
        Err(_) => return result,
    };
    for entry in entries {
        // Only queries carrying this probe's unique labels are ours.
        let Some(mut labels) = entry.qname.prefix_labels(&probe_domain) else {
            continue;
        };
        match entry.qtype {
            RecordType::TXT | RecordType::SPF if labels.next().is_none() => {
                result.spf_triggered = true;
            }
            RecordType::A | RecordType::AAAA => {
                // Every fingerprint has at most six labels; a seventh
                // only has to make the prefix too long to match one.
                let mut prefix = [""; 7];
                let mut len = 0;
                for label in labels.take(prefix.len()) {
                    prefix[len] = label;
                    len += 1;
                }
                match decode_prefix(&prefix[..len], id, suite) {
                    Decoded::Baseline => {}
                    Decoded::Behavior(b) => {
                        result.behaviors.insert(b);
                    }
                    Decoded::Unknown => result.unknown_patterns += 1,
                }
            }
            _ => {}
        }
    }
    // TXT fetched but not a single address query: the implementation bails
    // on macro-bearing terms.
    if result.spf_triggered && result.behaviors.is_empty() && result.unknown_patterns == 0 {
        let any_address = entries
            .iter()
            .any(|e| e.qtype.is_address() && e.qname.is_subdomain_of(&probe_domain));
        if !any_address {
            result.behaviors.insert(MacroBehavior::MacroUnsupported);
        }
    }
    result
}

enum Decoded {
    Baseline,
    Behavior(MacroBehavior),
    Unknown,
}

fn decode_prefix(prefix: &[&str], id: &str, suite: &str) -> Decoded {
    let eq = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
    match prefix.len() {
        0 => Decoded::Behavior(MacroBehavior::EmptyExpansion),
        1 => {
            let label = prefix[0];
            if eq(label, "b") {
                Decoded::Baseline
            } else if eq(label, id) {
                Decoded::Behavior(MacroBehavior::Compliant)
            } else if eq(label, "org") {
                Decoded::Behavior(MacroBehavior::TruncateNoReverse)
            } else if label.contains('%') {
                Decoded::Behavior(MacroBehavior::NoExpansion)
            } else {
                Decoded::Unknown
            }
        }
        5 => {
            let reversed_ok = eq(prefix[0], "org")
                && eq(prefix[1], "dns-lab")
                && eq(prefix[2], "spf-test")
                && eq(prefix[3], suite)
                && eq(prefix[4], id);
            let forward_ok = eq(prefix[0], id)
                && eq(prefix[1], suite)
                && eq(prefix[2], "spf-test")
                && eq(prefix[3], "dns-lab")
                && eq(prefix[4], "org");
            if reversed_ok {
                Decoded::Behavior(MacroBehavior::ReverseNoTruncate)
            } else if forward_ok {
                Decoded::Behavior(MacroBehavior::IgnoreTransformers)
            } else {
                Decoded::Unknown
            }
        }
        6 => {
            let dup_ok = eq(prefix[0], "org")
                && eq(prefix[1], "org")
                && eq(prefix[2], "dns-lab")
                && eq(prefix[3], "spf-test")
                && eq(prefix[4], suite)
                && eq(prefix[5], id);
            if dup_ok {
                Decoded::Behavior(MacroBehavior::VulnerableLibSpf2)
            } else {
                Decoded::Unknown
            }
        }
        _ => Decoded::Unknown,
    }
}

/// Labels a probe id must never collide with (they appear as fixed labels
/// in expansion fingerprints).
pub const RESERVED_ID_LABELS: [&str; 4] = ["b", "org", "dns-lab", "spf-test"];

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_netsim::SimTime;

    fn zone() -> Name {
        Name::parse("spf-test.dns-lab.org").unwrap()
    }

    fn entry(qname: &str, qtype: RecordType) -> QueryLogEntry {
        QueryLogEntry {
            at: SimTime::EPOCH,
            source: "198.51.100.1".parse().unwrap(),
            qname: Name::parse(qname).unwrap(),
            qtype,
        }
    }

    fn txt() -> QueryLogEntry {
        entry("k7q2.s01.spf-test.dns-lab.org", RecordType::TXT)
    }

    fn baseline() -> QueryLogEntry {
        entry("b.k7q2.s01.spf-test.dns-lab.org", RecordType::A)
    }

    fn classify_entries(entries: Vec<QueryLogEntry>) -> Classification {
        classify(&entries, "k7q2", "s01", &zone())
    }

    #[test]
    fn compliant_host() {
        let c = classify_entries(vec![
            txt(),
            entry("k7q2.k7q2.s01.spf-test.dns-lab.org", RecordType::A),
            baseline(),
        ]);
        assert!(c.conclusive());
        assert!(c.compliant_only());
        assert!(!c.vulnerable());
        assert!(!c.multi_pattern());
    }

    #[test]
    fn vulnerable_host() {
        let c = classify_entries(vec![
            txt(),
            entry(
                "org.org.dns-lab.spf-test.s01.k7q2.k7q2.s01.spf-test.dns-lab.org",
                RecordType::A,
            ),
            baseline(),
        ]);
        assert!(c.vulnerable());
        assert!(!c.erroneous_non_vulnerable());
        assert!(c.conclusive());
    }

    #[test]
    fn quirky_hosts() {
        let cases = [
            (
                "org.dns-lab.spf-test.s01.k7q2.k7q2.s01.spf-test.dns-lab.org",
                MacroBehavior::ReverseNoTruncate,
            ),
            (
                "org.k7q2.s01.spf-test.dns-lab.org",
                MacroBehavior::TruncateNoReverse,
            ),
            (
                "k7q2.s01.spf-test.dns-lab.org.k7q2.s01.spf-test.dns-lab.org",
                MacroBehavior::IgnoreTransformers,
            ),
            (
                "%{d1r}.k7q2.s01.spf-test.dns-lab.org",
                MacroBehavior::NoExpansion,
            ),
        ];
        for (qname, expected) in cases {
            let c = classify_entries(vec![txt(), entry(qname, RecordType::A), baseline()]);
            assert!(c.behaviors.contains(&expected), "{qname} -> {expected:?}");
            assert!(c.erroneous_non_vulnerable());
            assert!(!c.vulnerable());
        }
    }

    #[test]
    fn empty_expansion_queries_probe_domain_itself() {
        let c = classify_entries(vec![
            txt(),
            entry("k7q2.s01.spf-test.dns-lab.org", RecordType::A),
            baseline(),
        ]);
        assert!(c.behaviors.contains(&MacroBehavior::EmptyExpansion));
    }

    #[test]
    fn macro_unsupported_is_txt_only() {
        let c = classify_entries(vec![txt()]);
        assert!(c.spf_triggered);
        assert!(c.behaviors.contains(&MacroBehavior::MacroUnsupported));
        assert!(c.conclusive());
    }

    #[test]
    fn no_queries_is_inconclusive() {
        let c = classify_entries(vec![]);
        assert!(!c.spf_triggered);
        assert!(!c.conclusive());
    }

    #[test]
    fn multi_pattern_hosts_are_detected() {
        let c = classify_entries(vec![
            txt(),
            entry(
                "org.org.dns-lab.spf-test.s01.k7q2.k7q2.s01.spf-test.dns-lab.org",
                RecordType::A,
            ),
            entry("k7q2.k7q2.s01.spf-test.dns-lab.org", RecordType::A),
            baseline(),
        ]);
        assert!(c.multi_pattern());
        assert!(c.vulnerable());
        assert_eq!(c.behaviors.len(), 2);
    }

    #[test]
    fn other_probes_queries_are_ignored() {
        let c = classify_entries(vec![
            txt(),
            // A different probe id entirely.
            entry("zzzz.zzzz.s01.spf-test.dns-lab.org", RecordType::A),
            baseline(),
        ]);
        assert!(!c.vulnerable());
        // Only the baseline + TXT matched this probe: macro unsupported is
        // NOT inferred because an address query *was* seen for the domain.
        assert!(c.behaviors.is_empty() || c.behaviors.contains(&MacroBehavior::MacroUnsupported));
    }

    #[test]
    fn quirk_allowlist_is_consistent() {
        // Names are unique and kebab-case.
        let mut names: Vec<&str> = KNOWN_QUIRKS.iter().map(|q| q.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate quirk names");
        for q in KNOWN_QUIRKS {
            assert!(
                q.name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b == b'-' || b.is_ascii_digit()),
                "{} not kebab-case",
                q.name
            );
        }
        // Every non-compliant behaviour class has at least one named quirk,
        // and the vulnerable class names both CVEs.
        for b in [
            MacroBehavior::VulnerableLibSpf2,
            MacroBehavior::NoExpansion,
            MacroBehavior::ReverseNoTruncate,
            MacroBehavior::TruncateNoReverse,
            MacroBehavior::IgnoreTransformers,
            MacroBehavior::EmptyExpansion,
            MacroBehavior::MacroUnsupported,
        ] {
            assert!(!quirks_for_behavior(b).is_empty(), "{b:?} has no quirk");
        }
        let cves: BTreeSet<&str> = quirks_for_behavior(MacroBehavior::VulnerableLibSpf2)
            .iter()
            .filter_map(|q| q.cve)
            .collect();
        assert!(cves.contains("CVE-2021-33912") && cves.contains("CVE-2021-33913"));
        assert!(quirk_by_name("lowercase-hex-escape").is_some());
        assert!(quirk_by_name("nonexistent").is_none());
    }

    #[test]
    fn classification_exposes_quirk_names() {
        let c = classify_entries(vec![
            txt(),
            entry(
                "org.org.dns-lab.spf-test.s01.k7q2.k7q2.s01.spf-test.dns-lab.org",
                RecordType::A,
            ),
            baseline(),
        ]);
        let names = c.quirk_names();
        assert!(names.contains("dup-first-reversed-label"));
        assert!(names.contains("sign-extended-escape"));
        assert!(!names.contains("no-expansion"));
    }

    #[test]
    fn garbled_prefixes_count_as_unknown() {
        let c = classify_entries(vec![
            txt(),
            entry("x.y.z.k7q2.s01.spf-test.dns-lab.org", RecordType::A),
            baseline(),
        ]);
        assert_eq!(c.unknown_patterns, 1);
        assert!(c.erroneous_non_vulnerable());
        assert!(c.conclusive());
    }
}
