//! Differential conformance engine for the SPF evaluators.
//!
//! The paper's detection technique rests on one claim: the byte-accurate
//! libSPF2 emulation diverges from the RFC 7208 evaluator in exactly the
//! fingerprintable ways (CVE-2021-33912/33913) and in no others. This
//! crate turns that claim into a standing machine-checked property:
//!
//! * [`mod@gen`] — a deterministic structure-aware generator that emits
//!   valid and near-valid SPF records, macro strings, and DNS zone
//!   fixtures from a seeded grammar;
//! * [`oracle`] — runs each case through `spf::eval` under the compliant
//!   expander, the libSPF2 emulation (vulnerable and patched), and every
//!   `variants.rs` quirk profile over one shared simulated zone, then
//!   classifies each divergence as a *known quirk* (matched against
//!   [`spfail_prober::KNOWN_QUIRKS`], with heap corruption cross-checked
//!   against `memsim`) or a *bug*;
//! * [`mod@shrink`] — minimizes bug cases to a smallest reproducer;
//! * [`rfc_corpus`] — an embedded RFC 7208–derived vector corpus
//!   (openspf-style) run against both real evaluators;
//! * [`regressions`] — the committed corpus of minimized divergences,
//!   replayed by a tier-1 test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod gen;
pub mod oracle;
pub mod regressions;
pub mod rfc_corpus;
pub mod shrink;

pub use case::{ConformanceCase, FixtureData, FixtureRecord, ScriptError};
pub use gen::generate_case;
pub use oracle::{
    run_case, run_seeded, CaseReport, FixtureDns, ProfileOutcome, ProfileReport, Summary, Verdict,
};
pub use rfc_corpus::{rfc_vectors, RfcVector};
pub use shrink::shrink;
