//! The committed regression corpus: every divergence or defect the
//! differential work has surfaced, minimized (see [`mod@crate::shrink`]) and
//! stored as a readable `.case` script under `corpus/`.
//!
//! The replay contract, enforced for every corpus entry:
//!
//! * the oracle reports **zero bugs** — each divergence the case
//!   provokes matches the named quirk allowlist;
//! * the case's `expect-result` matches the compliant evaluation;
//! * every `expect-quirk` name is (a) present in
//!   [`spfail_prober::KNOWN_QUIRKS`] and (b) actually observed.

use spfail_prober::quirk_by_name;

use crate::case::ConformanceCase;
use crate::oracle::{run_case, CaseReport};

/// The corpus, embedded at compile time so the replay needs no paths.
pub const REGRESSION_CORPUS: &[(&str, &str)] = &[
    (
        "lowercase-hex-escape",
        include_str!("../corpus/lowercase-hex-escape.case"),
    ),
    (
        "duplicate-redirect-permerror",
        include_str!("../corpus/duplicate-redirect-permerror.case"),
    ),
    (
        "dup-first-reversed-label",
        include_str!("../corpus/dup-first-reversed-label.case"),
    ),
    (
        "sign-extension-heap-overflow",
        include_str!("../corpus/sign-extension-heap-overflow.case"),
    ),
    (
        "exp-only-after-smashed-heap",
        include_str!("../corpus/exp-only-after-smashed-heap.case"),
    ),
];

/// Replay one corpus script through the oracle, returning failure
/// descriptions (empty means the regression is still pinned correctly).
pub fn replay_script(script: &str) -> Vec<String> {
    let case = match ConformanceCase::parse_script(script) {
        Ok(case) => case,
        Err(e) => return vec![format!("unparseable corpus script: {e}")],
    };
    let report = run_case(&case);
    check_expectations(&case, &report)
}

/// The expectation checks shared by corpus replay and the fuzz smoke.
pub fn check_expectations(case: &ConformanceCase, report: &CaseReport) -> Vec<String> {
    let mut failures = Vec::new();
    for (behavior, bug) in report.bugs() {
        failures.push(format!("{}: {behavior:?}: {bug}", case.name));
    }
    if let Some(expected) = case.expect_result {
        if report.compliant.result != expected {
            failures.push(format!(
                "{}: compliant result {:?}, expected {expected:?}",
                case.name, report.compliant.result,
            ));
        }
    }
    let observed = report.quirk_names();
    for quirk in &case.expect_quirks {
        if quirk_by_name(quirk).is_none() {
            failures.push(format!(
                "{}: expected quirk {quirk:?} is not in the allowlist",
                case.name,
            ));
        }
        if !observed.contains(quirk.as_str()) {
            failures.push(format!(
                "{}: expected quirk {quirk:?} was not observed (saw {observed:?})",
                case.name,
            ));
        }
    }
    failures
}

/// Replay the whole corpus.
pub fn replay_all() -> Vec<String> {
    let mut failures = Vec::new();
    for (name, script) in REGRESSION_CORPUS {
        for failure in replay_script(script) {
            failures.push(format!("[{name}] {failure}"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_file_names_match_case_names() {
        for (name, script) in REGRESSION_CORPUS {
            let case = ConformanceCase::parse_script(script).unwrap();
            assert_eq!(&case.name, name);
        }
    }

    #[test]
    fn corpus_replays_clean() {
        let failures = replay_all();
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
