//! The suppression grammar: trailing and standalone placement, the
//! mandatory reason, unknown rule ids, and unused-suppression tracking.

use lint::{lint_source, Config, FileMeta};

fn meta() -> FileMeta {
    FileMeta {
        rel_path: "crates/world/src/snippet.rs".to_string(),
        crate_name: "world".to_string(),
        is_bin: false,
    }
}

fn run(src: &str) -> lint::Report {
    lint_source(&meta(), src, &Config::workspace())
}

#[test]
fn trailing_suppression_silences_its_own_line() {
    let report = run("pub fn f(s: &str) -> u16 {\n\
         \x20   s.parse().unwrap() // lint:allow(panic-unwrap) demo: caller guarantees digits\n\
         }\n");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 1);
    assert!(report.unused.is_empty());
}

#[test]
fn standalone_suppression_covers_the_next_code_line() {
    let report = run("pub fn f(s: &str) -> u16 {\n\
         \x20   // lint:allow(panic-unwrap) demo: caller guarantees digits\n\
         \x20   // (an unrelated comment between directive and code is fine)\n\
         \x20   s.parse().unwrap()\n\
         }\n");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let report = run("pub fn f(s: &str) -> u16 {\n\
         \x20   s.parse().unwrap() // lint:allow(panic-unwrap)\n\
         }\n");
    // Both the naked unwrap and the reasonless directive are reported.
    assert!(report.findings.iter().any(|f| f.rule == "panic-unwrap"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "bad-suppression" && f.message.contains("no reason")));
}

#[test]
fn suppression_of_unknown_rule_is_a_finding() {
    let report = run("// lint:allow(no-such-rule) because reasons\npub fn f() {}\n");
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "bad-suppression" && f.message.contains("no-such-rule")));
}

#[test]
fn suppression_only_matches_its_own_rule() {
    let report = run("pub fn f(s: &str) -> u16 {\n\
         \x20   s.parse().unwrap() // lint:allow(det-hash-iter) wrong rule named\n\
         }\n");
    assert!(report.findings.iter().any(|f| f.rule == "panic-unwrap"));
    // The mismatched directive silenced nothing.
    assert_eq!(report.unused.len(), 1);
    assert_eq!(report.unused[0].rule, "det-hash-iter");
}

#[test]
fn unused_suppressions_are_tracked() {
    let report = run(
        "// lint:allow(panic-unwrap) nothing on the next line unwraps\n\
         pub fn f() -> u16 { 7 }\n",
    );
    assert!(report.findings.is_empty());
    assert_eq!(report.unused.len(), 1);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn stacked_standalone_suppressions_cover_one_line_with_two_rules() {
    let src = "\
use std::collections::HashSet;
pub fn f(seen: HashSet<u32>) -> Vec<u32> {
    // lint:allow(det-hash-iter) demo: order is re-established downstream
    // lint:allow(panic-unwrap) demo: nonempty by construction
    seen.into_iter().map(|v| v.checked_mul(2).unwrap()).collect()
}
";
    let report = run(src);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 2);
    assert!(report.unused.is_empty());
}
