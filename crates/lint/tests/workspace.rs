//! The tier-1 gate: the whole workspace must lint clean, in-process.
//!
//! This is the same scan `cargo run -p lint -- --deny-all` performs in
//! CI, run as a test so `cargo test` alone enforces the invariants.

use lint::{known_rule_ids, lint_workspace, Config};

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = lint_workspace(&lint::workspace_root(), &Config::workspace());
    assert!(
        report.files >= 80,
        "expected to scan the whole workspace, saw {} files",
        report.files
    );
    assert!(
        report.findings.is_empty(),
        "unsuppressed lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_workspace_suppression_is_load_bearing_and_justified() {
    let report = lint_workspace(&lint::workspace_root(), &Config::workspace());
    // The engine already rejects reasonless directives as findings; on a
    // clean tree every parsed suppression therefore carries a reason.
    for s in &report.suppressions {
        assert!(
            !s.reason.is_empty(),
            "{}:{}: suppression of `{}` without reason",
            s.file,
            s.line,
            s.rule
        );
        assert!(
            s.reason.split_whitespace().count() >= 2,
            "{}:{}: reason `{}` is too terse to justify anything",
            s.file,
            s.line,
            s.reason
        );
    }
    assert!(
        report.unused.is_empty(),
        "suppressions that silence nothing:\n{}",
        report
            .unused
            .iter()
            .map(|s| format!("  {}:{} lint:allow({})", s.file, s.line, s.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Meta-test (ISSUE satellite): every rule id appearing in a
/// `lint:allow(...)` comment anywhere in the repo — library sources,
/// integration tests, examples — names a rule that actually exists.
#[test]
fn every_suppression_comment_names_a_real_rule() {
    let root = lint::workspace_root();
    let known = known_rule_ids();
    let mut checked = 0usize;
    let mut stack = vec![
        root.join("crates"),
        root.join("tests"),
        root.join("examples"),
    ];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                // Vendored stand-ins are not house code.
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let Ok(src) = std::fs::read_to_string(&path) else {
                    continue;
                };
                for (ln, line) in src.lines().enumerate() {
                    let mut rest = line;
                    while let Some(at) = rest.find("lint:allow(") {
                        let tail = &rest[at + "lint:allow(".len()..];
                        let Some(close) = tail.find(')') else { break };
                        let id = tail[..close].trim();
                        // Only kebab-shaped ids count: diagnostic format
                        // strings (`lint:allow({})`) and the engine's own
                        // parser handle the malformed shapes. Fixture and
                        // test sources may also demonstrate the
                        // unknown-rule diagnostic itself.
                        let kebab = !id.is_empty()
                            && id
                                .chars()
                                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
                        if kebab && id != "no-such-rule" {
                            assert!(
                                known.contains(&id),
                                "{}:{}: suppression names unknown rule `{id}`",
                                path.display(),
                                ln + 1
                            );
                            checked += 1;
                        }
                        rest = &tail[close..];
                    }
                }
            }
        }
    }
    assert!(
        checked > 0,
        "expected at least one suppression in the workspace"
    );
}

/// The rule catalog itself stays well-formed: unique kebab-case ids,
/// non-empty summaries, and a fixture directory per rule.
#[test]
fn rule_catalog_is_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for rule in lint::ALL_RULES {
        assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
        assert!(
            rule.id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "rule id `{}` is not kebab-case",
            rule.id
        );
        assert!(!rule.summary.is_empty());
        let dir = lint::workspace_root()
            .join("crates/lint/fixtures")
            .join(rule.id);
        assert!(dir.is_dir(), "rule `{}` has no fixture directory", rule.id);
    }
}
