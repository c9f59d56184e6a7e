//! The fixture corpus: every rule must both fire on its positive
//! snippets and stay silent on its negative ones.
//!
//! Fixture layout: `fixtures/<rule-id>/pos_*.rs` must yield at least
//! one finding of that rule; `fixtures/<rule-id>/neg_*.rs` must yield
//! none. Scoping is synthesized per rule (fixtures pose as the crate /
//! file list the rule watches).

use lint::{lint_source, Config, FileMeta};

fn scoped(rule: &str, rel_path: &str) -> (Config, FileMeta) {
    let mut cfg = Config::workspace();
    let crate_name = match rule {
        "ethics-probe-budget" => "prober",
        _ => "world",
    };
    match rule {
        "det-float-field" => cfg.aggregate_files.push(rel_path.to_string()),
        "alloc-hot-path" => cfg.alloc_files.push((rel_path.to_string(), Vec::new())),
        _ => {}
    }
    let meta = FileMeta {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        is_bin: false,
    };
    (cfg, meta)
}

#[test]
fn every_rule_fires_on_pos_and_stays_silent_on_neg() {
    let dir = lint::workspace_root().join("crates/lint/fixtures");
    let mut rules_seen = 0usize;
    let mut cases = 0usize;
    let mut rule_dirs: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    rule_dirs.sort();
    assert!(!rule_dirs.is_empty(), "fixture corpus must not be empty");
    for rule_dir in rule_dirs {
        let rule = rule_dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("rule dir name is utf-8")
            .to_string();
        assert!(
            lint::rule_by_id(&rule).is_some(),
            "fixture dir `{rule}` does not name a rule"
        );
        rules_seen += 1;
        let mut files: Vec<_> = std::fs::read_dir(&rule_dir)
            .expect("rule dir readable")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        let mut pos = 0usize;
        let mut neg = 0usize;
        for file in files {
            let name = file
                .file_name()
                .and_then(|n| n.to_str())
                .expect("fixture name is utf-8")
                .to_string();
            let src = std::fs::read_to_string(&file).expect("fixture readable");
            let rel = format!("crates/world/src/{name}");
            let (cfg, meta) = scoped(&rule, &rel);
            let report = lint_source(&meta, &src, &cfg);
            let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
            if name.starts_with("pos_") {
                assert!(
                    !hits.is_empty(),
                    "{rule}/{name}: positive fixture produced no `{rule}` finding\nall findings: {:#?}",
                    report.findings
                );
                pos += 1;
            } else if name.starts_with("neg_") {
                assert!(
                    hits.is_empty(),
                    "{rule}/{name}: negative fixture produced findings: {hits:#?}"
                );
                neg += 1;
            } else {
                panic!("{rule}/{name}: fixture must be pos_*.rs or neg_*.rs");
            }
            cases += 1;
        }
        assert!(pos >= 1, "rule `{rule}` has no positive fixture");
        assert!(neg >= 1, "rule `{rule}` has no negative fixture");
    }
    assert_eq!(
        rules_seen,
        lint::ALL_RULES.len(),
        "every rule needs a fixture directory"
    );
    assert!(cases >= 2 * lint::ALL_RULES.len());
}

/// Acceptance pin: the reconstructed historical `pick_distinct` bug —
/// a HashSet draw returned in iteration order (ISSUE 4) — must be
/// caught, and the committed fix shape must pass.
#[test]
fn historical_pick_distinct_bug_is_caught() {
    let root = lint::workspace_root().join("crates/lint/fixtures/det-hash-iter");
    let bug = std::fs::read_to_string(root.join("pos_pick_distinct.rs")).expect("bug fixture");
    let fixed = std::fs::read_to_string(root.join("neg_sorted_collect.rs")).expect("fix fixture");
    let (cfg, meta) = scoped("det-hash-iter", "crates/world/src/lazy.rs");
    let bug_report = lint_source(&meta, &bug, &cfg);
    assert!(
        bug_report
            .findings
            .iter()
            .any(|f| f.rule == "det-hash-iter" && f.message.contains("seen")),
        "the pick_distinct HashSet-iteration pattern must be flagged: {:#?}",
        bug_report.findings
    );
    let fixed_report = lint_source(&meta, &fixed, &cfg);
    assert!(
        fixed_report
            .findings
            .iter()
            .all(|f| f.rule != "det-hash-iter"),
        "the sorted-collect fix must pass: {:#?}",
        fixed_report.findings
    );
}
