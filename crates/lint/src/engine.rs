//! The rule engine: file analysis shared by every rule, the suppression
//! grammar, and the workspace driver.
//!
//! ## Suppression grammar
//!
//! ```text
//! // lint:allow(<rule-id>) reason text, at least one word
//! ```
//!
//! A suppression in a *trailing* comment applies to its own line. A
//! comment that is alone on its line applies to the next line that
//! holds code (blank and comment lines are skipped over, so several
//! standalone suppressions can stack above one statement). The reason
//! is mandatory: a reasonless `lint:allow(<rule-id>)` is itself a diagnostic
//! (`bad-suppression`), as is an unknown rule id. Under `--deny-all`
//! a suppression that matched nothing is reported too
//! (`unused-suppression`) — every allowance must stay load-bearing.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lex::{lex, LexError, TokKind, Token};
use crate::rules;

/// Rule ids for the engine's own diagnostics.
pub const RULE_BAD_SUPPRESSION: &str = "bad-suppression";
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";
pub const RULE_LEX_ERROR: &str = "lex-error";

/// Every rule id the engine knows, including its own meta rules. The
/// workspace meta-test checks suppression comments against this list.
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = rules::ALL_RULES.iter().map(|r| r.id).collect();
    ids.push(RULE_BAD_SUPPRESSION);
    ids.push(RULE_UNUSED_SUPPRESSION);
    ids.push(RULE_LEX_ERROR);
    ids
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Which rule fired.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Where a file sits in its crate — rules scope themselves on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// The owning crate's directory name under `crates/`.
    pub crate_name: String,
    /// Under `src/bin/` — driver code, exempt from library rules.
    pub is_bin: bool,
}

/// Everything a rule needs to scan one file: the token stream plus the
/// pre-computed structural facts every rule would otherwise re-derive.
pub struct FileCtx<'s> {
    pub meta: &'s FileMeta,
    pub source: &'s str,
    pub tokens: &'s [Token],
    /// Byte ranges covered by `#[cfg(test)]` modules and `#[test]`/
    /// `#[bench]` functions — library rules skip findings inside them.
    pub test_ranges: &'s [(usize, usize)],
    /// Spans of every `fn` body: (name-token index, body start byte,
    /// body end byte).
    pub fn_bodies: &'s [(usize, usize, usize)],
}

impl FileCtx<'_> {
    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(self.source)
    }

    /// Whether token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.source) == word)
    }

    /// Whether token `i` is a punct with exactly this byte.
    pub fn is_punct(&self, i: usize, ch: char) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(self.source).starts_with(ch))
    }

    /// Whether byte offset `at` falls inside test-only code.
    pub fn in_test_code(&self, at: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// A finding at token `i`.
    pub fn finding(&self, i: usize, rule: &'static str, message: String) -> Finding {
        let t = &self.tokens[i];
        Finding {
            file: self.meta.rel_path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
        }
    }
}

/// A parsed `lint:allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub file: String,
    /// Line the comment starts on.
    pub line: u32,
    /// Rule id inside the parentheses (not validated here).
    pub rule: String,
    /// Justification text after the closing paren (may be empty —
    /// the engine reports that).
    pub reason: String,
    /// The line findings must be on for this suppression to match.
    pub target_line: u32,
}

/// The result of linting one file or a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, in file/line order.
    pub findings: Vec<Finding>,
    /// Count of findings silenced by a suppression.
    pub suppressed: usize,
    /// Suppressions that silenced nothing (reported as findings only
    /// in strict mode, but always available for inspection).
    pub unused: Vec<Suppression>,
    /// Every suppression parsed, matched or not.
    pub suppressions: Vec<Suppression>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressed += other.suppressed;
        self.unused.extend(other.unused);
        self.suppressions.extend(other.suppressions);
        self.files += other.files;
    }
}

/// Extract suppression directives from the token stream. Only line
/// comments participate: block comments are prose.
fn parse_suppressions(meta: &FileMeta, source: &str, tokens: &[Token]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let body = tok.text(source).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        let mut emit_bad = |msg: &str| {
            bad.push(Finding {
                file: meta.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                rule: RULE_BAD_SUPPRESSION,
                message: msg.to_string(),
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            emit_bad("malformed suppression: expected `lint:allow(<rule-id>) reason`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            emit_bad("malformed suppression: missing `)`");
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        if rule.is_empty() {
            emit_bad("malformed suppression: empty rule id");
            continue;
        }
        if !known_rule_ids().contains(&rule.as_str()) {
            emit_bad(&format!("suppression names unknown rule `{rule}`"));
            continue;
        }
        if reason.is_empty() {
            emit_bad(&format!(
                "suppression of `{rule}` carries no reason — say why the finding is acceptable"
            ));
            continue;
        }
        // Trailing comment → applies to its own line. Standalone comment
        // → applies to the next code-bearing line (scan past comments).
        let standalone = !tokens[..i].iter().any(|t| {
            t.line == tok.line
                && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
        });
        let target_line = if standalone {
            tokens[i + 1..]
                .iter()
                .find(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
                .map_or(tok.line, |t| t.line)
        } else {
            tok.line
        };
        out.push(Suppression {
            file: meta.rel_path.clone(),
            line: tok.line,
            rule,
            reason,
            target_line,
        });
    }
    (out, bad)
}

/// Byte ranges of test-only code: `#[cfg(test)]`-attributed items and
/// `#[test]`/`#[bench]` functions. Token-level: find the attribute,
/// then the next `{` at module/item level, then its matching `}`.
fn test_ranges(source: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokKind::Punct && tokens[i].text(source) == "#") {
            i += 1;
            continue;
        }
        // `#[cfg(test)]` / `#[test]` / `#[bench]` — match loosely: an
        // attribute whose token texts contain `test` or `bench` inside
        // the brackets, with `cfg(test)` and bare `test` both caught.
        let Some(open) = tokens.get(i + 1).filter(|t| t.text(source) == "[") else {
            i += 1;
            continue;
        };
        let _ = open;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        let mut negated = false;
        while j < tokens.len() {
            match tokens[j].text(source) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" | "bench" if tokens[j].kind == TokKind::Ident => is_test_attr = true,
                // `#[cfg(not(test))]` guards *non*-test code.
                "not" if tokens[j].kind == TokKind::Ident => negated = true,
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = is_test_attr && !negated;
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then find the item's body braces.
        let mut k = j + 1;
        while k < tokens.len() && tokens[k].text(source) == "#" {
            let mut d = 0usize;
            k += 1;
            while k < tokens.len() {
                match tokens[k].text(source) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let mut body_start = None;
        while k < tokens.len() {
            match tokens[k].text(source) {
                "{" => {
                    if body_start.is_none() {
                        body_start = Some(tokens[k].start);
                    }
                    brace_depth += 1;
                }
                "}" => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        break;
                    }
                }
                ";" if brace_depth == 0 => break, // e.g. `#[cfg(test)] use …;`
                _ => {}
            }
            k += 1;
        }
        if let (Some(s), Some(end_tok)) = (body_start, tokens.get(k)) {
            ranges.push((s, end_tok.end));
        }
        i = k + 1;
    }
    ranges
}

/// Spans of `fn` bodies: (index of the name token, body byte range).
fn fn_bodies(source: &str, tokens: &[Token]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokKind::Ident && tokens[i].text(source) == "fn") {
            i += 1;
            continue;
        }
        let name_ix = i + 1;
        if !tokens.get(name_ix).is_some_and(|t| t.kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        // Scan to the body `{`, skipping the parameter list, return
        // type, and where clauses; a `;` first means a trait signature.
        let mut j = name_ix + 1;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut body = None;
        while j < tokens.len() {
            let t = tokens[j].text(source);
            match t {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "{" if paren == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        while k < tokens.len() {
            match tokens[k].text(source) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(end_tok) = tokens.get(k) {
            out.push((name_ix, tokens[open].start, end_tok.end));
        }
        i = open + 1;
    }
    out
}

/// Lint a single source text under `meta`.
pub fn lint_source(meta: &FileMeta, source: &str, cfg: &Config) -> Report {
    let mut report = Report {
        files: 1,
        ..Report::default()
    };
    let tokens = match lex(source) {
        Ok(t) => t,
        Err(LexError { line, col, message }) => {
            report.findings.push(Finding {
                file: meta.rel_path.clone(),
                line,
                col,
                rule: RULE_LEX_ERROR,
                message,
            });
            return report;
        }
    };
    let (suppressions, bad) = parse_suppressions(meta, source, &tokens);
    let ranges = test_ranges(source, &tokens);
    let bodies = fn_bodies(source, &tokens);
    let ctx = FileCtx {
        meta,
        source,
        tokens: &tokens,
        test_ranges: &ranges,
        fn_bodies: &bodies,
    };

    let mut raw: Vec<Finding> = bad;
    for rule in rules::ALL_RULES {
        if (rule.applies)(cfg, meta) {
            raw.extend((rule.check)(&ctx, cfg));
        }
    }
    raw.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));

    // Apply suppressions. A suppression matches findings of its rule on
    // its target line; `bad-suppression` findings cannot be suppressed.
    let mut used = vec![false; suppressions.len()];
    for f in raw {
        let slot = suppressions.iter().enumerate().find(|(_, s)| {
            s.rule == f.rule && s.target_line == f.line && f.rule != RULE_BAD_SUPPRESSION
        });
        match slot {
            Some((ix, _)) => {
                used[ix] = true;
                report.suppressed += 1;
            }
            None => report.findings.push(f),
        }
    }
    for (ix, s) in suppressions.iter().enumerate() {
        if !used[ix] {
            report.unused.push(s.clone());
        }
    }
    report.suppressions = suppressions;
    report
}

/// Walk `crates/*/src` under `root` and lint every `.rs` file.
///
/// Skipped: the `vendor/` stand-ins (external API shims, not house
/// code), `crates/lint/fixtures/` (intentional violations), and
/// anything outside `crates/*/src`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Report {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => Vec::new(),
    };
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let Some(crate_name) = crate_dir.file_name().and_then(|n| n.to_str()).map(String::from)
        else {
            continue;
        };
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = BTreeMap::new();
        collect_rs(&src, &mut files);
        for (path, _) in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
            let meta = FileMeta {
                rel_path: rel,
                crate_name: crate_name.clone(),
                is_bin,
            };
            let Ok(source) = std::fs::read_to_string(&path) else {
                continue;
            };
            report.merge(lint_source(&meta, &source, cfg));
        }
    }
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    report
}

fn collect_rs(dir: &Path, out: &mut BTreeMap<PathBuf, ()>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path, ());
        }
    }
}
