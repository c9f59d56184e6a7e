//! Lexer round-trip and disambiguation tests on the Rust constructs
//! that trip naive scanners.

use lint::lex::{lex, TokKind};

/// Every byte of the input is either inside exactly one token span or
/// whitespace between spans — the stream reproduces the source.
fn assert_round_trip(src: &str) {
    let tokens = lex(src).unwrap_or_else(|e| panic!("lex failed on {src:?}: {e}"));
    let mut cursor = 0usize;
    for t in &tokens {
        assert!(t.start >= cursor, "overlapping token at {}", t.start);
        assert!(t.end > t.start, "empty token at {}", t.start);
        assert!(
            src[cursor..t.start].chars().all(char::is_whitespace),
            "non-whitespace gap before token at {}: {:?}",
            t.start,
            &src[cursor..t.start]
        );
        cursor = t.end;
    }
    assert!(
        src[cursor..].chars().all(char::is_whitespace),
        "non-whitespace tail after last token"
    );
    // Reassembling spans + gaps is the identity.
    let mut rebuilt = String::new();
    let mut at = 0usize;
    for t in &tokens {
        rebuilt.push_str(&src[at..t.start]);
        rebuilt.push_str(t.text(src));
        at = t.end;
    }
    rebuilt.push_str(&src[at..]);
    assert_eq!(rebuilt, src);
}

fn kinds(src: &str) -> Vec<(TokKind, String)> {
    lex(src)
        .expect("fixture must lex")
        .into_iter()
        .map(|t| (t.kind, t.text(src).to_string()))
        .collect()
}

#[test]
fn raw_strings_with_fences() {
    let src = r####"let s = r#"raw "quoted" body"#; let t = r##"deeper "# fence"##;"####;
    assert_round_trip(src);
    let strs: Vec<_> = kinds(src)
        .into_iter()
        .filter(|(k, _)| *k == TokKind::Str)
        .collect();
    assert_eq!(strs.len(), 2);
    assert!(strs[0].1.starts_with("r#\""));
    assert!(strs[1].1.ends_with("\"##"));
}

#[test]
fn byte_and_c_strings() {
    let src = r##"let a = b"bytes\x00"; let b2 = br#"raw bytes"#; let c = c"cstr";"##;
    assert_round_trip(src);
    let n = kinds(src)
        .iter()
        .filter(|(k, _)| *k == TokKind::Str)
        .count();
    assert_eq!(n, 3);
}

#[test]
fn nested_block_comments_are_one_token() {
    let src = "before /* outer /* nested /* deep */ */ tail */ after";
    assert_round_trip(src);
    let toks = kinds(src);
    assert_eq!(
        toks,
        vec![
            (TokKind::Ident, "before".to_string()),
            (
                TokKind::BlockComment,
                "/* outer /* nested /* deep */ */ tail */".to_string()
            ),
            (TokKind::Ident, "after".to_string()),
        ]
    );
}

#[test]
fn unterminated_block_comment_is_an_error() {
    assert!(lex("ok /* never closes /* inner */").is_err());
    assert!(lex("let s = \"no close").is_err());
    assert!(lex("let s = r#\"no close\"").is_err());
}

#[test]
fn lifetimes_vs_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'x'; let n = '\\n'; let q = '\\''; let u = '\\u{1F600}'; let g = 'λ'; x }";
    assert_round_trip(src);
    let toks = kinds(src);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Lifetime)
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
    let chars: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Char)
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(chars, vec!["'x'", "'\\n'", "'\\''", "'\\u{1F600}'", "'λ'"]);
}

#[test]
fn raw_identifiers() {
    let src = "let r#type = r#match + regular;";
    assert_round_trip(src);
    let idents: Vec<_> = kinds(src)
        .into_iter()
        .filter(|(k, _)| *k == TokKind::Ident)
        .map(|(_, t)| t)
        .collect();
    assert_eq!(idents, vec!["let", "r#type", "r#match", "regular"]);
}

#[test]
fn numbers_keep_range_and_method_dots() {
    let src =
        "let a = 0..10; let b = 1.max(2); let c = 2.5e-3; let d = 0x3FFF_u32; let e = 1_000.5f64;";
    assert_round_trip(src);
    let nums: Vec<_> = kinds(src)
        .into_iter()
        .filter(|(k, _)| *k == TokKind::Num)
        .map(|(_, t)| t)
        .collect();
    assert_eq!(
        nums,
        vec!["0", "10", "1", "2", "2.5e-3", "0x3FFF_u32", "1_000.5f64"]
    );
}

#[test]
fn line_comments_and_doc_comments() {
    let src = "/// doc 'comment' with \"stuff\"\n//! inner\nfn x() {} // trailing";
    assert_round_trip(src);
    let n = kinds(src)
        .iter()
        .filter(|(k, _)| *k == TokKind::LineComment)
        .count();
    assert_eq!(n, 3);
}

#[test]
fn a_real_workspace_file_round_trips() {
    // The lexer must hold on real house code, not just fixtures.
    let root = lint::workspace_root();
    for rel in [
        "crates/dns/src/name.rs",
        "crates/spf/src/expand.rs",
        "crates/prober/src/probe.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect("workspace file readable");
        assert_round_trip(&src);
    }
}
