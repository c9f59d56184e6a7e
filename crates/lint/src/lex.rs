//! A hand-rolled Rust lexer.
//!
//! The offline vendor set has no `syn`, and the invariants this linter
//! enforces are all expressible over the token stream anyway — so the
//! lexer's one job is to split source into tokens *reliably*, never
//! mistaking a string body, a comment, a lifetime, or a char literal
//! for code. It handles the constructs that trip naive scanners:
//!
//! * nested block comments (`/* /* */ */`),
//! * raw strings with arbitrary `#` fences (`r##"…"##`), byte and
//!   C strings (`b"…"`, `br#"…"#`, `c"…"`),
//! * raw identifiers (`r#type`),
//! * lifetimes vs. char literals (`'a` vs `'a'`, `'\u{1F600}'`),
//! * numeric literals with underscores, exponents, and suffixes,
//!   without eating the dots of `0..n` ranges or `1.max(2)` calls.
//!
//! Tokens carry byte spans into the original source, so the stream
//! round-trips: concatenating every token's text with the whitespace
//! gaps between spans reproduces the input byte for byte (tested in
//! `tests/lexer.rs`).

use std::fmt;

/// What a token is. Comments are tokens here — suppression directives
/// live in them — and keywords are just idents whose text matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (including raw identifiers).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `b'\n'`, `'\u{1F600}'`.
    Char,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// A numeric literal, including suffix: `0x3FFF`, `1_000u64`, `2.5e-3`.
    Num,
    /// `// …` to end of line (including doc `///` and `//!`).
    LineComment,
    /// `/* … */`, nesting respected.
    BlockComment,
    /// A single punctuation byte: `.`, `:`, `{`, `!`, …
    Punct,
}

/// One token: a kind plus its byte span and source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// A lexing failure: unterminated string/comment or a stray byte. The
/// linter treats these as findings in their own right — a file the
/// lexer cannot finish is a file no rule can vouch for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

struct Cursor<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
}

impl<'s> Cursor<'s> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn col(&self, at: usize) -> u32 {
        (at - self.line_start) as u32 + 1
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `source` into a full token stream, or fail with the position of
/// the first construct the lexer could not close.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut cur = Cursor {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
    };
    let mut out = Vec::new();
    while let Some(b) = cur.peek(0) {
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.pos;
        let line = cur.line;
        let col = cur.col(start);
        let kind = lex_one(&mut cur, b).map_err(|message| LexError { line, col, message })?;
        out.push(Token {
            kind,
            start,
            end: cur.pos,
            line,
            col,
        });
    }
    Ok(out)
}

fn lex_one(cur: &mut Cursor, b: u8) -> Result<TokKind, String> {
    match b {
        b'/' if cur.peek(1) == Some(b'/') => {
            while let Some(n) = cur.peek(0) {
                if n == b'\n' {
                    break;
                }
                cur.bump();
            }
            Ok(TokKind::LineComment)
        }
        b'/' if cur.peek(1) == Some(b'*') => lex_block_comment(cur),
        b'r' | b'b' | b'c' => lex_prefixed(cur, b),
        b'"' => lex_string(cur),
        b'\'' => lex_quote(cur),
        _ if b.is_ascii_digit() => lex_number(cur),
        _ if is_ident_start(b) => {
            lex_ident(cur);
            Ok(TokKind::Ident)
        }
        _ => {
            cur.bump();
            Ok(TokKind::Punct)
        }
    }
}

fn lex_block_comment(cur: &mut Cursor) -> Result<TokKind, String> {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some(b'*'), Some(b'/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => return Err("unterminated block comment".to_string()),
        }
    }
    Ok(TokKind::BlockComment)
}

/// `r`, `b`, or `c` can open a raw string, byte string, byte char, raw
/// ident, or just be the first letter of a plain identifier.
fn lex_prefixed(cur: &mut Cursor, b: u8) -> Result<TokKind, String> {
    match (b, cur.peek(1), cur.peek(2)) {
        // r"..."  c"..."  b"..."
        (_, Some(b'"'), _) => {
            cur.bump();
            if b == b'r' {
                lex_raw_string(cur, 0)
            } else {
                lex_string(cur)
            }
        }
        // r#"..."#  (any number of #)  — but r#ident is a raw identifier.
        (b'r', Some(b'#'), Some(n)) if n == b'#' || n == b'"' => {
            cur.bump(); // r
            let mut hashes = 0usize;
            while cur.peek(0) == Some(b'#') {
                cur.bump();
                hashes += 1;
            }
            if cur.peek(0) != Some(b'"') {
                return Err("expected '\"' after raw string fence".to_string());
            }
            lex_raw_string(cur, hashes)
        }
        (b'r', Some(b'#'), Some(n)) if is_ident_start(n) => {
            cur.bump(); // r
            cur.bump(); // #
            lex_ident(cur);
            Ok(TokKind::Ident)
        }
        // br"..." / br#"..."# / cr"..."
        (b'b' | b'c', Some(b'r'), Some(b'"' | b'#')) => {
            cur.bump(); // b / c
            cur.bump(); // r
            let mut hashes = 0usize;
            while cur.peek(0) == Some(b'#') {
                cur.bump();
                hashes += 1;
            }
            if cur.peek(0) != Some(b'"') {
                return Err("expected '\"' after raw string fence".to_string());
            }
            lex_raw_string(cur, hashes)
        }
        // b'x' byte char
        (b'b', Some(b'\''), _) => {
            cur.bump(); // b
            lex_quote(cur)
        }
        _ => {
            lex_ident(cur);
            Ok(TokKind::Ident)
        }
    }
}

fn lex_ident(cur: &mut Cursor) {
    while let Some(n) = cur.peek(0) {
        if is_ident_continue(n) {
            cur.bump();
        } else {
            break;
        }
    }
}

fn lex_string(cur: &mut Cursor) -> Result<TokKind, String> {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump(); // whatever follows is escaped
            }
            Some(b'"') => return Ok(TokKind::Str),
            Some(_) => {}
            None => return Err("unterminated string literal".to_string()),
        }
    }
}

/// The cursor sits on the opening `"`; `hashes` fence `#`s were consumed.
fn lex_raw_string(cur: &mut Cursor, hashes: usize) -> Result<TokKind, String> {
    cur.bump(); // opening quote
    'scan: loop {
        match cur.bump() {
            Some(b'"') => {
                for i in 0..hashes {
                    if cur.peek(i) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                return Ok(TokKind::Str);
            }
            Some(_) => {}
            None => return Err("unterminated raw string literal".to_string()),
        }
    }
}

/// The cursor sits on a `'`: lifetime or char literal.
///
/// Disambiguation: `'` followed by an escape is always a char. `'`
/// followed by one character and a closing `'` is a char. Otherwise an
/// identifier-shaped tail is a lifetime (`'a`, `'static`, `'_`).
fn lex_quote(cur: &mut Cursor) -> Result<TokKind, String> {
    cur.bump(); // '
    match cur.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: consume until the closing quote.
            cur.bump(); // backslash
            cur.bump(); // escaped byte (n, ', u, x, …)
                        // `\u{…}` carries a braced payload.
            if cur.peek(0) == Some(b'{') {
                while let Some(n) = cur.bump() {
                    if n == b'}' {
                        break;
                    }
                }
            }
            // Hex escapes (`\x41`) and anything else: scan to the quote.
            while let Some(n) = cur.peek(0) {
                if n == b'\'' {
                    cur.bump();
                    return Ok(TokKind::Char);
                }
                if n == b'\n' {
                    break;
                }
                cur.bump();
            }
            Err("unterminated char literal".to_string())
        }
        Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
            // Could be 'x' (char) or 'ident (lifetime). Scan the
            // ident-shaped run, then look for a closing quote.
            let mut len = 1;
            // Multi-byte UTF-8 scalar: consume its continuation bytes as
            // part of the same "one character".
            while cur.peek(len).is_some_and(|n| n & 0xC0 == 0x80) {
                len += 1;
            }
            if cur.peek(len) == Some(b'\'') {
                for _ in 0..=len {
                    cur.bump();
                }
                return Ok(TokKind::Char);
            }
            if !is_ident_start(c) {
                return Err("digit cannot start a lifetime".to_string());
            }
            lex_ident(cur);
            Ok(TokKind::Lifetime)
        }
        Some(_) => {
            // `'('`-style punctuation char literal.
            let ch = cur.bump();
            debug_assert!(ch.is_some());
            if cur.peek(0) == Some(b'\'') {
                cur.bump();
                Ok(TokKind::Char)
            } else {
                Err("unterminated char literal".to_string())
            }
        }
        None => Err("stray quote at end of input".to_string()),
    }
}

fn lex_number(cur: &mut Cursor) -> Result<TokKind, String> {
    // Leading digits (or 0x/0o/0b radix bodies — alphanumerics cover it).
    while cur
        .peek(0)
        .is_some_and(|n| n.is_ascii_alphanumeric() || n == b'_')
    {
        // Exponent sign: `1e-3` / `2.5E+7`.
        let n = cur.bump();
        if matches!(n, Some(b'e') | Some(b'E'))
            && matches!(cur.peek(0), Some(b'+') | Some(b'-'))
            && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
        {
            cur.bump();
        }
    }
    // A fractional part only when the dot is followed by a digit —
    // `0..n` and `1.max(2)` keep their dots.
    if cur.peek(0) == Some(b'.') && cur.peek(1).is_some_and(|n| n.is_ascii_digit()) {
        cur.bump(); // .
        while cur
            .peek(0)
            .is_some_and(|n| n.is_ascii_alphanumeric() || n == b'_')
        {
            let n = cur.bump();
            if matches!(n, Some(b'e') | Some(b'E'))
                && matches!(cur.peek(0), Some(b'+') | Some(b'-'))
                && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                cur.bump();
            }
        }
    } else if cur.peek(0) == Some(b'.')
        && cur.peek(1) != Some(b'.')
        && !cur.peek(1).is_some_and(is_ident_start)
    {
        // Trailing-dot float: `2.` (not a range, not a method call).
        cur.bump();
    }
    Ok(TokKind::Num)
}
