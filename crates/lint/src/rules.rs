//! The rule catalog.
//!
//! Every rule is a pure function over one file's token stream plus the
//! workspace [`Config`] that scopes it. Rules are deliberately
//! token-level (see DESIGN.md): each one matches a *shape* the
//! workspace has agreed never to write, and anything the shape
//! over-approximates is answered with a `// lint:allow(<rule-id>) reason`
//! at the site — visible, justified, and counted.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::engine::{FileCtx, FileMeta, Finding};
use crate::lex::TokKind;

/// One rule: identity, one-line contract, scope predicate, checker.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub applies: fn(&Config, &FileMeta) -> bool,
    pub check: fn(&FileCtx, &Config) -> Vec<Finding>,
}

/// The full catalog, in diagnostic-id order.
pub const ALL_RULES: &[Rule] = &[
    Rule {
        id: "alloc-hot-path",
        summary: "no String/Vec/format! construction in allocation-budget regions",
        applies: |cfg, meta| cfg.alloc_scope(meta).is_some(),
        check: check_alloc_hot_path,
    },
    Rule {
        id: "det-entropy",
        summary: "no OS entropy or randomly-seeded hashers in simulation crates",
        applies: |cfg, meta| cfg.in_sim_scope(meta),
        check: check_entropy,
    },
    Rule {
        id: "det-float-field",
        summary:
            "no float fields in mergeable aggregates (u128 moment squares are the house style)",
        applies: |cfg, meta| cfg.aggregate_files.contains(&meta.rel_path),
        check: check_float_field,
    },
    Rule {
        id: "det-hash-iter",
        summary: "no HashMap/HashSet iteration outside an ordered-collect idiom",
        applies: |cfg, meta| cfg.in_sim_scope(meta),
        check: check_hash_iter,
    },
    Rule {
        id: "det-wall-clock",
        summary: "no wall-clock reads (Instant/SystemTime) in simulation crates",
        applies: |cfg, meta| cfg.in_sim_scope(meta),
        check: check_wall_clock,
    },
    Rule {
        id: "ethics-probe-budget",
        summary: "probe-emitting functions must reference the ethics budget",
        applies: |cfg, meta| !meta.is_bin && cfg.ethics_crates.contains(&meta.crate_name),
        check: check_ethics_budget,
    },
    Rule {
        id: "panic-empty-expect",
        summary: "expect() must state the invariant it relies on",
        applies: |cfg, meta| cfg.in_panic_scope(meta),
        check: check_empty_expect,
    },
    Rule {
        id: "panic-explicit",
        summary: "no panic!/todo!/unimplemented! in library crates",
        applies: |cfg, meta| cfg.in_panic_scope(meta),
        check: check_explicit_panic,
    },
    Rule {
        id: "panic-unwrap",
        summary: "no bare unwrap() in library crates",
        applies: |cfg, meta| cfg.in_panic_scope(meta),
        check: check_unwrap,
    },
];

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    ALL_RULES.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------------
// det-wall-clock / det-entropy: forbidden identifiers
// ---------------------------------------------------------------------------

const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

fn check_forbidden_idents(
    ctx: &FileCtx,
    rule: &'static str,
    words: &[&str],
    why: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident || ctx.in_test_code(tok.start) {
            continue;
        }
        let text = tok.text(ctx.source);
        if words.contains(&text) {
            out.push(ctx.finding(i, rule, format!("`{text}` {why}")));
        }
    }
    out
}

fn check_wall_clock(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = check_forbidden_idents(
        ctx,
        "det-wall-clock",
        WALL_CLOCK_IDENTS,
        "reads the host's wall clock — simulation crates must advance `SimClock` only, \
         or sharded runs diverge from sequential ones",
    );
    // `std::time` / `core::time` paths (e.g. `std::time::Duration`).
    for i in 0..ctx.tokens.len().saturating_sub(3) {
        if (ctx.is_ident(i, "std") || ctx.is_ident(i, "core"))
            && ctx.is_punct(i + 1, ':')
            && ctx.is_punct(i + 2, ':')
            && ctx.is_ident(i + 3, "time")
            && !ctx.in_test_code(ctx.tokens[i].start)
        {
            out.push(
                ctx.finding(
                    i,
                    "det-wall-clock",
                    "`std::time` in a simulation crate — use `SimClock`/`SimDuration` so time \
                 is a deterministic function of the event stream"
                        .to_string(),
                ),
            );
        }
    }
    out
}

fn check_entropy(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    check_forbidden_idents(
        ctx,
        "det-entropy",
        ENTROPY_IDENTS,
        "draws OS entropy — all randomness must come from identity-derived `SimRng` \
         streams or runs stop being reproducible",
    )
}

// ---------------------------------------------------------------------------
// det-float-field: float members of mergeable aggregates
// ---------------------------------------------------------------------------

fn check_float_field(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < ctx.tokens.len() {
        if !ctx.is_ident(i, "struct") || ctx.in_test_code(ctx.tokens[i].start) {
            i += 1;
            continue;
        }
        // Find the body: `{ … }` for named fields, `( … )` for tuple
        // structs; a `;` first is a unit struct.
        let mut j = i + 1;
        let (open, close) = loop {
            match ctx.tokens.get(j).map(|t| t.text(ctx.source)) {
                Some("{") => break ("{", "}"),
                Some("(") => break ("(", ")"),
                Some(";") | None => break ("", ""),
                _ => j += 1,
            }
        };
        if open.is_empty() {
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        while j < ctx.tokens.len() {
            let text = ctx.text(j);
            if text == open {
                depth += 1;
            } else if text == close {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth > 0
                && ctx.tokens[j].kind == TokKind::Ident
                && (text == "f64" || text == "f32")
            {
                out.push(ctx.finding(
                    j,
                    "det-float-field",
                    format!(
                        "`{text}` field in a mergeable aggregate — float accumulation is not \
                         associative across shard merges; keep integer sums and u128 moment \
                         squares, deriving floats only in accessors"
                    ),
                ));
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// det-hash-iter: unordered iteration over hash collections
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens that make an iteration's result independent of visit order:
/// explicit sorts, ordered target collections, and order-insensitive
/// terminal operations.
const ORDER_REDEEMERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "contains",
    "contains_key",
    "is_empty",
];

/// Names in this file bound to a `HashMap`/`HashSet`: let bindings,
/// struct fields, and parameters, found by walking back from each
/// `HashMap`/`HashSet` type mention to the `name :` / `name =` that
/// owns it. Flow-insensitive by design — a shadowed reuse of the name
/// with another type is a tolerable over-approximation.
fn hash_typed_names(ctx: &FileCtx) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for h in 0..ctx.tokens.len() {
        if !(ctx.is_ident(h, "HashMap") || ctx.is_ident(h, "HashSet")) {
            continue;
        }
        let mut j = h;
        while j > 0 {
            j -= 1;
            let t = &ctx.tokens[j];
            let text = t.text(ctx.source);
            match text {
                ";" | "{" | "}" | "(" | ")" | "," | "." => break,
                ">"
                    // `-> HashMap` return type or `=>` match arm: no binding.
                    if j > 0 => {
                        let prev = ctx.text(j - 1);
                        if prev == "-" || prev == "=" {
                            break;
                        }
                    }
                ":" => {
                    // Skip `::` paths (`std::collections::HashMap`).
                    if j > 0 && ctx.is_punct(j - 1, ':') {
                        j -= 1;
                        continue;
                    }
                    if ctx.is_punct(j + 1, ':') {
                        continue;
                    }
                    if j > 0 && ctx.tokens[j - 1].kind == TokKind::Ident {
                        names.insert(ctx.text(j - 1).to_string());
                    }
                    break;
                }
                "=" => {
                    let arm = ctx.is_punct(j + 1, '>')
                        || (j > 0
                            && matches!(ctx.text(j - 1), "=" | "!" | "<" | ">" | "+" | "-"));
                    if arm {
                        break;
                    }
                    if j > 0 && ctx.tokens[j - 1].kind == TokKind::Ident {
                        names.insert(ctx.text(j - 1).to_string());
                    }
                    break;
                }
                _ => {}
            }
        }
    }
    names
}

/// The redemption window around a flagged call at token `i`: the rest
/// of the enclosing statement plus the following statement (covering
/// the `let v: Vec<_> = m.iter().collect(); v.sort();` idiom), and
/// backward to the statement start (covering `let m: BTreeMap<_,_> =
/// … .collect()`).
fn window_redeems(ctx: &FileCtx, i: usize) -> bool {
    let redeem = |ix: usize| {
        ctx.tokens[ix].kind == TokKind::Ident && ORDER_REDEEMERS.contains(&ctx.text(ix))
    };
    // Backward to the statement opener. One `{` may be crossed: a
    // single-expression body's ordering contract often sits in the fn
    // signature (`-> BTreeMap<…>`), just past the body's brace.
    let mut j = i;
    let mut crossed_brace = false;
    while j > 0 {
        j -= 1;
        match ctx.text(j) {
            "{" if !crossed_brace => crossed_brace = true,
            ";" | "{" | "}" => break,
            _ => {
                if redeem(j) {
                    return true;
                }
            }
        }
    }
    // Forward across this statement and the next.
    let mut depth = 0i32;
    let mut semis = 0;
    let mut k = i;
    while k + 1 < ctx.tokens.len() && k < i + 400 {
        k += 1;
        match ctx.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            ";" if depth == 0 => {
                semis += 1;
                if semis == 2 {
                    return false;
                }
            }
            _ => {
                if redeem(k) {
                    return true;
                }
            }
        }
    }
    false
}

fn check_hash_iter(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let names = hash_typed_names(ctx);
    let marked = |ix: usize| {
        ctx.tokens[ix].kind == TokKind::Ident
            && (names.contains(ctx.text(ix)) || matches!(ctx.text(ix), "HashMap" | "HashSet"))
    };
    let mut out = Vec::new();
    for i in 0..ctx.tokens.len() {
        if ctx.in_test_code(ctx.tokens[i].start) {
            continue;
        }
        // `map.iter()` / `set.drain()` / `self.cache.keys()` …
        if ctx.tokens[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&ctx.text(i))
            && i >= 2
            && ctx.is_punct(i - 1, '.')
            && marked(i - 2)
            && ctx.is_punct(i + 1, '(')
        {
            if !window_redeems(ctx, i) {
                out.push(ctx.finding(
                    i,
                    "det-hash-iter",
                    format!(
                        "`{}.{}()` iterates a hash collection in per-process seed order — \
                         sort the collected items (or collect into a BTree collection) \
                         before the order can reach any output",
                        ctx.text(i - 2),
                        ctx.text(i)
                    ),
                ));
            }
            continue;
        }
        // `for x in map { … }` — flagged unconditionally: a loop body
        // that observes order cannot be redeemed after the fact.
        if ctx.is_ident(i, "for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_ix = None;
            while j < ctx.tokens.len() && j < i + 60 {
                match ctx.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    "in" if depth == 0 && ctx.tokens[j].kind == TokKind::Ident => {
                        in_ix = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(start) = in_ix else { continue };
            let mut k = start + 1;
            let mut depth = 0i32;
            while k < ctx.tokens.len() && k < start + 60 {
                match ctx.text(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {
                        if marked(k) {
                            // `for x in map.len()`-style calls on non-iter
                            // methods are fine; bare `&map` or `map.iter()`
                            // feed the loop the hash order itself.
                            let non_iter_call = ctx.is_punct(k + 1, '.')
                                && k + 2 < ctx.tokens.len()
                                && !ITER_METHODS.contains(&ctx.text(k + 2));
                            // `outcome.records()` — a *method* that merely
                            // shares its name with a hash-typed binding is
                            // a call, not a container reference.
                            let is_called_method = k >= 1
                                && ctx.is_punct(k - 1, '.')
                                && ctx.is_punct(k + 1, '(')
                                && !ITER_METHODS.contains(&ctx.text(k));
                            if !non_iter_call && !is_called_method {
                                out.push(ctx.finding(
                                    i,
                                    "det-hash-iter",
                                    format!(
                                        "`for … in {}` visits a hash collection in \
                                         per-process seed order — sort into a Vec (or use \
                                         a BTree collection) before looping",
                                        ctx.text(k)
                                    ),
                                ));
                                break;
                            }
                        }
                    }
                }
                k += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ethics-probe-budget
// ---------------------------------------------------------------------------

/// Tokens that emit SMTP traffic at a host: opening a session, pushing
/// a message body, or dialing a connection.
const EMISSION_IDENTS: &[&str] = &["open_session", "handle_message"];

fn check_ethics_budget(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(name_ix, body_start, body_end) in ctx.fn_bodies {
        if ctx.in_test_code(body_start) {
            continue;
        }
        let body: Vec<usize> = (0..ctx.tokens.len())
            .filter(|&i| ctx.tokens[i].start >= body_start && ctx.tokens[i].end <= body_end)
            .collect();
        let references_ethics = body.iter().any(|&i| {
            ctx.tokens[i].kind == TokKind::Ident
                && matches!(ctx.text(i), "ethics" | "EthicsGuard" | "ethics_mut")
        });
        if references_ethics {
            continue;
        }
        for &i in &body {
            if ctx.tokens[i].kind != TokKind::Ident {
                continue;
            }
            let text = ctx.text(i);
            let emits = EMISSION_IDENTS.contains(&text)
                || (text == "connect" && i >= 1 && ctx.is_punct(i - 1, '.'));
            if emits {
                out.push(ctx.finding(
                    i,
                    "ethics-probe-budget",
                    format!(
                        "fn `{}` emits SMTP traffic (`{}`) without referencing the ethics \
                         budget — route the transaction through `EthicsGuard` (admit/release) \
                         or assert a slot is already held",
                        ctx.text(name_ix),
                        text
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// panic hygiene
// ---------------------------------------------------------------------------

fn check_unwrap(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 2..ctx.tokens.len() {
        if ctx.is_ident(i, "unwrap")
            && ctx.is_punct(i - 1, '.')
            && ctx.is_punct(i + 1, '(')
            && ctx.is_punct(i + 2, ')')
            && !ctx.in_test_code(ctx.tokens[i].start)
        {
            out.push(
                ctx.finding(
                    i,
                    "panic-unwrap",
                    "bare `unwrap()` in library code — state the invariant with \
                 `expect(\"…\")`, or propagate a real error through `ProbeError`"
                        .to_string(),
                ),
            );
        }
    }
    out
}

fn check_empty_expect(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 2..ctx.tokens.len() {
        if !(ctx.is_ident(i, "expect") && ctx.is_punct(i - 1, '.') && ctx.is_punct(i + 1, '(')) {
            continue;
        }
        if ctx.in_test_code(ctx.tokens[i].start) {
            continue;
        }
        let Some(arg) = ctx.tokens.get(i + 2) else {
            continue;
        };
        if arg.kind == TokKind::Str
            && !arg
                .text(ctx.source)
                .bytes()
                .any(|b| b.is_ascii_alphanumeric())
        {
            out.push(
                ctx.finding(
                    i,
                    "panic-empty-expect",
                    "`expect` with an empty message — the message must name the invariant \
                 that makes the failure impossible"
                        .to_string(),
                ),
            );
        }
    }
    out
}

fn check_explicit_panic(ctx: &FileCtx, _cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..ctx.tokens.len().saturating_sub(1) {
        let is_panic_macro = (ctx.is_ident(i, "panic")
            || ctx.is_ident(i, "todo")
            || ctx.is_ident(i, "unimplemented"))
            && ctx.is_punct(i + 1, '!');
        if is_panic_macro && !ctx.in_test_code(ctx.tokens[i].start) {
            out.push(ctx.finding(
                i,
                "panic-explicit",
                format!(
                    "`{}!` in library code — return an error through the `ProbeError` \
                     vocabulary, or prove the branch impossible and say so with \
                     `unreachable!(\"…\")`",
                    ctx.text(i)
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// alloc-hot-path
// ---------------------------------------------------------------------------

const ALLOC_TYPE_CTORS: &[&str] = &["new", "with_capacity", "from", "from_utf8"];
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "join", "collect"];

fn check_alloc_hot_path(ctx: &FileCtx, cfg: &Config) -> Vec<Finding> {
    let Some(fns) = cfg.alloc_scope(ctx.meta) else {
        return Vec::new();
    };
    // An empty fn list covers the whole file; otherwise only the named
    // functions' bodies are under the budget.
    let spans: Vec<(usize, usize)> = if fns.is_empty() {
        vec![(0, ctx.source.len())]
    } else {
        ctx.fn_bodies
            .iter()
            .filter(|&&(name_ix, _, _)| fns.iter().any(|f| f == ctx.text(name_ix)))
            .map(|&(_, s, e)| (s, e))
            .collect()
    };
    let in_scope =
        |at: usize| spans.iter().any(|&(s, e)| at >= s && at < e) && !ctx.in_test_code(at);
    let mut out = Vec::new();
    for i in 0..ctx.tokens.len() {
        if !in_scope(ctx.tokens[i].start) || ctx.tokens[i].kind != TokKind::Ident {
            continue;
        }
        let text = ctx.text(i);
        let flagged = match text {
            "String" | "Vec" | "Box" => {
                ctx.is_punct(i + 1, ':')
                    && ctx.is_punct(i + 2, ':')
                    && ctx
                        .tokens
                        .get(i + 3)
                        .is_some_and(|t| ALLOC_TYPE_CTORS.contains(&t.text(ctx.source)))
            }
            "format" | "vec" => ctx.is_punct(i + 1, '!'),
            m if ALLOC_METHODS.contains(&m) => {
                i >= 1 && ctx.is_punct(i - 1, '.') && {
                    // `.collect::<…>` or `.collect(` both construct.
                    ctx.is_punct(i + 1, '(') || ctx.is_punct(i + 1, ':')
                }
            }
            _ => false,
        };
        if flagged {
            out.push(ctx.finding(
                i,
                "alloc-hot-path",
                format!(
                    "`{text}` constructs on the heap inside an allocation-budget region — \
                     write into a reusable scratch buffer, or justify the cold-path \
                     allocation at this site"
                ),
            ));
        }
    }
    out
}
