//! The rule ids, the two token rules (`env-registry`'s literal ban and
//! `float-format`), the per-file pragma machinery, and the zone tables
//! with their `zone-map` check. The rules that read the parse — the
//! daemon zone's panics, the byte-stable zone's hash state, the sim
//! zone's clock calls — live in [`crate::interproc`].
//!
//! Every rule works on the token stream from [`crate::lexer`] — never on
//! raw text — so commented-out code, string contents, and raw strings can
//! never produce findings. `#[cfg(test)]` items are excluded wholesale:
//! tests may panic, read clocks, and index slices at will.
//!
//! ## Zones
//!
//! The codebase splits into zones with different obligations, mirroring
//! the paper's split between the analyzed model and the measurement edge:
//!
//! * **daemon zone** — `drqosd`'s connection readers, the locked engine
//!   call each makes, and the admission path it drives
//!   (`NO_PANIC_FILES`): must not panic.
//! * **byte-stable zone** — snapshot/series/golden/wire emitters whose
//!   byte-equality CI proves (`DETERMINISTIC_FILES`, `FLOAT_FILES`):
//!   no unordered iteration, no unpinned float formatting.
//! * **sim zone** — everything the deterministic experiments run through
//!   (`CLOCK_DENY_PREFIXES`): no wall-clock reads, and no waits on the
//!   clock (`thread::sleep`), outside the explicitly-exempt measurement
//!   modules (`CLOCK_EXEMPT_FILES`).

use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Stable rule ids, in documentation order.
pub const RULES: &[&str] = &[
    "env-registry",
    "raw-clock",
    "float-format",
    "wire-doc-sync",
    "panic-reachability",
    "determinism-taint",
    "stale-pragma",
    "call-graph",
    "zone-map",
    "dead-surface",
];

/// Files where panics are forbidden (the daemon zone). The `bool` is
/// whether the slice-index check also applies: it does for the service
/// files (their only indexing would be into request data) and for the
/// connection slab (a slot may outlive its connection, so it is looked up
/// with `get`), but not for `network.rs` and its stage files, whose dense
/// `links[id.index()]` arena indexing is the idiom and is
/// bounds-established at construction.
pub(crate) const NO_PANIC_FILES: &[(&str, bool)] = &[
    ("crates/service/src/server.rs", true),
    ("crates/service/src/conn.rs", true),
    ("crates/service/src/engine.rs", true),
    ("crates/service/src/protocol.rs", true),
    ("crates/service/src/frame.rs", true),
    ("crates/service/src/genesis.rs", true),
    ("crates/service/src/bin/drqosd.rs", true),
    ("crates/service/src/clusterd.rs", true),
    ("crates/service/src/bin/drqos-clusterd.rs", true),
    ("crates/cluster/src/proto.rs", true),
    ("crates/core/src/network.rs", false),
    ("crates/core/src/network/plan.rs", false),
    ("crates/core/src/network/fill.rs", false),
    ("crates/core/src/network/fault.rs", false),
    ("crates/core/src/conn_table.rs", true),
    ("crates/core/src/shard.rs", false),
    ("crates/core/src/scenario.rs", false),
    ("crates/sim/src/srlg.rs", false),
];

/// Files whose output is pinned byte-exact by CI (golden traces, sweep
/// CSVs, wire payloads): no `HashMap`/`HashSet` — iteration order would
/// leak straight into the bytes.
pub(crate) const DETERMINISTIC_FILES: &[&str] = &[
    "crates/core/src/snapshot.rs",
    "crates/core/src/wire.rs",
    "crates/testkit/src/golden.rs",
    "crates/testkit/src/session.rs",
    "crates/bench/src/csv.rs",
    "crates/bench/src/runner.rs",
    "crates/service/src/engine.rs",
    "crates/service/src/protocol.rs",
    "crates/service/src/frame.rs",
];

/// Emitter files where every float reaching `format!` must carry an
/// explicit precision (`{:.3}`): default float `Display` is
/// shortest-round-trip, so a representation change upstream would change
/// committed CSV/golden bytes.
pub(crate) const FLOAT_FILES: &[&str] = &[
    "crates/bench/src/csv.rs",
    "crates/bench/src/runner.rs",
    "crates/testkit/src/golden.rs",
    "crates/core/src/snapshot.rs",
];

/// Crate source trees that must not read wall clocks (the sim zone plus
/// the daemon's deterministic command handling).
pub(crate) const CLOCK_DENY_PREFIXES: &[&str] = &[
    "crates/topology/src",
    "crates/markov/src",
    "crates/sim/src",
    "crates/core/src",
    "crates/analysis/src",
    "crates/testkit/src",
    "crates/service/src",
    "crates/cluster/src",
];

/// Measurement-edge modules exempt from `raw-clock`: parameter estimation
/// wall-timing, the daemon's latency metrics, and the client-side load
/// generator (it measures the daemon from outside).
pub(crate) const CLOCK_EXEMPT_FILES: &[&str] = &[
    "crates/core/src/measure.rs",
    "crates/service/src/metrics.rs",
    "crates/service/src/loadgen.rs",
];

/// Path prefixes exempt from `env-registry`'s string scan: the registry
/// itself is where the names live, and the linter (this crate) must name
/// the prefix it scans for plus fixture strings in its tests.
pub(crate) const ENV_EXEMPT_PREFIXES: &[&str] = &["crates/core/src/env.rs", "crates/lint"];

/// Every zone table by name, each row reduced to its path. A row is a
/// file's exact path or (the `*_PREFIXES` tables) a path prefix.
pub fn zone_tables() -> Vec<(&'static str, Vec<&'static str>)> {
    let no_panic = NO_PANIC_FILES.iter().map(|(p, _)| *p).collect();
    vec![
        ("NO_PANIC_FILES", no_panic),
        ("DETERMINISTIC_FILES", DETERMINISTIC_FILES.to_vec()),
        ("FLOAT_FILES", FLOAT_FILES.to_vec()),
        ("CLOCK_DENY_PREFIXES", CLOCK_DENY_PREFIXES.to_vec()),
        ("CLOCK_EXEMPT_FILES", CLOCK_EXEMPT_FILES.to_vec()),
        ("ENV_EXEMPT_PREFIXES", ENV_EXEMPT_PREFIXES.to_vec()),
        (
            "INDEX_EXEMPT_PREFIXES",
            crate::interproc::INDEX_EXEMPT_PREFIXES.to_vec(),
        ),
    ]
}

/// Rule 9, `zone-map`: a zone-table row that matches none of the
/// workspace's `files` puts nothing in its zone — a rename or a typo has
/// silently dropped a file out of it, and every rule keyed on the row is
/// vacuous there. A row is held to what the rules reading its table do
/// with it: they test a `*_PREFIXES` row with `starts_with` and every
/// other row by equality, so a file table's row that is a directory or a
/// truncated path names no file, however many files begin with it.
pub fn zone_map(tables: &[(&str, Vec<&str>)], files: &[&str], out: &mut Vec<Finding>) {
    for (table, rows) in tables {
        let by_prefix = table.ends_with("_PREFIXES");
        for row in rows {
            let matches = |f: &&str| f == row || (by_prefix && f.starts_with(row));
            if !files.iter().any(matches) {
                out.push(Finding {
                    file: "crates/lint/src/rules.rs".to_string(),
                    line: 1,
                    rule: "zone-map",
                    message: format!(
                        "{table} row `{row}` matches no workspace file: the zone it names is empty"
                    ),
                });
            }
        }
    }
}

/// The `lint:allow` pragmas of one file, with usage tracking.
///
/// Suppression coverage is permissive (any line comment *containing*
/// `lint:allow(...)` suppresses, as it always has), but only comments
/// that *begin* with the pragma are treated as declarations for the
/// `stale-pragma` rule — prose that merely mentions the syntax (e.g.
/// rule documentation) is neither a declaration nor expected to be used.
///
/// Usage is recorded behind a `RefCell` so the token rules and the
/// parsed rules can share one immutable view per file and still
/// account for which declarations earned their keep.
pub struct FilePragmas {
    /// (code line, rule) → pragma comment line that covers it.
    cover: BTreeMap<(u32, String), u32>,
    /// Strict declarations: (pragma comment line, rule).
    decls: Vec<(u32, String)>,
    /// Declarations that suppressed at least one would-be finding.
    used: std::cell::RefCell<BTreeSet<(u32, String)>>,
}

impl FilePragmas {
    /// Collects `// lint:allow(rule[, rule...])[: justification]`
    /// pragmas. A pragma suppresses matching findings on its own line;
    /// when the comment sits alone on its line, it also covers the
    /// following line.
    pub fn collect(lexed: &Lexed) -> Self {
        let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        let mut cover: BTreeMap<(u32, String), u32> = BTreeMap::new();
        let mut decls: Vec<(u32, String)> = Vec::new();
        for c in &lexed.comments {
            if !c.is_line {
                continue;
            }
            let Some(start) = c.text.find("lint:allow(") else {
                continue;
            };
            let strict = c.text.trim_start().starts_with("lint:allow(");
            let rest = &c.text[start + "lint:allow(".len()..];
            let Some(end) = rest.find(')') else { continue };
            for rule in rest[..end].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                if strict {
                    decls.push((c.line, rule.clone()));
                }
                cover.insert((c.line, rule.clone()), c.line);
                if !code_lines.contains(&c.line) {
                    cover.insert((c.line + 1, rule), c.line);
                }
            }
        }
        Self {
            cover,
            decls,
            used: std::cell::RefCell::new(BTreeSet::new()),
        }
    }

    /// Is `rule` suppressed on `line`? Marks the covering declaration
    /// used when it is.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        match self.cover.get(&(line, rule.to_string())) {
            Some(&pragma_line) => {
                self.used
                    .borrow_mut()
                    .insert((pragma_line, rule.to_string()));
                true
            }
            None => false,
        }
    }

    /// Declarations that suppressed nothing this run, excluding any on
    /// lines covered by `#[cfg(test)]` items (tests may carry pragmas
    /// for fixture strings without them being live suppressions).
    pub(crate) fn stale(&self, test_lines: &BTreeSet<u32>) -> Vec<(u32, String)> {
        let used = self.used.borrow();
        self.decls
            .iter()
            .filter(|(line, rule)| {
                !used.contains(&(*line, rule.clone()))
                    && !test_lines.contains(line)
                    && !test_lines.contains(&(line + 1))
            })
            .cloned()
            .collect()
    }
}

/// A lexed file plus the derived context rules need: which tokens are
/// inside `#[cfg(test)]` items, and which lines carry `lint:allow`
/// pragmas for which rules.
pub struct FileView<'a> {
    /// Repo-relative path, forward slashes.
    pub path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token],
    in_test: Vec<bool>,
    pragmas: FilePragmas,
}

impl<'a> FileView<'a> {
    /// Builds the view: marks test ranges and collects pragmas.
    pub fn new(path: &'a str, lexed: &'a Lexed) -> Self {
        let in_test = mark_test_tokens(&lexed.tokens);
        let pragmas = FilePragmas::collect(lexed);
        Self {
            path,
            tokens: &lexed.tokens,
            in_test,
            pragmas,
        }
    }

    /// Is token `i` inside a `#[cfg(test)]` item?
    pub fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Lines carrying tokens inside `#[cfg(test)]` items.
    pub(crate) fn test_lines(&self) -> BTreeSet<u32> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| self.is_test(*i))
            .map(|(_, t)| t.line)
            .collect()
    }

    /// Is `rule` suppressed on `line` by a `lint:allow` pragma?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.pragmas.allowed(rule, line)
    }

    /// Surrenders the pragma table (with its usage state) so the
    /// workspace pass can keep consulting it after the view is gone.
    pub(crate) fn into_pragmas(self) -> FilePragmas {
        self.pragmas
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Option<Finding> {
        if self.allowed(rule, line) {
            return None;
        }
        Some(Finding {
            file: self.path.to_string(),
            line,
            rule,
            message,
        })
    }
}

/// Whether an attribute's tokens (between `#[` and `]`) are a `cfg` whose
/// predicate cannot hold without `test`: `cfg(test)`, `cfg(all(test, …))`,
/// but not `cfg(not(test))` or `cfg(any(test, …))`.
fn gates_to_tests(attr: &[Token]) -> bool {
    let is = |t: Option<&Token>, text: &str| t.is_some_and(|t| t.text == text);
    if !is(attr.first(), "cfg") || attr.get(1).map(Token::punct) != Some("(") {
        return false;
    }
    cfg_without_test(attr, &mut 2) == Some(false)
}

/// The value of the `cfg` predicate starting at `at` in a build without
/// `test`, `None` where it turns on some other option; leaves `at` past
/// the predicate.
fn cfg_without_test(attr: &[Token], at: &mut usize) -> Option<bool> {
    let head = attr.get(*at)?;
    *at += 1;
    match attr.get(*at).map(Token::punct) {
        Some("=") => {
            // `key = "value"`: some other option.
            *at += 2;
            return None;
        }
        Some("(") => *at += 1,
        _ => return (head.text == "test").then_some(false),
    }
    let mut args = Vec::new();
    while attr.get(*at).is_some_and(|t| t.punct() != ")") {
        args.push(cfg_without_test(attr, at));
        if attr.get(*at).map(Token::punct) == Some(",") {
            *at += 1;
        }
    }
    *at += 1;
    let decided = |v: bool| args.contains(&Some(v));
    match head.text.as_str() {
        "not" => args.first().copied().flatten().map(|v| !v),
        "all" if decided(false) => Some(false),
        "any" if decided(true) => Some(true),
        "all" | "any" if args.iter().all(Option::is_some) => Some(head.text == "all"),
        _ => None,
    }
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item (attribute
/// through closing brace, or through `;` for braceless items like `use`):
/// any item whose `cfg` cannot hold without `test` ([`gates_to_tests`]).
pub(crate) fn mark_test_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].punct() != "#" {
            i += 1;
            continue;
        }
        // `#[ ... ]`: find the attribute's bracket span.
        let Some(open) = tokens.get(i + 1).filter(|t| t.punct() == "[") else {
            i += 1;
            continue;
        };
        let _ = open;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut close = None;
        while j < tokens.len() {
            match tokens[j].punct() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(close) = close else { break };
        if !gates_to_tests(&tokens[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // Gated item: runs to its closing brace, or to `;` if the item is
        // braceless (`#[cfg(test)] use ...;`). Braces inside parens (e.g.
        // closures in a fn signature default) are rare enough to ignore.
        let mut k = close + 1;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while k < tokens.len() {
            match tokens[k].punct() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        break;
                    }
                }
                ";" if !entered => break,
                _ => {}
            }
            k += 1;
        }
        let end = k.min(tokens.len().saturating_sub(1));
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Rule 1, `env-registry` (token half): any `"DRQOS_..."` string literal
/// outside `crates/core/src/env.rs` means an env read (or name) bypassing
/// the registry. The docs half lives in [`crate::check_env_docs`].
pub(crate) fn env_registry(view: &FileView<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "env-registry";
    if ENV_EXEMPT_PREFIXES.iter().any(|p| view.path.starts_with(p)) {
        return;
    }
    for (i, t) in view.tokens.iter().enumerate() {
        if view.is_test(i) {
            continue;
        }
        if t.kind == TokenKind::Str && t.text.starts_with("DRQOS_") {
            out.extend(view.finding(
                RULE,
                t.line,
                format!(
                    "literal \"{}\" bypasses the registry; use drqos_core::env's accessors \
                     or name constants",
                    t.text
                ),
            ));
        }
    }
}

/// Rule 3, `float-format`: in emitter files, every float reaching a
/// formatting macro must use an explicit precision (`{:.3}`); default
/// float `Display` is not a stable byte contract.
pub(crate) fn float_format(view: &FileView<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "float-format";
    if !FLOAT_FILES.contains(&view.path) {
        return;
    }
    let toks = view.tokens;

    // Pass 1: names declared or annotated as f64/f32 anywhere in the file
    // (`x: f64`, `x: &f64`). Coarse but effective — emitter files are
    // small and single-purpose.
    let mut float_names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.text == ":") {
            let mut j = i + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.kind == TokenKind::Lifetime)
            {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|t| t.text == "f64" || t.text == "f32")
            {
                float_names.insert(&toks[i].text);
            }
        }
    }

    const FMT_MACROS: &[&str] = &[
        "format", "print", "println", "eprint", "eprintln", "write", "writeln",
    ];
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let is_fmt = t.kind == TokenKind::Ident
            && FMT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|a| a.text == "!")
            && toks.get(i + 2).is_some_and(|b| b.text == "(");
        if !is_fmt || view.is_test(i) {
            i += 1;
            continue;
        }
        // Collect the macro's argument tokens (matching parens).
        let args_start = i + 3;
        let mut depth = 1usize;
        let mut j = args_start;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let args_end = j.saturating_sub(1); // index of closing paren
        check_format_call(view, &toks[args_start..args_end], &float_names, t.line, out);
        i = args_end.max(i + 1);
    }

    fn check_format_call(
        view: &FileView<'_>,
        args: &[Token],
        float_names: &BTreeSet<&str>,
        call_line: u32,
        out: &mut Vec<Finding>,
    ) {
        // The format string is the first Str argument (write!/writeln!
        // put the writer first).
        let Some(fmt_idx) = args.iter().position(|t| t.kind == TokenKind::Str) else {
            return;
        };
        let fmt = &args[fmt_idx];
        // Split the remaining args at top-level commas.
        let mut positional: Vec<&[Token]> = Vec::new();
        let mut depth = 0usize;
        let mut start = fmt_idx + 1;
        // Skip the comma right after the format string.
        if args.get(start).is_some_and(|t| t.text == ",") {
            start += 1;
        }
        let mut seg_start = start;
        for (k, t) in args.iter().enumerate().skip(start) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    positional.push(&args[seg_start..k]);
                    seg_start = k + 1;
                }
                _ => {}
            }
        }
        if seg_start < args.len() {
            positional.push(&args[seg_start..]);
        }

        let arg_is_float = |toks: &[Token]| -> bool {
            toks.iter().any(|t| {
                (t.kind == TokenKind::Ident
                    && (float_names.contains(t.text.as_str())
                        || t.text == "f64"
                        || t.text == "f32"
                        || t.text.ends_with("_f64")
                        || t.text.ends_with("_f32")))
                    || (t.kind == TokenKind::Num && t.text.contains('.'))
            })
        };

        // Walk the placeholders.
        let s: Vec<char> = fmt.text.chars().collect();
        let mut pos_counter = 0usize;
        let mut p = 0usize;
        while p < s.len() {
            if s[p] == '{' && s.get(p + 1) == Some(&'{') {
                p += 2;
                continue;
            }
            if s[p] != '{' {
                p += 1;
                continue;
            }
            let Some(close_off) = s[p..].iter().position(|&c| c == '}') else {
                break;
            };
            let inner: String = s[p + 1..p + close_off].iter().collect();
            p += close_off + 1;
            let (name, spec) = match inner.split_once(':') {
                Some((n, sp)) => (n, Some(sp)),
                None => (inner.as_str(), None),
            };
            let has_precision = spec.is_some_and(|sp| sp.contains('.'));
            if has_precision {
                // A `{}`-style placeholder consumes a positional arg even
                // when its precision makes it compliant.
                if name.is_empty() {
                    pos_counter += 1;
                }
                continue;
            }
            // No precision: is the referenced value a float?
            let is_float = if name.is_empty() {
                let r = positional
                    .get(pos_counter)
                    .copied()
                    .is_some_and(arg_is_float);
                pos_counter += 1;
                r
            } else if let Ok(idx) = name.parse::<usize>() {
                positional.get(idx).copied().is_some_and(arg_is_float)
            } else {
                float_names.contains(name)
            };
            if is_float {
                let shown = if name.is_empty() { "{}" } else { name };
                out.extend(view.finding(
                    RULE,
                    fmt.line.max(call_line),
                    format!(
                        "float formatted without explicit precision ({shown}); pin it \
                         (e.g. {{:.3}}) so emitted bytes cannot drift"
                    ),
                ));
            }
        }
    }
}

/// Parses `WIRE_CODES`-style `(code, "description")` pairs out of the
/// lexed `wire.rs`, for [`crate::check_wire_docs`].
pub(crate) fn wire_code_table(lexed: &Lexed) -> Vec<(u16, String)> {
    let toks = &lexed.tokens;
    let Some(start) = toks.iter().position(|t| t.text == "WIRE_CODES") else {
        return Vec::new();
    };
    // Skip the type annotation (it contains its own `[`): the literal's
    // opening bracket is the first one after the `=`.
    let Some(eq) = toks[start..].iter().position(|t| t.text == "=") else {
        return Vec::new();
    };
    let eq = start + eq;
    let Some(open) = toks[eq..].iter().position(|t| t.text == "[") else {
        return Vec::new();
    };
    let open = eq + open;
    let mut depth = 0usize;
    let mut pairs = Vec::new();
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "(" if depth == 1 => {
                // Expect Num , Str )
                if let (Some(num), Some(desc)) = (toks.get(i + 1), toks.get(i + 3)) {
                    if num.kind == TokenKind::Num && desc.kind == TokenKind::Str {
                        if let Ok(code) = num.text.parse::<u16>() {
                            pairs.push((code, desc.text.clone()));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lint_file;

    #[test]
    fn cfg_test_modules_are_invisible() {
        let src = r#"
            fn live() { x.get(0); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); panic!("fine in tests"); }
            }
        "#;
        assert!(lint_file("crates/service/src/engine.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let src = "fn f() { let a = m.get(&k).expect(\"x\"); // lint:allow(panic-reachability)\n\
                   // lint:allow(panic-reachability): justified here\n\
                   let b = m.get(&k).expect(\"y\");\n\
                   let c = m.get(&k).expect(\"z\"); }\n";
        let f = lint_file("crates/core/src/network.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn index_rule_applies_only_where_configured() {
        let src = "fn f() { let x = items[0]; }";
        assert_eq!(lint_file("crates/service/src/engine.rs", src).len(), 1);
        // network.rs: arena indexing is the idiom, not checked.
        assert!(lint_file("crates/core/src/network.rs", src).is_empty());
        // Attributes and array literals are not index expressions.
        let src = "#[derive(Debug)] fn g() { let a = [1, 2]; let v = vec![3]; }";
        assert!(lint_file("crates/service/src/engine.rs", src).is_empty());
    }

    #[test]
    fn wire_code_table_parses_pairs() {
        let lexed = lex(r#"pub const WIRE_CODES: &[(u16, &str)] = &[
                (100, "qos: zero minimum"),
                (201, "admission: same endpoints"),
            ];"#);
        assert_eq!(
            wire_code_table(&lexed),
            vec![
                (100, "qos: zero minimum".to_string()),
                (201, "admission: same endpoints".to_string())
            ]
        );
    }
}
