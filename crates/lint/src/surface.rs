//! Rule 10, `dead-surface`: a `pub` item nobody outside its crate names.
//!
//! Deadness *within* a crate is something rustc already decides — exactly,
//! transitively, and `#[cfg(test)]`-aware — for everything that is not
//! `pub`. The one thing it cannot see is across `pub`: a public item is
//! presumed to have callers elsewhere. This rule answers only that
//! question, over the token stream (no call graph, no zone table): a
//! `pub fn` / `pub const` / `pub static` — free or in an inherent `impl` —
//! in the lib target of `crates/<c>`, outside test regions, whose name no
//! file outside that lib target mentions in code is a finding: *make it
//! `pub(crate)`*. Once narrowed, `cargo clippy -- -D warnings` says
//! whether it is dead (TESTING.md, "What to do with a `dead-surface`
//! finding").
//!
//! "Outside" is everything the workspace walk reads that is not part of
//! the defining lib target: other crates, the crate's own `src/bin/**`,
//! `src/main.rs`, `tests/`, `benches/` and `examples/`, and the root
//! `tests/` and `examples/` packages. A doctest is compiled as a crate of
//! its own, so Rust-fenced code in doc comments counts as an outside
//! mention too; other comments and string literals never do.
//!
//! `benchmark/` is outside too, but it is a frozen client, so a mention
//! there is not a caller by itself: an item that only `benchmark/` names
//! is a finding unless `BENCHMARK_PINS` lists it. The table is the
//! benchmark-only surface, named once. An entry is itself a finding when
//! it goes stale: its item is gone, `benchmark/` no longer names it, or a
//! file outside `benchmark/` now does.
//!
//! Mentions are matched by bare name, so a collision (`new`, `len`) makes
//! the rule *miss*, never lie. Types, fields, variants and trait items
//! are not candidates: narrowing a type that a public signature mentions
//! trips `private_interfaces`, and trait-impl methods carry no `pub`.
//! The rule is one tier deep on purpose: an item named only by another
//! crate's *tests* has an outside caller and is not a finding.

use crate::interproc::WsFile;
use crate::lexer::{self, Lexed, TokenKind};
use crate::rules::{FileView, Finding};
use std::collections::BTreeSet;

/// What one file contributes to the rule.
#[derive(Debug, Default)]
pub struct Surface {
    /// Every identifier the file mentions in code.
    mentions: BTreeSet<String>,
    /// Identifiers in the Rust-fenced blocks of its doc comments: a
    /// doctest is an outside caller even of the file's own crate.
    doctest_mentions: BTreeSet<String>,
    /// Candidate items `(name, line)`: non-test `pub fn`/`const`/`static`
    /// declarations, collected only for lib-target files.
    items: Vec<(String, u32)>,
}

/// The crate whose lib target `path` belongs to: `crates/<c>/src/**`
/// minus the binary targets `src/bin/**` and `src/main.rs`.
pub(crate) fn lib_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once("/src/")?;
    (!krate.contains('/') && !rest.starts_with("bin/") && rest != "main.rs").then_some(krate)
}

/// Idents inside the Rust-fenced blocks of `lexed`'s doc comments. A fence
/// is Rust unless its info string says otherwise (`text`, `toml`, ...).
fn doctest_idents(lexed: &Lexed) -> BTreeSet<String> {
    const RUST_FENCES: &[&str] = &["", "rust", "no_run", "should_panic", "ignore"];
    let mut out = BTreeSet::new();
    let (mut fenced, mut rust) = (false, false);
    for c in lexed.comments.iter().filter(|c| c.is_line) {
        let Some(doc) = c.text.strip_prefix(['/', '!']) else {
            continue;
        };
        if let Some(info) = doc.trim().strip_prefix("```") {
            fenced = !fenced;
            rust = fenced && RUST_FENCES.contains(&info.trim());
        } else if fenced && rust {
            let code = lexer::lex(doc);
            out.extend(
                code.tokens
                    .into_iter()
                    .filter_map(|t| (t.kind == TokenKind::Ident).then_some(t.text)),
            );
        }
    }
    out
}

/// Collects one file's [`Surface`].
pub(crate) fn scan(view: &FileView<'_>, lexed: &Lexed) -> Surface {
    let toks = view.tokens;
    let mentions = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let mut items = Vec::new();
    if lib_crate(view.path).is_some() {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "pub" || view.is_test(i) {
                continue;
            }
            // `pub [const] [async] [unsafe] [extern "C"] fn NAME`,
            // `pub const NAME`, `pub static [mut] NAME`. `pub(crate)` has a
            // `(` here and anything else (`struct`, a field name, `use`)
            // is not a candidate.
            let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
            let head = text(i + 1);
            let mut k = i + 1;
            while matches!(
                text(k),
                "const" | "static" | "async" | "unsafe" | "extern" | "mut"
            ) || toks.get(k).is_some_and(|t| t.kind == TokenKind::Str)
            {
                k += 1;
            }
            let name_at = match text(k) {
                "fn" => k + 1,
                _ if matches!(head, "const" | "static") => k,
                _ => continue,
            };
            if let Some(name) = toks.get(name_at).filter(|t| t.kind == TokenKind::Ident) {
                items.push((name.text.clone(), name.line));
            }
        }
    }
    Surface {
        mentions,
        doctest_mentions: doctest_idents(lexed),
        items,
    }
}

/// The pins: `(crate, name)` for each `pub` item of `crates/<crate>`'s
/// lib target that only `benchmark/` calls. `benchmark/` is frozen, so
/// each pin keeps its path and signature until a change to `benchmark/`
/// drops the call and deletes the item (ROADMAP 4(c)); that change
/// deletes the entry too, or it is reported stale. The workspace run
/// checks this table; fixtures pass their own.
pub(crate) const BENCHMARK_PINS: &[(&str, &str)] = &[
    ("bench", "paper_graph"),
    ("cluster", "commit_prepared"),
    ("core", "BATCH"),
    ("core", "hard_committed"),
    ("core", "can_admit_primary"),
    ("core", "reservation_if_backup_added"),
    ("core", "can_admit_backup"),
    ("core", "route_cache_stats"),
    ("core", "commit_establish"),
    ("core", "primaries_sharing"),
    ("core", "invalidate"),
    ("core", "route_primary_with"),
    ("core", "route_backup_with"),
    ("core", "inner_mut"),
    ("core", "establish_wave"),
    ("service", "with_shards"),
    ("service", "parse_response"),
    ("service", "with_batch"),
    ("service", "with_queue_depth"),
];

/// Rule 10, `dead-surface`, over the whole workspace, with `pins` as the
/// [`BENCHMARK_PINS`] table.
pub(crate) fn dead_surface(files: &[WsFile], pins: &[(&str, &str)], out: &mut Vec<Finding>) {
    const RULE: &str = "dead-surface";
    // Whether a file outside `benchmark/`, and whether one inside it,
    // names `name` from outside crates/<krate>'s lib target.
    let named_outside = |krate: &str, name: &str| {
        let (mut product, mut benchmark) = (false, false);
        for g in files {
            let s = &g.surface;
            if s.doctest_mentions.contains(name)
                || (lib_crate(&g.path) != Some(krate) && s.mentions.contains(name))
            {
                if g.path.starts_with("benchmark/") {
                    benchmark = true;
                } else {
                    product = true;
                }
            }
        }
        (product, benchmark)
    };
    for f in files {
        let Some(krate) = lib_crate(&f.path) else {
            continue;
        };
        for (name, line) in &f.surface.items {
            if pins.contains(&(krate, name.as_str())) {
                continue; // its entry is checked below
            }
            let (product, benchmark) = named_outside(krate, name);
            if product || f.pragmas.allowed(RULE, *line) {
                continue;
            }
            let message = if benchmark {
                format!(
                    "pub item `{name}` is named outside crates/{krate}'s lib target only by \
                     benchmark/; list it in surface::BENCHMARK_PINS if the benchmark calls it, \
                     else make it pub(crate)"
                )
            } else {
                format!(
                    "pub item `{name}` is named by no file outside crates/{krate}'s lib target; \
                     make it pub(crate) and let rustc's dead-code pass decide the rest"
                )
            };
            out.push(Finding {
                file: f.path.clone(),
                line: *line,
                rule: RULE,
                message,
            });
        }
    }
    for &(krate, name) in pins {
        let defined = files.iter().any(|f| {
            lib_crate(&f.path) == Some(krate) && f.surface.items.iter().any(|(n, _)| n == name)
        });
        let (product, benchmark) = named_outside(krate, name);
        let why = if !defined {
            format!("crates/{krate}'s lib target has no pub item `{name}`")
        } else if !benchmark {
            "benchmark/ no longer names it".to_string()
        } else if product {
            "a file outside benchmark/ names it now".to_string()
        } else {
            continue;
        };
        out.push(Finding {
            file: "crates/lint/src/surface.rs".to_string(),
            line: 1,
            rule: RULE,
            message: format!("BENCHMARK_PINS entry ({krate}, {name}) is stale: {why}; delete it"),
        });
    }
}
