//! # drqos-lint
//!
//! In-repo static analysis for the drqos workspace: a dependency-free
//! lexer + rule engine that mechanically enforces the contracts the
//! dynamic test suite proves — determinism of byte-pinned outputs, a
//! panic-free daemon, and single-source-of-truth registries for env vars
//! and wire codes.
//!
//! Ten rules, and one rule per hazard. The token rules (`env-registry`'s
//! literal ban, `float-format`) and the zone tables live in [`rules`];
//! the rules that read the item-level [`parser`] — `panic-reachability`
//! and `determinism-taint` over the workspace [`callgraph`], `raw-clock`
//! per file — live in [`interproc`]; `dead-surface` (a `pub` item no
//! file outside its crate names) lives in [`surface`] and needs neither.
//! Pragma syntax is
//! `// lint:allow(<rule>)[: justification]` on the offending line or
//! alone on the line above; a pragma that suppresses nothing is itself a
//! `stale-pragma` finding. TESTING.md documents the full rule table.
//!
//! Run over the workspace:
//!
//! ```text
//! cargo run -p drqos-lint            # human output, exit 1 on findings
//! cargo run -p drqos-lint -- --json  # machine output (CI)
//! cargo run -p drqos-lint -- --fix-allowlist  # ready-to-paste pragmas
//! cargo run -p drqos-lint -- --call-graph     # call-graph dump
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod surface;

pub use rules::Finding;

use callgraph::CallGraph;
use interproc::WsFile;
use rules::FileView;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "golden"];

/// Recursively collects the workspace's `.rs` files, repo-relative with
/// forward slashes, sorted for deterministic output.
pub(crate) fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints one file's source text. `rel_path` must be repo-relative with
/// forward slashes — it selects which zone rules apply. Every rule runs
/// with the file as the whole workspace, except the ones only the whole
/// workspace can judge: the call-graph floor, `dead-surface` and
/// `stale-pragma` (see [`lint_sources`]).
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    lint_parsed(&[(rel_path.to_string(), source.to_string())], &mut findings);
    findings.sort();
    findings
}

/// The docs half of `env-registry`: every registered variable must appear
/// in README.md's generated env table, and the committed table between
/// the `<!-- env-table:begin -->` / `<!-- env-table:end -->` markers must
/// match `drqos_core::env::readme_table()` byte-exact.
pub fn check_env_docs(readme: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |message: String| {
        out.push(Finding {
            file: "README.md".to_string(),
            line: 1,
            rule: "env-registry",
            message,
        });
    };
    for var in drqos_core::env::registry() {
        if !readme.contains(var.name) {
            push(format!(
                "registered env var {} is missing from README.md",
                var.name
            ));
        }
    }
    const BEGIN: &str = "<!-- env-table:begin";
    const END: &str = "<!-- env-table:end";
    match (readme.find(BEGIN), readme.find(END)) {
        (Some(b), Some(e)) if b < e => {
            // The marker line ends with `-->\n`; the table starts on the
            // next line.
            let after = &readme[b..e];
            let table_start = after.find("-->").map(|i| b + i + 3).unwrap_or(b);
            let committed = readme[table_start..e].trim_start_matches(['\r', '\n']);
            let generated = drqos_core::env::readme_table();
            if committed.trim_end() != generated.trim_end() {
                push(
                    "README env table drifted from drqos_core::env::registry(); \
                     regenerate it (see TESTING.md)"
                        .to_string(),
                );
            }
        }
        _ => push(
            "README.md is missing the <!-- env-table:begin/end --> markers around \
             the env table"
                .to_string(),
        ),
    }
    out
}

/// Rule 4, `wire-doc-sync`: every `(code, description)` in `wire.rs`'s
/// `WIRE_CODES` table must appear in SERVICE.md as a `| code | description |`
/// row.
pub fn check_wire_docs(wire_src: &str, service_md: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let lexed = lexer::lex(wire_src);
    let table = rules::wire_code_table(&lexed);
    if table.is_empty() {
        out.push(Finding {
            file: "crates/core/src/wire.rs".to_string(),
            line: 1,
            rule: "wire-doc-sync",
            message: "could not locate the WIRE_CODES table".to_string(),
        });
        return out;
    }
    for (code, desc) in table {
        let row_present = service_md.lines().any(|l| {
            let mut cells = l.split('|').map(str::trim);
            cells.next(); // leading empty cell before the first `|`
            matches!(
                (cells.next(), cells.next()),
                (Some(c), Some(d)) if c.trim_matches('`') == code.to_string() && d == desc
            )
        });
        if !row_present {
            out.push(Finding {
                file: "SERVICE.md".to_string(),
                line: 1,
                rule: "wire-doc-sync",
                message: format!(
                    "wire code {code} ({desc}) is not documented as a `| {code} | {desc} |` \
                     row in SERVICE.md"
                ),
            });
        }
    }
    out
}

/// Reads every workspace `.rs` file as `(repo-relative path, source)`.
fn load_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Lexes and parses `(path, source)` pairs, runs the token rules and the
/// rules that read the parse, and returns the files (with their pragma
/// usage recorded) and their call graph for the workspace checks.
fn lint_parsed(
    sources: &[(String, String)],
    findings: &mut Vec<Finding>,
) -> (Vec<WsFile>, CallGraph) {
    let mut files = Vec::new();
    for (rel, source) in sources {
        let lexed = lexer::lex(source);
        let parsed = parser::parse_file(&lexed);
        let view = FileView::new(rel, &lexed);
        rules::env_registry(&view, findings);
        rules::float_format(&view, findings);
        let test_lines = view.test_lines();
        let surface = surface::scan(&view, &lexed);
        let pragmas = view.into_pragmas();
        files.push(WsFile {
            path: rel.clone(),
            parsed,
            pragmas,
            test_lines,
            surface,
        });
    }
    let graph = CallGraph::build(files.iter().map(|f| (f.path.as_str(), &f.parsed)));
    interproc::panic_reachability(&graph, &files, findings);
    interproc::determinism_taint(&graph, &files, findings);
    interproc::raw_clock(&files, findings);
    (files, graph)
}

/// Full pipeline over in-memory sources: every [`lint_file`] rule, then
/// the call-graph floor, `dead-surface`, and stale-pragma detection.
/// `live_floor` is the non-vacuity gate's ([`callgraph::MIN_LIVE_EDGES`]
/// for the real workspace, `0` for fixture-sized inputs), and `pins` is
/// `dead-surface`'s benchmark-only table (the real one for the workspace,
/// a fixture's own otherwise). Findings come back sorted by (file, line,
/// rule).
pub fn lint_sources(
    sources: &[(String, String)],
    live_floor: usize,
    pins: &[(&str, &str)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (files, graph) = lint_parsed(sources, &mut findings);
    interproc::non_vacuity(&graph, live_floor, &mut findings);
    surface::dead_surface(&files, pins, &mut findings);
    interproc::stale_pragmas(&files, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Builds the workspace call graph (the `--call-graph` dump and the
/// tier-1 edge-floor assertion consume this).
pub fn build_workspace_graph(root: &Path) -> std::io::Result<CallGraph> {
    let sources = load_sources(root)?;
    let parsed: Vec<(String, parser::ParsedFile)> = sources
        .iter()
        .map(|(rel, src)| (rel.clone(), parser::parse_file(&lexer::lex(src))))
        .collect();
    Ok(CallGraph::build(
        parsed.iter().map(|(p, f)| (p.as_str(), f)),
    ))
}

/// Lints the whole workspace rooted at `root`: every `.rs` file through
/// the token and interprocedural rules, plus the README/SERVICE.md
/// cross-checks. Findings are sorted by (file, line, rule).
pub fn run_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources = load_sources(root)?;
    let mut findings = lint_sources(&sources, callgraph::MIN_LIVE_EDGES, surface::BENCHMARK_PINS);
    let paths: Vec<&str> = sources.iter().map(|(rel, _)| rel.as_str()).collect();
    rules::zone_map(&rules::zone_tables(), &paths, &mut findings);
    match std::fs::read_to_string(root.join("README.md")) {
        Ok(readme) => findings.extend(check_env_docs(&readme)),
        Err(e) => findings.push(Finding {
            file: "README.md".to_string(),
            line: 1,
            rule: "env-registry",
            message: format!("README.md unreadable: {e}"),
        }),
    }
    let wire = std::fs::read_to_string(root.join("crates/core/src/wire.rs"));
    let service = std::fs::read_to_string(root.join("SERVICE.md"));
    match (wire, service) {
        (Ok(w), Ok(s)) => findings.extend(check_wire_docs(&w, &s)),
        (w, s) => {
            for (name, r) in [("crates/core/src/wire.rs", w), ("SERVICE.md", s)] {
                if let Err(e) = r {
                    findings.push(Finding {
                        file: name.to_string(),
                        line: 1,
                        rule: "wire-doc-sync",
                        message: format!("{name} unreadable: {e}"),
                    });
                }
            }
        }
    }
    findings.sort();
    Ok(findings)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the stable JSON schema CI and the snapshot test
/// consume: `{"version":1,"findings":[{"rule":…,"file":…,"line":…,"message":…}]}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Renders findings as human-readable lines (`file:line: [rule] message`).
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("drqos-lint: no findings\n");
    } else {
        out.push_str(&format!("drqos-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Renders a ready-to-paste pragma per finding (`--fix-allowlist`): one
/// `file:line` header plus the `// lint:allow(rule): TODO` comment to put
/// on that line. Intentional violations should edit the TODO into a real
/// justification; everything else should be fixed instead.
pub fn render_fix_allowlist(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}\n    // lint:allow({}): TODO justify\n",
            f.file, f.line, f.rule
        ));
    }
    if findings.is_empty() {
        out.push_str("nothing to allow: no findings\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_is_stable() {
        let findings = vec![Finding {
            file: "a/b.rs".to_string(),
            line: 3,
            rule: "panic-reachability",
            message: "said \"no\"".to_string(),
        }];
        assert_eq!(
            render_json(&findings),
            "{\"version\":1,\"findings\":[{\"rule\":\"panic-reachability\",\
             \"file\":\"a/b.rs\",\"line\":3,\"message\":\"said \\\"no\\\"\"}]}"
        );
        assert_eq!(render_json(&[]), "{\"version\":1,\"findings\":[]}");
    }

    #[test]
    fn env_docs_check_requires_markers_and_exact_table() {
        let good = format!(
            "# README\n<!-- env-table:begin (generated) -->\n{}<!-- env-table:end -->\n",
            drqos_core::env::readme_table()
        );
        assert!(
            check_env_docs(&good).is_empty(),
            "{:?}",
            check_env_docs(&good)
        );

        let drifted = good.replace("| `DRQOS_THREADS` |", "| `DRQOS_THREADS` (edited) |");
        assert!(check_env_docs(&drifted)
            .iter()
            .any(|f| f.message.contains("drifted")));

        let missing_var = "<!-- env-table:begin --><!-- env-table:end -->";
        let findings = check_env_docs(missing_var);
        assert!(findings.iter().any(|f| f.message.contains("DRQOS_THREADS")));
    }

    #[test]
    fn wire_docs_check_matches_rows() {
        let wire = r#"pub const WIRE_CODES: &[(u16, &str)] = &[
            (100, "qos: zero minimum"),
            (300, "network: unknown connection"),
        ];"#;
        let good = "| code | meaning |\n|---|---|\n| 100 | qos: zero minimum |\n\
                    | 300 | network: unknown connection |\n";
        assert!(check_wire_docs(wire, good).is_empty());
        let missing = "| 100 | qos: zero minimum |\n";
        let f = check_wire_docs(wire, missing);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("300"));
    }
}
