//! The two interprocedural rules, built on [`crate::callgraph`]:
//!
//! * `panic_reachability` — from the daemon-zone entry points
//!   (`crate::rules::NO_PANIC_FILES`), walk the call graph and report
//!   any path reaching a panic site (`unwrap`/`expect`/`panic!`-family/
//!   indexing) *outside* the zone, printing the full call chain. Sites
//!   inside zone files stay `no-panic-daemon`'s job (same line, same
//!   contract) — and a site its pragma allows is allowed on every path,
//!   which is how the old file-scoped allowlist becomes path-level.
//! * `determinism_taint` — taint sources (`Instant::now`, `SystemTime`,
//!   `available_parallelism`, unseeded `HashMap`/`HashSet` state) reached
//!   from the byte-pinned emitter files (`crate::rules::DETERMINISTIC_FILES`
//!   ∪ `crate::rules::FLOAT_FILES`) are reported with the flow chain —
//!   the function-level refinement of the file-scoped `raw-clock` rule.
//!
//! Plus `non_vacuity`: both rules are reachability rules over a
//! best-effort graph, so an empty graph would make them vacuously green.
//! The resolved-edge floor turns that failure mode into a finding.

use crate::callgraph::{CallGraph, FnId};
use crate::parser::{Callee, PanicKind, ParsedFile};
use crate::rules::{FilePragmas, Finding, DETERMINISTIC_FILES, FLOAT_FILES, NO_PANIC_FILES};
use std::collections::BTreeSet;

/// One workspace file with everything the interprocedural pass needs.
pub struct WsFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Item-level parse.
    pub parsed: ParsedFile,
    /// Pragma table, shared with the intra-file rules' usage tracking.
    pub pragmas: FilePragmas,
    /// Lines covered by `#[cfg(test)]` items (stale-pragma exclusion).
    pub test_lines: BTreeSet<u32>,
    /// What the file contributes to `dead-surface`.
    pub surface: crate::surface::Surface,
}

/// Path prefixes where *reachable* slice indexing is not reported: dense
/// arena indexing over construction-validated ids is the idiom across
/// the model crates (the same judgment as `network.rs`/`shard.rs`'s
/// per-file `false` in [`NO_PANIC_FILES`]). `unwrap`/`expect`/`panic!`
/// are still reported everywhere.
pub(crate) const INDEX_EXEMPT_PREFIXES: &[&str] = &[
    "crates/topology/src",
    "crates/markov/src",
    "crates/sim/src",
    "crates/core/src",
    "crates/cluster/src",
    "crates/analysis/src",
];

fn pragma_of<'a>(files: &'a [WsFile], path: &str) -> Option<&'a FilePragmas> {
    files.iter().find(|f| f.path == path).map(|f| &f.pragmas)
}

/// Is the panic site at `(path, line)` suppressed for reachability? A
/// `no-panic-daemon` allow also counts: it asserts the site cannot fire,
/// which covers every chain that ends there.
fn site_allowed(files: &[WsFile], path: &str, line: u32) -> bool {
    let Some(p) = pragma_of(files, path) else {
        return false;
    };
    p.allowed("panic-reachability", line) || p.allowed("no-panic-daemon", line)
}

/// Rule 7, `panic-reachability`.
pub(crate) fn panic_reachability(graph: &CallGraph, files: &[WsFile], out: &mut Vec<Finding>) {
    const RULE: &str = "panic-reachability";
    let zone: BTreeSet<&str> = NO_PANIC_FILES.iter().map(|(p, _)| *p).collect();
    let mut entries: Vec<FnId> = Vec::new();
    for &(path, _) in NO_PANIC_FILES {
        entries.extend(graph.fns_in_file(path));
    }
    let parents = graph.bfs_parents(&entries);

    let mut seen: BTreeSet<(String, u32, PanicKind)> = BTreeSet::new();
    for &id in parents.keys() {
        let node = &graph.fns[id];
        if zone.contains(node.file.as_str()) {
            continue; // no-panic-daemon's jurisdiction
        }
        for site in &node.def.panics {
            if site.kind == PanicKind::Index
                && INDEX_EXEMPT_PREFIXES
                    .iter()
                    .any(|p| node.file.starts_with(p))
            {
                continue;
            }
            if !seen.insert((node.file.clone(), site.line, site.kind)) {
                continue;
            }
            if site_allowed(files, &node.file, site.line) {
                continue;
            }
            let chain = graph.chain_to(&parents, id);
            out.push(Finding {
                file: node.file.clone(),
                line: site.line,
                rule: RULE,
                message: format!(
                    "{} reachable from the daemon zone; call chain: {}",
                    site.kind.describe(),
                    chain.join(" -> ")
                ),
            });
        }
    }
}

/// A taint source a call site can be.
fn taint_source(callee: &Callee) -> Option<&'static str> {
    match callee {
        Callee::Path(segs) => {
            let last = segs.last().map(String::as_str);
            let prev = (segs.len() >= 2).then(|| segs[segs.len() - 2].as_str());
            match (prev, last) {
                (Some("Instant"), Some("now")) => Some("Instant::now"),
                (Some("SystemTime"), _) => Some("SystemTime"),
                (_, Some("available_parallelism")) => Some("std::thread::available_parallelism"),
                (Some("HashMap"), Some("new" | "with_capacity" | "from")) => {
                    Some("unseeded HashMap state")
                }
                (Some("HashSet"), Some("new" | "with_capacity" | "from")) => {
                    Some("unseeded HashSet state")
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Rule 8, `determinism-taint`.
pub(crate) fn determinism_taint(graph: &CallGraph, files: &[WsFile], out: &mut Vec<Finding>) {
    const RULE: &str = "determinism-taint";
    let emitters: BTreeSet<&str> = DETERMINISTIC_FILES
        .iter()
        .chain(FLOAT_FILES.iter())
        .copied()
        .collect();
    let mut entries: Vec<FnId> = Vec::new();
    for &path in &emitters {
        entries.extend(graph.fns_in_file(path));
    }
    let parents = graph.bfs_parents(&entries);

    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for &id in parents.keys() {
        let node = &graph.fns[id];
        for call in &node.def.calls {
            let Some(src) = taint_source(&call.callee) else {
                continue;
            };
            if !seen.insert((node.file.clone(), call.line, src)) {
                continue;
            }
            let allowed = pragma_of(files, &node.file).is_some_and(|p| p.allowed(RULE, call.line));
            if allowed {
                continue;
            }
            let chain = graph.chain_to(&parents, id);
            out.push(Finding {
                file: node.file.clone(),
                line: call.line,
                rule: RULE,
                message: format!(
                    "{src} taints byte-pinned emitter output; flow: {}",
                    chain.join(" -> ")
                ),
            });
        }
    }
}

/// Rule 10, `call-graph`: the non-vacuity gate. The reachability rules
/// are only as strong as the resolver feeding them; a resolved-edge
/// count below the floor is itself a finding so a parser/resolver
/// regression cannot silently turn the rules green.
pub(crate) fn non_vacuity(graph: &CallGraph, floor: usize, out: &mut Vec<Finding>) {
    if graph.resolved_edges() < floor {
        out.push(Finding {
            file: "crates/lint/src/callgraph.rs".to_string(),
            line: 1,
            rule: "call-graph",
            message: format!(
                "call graph resolved only {} edges (floor {}): the resolver has regressed and \
                 the interprocedural rules can no longer be trusted",
                graph.resolved_edges(),
                floor
            ),
        });
    }
}

/// Rule 9, `stale-pragma`: a `lint:allow` declaration that suppressed
/// nothing this run is dead weight — either the violation it covered is
/// gone (delete it) or it never matched (it is masking nothing and would
/// silently swallow a future, different finding).
pub(crate) fn stale_pragmas(files: &[WsFile], out: &mut Vec<Finding>) {
    const RULE: &str = "stale-pragma";
    for f in files {
        for (line, rule) in f.pragmas.stale(&f.test_lines) {
            let known = crate::rules::RULES.contains(&rule.as_str());
            let why = if known {
                "suppresses nothing"
            } else {
                "names an unknown rule"
            };
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: RULE,
                message: format!("lint:allow({rule}) {why}; remove the dead pragma"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::MIN_RESOLVED_EDGES;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn ws(files: &[(&str, &str)]) -> (Vec<WsFile>, CallGraph) {
        let ws: Vec<WsFile> = files
            .iter()
            .map(|(p, s)| {
                let lexed = lex(s);
                let parsed = parse_file(&lexed);
                let pragmas = FilePragmas::collect(&lexed);
                WsFile {
                    path: p.to_string(),
                    parsed,
                    pragmas,
                    test_lines: BTreeSet::new(),
                    surface: Default::default(),
                }
            })
            .collect();
        let graph = CallGraph::build(ws.iter().map(|f| (f.path.as_str(), &f.parsed)));
        (ws, graph)
    }

    #[test]
    fn reachable_panic_across_crates_is_reported_with_chain() {
        let (files, graph) = ws(&[
            (
                "crates/service/src/engine.rs",
                "fn handle() { drqos_topology::paths::k_shortest(); }",
            ),
            (
                "crates/topology/src/paths.rs",
                "pub fn k_shortest() { helper(); }\nfn helper() { x.unwrap(); }",
            ),
        ]);
        let mut out = Vec::new();
        panic_reachability(&graph, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "panic-reachability");
        assert_eq!(out[0].file, "crates/topology/src/paths.rs");
        assert_eq!(out[0].line, 2);
        assert!(
            out[0].message.contains("handle")
                && out[0].message.contains("k_shortest")
                && out[0].message.contains("helper"),
            "chain missing: {}",
            out[0].message
        );
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let (files, graph) = ws(&[
            (
                "crates/service/src/engine.rs",
                "fn handle() { safe(); } fn safe() {}",
            ),
            (
                "crates/topology/src/paths.rs",
                "pub fn island() { x.unwrap(); }",
            ),
        ]);
        let mut out = Vec::new();
        panic_reachability(&graph, &files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn pragma_on_site_suppresses_every_chain() {
        let (files, graph) = ws(&[
            (
                "crates/service/src/engine.rs",
                "fn handle() { drqos_topology::paths::k_shortest(); }",
            ),
            (
                "crates/topology/src/paths.rs",
                "pub fn k_shortest() { x.unwrap(); // lint:allow(panic-reachability): bounded by caller\n}",
            ),
        ]);
        let mut out = Vec::new();
        panic_reachability(&graph, &files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn taint_flows_from_emitter_to_clock_read() {
        let (files, graph) = ws(&[
            (
                "crates/core/src/snapshot.rs",
                "pub fn render() { stamp(); }",
            ),
            (
                "crates/core/src/measure.rs",
                "pub fn stamp() -> u64 { let t = Instant::now(); 0 }",
            ),
        ]);
        let mut out = Vec::new();
        determinism_taint(&graph, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "determinism-taint");
        assert_eq!(out[0].file, "crates/core/src/measure.rs");
        assert!(out[0].message.contains("render") && out[0].message.contains("stamp"));
    }

    #[test]
    fn non_vacuity_fires_on_an_empty_graph() {
        let (_, graph) = ws(&[("crates/core/src/a.rs", "fn lonely() {}")]);
        let mut out = Vec::new();
        non_vacuity(&graph, MIN_RESOLVED_EDGES, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "call-graph");
    }

    #[test]
    fn stale_pragma_is_reported_and_used_pragma_is_not() {
        let (files, graph) = ws(&[
            (
                "crates/service/src/engine.rs",
                "fn handle() { drqos_topology::paths::go(); }",
            ),
            (
                "crates/topology/src/paths.rs",
                "pub fn go() { x.unwrap(); // lint:allow(panic-reachability): fine\n}\n\
                 fn dead() {} // lint:allow(raw-clock): nothing here\n",
            ),
        ]);
        let mut out = Vec::new();
        panic_reachability(&graph, &files, &mut out);
        stale_pragmas(&files, &mut out);
        let stale: Vec<&Finding> = out.iter().filter(|f| f.rule == "stale-pragma").collect();
        assert_eq!(stale.len(), 1, "{out:?}");
        assert!(stale[0].message.contains("raw-clock"));
    }
}
