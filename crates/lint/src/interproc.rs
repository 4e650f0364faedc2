//! The rules that read the parse ([`crate::parser`]), the first two
//! built on [`crate::callgraph`]:
//!
//! * `panic_reachability` — from the daemon-zone entry points
//!   (`crate::rules::NO_PANIC_FILES`), walk the call graph and report
//!   every panic site (`unwrap`/`expect`/`panic!`-family/indexing) it
//!   reaches, printing the full call chain. The zone's own sites are the
//!   chains of length one. A site its pragma allows is allowed on every
//!   path.
//! * `determinism_taint` — taint sources (`Instant::now`, `SystemTime`,
//!   `available_parallelism`, unseeded `HashMap`/`HashSet` state) reached
//!   from the byte-pinned emitter files (`crate::rules::DETERMINISTIC_FILES`
//!   ∪ `crate::rules::FLOAT_FILES`) are reported with the flow chain, and
//!   every `HashMap`/`HashSet` a `DETERMINISTIC_FILES` file names, used or
//!   not, is reported where it is named.
//! * `raw_clock` — per file, no call site reading the wall clock
//!   (`Instant::now`, `SystemTime`) or waiting on it (`thread::sleep`)
//!   in the sim zone (`crate::rules::CLOCK_DENY_PREFIXES`) outside the
//!   exempt measurement modules (`crate::rules::CLOCK_EXEMPT_FILES`).
//!
//! Plus `non_vacuity`: both graph rules are reachability rules over a
//! best-effort graph, so an empty graph would make them vacuously green.
//! The floor on the edges they walk turns that failure mode into a
//! finding.

use crate::callgraph::{CallGraph, FnId};
use crate::parser::{Callee, PanicKind, ParsedFile};
use crate::rules::{
    FilePragmas, Finding, CLOCK_DENY_PREFIXES, CLOCK_EXEMPT_FILES, DETERMINISTIC_FILES,
    FLOAT_FILES, NO_PANIC_FILES,
};
use std::collections::{BTreeMap, BTreeSet};

/// One workspace file with everything the interprocedural pass needs.
pub struct WsFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Item-level parse.
    pub parsed: ParsedFile,
    /// Pragma table, shared with the token rules' usage tracking.
    pub pragmas: FilePragmas,
    /// Lines covered by `#[cfg(test)]` items (stale-pragma exclusion).
    pub test_lines: BTreeSet<u32>,
    /// What the file contributes to `dead-surface`.
    pub surface: crate::surface::Surface,
}

/// Path prefixes where *reachable* slice indexing outside the daemon zone
/// is not reported: dense arena indexing over construction-validated ids
/// is the idiom across the model crates (the same judgment as
/// `network.rs`/`shard.rs`'s per-file `false` in [`NO_PANIC_FILES`],
/// which decides for the zone's own files). `unwrap`/`expect`/`panic!`
/// are still reported everywhere.
pub(crate) const INDEX_EXEMPT_PREFIXES: &[&str] = &[
    "crates/topology/src",
    "crates/markov/src",
    "crates/sim/src",
    "crates/core/src",
    "crates/cluster/src",
    "crates/analysis/src",
];

/// Pushes a finding at `(path, line)` unless a pragma there allows
/// `rule`. A site's pragma covers every chain that ends there.
fn report(
    files: &[WsFile],
    out: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    let file = files.iter().find(|f| f.path == path);
    if !file.is_some_and(|f| f.pragmas.allowed(rule, line)) {
        out.push(Finding {
            file: path.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// Reachability from every non-test fn in `paths`.
fn reach<'a>(
    graph: &CallGraph,
    paths: impl Iterator<Item = &'a str>,
) -> BTreeMap<FnId, Option<FnId>> {
    let entries: Vec<FnId> = paths.flat_map(|p| graph.fns_in_file(p)).collect();
    graph.bfs_parents(&entries)
}

/// Rule 5, `panic-reachability`.
pub(crate) fn panic_reachability(graph: &CallGraph, files: &[WsFile], out: &mut Vec<Finding>) {
    const RULE: &str = "panic-reachability";
    let parents = reach(graph, NO_PANIC_FILES.iter().map(|(p, _)| *p));
    let mut seen: BTreeSet<(String, u32, PanicKind)> = BTreeSet::new();
    for &id in parents.keys() {
        let node = &graph.fns[id];
        let index_exempt = match NO_PANIC_FILES.iter().find(|(p, _)| *p == node.file) {
            Some(&(_, check_index)) => !check_index,
            None => INDEX_EXEMPT_PREFIXES
                .iter()
                .any(|p| node.file.starts_with(p)),
        };
        for site in &node.def.panics {
            if (site.kind == PanicKind::Index && index_exempt)
                || !seen.insert((node.file.clone(), site.line, site.kind))
            {
                continue;
            }
            let message = format!(
                "{} reachable from the daemon zone; call chain: {}",
                site.kind.describe(),
                graph.chain_to(&parents, id).join(" -> ")
            );
            report(files, out, RULE, &node.file, site.line, message);
        }
    }
}

/// The taint an unseeded `HashMap` / `HashSet` carries.
fn hash_state(ty: &str) -> Option<&'static str> {
    match ty {
        "HashMap" => Some("unseeded HashMap state"),
        "HashSet" => Some("unseeded HashSet state"),
        _ => None,
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
                (Some(ty), Some("new" | "with_capacity" | "from")) => hash_state(ty),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Rule 6, `determinism-taint`.
pub(crate) fn determinism_taint(graph: &CallGraph, files: &[WsFile], out: &mut Vec<Finding>) {
    const RULE: &str = "determinism-taint";
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    // A pinned file's hash state is reported where it is named, each name
    // once: a `use` line or a field's type too, not only a constructor.
    for f in files
        .iter()
        .filter(|f| DETERMINISTIC_FILES.contains(&f.path.as_str()))
    {
        for &(line, name) in &f.parsed.hash_names {
            let src = hash_state(name).unwrap_or(name);
            if seen.insert((f.path.clone(), line, src)) {
                let message = format!(
                    "{src} in a byte-pinned file: its iteration order is randomized per \
                     process; use BTreeMap/BTreeSet"
                );
                report(files, out, RULE, &f.path, line, message);
            }
        }
    }

    let parents = reach(
        graph,
        DETERMINISTIC_FILES.iter().chain(FLOAT_FILES).copied(),
    );
    for &id in parents.keys() {
        let node = &graph.fns[id];
        for call in &node.def.calls {
            let Some(src) = taint_source(&call.callee) else {
                continue;
            };
            if seen.insert((node.file.clone(), call.line, src)) {
                let message = format!(
                    "{src} taints byte-pinned emitter output; flow: {}",
                    graph.chain_to(&parents, id).join(" -> ")
                );
                report(files, out, RULE, &node.file, call.line, message);
            }
        }
    }
}

/// Rule 2, `raw-clock`.
pub(crate) fn raw_clock(files: &[WsFile], out: &mut Vec<Finding>) {
    for f in files {
        let denied = CLOCK_DENY_PREFIXES.iter().any(|p| f.path.starts_with(p))
            && !CLOCK_EXEMPT_FILES.contains(&f.path.as_str());
        if !denied {
            continue;
        }
        let live = f.parsed.fns.iter().filter(|d| !d.is_test);
        for call in live.flat_map(|d| &d.calls) {
            let sleeps = matches!(&call.callee, Callee::Path(segs)
                if segs.len() >= 2 && segs[segs.len() - 2..] == ["thread", "sleep"]);
            let message = match taint_source(&call.callee) {
                Some(src @ ("Instant::now" | "SystemTime")) => format!(
                    "{src} in deterministic code; time through measure.rs or the service \
                     metrics layer (metrics::OpTimer)"
                ),
                _ if sleeps => "thread::sleep waits on the clock; block on the event itself \
                                (a socket, a Condvar, a join)"
                    .to_string(),
                _ => continue,
            };
            report(files, out, "raw-clock", &f.path, call.line, message);
        }
    }
}

/// Rule 8, `call-graph`: the non-vacuity gate. The reachability rules
/// are only as strong as the resolver feeding them; a count of edges out
/// of live functions — the ones the rules walk — below `floor` is itself
/// a finding, so a parser/resolver regression cannot silently turn the
/// rules green. Edges out of tests do not count.
pub(crate) fn non_vacuity(graph: &CallGraph, floor: usize, out: &mut Vec<Finding>) {
    let count = graph.live_edges();
    if count < floor {
        out.push(Finding {
            file: "crates/lint/src/callgraph.rs".to_string(),
            line: 1,
            rule: "call-graph",
            message: format!(
                "call graph resolved only {count} edges out of live functions (floor {floor}): \
                 the resolver has regressed and the interprocedural rules can no longer be \
                 trusted"
            ),
        });
    }
}

/// Rule 7, `stale-pragma`: a `lint:allow` declaration that suppressed
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
    fn non_vacuity_fires_on_test_edges_without_enough_live_ones() {
        let tests = "#[cfg(test)]\nmod tests { fn a() { b(); c(); } fn b() { c(); } fn c() {} }";
        let (_, graph) = ws(&[(
            "crates/core/src/a.rs",
            &format!("pub fn b() {{}}\npub fn c() {{ b(); }}\n{tests}"),
        )]);
        assert_eq!((graph.resolved_edges(), graph.live_edges()), (4, 1));
        let mut out = Vec::new();
        non_vacuity(&graph, 1, &mut out);
        assert!(out.is_empty(), "{out:?}");
        non_vacuity(&graph, 2, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0]
            .message
            .contains("only 1 edges out of live functions (floor 2)"));
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
