//! The workspace call graph: a symbol table over every parsed function
//! plus best-effort edge resolution.
//!
//! Resolution is deliberately *under*-approximate — an edge exists only
//! when the target is unambiguous — because the interprocedural rules
//! report reachability findings, and a spurious edge would manufacture a
//! false violation. Three resolution strategies, in order:
//!
//! 1. **Same-impl methods**: `self.method(..)` resolves inside the
//!    enclosing `impl` type (same crate).
//! 2. **Paths**: `foo(..)` and `module::foo(..)` resolve within the
//!    calling crate; `drqos_xxx::path::foo(..)` resolves into the named
//!    crate; `Type::assoc(..)` resolves by `(Type, name)` in the calling
//!    crate first, then workspace-wide when unique.
//! 3. **Unique methods**: `recv.method(..)` resolves when exactly one
//!    workspace function has that name and the name is not on the
//!    std-collision denylist (`push`, `get`, `len`, ... would otherwise
//!    pin std calls onto unrelated workspace functions).
//!
//! Unresolved calls produce no edge (std, closures, trait objects). The
//! price of this tolerance is that a resolver regression could silently
//! empty the graph and turn every reachability rule vacuously green —
//! which is why [`CallGraph::resolved_edges`] is gated by
//! [`MIN_RESOLVED_EDGES`] in `crate::interproc::non_vacuity`.

use crate::parser::{Callee, FnDef, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Resolved-edge floor for the non-vacuity gate. The workspace resolves
/// ~3.3k edges today; a drop below this floor means the resolver (or the
/// parser feeding it) has regressed badly enough that the reachability
/// rules can no longer be trusted, and is itself a finding.
pub const MIN_RESOLVED_EDGES: usize = 2000;

/// Method names that collide with ubiquitous std APIs: never resolved by
/// bare-name uniqueness (strategy 3). A workspace method with one of
/// these names is still reachable via `self.`/`Type::` resolution.
const STD_METHOD_DENYLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "try_from",
    "try_into",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "contains",
    "contains_key",
    "extend",
    "sort",
    "sort_unstable",
    "dedup",
    "min",
    "max",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "filter",
    "fold",
    "find",
    "position",
    "take",
    "drain",
    "clear",
    "write",
    "write_all",
    "read",
    "read_line",
    "flush",
    "lock",
    "join",
    "send",
    "recv",
    "parse",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "index",
    "first",
    "last",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "chars",
    "bytes",
    "lines",
    "abs",
    "floor",
    "ceil",
    "clamp",
    "rem_euclid",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "expect",
    "unwrap",
    "count",
    "sum",
    "product",
    "zip",
    "rev",
    "copied",
    "cloned",
    "any",
    "all",
    "chain",
    "flatten",
    "flat_map",
    "retain",
    "resize",
    "swap",
    "replace",
    "get_or_init",
];

/// A function's identity in the graph.
pub type FnId = usize;

/// One function node: where it lives plus its parsed definition.
#[derive(Debug)]
pub struct FnNode {
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// Crate name (`drqos_core`), derived from the path.
    pub krate: String,
    /// The parsed definition.
    pub def: FnDef,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All parsed functions, indexed by [`FnId`].
    pub fns: Vec<FnNode>,
    /// Resolved edges, caller → callees (sorted, deduped).
    pub edges: Vec<Vec<FnId>>,
    resolved_edge_count: usize,
}

/// Maps a repo-relative path under `crates/` to its crate name
/// (`crates/core/src/network.rs` → `drqos_core`). `None` for files
/// outside `crates/` (integration tests, examples) — those are parsed
/// but never resolution targets.
pub(crate) fn crate_of_path(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/")?;
    let dir = rest.split('/').next()?;
    Some(format!("drqos_{dir}"))
}

impl CallGraph {
    /// Builds the graph from `(path, parsed)` pairs, resolving every call
    /// site it can.
    pub fn build<'x>(files: impl IntoIterator<Item = (&'x str, &'x ParsedFile)>) -> Self {
        let mut fns = Vec::new();
        for (path, parsed) in files {
            let Some(krate) = crate_of_path(path) else {
                continue;
            };
            for def in &parsed.fns {
                fns.push(FnNode {
                    file: path.to_string(),
                    krate: krate.clone(),
                    def: def.clone(),
                });
            }
        }

        // Symbol tables. Only non-test functions are resolution targets:
        // live code cannot call into `#[cfg(test)]` items. A path call
        // without a type qualifier names no method, so the `free_` tables
        // hold free functions only.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut free_by_crate_name: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_crate_type_name: BTreeMap<(&str, &str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        for (id, node) in fns.iter().enumerate() {
            if node.def.is_test {
                continue;
            }
            let name = node.def.name.as_str();
            by_name.entry(name).or_default().push(id);
            if let Some(ty) = &node.def.self_type {
                by_crate_type_name
                    .entry((node.krate.as_str(), ty.as_str(), name))
                    .or_default()
                    .push(id);
                by_type_name
                    .entry((ty.as_str(), name))
                    .or_default()
                    .push(id);
            } else {
                free_by_name.entry(name).or_default().push(id);
                free_by_crate_name
                    .entry((node.krate.as_str(), name))
                    .or_default()
                    .push(id);
            }
        }
        let unique = |v: Option<&Vec<FnId>>| -> Option<FnId> {
            match v {
                Some(ids) if ids.len() == 1 => Some(ids[0]),
                _ => None,
            }
        };

        let mut edges: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
        let mut resolved_edge_count = 0usize;
        for (id, node) in fns.iter().enumerate() {
            let krate = node.krate.as_str();
            let self_ty = node.def.self_type.as_deref();
            let mut targets: BTreeSet<FnId> = BTreeSet::new();
            for call in &node.def.calls {
                let target: Option<FnId> = match &call.callee {
                    Callee::Method { name, receiver } => {
                        let name = name.as_str();
                        // Strategy 1: `self.method()` in an impl block.
                        let via_self = receiver
                            .as_deref()
                            .filter(|r| *r == "self")
                            .and(self_ty)
                            .and_then(|ty| unique(by_crate_type_name.get(&(krate, ty, name))));
                        via_self.or_else(|| {
                            // Strategy 3: workspace-unique method name.
                            if STD_METHOD_DENYLIST.contains(&name) {
                                return None;
                            }
                            unique(by_name.get(&name))
                        })
                    }
                    Callee::Path(segs) => resolve_path(
                        segs,
                        krate,
                        &unique,
                        &free_by_name,
                        &free_by_crate_name,
                        &by_crate_type_name,
                        &by_type_name,
                    ),
                    // Macros other than the panic family carry no edge of
                    // their own (their argument calls are separate sites).
                    Callee::Macro(_) => None,
                };
                if let Some(t) = target {
                    // Self-loops carry no reachability information.
                    if t != id {
                        targets.insert(t);
                    }
                }
            }
            resolved_edge_count += targets.len();
            edges[id] = targets.into_iter().collect();
        }

        Self {
            fns,
            edges,
            resolved_edge_count,
        }
    }

    /// Total resolved (deduped) edges — the non-vacuity metric.
    pub fn resolved_edges(&self) -> usize {
        self.resolved_edge_count
    }

    /// Ids of non-test functions defined in `file`.
    pub(crate) fn fns_in_file<'a>(&'a self, file: &'a str) -> impl Iterator<Item = FnId> + 'a {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.file == file && !n.def.is_test)
            .map(|(id, _)| id)
    }

    /// `file:line`-style label for diagnostics: `Type::name (file:line)`.
    pub fn label(&self, id: FnId) -> String {
        let n = &self.fns[id];
        format!("{} ({}:{})", n.def.qualified_name(), n.file, n.def.line)
    }

    /// Multi-source BFS from `entries`; returns, for each reached
    /// function, the id it was first reached from (parent map), visiting
    /// in deterministic (sorted-frontier) order so reported chains are
    /// stable across runs.
    pub(crate) fn bfs_parents(&self, entries: &[FnId]) -> BTreeMap<FnId, Option<FnId>> {
        let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut frontier: Vec<FnId> = {
            let set: BTreeSet<FnId> = entries.iter().copied().collect();
            for &e in &set {
                parent.insert(e, None);
            }
            set.into_iter().collect()
        };
        while !frontier.is_empty() {
            let mut next = BTreeSet::new();
            for &f in &frontier {
                for &t in &self.edges[f] {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(Some(f));
                        next.insert(t);
                    }
                }
            }
            frontier = next.into_iter().collect();
        }
        parent
    }

    /// Reconstructs the entry→`target` chain from a [`CallGraph::bfs_parents`]
    /// map, as function labels.
    pub(crate) fn chain_to(
        &self,
        parents: &BTreeMap<FnId, Option<FnId>>,
        target: FnId,
    ) -> Vec<String> {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(Some(p)) = parents.get(&cur) {
            cur = *p;
            rev.push(cur);
        }
        rev.iter().rev().map(|&id| self.label(id)).collect()
    }

    /// Renders the `--call-graph` dump: a deterministic listing of every
    /// resolved edge plus summary counts (consumed by CI's floor check).
    pub fn render_dump(&self) -> String {
        let mut out = String::new();
        let mut lines: Vec<String> = Vec::new();
        for id in 0..self.fns.len() {
            for &t in &self.edges[id] {
                lines.push(format!("{} -> {}\n", self.label(id), self.label(t)));
            }
        }
        lines.sort();
        for l in &lines {
            out.push_str(l);
        }
        out.push_str(&format!(
            "call-graph: {} functions, {} resolved edges (floor {})\n",
            self.fns.len(),
            self.resolved_edges(),
            MIN_RESOLVED_EDGES
        ));
        out
    }
}

/// Path-call resolution (strategy 2). `segs` is the written path.
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    segs: &[String],
    krate: &str,
    unique: &dyn Fn(Option<&Vec<FnId>>) -> Option<FnId>,
    free_by_name: &BTreeMap<&str, Vec<FnId>>,
    free_by_crate_name: &BTreeMap<(&str, &str), Vec<FnId>>,
    by_crate_type_name: &BTreeMap<(&str, &str, &str), Vec<FnId>>,
    by_type_name: &BTreeMap<(&str, &str), Vec<FnId>>,
) -> Option<FnId> {
    let name = segs.last()?.as_str();
    let qualifier = (segs.len() >= 2).then(|| segs[segs.len() - 2].as_str());
    // Tuple-struct constructors and enum variants (`NodeId(..)`,
    // `ScenarioKind::FlashCrowd` has no parens so never gets here as a
    // call; `Some(..)`/`Ok(..)` resolve to nothing) fall out naturally:
    // there is no function of that name, so no edge.
    let target_crate = match segs.first().map(String::as_str) {
        Some(first) if first.starts_with("drqos_") => first.to_string(),
        Some("crate") | Some("self") | Some("super") => krate.to_string(),
        _ => krate.to_string(),
    };
    let cross_crate = segs
        .first()
        .is_some_and(|f| f.starts_with("drqos_") && f != krate);

    // `Type::assoc(..)`: qualifier capitalized → associated-function
    // lookup, crate-local first, then workspace-unique.
    if let Some(q) = qualifier {
        if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return unique(by_crate_type_name.get(&(target_crate.as_str(), q, name)))
                .or_else(|| unique(by_type_name.get(&(q, name))));
        }
    }
    // Free function, never a method (a path without a type names none):
    // in the target crate (module segments are not tracked, so
    // `module::foo` uses crate-level uniqueness)...
    if let Some(id) = unique(free_by_crate_name.get(&(target_crate.as_str(), name))) {
        return Some(id);
    }
    // ...or workspace-unique as a fallback for bare single-segment calls
    // (helpers re-exported across crates), but never for explicit
    // cross-crate paths that failed crate-local lookup — those are more
    // likely resolver blind spots than true matches.
    if !cross_crate && segs.len() == 1 {
        return unique(free_by_name.get(&name));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s))))
            .collect();
        CallGraph::build(parsed.iter().map(|(p, f)| (p.as_str(), f)))
    }

    fn edge_labels(g: &CallGraph) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (id, node) in g.fns.iter().enumerate() {
            for &t in &g.edges[id] {
                out.push((node.def.qualified_name(), g.fns[t].def.qualified_name()));
            }
        }
        out
    }

    #[test]
    fn same_crate_free_functions_resolve() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn caller() { helper(); } fn helper() {}",
        )]);
        assert_eq!(
            edge_labels(&g),
            vec![("caller".to_string(), "helper".to_string())]
        );
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl_type() {
        let g = graph(&[(
            "crates/service/src/engine.rs",
            r#"
            impl Engine { fn handle(&mut self) { self.dispatch(); } fn dispatch(&mut self) {} }
            impl Other { fn dispatch(&mut self) {} }
            "#,
        )]);
        assert_eq!(
            edge_labels(&g),
            vec![("Engine::handle".to_string(), "Engine::dispatch".to_string())]
        );
    }

    #[test]
    fn cross_crate_paths_resolve_by_crate_name() {
        let g = graph(&[
            (
                "crates/service/src/engine.rs",
                "fn serve() { drqos_core::experiment::warm_up(); }",
            ),
            ("crates/core/src/experiment.rs", "pub fn warm_up() {}"),
        ]);
        assert_eq!(
            edge_labels(&g),
            vec![("serve".to_string(), "warm_up".to_string())]
        );
    }

    #[test]
    fn type_assoc_calls_resolve_across_crates_when_unique() {
        let g = graph(&[
            (
                "crates/core/src/scenario.rs",
                "fn run() { Pareto::from_mean(1.0, 2.0); }",
            ),
            (
                "crates/sim/src/dist.rs",
                "impl Pareto { pub fn from_mean(m: f64, s: f64) -> Self { todo_impl() } } fn todo_impl() {}",
            ),
        ]);
        assert!(edge_labels(&g).contains(&("run".to_string(), "Pareto::from_mean".to_string())));
    }

    #[test]
    fn ambiguous_and_denylisted_names_resolve_to_nothing() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            r#"
            fn caller(v: Thing) { v.render(); v.push(1); }
            impl A { fn render(&self) {} }
            impl B { fn render(&self) {} }
            impl C { fn push(&self, x: u64) {} }
            "#,
        )]);
        // `render` is ambiguous (A and B); `push` is denylisted even
        // though the workspace defines exactly one.
        assert!(edge_labels(&g).is_empty());
    }

    #[test]
    fn unique_method_names_resolve_by_receiver_heuristic() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn caller(net: &Network) { net.establish_wave(&reqs); }\n\
             impl ShardedNetwork { pub fn establish_wave(&mut self) {} }",
        )]);
        assert_eq!(
            edge_labels(&g),
            vec![(
                "caller".to_string(),
                "ShardedNetwork::establish_wave".to_string()
            )]
        );
    }

    #[test]
    fn test_functions_are_never_resolution_targets() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn live() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )]);
        assert!(edge_labels(&g).is_empty());
    }

    #[test]
    fn bfs_parents_and_chain_reconstruction() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn entry() { mid(); } fn mid() { leaf(); } fn leaf() {} fn island() {}",
        )]);
        let entry = g.fns_in_file("crates/core/src/a.rs").next().unwrap();
        let parents = g.bfs_parents(&[entry]);
        assert_eq!(parents.len(), 3, "island must be unreached");
        let leaf = g.fns.iter().position(|n| n.def.name == "leaf").unwrap();
        let chain = g.chain_to(&parents, leaf);
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("entry"));
        assert!(chain[2].starts_with("leaf"));
    }

    #[test]
    fn dump_reports_counts() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn caller() { helper(); } fn helper() {}",
        )]);
        let dump = g.render_dump();
        assert!(dump.contains("caller (crates/core/src/a.rs:1) -> helper (crates/core/src/a.rs:1)"));
        assert!(dump.contains("2 functions, 1 resolved edges"));
    }
}
