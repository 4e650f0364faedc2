//! The workspace call graph: a symbol table over every parsed function
//! plus best-effort edge resolution.
//!
//! Resolution is deliberately *under*-approximate — an edge exists only
//! when the target is unambiguous — because the interprocedural rules
//! report reachability findings, and a spurious edge would manufacture a
//! false violation. A target is one function: one definition, or the
//! `cfg` alternatives of one (same file, same `Type::name`), which get an
//! edge each. Three resolution strategies, in order:
//!
//! 1. **Same-impl methods**: `self.method(..)` resolves inside the
//!    enclosing `impl` type (same crate).
//! 2. **Paths**: `foo(..)` and `module::foo(..)` resolve within the
//!    calling crate; `drqos_xxx::path::foo(..)` resolves into the named
//!    crate, and so does a path whose first segment the file imports
//!    from it (`seam::armed(..)` after `use drqos_sim::seam`, or an
//!    imported function called by its bare name); `Type::assoc(..)`
//!    resolves by `(Type, name)` in that crate first, then workspace-wide
//!    when unique.
//! 3. **Unique methods**: `recv.method(..)` resolves when exactly one
//!    workspace function has that name and the name is not on the
//!    std-collision denylist (`push`, `get`, `len`, ... would otherwise
//!    pin std calls onto unrelated workspace functions).
//!
//! Unresolved calls produce no edge (std, closures, trait objects). The
//! price of this tolerance is that a resolver regression could silently
//! empty the graph and turn every reachability rule vacuously green —
//! which is why [`CallGraph::live_edges`] is gated by [`MIN_LIVE_EDGES`]
//! in `crate::interproc::non_vacuity`. The rules walk live code only, so
//! the gate counts only the edges out of live functions: a resolver
//! regression confined to live code cannot hide behind the test edges,
//! which the dump prints apart.
//!
//! Every strategy resolves only to what the caller's crate can see: a
//! function of its own crate, or one exported from another (declared
//! `pub`, or a trait impl's method). A private helper that happens to
//! share a name with a std method called elsewhere is no target.

use crate::parser::{Callee, FnDef, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Floor for the non-vacuity gate on the edges out of live functions,
/// the ones the reachability rules walk. The workspace resolves ~1.4k
/// of them today; a drop below this floor means the resolver (or the
/// parser feeding it) has regressed badly enough that the reachability
/// rules can no longer be trusted, and is itself a finding.
pub const MIN_LIVE_EDGES: usize = 1200;

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
    live_edge_count: usize,
    test_edge_count: usize,
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
        // The caller file's imports, by [`FnId`].
        let mut uses = Vec::new();
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
                uses.push(&parsed.uses);
            }
        }

        let mut edges: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
        let (mut live_edge_count, mut test_edge_count) = (0usize, 0usize);
        let symbols = Symbols::new(&fns);
        for (id, node) in fns.iter().enumerate() {
            let krate = node.krate.as_str();
            let self_ty = node.def.self_type.as_deref();
            let mut targets: BTreeSet<FnId> = BTreeSet::new();
            for call in &node.def.calls {
                let target: Vec<FnId> = match &call.callee {
                    Callee::Method { name, receiver } => {
                        let name = name.as_str();
                        // Strategy 1: `self.method()` in an impl block.
                        let via_self = receiver
                            .as_deref()
                            .filter(|r| *r == "self")
                            .and(self_ty)
                            .and_then(|ty| {
                                symbols.one(symbols.by_crate_type_name.get(&(krate, ty, name)))
                            });
                        via_self
                            .or_else(|| {
                                // Strategy 3: workspace-unique method name.
                                if STD_METHOD_DENYLIST.contains(&name) {
                                    return None;
                                }
                                symbols.one(symbols.by_name.get(&name))
                            })
                            .unwrap_or_default()
                    }
                    Callee::Path(segs) => symbols
                        .resolve_path(segs, krate, uses[id])
                        .unwrap_or_default(),
                    // Macros other than the panic family carry no edge of
                    // their own (their argument calls are separate sites).
                    Callee::Macro(_) => Vec::new(),
                };
                // Self-loops carry no reachability information, and a
                // caller sees only its own crate's items and exported ones.
                let visible = |&t: &FnId| fns[t].krate == krate || fns[t].def.exported;
                targets.extend(target.into_iter().filter(|&t| t != id && visible(&t)));
            }
            match node.def.is_test {
                true => test_edge_count += targets.len(),
                false => live_edge_count += targets.len(),
            }
            edges[id] = targets.into_iter().collect();
        }

        Self {
            fns,
            edges,
            live_edge_count,
            test_edge_count,
        }
    }

    /// Total resolved (deduped) edges, out of live and test functions.
    pub(crate) fn resolved_edges(&self) -> usize {
        self.live_edge_count + self.test_edge_count
    }

    /// The resolved edges out of live functions — the non-vacuity
    /// metric of what the rules walk.
    pub fn live_edges(&self) -> usize {
        self.live_edge_count
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
            "call-graph: {} functions, {} resolved edges ({} live, {} test), live floor {}\n",
            self.fns.len(),
            self.resolved_edges(),
            self.live_edge_count,
            self.test_edge_count,
            MIN_LIVE_EDGES
        ));
        out
    }
}

/// The symbol tables over a graph's functions. Only non-test functions
/// are resolution targets: live code cannot call into `#[cfg(test)]`
/// items. A path call without a type qualifier names no method, so the
/// `free_` tables hold free functions only.
struct Symbols<'a> {
    fns: &'a [FnNode],
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    free_by_name: BTreeMap<&'a str, Vec<FnId>>,
    free_by_crate_name: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    by_crate_type_name: BTreeMap<(&'a str, &'a str, &'a str), Vec<FnId>>,
    by_type_name: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
}

impl<'a> Symbols<'a> {
    fn new(fns: &'a [FnNode]) -> Self {
        let mut t = Symbols {
            fns,
            by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            free_by_crate_name: BTreeMap::new(),
            by_crate_type_name: BTreeMap::new(),
            by_type_name: BTreeMap::new(),
        };
        for (id, node) in fns.iter().enumerate() {
            if node.def.is_test {
                continue;
            }
            let name = node.def.name.as_str();
            t.by_name.entry(name).or_default().push(id);
            if let Some(ty) = &node.def.self_type {
                t.by_crate_type_name
                    .entry((node.krate.as_str(), ty.as_str(), name))
                    .or_default()
                    .push(id);
                t.by_type_name
                    .entry((ty.as_str(), name))
                    .or_default()
                    .push(id);
            } else {
                t.free_by_name.entry(name).or_default().push(id);
                t.free_by_crate_name
                    .entry((node.krate.as_str(), name))
                    .or_default()
                    .push(id);
            }
        }
        t
    }

    /// `ids` when they are one function: a single definition, or the
    /// `cfg` alternatives of one, which share a file and a `Type::name`.
    fn one(&self, ids: Option<&Vec<FnId>>) -> Option<Vec<FnId>> {
        let ids = ids?;
        let first = &self.fns[*ids.first()?];
        ids.iter()
            .all(|&id| {
                let n = &self.fns[id];
                n.file == first.file && n.def.self_type == first.def.self_type
            })
            .then(|| ids.clone())
    }

    /// Path-call resolution (strategy 2). `segs` is the written path and
    /// `uses` the calling file's [`crate::parser::ParsedFile::uses`].
    fn resolve_path(
        &self,
        segs: &[String],
        krate: &str,
        uses: &BTreeMap<String, String>,
    ) -> Option<Vec<FnId>> {
        let name = segs.last()?.as_str();
        let qualifier = (segs.len() >= 2).then(|| segs[segs.len() - 2].as_str());
        // Tuple-struct constructors and enum variants (`NodeId(..)`,
        // `ScenarioKind::FlashCrowd` has no parens so never gets here as a
        // call; `Some(..)`/`Ok(..)` resolve to nothing) fall out naturally:
        // there is no function of that name, so no edge.
        let first = segs.first()?.as_str();
        let target_crate = match uses.get(first) {
            _ if first.starts_with("drqos_") => first,
            Some(imported) => imported.as_str(),
            None => krate,
        };
        let cross_crate = target_crate != krate;

        // `Type::assoc(..)`: qualifier capitalized → associated-function
        // lookup, target crate first, then workspace-unique.
        if let Some(q) = qualifier {
            if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                return self
                    .one(self.by_crate_type_name.get(&(target_crate, q, name)))
                    .or_else(|| self.one(self.by_type_name.get(&(q, name))));
            }
        }
        // Free function, never a method (a path without a type names none):
        // in the target crate (module segments are not tracked, so
        // `module::foo` uses crate-level uniqueness)...
        if let Some(ids) = self.one(self.free_by_crate_name.get(&(target_crate, name))) {
            return Some(ids);
        }
        // ...or workspace-unique as a fallback for bare single-segment calls
        // (helpers re-exported across crates), but never for cross-crate
        // paths or imports that failed the target-crate lookup — those are
        // more likely resolver blind spots than true matches.
        if !cross_crate && segs.len() == 1 {
            return self.one(self.free_by_name.get(&name));
        }
        None
    }
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
    fn paths_through_an_imported_module_resolve_into_its_crate() {
        let sim = (
            "crates/sim/src/seam.rs",
            "pub fn armed(s: Seam) -> bool { false }",
        );
        let g = graph(&[
            (
                "crates/core/src/network.rs",
                "use drqos_sim::seam::{self, Seam};\n\
                 fn commit() { if seam::armed(Seam::A) {} }",
            ),
            sim,
        ]);
        let armed = g.fns.iter().position(|n| n.def.name == "armed").unwrap();
        assert_eq!(g.fns[armed].file, "crates/sim/src/seam.rs");
        assert_eq!(
            edge_labels(&g),
            vec![("commit".to_string(), "armed".to_string())]
        );
        // A renamed module, and a function imported by name, resolve too.
        let g = graph(&[
            (
                "crates/service/src/conn.rs",
                "use drqos_core::framing as wire;\nuse drqos_core::framing::finish;\n\
                 fn reply() { wire::finish(); }\nfn send() { finish(); }",
            ),
            ("crates/core/src/framing.rs", "pub fn finish() {}"),
            ("crates/service/src/other.rs", "fn finish() {}"),
        ]);
        let dump = g.render_dump();
        for caller in [
            "reply (crates/service/src/conn.rs:3)",
            "send (crates/service/src/conn.rs:4)",
        ] {
            assert!(
                dump.contains(&format!(
                    "{caller} -> finish (crates/core/src/framing.rs:1)"
                )),
                "{dump}"
            );
        }
        assert!(
            dump.contains(", 2 resolved edges (2 live, 0 test"),
            "{dump}"
        );
        // Only the file's live imports count, and a name bound to two
        // crates resolves to nothing.
        for importer in [
            "#[cfg(test)]\nuse drqos_sim::seam;\nfn commit() { seam::armed(); }",
            "use drqos_sim::seam;\nmod m { use crate::seam; }\nfn commit() { seam::armed(); }",
        ] {
            let g = graph(&[("crates/core/src/network.rs", importer), sim]);
            assert!(edge_labels(&g).is_empty(), "{importer}");
        }
    }

    #[test]
    fn cfg_alternatives_of_one_function_get_an_edge_each() {
        let g = graph(&[
            (
                "crates/sim/src/seam.rs",
                "#[cfg(feature = \"seams\")]\npub fn armed() -> bool { true }\n\
                 #[cfg(not(feature = \"seams\"))]\npub const fn armed() -> bool { false }",
            ),
            ("crates/sim/src/user.rs", "fn check() { armed(); }"),
        ]);
        assert_eq!(g.edges.iter().map(Vec::len).sum::<usize>(), 2);
        // The same name in two files of the crate is still ambiguous.
        let g = graph(&[
            ("crates/sim/src/a.rs", "pub fn armed() -> bool { true }"),
            ("crates/sim/src/b.rs", "pub fn armed() -> bool { false }"),
            ("crates/sim/src/user.rs", "fn check() { armed(); }"),
        ]);
        assert!(edge_labels(&g).is_empty());
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
    fn a_private_method_of_another_crate_is_no_target() {
        // `f64::round` in a chart, beside core's private flood helper of
        // the same name: no edge, until the helper is exported.
        let chart = (
            "crates/analysis/src/report.rs",
            "impl AsciiChart { pub fn render(&self) { let y = (v * 4.0).round(); } }",
        );
        for (helper, edges) in [
            ("impl FloodScratch { fn round(&mut self) {} }", 0),
            ("impl FloodScratch { pub(crate) fn round(&mut self) {} }", 0),
            ("impl FloodScratch { pub fn round(&mut self) {} }", 1),
        ] {
            let g = graph(&[chart, ("crates/core/src/routing.rs", helper)]);
            assert_eq!(edge_labels(&g).len(), edges, "{helper}");
        }
        // An atomic `.load(..)` in the service, beside core's private fill
        // row `load`: no edge from the service, one from core itself.
        let g = graph(&[
            (
                "crates/service/src/conn.rs",
                "fn next_unit(flag: &AtomicBool) { flag.load(Ordering::Acquire); }",
            ),
            (
                "crates/core/src/network/fill.rs",
                "impl FillRow { fn load(&mut self) {} }\n\
                 fn redistribute(row: &mut FillRow) { row.load(); }",
            ),
        ]);
        assert_eq!(
            edge_labels(&g),
            vec![("redistribute".to_string(), "FillRow::load".to_string())]
        );
    }

    #[test]
    fn trait_impl_methods_are_visible_beyond_their_crate() {
        let g = graph(&[
            (
                "crates/service/src/engine.rs",
                "fn serve(s: &Subject) { s.replay_step(); }",
            ),
            (
                "crates/testkit/src/lockstep.rs",
                "impl Subject for Row { fn replay_step(&self) {} }",
            ),
        ]);
        assert_eq!(
            edge_labels(&g),
            vec![("serve".to_string(), "Row::replay_step".to_string())]
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
        assert!(dump.ends_with("2 functions, 1 resolved edges (1 live, 0 test), live floor 1200\n"));
    }
}
