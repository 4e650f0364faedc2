//! Per-rule fixture tests: for each rule, one snippet that fires, one that
//! is `lint:allow`-suppressed, and one that is clean — plus the `--json`
//! schema snapshot. Fixtures are inline raw strings,
//! which doubles as a lexer test: the violation text inside these
//! literals must never leak findings into a lint of *this* file.

use drqos_lint::rules::{self, FileView, Finding};
use drqos_lint::{check_env_docs, check_wire_docs, lexer, lint_file, render_json};

/// Lints `src` as if it were the workspace file at `path`.
fn lint_as(path: &str, src: &str) -> Vec<Finding> {
    lint_file(path, src)
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

// ----------------------------------------------------------- env-registry --

#[test]
fn env_registry_fires() {
    let src = r#"fn f() -> bool { std::env::var("DRQOS_TURBO").is_ok() }"#;
    let f = lint_as("crates/bench/src/runner.rs", src);
    assert_eq!(rules_fired(&f), vec!["env-registry"]);
    assert!(f[0].message.contains("DRQOS_TURBO"));
}

#[test]
fn env_registry_suppressed() {
    let src = "// lint:allow(env-registry): migration shim removed next release\n\
               fn f() -> bool { std::env::var(\"DRQOS_LEGACY\").is_ok() }";
    assert!(lint_as("crates/bench/src/runner.rs", src).is_empty());
}

#[test]
fn env_registry_clean() {
    let src = "fn f() -> Option<usize> { drqos_core::env::threads() }";
    assert!(lint_as("crates/bench/src/runner.rs", src).is_empty());
    // The registry file itself is where the names are declared.
    let decl = r#"pub const TURBO: &str = "DRQOS_TURBO";"#;
    assert!(lint_as("crates/core/src/env.rs", decl).is_empty());
}

#[test]
fn env_registry_docs_cross_check() {
    let good = format!(
        "<!-- env-table:begin -->\n{}<!-- env-table:end -->\n",
        drqos_core::env::readme_table()
    );
    assert!(check_env_docs(&good).is_empty());
    let findings = check_env_docs("no markers, no table");
    assert!(findings.iter().any(|f| f.message.contains("markers")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("DRQOS_QUEUE_DEPTH")));
}

// -------------------------------------------------------------- raw-clock --

#[test]
fn raw_clock_fires() {
    let src = "fn f() { let t0 = std::time::Instant::now(); let s = SystemTime::now(); }";
    let f = lint_as("crates/core/src/experiment.rs", src);
    assert_eq!(rules_fired(&f), vec!["raw-clock"]);
    assert_eq!(f.len(), 2);
}

#[test]
fn raw_clock_suppressed() {
    let src = "fn f() {\n\
               let t0 = Instant::now(); // lint:allow(raw-clock): startup banner only\n\
               }";
    assert!(lint_as("crates/core/src/experiment.rs", src).is_empty());
}

#[test]
fn raw_clock_clean() {
    // The exempt measurement modules may read clocks...
    let src = "fn f() { let t0 = Instant::now(); }";
    assert!(lint_as("crates/core/src/measure.rs", src).is_empty());
    assert!(lint_as("crates/service/src/metrics.rs", src).is_empty());
    // ...and bench code is outside the sim zone entirely: a clock read in
    // its byte-pinned runner is `determinism-taint`'s, not this rule's.
    let bench = lint_as("crates/bench/src/runner.rs", src);
    assert_eq!(rules_fired(&bench), vec!["determinism-taint"], "{bench:?}");
    // `Instant` without `::now` (type position, Duration math) is fine.
    let ty = "fn g(t: Instant) -> Duration { t.elapsed() }";
    assert!(lint_as("crates/core/src/experiment.rs", ty).is_empty());
}

#[test]
fn raw_clock_flags_a_sleep_outside_tests_and_exempt_files() {
    let sleep = "fn f() { std::thread::sleep(POLL_INTERVAL); thread::sleep(d); }";
    let f = lint_as("crates/service/src/conn.rs", sleep);
    assert_eq!(rules_fired(&f), vec!["raw-clock"]);
    assert_eq!(f.len(), 2, "{f:?}");
    // Tests may wait on the clock...
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { thread::sleep(d); }\n}";
    assert!(lint_as("crates/service/src/conn.rs", in_test).is_empty());
    // ...and so may the load generator's retry backoff.
    assert!(lint_as("crates/service/src/loadgen.rs", sleep).is_empty());
}

// ----------------------------------------------------------- float-format --

#[test]
fn float_format_fires() {
    let src = r#"
        fn cell(v: f64, n: u64) -> String {
            format!("{v} {n}")
        }
        fn row(wall_s: f64) -> String {
            format!("{} done", wall_s)
        }
    "#;
    let f = lint_as("crates/bench/src/csv.rs", src);
    assert_eq!(rules_fired(&f), vec!["float-format"]);
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn float_format_suppressed() {
    let src = "fn cell(v: f64) -> String {\n\
               // lint:allow(float-format): full precision is the contract\n\
               format!(\"{v}\")\n\
               }";
    assert!(lint_as("crates/bench/src/csv.rs", src).is_empty());
}

#[test]
fn float_format_clean() {
    let src = r#"
        fn cell(v: f64, n: u64) -> String {
            format!("{v:.3} {n} {:.6}", v)
        }
    "#;
    assert!(lint_as("crates/bench/src/csv.rs", src).is_empty());
    // Integers never need precision, in any zone.
    let ints = r#"fn f(n: u64) -> String { format!("{n}") }"#;
    assert!(lint_as("crates/bench/src/csv.rs", ints).is_empty());
    // Floats formatted outside the emitter zone are unconstrained.
    let elsewhere = r#"fn f(v: f64) -> String { format!("{v}") }"#;
    assert!(lint_as("crates/analysis/src/model.rs", elsewhere).is_empty());
}

// ---------------------------------------------------------- wire-doc-sync --

const WIRE_FIXTURE: &str = r#"pub const WIRE_CODES: &[(u16, &str)] = &[
    (100, "qos: zero minimum"),
    (300, "network: unknown connection"),
];"#;

#[test]
fn wire_doc_sync_fires() {
    let md = "| Code | Meaning |\n|---|---|\n| 100 | qos: zero minimum |\n";
    let f = check_wire_docs(WIRE_FIXTURE, md);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, "wire-doc-sync");
    assert!(f[0].message.contains("300"));
}

#[test]
fn wire_doc_sync_catches_description_drift() {
    let md = "| 100 | qos: zero minimum |\n| 300 | network: connection unknown |\n";
    let f = check_wire_docs(WIRE_FIXTURE, md);
    assert_eq!(f.len(), 1, "reworded row must not count: {f:?}");
}

#[test]
fn wire_doc_sync_clean() {
    let md = "prose\n\n| Code | Meaning |\n|---|---|\n| 100 | qos: zero minimum |\n\
              | 300 | network: unknown connection |\ntrailing prose\n";
    assert!(check_wire_docs(WIRE_FIXTURE, md).is_empty());
}

// ------------------------------------------------------- lexer edge cases --

#[test]
fn raw_string_containing_unwrap_is_not_a_finding() {
    let src = r###"
        fn f() -> &'static str {
            r#"x.unwrap() panic!("nope") items[0]"#
        }
    "###;
    assert!(lint_as("crates/service/src/engine.rs", src).is_empty());
}

#[test]
fn commented_out_code_is_not_a_finding() {
    let src = "fn f() {\n// let x = m.get(&k).unwrap();\n/* panic!(\"old\") */\n}";
    assert!(lint_as("crates/service/src/engine.rs", src).is_empty());
}

#[test]
fn slashes_inside_string_literals_do_not_start_comments() {
    // If `//` in the string were taken as a comment, the unwrap after it
    // would be swallowed and this fixture would pass clean.
    let src = "fn f() { let url = \"http://example/x\"; m.get(&k).unwrap(); }";
    let f = lint_as("crates/service/src/engine.rs", src);
    assert_eq!(f.len(), 1);
}

#[test]
fn pragma_inside_string_literal_is_inert() {
    let src = "fn f() { let s = \"lint:allow(panic-reachability)\"; x.unwrap(); }";
    assert_eq!(lint_as("crates/service/src/engine.rs", src).len(), 1);
}

// ------------------------------------------------------------ --json snap --

#[test]
fn json_output_matches_schema_snapshot() {
    let src = "fn f() { x.unwrap(); }\n";
    let findings = lint_as("crates/service/src/engine.rs", src);
    let json = render_json(&findings);
    assert_eq!(
        json,
        "{\"version\":1,\"findings\":[{\"rule\":\"panic-reachability\",\
         \"file\":\"crates/service/src/engine.rs\",\"line\":1,\
         \"message\":\".unwrap() reachable from the daemon zone; call chain: \
         f (crates/service/src/engine.rs:1)\"}]}"
    );
    assert_eq!(render_json(&[]), "{\"version\":1,\"findings\":[]}");
}

// ------------------------------------------------------------- rule table --

#[test]
fn every_shipped_rule_has_a_stable_id() {
    assert_eq!(
        rules::RULES,
        &[
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
        ]
    );
}

#[test]
fn findings_sort_by_file_then_line_then_rule() {
    let src = "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }";
    let f = lint_as("crates/service/src/engine.rs", src);
    assert_eq!(f.len(), 2);
    assert!(f[0].line < f[1].line);
}

#[test]
fn file_view_exposes_test_exclusion() {
    let lexed = lexer::lex("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live() {}");
    let view = FileView::new("crates/service/src/engine.rs", &lexed);
    let unwrap_idx = lexed
        .tokens
        .iter()
        .position(|t| t.text == "unwrap")
        .unwrap();
    assert!(view.is_test(unwrap_idx));
    let live_idx = lexed.tokens.iter().position(|t| t.text == "live").unwrap();
    assert!(!view.is_test(live_idx));
}

#[test]
fn a_cfg_predicate_that_needs_no_test_is_live_code() {
    let gated = |cfg: &str| {
        let src = format!("#[cfg({cfg})]\nfn f() {{ x.unwrap(); }}");
        let lexed = lexer::lex(&src);
        let view = FileView::new("crates/service/src/engine.rs", &lexed);
        let at = lexed
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .unwrap();
        view.is_test(at)
    };
    for cfg in [
        "test",
        "all(test, unix)",
        "all(unix, not(not(test)))",
        "any(test, any())",
    ] {
        assert!(gated(cfg), "{cfg}");
    }
    for cfg in [
        "not(test)",
        "any(test, unix)",
        "unix",
        "feature = \"test\"",
        "any(test, all())",
    ] {
        assert!(!gated(cfg), "{cfg}");
    }
}

#[test]
fn a_daemon_zone_item_compiled_without_test_is_linted() {
    let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
    let f = lint_as("crates/service/src/engine.rs", src);
    assert_eq!(rules_fired(&f), vec!["panic-reachability"], "{f:?}");
}

// ------------------------------------------- interprocedural (workspace) --

/// Lints a synthetic multi-file workspace through the same entry point
/// `run_workspace` uses, with the non-vacuity floor disabled (these
/// fixtures are tiny by construction) and no benchmark pins.
fn lint_ws(files: &[(&str, &str)]) -> Vec<Finding> {
    lint_pinned(files, &[])
}

/// [`lint_ws`] with `pins` as `dead-surface`'s benchmark-only table.
fn lint_pinned(files: &[(&str, &str)], pins: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    drqos_lint::lint_sources(&sources, 0, pins)
}

// -------------------------------------------------- panic-reachability --

#[test]
fn panic_reachability_fires_with_the_full_call_chain() {
    // Planted violation: a daemon entry point reaches an unwrap two
    // crates away. The finding must name every hop.
    let f = lint_ws(&[
        (
            "crates/service/src/engine.rs",
            "fn handle() { drqos_topology::paths::k_shortest(); }",
        ),
        (
            "crates/topology/src/paths.rs",
            "pub fn k_shortest() { helper(); }\nfn helper() { x.unwrap(); }",
        ),
    ]);
    assert_eq!(rules_fired(&f), vec!["panic-reachability"], "{f:?}");
    assert_eq!(f[0].file, "crates/topology/src/paths.rs");
    assert_eq!(f[0].line, 2);
    for hop in ["handle", "k_shortest", "helper"] {
        assert!(
            f[0].message.contains(hop),
            "chain misses {hop}: {}",
            f[0].message
        );
    }
    assert!(f[0].message.contains("call chain"), "{}", f[0].message);
}

#[test]
fn panic_reachability_suppressed_at_the_site() {
    let f = lint_ws(&[
        (
            "crates/service/src/engine.rs",
            "fn handle() { drqos_topology::paths::k_shortest(); }",
        ),
        (
            "crates/topology/src/paths.rs",
            "pub fn k_shortest() { x.unwrap(); // lint:allow(panic-reachability): bounded by caller\n}",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_reachability_clean_when_unreachable() {
    // The panic exists but no daemon entry point can reach it.
    let f = lint_ws(&[
        (
            "crates/service/src/engine.rs",
            "fn handle() { ok(); }\nfn ok() {}",
        ),
        (
            "crates/topology/src/paths.rs",
            "pub(crate) fn island() { x.unwrap(); }",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_reachability_links_a_bare_call_to_no_method() {
    // A daemon binary's local closure `value(…)` beside the workspace's
    // only `value`, a method that indexes a slice in a crate the binary
    // does not use: a bare call names no method, so no chain links them.
    let f = lint_ws(&[
        (
            "crates/service/src/bin/drqos-clusterd.rs",
            "fn parse_args(args: &[String]) { let value = |i: usize| args.get(i); value(1); }",
        ),
        (
            "crates/bench/src/pairs.rs",
            "impl Parser<'_> { fn value(&mut self) -> u8 { self.bytes[self.at] } }",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------- panic-reachability: the zone's own sites --
//
// A daemon-zone file's own panic sites are the chains of length one. These
// fixtures keep the names and inputs they had under the retired
// `no-panic-daemon` rule.

#[test]
fn no_panic_daemon_fires() {
    let src = r#"
        fn handle(&mut self) {
            let x = self.map.get(&k).unwrap();
            let y = self.map.get(&k).expect("present");
            panic!("boom");
            todo!();
            let z = items[0];
        }
    "#;
    let f = lint_as("crates/service/src/engine.rs", src);
    assert_eq!(f.len(), 5, "{f:?}");
    assert!(f.iter().all(|f| f.rule == "panic-reachability"));
}

#[test]
fn no_panic_daemon_suppressed() {
    let src = r#"
        fn handle(&mut self) {
            // lint:allow(panic-reachability): checked two lines up
            let x = self.map.get(&k).unwrap();
            let y = self.map.get(&k).expect("present"); // lint:allow(panic-reachability): ditto
        }
    "#;
    assert!(lint_as("crates/service/src/engine.rs", src).is_empty());
}

#[test]
fn no_panic_daemon_clean() {
    let src = r#"
        fn handle(&mut self) -> Response {
            match self.map.get(&k) {
                Some(v) => ok(v),
                None => err(),
            }
        }
        /* a block comment mentioning x.unwrap() is not code */
        const DOC: &str = "and x.unwrap() in a string is not code either";
    "#;
    assert!(lint_as("crates/service/src/engine.rs", src).is_empty());
}

#[test]
fn no_panic_daemon_only_applies_to_the_daemon_zone() {
    let src = "fn f() { x.unwrap(); }";
    assert!(lint_as("crates/markov/src/solver.rs", src).is_empty());
    assert!(!lint_as("crates/service/src/server.rs", src).is_empty());
}

// --------------------------------------------------- determinism-taint --

#[test]
fn determinism_taint_fires_with_the_flow_chain() {
    let f = lint_ws(&[
        (
            "crates/core/src/snapshot.rs",
            "pub(crate) fn render() { stamp(); }",
        ),
        (
            "crates/core/src/measure.rs",
            "pub(crate) fn stamp() -> u64 { let t = Instant::now(); 0 }",
        ),
    ]);
    assert_eq!(rules_fired(&f), vec!["determinism-taint"], "{f:?}");
    assert_eq!(f[0].file, "crates/core/src/measure.rs");
    assert!(
        f[0].message.contains("render") && f[0].message.contains("Instant::now"),
        "{}",
        f[0].message
    );
}

#[test]
fn determinism_taint_suppressed_at_the_source() {
    let f = lint_ws(&[
        ("crates/core/src/snapshot.rs", "pub(crate) fn render() { stamp(); }"),
        (
            "crates/core/src/measure.rs",
            "pub(crate) fn stamp() -> u64 { let t = Instant::now(); 0 } // lint:allow(determinism-taint): wall column masked",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_taint_clean_when_no_emitter_reaches_the_clock() {
    // Same clock read, but only a non-emitter caller.
    let f = lint_ws(&[
        (
            "crates/core/src/routing.rs",
            "pub(crate) fn route() { stamp(); }",
        ),
        (
            "crates/core/src/measure.rs",
            "pub(crate) fn stamp() -> u64 { let t = Instant::now(); 0 }",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

// -------------------------------- determinism-taint: a pinned file's hashes --
//
// Every `HashMap` / `HashSet` a byte-pinned file names is reported where it
// is named, `use` lines and types too. These fixtures keep the names and
// inputs they had under the retired `nondeterministic-iteration` rule.

#[test]
fn nondeterministic_iteration_fires() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}";
    let f = lint_as("crates/core/src/snapshot.rs", src);
    assert_eq!(rules_fired(&f), vec!["determinism-taint"]);
    assert_eq!(f.len(), 2);
}

#[test]
fn nondeterministic_iteration_suppressed() {
    let src = "// lint:allow(determinism-taint): keyed lookups only, never iterated\n\
               use std::collections::HashSet;";
    assert!(lint_as("crates/core/src/snapshot.rs", src).is_empty());
}

#[test]
fn nondeterministic_iteration_clean() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\nfn f(m: &BTreeMap<u32, u32>) {}";
    assert!(lint_as("crates/core/src/snapshot.rs", src).is_empty());
    // HashMap is fine outside the byte-stable zone (e.g. routing scratch).
    let scratch = "use std::collections::HashMap;";
    assert!(lint_as("crates/core/src/routing.rs", scratch).is_empty());
}

// --------------------------------------------------------- stale-pragma --

#[test]
fn stale_pragma_fires_on_a_dead_allow_and_spares_a_live_one() {
    let f = lint_ws(&[(
        "crates/core/src/routing.rs",
        "// lint:allow(raw-clock): nothing here reads a clock\n\
         fn quiet() {}\n",
    )]);
    assert_eq!(rules_fired(&f), vec!["stale-pragma"], "{f:?}");
    assert!(f[0].message.contains("raw-clock"), "{}", f[0].message);

    // A pragma that actually suppresses something is not stale.
    let live = lint_ws(&[(
        "crates/core/src/routing.rs",
        "fn t() { let t0 = Instant::now(); // lint:allow(raw-clock): startup banner\n}",
    )]);
    assert!(live.is_empty(), "{live:?}");
}

#[test]
fn stale_pragma_fires_on_an_unknown_rule_name() {
    let f = lint_ws(&[(
        "crates/core/src/routing.rs",
        "// lint:allow(no-such-rule): typo\nfn quiet() {}\n",
    )]);
    assert_eq!(rules_fired(&f), vec!["stale-pragma"], "{f:?}");
    assert!(f[0].message.contains("unknown"), "{}", f[0].message);
}

#[test]
fn stale_pragma_names_a_retired_rule_unknown() {
    // The two ids folded into `panic-reachability` and `determinism-taint`
    // suppress nothing now: the site they covered is reported, and so is
    // the pragma.
    let f = lint_ws(&[(
        "crates/core/src/snapshot.rs",
        "// lint:allow(nondeterministic-iteration): keyed lookups only\n\
         use std::collections::HashSet;\n",
    )]);
    assert_eq!(
        rules_fired(&f),
        vec!["stale-pragma", "determinism-taint"],
        "{f:?}"
    );
    assert!(
        f[0].message.contains("names an unknown rule"),
        "{}",
        f[0].message
    );
    let f = lint_ws(&[(
        "crates/core/src/network.rs",
        "fn f(&self) {\n\
         // lint:allow(no-panic-daemon): callers hold the id\n\
         self.x().expect(\"held\");\n}\n",
    )]);
    assert_eq!(
        rules_fired(&f),
        vec!["stale-pragma", "panic-reachability"],
        "{f:?}"
    );
    assert_eq!(
        f[0].message,
        "lint:allow(no-panic-daemon) names an unknown rule; remove the dead pragma"
    );
}

// ----------------------------------------------------------- call-graph --

#[test]
fn non_vacuity_floor_fires_when_the_resolver_goes_dark() {
    let sources = vec![(
        "crates/core/src/a.rs".to_string(),
        "fn lonely() {}".to_string(),
    )];
    let f = drqos_lint::lint_sources(&sources, 1_000_000, &[]);
    assert_eq!(rules_fired(&f), vec!["call-graph"], "{f:?}");
}

#[test]
fn live_floor_fires_when_only_test_edges_resolve() {
    let sources = vec![(
        "crates/core/src/a.rs".to_string(),
        "fn lonely() {}\n#[cfg(test)]\nmod tests { fn t() { lonely(); } fn u() { lonely(); } }"
            .to_string(),
    )];
    // Two edges resolve, both out of tests: none counts for a live floor
    // of one.
    assert!(drqos_lint::lint_sources(&sources, 0, &[]).is_empty());
    let f = drqos_lint::lint_sources(&sources, 1, &[]);
    assert_eq!(rules_fired(&f), vec!["call-graph"], "{f:?}");
}

// ------------------------------------------------------------- zone-map --

#[test]
fn zone_map_fires_on_a_row_that_matches_no_file() {
    // The row PR 9 planted: the SRLG churn driver lives in the sim crate,
    // so a row naming it under core put nothing in the daemon zone.
    let files = ["crates/sim/src/srlg.rs", "crates/core/src/network.rs"];
    let planted = [(
        "NO_PANIC_FILES",
        vec!["crates/core/src/srlg.rs", "crates/core/src/network.rs"],
    )];
    let mut f = Vec::new();
    rules::zone_map(&planted, &files, &mut f);
    assert_eq!(rules_fired(&f), vec!["zone-map"], "{f:?}");
    assert_eq!(f.len(), 1, "only the dangling row: {f:?}");
    assert!(f[0].message.contains("NO_PANIC_FILES") && f[0].message.contains("core/src/srlg.rs"));
}

#[test]
fn zone_map_fires_on_a_file_row_that_is_only_a_prefix() {
    // The rules read a `*_FILES` table by equality, so neither row puts
    // anything in the daemon zone, though workspace files begin with both.
    let files = [
        "crates/service/src/conn.rs",
        "crates/core/src/network/plan.rs",
    ];
    let truncated_and_directory = vec!["crates/service/src/conn", "crates/core/src/network/"];
    let mut f = Vec::new();
    let as_files = [("NO_PANIC_FILES", truncated_and_directory.clone())];
    rules::zone_map(&as_files, &files, &mut f);
    assert_eq!(rules_fired(&f), vec!["zone-map"], "{f:?}");
    assert_eq!(f.len(), 2, "{f:?}");
    // The same rows are fine where the rules do ask `starts_with`.
    let as_prefixes = [("CLOCK_DENY_PREFIXES", truncated_and_directory)];
    f.clear();
    rules::zone_map(&as_prefixes, &files, &mut f);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn the_daemon_zone_covers_every_stage_file_of_the_network_manager() {
    let src = "impl Network { fn stage(&self) { self.thing().unwrap(); } }";
    for stage in ["plan", "fill", "fault"] {
        let f = lint_as(&format!("crates/core/src/network/{stage}.rs"), src);
        assert_eq!(
            rules_fired(&f),
            vec!["panic-reachability"],
            "{stage}: {f:?}"
        );
    }
    let f = lint_as("crates/service/src/genesis.rs", src);
    assert_eq!(rules_fired(&f), vec!["panic-reachability"], "{f:?}");
    // As in `network.rs`, arena indexing is the idiom there.
    let indexing = "fn f(&self) { let u = &self.links[l.index()]; }";
    assert!(lint_as("crates/core/src/network/fault.rs", indexing).is_empty());
}

#[test]
fn zone_map_clean_when_every_row_and_prefix_matches() {
    let files = ["crates/sim/src/srlg.rs", "crates/core/src/network.rs"];
    let tables = [
        ("NO_PANIC_FILES", vec!["crates/sim/src/srlg.rs"]),
        ("CLOCK_DENY_PREFIXES", vec!["crates/core/src", "crates/sim"]),
    ];
    let mut f = Vec::new();
    rules::zone_map(&tables, &files, &mut f);
    assert!(f.is_empty(), "{f:?}");
    // Every shipped table is non-empty, so the workspace run (see
    // tests/lint_clean.rs) checks real rows.
    assert!(rules::zone_tables()
        .iter()
        .all(|(_, rows)| !rows.is_empty()));
}

// --------------------------------------------------------- dead-surface --

/// A lib file of `crates/core` with one candidate of each kind.
const SURFACE_LIB: &str =
    "pub fn orphan() {}\npub const LIMIT: usize = 4;\npub static TABLE: [u8; 1] = [0];\n";

#[test]
fn dead_surface_fires_on_pub_items_no_other_crate_names() {
    let f = lint_ws(&[
        ("crates/core/src/a.rs", SURFACE_LIB),
        // Same lib target: an inside caller does not make the item public.
        ("crates/core/src/b.rs", "fn user() { crate::a::orphan(); }"),
        ("crates/service/src/engine.rs", "fn other() {}"),
    ]);
    assert_eq!(rules_fired(&f), vec!["dead-surface"], "{f:?}");
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![1, 2, 3], "fn, const and static: {f:?}");
    assert!(f[0].message.contains("`orphan`") && f[0].message.contains("pub(crate)"));
}

#[test]
fn dead_surface_clean_when_anything_outside_the_lib_target_names_it() {
    let caller = "fn main() { orphan(); let _ = (LIMIT, TABLE); }";
    for outside in [
        "crates/service/src/engine.rs", // another crate
        "crates/core/src/bin/tool.rs",  // the crate's own binary
        "crates/core/tests/it.rs",      // the crate's own integration tests
        "tests/tests/end_to_end.rs",    // the workspace test package
        "examples/video_streaming.rs",  // the examples package
    ] {
        let f = lint_ws(&[("crates/core/src/a.rs", SURFACE_LIB), (outside, caller)]);
        assert!(f.is_empty(), "{outside}: {f:?}");
    }
    // A doctest is compiled as a crate of its own: Rust-fenced doc code is
    // an outside caller, a `text` fence is prose.
    let doctest = "/// ```\n/// crate_name::orphan();\n/// ```\npub fn orphan() {}\n";
    assert!(lint_ws(&[("crates/core/src/a.rs", doctest)]).is_empty());
    let prose = "/// ```text\n/// orphan()\n/// ```\npub fn orphan() {}\n";
    assert_eq!(lint_ws(&[("crates/core/src/a.rs", prose)]).len(), 1);
}

#[test]
fn dead_surface_fires_on_an_item_only_the_benchmark_names_unless_it_is_pinned() {
    let files = [
        ("crates/core/src/a.rs", SURFACE_LIB),
        (
            "benchmark/src/layers.rs",
            "fn main() { orphan(); let _ = (LIMIT, TABLE); }",
        ),
    ];
    let f = lint_ws(&files);
    assert_eq!(rules_fired(&f), vec!["dead-surface"], "{f:?}");
    assert_eq!(f.len(), 3, "fn, const and static: {f:?}");
    assert!(
        f.iter()
            .all(|x| x.message.contains("only by benchmark/")
                && x.message.contains("BENCHMARK_PINS")),
        "{f:?}"
    );
    // Listed, each is clean; an unlisted one is still reported.
    let pins = [("core", "orphan"), ("core", "LIMIT"), ("core", "TABLE")];
    let f = lint_pinned(&files, &pins);
    assert!(f.is_empty(), "{f:?}");
    let f = lint_pinned(&files, &pins[..2]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("`TABLE`"), "{}", f[0].message);
}

#[test]
fn dead_surface_reports_a_stale_pin_in_each_form() {
    let bench = ("benchmark/src/layers.rs", "fn main() { orphan(); }");
    let stale = |files: &[(&str, &str)], pins: &[(&str, &str)]| {
        let f = lint_pinned(files, pins);
        assert_eq!(rules_fired(&f), vec!["dead-surface"], "{f:?}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/lint/src/surface.rs");
        assert!(
            f[0].message.contains("BENCHMARK_PINS entry"),
            "{}",
            f[0].message
        );
        f[0].message.clone()
    };
    let lib = ("crates/core/src/a.rs", "pub fn orphan() {}\n");
    // The item is gone: deleted or narrowed.
    let narrowed = ("crates/core/src/a.rs", "pub(crate) fn orphan() {}\n");
    for files in [vec![bench], vec![narrowed, bench]] {
        let m = stale(&files, &[("core", "orphan")]);
        assert!(m.contains("has no pub item `orphan`"), "{m}");
    }
    // Listed under the wrong crate: the entry is stale and the item unpinned.
    let f = lint_pinned(&[lib, bench], &[("service", "orphan")]);
    let files: Vec<&str> = f.iter().map(|x| x.file.as_str()).collect();
    assert_eq!(
        files,
        vec!["crates/core/src/a.rs", "crates/lint/src/surface.rs"],
        "{f:?}"
    );
    assert!(f[1]
        .message
        .contains("crates/service's lib target has no pub item"));
    // `benchmark/` no longer names it.
    let m = stale(&[lib], &[("core", "orphan")]);
    assert!(m.contains("benchmark/ no longer names it"), "{m}");
    // A product file names it now, or a doctest does.
    let engine = ("crates/service/src/engine.rs", "fn f() { orphan(); }");
    let doctest = (
        "crates/core/src/a.rs",
        "/// ```\n/// drqos_core::orphan();\n/// ```\npub fn orphan() {}\n",
    );
    for files in [vec![lib, bench, engine], vec![doctest, bench]] {
        let m = stale(&files, &[("core", "orphan")]);
        assert!(m.contains("outside benchmark/ names it now"), "{m}");
    }
}

#[test]
fn dead_surface_is_not_saved_by_tests_comments_or_strings() {
    let lib = "pub fn orphan() {}\n\
               #[cfg(test)]\nmod tests { #[test] fn t() { super::orphan(); } }\n";
    let f = lint_ws(&[
        ("crates/core/src/a.rs", lib),
        (
            "crates/service/src/engine.rs",
            "// orphan() is mentioned in a comment\nfn f() { let _ = \"orphan\"; }",
        ),
    ]);
    assert_eq!(rules_fired(&f), vec!["dead-surface"], "{f:?}");
    assert_eq!(f.len(), 1);
}

#[test]
fn dead_surface_never_reports_types_trait_impls_or_test_items() {
    let lib = "pub struct Unused { pub field: u8 }\n\
               pub enum Kind { A }\n\
               pub trait Shape { fn area(&self) -> f64; }\n\
               impl Shape for Unused { fn area(&self) -> f64 { 0.0 } }\n\
               pub(crate) fn narrowed() {}\n\
               #[cfg(test)]\npub fn test_only_helper() {}\n\
               #[cfg(test)]\nmod tests { pub fn fixture() {} }\n";
    assert!(lint_ws(&[("crates/core/src/a.rs", lib)]).is_empty());
    // Binaries, integration tests and the benchmark are not lib targets:
    // their `pub` items are nobody's surface.
    for path in [
        "crates/core/src/bin/tool.rs",
        "crates/core/tests/it.rs",
        "benchmark/src/ops.rs",
    ] {
        assert!(
            lint_ws(&[(path, "pub fn orphan() {}")]).is_empty(),
            "{path}"
        );
    }
}

#[test]
fn dead_surface_pragma_suppresses_and_an_unused_one_is_stale() {
    let allowed =
        "// lint:allow(dead-surface): kept for the next PR's caller\npub fn orphan() {}\n";
    assert!(lint_ws(&[("crates/core/src/a.rs", allowed)]).is_empty());
    let f = lint_ws(&[
        ("crates/core/src/a.rs", allowed),
        ("crates/service/src/engine.rs", "fn f() { orphan(); }"),
    ]);
    assert_eq!(rules_fired(&f), vec!["stale-pragma"], "{f:?}");
    assert!(f[0].message.contains("dead-surface"), "{}", f[0].message);
}

// ------------------------------------------------- deterministic output --

#[test]
fn workspace_findings_sort_by_file_then_line_then_rule() {
    // Two files, multiple rules; order must be (file, line, rule) no
    // matter which pass produced each finding.
    let f = lint_ws(&[
        (
            "crates/service/src/engine.rs",
            "fn handle() { x.unwrap(); }\nfn again() { y.unwrap(); }",
        ),
        (
            "crates/core/src/snapshot.rs",
            "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}",
        ),
    ]);
    assert!(f.len() >= 4, "{f:?}");
    let keys: Vec<(&str, u32, &str)> = f
        .iter()
        .map(|x| (x.file.as_str(), x.line, x.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}
