//! Tier-1 gate: the workspace must be lint-clean.
//!
//! `drqos-lint` mechanically enforces the contracts the rest of this suite
//! proves dynamically — a panic-free daemon, byte-stable emitters, and the
//! env/wire registries staying in sync with their docs. Running it as an
//! integration test means `cargo test` fails on a violation even before CI
//! runs the dedicated lint job.
//!
//! If this test fails: run `cargo run -p drqos-lint` for the findings, fix
//! them, or — only for an intentional, justified exception — run
//! `cargo run -p drqos-lint -- --fix-allowlist` and edit the emitted
//! pragma's TODO into a real justification.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ lives one level below the workspace root")
}

#[test]
fn workspace_has_no_lint_findings() {
    let findings = drqos_lint::run_workspace(workspace_root()).expect("workspace is readable");
    assert!(
        findings.is_empty(),
        "drqos-lint found violations:\n{}",
        drqos_lint::render_human(&findings)
    );
}

#[test]
fn readme_env_table_matches_registry() {
    // Subsumed by the full run above, but kept separate so a drifted env
    // table fails with the regeneration instructions instead of a generic
    // findings dump.
    let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("README.md");
    let findings = drqos_lint::check_env_docs(&readme);
    assert!(
        findings.is_empty(),
        "README.md env table is out of sync with drqos_core::env::registry().\n\
         Replace the block between the env-table markers with the output of\n\
         drqos_core::env::readme_table():\n\n{}\nFindings:\n{}",
        drqos_core::env::readme_table(),
        drqos_lint::render_human(&findings)
    );
}

#[test]
fn every_documented_rule_id_exists() {
    // TESTING.md documents the rules by id; a renamed rule must update the
    // docs (ids are a stable interface — pragmas embed them).
    let testing = std::fs::read_to_string(workspace_root().join("TESTING.md")).expect("TESTING.md");
    for rule in drqos_lint::rules::RULES {
        assert!(
            testing.contains(rule),
            "rule id `{rule}` is not documented in TESTING.md"
        );
    }
}

#[test]
fn every_rule_in_the_testing_table_exists() {
    // The reverse: a retired rule's row must leave the table with it, or
    // the docs promise a check nothing runs.
    let testing = std::fs::read_to_string(workspace_root().join("TESTING.md")).expect("TESTING.md");
    let table = testing
        .split("### The rules")
        .nth(1)
        .and_then(|rest| rest.split("\n###").next())
        .expect("TESTING.md has a `### The rules` section");
    let ids: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(!ids.is_empty(), "no rule rows under `### The rules`");
    for id in ids {
        assert!(
            drqos_lint::rules::RULES.contains(&id),
            "TESTING.md documents rule `{id}`, which RULES does not ship"
        );
    }
}

#[test]
fn call_graph_resolves_enough_edges_to_be_meaningful() {
    // The interprocedural rules are only as strong as the resolver
    // feeding them. If a parser or resolver regression drops the count
    // of edges out of live functions below the committed floor,
    // reachability silently turns vacuous — so the floor is itself a
    // tier-1 assertion.
    let graph = drqos_lint::build_workspace_graph(workspace_root()).expect("workspace is readable");
    assert!(
        graph.live_edges() >= drqos_lint::callgraph::MIN_LIVE_EDGES,
        "call graph resolved only {} edges out of live functions (floor {}): the resolver \
         regressed",
        graph.live_edges(),
        drqos_lint::callgraph::MIN_LIVE_EDGES
    );
}
