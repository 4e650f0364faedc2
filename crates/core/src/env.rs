//! The central registry of `DRQOS_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared here once —
//! name, default, consumer, and effect — and read through a typed
//! accessor. Call sites elsewhere use the exported name constants
//! ([`THREADS`], `CHECKED`, ...) instead of string literals, so
//! `drqos-lint`'s `env-registry` rule can mechanically prove that no
//! crate reads an undeclared variable and that the README's environment
//! table matches this registry (via [`readme_table`]).
//!
//! The accessors preserve the exact parsing semantics their original
//! call sites had (they were folded in here verbatim), so behaviour is
//! identical to the pre-registry code:
//!
//! * [`threads`] — `DRQOS_THREADS`, sweep worker count.
//! * [`checked`] — `DRQOS_CHECKED`, invariant re-validation override.
//! * [`bless`] — `DRQOS_BLESS`, golden-trace re-bless switch.
//! * [`queue_depth`] — `DRQOS_QUEUE_DEPTH`, the daemons' `BUSY` threshold.
//! * [`scenario`] — `DRQOS_SCENARIO`, adversarial workload selection.
//! * [`srlg_count`] / [`srlg_size`] — `DRQOS_SRLG_*`, seeded
//!   shared-risk-group derivation.

/// `DRQOS_THREADS` — sweep worker count (see [`threads`]).
pub const THREADS: &str = "DRQOS_THREADS";
/// `DRQOS_CHECKED` — per-event invariant checking (see [`checked`]).
pub(crate) const CHECKED: &str = "DRQOS_CHECKED";
/// `DRQOS_BLESS` — golden-trace re-bless switch (see [`bless`]).
pub(crate) const BLESS: &str = "DRQOS_BLESS";
/// `DRQOS_BATCH` — read by nothing and not in [`registry`]: `drqosd` has
/// no batch left to size. The name stays only because
/// `benchmark/tests/smoke.rs` sets it as an exported knob the benchmark
/// must refuse (ROADMAP 4(c)).
pub const BATCH: &str = "DRQOS_BATCH";
/// `DRQOS_QUEUE_DEPTH` — requests `drqosd` or a member lets wait for its
/// engine (see [`queue_depth`]).
pub(crate) const QUEUE_DEPTH: &str = "DRQOS_QUEUE_DEPTH";
/// `DRQOS_WIRE` — daemon wire framing, text or binary (see [`wire`]).
pub(crate) const WIRE: &str = "DRQOS_WIRE";
/// `DRQOS_SCENARIO` — adversarial workload scenario (see [`scenario`]).
pub(crate) const SCENARIO: &str = "DRQOS_SCENARIO";
/// `DRQOS_SRLG_COUNT` — seeded shared-risk groups to derive (see
/// [`srlg_count`]).
pub(crate) const SRLG_COUNT: &str = "DRQOS_SRLG_COUNT";
/// `DRQOS_SRLG_SIZE` — links per derived shared-risk group (see
/// [`srlg_size`]).
pub(crate) const SRLG_SIZE: &str = "DRQOS_SRLG_SIZE";

/// Default for `DRQOS_QUEUE_DEPTH`: requests waiting for the engine or
/// holding it.
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 1024;
/// Default for `DRQOS_SRLG_COUNT`: no shared-risk groups registered.
pub(crate) const DEFAULT_SRLG_COUNT: usize = 0;
/// Default for `DRQOS_SRLG_SIZE`: three links per derived group.
pub(crate) const DEFAULT_SRLG_SIZE: usize = 3;

/// An argument `Coordinator::new` and `ClusterCoordinator::bind` take and
/// ignore: there is no member partition to rebalance. It exists because
/// `benchmark/` passes one to both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalancePolicy {
    /// The only value.
    #[default]
    Bfs,
}

/// Wire framing selected by `DRQOS_WIRE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Newline-delimited text grammar (the default).
    #[default]
    Text,
    /// Length-prefixed binary frames.
    Binary,
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvVar {
    /// The variable name (always `DRQOS_`-prefixed).
    pub name: &'static str,
    /// Which part of the workspace consumes it.
    pub consumed_by: &'static str,
    /// The effective default when unset.
    pub default: &'static str,
    /// What setting it does.
    pub doc: &'static str,
}

/// Every `DRQOS_*` variable the workspace reads, in table order.
///
/// `drqos-lint` cross-checks this list against the README's environment
/// table and flags any `std::env` read of a `DRQOS_*` name that does not
/// go through this module.
pub fn registry() -> &'static [EnvVar] {
    &[
        EnvVar {
            name: THREADS,
            consumed_by: "`drqos-bench` sweeps",
            default: "all cores",
            doc: "bounds sweep worker threads (`1` forces sequential; \
                  results are thread-count-independent)",
        },
        EnvVar {
            name: CHECKED,
            consumed_by: "churn harness / testkit",
            default: "`debug_assertions`",
            doc: "`1` runs `Network::validate` after every churn event",
        },
        EnvVar {
            name: BLESS,
            consumed_by: "golden-trace tests",
            default: "`0` (off)",
            doc: "`1` rewrites `tests/golden/*.txt` instead of comparing",
        },
        EnvVar {
            name: QUEUE_DEPTH,
            consumed_by: "`drqosd`, `drqos-clusterd` members",
            default: "`1024`",
            doc: "requests waiting for the engine or holding it; \
                  one more is answered `BUSY`",
        },
        EnvVar {
            name: WIRE,
            consumed_by: "`drqosd`, `drqos-clusterd` members / loadgen",
            default: "`text`",
            doc: "`binary` switches the daemon to length-prefixed binary \
                  framing (see SERVICE.md); any other value means text",
        },
        EnvVar {
            name: SCENARIO,
            consumed_by: "loadgen",
            default: "`baseline`",
            doc: "adversarial workload scenario: `baseline`, \
                  `flash-crowd`, `diurnal`, `pareto`, or `srlg` \
                  (unrecognized values fall back to `baseline`)",
        },
        EnvVar {
            name: SRLG_COUNT,
            consumed_by: "`drqosd`, `drqos-clusterd`",
            default: "`0` (none)",
            doc: "shared-risk link groups to derive from the seed and \
                  register at startup; `FAIL-SRLG g` fires group g",
        },
        EnvVar {
            name: SRLG_SIZE,
            consumed_by: "`drqosd`, `drqos-clusterd`",
            default: "`3`",
            doc: "links per derived shared-risk group (minimum 1)",
        },
    ]
}

/// The one gated read every accessor funnels through. Panics (in tests)
/// on a name missing from [`registry`], so an accessor cannot be added
/// without registering its variable.
fn read(name: &str) -> Option<String> {
    debug_assert!(
        registry().iter().any(|v| v.name == name),
        "env var {name} is not in the drqos_core::env registry"
    );
    std::env::var(name).ok()
}

/// The raw value of a *registered* variable, for tests that save and
/// restore the environment around a scoped override.
///
/// # Panics
///
/// Panics when `name` is not in [`registry`] — unregistered reads must
/// not exist, even in tests.
pub fn raw(name: &str) -> Option<String> {
    assert!(
        registry().iter().any(|v| v.name == name),
        "env var {name} is not in the drqos_core::env registry"
    );
    read(name)
}

fn parse_threads(v: &str) -> usize {
    v.trim().parse::<usize>().unwrap_or(1).max(1)
}

fn parse_truthy(v: &str) -> bool {
    matches!(v, "1" | "true" | "on" | "yes")
}

fn parse_positive(v: &str, default: usize) -> usize {
    v.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// `DRQOS_THREADS`: `Some(n)` (minimum 1) when set, `None` when unset
/// (callers fall back to the machine's available parallelism).
pub fn threads() -> Option<usize> {
    read(THREADS).map(|v| parse_threads(&v))
}

/// `DRQOS_CHECKED`: `Some(true)` for `1`/`true`/`on`/`yes`, `Some(false)`
/// for any other set value, `None` when unset (callers fall back to
/// `cfg!(debug_assertions)`).
pub fn checked() -> Option<bool> {
    read(CHECKED).map(|v| parse_truthy(&v))
}

/// `DRQOS_BLESS`: `true` only for the exact value `1`.
pub fn bless() -> bool {
    read(BLESS).is_some_and(|v| v == "1")
}

/// `DRQOS_QUEUE_DEPTH` (minimum 1; default `DEFAULT_QUEUE_DEPTH`).
pub fn queue_depth() -> usize {
    read(QUEUE_DEPTH).map_or(DEFAULT_QUEUE_DEPTH, |v| {
        parse_positive(&v, DEFAULT_QUEUE_DEPTH)
    })
}

fn parse_wire(v: &str) -> WireMode {
    if v.trim().eq_ignore_ascii_case("binary") {
        WireMode::Binary
    } else {
        WireMode::Text
    }
}

/// `DRQOS_WIRE`: [`WireMode::Binary`] for `binary` (case-insensitive),
/// [`WireMode::Text`] otherwise.
pub fn wire() -> WireMode {
    read(WIRE).map_or(WireMode::Text, |v| parse_wire(&v))
}

fn parse_scenario(v: &str) -> crate::scenario::ScenarioKind {
    crate::scenario::ScenarioKind::parse(v).unwrap_or(crate::scenario::ScenarioKind::Baseline)
}

/// `DRQOS_SCENARIO`: the selected [`crate::scenario::ScenarioKind`]
/// (case-insensitive name; unknown values and unset both mean
/// [`crate::scenario::ScenarioKind::Baseline`]).
pub fn scenario() -> crate::scenario::ScenarioKind {
    read(SCENARIO).map_or(crate::scenario::ScenarioKind::Baseline, |v| {
        parse_scenario(&v)
    })
}

fn parse_non_negative(v: &str, default: usize) -> usize {
    v.trim().parse::<usize>().unwrap_or(default)
}

/// `DRQOS_SRLG_COUNT` (zero allowed = no groups; default
/// `DEFAULT_SRLG_COUNT`).
pub fn srlg_count() -> usize {
    read(SRLG_COUNT).map_or(DEFAULT_SRLG_COUNT, |v| {
        parse_non_negative(&v, DEFAULT_SRLG_COUNT)
    })
}

/// `DRQOS_SRLG_SIZE` (minimum 1; default `DEFAULT_SRLG_SIZE`).
pub fn srlg_size() -> usize {
    read(SRLG_SIZE).map_or(DEFAULT_SRLG_SIZE, |v| parse_positive(&v, DEFAULT_SRLG_SIZE))
}

/// The README environment table, rendered from [`registry`]. The README
/// commits this text between `<!-- env-table:begin -->` and
/// `<!-- env-table:end -->` markers; `drqos-lint` (and the
/// `lint_clean` tier-1 test) fail when the committed table drifts from
/// this output.
pub fn readme_table() -> String {
    let mut out =
        String::from("| Variable | Consumed by | Default | Effect |\n|---|---|---|---|\n");
    for var in registry() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            var.name, var.consumed_by, var.default, var.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_prefixed_unique_and_documented() {
        let vars = registry();
        let mut names: Vec<&str> = vars.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), vars.len(), "duplicate registry entry");
        for v in vars {
            assert!(v.name.starts_with("DRQOS_"), "{} not prefixed", v.name);
            assert!(!v.doc.is_empty() && !v.default.is_empty() && !v.consumed_by.is_empty());
        }
    }

    // The parsing helpers are tested as pure functions: mutating the real
    // process environment would race with other tests in this binary that
    // read it (e.g. the NetworkConfig default).
    #[test]
    fn threads_parsing_matches_legacy_semantics() {
        assert_eq!(parse_threads("4"), 4);
        assert_eq!(parse_threads(" 8 "), 8);
        assert_eq!(parse_threads("0"), 1);
        assert_eq!(parse_threads("garbage"), 1);
    }

    #[test]
    fn truthy_parsing_matches_legacy_semantics() {
        for v in ["1", "true", "on", "yes"] {
            assert!(parse_truthy(v));
        }
        for v in ["0", "TRUE", " 1", "2", ""] {
            assert!(!parse_truthy(v));
        }
    }

    #[test]
    fn positive_parsing_matches_legacy_semantics() {
        assert_eq!(parse_positive("32", 64), 32);
        assert_eq!(parse_positive("0", 64), 64);
        assert_eq!(parse_positive("x", 64), 64);
        assert_eq!(parse_positive(" 7 ", 64), 7);
    }

    #[test]
    fn wire_parsing_defaults_to_text() {
        assert_eq!(parse_wire("binary"), WireMode::Binary);
        assert_eq!(parse_wire(" BINARY "), WireMode::Binary);
        for v in ["text", "", "0", "frames"] {
            assert_eq!(parse_wire(v), WireMode::Text);
        }
    }

    #[test]
    fn scenario_parsing_falls_back_to_baseline() {
        use crate::scenario::ScenarioKind;
        assert_eq!(parse_scenario("flash-crowd"), ScenarioKind::FlashCrowd);
        assert_eq!(parse_scenario(" SRLG "), ScenarioKind::SrlgChurn);
        assert_eq!(parse_scenario("pareto"), ScenarioKind::ParetoHolding);
        for v in ["", "garbage", "baseline"] {
            assert_eq!(parse_scenario(v), ScenarioKind::Baseline);
        }
    }

    #[test]
    fn srlg_parsing_matches_the_other_knobs() {
        assert_eq!(parse_non_negative("0", 0), 0);
        assert_eq!(parse_non_negative(" 4 ", 0), 4);
        assert_eq!(parse_non_negative("x", 0), 0);
        assert_eq!(parse_positive("2", DEFAULT_SRLG_SIZE), 2);
        assert_eq!(parse_positive("0", DEFAULT_SRLG_SIZE), DEFAULT_SRLG_SIZE);
    }

    #[test]
    fn readme_table_lists_every_variable_once() {
        let table = readme_table();
        for v in registry() {
            assert_eq!(
                table.matches(v.name).count(),
                1,
                "{} must appear exactly once",
                v.name
            );
        }
        assert!(table.starts_with("| Variable |"));
    }

    #[test]
    #[should_panic(expected = "not in the drqos_core::env registry")]
    fn raw_rejects_unregistered_names() {
        let _ = raw("DRQOS_NOT_A_REAL_KNOB");
    }
}
