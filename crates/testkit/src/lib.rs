//! # drqos-testkit
//!
//! Deterministic chaos harness for the DR-connection stack. Four layers:
//!
//! * [`fuzz`] — a seeded **operation-sequence fuzzer** that drives
//!   [`drqos_core::network::Network`] through random interleavings of
//!   establish/release/fail/repair operations against the [`reference`]
//!   model, with automatic shrinking of failing sequences down to the
//!   shortest reproducer (printed as a copy-pasteable scenario).
//! * [`oracle`] — pluggable **invariant checks** run after every
//!   operation: the core accounting recomputation plus Δ-grid membership,
//!   liveness of committed paths, epoch monotonicity, and drop-counter
//!   conservation.
//! * [`golden`] — a **golden-trace harness**: canonical scenarios are
//!   serialized to a hand-rolled text format and compared byte-exact
//!   against files blessed into `tests/golden/` (update with
//!   `DRQOS_BLESS=1`).
//! * [`session`] — a **protocol-session replay** helper rendering
//!   command/response transcripts (`> cmd` / `< resp`) for golden
//!   comparison of line protocols; the handler is injected as a closure,
//!   so the testkit stays agnostic of `drqos-service`.
//!
//! A fifth, cross-crate layer lives in [`diff`]: fuzzer-generated churn
//! workloads whose simulated steady-state average bandwidth is compared
//! against the `drqos-analysis` Markov prediction within a stated
//! tolerance band.
//!
//! The sixth layer, [`lockstep`], is differential: every fast path that
//! claims exact equivalence to the sequential network — the route cache,
//! and member daemons on in-process links to a churned federation's
//! [`drqos_service::clusterd::LocalCoordinator`] — is a
//! [`lockstep::Subject`] replayed against a sequential oracle by the one
//! [`lockstep::Lockstep`] loop, compared after every step on results,
//! drop counters, epochs and full snapshots of every network view, and
//! shrunk on divergence
//! (`fuzz --diff-cache | --diff-cluster N`
//! in CI). Each subject registers mutants the loop must catch
//! (`fuzz --self-test`), which keeps the detector itself honest.
//!
//! Everything is deterministic given the seeds; there are no external
//! dependencies and no wall-clock or thread-count influence on any
//! generated artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod fuzz;
pub mod golden;
pub mod lockstep;
pub mod oracle;
pub mod reference;
pub mod session;

pub use diff::{run_diff, DiffCase, DiffResult};
pub use fuzz::{
    run_fuzz, run_sequence, FuzzConfig, FuzzFailure, FuzzOutcome, Harness, InjectedFault, Op,
    OpMix, Scenario, SequenceFailure,
};
pub use golden::{verify_golden, TraceRecorder};
pub use lockstep::{Case, Divergence, Lockstep, Subject, SubjectRow};
pub use oracle::{InvariantCheck, Oracle, Violation};
pub use reference::ReferenceModel;
