//! # drqos-testkit
//!
//! Deterministic chaos harness for the DR-connection stack. Its layers:
//!
//! * [`lockstep`] — the **one seeded driver**. A table of subjects
//!   ([`lockstep::subjects`]) is each replayed against a sequential
//!   oracle network by the one [`lockstep::Lockstep`] loop, compared
//!   after every step on results, drop counters, epochs and full
//!   snapshots of every network view, and shrunk on the first failure to
//!   a copy-pasteable reproducer. The rows: `invariants`, the network
//!   checked after every operation against the [`reference`](mod@reference) model and
//!   by its own `Network::check_invariants` (`fuzz --seqs N`); and
//!   `cluster`, member daemons on in-process links to a churned
//!   federation's [`drqos_service::clusterd::LocalCoordinator`]
//!   (`fuzz --diff-cluster N`). Each row registers mutants the loop must
//!   catch (`fuzz --self-test`), which keeps the detector itself honest.
//! * [`fuzz`] — the **case model** every row shares: a case seed fixes a
//!   scenario and a stream of establish/release/fail/repair operations
//!   whose operands resolve against the state they meet, so any
//!   subsequence is a case and failures shrink.
//! * [`reference`](mod@reference) — an independent mirror of the network's observable
//!   contract: live set, per-link liveness and minima, QoS range and
//!   Δ-grid, committed primaries and backups on live links, and exact drop
//!   counter and topology epoch.
//! * [`golden`] — a **golden-trace harness**: canonical scenarios are
//!   serialized to a hand-rolled text format and compared byte-exact
//!   against files blessed into `tests/golden/` (update with
//!   `DRQOS_BLESS=1`).
//! * [`session`] — a **protocol-session replay** helper rendering
//!   command/response transcripts (`> cmd` / `< resp`) for golden
//!   comparison of line protocols; the handler is injected as a closure,
//!   so the testkit stays agnostic of `drqos-service`.
//! * [`diff`] — a cross-crate layer: fuzzer-generated churn workloads
//!   whose simulated steady-state average bandwidth is compared against
//!   the `drqos-analysis` Markov prediction within a stated tolerance
//!   band (`fuzz --diff N`).
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
pub mod reference;
pub mod session;

pub use diff::{run_diff, DiffCase, DiffResult};
pub use fuzz::{Op, OpMix, Scenario};
pub use golden::{verify_golden, TraceRecorder};
pub use lockstep::{Case, Divergence, Lockstep, Subject, SubjectRow};
pub use reference::ReferenceModel;
