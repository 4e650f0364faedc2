//! drqos-service: a long-lived daemon serving DR-connection operations
//! over a line-based TCP protocol, plus a closed-loop load generator.
//!
//! The daemon (`drqosd`) owns one [`drqos_core::network::Network`] behind
//! one lock: each connection's reader thread serves its own requests, one
//! locked engine call apiece, so requests apply one at a time and every
//! response (except `STATS`) is a deterministic function of the command
//! sequence. More requests waiting for the engine than
//! `DRQOS_QUEUE_DEPTH` allows are surfaced to the client as `BUSY`
//! backpressure rather than unbounded waiting.
//!
//! Module map:
//!
//! * [`protocol`] — request grammar, response rendering, parsing.
//! * [`error`] — protocol-level error codes 1–99 (domain errors use
//!   `drqos_core::wire` codes 100–499).
//! * [`frame`] — the binary wire framing (`DRQOS_WIRE=binary`):
//!   length-prefixed frames carrying the same verbs, codes, and payloads
//!   as the text mode.
//! * [`genesis`] — the flags and environment that fix a daemon's genesis
//!   network, and the one builder `drqosd` and both `drqos-clusterd`
//!   roles boot through.
//! * [`engine`] — maps requests onto the `Network` API; owns metrics.
//! * [`metrics`] — log₂-bucketed latency histograms and per-op counters.
//! * `conn` — the one polled reader and reply writer behind every
//!   served connection (both framings, every listener), and the
//!   accept loop and poison-shrugging lock they share.
//! * [`server`] — the client front of `drqosd` and of every federation
//!   member: TCP accept and reader plumbing, the `BUSY` count, and
//!   graceful, invariant-checked shutdown.
//! * [`client`] — the one protocol client, in either framing: connect,
//!   send a command line, read its reply as a text line.
//! * [`loadgen`] — the closed-loop multi-client load generator used by
//!   `drqos-loadgen` and the smoke tests, on [`client`] plus its `BUSY`
//!   backoff.
//! * [`clusterd`] — the federation daemons (`drqos-clusterd`): a
//!   coordinator owning the authoritative network and its oplog, and
//!   members — a [`server`] whose engine commits at the coordinator —
//!   serving from full replicas synced over the inter-daemon wire of
//!   `drqos-cluster`.
//!
//! See `SERVICE.md` at the repo root for the wire grammar and an example
//! session.

pub mod client;
pub mod clusterd;
mod conn;
pub mod engine;
pub mod error;
pub mod frame;
pub mod genesis;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
