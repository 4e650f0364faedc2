//! The drqos benchmark: six seeded workloads driven from socket to
//! ledger, end-to-end metrics with tracing off, and an outside-in layer
//! trace. See `README.md` next to this crate's manifest.

pub mod cli;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod ops;
pub mod report;
pub mod slices;
pub mod stats;
