//! # drqos-markov
//!
//! Markov-chain modelling and solving for the `drqos` workspace — the
//! in-repo replacement for the SHARPE package the paper uses to solve its
//! elastic-QoS bandwidth model.
//!
//! * [`ctmc`] — continuous-time chains ([`ctmc::Ctmc`],
//!   [`ctmc::CtmcBuilder`]), irreducibility and recurrent-class analysis.
//! * [`steady_state`] — GTH elimination (default), power iteration, direct
//!   LU, Gauss–Seidel; [`steady_state::solve`] handles transient states.
//! * [`transient`] — uniformization for finite-horizon distributions.
//! * [`hitting`] — mean first-passage times (expected recovery times).
//! * [`birth_death`] — closed-form product solutions used for
//!   cross-validation (including Erlang-B).
//! * [`linalg`] — the dense LU kernel underpinning the direct solver.
//!
//! # Example: the paper's 5-state chain shape
//!
//! ```
//! use drqos_markov::ctmc::CtmcBuilder;
//! use drqos_markov::steady_state;
//!
//! // Downward retreats to state 0, upward single-increment climbs.
//! let mut b = CtmcBuilder::new(5);
//! for i in 1..5 {
//!     b = b.rate(i, 0, 0.4)?; // arrivals reclaim extras
//! }
//! for i in 0..4 {
//!     b = b.rate(i, i + 1, 1.0)?; // terminations free extras
//! }
//! let chain = b.build()?;
//! let ss = steady_state::solve(&chain)?;
//! let avg_level = ss.expectation(|i| i as f64);
//! assert!(avg_level > 0.0 && avg_level < 4.0);
//! # Ok::<(), drqos_markov::error::MarkovError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Dense matrix kernels read more clearly with explicit index loops.
#![allow(clippy::needless_range_loop)]

pub mod birth_death;
pub mod ctmc;
pub mod error;
pub mod hitting;
pub mod linalg;
pub mod steady_state;
pub mod transient;

pub use ctmc::{Ctmc, CtmcBuilder};
pub use error::MarkovError;
pub use steady_state::{solve, SteadyState};
