//! # drqos-sim
//!
//! A small, deterministic discrete-event simulation toolkit: the substrate
//! for the "detailed simulations" the paper uses to obtain its Markov-model
//! parameters.
//!
//! * [`rng`] — reproducible pseudo-random numbers (xoshiro256++), no global
//!   state, explicit seeding.
//! * [`dist`] — exponential and Pareto variates.
//! * [`time`] — validated virtual time ([`time::SimTime`]).
//! * [`engine`] — the event queue ([`engine::Simulator`]).
//! * [`srlg`] — seeded correlated-failure (shared-risk link group) churn.
//! * [`shrink`] — delta debugging of failing operation sequences.
//! * [`seam`] — the workspace's test seams: deliberate faults, armed one
//!   at a time per thread, and only in test builds.
//! * [`stats`] — time-weighted averages.
//!
//! # Example: an M/M/∞ arrival process
//!
//! ```
//! use drqos_sim::dist::{Distribution, Exponential};
//! use drqos_sim::engine::Simulator;
//! use drqos_sim::rng::Rng;
//! use drqos_sim::time::SimTime;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let arrivals = Exponential::new(1.0)?;
//! let holding = Exponential::new(0.5)?;
//!
//! let mut sim = Simulator::new();
//! sim.schedule(SimTime::ZERO + arrivals.sample(&mut rng), Ev::Arrival);
//!
//! let mut active = 0i64;
//! let mut peak = 0i64;
//! while let Some((_, ev)) = sim.pop() {
//!     match ev {
//!         Ev::Arrival => {
//!             active += 1;
//!             peak = peak.max(active);
//!             sim.schedule_in(holding.sample(&mut rng), Ev::Departure);
//!             if sim.processed() < 1000 {
//!                 sim.schedule_in(arrivals.sample(&mut rng), Ev::Arrival);
//!             }
//!         }
//!         Ev::Departure => active -= 1,
//!     }
//! }
//! assert!(peak > 0);
//! # Ok::<(), drqos_sim::dist::InvalidParameter>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod rng;
pub mod seam;
pub mod shrink;
pub mod srlg;
pub mod stats;
pub mod time;

pub use dist::{Distribution, Exponential};
pub use engine::Simulator;
pub use rng::Rng;
pub use stats::TimeWeighted;
pub use time::SimTime;
