//! `strip-sim` — a small, deterministic discrete-event simulation kernel.
//!
//! This crate replaces the DeNet simulation language used in the original
//! SIGMOD 1995 study "Applying Update Streams in a Soft Real-Time Database
//! System". It provides exactly the facilities a detailed event-driven
//! performance model needs and nothing else:
//!
//! * [`time::SimTime`] — a totally ordered simulated clock.
//! * [`event::EventQueue`] — a stable (FIFO tie-breaking) future-event list.
//! * [`engine::Engine`] / [`engine::Simulation`] — the run loop.
//! * [`rng`] — self-contained, cross-platform deterministic generators
//!   (SplitMix64 seeding, xoshiro256++ sampling, named sub-streams).
//! * [`dist`] — the distributions the paper's workload model requires.
//! * [`stats`] — exact time-weighted integrals (for staleness fractions),
//!   one-pass mean/variance, histograms.
//!
//! # Example
//!
//! ```
//! use strip_sim::engine::{Ctx, Engine, Simulation};
//! use strip_sim::time::SimTime;
//!
//! struct Pinger {
//!     count: u32,
//! }
//!
//! impl Simulation for Pinger {
//!     type Event = ();
//!     fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
//!         self.count += 1;
//!         ctx.schedule_in(1.0, ());
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let mut sim = Pinger { count: 0 };
//! engine.prime(SimTime::ZERO, ());
//! engine.run_until(&mut sim, SimTime::from_secs(10.0));
//! assert_eq!(sim.count, 11); // t = 0, 1, ..., 10
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{ClampedNormal, Distribution, Exponential, Normal, Uniform, Zipf};
pub use engine::{Ctx, Engine, Simulation};
pub use event::EventQueue;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::{Histogram, TimeWeighted, Welford};
pub use time::SimTime;
