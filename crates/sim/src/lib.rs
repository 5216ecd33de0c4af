//! # neon-sim
//!
//! Deterministic discrete-event simulation engine used by the
//! disengaged-scheduling reproduction.
//!
//! The engine is deliberately minimal: a nanosecond-resolution simulated
//! clock ([`SimTime`] / [`SimDuration`]), a total-ordered event queue
//! ([`EventQueue`]) with stable FIFO tie-breaking, a seeded random-number
//! wrapper ([`DetRng`]) so that every experiment is exactly reproducible,
//! and a lightweight trace recorder ([`Trace`]).
//!
//! The modeled system (GPU, kernel interposition, schedulers, workloads)
//! lives in the `neon-gpu`, `neon-core` and `neon-workloads` crates; this
//! crate knows nothing about them.
//!
//! # Example
//!
//! ```
//! use neon_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! queue.schedule(SimTime::ZERO + SimDuration::from_micros(1), "first");
//!
//! let (t, event) = queue.pop().unwrap();
//! assert_eq!(event, "first");
//! assert_eq!(t.as_micros(), 1);
//! ```

pub mod event;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
