//! # farm-des — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation substrate used by the
//! FARM storage-reliability simulator. The original paper used PARSEC, a
//! C-based parallel simulation language; reliability simulation only needs
//! a sequential event queue per Monte-Carlo trial, so this crate provides:
//!
//! * [`SimTime`] / [`Duration`] — simulated time in seconds with total order,
//! * [`EventQueue`] — a priority queue with deterministic FIFO
//!   tie-breaking for simultaneous events; what is scheduled before the
//!   first pop (a trial's up-front failures) is sorted once instead of
//!   heap-ordered,
//! * [`RngStream`] — reproducible, independently seeded random-number
//!   streams (one per logical entity) built on a SplitMix64 seed sequence,
//! * [`stats`] — online mean/variance accumulators and binomial
//!   confidence intervals used when aggregating trials, with exact
//!   one-line codecs read back by the strict [`compact`] reader.
//!
//! Parallelism happens *across* trials (each trial owns one `EventQueue`),
//! which keeps every trial bit-for-bit reproducible from its seed.
//!
//! ```
//! use farm_des::{EventQueue, SimTime, Duration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_secs(5.0), "five");
//! q.schedule(SimTime::ZERO + Duration::from_secs(1.0), "one");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "one");
//! assert_eq!(t.as_secs(), 1.0);
//! ```

pub mod compact;
pub mod hist;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use hist::Histogram;
pub use queue::EventQueue;
pub use rng::{derive_seed, RngStream, SeedFactory};
pub use time::{Duration, SimTime};
