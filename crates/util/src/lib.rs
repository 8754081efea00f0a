//! Shared utilities for the `cachemap` workspace.
//!
//! This crate holds the small, dependency-free building blocks used across
//! the reproduction of *"Computation Mapping for Multi-Level Storage Cache
//! Hierarchies"* (HPDC 2010):
//!
//! * [`bitset`] — dense bitsets used for the r-bit **iteration tags** of
//!   Section 4.2 of the paper, plus the count-vector "cluster tags"
//!   (bitwise sums) and their dot products used by the clustering and
//!   scheduling algorithms (Figures 5 and 15).
//! * [`hash`] — an Fx-style fast hasher for integer-keyed maps, following
//!   the Rust Performance Book guidance for hot hash tables.
//! * [`stats`] — summary statistics (mean, geometric mean, normalization)
//!   used when reporting experiment results.
//! * [`table`] — a fixed-width plain-text table printer shared by the
//!   experiment harness so every figure/table prints in a uniform format.
//! * [`json`] — a dependency-free JSON value tree, writer, and parser with
//!   deterministic output bytes (used for reports and the service's
//!   wire format).
//! * [`fingerprint`] — stable 128-bit content fingerprints of canonical
//!   JSON (the mapping service's memoization key).
//! * [`lru`] — a sharded, thread-safe, exact-LRU cache (the mapping
//!   service's memo store).
//! * [`coalesce`] — request coalescing (stampede protection): concurrent
//!   misses on one key rendezvous so exactly one caller computes.
//! * [`rng`] — a seeded xorshift64* generator for deterministic
//!   test-input generation and the socket fault shim.
//! * [`check`] — a miniature property-test harness built on [`rng`].
//! * [`clock`] — real or simulated time behind one `Arc<Clock>` handle,
//!   shared by the async front end's event loop and the tests driving
//!   its deadlines (simulated tests never sleep).
//! * [`timer`] — deadlines in order (O(log n) schedule, cancel and
//!   earliest-deadline query) for the async front end's idle/read
//!   deadlines.
//! * [`bufpool`] — a bounded pool of reusable byte buffers for the
//!   async front end's per-connection read buffers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod bufpool;
pub mod check;
pub mod clock;
pub mod coalesce;
pub mod fingerprint;
pub mod hash;
pub mod json;
pub mod lru;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timer;

pub use bitset::{BitSet, CountVec};
pub use bufpool::BufferPool;
pub use clock::Clock;
pub use coalesce::CoalesceMap;
pub use fingerprint::{canonical, fingerprint_json, Fingerprint};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::{Json, ToJson};
pub use lru::ShardedLru;
pub use rng::XorShift64;
pub use timer::{TimerId, TimerQueue};
