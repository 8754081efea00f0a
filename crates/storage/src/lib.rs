//! Multi-level storage cache hierarchy simulator.
//!
//! The HPDC'10 paper evaluates its mapping scheme on a real cluster
//! (64 client nodes, 32 I/O nodes, 16 storage nodes, MPI-IO over PVFS,
//! LRU storage caches at every layer — Table 1). This crate is the
//! simulated substitute for that platform:
//!
//! * [`config`] — the Table 1 platform parameters, with a scaling knob so
//!   a several-hundred-GB experiment shrinks to seconds while preserving
//!   cache:data ratios;
//! * [`topology`] — the storage cache hierarchy tree of Figure 1/Section 4.3
//!   (client L1 → I/O node L2 → storage node L3, dummy root when there are
//!   multiple storage nodes), with the queries the mapper and the engine's
//!   routes need;
//! * [`cache`] — chunk-granularity caches behind the [`cache::ChunkCache`]
//!   trait, with five replacement policies (LRU as in the paper; FIFO,
//!   LFU, SLRU and LFUDA for ablations and the policy advisor),
//!   write-allocate and write-back dirty eviction;
//! * [`disk`] — seek + rotational-delay + transfer disk model with
//!   sequential-access detection, PVFS-style striping across storage
//!   nodes;
//! * [`engine`] — a deterministic discrete-event engine that serves the
//!   per-client operation streams' shared work (L1 misses, signals and
//!   waits) in global time order, modelling contention at shared caches
//!   and disks, while each client runs ahead through its computes and L1
//!   hits; per-hop link latency and bandwidth are part of its cost table;
//! * [`trace`] — optional access-trace capture and Mattson
//!   reuse-distance analysis (drives the calibration discussion in
//!   EXPERIMENTS.md);
//! * [`l2store`] — a crash-durable, append-only fingerprint→bytes store
//!   with per-record checksums, torn-tail-tolerant recovery, TTL, and
//!   durable (tombstoned) invalidation — the mapping service's disk L2;
//! * [`sim`] — the top-level [`sim::Simulator`] producing a
//!   [`sim::SimReport`] with per-level hit/miss statistics, I/O latency,
//!   execution time — exactly the three result types Section 5.1
//!   reports.
//!
//! Simulated time is integer **nanoseconds** (`u64`) for reproducibility.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod disk;
pub mod engine;
pub mod l2store;
pub mod sim;
pub mod topology;
pub mod trace;
pub mod wire;

pub use config::{ConfigError, PlatformConfig, PolicyKind};
pub use engine::{ClientOp, EngineError, EvictionTally, MappedProgram};
pub use l2store::{L2Config, L2Store, RecoveryStats};
pub use sim::{SimError, SimReport, Simulator};
pub use topology::{CacheLevel, HierarchyTree, NodeId};
