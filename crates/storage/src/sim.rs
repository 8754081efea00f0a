//! Top-level simulation facade and reporting.
//!
//! [`Simulator`] wires a [`PlatformConfig`] to its [`HierarchyTree`],
//! runs a [`MappedProgram`] through the event engine, and condenses the
//! raw statistics into a [`SimReport`] carrying exactly the three result
//! families Section 5.1 reports: per-level storage-cache miss rates, I/O
//! latency, and overall execution time.

use crate::config::{ConfigError, PlatformConfig};
use crate::engine::{Engine, EngineError, EvictionTally, MappedProgram, RunStats};
use crate::topology::HierarchyTree;
use cachemap_obs::Recorder;
use cachemap_util::stats::HitMiss;
use cachemap_util::{Json, ToJson};
use std::fmt;

/// Why a simulation could not be constructed or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The platform configuration is invalid.
    Config(ConfigError),
    /// The engine rejected the program or deadlocked.
    Engine(EngineError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Engine(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        // Collapse a nested config error to the top-level variant so
        // callers match one layer.
        match e {
            EngineError::Config(c) => SimError::Config(c),
            other => SimError::Engine(other),
        }
    }
}

/// Condensed results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cumulative L1 (client cache) statistics.
    pub l1: HitMiss,
    /// Cumulative L2 (I/O-node cache) statistics.
    pub l2: HitMiss,
    /// Cumulative L3 (storage-node cache) statistics.
    pub l3: HitMiss,
    /// L1 eviction/writeback counters.
    pub l1_evictions: EvictionTally,
    /// L2 eviction/writeback counters.
    pub l2_evictions: EvictionTally,
    /// L3 eviction/writeback counters.
    pub l3_evictions: EvictionTally,
    /// Application I/O latency: total time all clients spent performing
    /// I/O (includes storage-cache access cycles, per Section 5.1), ns.
    pub io_latency_ns: u64,
    /// Overall execution time: the latest client completion, ns.
    pub exec_time_ns: u64,
    /// Per-client completion times, ns.
    pub per_client_finish_ns: Vec<u64>,
    /// Per-client I/O time, ns.
    pub per_client_io_ns: Vec<u64>,
    /// Disk reads serviced.
    pub disk_reads: u64,
    /// Fraction of disk reads that were sequential.
    pub disk_sequential_fraction: f64,
    /// Disk write-backs serviced.
    pub disk_writes: u64,
    /// Chunks prefetched into storage caches by server read-ahead.
    pub prefetched_chunks: u64,
}

impl SimReport {
    fn from_run(stats: RunStats) -> Self {
        let io_latency_ns = stats.per_client_io_ns.iter().sum();
        let exec_time_ns = stats
            .per_client_finish_ns
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let seq_frac = if stats.disk_reads == 0 {
            0.0
        } else {
            stats.disk_sequential_reads as f64 / stats.disk_reads as f64
        };
        SimReport {
            l1: stats.l1,
            l2: stats.l2,
            l3: stats.l3,
            l1_evictions: stats.l1_evictions,
            l2_evictions: stats.l2_evictions,
            l3_evictions: stats.l3_evictions,
            io_latency_ns,
            exec_time_ns,
            per_client_finish_ns: stats.per_client_finish_ns,
            per_client_io_ns: stats.per_client_io_ns,
            disk_reads: stats.disk_reads,
            disk_sequential_fraction: seq_frac,
            disk_writes: stats.disk_writes,
            prefetched_chunks: stats.prefetched_chunks,
        }
    }

    /// L1 miss rate in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// L2 miss rate in `[0, 1]` (relative to L2 accesses, i.e. L1 misses).
    pub fn l2_miss_rate(&self) -> f64 {
        self.l2.miss_rate()
    }

    /// L3 miss rate in `[0, 1]` (relative to L3 accesses, i.e. L2 misses).
    pub fn l3_miss_rate(&self) -> f64 {
        self.l3.miss_rate()
    }

    /// I/O latency in milliseconds.
    pub fn io_latency_ms(&self) -> f64 {
        self.io_latency_ns as f64 / 1e6
    }

    /// Execution time in milliseconds.
    pub fn exec_time_ms(&self) -> f64 {
        self.exec_time_ns as f64 / 1e6
    }
}

fn hitmiss_json(hm: &HitMiss) -> Json {
    Json::object(vec![
        ("hits", Json::UInt(hm.hits)),
        ("misses", Json::UInt(hm.misses)),
    ])
}

fn evictions_json(t: &EvictionTally) -> Json {
    Json::object(vec![
        ("evictions", Json::UInt(t.evictions)),
        ("writebacks", Json::UInt(t.writebacks)),
    ])
}

impl ToJson for SimReport {
    /// Deterministic serialization: two byte-identical reports describe
    /// byte-identical runs, which is how the reproducibility property
    /// tests compare runs.
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("l1", hitmiss_json(&self.l1)),
            ("l2", hitmiss_json(&self.l2)),
            ("l3", hitmiss_json(&self.l3)),
            ("io_latency_ns", Json::UInt(self.io_latency_ns)),
            ("exec_time_ns", Json::UInt(self.exec_time_ns)),
            (
                "per_client_finish_ns",
                Json::Array(
                    self.per_client_finish_ns
                        .iter()
                        .map(|&t| Json::UInt(t))
                        .collect(),
                ),
            ),
            (
                "per_client_io_ns",
                Json::Array(
                    self.per_client_io_ns
                        .iter()
                        .map(|&t| Json::UInt(t))
                        .collect(),
                ),
            ),
            ("disk_reads", Json::UInt(self.disk_reads)),
            (
                "disk_sequential_fraction",
                Json::Float(self.disk_sequential_fraction),
            ),
            ("disk_writes", Json::UInt(self.disk_writes)),
            (
                "evictions",
                Json::object(vec![
                    ("l1", evictions_json(&self.l1_evictions)),
                    ("l2", evictions_json(&self.l2_evictions)),
                    ("l3", evictions_json(&self.l3_evictions)),
                ]),
            ),
            ("prefetched_chunks", Json::UInt(self.prefetched_chunks)),
        ])
    }
}

/// One-platform simulator: owns the config and its hierarchy tree.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: PlatformConfig,
    tree: HierarchyTree,
}

impl Simulator {
    /// Builds a simulator for a platform configuration.
    pub fn new(cfg: PlatformConfig) -> Result<Self, SimError> {
        let tree = HierarchyTree::from_config(&cfg)?;
        Ok(Simulator { cfg, tree })
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The storage cache hierarchy tree (shared with the mapper).
    pub fn tree(&self) -> &HierarchyTree {
        &self.tree
    }

    /// Runs a mapped program on a fresh platform state (cold caches).
    pub fn run(&self, program: &MappedProgram) -> Result<SimReport, SimError> {
        let stats = Engine::new(&self.cfg, &self.tree)?.run(program)?;
        Ok(SimReport::from_run(stats))
    }

    /// Like [`Simulator::run`] but feeds observations into `rec`. With a
    /// disabled recorder this is exactly [`Simulator::run`]: the engine
    /// drops the recorder reference up front, so the run (and the
    /// resulting report) is bit-identical to an unobserved one.
    pub fn run_observed(
        &self,
        program: &MappedProgram,
        rec: &mut Recorder,
    ) -> Result<SimReport, SimError> {
        let stats = Engine::new(&self.cfg, &self.tree)?
            .with_recorder(rec)
            .run(program)?;
        Ok(SimReport::from_run(stats))
    }

    /// Runs a mapped program and also captures the full access trace
    /// (for reuse-distance analysis and debugging).
    pub fn run_traced(
        &self,
        program: &MappedProgram,
    ) -> Result<(SimReport, crate::trace::Trace), SimError> {
        let (stats, trace) = Engine::new(&self.cfg, &self.tree)?.run_traced(program)?;
        Ok((SimReport::from_run(stats), trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClientOp;

    fn sim() -> Simulator {
        Simulator::new(PlatformConfig::tiny()).unwrap()
    }

    #[test]
    fn report_rates_and_times() {
        let sim = sim();
        let mut prog = MappedProgram::new(4);
        prog.per_client[0] = vec![
            ClientOp::Access {
                chunk: 0,
                write: false,
            },
            ClientOp::Access {
                chunk: 0,
                write: false,
            },
            ClientOp::Compute { ns: 1000 },
        ];
        let rep = sim.run(&prog).unwrap();
        assert_eq!(rep.l1.accesses(), 2);
        assert!((rep.l1_miss_rate() - 0.5).abs() < 1e-12);
        assert!(rep.io_latency_ns > 0);
        assert!(rep.exec_time_ns >= rep.per_client_finish_ns[0]);
        assert_eq!(rep.disk_reads, 1);
        assert!(rep.exec_time_ms() > 0.0);
    }

    #[test]
    fn cold_caches_between_runs() {
        let sim = sim();
        let mut prog = MappedProgram::new(4);
        prog.per_client[0] = vec![ClientOp::Access {
            chunk: 5,
            write: false,
        }];
        let a = sim.run(&prog).unwrap();
        let b = sim.run(&prog).unwrap();
        assert_eq!(a.l1.misses, b.l1.misses, "runs must not share cache state");
        assert_eq!(a.io_latency_ns, b.io_latency_ns);
    }

    #[test]
    fn exec_time_is_max_over_clients() {
        let sim = sim();
        let mut prog = MappedProgram::new(4);
        prog.per_client[0] = vec![ClientOp::Compute { ns: 10 }];
        prog.per_client[3] = vec![ClientOp::Compute { ns: 99 }];
        let rep = sim.run(&prog).unwrap();
        assert_eq!(rep.exec_time_ns, 99);
    }

    #[test]
    fn invalid_config_is_reported_not_panicked() {
        let mut cfg = PlatformConfig::tiny();
        cfg.chunk_bytes = 0;
        let err = Simulator::new(cfg).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn report_json_is_deterministic() {
        let sim = sim();
        let mut prog = MappedProgram::new(4);
        prog.per_client[0] = (0..10)
            .map(|i| ClientOp::Access {
                chunk: i % 3,
                write: i % 2 == 0,
            })
            .collect();
        let a = sim.run(&prog).unwrap().to_json().to_string_compact();
        let b = sim.run(&prog).unwrap().to_json().to_string_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"exec_time_ns\""));
    }
}
