//! Fault-injection plans for the storage hierarchy simulator.
//!
//! A [`FaultPlan`] is a serializable schedule of failures applied to a
//! run: node crashes at a simulated time, disk latency degradation,
//! cache-capacity degradation, and seeded transient access errors. The
//! engine applies events lazily, in the same global-time heap order it
//! uses for client operations, so a faulty run stays byte-for-byte
//! reproducible: the same seed and the same plan always produce the
//! identical [`FaultStats`].
//!
//! Failure semantics (documented here, implemented in
//! [`crate::engine`]):
//!
//! * **I/O-node crash** — the node's L2 cache contents are lost (dirty
//!   chunks are counted as lost-and-refetched); later accesses routed
//!   through it fail over to the lowest-indexed surviving sibling I/O
//!   node under the same storage parent, or go direct-to-storage when
//!   no sibling survives.
//! * **Storage-node crash** — the node's L3 cache is lost the same way.
//!   Its disks stay reachable (the crash models the cache-server
//!   daemon, not the enclosure), so later misses bypass L3 and stream
//!   from disk.
//! * **Disk degradation** — every disk of one storage node services
//!   requests `latency_factor`× slower from the event time on.
//! * **Cache degradation** — one cache shrinks to a smaller capacity;
//!   evicted dirty chunks are written back to the next level down
//!   asynchronously (they occupy the lower-level resource clocks but no
//!   client waits for them).
//! * **Transient errors** — each remote access (an L1 miss) draws from
//!   a seeded [`cachemap_util::XorShift64`]; an error is retried with
//!   capped exponential backoff charged to simulated time.

use crate::config::PlatformConfig;
use cachemap_util::{Json, ToJson};
use std::fmt;

/// Which cache a [`FaultEvent::CacheDegrade`] shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeLevel {
    /// A client (L1) cache; `node` is the client index.
    Client,
    /// An I/O-node (L2) cache; `node` is the I/O-node index.
    Io,
    /// A storage-node (L3) cache; `node` is the storage-node index.
    Storage,
}

impl DegradeLevel {
    fn label(&self) -> &'static str {
        match self {
            DegradeLevel::Client => "client",
            DegradeLevel::Io => "io",
            DegradeLevel::Storage => "storage",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        match s {
            "client" => Some(DegradeLevel::Client),
            "io" => Some(DegradeLevel::Io),
            "storage" => Some(DegradeLevel::Storage),
            _ => None,
        }
    }
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// I/O node `io` crashes at simulated time `at_ns`.
    IoNodeCrash {
        /// I/O-node index.
        io: usize,
        /// Simulated time of the crash, ns.
        at_ns: u64,
    },
    /// Storage node `storage` crashes at simulated time `at_ns`.
    StorageNodeCrash {
        /// Storage-node index.
        storage: usize,
        /// Simulated time of the crash, ns.
        at_ns: u64,
    },
    /// Every disk of storage node `storage` becomes `latency_factor`×
    /// slower from `at_ns` on.
    DiskDegrade {
        /// Storage-node index whose spindles degrade.
        storage: usize,
        /// Simulated time the degradation starts, ns.
        at_ns: u64,
        /// Service-time multiplier (≥ 1).
        latency_factor: u32,
    },
    /// One cache shrinks to `capacity_chunks` at `at_ns`.
    CacheDegrade {
        /// Which cache level.
        level: DegradeLevel,
        /// Node index within that level.
        node: usize,
        /// Simulated time the capacity drops, ns.
        at_ns: u64,
        /// New capacity in chunks (≥ 1).
        capacity_chunks: usize,
    },
}

impl FaultEvent {
    /// Simulated time at which the event fires.
    pub fn at_ns(&self) -> u64 {
        match *self {
            FaultEvent::IoNodeCrash { at_ns, .. }
            | FaultEvent::StorageNodeCrash { at_ns, .. }
            | FaultEvent::DiskDegrade { at_ns, .. }
            | FaultEvent::CacheDegrade { at_ns, .. } => at_ns,
        }
    }
}

/// Seeded transient access errors: each remote access fails with
/// probability `rate_ppm / 1_000_000` per attempt and is retried with
/// capped exponential backoff charged to simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFaults {
    /// Error probability per remote-access attempt, in parts per
    /// million. Must be below 1 000 000.
    pub rate_ppm: u32,
    /// RNG seed; the same seed reproduces the same error sequence.
    pub seed: u64,
}

/// Why a [`FaultPlan`] is inconsistent with a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event names an I/O node the platform does not have.
    IoIndexOutOfRange {
        /// Offending index.
        io: usize,
        /// Number of I/O nodes in the platform.
        num_io_nodes: usize,
    },
    /// An event names a storage node the platform does not have.
    StorageIndexOutOfRange {
        /// Offending index.
        storage: usize,
        /// Number of storage nodes in the platform.
        num_storage_nodes: usize,
    },
    /// A cache-degrade event names a client the platform does not have.
    ClientIndexOutOfRange {
        /// Offending index.
        client: usize,
        /// Number of clients in the platform.
        num_clients: usize,
    },
    /// A disk-degrade factor of zero would stop time.
    ZeroLatencyFactor,
    /// A cache cannot degrade to zero capacity.
    ZeroDegradedCapacity,
    /// The transient error rate must stay below one (1 000 000 ppm),
    /// otherwise retries never terminate.
    TransientRateTooHigh {
        /// Offending rate.
        rate_ppm: u32,
    },
    /// A cache-degrade entry targets a node at or after the crash that
    /// destroys that node's cache — the degradation could only shrink a
    /// cache that no longer exists, so the plan is contradictory.
    /// (Disk degradation after a storage-node crash remains valid: the
    /// crash models the cache-server daemon, the spindles survive.)
    CrashDegradeOverlap {
        /// Which cache level the degrade entry names.
        level: DegradeLevel,
        /// Node index within that level.
        node: usize,
        /// When the node crashes.
        crash_at_ns: u64,
        /// When the (unreachable) degradation was scheduled.
        degrade_at_ns: u64,
    },
    /// The plan's JSON form could not be decoded.
    Malformed {
        /// Human-readable decode failure.
        message: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::IoIndexOutOfRange { io, num_io_nodes } => {
                write!(
                    f,
                    "I/O node {io} out of range (platform has {num_io_nodes})"
                )
            }
            FaultPlanError::StorageIndexOutOfRange {
                storage,
                num_storage_nodes,
            } => write!(
                f,
                "storage node {storage} out of range (platform has {num_storage_nodes})"
            ),
            FaultPlanError::ClientIndexOutOfRange {
                client,
                num_clients,
            } => write!(
                f,
                "client {client} out of range (platform has {num_clients})"
            ),
            FaultPlanError::ZeroLatencyFactor => {
                write!(f, "disk latency factor must be at least 1")
            }
            FaultPlanError::ZeroDegradedCapacity => {
                write!(f, "degraded cache capacity must be at least 1 chunk")
            }
            FaultPlanError::TransientRateTooHigh { rate_ppm } => write!(
                f,
                "transient error rate {rate_ppm} ppm must be below 1000000"
            ),
            FaultPlanError::CrashDegradeOverlap {
                level,
                node,
                crash_at_ns,
                degrade_at_ns,
            } => write!(
                f,
                "{} node {node} crashes at {crash_at_ns} ns but a cache degradation \
                 is scheduled for it at {degrade_at_ns} ns (the crash already \
                 destroyed that cache)",
                level.label()
            ),
            FaultPlanError::Malformed { message } => {
                write!(f, "malformed fault plan: {message}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A schedule of failures to inject into one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled events, applied in `(at_ns, list order)`.
    pub events: Vec<FaultEvent>,
    /// Optional seeded transient access errors.
    pub transient: Option<TransientFaults>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; a run with it is bit-identical
    /// to a fault-free run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the transient-error model (builder style).
    pub fn with_transient(mut self, transient: TransientFaults) -> Self {
        self.transient = Some(transient);
        self
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.transient.is_none()
    }

    /// Checks every event against the platform's topology and the
    /// transient model's termination requirement.
    pub fn validate(&self, cfg: &PlatformConfig) -> Result<(), FaultPlanError> {
        for ev in &self.events {
            match *ev {
                FaultEvent::IoNodeCrash { io, .. } => {
                    if io >= cfg.num_io_nodes {
                        return Err(FaultPlanError::IoIndexOutOfRange {
                            io,
                            num_io_nodes: cfg.num_io_nodes,
                        });
                    }
                }
                FaultEvent::StorageNodeCrash { storage, .. } => {
                    if storage >= cfg.num_storage_nodes {
                        return Err(FaultPlanError::StorageIndexOutOfRange {
                            storage,
                            num_storage_nodes: cfg.num_storage_nodes,
                        });
                    }
                }
                FaultEvent::DiskDegrade {
                    storage,
                    latency_factor,
                    ..
                } => {
                    if storage >= cfg.num_storage_nodes {
                        return Err(FaultPlanError::StorageIndexOutOfRange {
                            storage,
                            num_storage_nodes: cfg.num_storage_nodes,
                        });
                    }
                    if latency_factor == 0 {
                        return Err(FaultPlanError::ZeroLatencyFactor);
                    }
                }
                FaultEvent::CacheDegrade {
                    level,
                    node,
                    capacity_chunks,
                    ..
                } => {
                    if capacity_chunks == 0 {
                        return Err(FaultPlanError::ZeroDegradedCapacity);
                    }
                    let (limit, err) = match level {
                        DegradeLevel::Client => (
                            cfg.num_clients,
                            FaultPlanError::ClientIndexOutOfRange {
                                client: node,
                                num_clients: cfg.num_clients,
                            },
                        ),
                        DegradeLevel::Io => (
                            cfg.num_io_nodes,
                            FaultPlanError::IoIndexOutOfRange {
                                io: node,
                                num_io_nodes: cfg.num_io_nodes,
                            },
                        ),
                        DegradeLevel::Storage => (
                            cfg.num_storage_nodes,
                            FaultPlanError::StorageIndexOutOfRange {
                                storage: node,
                                num_storage_nodes: cfg.num_storage_nodes,
                            },
                        ),
                    };
                    if node >= limit {
                        return Err(err);
                    }
                }
            }
        }
        // A crash destroys the node's cache; a cache-degrade entry for
        // the same node at or after the crash could never take effect
        // (the engine used to silently shrink the drained dead cache).
        for ev in &self.events {
            let FaultEvent::CacheDegrade {
                level, node, at_ns, ..
            } = *ev
            else {
                continue;
            };
            let crash = self.events.iter().find_map(|c| match *c {
                FaultEvent::IoNodeCrash { io, at_ns: t }
                    if level == DegradeLevel::Io && io == node && t <= at_ns =>
                {
                    Some(t)
                }
                FaultEvent::StorageNodeCrash { storage, at_ns: t }
                    if level == DegradeLevel::Storage && storage == node && t <= at_ns =>
                {
                    Some(t)
                }
                _ => None,
            });
            if let Some(crash_at_ns) = crash {
                return Err(FaultPlanError::CrashDegradeOverlap {
                    level,
                    node,
                    crash_at_ns,
                    degrade_at_ns: at_ns,
                });
            }
        }
        if let Some(t) = &self.transient {
            if t.rate_ppm >= 1_000_000 {
                return Err(FaultPlanError::TransientRateTooHigh {
                    rate_ppm: t.rate_ppm,
                });
            }
        }
        Ok(())
    }

    /// Decodes a plan from its [`ToJson`] representation.
    pub fn from_json(json: &Json) -> Result<FaultPlan, FaultPlanError> {
        let malformed = |m: &str| FaultPlanError::Malformed {
            message: m.to_string(),
        };
        let events_json = json
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("missing events array"))?;
        let mut events = Vec::with_capacity(events_json.len());
        for ev in events_json {
            let kind = ev
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("event missing kind"))?;
            let field = |name: &str| -> Result<u64, FaultPlanError> {
                ev.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| malformed(&format!("event missing field {name}")))
            };
            events.push(match kind {
                "io_node_crash" => FaultEvent::IoNodeCrash {
                    io: field("io")? as usize,
                    at_ns: field("at_ns")?,
                },
                "storage_node_crash" => FaultEvent::StorageNodeCrash {
                    storage: field("storage")? as usize,
                    at_ns: field("at_ns")?,
                },
                "disk_degrade" => FaultEvent::DiskDegrade {
                    storage: field("storage")? as usize,
                    at_ns: field("at_ns")?,
                    latency_factor: field("latency_factor")? as u32,
                },
                "cache_degrade" => {
                    let level = ev
                        .get("level")
                        .and_then(Json::as_str)
                        .and_then(DegradeLevel::from_label)
                        .ok_or_else(|| malformed("cache_degrade has no valid level"))?;
                    FaultEvent::CacheDegrade {
                        level,
                        node: field("node")? as usize,
                        at_ns: field("at_ns")?,
                        capacity_chunks: field("capacity_chunks")? as usize,
                    }
                }
                other => return Err(malformed(&format!("unknown event kind {other}"))),
            });
        }
        let transient = match json.get("transient") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TransientFaults {
                rate_ppm: t
                    .get("rate_ppm")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| malformed("transient missing rate_ppm"))?
                    as u32,
                seed: t
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| malformed("transient missing seed"))?,
            }),
        };
        Ok(FaultPlan { events, transient })
    }

    /// Decodes a plan from JSON text.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let json = cachemap_util::json::parse(text).map_err(|e| FaultPlanError::Malformed {
            message: e.to_string(),
        })?;
        Self::from_json(&json)
    }
}

impl ToJson for FaultEvent {
    fn to_json(&self) -> Json {
        match *self {
            FaultEvent::IoNodeCrash { io, at_ns } => Json::object(vec![
                ("kind", Json::Str("io_node_crash".to_string())),
                ("io", Json::UInt(io as u64)),
                ("at_ns", Json::UInt(at_ns)),
            ]),
            FaultEvent::StorageNodeCrash { storage, at_ns } => Json::object(vec![
                ("kind", Json::Str("storage_node_crash".to_string())),
                ("storage", Json::UInt(storage as u64)),
                ("at_ns", Json::UInt(at_ns)),
            ]),
            FaultEvent::DiskDegrade {
                storage,
                at_ns,
                latency_factor,
            } => Json::object(vec![
                ("kind", Json::Str("disk_degrade".to_string())),
                ("storage", Json::UInt(storage as u64)),
                ("at_ns", Json::UInt(at_ns)),
                ("latency_factor", Json::UInt(latency_factor as u64)),
            ]),
            FaultEvent::CacheDegrade {
                level,
                node,
                at_ns,
                capacity_chunks,
            } => Json::object(vec![
                ("kind", Json::Str("cache_degrade".to_string())),
                ("level", Json::Str(level.label().to_string())),
                ("node", Json::UInt(node as u64)),
                ("at_ns", Json::UInt(at_ns)),
                ("capacity_chunks", Json::UInt(capacity_chunks as u64)),
            ]),
        }
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "events",
                Json::Array(self.events.iter().map(ToJson::to_json).collect()),
            ),
            (
                "transient",
                match &self.transient {
                    None => Json::Null,
                    Some(t) => Json::object(vec![
                        ("rate_ppm", Json::UInt(t.rate_ppm as u64)),
                        ("seed", Json::UInt(t.seed)),
                    ]),
                },
            ),
        ])
    }
}

/// Degraded-mode counters accumulated during a faulty run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient access errors drawn.
    pub transient_errors: u64,
    /// Retry attempts performed (one per transient error).
    pub retries: u64,
    /// Simulated time spent in retry backoff, ns.
    pub retry_backoff_ns: u64,
    /// Accesses that completed over a failover route (sibling I/O node,
    /// direct-to-storage, or direct-to-disk past a dead L3).
    pub failovers: u64,
    /// Dirty chunks lost when a node crashed (refetched on later use).
    pub lost_dirty_chunks: u64,
    /// I/O-node crashes applied.
    pub crashed_io_nodes: u64,
    /// Storage-node crashes applied.
    pub crashed_storage_nodes: u64,
    /// Always 0: no layer moves a failed client's work elsewhere. The
    /// field stays so serialized reports keep their shape.
    pub remap_count: u64,
    /// Time from the first crash to the first access completed over a
    /// failover route, ns (0 when no failover happened).
    pub recovery_ns: u64,
}

impl ToJson for FaultStats {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("transient_errors", Json::UInt(self.transient_errors)),
            ("retries", Json::UInt(self.retries)),
            ("retry_backoff_ns", Json::UInt(self.retry_backoff_ns)),
            ("failovers", Json::UInt(self.failovers)),
            ("lost_dirty_chunks", Json::UInt(self.lost_dirty_chunks)),
            ("crashed_io_nodes", Json::UInt(self.crashed_io_nodes)),
            (
                "crashed_storage_nodes",
                Json::UInt(self.crashed_storage_nodes),
            ),
            ("remap_count", Json::UInt(self.remap_count)),
            ("recovery_ns", Json::UInt(self.recovery_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_plan() -> FaultPlan {
        FaultPlan::new()
            .with_event(FaultEvent::IoNodeCrash { io: 0, at_ns: 500 })
            .with_event(FaultEvent::DiskDegrade {
                storage: 0,
                at_ns: 1_000,
                latency_factor: 4,
            })
            .with_event(FaultEvent::CacheDegrade {
                level: DegradeLevel::Storage,
                node: 0,
                at_ns: 2_000,
                capacity_chunks: 2,
            })
            .with_transient(TransientFaults {
                rate_ppm: 100,
                seed: 42,
            })
    }

    #[test]
    fn valid_plan_accepted() {
        let cfg = PlatformConfig::tiny();
        assert_eq!(crash_plan().validate(&cfg), Ok(()));
        assert!(FaultPlan::new().is_empty());
        assert!(!crash_plan().is_empty());
    }

    #[test]
    fn out_of_range_indices_rejected() {
        let cfg = PlatformConfig::tiny(); // 4 clients, 2 I/O, 1 storage
        let plan = FaultPlan::new().with_event(FaultEvent::IoNodeCrash { io: 2, at_ns: 0 });
        assert_eq!(
            plan.validate(&cfg),
            Err(FaultPlanError::IoIndexOutOfRange {
                io: 2,
                num_io_nodes: 2
            })
        );
        let plan = FaultPlan::new().with_event(FaultEvent::StorageNodeCrash {
            storage: 1,
            at_ns: 0,
        });
        assert!(matches!(
            plan.validate(&cfg),
            Err(FaultPlanError::StorageIndexOutOfRange { storage: 1, .. })
        ));
        let plan = FaultPlan::new().with_event(FaultEvent::CacheDegrade {
            level: DegradeLevel::Client,
            node: 4,
            at_ns: 0,
            capacity_chunks: 1,
        });
        assert!(matches!(
            plan.validate(&cfg),
            Err(FaultPlanError::ClientIndexOutOfRange { client: 4, .. })
        ));
    }

    #[test]
    fn degenerate_parameters_rejected() {
        let cfg = PlatformConfig::tiny();
        let plan = FaultPlan::new().with_event(FaultEvent::DiskDegrade {
            storage: 0,
            at_ns: 0,
            latency_factor: 0,
        });
        assert_eq!(plan.validate(&cfg), Err(FaultPlanError::ZeroLatencyFactor));
        let plan = FaultPlan::new().with_event(FaultEvent::CacheDegrade {
            level: DegradeLevel::Io,
            node: 0,
            at_ns: 0,
            capacity_chunks: 0,
        });
        assert_eq!(
            plan.validate(&cfg),
            Err(FaultPlanError::ZeroDegradedCapacity)
        );
        let plan = FaultPlan::new().with_transient(TransientFaults {
            rate_ppm: 1_000_000,
            seed: 1,
        });
        assert_eq!(
            plan.validate(&cfg),
            Err(FaultPlanError::TransientRateTooHigh {
                rate_ppm: 1_000_000
            })
        );
    }

    #[test]
    fn degrade_at_or_after_crash_of_same_node_rejected() {
        let cfg = PlatformConfig::tiny(); // 4 clients, 2 I/O, 1 storage
                                          // I/O node 0 crashes at 500, then its (dead) L2 "degrades" at 800.
        let plan = FaultPlan::new()
            .with_event(FaultEvent::IoNodeCrash { io: 0, at_ns: 500 })
            .with_event(FaultEvent::CacheDegrade {
                level: DegradeLevel::Io,
                node: 0,
                at_ns: 800,
                capacity_chunks: 2,
            });
        assert_eq!(
            plan.validate(&cfg),
            Err(FaultPlanError::CrashDegradeOverlap {
                level: DegradeLevel::Io,
                node: 0,
                crash_at_ns: 500,
                degrade_at_ns: 800,
            })
        );
        // Same instant counts as overlap (the crash drains the cache first).
        let plan = FaultPlan::new()
            .with_event(FaultEvent::StorageNodeCrash {
                storage: 0,
                at_ns: 1_000,
            })
            .with_event(FaultEvent::CacheDegrade {
                level: DegradeLevel::Storage,
                node: 0,
                at_ns: 1_000,
                capacity_chunks: 2,
            });
        assert!(matches!(
            plan.validate(&cfg),
            Err(FaultPlanError::CrashDegradeOverlap { .. })
        ));
        // Degrading *before* the crash is a legitimate schedule.
        let plan = FaultPlan::new()
            .with_event(FaultEvent::CacheDegrade {
                level: DegradeLevel::Io,
                node: 0,
                at_ns: 100,
                capacity_chunks: 2,
            })
            .with_event(FaultEvent::IoNodeCrash { io: 0, at_ns: 500 });
        assert_eq!(plan.validate(&cfg), Ok(()));
        // A different node, or the surviving spindles of a crashed
        // storage node, may still degrade later.
        let plan = FaultPlan::new()
            .with_event(FaultEvent::IoNodeCrash { io: 0, at_ns: 500 })
            .with_event(FaultEvent::CacheDegrade {
                level: DegradeLevel::Io,
                node: 1,
                at_ns: 800,
                capacity_chunks: 2,
            })
            .with_event(FaultEvent::StorageNodeCrash {
                storage: 0,
                at_ns: 500,
            })
            .with_event(FaultEvent::DiskDegrade {
                storage: 0,
                at_ns: 900,
                latency_factor: 3,
            });
        assert_eq!(plan.validate(&cfg), Ok(()));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let plan = crash_plan();
        let text = plan.to_json().to_string_pretty();
        let back = FaultPlan::parse(&text).expect("round trip parses");
        assert_eq!(plan, back);
        // And the empty plan round-trips too.
        let empty = FaultPlan::new();
        let back = FaultPlan::parse(&empty.to_json().to_string_compact()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_json_reports_errors() {
        assert!(matches!(
            FaultPlan::parse("{}"),
            Err(FaultPlanError::Malformed { .. })
        ));
        assert!(matches!(
            FaultPlan::parse(r#"{"events":[{"kind":"warp_core_breach"}],"transient":null}"#),
            Err(FaultPlanError::Malformed { .. })
        ));
        assert!(FaultPlan::parse("not json").is_err());
    }

    #[test]
    fn errors_display() {
        for e in [
            FaultPlanError::IoIndexOutOfRange {
                io: 9,
                num_io_nodes: 2,
            },
            FaultPlanError::ZeroLatencyFactor,
            FaultPlanError::TransientRateTooHigh {
                rate_ppm: 2_000_000,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
