//! Storage-side half of the online resilience supervisor.
//!
//! The supervisor (whose epoch loop lives in the mapping crate, next to
//! the clustering code it re-invokes) runs a program as a sequence of
//! **epochs**: each epoch is one engine run over the not-yet-executed
//! slice of every client's work, started at the clients' carried-over
//! clocks so absolute simulated time stays continuous. At each epoch
//! boundary it snapshots a [`Checkpoint`] and feeds the epoch's
//! [`EngineObs`] into [`detect`], which infers node failures **from
//! engine signals only** — per-node hit/miss series going silent plus
//! client-side distress events (failovers). It never
//! reads the [`crate::faults::FaultPlan`]: the plan is the experiment's
//! ground truth, not an input to detection.
//!
//! Epoch boundaries have checkpoint-flush semantics: all surviving
//! dirty lines are considered written back at the boundary, and dirty
//! lines lost to a crash are replayed from storage on first use (the
//! engine re-fetches them on demand and counts them in
//! `FaultStats::lost_dirty_chunks`). Clean residency is *not* wiped:
//! [`crate::Simulator::run_epoch`] returns a
//! [`crate::engine::CacheSnapshot`] of the (now clean) lines left in
//! every cache, and the supervisor feeds it back through
//! [`EpochOptions::resume_caches`] so the next epoch starts warm.

use crate::engine::CacheSnapshot;
use crate::topology::HierarchyTree;
use cachemap_obs::{EngineObs, Level};

/// Per-epoch engine options handed to [`crate::Simulator::run_epoch`].
#[derive(Debug, Clone, Default)]
pub struct EpochOptions {
    /// Per-client starting clocks carried over from the previous epoch
    /// (`None` starts everyone at zero — the first epoch).
    pub start_clocks: Option<Vec<u64>>,
    /// Clean cache residency carried over from the previous epoch's
    /// returned snapshot (`None` starts all caches cold — the first
    /// epoch). Crash events re-fire at the epoch start, so seeded state
    /// on already-dead nodes is drained before it can serve a hit.
    pub resume_caches: Option<CacheSnapshot>,
}

/// Progress snapshot taken at an epoch boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Simulated time of the boundary (latest client clock).
    pub at_ns: u64,
    /// Chunk accesses completed in this epoch.
    pub completed_accesses: u64,
    /// Dirty-line manifest: chunks written during the epoch (sorted,
    /// deduplicated). At the boundary these count as flushed; a crash
    /// inside the epoch loses the unflushed subset, which the engine
    /// replays from storage on first re-use.
    pub dirty_manifest: Vec<u64>,
    /// Dirty lines lost to crashes during this epoch.
    pub lost_dirty_chunks: u64,
}

/// What [`detect`] concluded about one I/O node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The node's cache series went silent while its home clients kept
    /// raising failovers: the node is considered crashed.
    Down,
    /// The node still serves requests but its mean queue wait exceeds
    /// the sustained-degradation threshold.
    Degraded,
}

/// One detection produced from an epoch's observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The suspected I/O node.
    pub io: usize,
    /// Crash or sustained degradation.
    pub verdict: Verdict,
    /// When the supervisor reached the conclusion — the epoch boundary,
    /// since that is when it inspects the series.
    pub detected_at_ns: u64,
    /// Earliest distress signal (failover event) that fed the verdict,
    /// ns.
    pub first_evidence_ns: u64,
    /// Distress events attributed to the node within the epoch.
    pub distress_events: u64,
}

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Minimum distress events (failovers raised by the node's home
    /// clients) before a crash verdict is considered.
    pub min_distress_events: u64,
    /// Mean L2 queue wait per access above which a node counts as
    /// sustainedly degraded, ns.
    pub degraded_queue_ns: u64,
    /// Minimum L2 accesses in the epoch before a degradation verdict
    /// (guards against noisy near-idle series).
    pub min_accesses: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_distress_events: 3,
            degraded_queue_ns: 100_000,
            min_accesses: 16,
        }
    }
}

/// Infers I/O-node failures from one epoch's observations.
///
/// A node is declared [`Verdict::Down`] when (a) at least
/// `min_distress_events` failover events were raised by
/// clients whose *home* I/O node it is, and (b) the node's own L2
/// hit/miss series has been silent since before the first such distress
/// signal — a crashed node records nothing, while a node that merely
/// lost its storage parent keeps serving L2 lookups and so stays loud.
/// A loud node with a mean queue wait above `degraded_queue_ns` is
/// [`Verdict::Degraded`].
///
/// `known_down[io]` suppresses re-detection of nodes already handled in
/// an earlier epoch; `window_end_ns` is the epoch boundary used as the
/// detection timestamp.
pub fn detect(
    obs: &EngineObs,
    tree: &HierarchyTree,
    window_end_ns: u64,
    known_down: &[bool],
    cfg: &DetectorConfig,
) -> Vec<Detection> {
    let num_io = known_down.len();
    // Distress evidence per home I/O node: count + earliest time.
    let mut distress = vec![(0u64, u64::MAX); num_io];
    for ev in &obs.events {
        if ev.kind != "failover" {
            continue;
        }
        let client = ev.subject as usize;
        if client >= tree.num_clients() {
            continue;
        }
        let io = tree.io_of_client(client);
        if io < num_io {
            distress[io].0 += 1;
            distress[io].1 = distress[io].1.min(ev.t_ns);
        }
    }

    let mut out = Vec::new();
    for io in 0..num_io {
        if known_down[io] {
            continue;
        }
        let series = obs.nodes.get(&(Level::L2, io));
        let (count, first_t) = distress[io];
        if count >= cfg.min_distress_events {
            // Last simulated time the node itself recorded any activity.
            let last_active_ns = series
                .into_iter()
                .flatten()
                .filter(|(_, s)| s.hits + s.misses > 0)
                .map(|(&b, _)| (b + 1) * obs.bucket_ns)
                .max()
                .unwrap_or(0);
            if last_active_ns <= first_t {
                out.push(Detection {
                    io,
                    verdict: Verdict::Down,
                    detected_at_ns: window_end_ns,
                    first_evidence_ns: first_t,
                    distress_events: count,
                });
                continue;
            }
        }
        if let Some(series) = series {
            let accesses: u64 = series.values().map(|s| s.hits + s.misses).sum();
            let queue_ns: u64 = series.values().map(|s| s.queue_ns).sum();
            if accesses >= cfg.min_accesses && queue_ns / accesses > cfg.degraded_queue_ns {
                out.push(Detection {
                    io,
                    verdict: Verdict::Degraded,
                    detected_at_ns: window_end_ns,
                    first_evidence_ns: series
                        .iter()
                        .find(|(_, s)| s.queue_ns > 0)
                        .map(|(&b, _)| b * obs.bucket_ns)
                        .unwrap_or(window_end_ns),
                    distress_events: count,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::engine::{ClientOp, MappedProgram};
    use crate::faults::{FaultEvent, FaultPlan};
    use crate::sim::Simulator;
    use cachemap_obs::Recorder;

    fn tiny_sim(plan: Option<FaultPlan>) -> Simulator {
        let sim = Simulator::new(PlatformConfig::tiny()).unwrap();
        match plan {
            Some(p) => sim.with_fault_plan(p).unwrap(),
            None => sim,
        }
    }

    fn chatty_program(chunks: usize) -> MappedProgram {
        let mut prog = MappedProgram::new(4);
        for c in 0..4 {
            prog.per_client[c] = (0..chunks)
                .map(|i| ClientOp::Access {
                    chunk: i * 4 + c,
                    write: false,
                })
                .collect();
        }
        prog
    }

    #[test]
    fn clean_run_produces_no_detections() {
        let sim = tiny_sim(None);
        let prog = chatty_program(32);
        let mut rec = Recorder::enabled(10_000);
        let (rep, _) = sim
            .run_epoch(&prog, &mut rec, &EpochOptions::default())
            .unwrap();
        let obs = rec.finish().unwrap();
        let found = detect(
            &obs,
            sim.tree(),
            rep.exec_time_ns,
            &[false, false],
            &DetectorConfig::default(),
        );
        assert!(found.is_empty(), "clean run must not trigger: {found:?}");
    }

    #[test]
    fn crashed_io_node_is_detected_without_reading_the_plan() {
        let plan = FaultPlan::new().with_event(FaultEvent::IoNodeCrash {
            io: 0,
            at_ns: 200_000,
        });
        let sim = tiny_sim(Some(plan));
        let prog = chatty_program(64);
        let mut rec = Recorder::enabled(10_000);
        let (rep, _) = sim
            .run_epoch(&prog, &mut rec, &EpochOptions::default())
            .unwrap();
        assert!(rep.faults.failovers > 0, "crash must cause failovers");
        let obs = rec.finish().unwrap();
        let found = detect(
            &obs,
            sim.tree(),
            rep.exec_time_ns,
            &[false, false],
            &DetectorConfig::default(),
        );
        assert_eq!(found.len(), 1, "exactly the crashed node: {found:?}");
        assert_eq!(found[0].io, 0);
        assert_eq!(found[0].verdict, Verdict::Down);
        assert!(found[0].detected_at_ns >= 200_000);
        assert!(found[0].first_evidence_ns >= 200_000);
    }

    #[test]
    fn storage_crash_does_not_frame_the_io_node() {
        // With the storage node dead the I/O caches keep serving; the
        // failover events alone must not convict a loud node.
        let plan = FaultPlan::new().with_event(FaultEvent::StorageNodeCrash {
            storage: 0,
            at_ns: 0,
        });
        let sim = tiny_sim(Some(plan));
        let prog = chatty_program(64);
        let mut rec = Recorder::enabled(10_000);
        let (rep, _) = sim
            .run_epoch(&prog, &mut rec, &EpochOptions::default())
            .unwrap();
        assert!(rep.faults.failovers > 0);
        let obs = rec.finish().unwrap();
        let found = detect(
            &obs,
            sim.tree(),
            rep.exec_time_ns,
            &[false, false],
            &DetectorConfig::default(),
        );
        assert!(
            found.iter().all(|d| d.verdict != Verdict::Down),
            "no I/O node may be declared down: {found:?}"
        );
    }

    #[test]
    fn known_down_nodes_are_not_redetected() {
        let plan = FaultPlan::new().with_event(FaultEvent::IoNodeCrash { io: 0, at_ns: 0 });
        let sim = tiny_sim(Some(plan));
        let prog = chatty_program(64);
        let mut rec = Recorder::enabled(10_000);
        let (rep, _) = sim
            .run_epoch(&prog, &mut rec, &EpochOptions::default())
            .unwrap();
        let obs = rec.finish().unwrap();
        let found = detect(
            &obs,
            sim.tree(),
            rep.exec_time_ns,
            &[true, false],
            &DetectorConfig::default(),
        );
        assert!(found.iter().all(|d| d.io != 0), "{found:?}");
    }

    #[test]
    fn epoch_start_clocks_shift_absolute_time() {
        let sim = tiny_sim(None);
        let prog = chatty_program(8);
        let mut rec = Recorder::enabled(10_000);
        let (base, _) = sim
            .run_epoch(&prog, &mut rec, &EpochOptions::default())
            .unwrap();
        let mut rec2 = Recorder::enabled(10_000);
        let (shifted, _) = sim
            .run_epoch(
                &prog,
                &mut rec2,
                &EpochOptions {
                    start_clocks: Some(vec![1_000_000; 4]),
                    resume_caches: None,
                },
            )
            .unwrap();
        for c in 0..4 {
            assert_eq!(
                shifted.per_client_finish_ns[c],
                base.per_client_finish_ns[c] + 1_000_000,
                "client {c}: a uniform clock shift must translate finish times"
            );
        }
    }
}
