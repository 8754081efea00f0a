//! Online resilience supervisor: epoch loop, live detection, remap.
//!
//! This is the mapping-side half of the resilience layer whose
//! storage-side primitives live in `cachemap_storage::supervisor`. The
//! [`run_online`] loop executes a mapped distribution as a sequence of
//! **epochs**:
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            ▼                                                │
//!   slice next epoch ──► lower ──► run_epoch ──► checkpoint   │
//!   (per-client quota)             (carried      (dirty       │
//!            ▲                      clocks)       manifest)   │
//!            │                                        │       │
//!            │                                     detect     │
//!            │                                        │       │
//!            │          no verdicts ─────────────────┤────────┘
//!            │                                        │
//!            └── remap_incremental ◄── Down verdicts ─┘
//!                (orphans → surviving clusters)
//! ```
//!
//! Detection is **oracle-free**: it sees only the epoch's
//! [`cachemap_obs::EngineObs`] — per-node hit/miss/queue series and
//! client-side distress events (failovers) — never the
//! `FaultPlan`. When an I/O node is declared down, every client homed on
//! it is treated as failed and the *remaining* (not yet executed) work is
//! redistributed with [`remap_incremental`], which grafts the orphaned
//! items onto the surviving clusters by aggregate-tag affinity instead of
//! re-clustering from scratch. Completed epochs are never re-executed:
//! the checkpoint records their progress, and dirty lines lost inside the
//! crash epoch are replayed from storage by the engine on first re-use.

use std::collections::BTreeSet;
use std::fmt;

use crate::cluster::{
    distribute, remap_incremental, ClusterParams, Distribution, RemapError, WorkItem,
};
use crate::codegen::lower_distribution;
use crate::schedule::{self, ScheduleParams};
use crate::tags::{tag_nests, IterationChunk};
use cachemap_obs::Recorder;
use cachemap_polyhedral::{DataSpace, Program};
use cachemap_storage::supervisor::{detect, Verdict};
use cachemap_storage::{
    CacheSnapshot, Checkpoint, ClientOp, Detection, DetectorConfig, EpochOptions, HierarchyTree,
    SimError, SimReport, Simulator,
};

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Number of epochs the run is sliced into (detection opportunities).
    /// Must be at least 1. Clean cache residency is carried across
    /// boundaries (only dirty lines are flushed), so extra epochs cost
    /// checkpoint flushes, not full cache refills.
    pub epochs: usize,
    /// Recorder bucket width for the per-epoch observations, ns.
    pub bucket_ns: u64,
    /// Failure-detection thresholds.
    pub detector: DetectorConfig,
    /// Clustering parameters reused by the incremental remap (the
    /// balance threshold bounds how much load a survivor may absorb).
    pub cluster: ClusterParams,
    /// Gate remaps behind the observed-rate cost model (`true`): on a
    /// Down verdict the supervisor predicts the makespan of both
    /// keeping the orphans limping and shifting them, and picks the
    /// cheaper. With `false` every Down verdict remaps unconditionally.
    pub remap_gate: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epochs: 8,
            bucket_ns: 50_000,
            detector: DetectorConfig::default(),
            cluster: ClusterParams::default(),
            remap_gate: true,
        }
    }
}

/// A detection stamped with the epoch whose observations produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineDetection {
    /// Epoch index (0-based) at whose boundary the verdict was reached.
    pub epoch: usize,
    /// The detector's conclusion.
    pub detection: Detection,
}

/// Result of a supervised online run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Final simulated time: the latest client clock after the last
    /// epoch (absolute — epochs carry clocks forward).
    pub exec_time_ns: u64,
    /// Epochs actually executed (≤ `OnlineConfig::epochs`).
    pub epochs_run: usize,
    /// Incremental remaps performed.
    pub remaps: usize,
    /// Down verdicts where the cost gate predicted the remap would
    /// lengthen the critical path and kept the current assignment
    /// (the orphaned clients keep limping on the failover path).
    pub remaps_declined: usize,
    /// All verdicts, in epoch order.
    pub detections: Vec<OnlineDetection>,
    /// Progress snapshot per epoch boundary.
    pub checkpoints: Vec<Checkpoint>,
    /// The slice of work executed in each epoch. Their union is the
    /// supervisor's coverage record: the chaos harness checks it equals
    /// the initial distribution exactly (every iteration exactly once).
    pub executed: Vec<Distribution>,
    /// Per-epoch engine reports.
    pub reports: Vec<SimReport>,
    /// Clients declared failed (homed on a down I/O node), sorted.
    pub failed_clients: Vec<usize>,
}

impl OnlineOutcome {
    /// Final simulated time in milliseconds.
    pub fn exec_time_ms(&self) -> f64 {
        self.exec_time_ns as f64 / 1e6
    }

    /// Simulated detection latency relative to an injection instant the
    /// *caller* knows from its fault plan: time from `injected_at_ns` to
    /// the first `Down` verdict. `None` when nothing was detected. The
    /// supervisor itself never sees the injection time — this is for
    /// experiments grading the detector against ground truth.
    pub fn detection_latency_ns(&self, injected_at_ns: u64) -> Option<u64> {
        self.detections
            .iter()
            .find(|d| d.detection.verdict == Verdict::Down)
            .map(|d| d.detection.detected_at_ns.saturating_sub(injected_at_ns))
    }

    /// Multiset of executed (chunk, iteration) coverage counts summed
    /// over all epochs, as `(chunk, iter) → times executed`.
    pub fn coverage(&self) -> std::collections::BTreeMap<(usize, usize), u64> {
        let mut cov = std::collections::BTreeMap::new();
        for dist in &self.executed {
            for items in &dist.per_client {
                for it in items {
                    for i in it.start..it.end {
                        *cov.entry((it.chunk, i)).or_insert(0u64) += 1;
                    }
                }
            }
        }
        cov
    }
}

/// Errors from [`run_online`].
#[derive(Debug)]
pub enum OnlineError {
    /// The engine failed.
    Sim(SimError),
    /// The incremental remap failed (e.g. every client is down).
    Remap(RemapError),
    /// `OnlineConfig::epochs` was zero.
    NoEpochs,
    /// The distribution's client count does not match the platform.
    ClientCountMismatch {
        /// Clients in the distribution.
        given: usize,
        /// Clients in the platform topology.
        platform: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Sim(e) => write!(f, "engine error: {e}"),
            OnlineError::Remap(e) => write!(f, "incremental remap failed: {e}"),
            OnlineError::NoEpochs => write!(f, "online supervisor needs at least one epoch"),
            OnlineError::ClientCountMismatch { given, platform } => write!(
                f,
                "distribution has {given} clients but the platform has {platform}"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<SimError> for OnlineError {
    fn from(e: SimError) -> Self {
        OnlineError::Sim(e)
    }
}

impl From<RemapError> for OnlineError {
    fn from(e: RemapError) -> Self {
        OnlineError::Remap(e)
    }
}

/// Builds the initial plan artifacts the supervisor needs — the joint
/// iteration-chunk list over all nests plus the scheduled distribution.
/// This is the §4.2–§5.4 pipeline without the lowering step, exposed so
/// the online loop can re-slice and re-lower the distribution epoch by
/// epoch.
pub fn plan_joint(
    program: &Program,
    data: &DataSpace,
    tree: &HierarchyTree,
    cluster: &ClusterParams,
    sched: &ScheduleParams,
) -> (Vec<IterationChunk>, Distribution) {
    let all: Vec<usize> = (0..program.nests.len()).collect();
    let (chunks, _) = tag_nests(program, &all, data);
    let dist = distribute(&chunks, tree, cluster);
    let dist = schedule::schedule(&dist, &chunks, tree, sched);
    (chunks, dist)
}

/// Set of data chunks a distribution writes when executed (used by the
/// chaos harness to check that a recovered run produces the same output
/// set as the fault-free run).
pub fn written_chunks(
    dist: &Distribution,
    chunks: &[IterationChunk],
    program: &Program,
    data: &DataSpace,
) -> BTreeSet<usize> {
    let prog = lower_distribution(dist, chunks, program, data);
    let mut out = BTreeSet::new();
    for ops in &prog.per_client {
        for op in ops {
            if let ClientOp::Access { chunk, write: true } = op {
                out.insert(*chunk);
            }
        }
    }
    out
}

/// Splits off each client's next epoch's worth of work: a per-client
/// quota of `ceil(remaining / epochs_left)` iterations, taken from the
/// front of the client's item list (splitting the last item mid-chunk
/// when the quota lands inside it). `remaining` is left holding the
/// untaken suffix.
fn take_epoch_slice(remaining: &mut Distribution, epochs_left: usize) -> Distribution {
    let mut slice: Vec<Vec<WorkItem>> = Vec::with_capacity(remaining.per_client.len());
    for items in &mut remaining.per_client {
        let total: usize = items.iter().map(WorkItem::len).sum();
        let quota = total.div_ceil(epochs_left);
        let mut taken: Vec<WorkItem> = Vec::new();
        let mut got = 0usize;
        let mut rest: Vec<WorkItem> = Vec::new();
        for it in items.drain(..) {
            if got >= quota {
                rest.push(it);
                continue;
            }
            let need = quota - got;
            if it.len() <= need {
                got += it.len();
                taken.push(it);
            } else {
                taken.push(WorkItem {
                    chunk: it.chunk,
                    start: it.start,
                    end: it.start + need,
                });
                rest.push(WorkItem {
                    chunk: it.chunk,
                    start: it.start + need,
                    end: it.end,
                });
                got = quota;
            }
        }
        *items = rest;
        slice.push(taken);
    }
    Distribution { per_client: slice }
}

/// Predicted makespan of running `dist` from the given per-client
/// clocks at the given per-iteration rates: the cost model behind the
/// remap gate. It deliberately ignores cache effects — it only has to
/// rank "keep limping" against "shift the orphans", both predicted with
/// the same model.
fn predicted_finish_ns(dist: &Distribution, clocks: &[u64], rate_ns: &[f64]) -> f64 {
    dist.per_client
        .iter()
        .enumerate()
        .map(|(c, items)| {
            let iters: usize = items.iter().map(WorkItem::len).sum();
            clocks[c] as f64 + iters as f64 * rate_ns[c]
        })
        .fold(0.0, f64::max)
}

/// Dirty-line manifest of one epoch's lowered program: sorted,
/// deduplicated chunk ids written during the epoch.
fn dirty_manifest(prog: &cachemap_storage::MappedProgram) -> Vec<u64> {
    let mut set = BTreeSet::new();
    for ops in &prog.per_client {
        for op in ops {
            if let ClientOp::Access { chunk, write: true } = op {
                set.insert(*chunk as u64);
            }
        }
    }
    set.into_iter().collect()
}

/// Runs `initial` under the online supervisor: epoch slicing, oracle-free
/// failure detection at epoch boundaries, incremental live remapping of
/// the remaining work, and checkpointed progress.
///
/// The caller provides the plan artifacts (`chunks` + `initial`, e.g.
/// from [`plan_joint`]) rather than a lowered program, because the
/// supervisor needs to re-slice and re-lower the distribution as the
/// run evolves.
pub fn run_online(
    sim: &Simulator,
    program: &Program,
    data: &DataSpace,
    chunks: &[IterationChunk],
    initial: &Distribution,
    cfg: &OnlineConfig,
) -> Result<OnlineOutcome, OnlineError> {
    if cfg.epochs == 0 {
        return Err(OnlineError::NoEpochs);
    }
    let tree = sim.tree();
    let n = tree.num_clients();
    if initial.per_client.len() != n {
        return Err(OnlineError::ClientCountMismatch {
            given: initial.per_client.len(),
            platform: n,
        });
    }
    let num_io = (0..n)
        .map(|c| tree.io_of_client(c))
        .max()
        .map_or(0, |m| m + 1);

    let mut remaining = initial.clone();
    let mut clocks: Option<Vec<u64>> = None;
    let mut caches: Option<CacheSnapshot> = None;
    let mut known_down = vec![false; num_io];
    let mut failed_clients: Vec<usize> = Vec::new();
    let mut out = OnlineOutcome {
        exec_time_ns: 0,
        epochs_run: 0,
        remaps: 0,
        remaps_declined: 0,
        detections: Vec::new(),
        checkpoints: Vec::new(),
        executed: Vec::new(),
        reports: Vec::new(),
        failed_clients: Vec::new(),
    };

    let mut executed_iters = vec![0u64; n];
    let mut epoch = 0usize;
    while remaining.total_iterations() > 0 {
        let epochs_left = cfg.epochs.saturating_sub(epoch).max(1);
        let slice = take_epoch_slice(&mut remaining, epochs_left);
        let epoch_start: Vec<u64> = clocks.clone().unwrap_or_else(|| vec![0; n]);
        let prog = lower_distribution(&slice, chunks, program, data);
        let mut rec = Recorder::enabled(cfg.bucket_ns);
        let (report, snapshot) = sim.run_epoch(
            &prog,
            &mut rec,
            &EpochOptions {
                start_clocks: clocks.clone(),
                resume_caches: caches.take(),
            },
        )?;
        // Carry clean residency into the next epoch: the checkpoint
        // flushes dirty lines but does not evict them, and crash events
        // re-fire at the epoch start, draining seeded state on nodes
        // that are already dead.
        caches = Some(snapshot);
        let boundary = report
            .per_client_finish_ns
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        clocks = Some(report.per_client_finish_ns.clone());
        out.checkpoints.push(Checkpoint {
            epoch,
            at_ns: boundary,
            completed_accesses: prog.total_accesses(),
            dirty_manifest: dirty_manifest(&prog),
            lost_dirty_chunks: report.faults.lost_dirty_chunks,
        });

        let obs = rec.finish().expect("recorder was enabled");
        let verdicts = detect(&obs, tree, boundary, &known_down, &cfg.detector);
        let mut newly_failed: Vec<usize> = Vec::new();
        for d in verdicts {
            if d.verdict == Verdict::Down {
                known_down[d.io] = true;
                newly_failed.extend((0..n).filter(|&c| tree.io_of_client(c) == d.io));
            }
            out.detections.push(OnlineDetection {
                epoch,
                detection: d,
            });
        }

        let slice_iters = slice.iterations_per_client();
        for c in 0..n {
            executed_iters[c] += slice_iters[c];
        }
        out.exec_time_ns = out.exec_time_ns.max(boundary);
        out.executed.push(slice);
        out.reports.push(report.clone());
        epoch += 1;

        if !newly_failed.is_empty() {
            failed_clients.extend(newly_failed.iter().copied());
            failed_clients.sort_unstable();
            failed_clients.dedup();
            // Only remap while survivors exist and work remains; a
            // full wipe-out just rides the engine's failover paths.
            if remaining.total_iterations() > 0 && failed_clients.len() < n {
                // Cost gate, from observations only: per-iteration rates
                // from each client's own history (global mean for clients
                // that have not run yet), except that a newly failed
                // client's future is predicted from the crash epoch
                // alone — that epoch is the only sample of its failover
                // path. Remap only when shifting the orphans is predicted
                // to shorten the makespan; a crashed group that is off
                // the critical path is cheaper left limping than piled
                // onto the survivors.
                let total_ns: u64 = report.per_client_finish_ns.iter().sum();
                let total_iters: u64 = executed_iters.iter().sum();
                let mean_rate = total_ns as f64 / total_iters.max(1) as f64;
                let rate: Vec<f64> = (0..n)
                    .map(|c| {
                        if executed_iters[c] > 0 {
                            report.per_client_finish_ns[c] as f64 / executed_iters[c] as f64
                        } else {
                            mean_rate
                        }
                    })
                    .collect();
                let mut limp_rate = rate.clone();
                for &c in &newly_failed {
                    if slice_iters[c] > 0 {
                        // The crash epoch's healthy prefix dilutes the
                        // sample, so this still underestimates the limp.
                        limp_rate[c] = (report.per_client_finish_ns[c] - epoch_start[c]) as f64
                            / slice_iters[c] as f64;
                    }
                }
                let keep =
                    predicted_finish_ns(&remaining, &report.per_client_finish_ns, &limp_rate);
                let candidate =
                    remap_incremental(&remaining, chunks, tree, &failed_clients, &cfg.cluster)?;
                let shift = predicted_finish_ns(&candidate, &report.per_client_finish_ns, &rate);
                if !cfg.remap_gate || shift < keep {
                    remaining = candidate;
                    out.remaps += 1;
                } else {
                    out.remaps_declined += 1;
                }
            }
        }
    }

    out.epochs_run = epoch;
    out.failed_clients = failed_clients;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_storage::{FaultEvent, FaultPlan, PlatformConfig};

    fn figure6_plan() -> (Program, DataSpace) {
        crate::tags::tests::figure6_program(16)
    }

    fn tiny_sim(plan: Option<FaultPlan>) -> Simulator {
        let cfg = PlatformConfig::tiny().with_cache_chunks(2, 8, 16);
        let sim = Simulator::new(cfg).unwrap();
        match plan {
            Some(p) => sim.with_fault_plan(p).unwrap(),
            None => sim,
        }
    }

    /// Test knobs: the figure-6 workload at tiny scale runs hot, so the
    /// degradation threshold must sit above its healthy queue waits —
    /// thresholds are workload-relative, Down detection is not.
    fn test_cfg(epochs: usize) -> OnlineConfig {
        OnlineConfig {
            epochs,
            detector: DetectorConfig {
                degraded_queue_ns: 10_000_000,
                ..DetectorConfig::default()
            },
            ..OnlineConfig::default()
        }
    }

    fn artifacts(sim: &Simulator) -> (Program, DataSpace, Vec<IterationChunk>, Distribution) {
        let (program, data) = figure6_plan();
        let (chunks, dist) = plan_joint(
            &program,
            &data,
            sim.tree(),
            &ClusterParams::default(),
            &ScheduleParams::default(),
        );
        (program, data, chunks, dist)
    }

    #[test]
    fn clean_online_run_covers_everything_once() {
        let sim = tiny_sim(None);
        let (program, data, chunks, dist) = artifacts(&sim);
        let cfg = test_cfg(4);
        let out = run_online(&sim, &program, &data, &chunks, &dist, &cfg).unwrap();
        assert_eq!(out.epochs_run, 4);
        assert_eq!(out.remaps, 0);
        assert!(out.detections.is_empty(), "{:?}", out.detections);
        assert!(out.failed_clients.is_empty());
        // Every (chunk, iteration) of the initial plan exactly once.
        let cov = out.coverage();
        let mut want = std::collections::BTreeMap::new();
        for items in &dist.per_client {
            for it in items {
                for i in it.start..it.end {
                    *want.entry((it.chunk, i)).or_insert(0u64) += 1;
                }
            }
        }
        assert_eq!(cov, want);
        assert!(cov.values().all(|&n| n == 1));
        // Checkpoints are monotone in simulated time.
        for w in out.checkpoints.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }

    #[test]
    fn online_run_detects_and_remaps_without_oracle() {
        // Crash I/O node 0 early; the supervisor must notice from the
        // epoch observations, remap, and still cover everything once.
        let plan = FaultPlan::new().with_event(FaultEvent::IoNodeCrash {
            io: 0,
            at_ns: 50_000,
        });
        let sim = tiny_sim(Some(plan));
        let (program, data, chunks, dist) = artifacts(&sim);
        // Gate off: this test exercises the remap mechanics, not the
        // cost model's judgement about whether remapping pays here.
        let cfg = OnlineConfig {
            remap_gate: false,
            ..test_cfg(6)
        };
        let out = run_online(&sim, &program, &data, &chunks, &dist, &cfg).unwrap();
        let downs: Vec<_> = out
            .detections
            .iter()
            .filter(|d| d.detection.verdict == Verdict::Down)
            .collect();
        assert_eq!(downs.len(), 1, "exactly one Down verdict: {downs:?}");
        assert_eq!(downs[0].detection.io, 0);
        assert!(out.remaps >= 1);
        // Clients homed on I/O node 0 are declared failed.
        let tree = sim.tree();
        let expect: Vec<usize> = (0..tree.num_clients())
            .filter(|&c| tree.io_of_client(c) == 0)
            .collect();
        assert_eq!(out.failed_clients, expect);
        // After the remap the failed clients receive no further work.
        let remap_epoch = downs[0].epoch;
        for dist in &out.executed[remap_epoch + 1..] {
            for &c in &expect {
                assert!(dist.per_client[c].is_empty());
            }
        }
        // Coverage is still exactly-once.
        assert!(out.coverage().values().all(|&n| n == 1));
        assert_eq!(
            out.coverage().len() as u64,
            dist.total_iterations(),
            "no iteration lost in the handover"
        );
        // Detection latency is measurable against the injection time.
        let lat = out.detection_latency_ns(50_000).unwrap();
        assert!(lat > 0);
    }

    #[test]
    fn epoch_slicing_is_exact() {
        let mut remaining = Distribution {
            per_client: vec![
                vec![WorkItem::whole(0, 10)],
                vec![WorkItem::whole(1, 3), WorkItem::whole(2, 3)],
                vec![],
            ],
        };
        let slice = take_epoch_slice(&mut remaining, 3);
        // ceil(10/3)=4, ceil(6/3)=2, 0.
        assert_eq!(slice.iterations_per_client(), vec![4, 2, 0]);
        assert_eq!(remaining.iterations_per_client(), vec![6, 4, 0]);
        // Mid-item split keeps the ranges adjacent.
        assert_eq!(
            slice.per_client[0],
            vec![WorkItem {
                chunk: 0,
                start: 0,
                end: 4
            }]
        );
        assert_eq!(
            remaining.per_client[0],
            vec![WorkItem {
                chunk: 0,
                start: 4,
                end: 10
            }]
        );
        // Last epoch takes everything.
        let rest = take_epoch_slice(&mut remaining, 1);
        assert_eq!(rest.iterations_per_client(), vec![6, 4, 0]);
        assert_eq!(remaining.total_iterations(), 0);
    }

    #[test]
    fn predicted_finish_takes_the_critical_path() {
        let dist = Distribution {
            per_client: vec![
                vec![WorkItem::whole(0, 10)],
                vec![WorkItem::whole(1, 2)],
                vec![],
            ],
        };
        // Client 1 is slow per iteration but has little work; client 0
        // dominates: 1_000 + 10 * 50 = 1_500.
        let got = predicted_finish_ns(&dist, &[1_000, 200, 900], &[50.0, 100.0, 1.0]);
        assert_eq!(got, 1_500.0);
        // An idle client still contributes its clock.
        let empty = Distribution {
            per_client: vec![vec![], vec![], vec![]],
        };
        assert_eq!(predicted_finish_ns(&empty, &[7, 9, 3], &[1.0; 3]), 9.0);
    }

    #[test]
    fn zero_epochs_is_an_error() {
        let sim = tiny_sim(None);
        let (program, data, chunks, dist) = artifacts(&sim);
        let cfg = OnlineConfig {
            epochs: 0,
            ..OnlineConfig::default()
        };
        assert!(matches!(
            run_online(&sim, &program, &data, &chunks, &dist, &cfg),
            Err(OnlineError::NoEpochs)
        ));
    }
}
