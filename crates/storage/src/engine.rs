//! Deterministic discrete-event engine.
//!
//! Each client node executes an ordered stream of [`ClientOp`]s (compute,
//! chunk accesses, and the synchronization signals/waits used by the
//! dependence extension of Section 5.4). The engine serves **shared
//! work in global simulated-time order** — a binary heap keyed by
//! `(client clock, client id)` — so shared caches observe a single,
//! reproducible access order that approximates parallel execution, and
//! shared resources (I/O-node caches, storage-node caches, disks) apply
//! back-pressure through per-resource "next free" clocks.
//!
//! Work that touches only a client's own clock and private L1 needs no
//! global order. The client at the top of the heap runs its next op,
//! whatever it is, and then runs ahead while its next op is private: a
//! `Compute`, or an `Access` that hits its L1. An L1 miss found this way
//! stays pending, with the lookup and the miss already counted, and
//! resumes from the L2 step when the client's unchanged `(start, client)`
//! key next reaches the top. `Signal` and `Wait` run only at the top. So
//! every shared op still runs in `(time, client)` order, and every
//! statistic, trace and recorder series is the same as if each op took
//! its own turn through the heap.
//!
//! The access path mirrors the platform of Section 5.1: an L1 miss is
//! forwarded by the client to its I/O node (L2); an L2 miss is forwarded
//! to the storage node on the client's tree path (L3); an L3 miss goes to
//! the disk of the *striping owner* of the chunk, with a peer-forwarding
//! hop when the owner differs from the tree-route storage node. Caches
//! are write-allocate / write-back, and dirty evictions cascade one level
//! down with their costs charged to the access that triggered them. The
//! platform's costs and each client's route are computed once, when the
//! engine is built.

use crate::cache::{build_cache, Chunk, ChunkCache, InsertOutcome};
use crate::config::{ConfigError, PlatformConfig};
use crate::disk::{disk_index, owner_of_chunk, striping_stride, total_disks, Disk};
use crate::topology::HierarchyTree;
use crate::trace::{ServedBy, Trace, TraceEvent};
use cachemap_obs::{Level as ObsLevel, LinkHop, Recorder};
use cachemap_util::stats::HitMiss;
use cachemap_util::FxHashMap;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

/// One operation in a client's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// Pure computation for the given simulated nanoseconds.
    Compute {
        /// Duration in ns.
        ns: u64,
    },
    /// Access one data chunk (read or write) through the cache hierarchy.
    Access {
        /// Global chunk id.
        chunk: Chunk,
        /// True for writes (write-allocate, mark dirty in L1).
        write: bool,
    },
    /// Signal a synchronization token (dependence source side).
    Signal {
        /// Token identity; must be signalled at most once.
        token: u32,
    },
    /// Wait until a token is signalled (dependence sink side).
    Wait {
        /// Token identity.
        token: u32,
    },
}

/// A fully mapped program: one operation stream per client node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappedProgram {
    /// `per_client[c]` is the ordered op stream of client `c`.
    pub per_client: Vec<Vec<ClientOp>>,
}

impl MappedProgram {
    /// Creates an empty program for `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        MappedProgram {
            per_client: vec![Vec::new(); num_clients],
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.per_client.len()
    }

    /// Total `Access` operations across all clients.
    pub fn total_accesses(&self) -> u64 {
        self.per_client
            .iter()
            .flatten()
            .filter(|op| matches!(op, ClientOp::Access { .. }))
            .count() as u64
    }

    /// Per-client count of `Access` operations (the "iteration balance"
    /// the load-balancing step cares about, at access granularity).
    pub fn accesses_per_client(&self) -> Vec<u64> {
        self.per_client
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter(|op| matches!(op, ClientOp::Access { .. }))
                    .count() as u64
            })
            .collect()
    }
}

/// Why a simulation could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The platform configuration is invalid.
    Config(ConfigError),
    /// The hierarchy tree was built for a different client count.
    TreeMismatch {
        /// Clients in the tree.
        tree_clients: usize,
        /// Clients in the configuration.
        config_clients: usize,
    },
    /// The program was mapped for a different client count.
    ProgramMismatch {
        /// Clients in the program.
        program_clients: usize,
        /// Clients in the configuration.
        config_clients: usize,
    },
    /// A synchronization token was signalled twice.
    DuplicateSignal {
        /// The offending token.
        token: u32,
    },
    /// The run ended with clients parked on tokens that were never
    /// signalled.
    Deadlock {
        /// The waiting clients, in ascending order.
        waiting: Vec<usize>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid platform config: {e}"),
            EngineError::TreeMismatch {
                tree_clients,
                config_clients,
            } => write!(
                f,
                "hierarchy tree has {tree_clients} clients, config has {config_clients}"
            ),
            EngineError::ProgramMismatch {
                program_clients,
                config_clients,
            } => write!(
                f,
                "program has {program_clients} clients, platform has {config_clients}"
            ),
            EngineError::DuplicateSignal { token } => {
                write!(f, "token {token} signalled twice")
            }
            EngineError::Deadlock { waiting } => write!(
                f,
                "deadlock: clients {waiting:?} waiting on tokens that were never signalled"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// Eviction counters for one cache level, aggregated over a run.
/// Dirty evictions additionally count as writebacks (the victim is
/// pushed one level down, or to disk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionTally {
    /// Total evictions, clean and dirty.
    pub evictions: u64,
    /// Dirty evictions that triggered a writeback.
    pub writebacks: u64,
}

impl EvictionTally {
    fn bump(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.writebacks += 1;
        }
    }
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Cumulative client-cache statistics (all L1 caches merged).
    pub l1: HitMiss,
    /// Cumulative I/O-node cache statistics.
    pub l2: HitMiss,
    /// Cumulative storage-node cache statistics.
    pub l3: HitMiss,
    /// Client-cache evictions/writebacks (all L1 caches merged).
    pub l1_evictions: EvictionTally,
    /// I/O-node cache evictions/writebacks.
    pub l2_evictions: EvictionTally,
    /// Storage-node cache evictions/writebacks.
    pub l3_evictions: EvictionTally,
    /// Per-client time spent inside `Access` operations, ns.
    pub per_client_io_ns: Vec<u64>,
    /// Per-client time spent inside `Compute` operations, ns.
    pub per_client_compute_ns: Vec<u64>,
    /// Per-client completion time, ns.
    pub per_client_finish_ns: Vec<u64>,
    /// Disk reads serviced.
    pub disk_reads: u64,
    /// Disk reads that were sequential on their disk.
    pub disk_sequential_reads: u64,
    /// Disk write-backs serviced.
    pub disk_writes: u64,
    /// Chunks prefetched into storage-node caches by server read-ahead.
    pub prefetched_chunks: u64,
}

struct Resources {
    l1: Vec<Box<dyn ChunkCache + Send>>,
    l2: Vec<Box<dyn ChunkCache + Send>>,
    l3: Vec<Box<dyn ChunkCache + Send>>,
    l2_free: Vec<u64>,
    l3_free: Vec<u64>,
    disks: Vec<Disk>,
    disk_free: Vec<u64>,
    /// Aggregate eviction/writeback tallies `[l1, l2, l3]`.
    tally: [EvictionTally; 3],
}

/// Where each client's misses go, read off the hierarchy tree once, so
/// the access path never walks the tree.
struct Routes {
    /// The I/O node of each client.
    client_io: Vec<usize>,
    /// The storage node of each client (via its I/O node).
    client_storage: Vec<usize>,
    /// The storage node above each I/O node.
    io_storage: Vec<usize>,
}

impl Routes {
    fn new(tree: &HierarchyTree, cfg: &PlatformConfig) -> Routes {
        let client_io: Vec<usize> = (0..cfg.num_clients).map(|c| tree.io_of_client(c)).collect();
        let io_storage: Vec<usize> = (0..cfg.num_io_nodes)
            .map(|io| tree.storage_of_io(io))
            .collect();
        Routes {
            client_storage: client_io.iter().map(|&io| io_storage[io]).collect(),
            client_io,
            io_storage,
        }
    }
}

/// One client's progress through its op stream.
#[derive(Debug, Clone, Copy, Default)]
struct ClientRun {
    /// Simulated clock, ns: the start of the next op.
    clock: u64,
    /// Index of the next op.
    pc: usize,
    /// Time spent inside `Access` ops, ns.
    io_ns: u64,
    /// Time spent inside `Compute` ops, ns.
    compute_ns: u64,
    /// The `Access` at `pc` has looked up its L1 and missed; it resumes
    /// at the L2 step when the client next reaches the top of the heap.
    missed_l1: bool,
}

/// The discrete-event engine. Construct with [`Engine::new`], then call
/// [`Engine::run`] once.
pub struct Engine<'a> {
    cfg: &'a PlatformConfig,
    routes: Routes,
    /// One chunk over one network link (latency plus serialization), ns.
    chunk_ns: u64,
    res: Resources,
    /// Metric recorder; `Some` only when the caller attached an *enabled*
    /// recorder, so the disabled path stays structurally identical to a
    /// run without observability.
    obs: Option<&'a mut Recorder>,
    trace: Option<Vec<TraceEvent>>,
    /// Highest chunk id referenced by the program (read-ahead never
    /// prefetches beyond it).
    max_chunk: Chunk,
    prefetched: u64,
}

impl<'a> Engine<'a> {
    /// Builds the engine's cache/disk state for a platform, and computes
    /// the platform's costs and each client's route once.
    pub fn new(cfg: &'a PlatformConfig, tree: &HierarchyTree) -> Result<Self, EngineError> {
        cfg.validate()?;
        if tree.num_clients() != cfg.num_clients {
            return Err(EngineError::TreeMismatch {
                tree_clients: tree.num_clients(),
                config_clients: cfg.num_clients,
            });
        }
        let res = Resources {
            l1: (0..cfg.num_clients)
                .map(|_| build_cache(cfg.policies[0], cfg.client_cache_chunks))
                .collect(),
            l2: (0..cfg.num_io_nodes)
                .map(|_| build_cache(cfg.policies[1], cfg.io_cache_chunks))
                .collect(),
            l3: (0..cfg.num_storage_nodes)
                .map(|_| build_cache(cfg.policies[2], cfg.storage_cache_chunks))
                .collect(),
            l2_free: vec![0; cfg.num_io_nodes],
            l3_free: vec![0; cfg.num_storage_nodes],
            disks: vec![Disk::new(cfg); total_disks(cfg)],
            disk_free: vec![0; total_disks(cfg)],
            tally: [EvictionTally::default(); 3],
        };
        Ok(Engine {
            cfg,
            routes: Routes::new(tree, cfg),
            chunk_ns: cfg.net_chunk_ns(),
            res,
            obs: None,
            trace: None,
            max_chunk: 0,
            prefetched: 0,
        })
    }

    /// Attaches a metric recorder. A disabled recorder is ignored,
    /// keeping the uninstrumented fast path byte-identical.
    pub fn with_recorder(mut self, rec: &'a mut Recorder) -> Self {
        if rec.is_enabled() {
            self.obs = Some(rec);
        }
        self
    }

    /// Like [`Engine::run`] but also records every access into a
    /// [`Trace`].
    pub fn run_traced(mut self, program: &MappedProgram) -> Result<(RunStats, Trace), EngineError> {
        self.trace = Some(Vec::new());
        let (stats, trace) = self.run_impl(program)?;
        // Invariant: run_impl returns the trace whenever capture was
        // primed above; fall back to an empty trace defensively.
        debug_assert!(trace.is_some(), "trace capture was enabled");
        Ok((stats, trace.unwrap_or(Trace { events: Vec::new() })))
    }

    /// Runs a mapped program to completion and returns the statistics.
    pub fn run(self, program: &MappedProgram) -> Result<RunStats, EngineError> {
        Ok(self.run_impl(program)?.0)
    }

    fn run_impl(
        mut self,
        program: &MappedProgram,
    ) -> Result<(RunStats, Option<Trace>), EngineError> {
        let n = self.cfg.num_clients;
        if program.num_clients() != n {
            return Err(EngineError::ProgramMismatch {
                program_clients: program.num_clients(),
                config_clients: n,
            });
        }
        self.max_chunk = program
            .per_client
            .iter()
            .flatten()
            .filter_map(|op| match op {
                ClientOp::Access { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .max()
            .unwrap_or(0);

        let mut runs = vec![ClientRun::default(); n];
        let sync_ns = self.cfg.sync_ns;
        let mut signals: FxHashMap<u32, u64> = FxHashMap::default();
        let mut parked: FxHashMap<u32, Vec<usize>> = FxHashMap::default();

        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n)
            .filter(|&c| !program.per_client[c].is_empty())
            .map(|c| Reverse((0, c)))
            .collect();

        loop {
            let Some(mut top) = heap.peek_mut() else {
                break;
            };
            let Reverse((t, c)) = *top;
            debug_assert_eq!(t, runs[c].clock);
            let ops = &program.per_client[c];
            // The op at the top runs whatever it is.
            match ops[runs[c].pc] {
                ClientOp::Compute { ns } => self.compute(c, &mut runs[c], ns),
                ClientOp::Access { chunk, write } => {
                    let run = &mut runs[c];
                    let hit = !std::mem::take(&mut run.missed_l1)
                        && self.l1_lookup(c, chunk, write, run.clock);
                    self.finish_access(c, run, chunk, write, hit);
                }
                ClientOp::Signal { token } => {
                    let run = &mut runs[c];
                    run.pc += 1;
                    run.clock += sync_ns;
                    let at = run.clock;
                    let more = run.pc < ops.len();
                    if signals.insert(token, at).is_some() {
                        return Err(EngineError::DuplicateSignal { token });
                    }
                    if let Some(waiters) = parked.remove(&token) {
                        // The waiters enter the heap, and at `sync_ns = 0`
                        // a lower-numbered one sorts ahead of the
                        // signaller: it leaves the top and re-enters at
                        // its clock.
                        PeekMut::pop(top);
                        for w in waiters {
                            let run = &mut runs[w];
                            run.clock = run.clock.max(at) + sync_ns;
                            if run.pc < program.per_client[w].len() {
                                heap.push(Reverse((run.clock, w)));
                            }
                        }
                        if more {
                            heap.push(Reverse((at, c)));
                        }
                        continue;
                    }
                }
                ClientOp::Wait { token } => {
                    let run = &mut runs[c];
                    run.pc += 1;
                    if let Some(&ts) = signals.get(&token) {
                        run.clock = run.clock.max(ts) + sync_ns;
                    } else {
                        // Park: the matching Signal re-queues the client.
                        parked.entry(token).or_default().push(c);
                        PeekMut::pop(top);
                        continue;
                    }
                }
            }
            let run = &mut runs[c];
            self.run_ahead(c, run, ops);
            if run.pc < ops.len() {
                // Re-key in place: one sift instead of a pop and a push.
                *top = Reverse((run.clock, c));
            } else {
                PeekMut::pop(top);
            }
        }

        if !parked.is_empty() {
            let mut waiting: Vec<usize> = parked.values().flatten().copied().collect();
            waiting.sort_unstable();
            return Err(EngineError::Deadlock { waiting });
        }

        let mut stats = RunStats {
            per_client_io_ns: runs.iter().map(|r| r.io_ns).collect(),
            per_client_compute_ns: runs.iter().map(|r| r.compute_ns).collect(),
            per_client_finish_ns: runs.iter().map(|r| r.clock).collect(),
            ..RunStats::default()
        };
        for c in &self.res.l1 {
            stats.l1.merge(&c.stats());
        }
        for c in &self.res.l2 {
            stats.l2.merge(&c.stats());
        }
        for c in &self.res.l3 {
            stats.l3.merge(&c.stats());
        }
        for d in &self.res.disks {
            stats.disk_reads += d.reads;
            stats.disk_writes += d.writes;
            stats.disk_sequential_reads += d.sequential_reads;
        }
        stats.l1_evictions = self.res.tally[0];
        stats.l2_evictions = self.res.tally[1];
        stats.l3_evictions = self.res.tally[2];
        stats.prefetched_chunks = self.prefetched;
        let trace = self.trace.take().map(|mut events| {
            events.sort_by_key(|e| (e.time_ns, e.client));
            Trace { events }
        });
        Ok((stats, trace))
    }

    /// Writes a dirty chunk back to its disk; returns the completion
    /// time.
    fn disk_writeback(&mut self, victim: Chunk, t: u64) -> u64 {
        let di = disk_index(victim, self.cfg);
        let start = t.max(self.res.disk_free[di]);
        let service = self.res.disks[di].write(victim);
        self.res.disk_free[di] = start + service;
        start + service
    }

    /// Runs one `Compute` op of client `c`.
    fn compute(&mut self, c: usize, run: &mut ClientRun, ns: u64) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.client_compute(c, run.clock, ns);
        }
        run.clock += ns;
        run.compute_ns += ns;
        run.pc += 1;
    }

    /// Runs client `c` on from the top of the heap through its private
    /// ops — computes, and accesses that hit its L1. Stops at the first
    /// shared op: a `Signal`, a `Wait`, or an access that missed its L1,
    /// which stays pending with the miss counted.
    fn run_ahead(&mut self, c: usize, run: &mut ClientRun, ops: &[ClientOp]) {
        while run.pc < ops.len() {
            match ops[run.pc] {
                ClientOp::Compute { ns } => self.compute(c, run, ns),
                ClientOp::Access { chunk, write } => {
                    if !self.l1_lookup(c, chunk, write, run.clock) {
                        run.missed_l1 = true;
                        return;
                    }
                    self.finish_access(c, run, chunk, write, true);
                }
                ClientOp::Signal { .. } | ClientOp::Wait { .. } => return,
            }
        }
    }

    /// Looks `chunk` up in client `c`'s L1 for an access starting at
    /// `start`; counts the hit or miss.
    fn l1_lookup(&mut self, c: usize, chunk: Chunk, write: bool, start: u64) -> bool {
        let hit = self.res.l1[c].access(chunk, write);
        if let Some(o) = self.obs.as_deref_mut() {
            o.cache_access(ObsLevel::L1, c, start + self.cfg.cache_access_ns, hit);
        }
        hit
    }

    /// Completes the access at `run.pc`, whose L1 lookup has been made,
    /// and advances the client past it.
    fn finish_access(
        &mut self,
        c: usize,
        run: &mut ClientRun,
        chunk: Chunk,
        write: bool,
        l1_hit: bool,
    ) {
        let start = run.clock;
        let t = start + self.cfg.cache_access_ns;
        let (end, served_by) = if l1_hit {
            (t, ServedBy::L1)
        } else {
            self.remote(c, chunk, write, t)
        };
        run.pc += 1;
        run.io_ns += end - start;
        run.clock = end;
        if let Some(o) = self.obs.as_deref_mut() {
            o.client_io(c, start, end - start);
            o.chunk_access(chunk as u64);
        }
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent {
                time_ns: start,
                client: c,
                chunk,
                write,
                served_by,
            });
        }
    }

    /// Serves an L1 miss of client `c` from the L2 step on, at time `t`
    /// after the L1 lookup; returns the completion time and the level
    /// that served the data.
    fn remote(&mut self, c: usize, chunk: Chunk, write: bool, mut t: u64) -> (u64, ServedBy) {
        let cfg = self.cfg;
        let mut served_by = ServedBy::L2;
        let io = self.routes.client_io[c];
        t += cfg.net_hop_ns;
        t = self.serve_l2(io, t);
        let l2_hit = self.res.l2[io].access(chunk, false);
        if let Some(o) = self.obs.as_deref_mut() {
            o.cache_access(ObsLevel::L2, io, t, l2_hit);
        }
        if !l2_hit {
            // L2 miss → storage node on the path.
            let s = self.routes.client_storage[c];
            t += cfg.net_hop_ns;
            t = self.serve_l3(s, t);
            let l3_hit = self.res.l3[s].access(chunk, false);
            if let Some(o) = self.obs.as_deref_mut() {
                o.cache_access(ObsLevel::L3, s, t, l3_hit);
            }
            served_by = ServedBy::L3;

            if !l3_hit {
                served_by = ServedBy::Disk;
                // L3 miss → disk of the striping owner.
                let owner = owner_of_chunk(chunk, cfg);
                if owner != s {
                    t += cfg.net_hop_ns;
                }
                let di = disk_index(chunk, cfg);
                let start = t.max(self.res.disk_free[di]);
                t = start + self.res.disks[di].read(chunk);
                self.res.disk_free[di] = t;
                if owner != s {
                    t += self.chunk_ns;
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.link_transfer(LinkHop::StoragePeer, owner, s, cfg.chunk_bytes);
                    }
                }
                // Fill L3 (write-back any dirty victim to its disk).
                t = self.fill_l3(s, chunk, false, t);
                // Server read-ahead: pull the next sequential chunks of
                // this spindle into L3 asynchronously — the disk stays
                // busy (streaming at transfer rate) but the client does
                // not wait.
                if cfg.readahead_chunks > 0 {
                    self.readahead(s, chunk, t);
                }
            }
            t += self.chunk_ns;
            if let Some(o) = self.obs.as_deref_mut() {
                o.link_transfer(LinkHop::IoStorage, s, io, cfg.chunk_bytes);
            }
            // Fill L2 (dirty victim cascades into L3).
            t = self.fill_l2(io, chunk, false, t);
        }
        t += self.chunk_ns;
        if let Some(o) = self.obs.as_deref_mut() {
            o.link_transfer(LinkHop::ClientIo, io, c, cfg.chunk_bytes);
        }

        // Fill L1; a dirty victim is written back to L2.
        match self.res.l1[c].insert(chunk, write) {
            InsertOutcome::Inserted => {}
            InsertOutcome::EvictedClean(_) => {
                self.res.tally[0].bump(false);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L1, c, t, false);
                }
            }
            InsertOutcome::EvictedDirty(victim) => {
                self.res.tally[0].bump(true);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L1, c, t, true);
                }
                t += self.chunk_ns;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.link_transfer(LinkHop::ClientIo, c, io, cfg.chunk_bytes);
                }
                t = self.serve_l2(io, t);
                t = self.fill_l2(io, victim, true, t);
            }
        }
        (t, served_by)
    }

    /// PVFS-style server read-ahead after a demand read of `chunk`.
    fn readahead(&mut self, s: usize, chunk: Chunk, t: u64) {
        let cfg = self.cfg;
        let stride = striping_stride(cfg);
        let di = disk_index(chunk, cfg);
        for k in 1..=cfg.readahead_chunks {
            let next = chunk + k * stride;
            if next > self.max_chunk || self.res.l3[s].contains(next) {
                break;
            }
            // Sequential transfer keeps the spindle busy; the requesting
            // client does not wait for it.
            let start = t.max(self.res.disk_free[di]);
            let service = self.res.disks[di].read(next);
            self.res.disk_free[di] = start + service;
            self.fill_l3(s, next, false, start + service);
            self.prefetched += 1;
        }
    }

    /// Waits for and occupies the L2 cache controller of I/O node `io`.
    fn serve_l2(&mut self, io: usize, t: u64) -> u64 {
        let start = t.max(self.res.l2_free[io]);
        if let Some(o) = self.obs.as_deref_mut() {
            o.queue_wait(ObsLevel::L2, io, t, start - t);
        }
        let end = start + self.cfg.cache_access_ns;
        self.res.l2_free[io] = end;
        end
    }

    /// Waits for and occupies the L3 cache controller of storage node `s`.
    fn serve_l3(&mut self, s: usize, t: u64) -> u64 {
        let start = t.max(self.res.l3_free[s]);
        if let Some(o) = self.obs.as_deref_mut() {
            o.queue_wait(ObsLevel::L3, s, t, start - t);
        }
        let end = start + self.cfg.cache_access_ns;
        self.res.l3_free[s] = end;
        end
    }

    /// Inserts into L2, cascading a dirty victim into L3.
    fn fill_l2(&mut self, io: usize, chunk: Chunk, dirty: bool, mut t: u64) -> u64 {
        match self.res.l2[io].insert(chunk, dirty) {
            InsertOutcome::Inserted => t,
            InsertOutcome::EvictedClean(_) => {
                self.res.tally[1].bump(false);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L2, io, t, false);
                }
                t
            }
            InsertOutcome::EvictedDirty(victim) => {
                self.res.tally[1].bump(true);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L2, io, t, true);
                }
                let s = self.routes.io_storage[io];
                t += self.chunk_ns;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.link_transfer(LinkHop::IoStorage, io, s, self.cfg.chunk_bytes);
                }
                t = self.serve_l3(s, t);
                self.fill_l3(s, victim, true, t)
            }
        }
    }

    /// Inserts into L3, writing a dirty victim back to its disk.
    fn fill_l3(&mut self, s: usize, chunk: Chunk, dirty: bool, t: u64) -> u64 {
        match self.res.l3[s].insert(chunk, dirty) {
            InsertOutcome::Inserted => t,
            InsertOutcome::EvictedClean(_) => {
                self.res.tally[2].bump(false);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L3, s, t, false);
                }
                t
            }
            InsertOutcome::EvictedDirty(victim) => {
                self.res.tally[2].bump(true);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.eviction(ObsLevel::L3, s, t, true);
                }
                self.disk_writeback(victim, t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (PlatformConfig, HierarchyTree) {
        let cfg = PlatformConfig::tiny();
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        (cfg, tree)
    }

    fn run(cfg: &PlatformConfig, tree: &HierarchyTree, prog: &MappedProgram) -> RunStats {
        Engine::new(cfg, tree).unwrap().run(prog).unwrap()
    }

    #[test]
    fn empty_program_finishes_at_zero() {
        let (cfg, tree) = tiny();
        let prog = MappedProgram::new(cfg.num_clients);
        let stats = run(&cfg, &tree, &prog);
        assert!(stats.per_client_finish_ns.iter().all(|&t| t == 0));
        assert_eq!(stats.l1.accesses(), 0);
    }

    #[test]
    fn compute_only_advances_clock() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Compute { ns: 500 }, ClientOp::Compute { ns: 250 }];
        let stats = run(&cfg, &tree, &prog);
        assert_eq!(stats.per_client_finish_ns[0], 750);
        assert_eq!(stats.per_client_compute_ns[0], 750);
        assert_eq!(stats.per_client_io_ns[0], 0);
    }

    #[test]
    fn first_access_misses_all_levels_then_hits_l1() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Access {
                chunk: 3,
                write: false,
            },
            ClientOp::Access {
                chunk: 3,
                write: false,
            },
        ];
        let stats = run(&cfg, &tree, &prog);
        assert_eq!(stats.l1.hits, 1);
        assert_eq!(stats.l1.misses, 1);
        assert_eq!(stats.l2.misses, 1);
        assert_eq!(stats.l2.hits, 0);
        assert_eq!(stats.l3.misses, 1);
        assert_eq!(stats.disk_reads, 1);
        // Second access is far cheaper than the first.
        assert!(stats.per_client_io_ns[0] > cfg.seek_ns);
    }

    #[test]
    fn sharing_through_l2_gives_second_client_a_hit() {
        let (cfg, tree) = tiny();
        // Clients 0 and 1 share I/O node 0 in the tiny topology.
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Access {
            chunk: 9,
            write: false,
        }];
        prog.per_client[1] = vec![
            ClientOp::Compute { ns: 60_000_000 }, // let client 0 finish first
            ClientOp::Access {
                chunk: 9,
                write: false,
            },
        ];
        let stats = run(&cfg, &tree, &prog);
        assert_eq!(stats.l1.misses, 2); // each client misses its private L1
        assert_eq!(stats.l2.hits, 1); // client 1 hits in the shared L2
        assert_eq!(stats.l2.misses, 1);
        assert_eq!(stats.disk_reads, 1);
    }

    #[test]
    fn no_sharing_when_clients_use_different_io_nodes() {
        let (cfg, tree) = tiny();
        // Clients 0 and 2 are under different I/O nodes but the same
        // (only) storage node: the reuse shows up at L3, not L2.
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Access {
            chunk: 9,
            write: false,
        }];
        prog.per_client[2] = vec![
            ClientOp::Compute { ns: 60_000_000 },
            ClientOp::Access {
                chunk: 9,
                write: false,
            },
        ];
        let stats = run(&cfg, &tree, &prog);
        assert_eq!(stats.l2.hits, 0);
        assert_eq!(stats.l3.hits, 1);
        assert_eq!(stats.disk_reads, 1);
    }

    #[test]
    fn capacity_eviction_causes_refetch() {
        let (cfg, tree) = tiny(); // L1 holds 4 chunks
        let mut ops = Vec::new();
        for chunk in 0..5 {
            ops.push(ClientOp::Access {
                chunk,
                write: false,
            });
        }
        ops.push(ClientOp::Access {
            chunk: 0,
            write: false,
        }); // evicted by now
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = ops;
        let stats = run(&cfg, &tree, &prog);
        assert_eq!(stats.l1.hits, 0);
        assert_eq!(stats.l1.misses, 6);
        // Chunk 0 is still in the bigger L2 → refetch hits L2.
        assert_eq!(stats.l2.hits, 1);
    }

    #[test]
    fn dirty_writeback_reaches_disk() {
        let (mut cfg, _) = tiny();
        // Shrink every level to 1 chunk so a dirty chunk is forced all
        // the way to disk.
        cfg.client_cache_chunks = 1;
        cfg.io_cache_chunks = 1;
        cfg.storage_cache_chunks = 1;
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Access {
                chunk: 0,
                write: true,
            },
            ClientOp::Access {
                chunk: 1,
                write: true,
            },
            ClientOp::Access {
                chunk: 2,
                write: true,
            },
            ClientOp::Access {
                chunk: 3,
                write: true,
            },
        ];
        let stats = run(&cfg, &tree, &prog);
        assert!(stats.disk_writes >= 1, "dirty evictions must reach disk");
    }

    #[test]
    fn signal_wait_orders_clients() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Compute { ns: 1_000_000 },
            ClientOp::Signal { token: 7 },
        ];
        prog.per_client[1] = vec![ClientOp::Wait { token: 7 }, ClientOp::Compute { ns: 10 }];
        let stats = run(&cfg, &tree, &prog);
        // Client 1 cannot finish before client 0's signal at 1ms+sync.
        assert!(stats.per_client_finish_ns[1] >= 1_000_000 + cfg.sync_ns);
    }

    #[test]
    fn wait_after_signal_does_not_park() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Signal { token: 1 }];
        prog.per_client[1] = vec![
            ClientOp::Compute { ns: 5_000_000 },
            ClientOp::Wait { token: 1 },
        ];
        let stats = run(&cfg, &tree, &prog);
        assert!(stats.per_client_finish_ns[1] >= 5_000_000);
    }

    #[test]
    fn a_wait_that_ends_a_stream_finishes_at_the_signal() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Compute { ns: 1_000_000 },
            ClientOp::Signal { token: 4 },
        ];
        prog.per_client[1] = vec![ClientOp::Wait { token: 4 }];
        let stats = run(&cfg, &tree, &prog);
        // Client 1 parks at time 0 and has nothing left once woken.
        assert_eq!(stats.per_client_finish_ns[1], 1_000_000 + 2 * cfg.sync_ns);
    }

    #[test]
    fn missing_signal_is_a_deadlock_error() {
        // Changed from a `should_panic` test: the engine now reports the
        // deadlock as a typed error instead of panicking.
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Wait { token: 99 }];
        let err = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap_err();
        assert_eq!(err, EngineError::Deadlock { waiting: vec![0] });
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn duplicate_signal_is_an_error() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Signal { token: 3 }, ClientOp::Signal { token: 3 }];
        let err = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap_err();
        assert_eq!(err, EngineError::DuplicateSignal { token: 3 });
    }

    #[test]
    fn program_size_mismatch_is_an_error() {
        let (cfg, tree) = tiny();
        let prog = MappedProgram::new(cfg.num_clients + 1);
        let err = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap_err();
        assert!(matches!(err, EngineError::ProgramMismatch { .. }));
    }

    #[test]
    fn deterministic_across_runs() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        for c in 0..cfg.num_clients {
            let ops: Vec<ClientOp> = (0..50)
                .map(|i| ClientOp::Access {
                    chunk: (c * 13 + i * 7) % 40,
                    write: i % 4 == 0,
                })
                .collect();
            prog.per_client[c] = ops;
        }
        let s1 = run(&cfg, &tree, &prog);
        let s2 = run(&cfg, &tree, &prog);
        assert_eq!(s1.per_client_finish_ns, s2.per_client_finish_ns);
        assert_eq!(s1.l1, s2.l1);
        assert_eq!(s1.l2, s2.l2);
        assert_eq!(s1.l3, s2.l3);
        assert_eq!(s1.disk_reads, s2.disk_reads);
    }

    #[test]
    fn contention_serializes_shared_l2() {
        let (cfg, tree) = tiny();
        // Both clients hammer the same I/O node simultaneously; their
        // L2 service must serialize, so at least one finishes later than
        // it would alone.
        let mk = |chunks: std::ops::Range<usize>| -> Vec<ClientOp> {
            chunks
                .map(|chunk| ClientOp::Access {
                    chunk,
                    write: false,
                })
                .collect()
        };
        let mut solo = MappedProgram::new(cfg.num_clients);
        solo.per_client[0] = mk(0..20);
        let solo_stats = run(&cfg, &tree, &solo);

        let mut both = MappedProgram::new(cfg.num_clients);
        both.per_client[0] = mk(0..20);
        both.per_client[1] = mk(100..120);
        let both_stats = run(&cfg, &tree, &both);

        assert!(
            both_stats.per_client_finish_ns[0] >= solo_stats.per_client_finish_ns[0],
            "contention should never speed a client up"
        );
    }

    #[test]
    fn accesses_per_client_counts() {
        let mut prog = MappedProgram::new(2);
        prog.per_client[0] = vec![
            ClientOp::Compute { ns: 5 },
            ClientOp::Access {
                chunk: 0,
                write: false,
            },
        ];
        prog.per_client[1] = vec![ClientOp::Access {
            chunk: 1,
            write: true,
        }];
        assert_eq!(prog.total_accesses(), 2);
        assert_eq!(prog.accesses_per_client(), vec![1, 1]);
    }
}

#[cfg(test)]
mod trace_prefetch_tests {
    use super::*;
    use crate::trace::ServedBy;

    fn tiny() -> (PlatformConfig, HierarchyTree) {
        let cfg = PlatformConfig::tiny();
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        (cfg, tree)
    }

    #[test]
    fn traced_run_matches_untraced_and_labels_levels() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Access {
                chunk: 1,
                write: false,
            }, // disk
            ClientOp::Access {
                chunk: 1,
                write: false,
            }, // L1 hit
        ];
        let plain = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap();
        let (stats, trace) = Engine::new(&cfg, &tree).unwrap().run_traced(&prog).unwrap();
        assert_eq!(plain.per_client_finish_ns, stats.per_client_finish_ns);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].served_by, ServedBy::Disk);
        assert_eq!(trace.events[1].served_by, ServedBy::L1);
        assert!(trace.events[0].time_ns <= trace.events[1].time_ns);
    }

    #[test]
    fn trace_reuse_profile_connects_to_hits() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = (0..20)
            .map(|i| ClientOp::Access {
                chunk: i % 5,
                write: false,
            })
            .collect();
        let (stats, trace) = Engine::new(&cfg, &tree).unwrap().run_traced(&prog).unwrap();
        let profile = trace.client_reuse_profile(0);
        // L1 holds 4 chunks; Mattson predicts its hits exactly for a
        // single-client run.
        assert_eq!(
            profile.hits_at_capacity(cfg.client_cache_chunks),
            stats.l1.hits
        );
    }

    #[test]
    fn readahead_prefetches_sequential_spindle_chunks() {
        let (mut cfg, _) = tiny();
        cfg.readahead_chunks = 2;
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        // tiny(): 1 storage node × 4 spindles → stride 4. Touch chunk 0,
        // then its spindle successors 4 and 8 should be L3 hits.
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![
            ClientOp::Access {
                chunk: 0,
                write: false,
            },
            ClientOp::Access {
                chunk: 4,
                write: false,
            },
            ClientOp::Access {
                chunk: 8,
                write: false,
            },
        ];
        let stats = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap();
        assert_eq!(stats.prefetched_chunks, 2);
        assert_eq!(stats.l3.hits, 2, "prefetched chunks must hit in L3");
        assert_eq!(stats.disk_reads, 3, "demand read + two prefetch reads");
    }

    #[test]
    fn readahead_stops_at_program_footprint() {
        let (mut cfg, _) = tiny();
        cfg.readahead_chunks = 8;
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Access {
            chunk: 0,
            write: false,
        }];
        let stats = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap();
        assert_eq!(
            stats.prefetched_chunks, 0,
            "nothing beyond the program's highest chunk may be prefetched"
        );
    }

    #[test]
    fn readahead_off_by_default() {
        let (cfg, tree) = tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        prog.per_client[0] = vec![ClientOp::Access {
            chunk: 0,
            write: false,
        }];
        let stats = Engine::new(&cfg, &tree).unwrap().run(&prog).unwrap();
        assert_eq!(stats.prefetched_chunks, 0);
    }
}
