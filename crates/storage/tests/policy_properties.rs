//! Property tests for the eviction-policy zoo: every production cache is
//! cross-checked against an executable reference model under seeded
//! random streams of access / insert / reset operations.
//!
//! The models are deliberately naive — ordered `Vec`s and linear scans —
//! so their behaviour is easy to audit; the production caches must match
//! them *exactly* (hits, eviction victims, dirty write-back bits), which
//! pins down deterministic eviction order for every policy. Two
//! invariants are additionally checked on every step: residency never
//! exceeds capacity, and a dirty chunk surfaces as dirty exactly once
//! between residencies.

use cachemap_storage::cache::{build_cache, Chunk, ChunkCache, InsertOutcome};
use cachemap_storage::PolicyKind;

/// Deterministic xorshift64* generator — keeps the streams seeded and
/// dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

// ---------------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------------

/// One resident line of a reference model.
#[derive(Debug, Clone)]
struct Line {
    chunk: Chunk,
    dirty: bool,
    freq: u64,
    key: u64, // LFUDA priority at last touch
    seq: u64,
    seg: u8, // SLRU: 0 probationary, 1 protected
}

/// Executable specification of each policy: a `Vec` of lines in recency
/// order (front = most recently touched) plus whatever bookkeeping the
/// policy needs. `victim()` returns the index to evict next.
struct Model {
    policy: PolicyKind,
    capacity: usize,
    lines: Vec<Line>, // front = most recent (recency policies)
    fifo: Vec<Chunk>, // FIFO arrival order (front = oldest)
    age: u64,
    next_seq: u64,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new(policy: PolicyKind, capacity: usize) -> Self {
        Model {
            policy,
            capacity,
            lines: Vec::new(),
            fifo: Vec::new(),
            age: 0,
            next_seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn protected_cap(&self) -> usize {
        (self.capacity * 4 / 5).max(1)
    }

    fn pos(&self, chunk: Chunk) -> Option<usize> {
        self.lines.iter().position(|l| l.chunk == chunk)
    }

    fn touch(&mut self, chunk: Chunk, write: bool) {
        let i = self.pos(chunk).expect("resident");
        let mut line = self.lines.remove(i);
        line.dirty |= write;
        line.freq += 1;
        match self.policy {
            PolicyKind::Lru => self.lines.insert(0, line),
            PolicyKind::Fifo => {
                // Order untouched: put it back where it was.
                self.lines.insert(i, line);
            }
            PolicyKind::Lfu => self.lines.insert(i, line),
            PolicyKind::Slru => {
                line.seg = 1;
                self.lines.insert(0, line);
                // Demote protected overflow (never evicts).
                let protected: Vec<usize> = (0..self.lines.len())
                    .filter(|&j| self.lines[j].seg == 1)
                    .collect();
                if protected.len() > self.protected_cap() {
                    let demote = *protected.last().expect("non-empty");
                    self.lines[demote].seg = 0;
                    let l = self.lines.remove(demote);
                    self.lines.insert(0, l);
                    // Re-order: the demoted line becomes probationary
                    // MRU, which is position 0 among probationary lines.
                }
            }
            PolicyKind::Lfuda => {
                line.key = self.age + line.freq;
                self.lines.insert(i, line);
            }
        }
    }

    /// Index of the next victim in `lines`, per policy.
    fn victim(&self) -> usize {
        match self.policy {
            PolicyKind::Lru => self.lines.len() - 1,
            PolicyKind::Fifo => {
                let oldest = self.fifo[0];
                self.pos(oldest).expect("fifo line resident")
            }
            PolicyKind::Lfu => (0..self.lines.len())
                .min_by_key(|&i| (self.lines[i].freq, self.lines[i].seq))
                .expect("non-empty"),
            PolicyKind::Slru => {
                // Probationary LRU first (last probationary in recency
                // order), protected LRU otherwise.
                let pick = |seg: u8| (0..self.lines.len()).rfind(|&i| self.lines[i].seg == seg);
                pick(0).or_else(|| pick(1)).expect("non-empty")
            }
            PolicyKind::Lfuda => (0..self.lines.len())
                .min_by_key(|&i| (self.lines[i].key, self.lines[i].seq))
                .expect("non-empty"),
        }
    }

    fn evict_one(&mut self) -> (Chunk, bool) {
        let v = self.victim();
        let line = self.lines.remove(v);
        if self.policy == PolicyKind::Lfuda {
            self.age = self.age.max(line.key);
        }
        self.fifo.retain(|&c| c != line.chunk);
        (line.chunk, line.dirty)
    }

    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if self.pos(chunk).is_some() {
            self.hits += 1;
            self.touch(chunk, write);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        if let Some(i) = self.pos(chunk) {
            match self.policy {
                PolicyKind::Lru | PolicyKind::Slru | PolicyKind::Lfuda => {
                    // Re-insert counts as a touch for these policies…
                    self.lines[i].dirty |= dirty;
                    self.touch(chunk, false);
                }
                PolicyKind::Fifo | PolicyKind::Lfu => {
                    // …but FIFO/LFU just merge the dirty bit.
                    self.lines[i].dirty |= dirty;
                }
            }
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.lines.len() == self.capacity {
            let (victim, was_dirty) = self.evict_one();
            outcome = if was_dirty {
                InsertOutcome::EvictedDirty(victim)
            } else {
                InsertOutcome::EvictedClean(victim)
            };
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = if self.policy == PolicyKind::Lfuda {
            self.age + 1
        } else {
            0
        };
        self.lines.insert(
            0,
            Line {
                chunk,
                dirty,
                freq: 1,
                key,
                seq,
                seg: 0,
            },
        );
        self.fifo.push(chunk);
        outcome
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.fifo.clear();
        self.age = 0;
        self.next_seq = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

// ---------------------------------------------------------------------------
// The property harness
// ---------------------------------------------------------------------------

/// Tracks that a dirtied chunk surfaces as dirty exactly once between
/// residencies: marked when a residency becomes dirty, cleared when its
/// eviction surfaces it.
struct DirtyLedger {
    dirty: std::collections::BTreeSet<Chunk>,
}

impl DirtyLedger {
    fn new() -> Self {
        DirtyLedger {
            dirty: std::collections::BTreeSet::new(),
        }
    }

    fn mark(&mut self, chunk: Chunk) {
        self.dirty.insert(chunk);
    }

    fn surfaced(&mut self, chunk: Chunk, dirty: bool, ctx: &str) {
        if dirty {
            assert!(
                self.dirty.remove(&chunk),
                "{ctx}: chunk {chunk} surfaced dirty twice (or was never dirtied)"
            );
        } else {
            assert!(
                !self.dirty.contains(&chunk),
                "{ctx}: chunk {chunk} was dirty but surfaced clean"
            );
        }
    }
}

/// A production cache and its reference model driven in lockstep, with
/// the dirty ledger; every operation asserts that the two agree.
struct Lockstep {
    cache: Box<dyn ChunkCache + Send>,
    model: Model,
    ledger: DirtyLedger,
}

impl Lockstep {
    fn new(policy: PolicyKind, capacity: usize) -> Self {
        Lockstep {
            cache: build_cache(policy, capacity),
            model: Model::new(policy, capacity),
            ledger: DirtyLedger::new(),
        }
    }

    /// An access with fill-on-miss, like the engine's flow.
    fn access(&mut self, chunk: Chunk, write: bool, ctx: &str) {
        let hit = self.cache.access(chunk, write);
        let model_hit = self.model.access(chunk, write);
        assert_eq!(hit, model_hit, "{ctx}: hit/miss diverged");
        if hit && write {
            self.ledger.mark(chunk);
        }
        if !hit {
            self.insert(chunk, write, ctx);
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool, ctx: &str) {
        let out = self.cache.insert(chunk, dirty);
        let model_out = self.model.insert(chunk, dirty);
        assert_eq!(out, model_out, "{ctx}: eviction diverged");
        if dirty {
            self.ledger.mark(chunk);
        }
        match out {
            InsertOutcome::Inserted => {}
            InsertOutcome::EvictedClean(c) => self.ledger.surfaced(c, false, ctx),
            InsertOutcome::EvictedDirty(c) => self.ledger.surfaced(c, true, ctx),
        }
    }

    fn reset(&mut self, ctx: &str) {
        self.cache.reset();
        self.model.reset();
        self.ledger = DirtyLedger::new();
        assert_eq!(self.cache.stats().accesses(), 0, "{ctx}");
    }

    /// The invariants checked after every step.
    fn check(&self, ctx: &str) {
        assert!(
            self.cache.len() <= self.cache.capacity(),
            "{ctx}: residency above capacity"
        );
        assert_eq!(
            self.cache.len(),
            self.model.lines.len(),
            "{ctx}: length diverged"
        );
        assert_eq!(
            (self.cache.stats().hits, self.cache.stats().misses),
            (self.model.hits, self.model.misses),
            "{ctx}: stats diverged"
        );
    }
}

fn run_stream(policy: PolicyKind, seed: u64, steps: usize) {
    let capacity = 2 + (seed % 14) as usize;
    let universe = (capacity as u64) * 3;
    let mut ls = Lockstep::new(policy, capacity);
    let mut rng = Rng::new(seed);

    for step in 0..steps {
        let ctx = format!("{policy:?} seed {seed} step {step}");
        match rng.below(100) {
            // Mostly accesses + fill-on-miss, like the engine's flow.
            0..=84 => {
                let chunk = rng.below(universe) as usize;
                let write = rng.below(4) == 0;
                ls.access(chunk, write, &ctx);
            }
            // Blind inserts (readahead-style).
            85..=97 => {
                let chunk = rng.below(universe) as usize;
                let dirty = rng.below(8) == 0;
                ls.insert(chunk, dirty, &ctx);
            }
            // Full reset.
            _ => ls.reset(&ctx),
        }
        ls.check(&ctx);
    }
}

/// The paper's per-node cache sizes in chunks: L1, L2 and L3.
const PAPER_CAPACITIES: [usize; 3] = [32, 128, 384];

/// A skewed stream at one of the paper's capacities. Each chunk is the
/// least of three uniform draws over twice the capacity, so the low
/// chunks are hot: under LFU and LFUDA a resident's heap entry goes
/// stale at each hit, many times between its evictions.
fn run_paper_stream(policy: PolicyKind, capacity: usize, seed: u64) {
    let universe = 2 * capacity as u64;
    let mut ls = Lockstep::new(policy, capacity);
    let mut rng = Rng::new(seed);
    for step in 0..25 * capacity {
        let ctx = format!("{policy:?} capacity {capacity} step {step}");
        let chunk = (0..3).map(|_| rng.below(universe)).min().unwrap_or(0) as usize;
        if rng.below(10) == 0 {
            ls.insert(chunk, rng.below(8) == 0, &ctx);
        } else {
            ls.access(chunk, rng.below(4) == 0, &ctx);
        }
        ls.check(&ctx);
    }
}

#[test]
fn every_policy_matches_its_reference_model() {
    for policy in PolicyKind::ALL {
        for seed in 1..=12u64 {
            run_stream(policy, seed * 7919, 1500);
        }
    }
}

#[test]
fn eviction_order_is_deterministic_across_runs() {
    // Same stream twice → byte-equal eviction transcripts.
    for policy in PolicyKind::ALL {
        let transcript = |_: u32| {
            let mut cache = build_cache(policy, 6);
            let mut rng = Rng::new(99);
            let mut log = Vec::new();
            for _ in 0..400 {
                let chunk = rng.below(18) as usize;
                let write = rng.below(3) == 0;
                if !cache.access(chunk, write) {
                    log.push(format!("{:?}", cache.insert(chunk, write)));
                }
            }
            log.join("\n")
        };
        assert_eq!(transcript(0), transcript(1), "{policy:?}");
    }
}

#[test]
fn every_policy_matches_its_reference_model_at_paper_capacities() {
    for policy in PolicyKind::ALL {
        for capacity in PAPER_CAPACITIES {
            run_paper_stream(policy, capacity, 0x5eed + capacity as u64);
        }
    }
}
