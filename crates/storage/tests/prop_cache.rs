//! Property tests for the cache implementations and the event engine,
//! driven by the in-repo deterministic harness (`cachemap_util::check`).

use cachemap_storage::cache::{build_cache, ChunkCache, LruCache};
use cachemap_storage::{
    ClientOp, HierarchyTree, MappedProgram, PlatformConfig, PolicyKind, Simulator,
};
use cachemap_util::check::{cases, Gen};

fn arb_trace(g: &mut Gen, max_chunk: usize, max_len: usize) -> Vec<(usize, bool)> {
    let n = g.usize_in(1, max_len);
    (0..n)
        .map(|_| (g.usize_in(0, max_chunk), g.bool()))
        .collect()
}

fn drive(cache: &mut dyn ChunkCache, trace: &[(usize, bool)]) {
    for &(chunk, write) in trace {
        if !cache.access(chunk, write) {
            cache.insert(chunk, write);
        }
    }
}

#[test]
fn caches_never_exceed_capacity() {
    cases(0xCAC4_E001, 96, |g| {
        let trace = arb_trace(g, 64, 400);
        let cap = g.usize_in(1, 32);
        for policy in PolicyKind::ALL {
            let mut cache = build_cache(policy, cap);
            for &(chunk, write) in &trace {
                if !cache.access(chunk, write) {
                    cache.insert(chunk, write);
                }
                assert!(cache.len() <= cap, "{policy:?}");
            }
        }
    });
}

#[test]
fn stats_account_for_every_access() {
    cases(0xCAC4_E002, 96, |g| {
        let trace = arb_trace(g, 64, 400);
        let cap = g.usize_in(1, 32);
        let mut lru = LruCache::new(cap);
        drive(&mut lru, &trace);
        assert_eq!(lru.stats().accesses() as usize, trace.len());
    });
}

#[test]
fn lru_matches_reference_model() {
    cases(0xCAC4_E003, 96, |g| {
        let trace = arb_trace(g, 64, 400);
        let cap = g.usize_in(1, 16);
        let mut lru = LruCache::new(cap);
        let mut model: Vec<usize> = Vec::new(); // front = MRU
        for &(chunk, write) in &trace {
            let hit = lru.access(chunk, write);
            let model_hit = model.contains(&chunk);
            assert_eq!(hit, model_hit);
            model.retain(|&x| x != chunk);
            if !hit {
                lru.insert(chunk, write);
                if model.len() == cap {
                    model.pop();
                }
            }
            model.insert(0, chunk);
        }
    });
}

#[test]
fn bigger_lru_never_hits_less() {
    cases(0xCAC4_E004, 96, |g| {
        // LRU has the inclusion property: hits are monotone in capacity.
        let trace = arb_trace(g, 64, 400);
        let cap = g.usize_in(1, 16);
        let mut small = LruCache::new(cap);
        let mut big = LruCache::new(cap * 2);
        drive(&mut small, &trace);
        drive(&mut big, &trace);
        assert!(big.stats().hits >= small.stats().hits);
    });
}

#[test]
fn engine_funnel_invariants_hold() {
    cases(0xCAC4_E005, 64, |g| {
        let seeds = arb_trace(g, 128, 200);
        let cfg = PlatformConfig::tiny();
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        let mut prog = MappedProgram::new(cfg.num_clients);
        for (k, &(chunk, write)) in seeds.iter().enumerate() {
            prog.per_client[k % cfg.num_clients].push(ClientOp::Access { chunk, write });
        }
        let rep = Simulator::new(cfg).unwrap().run(&prog).unwrap();
        assert_eq!(rep.l1.accesses() as usize, seeds.len());
        assert_eq!(rep.l2.accesses(), rep.l1.misses);
        assert_eq!(rep.l3.accesses(), rep.l2.misses);
        assert_eq!(rep.disk_reads, rep.l3.misses);
        assert!(rep.exec_time_ns > 0);
        let _ = tree;
    });
}

#[test]
fn interleaving_cannot_create_more_hits_than_accesses() {
    cases(0xCAC4_E006, 64, |g| {
        let cfg = PlatformConfig::tiny();
        let mut prog = MappedProgram::new(cfg.num_clients);
        for c in 0..cfg.num_clients {
            let len = g.usize_in(0, 60);
            prog.per_client[c] = (0..len)
                .map(|_| ClientOp::Access {
                    chunk: g.usize_in(0, 32),
                    write: false,
                })
                .collect();
        }
        let rep = Simulator::new(cfg).unwrap().run(&prog).unwrap();
        assert!(rep.l1.hits <= rep.l1.accesses());
        assert!(rep.disk_writes == 0, "read-only run must not write back");
    });
}
