//! Disk-read floor oracle: no run reads the disk fewer times than its
//! program has distinct chunks.
//!
//! The floor holds for any policy, cache size, read-ahead depth and
//! fault plan: a chunk's first access anywhere is cold at every level (a
//! line enters a cache only by a fetch, a prefetch, or a write-back of a
//! line some access already fetched); write misses fetch too, because
//! the caches write-allocate; and read-ahead prefetches count as disk
//! reads. Faults only remove lines, so they can only add reads.

use cachemap::prelude::*;
use cachemap::storage::{DegradeLevel, FaultEvent, FaultPlan, PolicyKind, TransientFaults};
use cachemap::workloads::suite;
use std::collections::HashSet;

/// Distinct chunks a mapped program accesses.
fn distinct_chunks(mapped: &MappedProgram) -> u64 {
    let chunks: HashSet<usize> = mapped
        .per_client
        .iter()
        .flatten()
        .filter_map(|op| match op {
            ClientOp::Access { chunk, .. } => Some(*chunk),
            _ => None,
        })
        .collect();
    chunks.len() as u64
}

/// A plan that crashes an I/O node and a storage node, degrades a cache
/// at each level and a disk, and injects transient errors.
fn faults() -> FaultPlan {
    FaultPlan::new()
        .with_event(FaultEvent::CacheDegrade {
            level: DegradeLevel::Client,
            node: 3,
            at_ns: 0,
            capacity_chunks: 1,
        })
        .with_event(FaultEvent::IoNodeCrash {
            io: 1,
            at_ns: 2_000_000,
        })
        .with_event(FaultEvent::CacheDegrade {
            level: DegradeLevel::Io,
            node: 6,
            at_ns: 4_000_000,
            capacity_chunks: 2,
        })
        .with_event(FaultEvent::DiskDegrade {
            storage: 4,
            at_ns: 5_000_000,
            latency_factor: 3,
        })
        .with_event(FaultEvent::StorageNodeCrash {
            storage: 2,
            at_ns: 10_000_000,
        })
        .with_event(FaultEvent::CacheDegrade {
            level: DegradeLevel::Storage,
            node: 9,
            at_ns: 12_000_000,
            capacity_chunks: 4,
        })
        .with_transient(TransientFaults {
            rate_ppm: 50_000,
            seed: 11,
        })
}

#[test]
fn disk_reads_never_fall_below_the_distinct_chunks_accessed() {
    let base = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&base).unwrap();
    let mapper = Mapper::paper_defaults();
    let mut sims = Vec::new();
    for policy in PolicyKind::ALL {
        for div in [1, 16] {
            for readahead in [0, 2] {
                let cfg = base
                    .clone()
                    .with_policy(policy)
                    .with_cache_chunks(
                        base.client_cache_chunks / div,
                        base.io_cache_chunks / div,
                        base.storage_cache_chunks / div,
                    )
                    .with_readahead(readahead);
                let label = format!("{} /{div} ra{readahead}", policy.label());
                let clean = Simulator::new(cfg).unwrap();
                let faulty = clean.clone().with_fault_plan(faults()).unwrap();
                sims.push((format!("{label} clean"), clean));
                sims.push((format!("{label} faulty"), faulty));
            }
        }
    }
    let mut runs = 0;
    for app in suite(Scale::Test) {
        let data = DataSpace::new(&app.program.arrays, base.chunk_bytes);
        for version in [
            Version::Original,
            Version::IntraProcessor,
            Version::InterProcessorScheduled,
        ] {
            let mapped = mapper.map(&app.program, &data, &base, &tree, version);
            let floor = distinct_chunks(&mapped);
            assert!(floor > 0, "{} {version:?} accesses no chunk", app.name);
            for (label, sim) in &sims {
                let report = sim.run(&mapped).unwrap();
                assert!(
                    report.disk_reads >= floor,
                    "{} {version:?} {label}: {} disk reads, {floor} distinct chunks",
                    app.name,
                    report.disk_reads
                );
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 8 * 3 * sims.len());
}
