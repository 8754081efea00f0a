//! Disk-read floor oracle: no run reads the disk fewer times than its
//! program has distinct chunks.
//!
//! The floor holds for any policy, cache size, read-ahead depth, topology
//! and chunk size: a chunk's first access anywhere is cold at every level
//! (a line enters a cache only by a fetch, a prefetch, or a write-back of
//! a line some access already fetched); write misses fetch too, because
//! the caches write-allocate; and read-ahead prefetches count as disk
//! reads.
//!
//! The test-scale suite runs under every policy, on the paper's caches
//! and on 1/16 of them, with and without read-ahead; and under each
//! platform variant of Figures 12-14, mapped on that variant's own tree.

use cachemap::prelude::*;
use cachemap::storage::PolicyKind;
use cachemap::workloads::suite;
use cachemap_bench::experiments::{fig12_platforms, fig13_platforms, fig14_platforms};
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

/// Maps every app of the test-scale suite with each of `versions` on
/// `platform`'s own tree, runs each mapping on every simulator of
/// `sims` (all sharing `platform`'s topology and chunk size), and checks
/// the floor. Returns the number of runs.
fn check_floor(
    platform: &PlatformConfig,
    versions: &[Version],
    sims: &[(String, Simulator)],
) -> usize {
    let tree = HierarchyTree::from_config(platform).unwrap();
    let mapper = Mapper::paper_defaults();
    let mut runs = 0;
    for app in suite(Scale::Test) {
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        for &version in versions {
            let mapped = mapper.map(&app.program, &data, platform, &tree, version);
            let floor = distinct_chunks(&mapped);
            assert!(floor > 0, "{} {version:?} accesses no chunk", app.name);
            for (label, sim) in sims {
                let report = sim
                    .run(&mapped)
                    .unwrap_or_else(|e| panic!("{} {version:?} {label}: {e}", app.name));
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
    runs
}

#[test]
fn disk_reads_never_fall_below_the_distinct_chunks_accessed() {
    let base = PlatformConfig::paper_default();
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
                sims.push((label, Simulator::new(cfg).unwrap()));
            }
        }
    }
    let versions = [
        Version::Original,
        Version::IntraProcessor,
        Version::InterProcessorScheduled,
    ];
    let runs = check_floor(&base, &versions, &sims);
    assert_eq!(runs, 8 * versions.len() * sims.len());

    // The figures' sweeps run original and inter-processor.
    let versions = [Version::Original, Version::InterProcessor];
    let variants: Vec<(String, PlatformConfig)> = fig12_platforms(&base)
        .into_iter()
        .chain(fig13_platforms(&base))
        .chain(fig14_platforms(&base))
        .collect();
    assert_eq!(variants.len(), 14);
    for (label, cfg) in variants {
        let sims = [(label, Simulator::new(cfg.clone()).unwrap())];
        assert_eq!(check_floor(&cfg, &versions, &sims), 8 * versions.len());
    }
}
