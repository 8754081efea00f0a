//! Disk-read floor oracle: no run reads the disk fewer times than its
//! program has distinct chunks.
//!
//! The floor holds for any policy, cache size, read-ahead depth and
//! fault plan: a chunk's first access anywhere is cold at every level (a
//! line enters a cache only by a fetch, a prefetch, or a write-back of a
//! line some access already fetched); write misses fetch too, because
//! the caches write-allocate; and read-ahead prefetches count as disk
//! reads. Faults only remove lines, so they can only add reads.
//!
//! Beside one hand-written plan, seeded random plans (crash storms,
//! rolling degradation, transient bursts and mixes) run each on one
//! mapped program under every platform variant, twice: each run must
//! complete, respect the floor, and replay byte for byte.

use cachemap::prelude::*;
use cachemap::storage::{DegradeLevel, FaultEvent, FaultPlan, PolicyKind, TransientFaults};
use cachemap::util::rng::XorShift64;
use cachemap::util::ToJson;
use cachemap::workloads::suite;
use std::collections::{BTreeSet, HashSet};

/// Random plans checked per run of the test.
const RANDOM_PLANS: usize = 16;

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

/// Draws `k` distinct values from `0..n` (partial Fisher–Yates).
fn distinct(rng: &mut XorShift64, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.usize_in(i, n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Generates one random fault plan with events in `1..=horizon_ns`. Plans
/// are always valid for the platform: a storm never crashes every I/O
/// node, and no I/O or storage cache is degraded on a node that crashes
/// (`CrashDegradeOverlap`). A client cache may shrink after its home I/O
/// node has crashed.
fn gen_plan(
    rng: &mut XorShift64,
    platform: &PlatformConfig,
    tree: &HierarchyTree,
    horizon_ns: u64,
) -> FaultPlan {
    let span = horizon_ns.max(2);
    let at = |rng: &mut XorShift64| 1 + rng.next_below(span - 1);
    let num_io = platform.num_io_nodes;
    let num_storage = platform.num_storage_nodes;
    let degrade = |level, node, at_ns, rng: &mut XorShift64| FaultEvent::CacheDegrade {
        level,
        node,
        at_ns,
        capacity_chunks: rng.usize_in(1, 5),
    };
    let mut plan = FaultPlan::new();
    match rng.usize_in(0, 4) {
        // Crash storm: several I/O nodes (never all) and sometimes a
        // storage node go down at independent times.
        0 => {
            let k = rng.usize_in(1, num_io.max(2));
            for io in distinct(rng, num_io, k) {
                let t = at(rng);
                plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns: t });
            }
            if rng.chance(1, 3) {
                let t = at(rng);
                plan = plan.with_event(FaultEvent::StorageNodeCrash {
                    storage: rng.usize_in(0, num_storage),
                    at_ns: t,
                });
            }
        }
        // Rolling degradation: disks slow down and caches shrink at
        // every level in waves; nothing crashes, so no overlap.
        1 => {
            let d = rng.usize_in(1, 4);
            for storage in distinct(rng, num_storage, d) {
                let t = at(rng);
                let f = rng.usize_in(2, 7) as u32;
                plan = plan.with_event(FaultEvent::DiskDegrade {
                    storage,
                    at_ns: t,
                    latency_factor: f,
                });
            }
            let levels = [
                (
                    DegradeLevel::Client,
                    platform.num_clients,
                    rng.usize_in(1, 3),
                ),
                (DegradeLevel::Io, num_io, rng.usize_in(0, 3)),
                (DegradeLevel::Storage, num_storage, 1),
            ];
            for (level, nodes, count) in levels {
                for node in distinct(rng, nodes, count) {
                    let t = at(rng);
                    plan = plan.with_event(degrade(level, node, t, rng));
                }
            }
        }
        // Transient burst: seeded retry storms, sometimes on top of a
        // single crash.
        2 => {
            let rate = rng.usize_in(2_000, 80_000) as u32;
            let seed = rng.next_u64();
            plan = plan.with_transient(TransientFaults {
                rate_ppm: rate,
                seed,
            });
            if rng.chance(1, 2) {
                let io = rng.usize_in(0, num_io);
                let t = at(rng);
                plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns: t });
            }
        }
        // Mixed: crashes on one pool of I/O nodes, I/O cache degradation
        // on a disjoint pool, a client of a crashed node shrinking after
        // the crash, disk degradation, maybe transients.
        _ => {
            let k = rng.usize_in(1, num_io.max(2));
            let pool = distinct(rng, num_io, num_io);
            let (crashed, healthy) = pool.split_at(k.min(pool.len().saturating_sub(1)).max(1));
            let mut crashes = Vec::new();
            for &io in crashed {
                let t = at(rng);
                plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns: t });
                crashes.push((io, t));
            }
            for &node in healthy.iter().take(rng.usize_in(0, 3)) {
                let t = at(rng);
                plan = plan.with_event(degrade(DegradeLevel::Io, node, t, rng));
            }
            let (io, crash_ns) = crashes[rng.usize_in(0, crashes.len())];
            let homed: Vec<usize> = (0..platform.num_clients)
                .filter(|&c| tree.io_of_client(c) == io)
                .collect();
            let client = homed[rng.usize_in(0, homed.len())];
            let t = crash_ns + 1 + rng.next_below(span - crash_ns);
            plan = plan.with_event(degrade(DegradeLevel::Client, client, t, rng));
            if rng.chance(1, 2) {
                let storage = rng.usize_in(0, num_storage);
                let t = at(rng);
                let f = rng.usize_in(2, 5) as u32;
                plan = plan.with_event(FaultEvent::DiskDegrade {
                    storage,
                    at_ns: t,
                    latency_factor: f,
                });
            }
            if rng.chance(1, 4) {
                let rate = rng.usize_in(1_000, 20_000) as u32;
                let seed = rng.next_u64();
                plan = plan.with_transient(TransientFaults {
                    rate_ppm: rate,
                    seed,
                });
            }
        }
    }
    plan
}

/// The fault kinds a plan exercises, for the coverage check.
fn kinds(plan: &FaultPlan, tree: &HierarchyTree) -> BTreeSet<&'static str> {
    let mut out = BTreeSet::new();
    for ev in &plan.events {
        out.insert(match ev {
            FaultEvent::IoNodeCrash { .. } => "io crash",
            FaultEvent::StorageNodeCrash { .. } => "storage crash",
            FaultEvent::DiskDegrade { .. } => "disk degrade",
            FaultEvent::CacheDegrade { level, .. } => match level {
                DegradeLevel::Client => "client cache degrade",
                DegradeLevel::Io => "io cache degrade",
                DegradeLevel::Storage => "storage cache degrade",
            },
        });
        if let FaultEvent::CacheDegrade {
            level: DegradeLevel::Client,
            node,
            at_ns,
            ..
        } = *ev
        {
            let crashed_first = plan.events.iter().any(|e| {
                matches!(*e, FaultEvent::IoNodeCrash { io, at_ns: crash }
                    if io == tree.io_of_client(node) && crash < at_ns)
            });
            if crashed_first {
                out.insert("client cache degrade after its io crash");
            }
        }
    }
    if plan.transient.is_some() {
        out.insert("transients");
    }
    out
}

#[test]
fn disk_reads_never_fall_below_the_distinct_chunks_accessed() {
    let base = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&base).unwrap();
    let mapper = Mapper::paper_defaults();
    let mut variants = Vec::new();
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
                variants.push((format!("{} /{div} ra{readahead}", policy.label()), cfg));
            }
        }
    }
    let mut sims = Vec::new();
    for (label, cfg) in &variants {
        let clean = Simulator::new(cfg.clone()).unwrap();
        let faulty = clean.clone().with_fault_plan(faults()).unwrap();
        sims.push((format!("{label} clean"), clean));
        sims.push((format!("{label} faulty"), faulty));
    }
    let mut cells = Vec::new();
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
            cells.push((format!("{} {version:?}", app.name), mapped, floor));
        }
    }
    assert_eq!(runs, 8 * 3 * sims.len());

    let mut rng = XorShift64::new(42);
    let mut covered = BTreeSet::new();
    for i in 0..RANDOM_PLANS {
        let (cell, mapped, floor) = &cells[rng.usize_in(0, cells.len())];
        let horizon = Simulator::new(base.clone())
            .unwrap()
            .run(mapped)
            .unwrap()
            .exec_time_ns;
        let plan = gen_plan(&mut rng, &base, &tree, horizon);
        covered.extend(kinds(&plan, &tree));
        for (label, cfg) in &variants {
            let sim = Simulator::new(cfg.clone())
                .unwrap()
                .with_fault_plan(plan.clone())
                .unwrap_or_else(|e| panic!("plan {i} is invalid: {e}"));
            let report = sim
                .run(mapped)
                .unwrap_or_else(|e| panic!("plan {i} {cell} {label}: {e}"));
            assert!(
                report.disk_reads >= *floor,
                "plan {i} {cell} {label}: {} disk reads, {floor} distinct chunks",
                report.disk_reads
            );
            let again = sim.run(mapped).unwrap();
            assert_eq!(
                report.to_json().to_string_compact(),
                again.to_json().to_string_compact(),
                "plan {i} {cell} {label}: a second run must replay byte for byte"
            );
        }
    }
    let all = [
        "io crash",
        "storage crash",
        "disk degrade",
        "client cache degrade",
        "io cache degrade",
        "storage cache degrade",
        "client cache degrade after its io crash",
        "transients",
    ];
    assert_eq!(
        covered,
        all.into_iter().collect::<BTreeSet<_>>(),
        "the random plans must cover every fault kind"
    );
}
