//! Degraded hierarchy: inject faults into the storage platform and
//! watch the original and inter-processor mappings fail over.
//!
//! A mid-run crash takes out every I/O node of storage group 0. The
//! crashed nodes' clients keep their work and fail over: with no
//! surviving sibling I/O node, their accesses go direct to storage
//! (an extra hop and no L2).
//!
//! ```text
//! cargo run --release --example degraded_hierarchy
//! ```

use cachemap::prelude::*;
use cachemap::storage::{FaultEvent, FaultPlan, TransientFaults};

fn main() {
    // One of the paper's evaluation applications at full scale.
    let app = cachemap::workloads::by_name("astro", Scale::Paper).expect("known app");
    let program = &app.program;

    let platform = PlatformConfig::paper_default();
    let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(&platform).expect("valid platform config");
    let mapper = Mapper::paper_defaults();

    // Every I/O node of storage group 0 crashes, so its clients have no
    // surviving sibling to fail over to — they go direct-to-storage.
    let crashed_ios: Vec<usize> = (0..platform.num_io_nodes)
        .filter(|&io| tree.storage_of_io(io) == 0)
        .collect();
    let stranded_clients: Vec<usize> = (0..platform.num_clients)
        .filter(|&c| crashed_ios.contains(&tree.io_of_client(c)))
        .collect();
    println!(
        "crashing I/O nodes {:?} -> stranding clients {:?}\n",
        crashed_ios, stranded_clients
    );

    // Two mappings, both of which will fail over: the original block
    // mapping and the healthy inter-processor mapping.
    let orig = mapper.map(program, &data, &platform, &tree, Version::Original);
    let inter = mapper.map(program, &data, &platform, &tree, Version::InterProcessor);

    // Schedule the crash a third of the way into the healthy run, and
    // sprinkle in seeded transient errors and a slow disk group.
    let clean = Simulator::new(platform.clone())
        .expect("valid platform config")
        .run(&inter)
        .expect("well-formed mapped program");
    let at_ns = (clean.exec_time_ns / 3).max(1);
    let mut plan = FaultPlan::new()
        .with_event(FaultEvent::DiskDegrade {
            storage: 1,
            at_ns: 0,
            latency_factor: 2,
        })
        .with_transient(TransientFaults {
            rate_ppm: 5_000,
            seed: 42,
        });
    for &io in &crashed_ios {
        plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns });
    }
    plan.validate(&platform).expect("plan fits the platform");

    println!(
        "{:<28} {:>10} {:>9} {:>8} {:>10} {:>10}",
        "mapping", "exec (ms)", "failovers", "retries", "lost dirty", "recov (ms)"
    );
    for (label, mapped) in [("original + failover", &orig), ("inter + failover", &inter)] {
        let rep = Simulator::new(platform.clone())
            .expect("valid platform config")
            .with_fault_plan(plan.clone())
            .expect("validated plan")
            .run(mapped)
            .expect("well-formed mapped program");
        println!(
            "{:<28} {:>10.1} {:>9} {:>8} {:>10} {:>10.2}",
            label,
            rep.exec_time_ms(),
            rep.faults.failovers,
            rep.faults.retries,
            rep.faults.lost_dirty_chunks,
            rep.faults.recovery_ns as f64 / 1e6,
        );
    }
    println!(
        "\n(healthy inter-processor run: {:.1} ms; the crash fires at {:.1} ms.\n `repro resilience` sweeps this comparison over the whole application\n suite.)",
        clean.exec_time_ms(),
        at_ns as f64 / 1e6
    );
}
