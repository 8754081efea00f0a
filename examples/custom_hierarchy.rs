//! Mapping onto custom storage hierarchies.
//!
//! The scheme "can be tuned to target any multi-level storage cache
//! hierarchy" (abstract): this example takes one suite application and
//! maps it onto several platforms — deep and shallow trees, fat and thin
//! fan-outs, different replacement policies — showing how the savings
//! track the sharing degree (the Figure 12 effect).
//!
//! ```text
//! cargo run --release --example custom_hierarchy
//! ```

use cachemap::prelude::*;
use cachemap::storage::config::PolicyKind;

fn run(app: &Application, platform: &PlatformConfig) -> (f64, f64) {
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let sim = Simulator::new(platform.clone()).expect("valid platform config");
    let mapper = Mapper::paper_defaults();
    let base = sim
        .run(&mapper.map(&app.program, &data, platform, &tree, Version::Original))
        .expect("well-formed mapped program");
    let inter = sim
        .run(&mapper.map(
            &app.program,
            &data,
            platform,
            &tree,
            Version::InterProcessor,
        ))
        .expect("well-formed mapped program");
    (
        inter.io_latency_ns as f64 / base.io_latency_ns as f64,
        inter.exec_time_ns as f64 / base.exec_time_ns as f64,
    )
}

fn main() {
    let app = cachemap::workloads::by_name("astro", Scale::Paper).expect("suite app");
    println!("application: {} ({})\n", app.name, app.description);
    println!(
        "{:<44} {:>10} {:>10}",
        "platform", "I/O (norm)", "exec (norm)"
    );

    let base = PlatformConfig::paper_default();
    let candidates: Vec<(String, PlatformConfig)> = vec![
        (
            "paper default (64 cl, 32 io, 16 st), LRU".into(),
            base.clone(),
        ),
        (
            "shallow: every client its own I/O path (64,64,16)".into(),
            base.clone().with_topology(64, 64, 16),
        ),
        (
            "fat I/O sharing: 4 clients per I/O node (64,16,8)".into(),
            base.clone().with_topology(64, 16, 8),
        ),
        (
            "single storage node (64,32,1)".into(),
            base.clone().with_topology(64, 32, 1),
        ),
        (
            "FIFO caches".into(),
            base.clone().with_policy(PolicyKind::Fifo),
        ),
        (
            "LFU caches".into(),
            base.clone().with_policy(PolicyKind::Lfu),
        ),
        (
            "mixed zoo: SLRU L1, LFUDA L2, LFUDA L3".into(),
            base.clone().with_level_policies(
                PolicyKind::Slru,
                PolicyKind::Lfuda,
                PolicyKind::Lfuda,
            ),
        ),
    ];

    for (label, platform) in candidates {
        let (io, exec) = run(&app, &platform);
        println!("{label:<44} {io:>10.3} {exec:>10.3}");
    }

    println!(
        "\nLower is better (normalized to the original mapping on the same platform).\n\
         More clients behind each shared cache → more destructive interference for\n\
         the original mapping → larger wins for hierarchy-aware clustering."
    );
}
