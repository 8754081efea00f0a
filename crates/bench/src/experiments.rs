//! One function per table/figure of the paper's evaluation (Section 5).
//!
//! Each function returns one or more [`Matrix`] results that the `repro`
//! binary renders and archives. Experiments that share simulation runs
//! (Table 2 and Figures 10/11/18 all use the default-platform runs) take
//! the shared [`AppResults`] so the suite is simulated once.

use crate::report::{CellFormat, Matrix};
use crate::{run_cell, run_suite, AppResults};
use cachemap_core::deps::DepStrategy;
use cachemap_core::{MapperConfig, Version};
use cachemap_storage::{PlatformConfig, SimReport};
use cachemap_workloads::Scale;

/// All four versions in figure order.
const ALL: [Version; 4] = Version::ALL;

/// Metric extractor used by the per-figure tables.
type MetricFn = fn(&SimReport) -> f64;

/// Runs the whole suite on the default platform with all four versions —
/// the shared input of Table 2 and Figures 10, 11, 18.
pub fn default_runs(scale: Scale, platform: &PlatformConfig) -> Vec<AppResults> {
    run_suite(scale, platform, &MapperConfig::default(), &ALL)
}

/// Table 1: the active platform parameters (scaled values annotated).
pub fn table1(platform: &PlatformConfig) -> String {
    let mut out = String::from("== table1 — System parameters (scaled reproduction) ==\n");
    let rows = [
        (
            "Number of Client Nodes",
            format!("{}", platform.num_clients),
        ),
        ("Number of I/O Nodes", format!("{}", platform.num_io_nodes)),
        (
            "Number of Storage Nodes",
            format!("{}", platform.num_storage_nodes),
        ),
        (
            "Data Striping",
            format!("all {} storage nodes", platform.num_storage_nodes),
        ),
        (
            "Stripe/Chunk Size",
            format!("{} KB", platform.chunk_bytes / 1024),
        ),
        ("RPM", format!("{}", platform.rpm)),
        (
            "Cache Capacity/Node (chunks, client/IO/storage)",
            format!(
                "({},{},{})",
                platform.client_cache_chunks,
                platform.io_cache_chunks,
                platform.storage_cache_chunks
            ),
        ),
        (
            "  (paper: 2GB per node; scaled with dataset ≈0.6-1.5%/node)",
            String::new(),
        ),
    ];
    for (k, v) in rows {
        out.push_str(&format!("{k:<52} {v}\n"));
    }
    out
}

/// Table 2: absolute miss rates of the original version per cache level.
pub fn table2(runs: &[AppResults], scale: Scale) -> Matrix {
    let apps = cachemap_workloads::suite(scale);
    let mut m = Matrix::new(
        "table2",
        "Original-version miss rates (%) — measured vs paper",
        vec![
            "app".into(),
            "L1".into(),
            "L2".into(),
            "L3".into(),
            "L1(paper)".into(),
            "L2(paper)".into(),
            "L3(paper)".into(),
        ],
        CellFormat::Percent,
    );
    for (r, app) in runs.iter().zip(&apps) {
        let o = r.get("original");
        let (p1, p2, p3) = app.paper_miss_rates;
        m.row(
            r.app.clone(),
            vec![
                o.l1_miss_rate(),
                o.l2_miss_rate(),
                o.l3_miss_rate(),
                p1,
                p2,
                p3,
            ],
        );
    }
    m
}

fn norm(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        1.0
    } else {
        x / base
    }
}

/// Figure 10: normalized L1/L2/L3 miss rates (original = 1.0) for the
/// intra- and inter-processor schemes.
pub fn fig10(runs: &[AppResults]) -> Vec<Matrix> {
    let mut out = Vec::new();
    for (level, get) in [
        (
            "L1",
            (|r: &SimReport| r.l1_miss_rate()) as fn(&SimReport) -> f64,
        ),
        ("L2", |r: &SimReport| r.l2_miss_rate()),
        ("L3", |r: &SimReport| r.l3_miss_rate()),
    ] {
        let mut m = Matrix::new(
            format!("fig10-{level}"),
            format!("Normalized {level} miss rate (original = 1.0)"),
            vec![
                "app".into(),
                "intra-processor".into(),
                "inter-processor".into(),
            ],
            CellFormat::Ratio,
        );
        for r in runs {
            let base = get(r.get("original"));
            m.row(
                r.app.clone(),
                vec![
                    norm(get(r.get("intra-processor")), base),
                    norm(get(r.get("inter-processor")), base),
                ],
            );
        }
        let means = m.column_means();
        m.note(format!(
            "avg {level} miss reduction: intra {:.1}%, inter {:.1}% (paper: {})",
            (1.0 - means[0]) * 100.0,
            (1.0 - means[1]) * 100.0,
            match level {
                "L1" => "intra 16.2%, inter 15.3%",
                "L2" => "intra 2.1%, inter 31.0%",
                _ => "intra 0.5%, inter 24.6%",
            }
        ));
        out.push(m);
    }
    out
}

/// Figure 11: normalized I/O latency and overall execution time.
pub fn fig11(runs: &[AppResults]) -> Vec<Matrix> {
    let mut out = Vec::new();
    for (metric, get) in [
        (
            "I/O latency",
            (|r: &SimReport| r.io_latency_ns as f64) as fn(&SimReport) -> f64,
        ),
        ("execution time", |r: &SimReport| r.exec_time_ns as f64),
    ] {
        let mut m = Matrix::new(
            if metric == "I/O latency" {
                "fig11-io"
            } else {
                "fig11-exec"
            },
            format!("Normalized {metric} (original = 1.0)"),
            vec![
                "app".into(),
                "intra-processor".into(),
                "inter-processor".into(),
            ],
            CellFormat::Ratio,
        );
        for r in runs {
            let base = get(r.get("original"));
            m.row(
                r.app.clone(),
                vec![
                    norm(get(r.get("intra-processor")), base),
                    norm(get(r.get("inter-processor")), base),
                ],
            );
        }
        let means = m.column_means();
        m.note(format!(
            "avg {metric} improvement: intra {:.1}%, inter {:.1}% (paper: {})",
            (1.0 - means[0]) * 100.0,
            (1.0 - means[1]) * 100.0,
            if metric == "I/O latency" {
                "intra 6.8%, inter 26.3%"
            } else {
                "intra 3.5%, inter 18.9%"
            }
        ));
        out.push(m);
    }
    out
}

/// Figure 12: inter-processor I/O latency and execution time, normalized
/// to the original version, under different (w, x, y) topologies.
pub fn fig12(scale: Scale, base: &PlatformConfig) -> Vec<Matrix> {
    let topologies: [(usize, usize, usize); 5] = [
        (32, 16, 8),
        (64, 32, 16),
        (64, 16, 8),
        (128, 32, 16),
        (128, 64, 32),
    ];
    sweep(
        "fig12",
        "under topology (clients, I/O nodes, storage nodes)",
        scale,
        topologies
            .iter()
            .map(|&(w, x, y)| {
                (
                    format!("({w},{x},{y})"),
                    base.clone().with_topology(w, x, y),
                )
            })
            .collect(),
        "savings grow with clients per shared cache (paper: (128,32,16) best)",
    )
}

/// Figure 13: sensitivity to per-node cache capacities (W, X, Y).
/// Labels are in paper-GB; 2 GB corresponds to the scaled default.
pub fn fig13(scale: Scale, base: &PlatformConfig) -> Vec<Matrix> {
    // "2 GB" at each level corresponds to the base platform's per-level
    // chunk capacity (the levels scale differently — see
    // `PlatformConfig::paper_default`), so the (2GB,2GB,2GB) row is
    // exactly the default platform of Figures 10/11.
    let l1 = |gb: usize| base.client_cache_chunks / 2 * gb;
    let l2 = |gb: usize| base.io_cache_chunks / 2 * gb;
    let l3 = |gb: usize| base.storage_cache_chunks / 2 * gb;
    let configs: [(&str, usize, usize, usize); 5] = [
        ("(1GB,1GB,1GB)", 1, 1, 1),
        ("(2GB,2GB,2GB)", 2, 2, 2),
        ("(2GB,4GB,4GB)", 2, 4, 4),
        ("(4GB,4GB,4GB)", 4, 4, 4),
        ("(4GB,8GB,8GB)", 4, 8, 8),
    ];
    sweep(
        "fig13",
        "under cache capacities",
        scale,
        configs
            .iter()
            .map(|&(label, w, x, y)| {
                (
                    label.to_string(),
                    base.clone().with_cache_chunks(l1(w), l2(x), l3(y)),
                )
            })
            .collect(),
        "bigger caches shrink the savings; halving them boosts ours (paper)",
    )
}

/// Figure 14: sensitivity to the data chunk size (cache byte capacity
/// held constant, as in the paper).
pub fn fig14(scale: Scale, base: &PlatformConfig) -> Vec<Matrix> {
    let sizes = [16u64, 32, 64, 128];
    sweep(
        "fig14",
        "under data chunk sizes",
        scale,
        sizes
            .iter()
            .map(|&kb| {
                let bytes = kb * 1024;
                let factor = (base.chunk_bytes / bytes).max(1) as usize;
                let shrink = (bytes / base.chunk_bytes).max(1) as usize;
                let chunks = base.client_cache_chunks * factor / shrink;
                (
                    format!("{kb}KB"),
                    base.clone()
                        .with_chunk_bytes(bytes)
                        .with_cache_chunks(chunks, chunks, chunks),
                )
            })
            .collect(),
        "smaller chunks → finer clustering → bigger savings (paper)",
    )
}

/// Shared sweep driver for Figures 12-14: for each platform variant, run
/// original + inter-processor over the suite and report suite-average
/// normalized I/O latency and execution time.
fn sweep(
    id: &str,
    what: &str,
    scale: Scale,
    variants: Vec<(String, PlatformConfig)>,
    note: &str,
) -> Vec<Matrix> {
    let mut io = Matrix::new(
        format!("{id}-io"),
        format!("Normalized I/O latency (inter-processor vs original) {what}"),
        suite_columns(),
        CellFormat::Ratio,
    );
    let mut exec = Matrix::new(
        format!("{id}-exec"),
        format!("Normalized execution time (inter-processor vs original) {what}"),
        suite_columns(),
        CellFormat::Ratio,
    );
    for (label, platform) in variants {
        let runs = run_suite(
            scale,
            &platform,
            &MapperConfig::default(),
            &[Version::Original, Version::InterProcessor],
        );
        let mut io_cells = Vec::new();
        let mut exec_cells = Vec::new();
        for r in &runs {
            let o = r.get("original");
            let i = r.get("inter-processor");
            io_cells.push(norm(i.io_latency_ns as f64, o.io_latency_ns as f64));
            exec_cells.push(norm(i.exec_time_ns as f64, o.exec_time_ns as f64));
        }
        io.row(label.clone(), io_cells);
        exec.row(label, exec_cells);
    }
    io.note(note.to_string());
    exec.note(note.to_string());
    vec![io, exec]
}

fn suite_columns() -> Vec<String> {
    let mut cols = vec!["config".to_string()];
    cols.extend(cachemap_workloads::NAMES.iter().map(|s| s.to_string()));
    cols
}

/// Figure 18: the scheduling enhancement — normalized L1 miss rate, I/O
/// latency, and execution time for all three optimized versions.
pub fn fig18(runs: &[AppResults]) -> Vec<Matrix> {
    let metrics: [(&str, &str, MetricFn, &str); 3] = [
        (
            "fig18-l1",
            "Normalized L1 miss rate",
            |r: &SimReport| r.l1_miss_rate(),
            "paper: scheduling reaches 27.8% avg L1 miss reduction",
        ),
        (
            "fig18-io",
            "Normalized I/O latency",
            |r: &SimReport| r.io_latency_ns as f64,
            "paper: scheduling lifts I/O savings to 30.7%",
        ),
        (
            "fig18-exec",
            "Normalized execution time",
            |r: &SimReport| r.exec_time_ns as f64,
            "paper: scheduling lifts execution savings to 21.9%",
        ),
    ];
    metrics
        .iter()
        .map(|(id, title, get, note)| {
            let mut m = Matrix::new(
                *id,
                format!("{title} (original = 1.0), with local scheduling"),
                vec![
                    "app".into(),
                    "intra-processor".into(),
                    "inter-processor".into(),
                    "inter+sched".into(),
                ],
                CellFormat::Ratio,
            );
            for r in runs {
                let base = get(r.get("original"));
                m.row(
                    r.app.clone(),
                    vec![
                        norm(get(r.get("intra-processor")), base),
                        norm(get(r.get("inter-processor")), base),
                        norm(get(r.get("inter-processor+sched")), base),
                    ],
                );
            }
            m.note(note.to_string());
            m
        })
        .collect()
}

/// §5.4 ablation: α/β weight sweep for the scheduling enhancement
/// (paper: equal weights performed best).
pub fn alphabeta(scale: Scale, platform: &PlatformConfig) -> Matrix {
    let mut m = Matrix::new(
        "alphabeta",
        "Scheduling weights sweep: suite-average normalized metrics (original = 1.0)",
        vec![
            "alpha/beta".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for (alpha, beta) in [
        (1.0, 0.0),
        (0.75, 0.25),
        (0.5, 0.5),
        (0.25, 0.75),
        (0.0, 1.0),
    ] {
        let cfg = MapperConfig {
            schedule: cachemap_core::schedule::ScheduleParams {
                alpha,
                beta,
                ..Default::default()
            },
            ..MapperConfig::default()
        };
        let runs = run_suite(
            scale,
            platform,
            &cfg,
            &[Version::Original, Version::InterProcessorScheduled],
        );
        let (mut l1, mut io, mut ex) = (0.0, 0.0, 0.0);
        for r in &runs {
            let o = r.get("original");
            let s = r.get("inter-processor+sched");
            l1 += norm(s.l1_miss_rate(), o.l1_miss_rate());
            io += norm(s.io_latency_ns as f64, o.io_latency_ns as f64);
            ex += norm(s.exec_time_ns as f64, o.exec_time_ns as f64);
        }
        let n = runs.len() as f64;
        m.row(
            format!("α={alpha:.2} β={beta:.2}"),
            vec![l1 / n, io / n, ex / n],
        );
    }
    m.note("paper: giving α and β equal values generated the best results");
    m
}

/// §5.4 ablation: dependence-handling strategies on a recurrence-bearing
/// variant of the contour workload.
pub fn deps_exp(scale: Scale, platform: &PlatformConfig) -> Matrix {
    // contour with the output fed back as input: CT[i][j] reads CT[i-1][j].
    let mut app = cachemap_workloads::by_name("contour", scale).expect("contour exists");
    // Shift the write's row usage to create a loop-carried flow dependence.
    let c = match scale {
        Scale::Paper => 32i64,
        Scale::Test => 8,
    };
    let e = cachemap_workloads::CHUNK_ELEMS;
    app.program.nests[0]
        .refs
        .push(cachemap_polyhedral::ArrayRef::read(
            1,
            vec![cachemap_polyhedral::AffineExpr::new(
                vec![c * e, e, 1],
                -(c * e),
            )],
        ));
    // Keep the read in bounds: start the row loop at 1.
    let old = app.program.nests[0].space.clone();
    let bounds = old.rectangular_bounds();
    app.program.nests[0].space = cachemap_polyhedral::IterationSpace::new(
        bounds
            .iter()
            .enumerate()
            .map(|(k, &(lo, hi))| {
                cachemap_polyhedral::Loop::constant(if k == 0 { lo + 1 } else { lo }, hi)
            })
            .collect(),
    );

    let mut m = Matrix::new(
        "deps",
        "Dependence handling on a recurrence workload (inter-processor)",
        vec![
            "strategy".into(),
            "I/O latency (norm)".into(),
            "exec time (norm)".into(),
        ],
        CellFormat::Ratio,
    );
    let base = run_cell(&app, platform, &MapperConfig::default(), Version::Original);
    for (label, strategy) in [
        ("co-cluster", DepStrategy::CoCluster),
        ("sync-insert", DepStrategy::SyncInsert),
    ] {
        let cfg = MapperConfig {
            dep_strategy: strategy,
            ..MapperConfig::default()
        };
        let rep = run_cell(&app, platform, &cfg, Version::InterProcessor);
        m.row(
            label,
            vec![
                norm(rep.io_latency_ns as f64, base.io_latency_ns as f64),
                norm(rep.exec_time_ns as f64, base.exec_time_ns as f64),
            ],
        );
    }
    m.note("paper: sync-insert is the implemented strategy; co-cluster serializes");
    m
}

/// §5.4 extension: mapping multiple nests together vs. in isolation, on
/// the multi-nest apps (sar: 2 nests, apsi: 3 nests).
pub fn multinest(scale: Scale, platform: &PlatformConfig) -> Matrix {
    let mut m = Matrix::new(
        "multinest",
        "Joint multi-nest mapping vs per-nest (inter-processor, normalized to per-nest)",
        vec![
            "app".into(),
            "cache hits (rel)".into(),
            "I/O latency (rel)".into(),
            "exec time (rel)".into(),
        ],
        CellFormat::Ratio,
    );
    for name in ["sar", "apsi"] {
        let app = cachemap_workloads::by_name(name, scale).expect("app exists");
        let separate = run_cell(
            &app,
            platform,
            &MapperConfig::default(),
            Version::InterProcessor,
        );
        let joint_cfg = MapperConfig {
            joint_nests: true,
            ..MapperConfig::default()
        };
        let joint = run_cell(&app, platform, &joint_cfg, Version::InterProcessor);
        let hits = |r: &SimReport| (r.l1.hits + r.l2.hits + r.l3.hits) as f64;
        m.row(
            name,
            vec![
                norm(hits(&joint), hits(&separate)),
                norm(joint.io_latency_ns as f64, separate.io_latency_ns as f64),
                norm(joint.exec_time_ns as f64, separate.exec_time_ns as f64),
            ],
        );
    }
    m.note("paper: >80% of reuse is intra-nest; joint mapping adds only ~3% more hits");
    m
}

/// Ablation: the three Stage-1 merge linkages (Figure 5 writes the raw
/// dot product; the default normalizes it — see
/// `cachemap_core::cluster::Linkage`).
pub fn linkage_ablation(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use cachemap_core::cluster::{ClusterParams, Linkage};
    let mut m = Matrix::new(
        "linkage",
        "Merge-linkage ablation: suite-average normalized metrics (original = 1.0)",
        vec![
            "linkage".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for (label, linkage) in [
        ("total (Fig.5 literal)", Linkage::Total),
        ("sqrt", Linkage::Sqrt),
        ("average (default)", Linkage::Average),
    ] {
        let cfg = MapperConfig {
            cluster: ClusterParams {
                linkage,
                ..ClusterParams::default()
            },
            ..MapperConfig::default()
        };
        let runs = run_suite(
            scale,
            platform,
            &cfg,
            &[Version::Original, Version::InterProcessor],
        );
        m.row(label, summarize_vs_original(&runs, "inter-processor"));
    }
    m.note("the literal dot-product rule suffers rich-get-richer collapse at scale");
    m
}

/// Ablation: replacement policies. The paper notes its approach "can
/// work with any storage caching policy"; this sweep checks the claim.
pub fn policy_ablation(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use cachemap_storage::config::PolicyKind;
    let mut m = Matrix::new(
        "policies",
        "Replacement-policy ablation: suite-average normalized metrics (original = 1.0)",
        vec![
            "policy".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for (label, policy) in [
        ("LRU (paper)", PolicyKind::Lru),
        ("FIFO", PolicyKind::Fifo),
        ("LFU", PolicyKind::Lfu),
        ("SLRU", PolicyKind::Slru),
        ("LFUDA", PolicyKind::Lfuda),
    ] {
        let p = platform.clone().with_policy(policy);
        let runs = run_suite(
            scale,
            &p,
            &MapperConfig::default(),
            &[Version::Original, Version::InterProcessor],
        );
        m.row(label, summarize_vs_original(&runs, "inter-processor"));
    }
    m.note("the mapping is storage-policy-agnostic, as the paper claims");
    m
}

/// Ablation: scheduling reuse metric (Figure 15's dot product vs the
/// prose's Hamming distance).
pub fn schedule_metric_ablation(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use cachemap_core::schedule::{ReuseMetric, ScheduleParams};
    let mut m = Matrix::new(
        "schedmetric",
        "Scheduling metric ablation: suite-average normalized metrics (original = 1.0)",
        vec![
            "metric".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for (label, metric) in [
        ("dot product (Fig.15)", ReuseMetric::DotProduct),
        ("Hamming distance", ReuseMetric::HammingDistance),
    ] {
        let cfg = MapperConfig {
            schedule: ScheduleParams {
                metric,
                ..Default::default()
            },
            ..MapperConfig::default()
        };
        let runs = run_suite(
            scale,
            platform,
            &cfg,
            &[Version::Original, Version::InterProcessorScheduled],
        );
        m.row(label, summarize_vs_original(&runs, "inter-processor+sched"));
    }
    m
}

/// Ablation: PVFS-style server read-ahead (the paper's related-work
/// section surveys prefetching at length; this measures how much of the
/// mapping win survives once the storage nodes prefetch aggressively).
pub fn prefetch_ablation(scale: Scale, platform: &PlatformConfig) -> Matrix {
    let mut m = Matrix::new(
        "prefetch",
        "Server read-ahead ablation: suite-average normalized metrics (original = 1.0)",
        vec![
            "read-ahead".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for chunks in [0usize, 2, 4] {
        let p = platform.clone().with_readahead(chunks);
        let runs = run_suite(
            scale,
            &p,
            &MapperConfig::default(),
            &[Version::Original, Version::InterProcessor],
        );
        m.row(
            format!("{chunks} chunks"),
            summarize_vs_original(&runs, "inter-processor"),
        );
    }
    m.note("read-ahead helps both versions; the relative mapping win should persist");
    m
}

/// Ablation: optional KL-style boundary refinement after clustering
/// (an extension beyond the paper; 0 passes = the paper's pipeline).
pub fn refine_ablation(scale: Scale, platform: &PlatformConfig) -> Matrix {
    let mut m = Matrix::new(
        "refine",
        "Boundary-refinement ablation: suite-average normalized metrics (original = 1.0)",
        vec![
            "passes".into(),
            "L1 miss".into(),
            "I/O latency".into(),
            "exec time".into(),
        ],
        CellFormat::Ratio,
    );
    for passes in [0usize, 1, 3] {
        let cfg = MapperConfig {
            refine_passes: passes,
            ..MapperConfig::default()
        };
        let runs = run_suite(
            scale,
            platform,
            &cfg,
            &[Version::Original, Version::InterProcessor],
        );
        m.row(
            format!("{passes}"),
            summarize_vs_original(&runs, "inter-processor"),
        );
    }
    m.note("extension beyond the paper: KL-style sibling-boundary swaps");
    m
}

/// Suite-average `[L1-miss, I/O, exec]` of `version`, each normalized to
/// the original run of the same suite.
fn summarize_vs_original(runs: &[AppResults], version: &str) -> Vec<f64> {
    let (mut l1, mut io, mut ex) = (0.0, 0.0, 0.0);
    for r in runs {
        let o = r.get("original");
        let v = r.get(version);
        l1 += norm(v.l1_miss_rate(), o.l1_miss_rate());
        io += norm(v.io_latency_ns as f64, o.io_latency_ns as f64);
        ex += norm(v.exec_time_ns as f64, o.exec_time_ns as f64);
    }
    let n = runs.len() as f64;
    vec![l1 / n, io / n, ex / n]
}

/// §5.1 note: compile-time overhead of the mapping passes (the paper
/// reports 46-87% longer compilations; we report absolute mapping time
/// per app next to its simulated accesses).
pub fn mapping_cost(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use std::time::Instant;
    let mut m = Matrix::new(
        "mapping-cost",
        "Mapper wall-clock cost (ms) per app",
        vec![
            "app".into(),
            "inter (ms)".into(),
            "inter+sched (ms)".into(),
            "accesses".into(),
        ],
        CellFormat::Plain,
    );
    let tree =
        cachemap_storage::HierarchyTree::from_config(platform).expect("valid platform config");
    for app in cachemap_workloads::suite(scale) {
        let data = cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        let mapper = cachemap_core::Mapper::paper_defaults();
        let t0 = Instant::now();
        let a = mapper.map(
            &app.program,
            &data,
            platform,
            &tree,
            Version::InterProcessor,
        );
        let t_inter = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let _b = mapper.map(
            &app.program,
            &data,
            platform,
            &tree,
            Version::InterProcessorScheduled,
        );
        let t_sched = t1.elapsed().as_secs_f64() * 1e3;
        m.row(app.name, vec![t_inter, t_sched, a.total_accesses() as f64]);
    }
    m
}

/// Resilience experiment (beyond the paper): every I/O node of storage
/// group 0 crashes a third of the way into the run — a correlated
/// failure (shared rack, PSU, or switch) that leaves the affected
/// clients with no surviving sibling I/O node, so their accesses go
/// direct-to-storage with no L2 at all. Three conditions per app, all
/// under the same fault plan: the original mapping and the
/// inter-processor mapping run unmodified (degraded clients limp along
/// on the direct path), and a failure-aware inter-processor mapping
/// redistributes the affected clients' iterations over the survivors
/// before the run via [`cachemap_core::Mapper::map_with_failures`].
pub fn resilience(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use cachemap_storage::{FaultEvent, FaultPlan, HierarchyTree, Simulator};

    let mut m = Matrix::new(
        "resilience",
        "Mid-run crash of storage group 0's I/O nodes: exec time (ms) + degraded-mode counters",
        vec![
            "app".into(),
            "orig+crash (ms)".into(),
            "inter+crash (ms)".into(),
            "inter+remap (ms)".into(),
            "failovers".into(),
            "lost dirty".into(),
        ],
        CellFormat::Plain,
    );
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let mapper = cachemap_core::Mapper::new(MapperConfig::default());
    let crashed_ios: Vec<usize> = (0..platform.num_io_nodes)
        .filter(|&io| tree.storage_of_io(io) == 0)
        .collect();
    let failed: Vec<usize> = (0..platform.num_clients)
        .filter(|&c| crashed_ios.contains(&tree.io_of_client(c)))
        .collect();
    for app in cachemap_workloads::suite(scale) {
        let data = cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        let orig = mapper.map(&app.program, &data, platform, &tree, Version::Original);
        let inter = mapper.map(
            &app.program,
            &data,
            platform,
            &tree,
            Version::InterProcessor,
        );
        let remapped = mapper
            .map_with_failures(
                &app.program,
                &data,
                platform,
                &tree,
                Version::InterProcessor,
                &failed,
            )
            .expect("valid failed-client set");

        // Crash a third of the way into the fault-free inter run.
        let clean = Simulator::new(platform.clone())
            .expect("valid platform config")
            .run(&inter)
            .expect("well-formed mapped program");
        let at_ns = (clean.exec_time_ns / 3).max(1);
        let mut plan = FaultPlan::new();
        for &io in &crashed_ios {
            plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns });
        }
        let sim = Simulator::new(platform.clone())
            .expect("valid platform config")
            .with_fault_plan(plan)
            .expect("plan fits the platform");

        let r_orig = sim.run(&orig).expect("well-formed mapped program");
        let r_inter = sim.run(&inter).expect("well-formed mapped program");
        let r_remap = sim.run(&remapped).expect("well-formed mapped program");
        m.row(
            app.name,
            vec![
                r_orig.exec_time_ns as f64 / 1e6,
                r_inter.exec_time_ns as f64 / 1e6,
                r_remap.exec_time_ns as f64 / 1e6,
                r_orig.faults.failovers as f64,
                r_orig.faults.lost_dirty_chunks as f64,
            ],
        );
    }
    m.note("failovers / lost dirty are from the unremapped original run");
    m.note("remapping moves the crashed I/O group's iterations to survivors up front");
    m
}

/// Online variant of the resilience experiment: storage group 0's whole
/// rack — its I/O nodes *and* its storage node — fails mid-run, and
/// nobody tells the mapper. The affected clients limp along direct to
/// disk (no L2, no L3). The [`cachemap_core::online`] supervisor runs
/// the inter-processor plan in epochs, infers the crash at an epoch
/// boundary purely from engine observations (failover events + the
/// nodes' L2 series going silent — it never reads the `FaultPlan`),
/// live-remaps the remaining iterations onto the surviving clusters with
/// `cluster::remap_incremental`, and resumes from the checkpoint. The
/// unremapped run of the *same* plan under the *same* fault plan is the
/// baseline it must beat.
pub fn resilience_online(scale: Scale, platform: &PlatformConfig) -> Matrix {
    use cachemap_core::cluster::ClusterParams;
    use cachemap_core::online::{plan_joint, run_online, OnlineConfig};
    use cachemap_core::schedule::ScheduleParams;
    use cachemap_storage::{FaultEvent, FaultPlan, HierarchyTree, Simulator};

    let mut m = Matrix::new(
        "resilience-online",
        "Online supervisor vs unremapped run, same mid-run I/O-group crash (no oracle)",
        vec![
            "app".into(),
            "unremapped (ms)".into(),
            "online (ms)".into(),
            "detect latency (ns)".into(),
            "remaps".into(),
        ],
        CellFormat::Plain,
    );
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let crashed_ios: Vec<usize> = (0..platform.num_io_nodes)
        .filter(|&io| tree.storage_of_io(io) == 0)
        .collect();
    for app in cachemap_workloads::suite(scale) {
        let data = cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        let (chunks, dist) = plan_joint(
            &app.program,
            &data,
            &tree,
            &ClusterParams::default(),
            &ScheduleParams::default(),
        );
        let full = cachemap_core::codegen::lower_distribution(&dist, &chunks, &app.program, &data);

        // Crash a tenth of the way into the fault-free run of this plan:
        // early enough that most of the work is still outstanding, which
        // is the regime where live remapping can pay.
        let clean = Simulator::new(platform.clone())
            .expect("valid platform config")
            .run(&full)
            .expect("well-formed mapped program");
        let at_ns = (clean.exec_time_ns / 10).max(1);
        let mut plan =
            FaultPlan::new().with_event(FaultEvent::StorageNodeCrash { storage: 0, at_ns });
        for &io in &crashed_ios {
            plan = plan.with_event(FaultEvent::IoNodeCrash { io, at_ns });
        }
        let sim = Simulator::new(platform.clone())
            .expect("valid platform config")
            .with_fault_plan(plan)
            .expect("plan fits the platform");

        let unremapped = sim.run(&full).expect("well-formed mapped program");
        let cfg = OnlineConfig {
            // Shorter epochs keep the crash epoch's healthy prefix from
            // diluting the limp-rate sample the remap gate judges with.
            epochs: 6,
            // Fine-grained series so the silence check resolves within
            // the crash epoch, sized to stay compact at every scale.
            bucket_ns: (clean.exec_time_ns / 5000).max(20_000),
            ..OnlineConfig::default()
        };
        let online = run_online(&sim, &app.program, &data, &chunks, &dist, &cfg)
            .expect("online supervised run completes");
        let latency = online
            .detection_latency_ns(at_ns)
            .map_or(-1.0, |l| l as f64);
        m.row(
            app.name,
            vec![
                unremapped.exec_time_ns as f64 / 1e6,
                online.exec_time_ms(),
                latency,
                online.remaps as f64,
            ],
        );
    }
    m.note("detect latency = simulated ns from fault injection to the supervisor's Down verdict");
    m.note("the supervisor sees only engine observations, never the fault plan");
    m.note("remaps = 0 means the cost gate predicted limping beats shifting the orphans");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_platform() -> PlatformConfig {
        PlatformConfig::paper_default().with_cache_chunks(8, 8, 8)
    }

    #[test]
    fn table1_mentions_all_parameters() {
        let s = table1(&PlatformConfig::paper_default());
        for needle in ["Client Nodes", "64", "Stripe", "RPM", "10000"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn default_pipeline_figures_have_eight_rows() {
        let runs = default_runs(Scale::Test, &test_platform());
        let t2 = table2(&runs, Scale::Test);
        assert_eq!(t2.rows.len(), 8);
        for m in fig10(&runs)
            .iter()
            .chain(fig11(&runs).iter())
            .chain(fig18(&runs).iter())
        {
            assert_eq!(m.rows.len(), 8, "{}", m.id);
        }
    }

    #[test]
    fn deps_experiment_produces_two_strategies() {
        let m = deps_exp(Scale::Test, &test_platform());
        assert_eq!(m.rows.len(), 2);
        for (_, cells) in &m.rows {
            assert!(cells.iter().all(|&c| c > 0.0));
        }
    }

    #[test]
    fn multinest_covers_multi_nest_apps() {
        let m = multinest(Scale::Test, &test_platform());
        assert_eq!(m.rows.len(), 2);
    }

    #[test]
    fn resilience_online_beats_unremapped_and_measures_latency() {
        let m = resilience_online(Scale::Test, &test_platform());
        assert_eq!(m.rows.len(), 8);
        // Columns: unremapped, online, detect latency, remaps.
        let means = m.column_means();
        assert!(
            means[1] < means[0],
            "online supervisor must beat the unremapped run on average: {means:?}"
        );
        let mut remaps_total = 0.0;
        for (app, cells) in &m.rows {
            // The cost gate makes the supervisor do no harm per app: it
            // only shifts orphans when the model predicts a win, so the
            // worst case is tracking the unremapped run (plus noise from
            // epoch-boundary flushes, hence the small tolerance).
            assert!(
                cells[1] <= cells[0] * 1.02,
                "{app}: online may not lose to the unremapped run: {cells:?}"
            );
            assert!(
                cells[2] > 0.0,
                "{app}: the crash must be detected without the oracle: {cells:?}"
            );
            remaps_total += cells[3];
        }
        assert!(
            remaps_total >= 1.0,
            "at least one app must live-remap: {:?}",
            m.rows
        );
    }

    #[test]
    fn resilience_remapped_inter_beats_unremapped_original() {
        let m = resilience(Scale::Test, &test_platform());
        assert_eq!(m.rows.len(), 8);
        let means = m.column_means();
        // Columns: orig+crash, inter+crash, inter+remap, failovers, lost.
        assert!(
            means[2] < means[0],
            "remapped inter must beat unremapped original on average: {means:?}"
        );
        // The crash must actually bite: the unremapped runs fail over.
        assert!(means[3] > 0.0, "no failovers recorded: {means:?}");
        for (app, cells) in &m.rows {
            assert!(
                cells.iter().take(3).all(|&c| c > 0.0),
                "{app}: every condition must complete: {cells:?}"
            );
        }
    }
}
