//! `sim-sweep`: the storage simulator alone.
//!
//! Set-up maps twelve programs — the suite, `scan_storm`, `graph_bfs`,
//! `graph_dfs` and the `checkpoint` extra, as seeded variants at paper
//! scale — in the `original` and `intra-processor` versions. The timed
//! part simulates all 24 mappings under five eviction policies on two
//! cache sizes (the paper's, and one-sixteenth of it, where every level
//! evicts and dirty chunks are written back), sweep after sweep.

use crate::clock::{thread_cpu_s, Setups};
use crate::record::Run;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::variant::variant;
use cachemap_core::{Mapper, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::{
    HierarchyTree, MappedProgram, PlatformConfig, PolicyKind, SimReport, Simulator,
};
use cachemap_util::Json;
use cachemap_workloads::{extras, scenario_by_name, suite, Application, Scale};
use std::time::Instant;

/// Sweeps per end-to-end run, at least: the repeat check needs two.
const MIN_SWEEPS: u64 = 2;

/// The policies swept (GDSF is left out: with uniform chunks it ties LFUDA).
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Lfu,
    PolicyKind::Slru,
    PolicyKind::Lfuda,
];

/// Cache sizes: label and divisor of the paper's per-node capacities.
const SIZES: [(&str, usize); 2] = [("paper", 1), ("small", 16)];

fn applications() -> Vec<Application> {
    let mut apps = suite(Scale::Paper);
    for name in ["scan_storm", "graph_bfs", "graph_dfs"] {
        apps.extend(scenario_by_name(name, Scale::Paper));
    }
    apps.push(extras::checkpoint(Scale::Paper));
    apps
}

/// One mapped program: `(app, version label, mapping, accesses)`.
struct Mapped {
    app: &'static str,
    version: &'static str,
    mapping: MappedProgram,
    accesses: u64,
}

/// Builds the mappings; returns them with the summed mapping seconds.
fn build(
    seed: u64,
    platform: &PlatformConfig,
    tree: &HierarchyTree,
    tr: &mut Tracer,
) -> (Vec<Mapped>, f64, Vec<(String, Json)>) {
    let mapper = Mapper::paper_defaults();
    let mut out = Vec::new();
    let mut map_s = 0.0;
    let mut footprints = Vec::new();
    for app in applications() {
        let program = variant(&app.program, seed, tr);
        let data = tr.span("polyhedral.data_space", 0, |_| {
            DataSpace::new(&program.arrays, platform.chunk_bytes)
        });
        footprints.push((app.name.to_string(), Json::UInt(data.num_chunks() as u64)));
        for (version, label) in [
            (Version::Original, "original"),
            (Version::IntraProcessor, "intra-processor"),
        ] {
            let t = Instant::now();
            let mapping = mapper.map(&program, &data, platform, tree, version);
            map_s += t.elapsed().as_secs_f64();
            let accesses = mapping.total_accesses();
            out.push(Mapped {
                app: app.name,
                version: label,
                mapping,
                accesses,
            });
        }
    }
    (out, map_s, footprints)
}

/// One simulator configuration of the sweep.
struct Config {
    label: String,
    sim: Simulator,
}

fn configs(base: &PlatformConfig) -> Result<Vec<Config>, String> {
    let mut out = Vec::new();
    for (size, div) in SIZES {
        for policy in POLICIES {
            let cfg = base
                .clone()
                .with_cache_chunks(
                    base.client_cache_chunks / div,
                    base.io_cache_chunks / div,
                    base.storage_cache_chunks / div,
                )
                .with_policy(policy);
            out.push(Config {
                label: format!("{}.{size}", policy.label()),
                sim: Simulator::new(cfg).map_err(|e| e.to_string())?,
            });
        }
    }
    Ok(out)
}

/// Per-sweep results: reports in sweep order, each run's CPU ms, and
/// per-config accesses.
struct Sweep {
    reports: Vec<SimReport>,
    cpu_ms: Vec<f64>,
    accesses: Vec<u64>,
}

fn sweep(configs: &[Config], programs: &[Mapped], tr: &mut Tracer) -> Result<Sweep, String> {
    let mut s = Sweep {
        reports: Vec::new(),
        cpu_ms: Vec::new(),
        accesses: Vec::new(),
    };
    for c in configs {
        for p in programs {
            let cpu = thread_cpu_s();
            let report = tr
                .span("storage.engine", 0, |_| c.sim.run(&p.mapping))
                .map_err(|e| format!("{} {} under {}: {e}", p.app, p.version, c.label))?;
            s.cpu_ms.push((thread_cpu_s() - cpu) * 1e3);
            s.reports.push(report);
        }
        s.accesses.push(programs.iter().map(|p| p.accesses).sum());
    }
    Ok(s)
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let platform = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&platform).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(run.args.trace);
    let mut setups = Setups::new(run.args.trace);
    let mut map_times = Vec::new();
    let mut programs = Vec::new();
    let mut footprints = Vec::new();
    while setups.again() {
        drop(std::mem::take(&mut programs));
        let (p, map_s, f) = setups.time(|| build(run.args.seed, &platform, &tree, &mut tr));
        programs = p;
        footprints = f;
        map_times.push(map_s);
    }
    let configs = configs(&platform)?;
    run.set_setup(setups.samples());
    run.set("map_s", median(&map_times), "s", map_times.len() as u64);
    run.info("data_chunks_per_app", Json::Object(footprints));
    let node_totals = |div: usize| {
        Json::object(vec![
            (
                "l1",
                Json::UInt((platform.client_cache_chunks / div * platform.num_clients) as u64),
            ),
            (
                "l2",
                Json::UInt((platform.io_cache_chunks / div * platform.num_io_nodes) as u64),
            ),
            (
                "l3",
                Json::UInt(
                    (platform.storage_cache_chunks / div * platform.num_storage_nodes) as u64,
                ),
            ),
        ])
    };
    run.info(
        "cache_chunks_total",
        Json::object(vec![("paper", node_totals(1)), ("small", node_totals(16))]),
    );

    let untraced_s = if run.args.trace {
        // One untraced sweep first, so the traced one can be compared.
        let t = Instant::now();
        sweep(&configs, &programs, &mut Tracer::new(false))?;
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };

    // The simulator is single-threaded: each run is timed by the CPU time
    // of this thread (what it would take on a core of its own), and by
    // its fastest repetition in this run.
    let measure = Instant::now();
    let mut first: Option<Sweep> = None;
    let mut best: Vec<f64> = Vec::new();
    let mut sweeps = 0u64;
    loop {
        let t = Instant::now();
        let s = sweep(&configs, &programs, &mut tr)?;
        let secs = t.elapsed().as_secs_f64();
        sweeps += 1;
        run.attempted += s.reports.len() as u64;
        match &first {
            None => {
                for (i, r) in s.reports.iter().enumerate() {
                    run.check(
                        r.l2.accesses() == r.l1.misses && r.l3.accesses() == r.l2.misses,
                        || {
                            format!(
                                "report {i}: a level's accesses differ from the misses above it"
                            )
                        },
                    );
                }
                best = s.cpu_ms.clone();
                first = Some(s);
            }
            Some(f) => {
                run.check(f.reports == s.reports, || {
                    "simulated statistics differ between sweeps".into()
                });
                for (b, &ms) in best.iter_mut().zip(&s.cpu_ms) {
                    *b = b.min(ms);
                }
            }
        }
        if run.args.trace
            || (sweeps >= MIN_SWEEPS
                && measure.elapsed().as_secs_f64() + secs / 2.0 >= run.args.seconds)
        {
            break;
        }
    }
    let first = first.ok_or("no sweep ran")?;
    let accesses: u64 = first.accesses.iter().sum();
    let best_s = best.iter().sum::<f64>() / 1e3;

    // Quality of the intra-processor version (LRU, paper-size caches).
    let lru_paper = &first.reports[..programs.len()];
    let (mut exec, mut io) = (Vec::new(), Vec::new());
    for pair in lru_paper.chunks(2) {
        exec.push(ratio(
            pair[1].exec_time_ns as f64,
            pair[0].exec_time_ns as f64,
        ));
        io.push(ratio(
            pair[1].io_latency_ns as f64,
            pair[0].io_latency_ns as f64,
        ));
    }
    run.set("exec_ratio", mean(&exec), "ratio", exec.len() as u64);
    run.set("io_ratio", mean(&io), "ratio", io.len() as u64);
    let n = best.len() as u64;
    run.set("p50_ms", median(&best), "ms", n);
    run.set("p99_ms", quantile(&best, 0.99), "ms", n);
    run.set("throughput", accesses as f64 / best_s, "1/s", sweeps);
    run.set(
        "sim_maccess_per_s",
        accesses as f64 / best_s / 1e6,
        "M/s",
        sweeps,
    );

    if run.args.trace {
        let traced_s = measure.elapsed().as_secs_f64();
        run.set("bench.trace_overhead", traced_s / untraced_s, "ratio", 1);
        run.set("storage.engine.ms", tr.total_ms("storage.engine"), "ms", n);
        let per_run = tr.durations_ms("storage.engine");
        for (ci, c) in configs.iter().enumerate() {
            let spans = &per_run[ci * programs.len()..(ci + 1) * programs.len()];
            let acc = first.accesses[ci] as f64;
            run.set(
                &format!("storage.engine.maccess_per_s.{}", c.label),
                acc / (spans.iter().sum::<f64>() / 1e3) / 1e6,
                "M/s",
                spans.len() as u64,
            );
        }
        cache_counts(run, &first.reports);
        tr.report(run)?;
    }
    Ok(())
}

/// The `storage.cache.*` and `storage.disk.*` counts over `reports`.
pub fn cache_counts(run: &mut Run, reports: &[SimReport]) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let n = reports.len() as u64;
    for (level, hits, accesses) in [
        ("l1", sum(&|r| r.l1.hits), sum(&|r| r.l1.accesses())),
        ("l2", sum(&|r| r.l2.hits), sum(&|r| r.l2.accesses())),
        ("l3", sum(&|r| r.l3.hits), sum(&|r| r.l3.accesses())),
    ] {
        run.set(
            &format!("storage.cache.{level}_hit_frac"),
            ratio(hits, accesses),
            "ratio",
            n,
        );
    }
    let evictions =
        sum(&|r| r.l1_evictions.evictions + r.l2_evictions.evictions + r.l3_evictions.evictions);
    let writebacks =
        sum(&|r| r.l1_evictions.writebacks + r.l2_evictions.writebacks + r.l3_evictions.writebacks);
    run.set("storage.cache.evictions", evictions, "count", n);
    run.set("storage.cache.writebacks", writebacks, "count", n);
    run.set("storage.disk.writes", sum(&|r| r.disk_writes), "count", n);
}
