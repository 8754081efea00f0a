//! `repro` — regenerate the tables and figures of the HPDC'10 paper.
//!
//! ```text
//! repro [--test-scale] <experiment> [experiment...]
//! repro all
//! ```
//!
//! Experiments: `table1 table2 example fig10 fig11 fig12 fig13 fig14
//! fig18 alphabeta prefetch refine linkage policies schedmetric deps multinest
//! mapping-cost resilience`, plus the diagnostics `detail:<app>` and
//! `clients:<app>`.
//!
//! Chaos: `repro chaos[:<seed>[:<plans>]]` runs a seeded fault-plan
//! campaign against the online supervisor and checks four invariants
//! per plan; violated plans are shrunk to minimal `chaos_repro_*.json`
//! files, which `repro chaos-replay <file...>` re-runs byte-for-byte.
//!
//! Each experiment prints a paper-style table and archives the raw
//! numbers under `reports/<id>.json`; with `--test-scale`, under
//! `reports/test-scale/<id>.json` instead.
//!
//! Observability: `repro obs-export[:<app>]` captures one fully observed
//! run (mapper phase profile + engine time series) into
//! `reports/<app>-inter-scheduled.obs.json`; `repro obs <path...>`
//! renders such artifacts; `repro resilience` additionally exports an
//! artifact showing the crash → failover → steady-state timeline.

use cachemap_bench::{experiments, report::Matrix, write_report};
use cachemap_storage::PlatformConfig;
use cachemap_util::ToJson;
use cachemap_workloads::Scale;

/// Prints each figure and archives its raw numbers: paper scale under
/// `reports/<id>.json` (the committed copies), test scale under the
/// gitignored `reports/test-scale/<id>.json`.
fn emit(matrices: &[Matrix], test_scale: bool) {
    for m in matrices {
        println!("{}", m.render());
        let name = if test_scale {
            format!("test-scale/{}", m.id)
        } else {
            m.id.clone()
        };
        match write_report(&name, m) {
            Ok(path) => println!("   [raw numbers: {}]\n", path.display()),
            Err(e) => eprintln!("   [warning: could not write report: {e}]\n"),
        }
    }
}

/// Renders the §4.4 worked example (Figures 6-9 and 17) as text.
fn worked_example() -> String {
    use cachemap_core::cluster::{distribute, ClusterParams};
    use cachemap_core::graph::SimilarityGraph;
    use cachemap_core::schedule::{schedule, ScheduleParams};
    use cachemap_core::tags::tag_nest;
    use cachemap_polyhedral::{
        AffineExpr, ArrayDecl, ArrayRef, DataSpace, IterationSpace, Loop, LoopNest, Program,
    };
    use cachemap_storage::HierarchyTree;

    // Figure 6: A[m], 12 chunks of d elements, i = 0 .. m-4d-1,
    // accessing A[i], A[i%d] (≡ chunk 0), A[i+4d], A[i+2d].
    let d: i64 = 4;
    let m = 12 * d;
    let a = ArrayDecl::new("A", vec![m], 8);
    let space = IterationSpace::new(vec![Loop::constant(0, m - 4 * d - 1)]);
    let refs = vec![
        ArrayRef::write(0, vec![AffineExpr::var(0)]),
        ArrayRef::read(0, vec![AffineExpr::var(0).with_mod(d)]),
        ArrayRef::read(0, vec![AffineExpr::var_plus(0, 4 * d)]),
        ArrayRef::read(0, vec![AffineExpr::var_plus(0, 2 * d)]),
    ];
    let program = Program::new("fig6", vec![a], vec![LoopNest::new("fig6", space, refs)]);
    let data = DataSpace::new(&program.arrays, 8 * d as u64);

    let mut out = String::from("== example — §4.4 worked example (Figures 6-9, 17) ==\n");
    let tagged = tag_nest(&program, 0, &data);
    out.push_str("Iteration chunks and tags (Figure 8):\n");
    for (k, c) in tagged.chunks.iter().enumerate() {
        out.push_str(&format!(
            "  γ{} : i = {:>2} .. {:>2}   tag {}\n",
            k + 1,
            c.points.first().unwrap()[0],
            c.points.last().unwrap()[0],
            c.tag.to_tag_string()
        ));
    }

    let g = SimilarityGraph::build(&tagged.chunks);
    out.push_str("Similarity edges with weight ≥ 2 (Figure 8 graph):\n");
    for (i, j, w) in g.edges_at_least(2) {
        out.push_str(&format!("  ω(γ{}, γ{}) = {}\n", i + 1, j + 1, w));
    }

    let cfg = cachemap_storage::PlatformConfig::tiny();
    let tree = HierarchyTree::from_config(&cfg).expect("tiny config is valid");
    let dist = distribute(&tagged.chunks, &tree, &ClusterParams::default());
    out.push_str("Clustering (Figure 9):\n");
    for (c, items) in dist.per_client.iter().enumerate() {
        let names: Vec<String> = items.iter().map(|i| format!("γ{}", i.chunk + 1)).collect();
        out.push_str(&format!("  CN{} ← {{{}}}\n", c, names.join(", ")));
    }

    let sched = schedule(&dist, &tagged.chunks, &tree, &ScheduleParams::default());
    out.push_str("Final schedule (Figure 17):\n");
    for (c, items) in sched.per_client.iter().enumerate() {
        let names: Vec<String> = items.iter().map(|i| format!("γ{}", i.chunk + 1)).collect();
        out.push_str(&format!("  Compute Node {} : {}\n", c, names.join(", ")));
    }
    out
}

/// Updates one section of the committed `BENCH_service.json`, which
/// holds `{"open": {…}, "storm": {…}}`. A missing file
/// or one with any other top-level key starts a fresh sectioned object.
fn merge_bench_service(section: &str, value: cachemap_util::Json) -> std::io::Result<()> {
    use cachemap_util::Json;
    let path = "BENCH_service.json";
    let mut pairs: Vec<(String, Json)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|text| cachemap_util::json::parse(&text).ok())
    {
        Some(Json::Object(pairs)) if pairs.iter().all(|(k, _)| k == "open" || k == "storm") => {
            pairs
        }
        _ => Vec::new(),
    };
    match pairs.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = value,
        None => pairs.push((section.to_string(), value)),
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Object(pairs).to_string_pretty())
}

fn usage() -> String {
    "usage: repro [--test-scale] <subcommand...>\n\
     \n\
     paper experiments:\n\
     \x20 all table1 table2 example fig10 fig11 fig12 fig13 fig14 fig18\n\
     \x20 alphabeta prefetch refine linkage policies schedmetric deps\n\
     \x20 multinest mapping-cost resilience\n\
     diagnostics:\n\
     \x20 detail:<app> clients:<app> analyze:<app> trace:<app>\n\
     observability:\n\
     \x20 obs <artifact.obs.json...>    render exported artifacts\n\
     \x20 obs-export[:<app>]            capture one observed run\n\
     \x20 trace <file...>               render request traces / flight\n\
     \x20                               dumps (flight-*.json, trace-op\n\
     \x20                               replies, map response lines)\n\
     fault injection:\n\
     \x20 chaos[:<seed>[:<plans>]]      seeded fault-plan campaign\n\
     \x20 chaos-replay <file...>        re-run shrunk repro plans\n\
     mapping service:\n\
     \x20 serve[:<addr>]                long-running epoll/batching mapping\n\
     \x20                               server (default 127.0.0.1:7411;\n\
     \x20                               CACHEMAP_L2_DIR enables the durable\n\
     \x20                               L2 tier, CACHEMAP_L2_TTL_SECS its TTL,\n\
     \x20                               CACHEMAP_TRACING=1 enables request\n\
     \x20                               tracing + the flight recorder)\n\
     \x20 serve-open[:<rps>[:<secs>]]   open-loop Poisson campaign against\n\
     \x20                               the server: offered vs\n\
     \x20                               achieved RPS, p99 gate, 10k idle\n\
     \x20                               connections parked (default\n\
     \x20                               1200 req/s for 8 s, seed 42)\n\
     \x20 serve-storm[:<seed>]          robustness storm: hot-fingerprint\n\
     \x20                               coalescing barrage, mid-campaign\n\
     \x20                               kill + torn-tail restart, graceful\n\
     \x20                               drain under load; L2 segments and\n\
     \x20                               flight dumps stay in\n\
     \x20                               l2-cache/storm-<seed>/ (default\n\
     \x20                               seed 42)\n\
     policy zoo:\n\
     \x20 advisor[:<seed>]              per-(workload, level) eviction-policy\n\
     \x20                               sweep over the adversarial scenarios\n\
     \x20                               + hf/contour; writes the crossover\n\
     \x20                               table to BENCH_policies.json\n\
     \x20                               (default seed 42; deterministic)\n\
     \x20 advisor-check <file...>       validate advisor reports against\n\
     \x20                               the BENCH_policies.json schema\n\
     help:\n\
     \x20 help | --help | -h            this screen\n\
     environment:\n\
     \x20 CACHEMAP_THREADS=<n>          worker pool of the suite, advisor\n\
     \x20                               and chaos sweeps (default: all\n\
     \x20                               cores; results are identical)"
        .to_string()
}

/// Rejects a malformed subcommand argument: prints `repro: bad <what>:
/// <value>` and exits 2, the usage-error code.
fn bad_arg(what: &str, value: &str) -> ! {
    eprintln!("repro: bad {what}: {value}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_scale = args.iter().any(|a| a == "--test-scale");
    let wants_help = args
        .iter()
        .any(|a| a == "help" || a == "--help" || a == "-h");
    let mut wanted: Vec<String> = args
        .into_iter()
        .filter(|a| !a.starts_with("--") && a != "help" && a != "-h")
        .collect();
    if wants_help {
        println!("{}", usage());
        return;
    }
    if wanted.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }

    // `repro obs <path...>` renders exported artifacts; the remaining
    // arguments are file paths, not experiment names.
    if wanted[0] == "obs" {
        if wanted.len() < 2 {
            eprintln!("usage: repro obs <artifact.obs.json...>");
            std::process::exit(2);
        }
        for path in &wanted[1..] {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            match cachemap_obs::ObsArtifact::parse(&text) {
                Ok(a) => println!("{}", cachemap_bench::render_artifact(&a)),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        return;
    }
    // `repro trace <path...>` renders request traces and flight-recorder
    // dumps; the remaining arguments are file paths. (The colon form
    // `trace:<app>` below is the unrelated reuse-distance diagnostic.)
    if wanted[0] == "trace" {
        if wanted.len() < 2 {
            eprintln!("usage: repro trace <flight-*.json | trace.json ...>");
            std::process::exit(2);
        }
        for path in &wanted[1..] {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let parsed = cachemap_util::json::parse(&text).unwrap_or_else(|e| {
                eprintln!("{path}: not JSON: {e}");
                std::process::exit(2);
            });
            match cachemap_bench::tracefmt::render(&parsed) {
                Ok(rendered) => println!("{rendered}"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        return;
    }
    // `repro advisor-check <path...>` validates advisor reports; the
    // remaining arguments are file paths, not experiment names.
    if wanted[0] == "advisor-check" {
        if wanted.len() < 2 {
            eprintln!("usage: repro advisor-check <BENCH_policies.json...>");
            std::process::exit(2);
        }
        for path in &wanted[1..] {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let parsed = cachemap_util::json::parse(&text).unwrap_or_else(|e| {
                eprintln!("{path}: not JSON: {e}");
                std::process::exit(1);
            });
            match cachemap_bench::advisor::validate_report(&parsed) {
                Ok(()) => println!("{path}: valid advisor report"),
                Err(e) => {
                    eprintln!("{path}: schema violation: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    // `repro chaos-replay <path...>` re-runs shrunk chaos plans; the
    // remaining arguments are repro files, not experiment names.
    if wanted[0] == "chaos-replay" {
        if wanted.len() < 2 {
            eprintln!("usage: repro chaos-replay <chaos_repro_*.json...>");
            std::process::exit(2);
        }
        let mut all_reproduced = true;
        for path in &wanted[1..] {
            match cachemap_bench::chaos::replay(std::path::Path::new(path)) {
                Ok(outcome) => {
                    if outcome.reproduced() {
                        println!(
                            "{path}: failure reproduced ({})",
                            outcome.observed.join("; ")
                        );
                    } else {
                        all_reproduced = false;
                        println!(
                            "{path}: NOT reproduced — recorded [{}], observed [{}]",
                            outcome.recorded.join("; "),
                            outcome.observed.join("; ")
                        );
                    }
                }
                Err(e) => {
                    all_reproduced = false;
                    eprintln!("{path}: {e}");
                }
            }
        }
        std::process::exit(if all_reproduced { 0 } else { 1 });
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1",
            "table2",
            "example",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig18",
            "alphabeta",
            "prefetch",
            "refine",
            "linkage",
            "policies",
            "schedmetric",
            "deps",
            "multinest",
            "mapping-cost",
            "resilience",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let scale = if test_scale {
        Scale::Test
    } else {
        Scale::Paper
    };
    let platform = PlatformConfig::paper_default();

    // The default-platform runs are shared by table2 / fig10 / fig11 /
    // fig18; compute them lazily, at most once.
    let mut default_runs: Option<Vec<cachemap_bench::AppResults>> = None;
    let needs_default = ["table2", "fig10", "fig11", "fig18"];
    let mut get_runs = |scale: Scale, platform: &PlatformConfig| {
        if default_runs.is_none() {
            eprintln!("[running default-platform suite: 8 apps × 4 versions …]");
            default_runs = Some(experiments::default_runs(scale, platform));
        }
        default_runs.clone().unwrap()
    };
    let _ = needs_default;

    for exp in &wanted {
        match exp.as_str() {
            "table1" => println!("{}", experiments::table1(&platform)),
            "table2" => {
                let runs = get_runs(scale, &platform);
                emit(&[experiments::table2(&runs, scale)], test_scale);
            }
            "example" => println!("{}", worked_example()),
            "fig10" => {
                let runs = get_runs(scale, &platform);
                emit(&experiments::fig10(&runs), test_scale);
            }
            "fig11" => {
                let runs = get_runs(scale, &platform);
                emit(&experiments::fig11(&runs), test_scale);
            }
            "fig12" => {
                eprintln!("[fig12: topology sweep …]");
                emit(&experiments::fig12(scale, &platform), test_scale);
            }
            "fig13" => {
                eprintln!("[fig13: cache capacity sweep …]");
                emit(&experiments::fig13(scale, &platform), test_scale);
            }
            "fig14" => {
                eprintln!("[fig14: chunk size sweep …]");
                emit(&experiments::fig14(scale, &platform), test_scale);
            }
            "fig18" => {
                let runs = get_runs(scale, &platform);
                emit(&experiments::fig18(&runs), test_scale);
            }
            "alphabeta" => {
                eprintln!("[alphabeta: scheduling weight sweep …]");
                emit(&[experiments::alphabeta(scale, &platform)], test_scale);
            }
            "refine" => {
                eprintln!("[refine: boundary-refinement ablation …]");
                emit(
                    &[experiments::refine_ablation(scale, &platform)],
                    test_scale,
                );
            }
            "prefetch" => {
                eprintln!("[prefetch: server read-ahead ablation …]");
                emit(
                    &[experiments::prefetch_ablation(scale, &platform)],
                    test_scale,
                );
            }
            "linkage" => {
                eprintln!("[linkage: merge-linkage ablation …]");
                emit(
                    &[experiments::linkage_ablation(scale, &platform)],
                    test_scale,
                );
            }
            "policies" => {
                eprintln!("[policies: replacement-policy ablation …]");
                emit(
                    &[experiments::policy_ablation(scale, &platform)],
                    test_scale,
                );
            }
            "schedmetric" => {
                eprintln!("[schedmetric: scheduling-metric ablation …]");
                emit(
                    &[experiments::schedule_metric_ablation(scale, &platform)],
                    test_scale,
                );
            }
            "deps" => emit(&[experiments::deps_exp(scale, &platform)], test_scale),
            "resilience" => {
                eprintln!("[resilience: mid-run I/O-node crash, remap vs failover ...]");
                emit(&[experiments::resilience(scale, &platform)], test_scale);
                eprintln!("[resilience-online: supervised epochs, oracle-free detection ...]");
                let online = experiments::resilience_online(scale, &platform);
                for (app, cells) in &online.rows {
                    // cells: unremapped, online, detect latency (ns), remaps.
                    if cells[2] >= 0.0 {
                        println!(
                            "   detection latency {app}: {:.3} ms simulated ({} remap{})",
                            cells[2] / 1e6,
                            cells[3] as u64,
                            if cells[3] as u64 == 1 { "" } else { "s" }
                        );
                    } else {
                        println!("   detection latency {app}: crash never detected");
                    }
                }
                println!();
                emit(&[online], test_scale);
                let artifact = cachemap_bench::obs::resilience_observed(scale, &platform);
                let label = artifact.meta.label.clone();
                match cachemap_bench::write_obs_artifact(&label, &artifact) {
                    Ok(path) => println!(
                        "   [obs artifact: {} — inspect with `repro obs`]\n",
                        path.display()
                    ),
                    Err(e) => eprintln!("   [warning: could not write obs artifact: {e}]\n"),
                }
            }
            s if s == "chaos" || s.starts_with("chaos:") => {
                let mut parts = s.splitn(3, ':').skip(1);
                let seed: u64 = parts.next().map_or(42, |p| {
                    p.parse().unwrap_or_else(|_| bad_arg("chaos seed", p))
                });
                let mut cfg = cachemap_bench::chaos::ChaosConfig::with_seed(seed);
                if let Some(p) = parts.next() {
                    cfg.plans = p.parse().unwrap_or_else(|_| bad_arg("chaos budget", p));
                }
                cfg.scale = scale;
                eprintln!(
                    "[chaos: seed {seed}, {} randomized fault plans, 4 invariants ...]",
                    cfg.plans
                );
                let report = cachemap_bench::chaos::run_campaign(&cfg, |p| {
                    let verdict = if p.violations.is_empty() {
                        "ok".to_string()
                    } else {
                        format!("VIOLATED: {}", p.violations.join("; "))
                    };
                    println!(
                        "  plan {:>3} {:<10} {} event{}{}: {verdict}",
                        p.index,
                        p.app,
                        p.events,
                        if p.events == 1 { "" } else { "s" },
                        if p.transient { " + transients" } else { "" },
                    );
                });
                if report.clean() {
                    println!(
                        "chaos campaign clean: {} plans, zero invariant violations",
                        report.plans.len()
                    );
                } else {
                    for f in &report.failures {
                        eprintln!(
                            "plan {} ({}) failed after shrinking to {} event(s): {}",
                            f.plan_index,
                            f.app,
                            f.shrunk.events.len(),
                            f.violations.join("; ")
                        );
                        if let Some(p) = &f.repro_path {
                            eprintln!(
                                "  repro: {} (replay with `repro chaos-replay {}`)",
                                p.display(),
                                p.display()
                            );
                        }
                    }
                    std::process::exit(1);
                }
            }
            s if s == "obs-export" || s.starts_with("obs-export:") => {
                let name = s.strip_prefix("obs-export:").unwrap_or("contour");
                let app = cachemap_workloads::by_name(name, scale)
                    .unwrap_or_else(|| bad_arg("app", name));
                eprintln!("[obs-export: observed {name} inter-processor+sched run …]");
                let label = format!("{name}/inter-scheduled");
                let (rep, artifact) = cachemap_bench::run_cell_observed(
                    &app,
                    &platform,
                    &cachemap_core::MapperConfig::default(),
                    cachemap_core::Version::InterProcessorScheduled,
                    &label,
                );
                match cachemap_bench::write_obs_artifact(&label, &artifact) {
                    Ok(path) => println!(
                        "wrote {} (exec {:.1} ms — inspect with `repro obs {}`)",
                        path.display(),
                        rep.exec_time_ns as f64 / 1e6,
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("could not write obs artifact: {e}");
                        std::process::exit(1);
                    }
                }
            }
            s if s.starts_with("detail:") => {
                let name = &s["detail:".len()..];
                let app = cachemap_workloads::by_name(name, scale)
                    .unwrap_or_else(|| bad_arg("app", name));
                println!("== detail — {name} per-version simulator statistics ==");
                for v in cachemap_core::Version::ALL {
                    let rep = cachemap_bench::run_cell(
                        &app,
                        &platform,
                        &cachemap_core::MapperConfig::default(),
                        v,
                    );
                    let mut finishes = rep.per_client_finish_ns.clone();
                    finishes.sort_unstable();
                    let med = finishes[finishes.len() / 2] as f64 / 1e6;
                    let max = *finishes.last().unwrap() as f64 / 1e6;
                    println!(
                        "{:<22} L1 {:5.1}% ({:>8} acc)  L2 {:5.1}%  L3 {:5.1}%  io {:>8.1}ms  exec med/max {:>8.1}/{:<8.1}ms  disk r/w {:>6}/{:<5} seq {:4.1}%",
                        v.label(),
                        rep.l1_miss_rate() * 100.0,
                        rep.l1.accesses(),
                        rep.l2_miss_rate() * 100.0,
                        rep.l3_miss_rate() * 100.0,
                        rep.io_latency_ms() / platform.num_clients as f64,
                        med,
                        max,
                        rep.disk_reads,
                        rep.disk_writes,
                        rep.disk_sequential_fraction * 100.0,
                    );
                }
            }
            "multinest" => emit(&[experiments::multinest(scale, &platform)], test_scale),
            "mapping-cost" => emit(&[experiments::mapping_cost(scale, &platform)], test_scale),
            s if s.starts_with("analyze:") => {
                // Static quality metrics (Section 3's two rules, measured)
                // for one app: a block split vs the clustered mapping.
                let name = &s["analyze:".len()..];
                let app = cachemap_workloads::by_name(name, scale)
                    .unwrap_or_else(|| bad_arg("app", name));
                let data =
                    cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
                let tree = cachemap_storage::HierarchyTree::from_config(&platform)
                    .expect("valid platform config");
                println!("== analyze — {name}: replication / affinity capture per level ==");
                let (chunks, _) = cachemap_core::tags::tag_nests(
                    &app.program,
                    &(0..app.program.nests.len()).collect::<Vec<_>>(),
                    &data,
                );
                let k = platform.num_clients;
                let total: usize = chunks.iter().map(|c| c.len()).sum();
                let mut block = cachemap_core::cluster::Distribution {
                    per_client: vec![Vec::new(); k],
                };
                let mut acc = 0usize;
                for (ci, c) in chunks.iter().enumerate() {
                    let client = (acc * k / total.max(1)).min(k - 1);
                    block.per_client[client]
                        .push(cachemap_core::cluster::WorkItem::whole(ci, c.len()));
                    acc += c.len();
                }
                let clustered = cachemap_core::cluster::distribute(
                    &chunks,
                    &tree,
                    &cachemap_core::cluster::ClusterParams::default(),
                );
                for (label, dist) in [
                    ("block (approximates original)", &block),
                    ("inter-processor", &clustered),
                ] {
                    let a = cachemap_core::analysis::analyze(dist, &chunks, &tree);
                    println!("{label}: {} chunks used", a.total_chunks_used);
                    for lvl in &a.levels {
                        println!(
                            "  {:<8?} domains {:>3}  mean footprint {:>8.1}  replication {:>5.2}x  affinity captured {:>5.1}%",
                            lvl.level,
                            lvl.domains,
                            lvl.mean_footprint,
                            lvl.replication_factor,
                            lvl.affinity_captured * 100.0
                        );
                    }
                }
            }
            s if s.starts_with("trace:") => {
                // Reuse-distance profiles per version of one app.
                let name = &s["trace:".len()..];
                let app = cachemap_workloads::by_name(name, scale)
                    .unwrap_or_else(|| bad_arg("app", name));
                let data =
                    cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
                let tree = cachemap_storage::HierarchyTree::from_config(&platform)
                    .expect("valid platform config");
                let sim = cachemap_storage::Simulator::new(platform.clone())
                    .expect("valid platform config");
                let mapper = cachemap_core::Mapper::paper_defaults();
                println!("== trace — {name}: reuse-distance profiles ==");
                for v in cachemap_core::Version::ALL {
                    let mapped = mapper.map(&app.program, &data, &platform, &tree, v);
                    let (rep, trace) = sim.run_traced(&mapped).expect("well-formed mapped program");
                    let mut private = cachemap_storage::trace::ReuseProfile::default();
                    for c in 0..platform.num_clients {
                        private.merge(&trace.client_reuse_profile(c));
                    }
                    let served = trace.served_histogram();
                    println!(
                        "{:<22} private: mean dist {:>7.1}, predicted L1 miss {:>5.1}% (sim {:>5.1}%)  served L1/L2/L3/disk = {}/{}/{}/{}",
                        v.label(),
                        private.mean_distance().unwrap_or(f64::NAN),
                        private.miss_rate_at_capacity(platform.client_cache_chunks) * 100.0,
                        rep.l1_miss_rate() * 100.0,
                        served.get(&cachemap_storage::trace::ServedBy::L1).unwrap_or(&0),
                        served.get(&cachemap_storage::trace::ServedBy::L2).unwrap_or(&0),
                        served.get(&cachemap_storage::trace::ServedBy::L3).unwrap_or(&0),
                        served.get(&cachemap_storage::trace::ServedBy::Disk).unwrap_or(&0),
                    );
                }
            }
            s if s.starts_with("clients:") => {
                // Per-client composition of the inter-processor mapping:
                // accesses, unique chunks, simulated finish time.
                let name = &s["clients:".len()..];
                let app = cachemap_workloads::by_name(name, scale)
                    .unwrap_or_else(|| bad_arg("app", name));
                let data =
                    cachemap_polyhedral::DataSpace::new(&app.program.arrays, platform.chunk_bytes);
                let tree = cachemap_storage::HierarchyTree::from_config(&platform)
                    .expect("valid platform config");
                let mapper = cachemap_core::Mapper::paper_defaults();
                let mapped = mapper.map(
                    &app.program,
                    &data,
                    &platform,
                    &tree,
                    cachemap_core::Version::InterProcessor,
                );
                let rep = cachemap_storage::Simulator::new(platform.clone())
                    .expect("valid platform config")
                    .run(&mapped)
                    .expect("well-formed mapped program");
                println!("== clients — {name} inter-processor per-client composition ==");
                let mut rows: Vec<(usize, u64, usize, f64)> = (0..platform.num_clients)
                    .map(|c| {
                        let mut uniq = std::collections::HashSet::new();
                        let mut accs = 0u64;
                        for op in &mapped.per_client[c] {
                            if let cachemap_storage::ClientOp::Access { chunk, .. } = op {
                                uniq.insert(*chunk);
                                accs += 1;
                            }
                        }
                        (
                            c,
                            accs,
                            uniq.len(),
                            rep.per_client_finish_ns[c] as f64 / 1e6,
                        )
                    })
                    .collect();
                rows.sort_by(|a, b| b.3.total_cmp(&a.3));
                for (c, accs, uniq, fin) in rows.iter().take(6) {
                    println!("  client {c:>3}: {accs:>6} accesses, {uniq:>5} unique chunks, finish {fin:>8.1} ms");
                }
                println!("  ...");
                for (c, accs, uniq, fin) in rows.iter().rev().take(3).rev() {
                    println!("  client {c:>3}: {accs:>6} accesses, {uniq:>5} unique chunks, finish {fin:>8.1} ms");
                }
                // Access traces of the slowest and fastest client (first
                // distinct chunk per iteration) to inspect coherence.
                for (c, ..) in [*rows.first().unwrap(), *rows.last().unwrap()] {
                    let chunks: Vec<usize> = mapped.per_client[c]
                        .iter()
                        .filter_map(|op| match op {
                            cachemap_storage::ClientOp::Access { chunk, .. } => Some(*chunk),
                            _ => None,
                        })
                        .collect();
                    let firsts: Vec<usize> = chunks.iter().step_by(5).copied().take(30).collect();
                    println!("  trace client {c}: {firsts:?}");
                }
            }
            // Hidden: the idle-fleet holder `serve-open` spawns so its
            // thousands of parked client fds live in their own process.
            s if s.starts_with("idle-hold:") => {
                let rest = &s["idle-hold:".len()..];
                let (addr, count) = rest
                    .rsplit_once(':')
                    .unwrap_or_else(|| bad_arg("idle-hold spec", rest));
                let count: usize = count
                    .parse()
                    .unwrap_or_else(|_| bad_arg("idle-hold count", count));
                if let Err(e) = cachemap_bench::open_loop::idle_hold(addr, count) {
                    eprintln!("idle-hold: {e}");
                    std::process::exit(1);
                }
            }
            s if s == "serve-open" || s.starts_with("serve-open:") => {
                let mut parts = s.splitn(3, ':').skip(1);
                let mut cfg = cachemap_bench::open_loop::OpenLoopConfig::default();
                if let Some(p) = parts.next() {
                    cfg.offered_rps = p.parse().unwrap_or_else(|_| bad_arg("serve-open rate", p));
                }
                if let Some(p) = parts.next() {
                    cfg.duration_secs = p
                        .parse()
                        .unwrap_or_else(|_| bad_arg("serve-open duration", p));
                }
                if test_scale {
                    cfg = cachemap_bench::open_loop::OpenLoopConfig::smoke(cfg.seed);
                }
                // The parked fleet rides in a child `repro idle-hold`.
                cfg.idle_hold_exe = std::env::current_exe().ok();
                eprintln!(
                    "[serve-open: seed {}, {:.0} req/s offered for {:.0} s, {} conns, \
                     {} idle conns parked …]",
                    cfg.seed, cfg.offered_rps, cfg.duration_secs, cfg.conns, cfg.idle_conns
                );
                let report = cachemap_bench::open_loop::run(&cfg).unwrap_or_else(|e| {
                    eprintln!("serve-open failed: {e}");
                    std::process::exit(1);
                });
                println!("{}", cachemap_bench::open_loop::render(&report));
                match merge_bench_service("open", report.to_json()) {
                    Ok(()) => println!("   [raw numbers: BENCH_service.json, section \"open\"]"),
                    Err(e) => eprintln!("   [warning: could not write BENCH_service.json: {e}]"),
                }
                let scratch = format!("BENCH_service-open-{}", cfg.seed);
                match write_report(&scratch, &report) {
                    Ok(path) => println!("   [scratch copy: {}]", path.display()),
                    Err(e) => eprintln!("   [warning: could not write scratch copy: {e}]"),
                }
                if !report.gates_ok {
                    eprintln!(
                        "serve-open: gates failed: {}",
                        report.gate_failures.join("; ")
                    );
                    std::process::exit(1);
                }
            }
            s if s == "serve" || s.starts_with("serve:") => {
                let addr = s.strip_prefix("serve:").unwrap_or("127.0.0.1:7411");
                let mut cfg = cachemap_service::ServiceConfig::default();
                if let Ok(dir) = std::env::var("CACHEMAP_L2_DIR") {
                    if !dir.is_empty() {
                        cfg.l2_dir = Some(std::path::PathBuf::from(dir));
                    }
                }
                if let Ok(t) = std::env::var("CACHEMAP_TRACING") {
                    cfg.tracing = !matches!(t.as_str(), "" | "0" | "off" | "false");
                }
                if cfg.tracing {
                    println!(
                        "request tracing: on (per-request trace in map responses, \
                         {{\"op\":\"trace\"}} lookups, flight dumps in {})",
                        cfg.flight_dir.display()
                    );
                }
                if let Ok(ttl) = std::env::var("CACHEMAP_L2_TTL_SECS") {
                    cfg.l2_ttl_secs = ttl
                        .parse()
                        .unwrap_or_else(|_| bad_arg("CACHEMAP_L2_TTL_SECS", &ttl));
                }
                if let Some(dir) = &cfg.l2_dir {
                    println!(
                        "durable L2 cache: {} (TTL {} s)",
                        dir.display(),
                        cfg.l2_ttl_secs
                    );
                }
                let service = std::sync::Arc::new(cachemap_service::MapService::start(cfg));
                let server = cachemap_service::aserver::AsyncServer::spawn(
                    addr,
                    std::sync::Arc::clone(&service),
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot bind {addr}: {e}");
                    std::process::exit(2);
                });
                println!(
                    "mapping service listening on {} (epoll event loop, batching dispatch;\n\
                     JSON-lines; GET /metrics for Prometheus;\n\
                     send {{\"op\":\"shutdown\",\"id\":0}} to stop)",
                    server.addr()
                );
                server.join();
                service.shutdown();
            }
            s if s == "advisor" || s.starts_with("advisor:") => {
                let seed: u64 = s.strip_prefix("advisor").map_or(42, |rest| {
                    let rest = rest.strip_prefix(':').unwrap_or("");
                    if rest.is_empty() {
                        42
                    } else {
                        rest.parse()
                            .unwrap_or_else(|_| bad_arg("advisor seed", rest))
                    }
                });
                eprintln!(
                    "[advisor: seed {seed}, {} workloads × 3 levels × {} policies …]",
                    cachemap_bench::advisor::advisor_workloads(scale).len(),
                    cachemap_storage::PolicyKind::ALL.len(),
                );
                let report = cachemap_bench::advisor::run_advisor(scale, &platform, seed);
                println!("{}", cachemap_bench::advisor::render(&report));
                match std::fs::write("BENCH_policies.json", report.to_json().to_string_pretty()) {
                    Ok(()) => println!("   [raw numbers: BENCH_policies.json]"),
                    Err(e) => eprintln!("   [warning: could not write BENCH_policies.json: {e}]"),
                }
                let scratch = format!("BENCH_policies-{seed}");
                match write_report(&scratch, &report) {
                    Ok(path) => println!("   [scratch copy: {}]", path.display()),
                    Err(e) => eprintln!("   [warning: could not write scratch copy: {e}]"),
                }
            }
            s if s == "serve-storm" || s.starts_with("serve-storm:") => {
                let seed: u64 = s.strip_prefix("serve-storm").map_or(42, |rest| {
                    let rest = rest.strip_prefix(':').unwrap_or("");
                    if rest.is_empty() {
                        42
                    } else {
                        rest.parse()
                            .unwrap_or_else(|_| bad_arg("serve-storm seed", rest))
                    }
                });
                let mut cfg = if test_scale {
                    cachemap_bench::storm::StormConfig::smoke(seed)
                } else {
                    cachemap_bench::storm::StormConfig {
                        seed,
                        ..cachemap_bench::storm::StormConfig::default()
                    }
                };
                // Run in a fresh directory that outlives the campaign,
                // so its L2 segments and flight dumps stay inspectable
                // (`repro trace <dir>/flight/flight-drain-*.json`).
                let dir = std::path::PathBuf::from(format!("l2-cache/storm-{seed}"));
                let _ = std::fs::remove_dir_all(&dir);
                cfg.l2_dir = Some(dir.clone());
                eprintln!(
                    "[serve-storm: seed {seed}, {} barrage connections, {} zipf requests, \
                     kill + torn-tail restart + drain in {} …]",
                    cfg.storm_connections,
                    cfg.zipf_requests,
                    dir.display()
                );
                let report = cachemap_bench::storm::run(&cfg).unwrap_or_else(|e| {
                    eprintln!("serve-storm failed: {e}");
                    std::process::exit(1);
                });
                println!("{}", cachemap_bench::storm::render(&report));
                match merge_bench_service("storm", report.to_json()) {
                    Ok(()) => println!("   [raw numbers: BENCH_service.json, section \"storm\"]"),
                    Err(e) => eprintln!("   [warning: could not write BENCH_service.json: {e}]"),
                }
                let scratch = format!("BENCH_service-storm-{seed}");
                match write_report(&scratch, &report) {
                    Ok(path) => println!("   [scratch copy: {}]", path.display()),
                    Err(e) => eprintln!("   [warning: could not write scratch copy: {e}]"),
                }
            }
            other => {
                eprintln!("unknown experiment: {other}\n\n{}", usage());
                std::process::exit(2);
            }
        }
    }
}
