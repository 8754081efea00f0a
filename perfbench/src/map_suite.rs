//! `map-suite`: the paper's compile-time cost.
//!
//! Set-up builds the eight Table 2 applications at paper scale (seeded
//! variants), their data spaces and their `original` mappings on the
//! 64/32/16 platform. The timed part maps every app with
//! `inter-processor+sched` on a `par::Pool` with one worker per core,
//! pass after pass, then simulates each mapping against `original`.
//!
//! The traced run composes the mapper from outside —
//! `tags::tag_nests` → `cluster::distribute_pooled` → `schedule::schedule`
//! → `codegen::lower_distribution` — with a span around each call, and
//! checks the result byte for byte against `Mapper::map`.

use crate::clock::{process_cpu_s, Setups};
use crate::record::{available_parallelism, peak_rss_mb, Run};
use crate::sim_sweep::cache_counts;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::variant::variant;
use cachemap_core::{cluster, codegen, schedule, tags, Mapper, MapperConfig, Version};
use cachemap_obs::Profile;
use cachemap_par::Pool;
use cachemap_polyhedral::{DataSpace, Program};
use cachemap_storage::{ClientOp, HierarchyTree, MappedProgram, PlatformConfig, Simulator};
use cachemap_util::{Json, ToJson};
use cachemap_workloads::{suite, Scale};
use std::time::Instant;

/// One application, ready to map.
struct App {
    name: &'static str,
    program: Program,
    data: DataSpace,
    original: MappedProgram,
}

impl App {
    /// Iteration chunks the mapper distributes (bookkeeping, not set-up).
    fn chunks(&self) -> usize {
        (0..self.program.nests.len())
            .map(|ni| tags::tag_nests(&self.program, &[ni], &self.data).0.len())
            .sum()
    }
}

fn build_apps(
    seed: u64,
    platform: &PlatformConfig,
    tree: &HierarchyTree,
    tr: &mut Tracer,
) -> Vec<App> {
    suite(Scale::Paper)
        .into_iter()
        .map(|app| {
            let program = variant(&app.program, seed, tr);
            let data = tr.span("polyhedral.data_space", 0, |_| {
                DataSpace::new(&program.arrays, platform.chunk_bytes)
            });
            let original =
                Mapper::paper_defaults().map(&program, &data, platform, tree, Version::Original);
            App {
                name: app.name,
                program,
                data,
                original,
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let platform = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&platform).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(run.args.trace);
    let mut setups = Setups::new(run.args.trace);
    let mut apps = Vec::new();
    while setups.again() {
        drop(std::mem::take(&mut apps));
        apps = setups.time(|| build_apps(run.args.seed, &platform, &tree, &mut tr));
    }
    run.set_setup(setups.samples());
    let threads = available_parallelism();
    run.info("pool_threads", Json::UInt(threads as u64));
    let chunks: Vec<usize> = apps.iter().map(App::chunks).collect();
    run.info(
        "chunks",
        Json::Object(
            apps.iter()
                .zip(&chunks)
                .map(|(a, &c)| (a.name.to_string(), Json::UInt(c as u64)))
                .collect(),
        ),
    );
    let total_chunks: usize = chunks.iter().sum();
    let pool = Pool::new(threads);

    let mapped = if run.args.trace {
        traced(run, &mut tr, &apps, &platform, &tree, pool)?
    } else {
        timed(run, &apps, &platform, &tree, pool, total_chunks)
    };

    // Simulate both versions; the mapping must issue exactly the
    // accesses of the original, only on other clients and in another order.
    let sim = Simulator::new(platform.clone()).map_err(|e| e.to_string())?;
    let (mut exec, mut io) = (Vec::new(), Vec::new());
    let mut inter_reports = Vec::new();
    for (a, mp) in apps.iter().zip(&mapped) {
        run.check(access_multiset(mp) == access_multiset(&a.original), || {
            format!(
                "{}: inter-processor+sched does not issue the accesses of original",
                a.name
            )
        });
        let simulate = |tr: &mut Tracer, mp: &MappedProgram| {
            tr.span("storage.engine", 0, |_| sim.run(mp))
                .map_err(|e| format!("{}: {e}", a.name))
        };
        let ro = simulate(&mut tr, &a.original)?;
        let ri = simulate(&mut tr, mp)?;
        exec.push(ratio(ri.exec_time_ns as f64, ro.exec_time_ns as f64));
        io.push(ratio(ri.io_latency_ns as f64, ro.io_latency_ns as f64));
        inter_reports.push(ri);
    }
    run.info(
        "exec_ratio_per_app",
        Json::Object(
            apps.iter()
                .zip(&exec)
                .map(|(a, &r)| (a.name.to_string(), Json::Float(r)))
                .collect(),
        ),
    );
    run.set("exec_ratio", mean(&exec), "ratio", exec.len() as u64);
    run.set("io_ratio", mean(&io), "ratio", io.len() as u64);
    if run.args.trace {
        run.set(
            "storage.engine.ms",
            tr.total_ms("storage.engine"),
            "ms",
            2 * apps.len() as u64,
        );
        cache_counts(run, &inter_reports);
        tr.report(run)?;
    }
    Ok(())
}

/// Passes per end-to-end run, at least.
const MIN_PASSES: usize = 2;

/// The end-to-end run: suite passes on the pool until the time is up.
/// A pass's latency is the CPU time it costs (all pool workers), which
/// other tenants of the host cannot inflate. Throughput is wall-clock,
/// chunks per second of the median pass, so it also shows how well the
/// pool spreads the work; `map_s` sums each app's fastest wall time.
fn timed(
    run: &mut Run,
    apps: &[App],
    platform: &PlatformConfig,
    tree: &HierarchyTree,
    pool: Pool,
    total_chunks: usize,
) -> Vec<MappedProgram> {
    let mapper = Mapper::paper_defaults().with_pool(pool);
    let measure = Instant::now();
    let (mut pass_cpu, mut pass_wall) = (Vec::new(), Vec::new());
    let mut rss_by_pass = Vec::new();
    let mut best = vec![f64::INFINITY; apps.len()];
    let mut first: Option<Vec<MappedProgram>> = None;
    loop {
        let pass = Instant::now();
        let cpu = process_cpu_s();
        let mut maps = Vec::with_capacity(apps.len());
        for (a, b) in apps.iter().zip(best.iter_mut()) {
            let t = Instant::now();
            maps.push(mapper.map(
                &a.program,
                &a.data,
                platform,
                tree,
                Version::InterProcessorScheduled,
            ));
            *b = b.min(t.elapsed().as_secs_f64());
        }
        pass_cpu.push(process_cpu_s() - cpu);
        let secs = pass.elapsed().as_secs_f64();
        pass_wall.push(secs);
        run.attempted += apps.len() as u64;
        match &first {
            None => first = Some(maps),
            Some(f) => run.check(*f == maps, || "mappings differ between passes".into()),
        }
        // The job maps the suite once. The peak keeps growing with each
        // identical pass after that (15-25 MB a pass on a two-core host),
        // and how many passes fit depends on the host's speed, so the
        // gated figure is the first pass's.
        rss_by_pass.push(peak_rss_mb());
        if rss_by_pass.len() == 1 {
            run.set("peak_rss_mb", rss_by_pass[0], "MB", 1);
        }
        // Stop when another pass would end past the budget by more than half a pass.
        if pass_cpu.len() >= MIN_PASSES
            && measure.elapsed().as_secs_f64() + secs / 2.0 >= run.args.seconds
        {
            break;
        }
    }
    run.info(
        "peak_rss_mb_by_pass",
        Json::Array(rss_by_pass.into_iter().map(Json::Float).collect()),
    );
    // The job's latency is one pass: mapping the whole suite.
    let n = pass_cpu.len() as u64;
    run.set("map_s", best.iter().sum(), "s", n);
    run.set("p50_ms", median(&pass_cpu) * 1e3, "ms", n);
    run.set("p99_ms", quantile(&pass_cpu, 0.99) * 1e3, "ms", n);
    run.set(
        "throughput",
        total_chunks as f64 / median(&pass_wall),
        "1/s",
        n,
    );
    first.unwrap_or_default()
}

/// Counters the mapper's own `Profile` records, summed over every span.
#[derive(Default)]
struct ProfileCounts {
    similarity_ns: u64,
    pairs: u64,
    nonzero: u64,
    merges: u64,
    balance_moves: u64,
}

impl ProfileCounts {
    fn absorb(&mut self, prof: &Profile) {
        let mut stack: Vec<usize> = prof.roots().to_vec();
        while let Some(i) = stack.pop() {
            let node = prof.node(i);
            if node.name == "similarity-graph" {
                self.similarity_ns += node.wall_ns;
            }
            let c = |k: &str| node.count(k).unwrap_or(0);
            self.pairs += c("pairs");
            self.nonzero += c("nonzero");
            self.merges += c("merges");
            self.balance_moves += c("balance_moves");
            stack.extend(&node.children);
        }
    }
}

/// The traced run: the composed pipeline with spans, checked against
/// `Mapper::map` on the pool and on one worker.
fn traced(
    run: &mut Run,
    tr: &mut Tracer,
    apps: &[App],
    platform: &PlatformConfig,
    tree: &HierarchyTree,
    pool: Pool,
) -> Result<Vec<MappedProgram>, String> {
    let cfg = MapperConfig::default();
    let mut counts = ProfileCounts::default();
    let mut chunk_total = 0u64;
    let mut nonzero_frac = Vec::new();

    let t = Instant::now();
    let mut composed = Vec::new();
    for a in apps {
        let before = (counts.pairs, counts.nonzero);
        let mp = tr.span(&format!("core.map.{}", a.name), 0, |tr| {
            let mut mp = MappedProgram::new(tree.num_clients());
            for ni in 0..a.program.nests.len() {
                let (chunks, _) = tr.span("core.tags", 0, |_| {
                    tags::tag_nests(&a.program, &[ni], &a.data)
                });
                chunk_total += chunks.len() as u64;
                let mut prof = Profile::enabled();
                let dist = tr.span("core.cluster", 0, |_| {
                    cluster::distribute_pooled(&chunks, tree, &cfg.cluster, &pool, &mut prof)
                });
                counts.absorb(&prof);
                let dist = tr.span("core.schedule", 0, |_| {
                    schedule::schedule(&dist, &chunks, tree, &cfg.schedule)
                });
                let part = tr.span("core.codegen", 0, |_| {
                    codegen::lower_distribution(&dist, &chunks, &a.program, &a.data)
                });
                codegen::append_program(&mut mp, part);
            }
            mp
        });
        nonzero_frac.push((
            a.name.to_string(),
            Json::Float(ratio(
                (counts.nonzero - before.1) as f64,
                (counts.pairs - before.0) as f64,
            )),
        ));
        composed.push(mp);
    }
    let traced_s = t.elapsed().as_secs_f64();

    let map_all = |mapper: &Mapper| -> (Vec<MappedProgram>, f64) {
        let t = Instant::now();
        let maps = apps
            .iter()
            .map(|a| {
                mapper.map(
                    &a.program,
                    &a.data,
                    platform,
                    tree,
                    Version::InterProcessorScheduled,
                )
            })
            .collect();
        (maps, t.elapsed().as_secs_f64())
    };
    let (pooled, pooled_s) = map_all(&Mapper::paper_defaults().with_pool(pool));
    let (sequential, sequential_s) = map_all(&Mapper::paper_defaults());
    run.attempted += 3 * apps.len() as u64;
    for ((a, c), (p, s)) in apps
        .iter()
        .zip(&composed)
        .zip(pooled.iter().zip(&sequential))
    {
        let oracle = p.to_json().to_string_compact();
        run.check(c.to_json().to_string_compact() == oracle, || {
            format!("{}: composed pipeline differs from Mapper::map", a.name)
        });
        run.check(s.to_json().to_string_compact() == oracle, || {
            format!("{}: one-worker mapping differs from the pooled one", a.name)
        });
    }

    run.info("nonzero_frac", Json::Object(nonzero_frac));
    run.set(
        "core.tags.ms",
        tr.total_ms("core.tags"),
        "ms",
        tr.durations_ms("core.tags").len() as u64,
    );
    run.set("core.tags.chunks", chunk_total as f64, "count", 1);
    for (name, metric) in [
        ("core.cluster", "core.cluster.ms"),
        ("core.schedule", "core.schedule.ms"),
        ("core.codegen", "core.codegen.ms"),
    ] {
        run.set(
            metric,
            tr.total_ms(name),
            "ms",
            tr.durations_ms(name).len() as u64,
        );
    }
    run.set(
        "core.cluster.similarity_ms",
        counts.similarity_ns as f64 / 1e6,
        "ms",
        1,
    );
    run.set("core.cluster.pairs", counts.pairs as f64, "count", 1);
    run.set(
        "core.cluster.nonzero_frac",
        ratio(counts.nonzero as f64, counts.pairs as f64),
        "ratio",
        counts.pairs,
    );
    run.set("core.cluster.merges", counts.merges as f64, "count", 1);
    run.set(
        "core.cluster.balance_moves",
        counts.balance_moves as f64,
        "count",
        1,
    );
    for a in apps {
        let name = format!("core.map.{}", a.name);
        run.set(&format!("{name}.ms"), tr.total_ms(&name), "ms", 1);
    }
    run.set("par.speedup", sequential_s / pooled_s, "ratio", 1);
    run.set("bench.trace_overhead", traced_s / pooled_s, "ratio", 1);
    Ok(composed)
}

/// Sorted `(chunk, write)` list of every access a mapping issues.
fn access_multiset(mp: &MappedProgram) -> Vec<(usize, bool)> {
    let mut v: Vec<(usize, bool)> = mp
        .per_client
        .iter()
        .flatten()
        .filter_map(|op| match op {
            ClientOp::Access { chunk, write } => Some((*chunk, *write)),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v
}
