//! One run's result: the metrics, the sizes that decide behaviour, the
//! correctness checks, and the output lines.
//!
//! The metric names and units come from `BENCHMARK.json`, so the file
//! and the program cannot drift apart: a workload that forgets an
//! end-to-end metric, or reports one in another unit, fails its run.

use crate::Args;
use cachemap_util::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where results, span dumps and scratch files go, relative to the
/// repository root.
pub const RESULTS_DIR: &str = "perfbench/results";

/// A measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How many samples stand behind it.
    pub samples: u64,
}

/// `(name, unit)` lists read from `BENCHMARK.json`.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e} (run from the repository root)", path.display()))?;
        let json =
            cachemap_util::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no '{key}' list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                    match (field("name"), field("unit")) {
                        (Some(n), Some(u)) => Ok((n, u)),
                        _ => Err(format!(
                            "BENCHMARK.json: a '{key}' entry lacks name or unit"
                        )),
                    }
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// The state of one benchmark run.
pub struct Run {
    /// The command line.
    pub args: Args,
    cpu_at_start: Option<(u64, u64)>,
    spec: Spec,
    metrics: BTreeMap<String, Metric>,
    info: Vec<(String, Json)>,
    failures: Vec<String>,
    /// Operations the workload attempted (requests, mappings, runs).
    pub attempted: u64,
    /// Of those, the ones that failed or went unanswered.
    pub failed: u64,
}

impl Run {
    /// Starts a run.
    pub fn new(args: Args) -> Result<Run, String> {
        let spec = Spec::load(Path::new("BENCHMARK.json"))?;
        let mut run = Run {
            args,
            cpu_at_start: host_cpu_ticks(),
            spec,
            metrics: BTreeMap::new(),
            info: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        run.info("workload", Json::Str(run.args.workload.clone()));
        run.info("seed", Json::UInt(run.args.seed));
        run.info("seconds", Json::Float(run.args.seconds));
        run.info("trace", Json::Bool(run.args.trace));
        run.info(
            "available_parallelism",
            Json::UInt(available_parallelism() as u64),
        );
        run.info("commit", Json::Str(commit()));
        run.info("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string()));
        Ok(run)
    }

    /// Records a metric (end-to-end, per-layer, or reported by name only).
    pub fn set(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples,
            },
        );
    }

    /// Records `setup_s` from the CPU seconds of repeated set-ups (see
    /// `clock::Setups`): the fastest one. Every repetition is kept in the
    /// record.
    pub fn set_setup(&mut self, setups: &[f64]) {
        let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
        self.set("setup_s", fastest, "s", setups.len() as u64);
        self.info(
            "setup_s_each",
            Json::Array(setups.iter().map(|&s| Json::Float(s)).collect()),
        );
    }

    /// Records a size or setting that decides behaviour.
    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.failures.push(what);
    }

    /// Creates (if needed) and returns the results directory.
    pub fn results_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(RESULTS_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Prints every metric, writes the result record, prints the final
    /// JSON line, and returns the exit code.
    pub fn finish(mut self) -> i32 {
        if !self.metrics.contains_key("peak_rss_mb") {
            self.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        }
        if let (Some((steal0, total0)), Some((steal1, total1))) =
            (self.cpu_at_start, host_cpu_ticks())
        {
            // Time the hypervisor ran someone else while this guest wanted
            // the CPU: the share of the run the host took away.
            let frac = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
            self.info("host_steal_frac", Json::Float(frac));
        }
        let wanted = if self.args.trace {
            self.spec.per_layer.clone()
        } else {
            self.spec.end_to_end.clone()
        };
        let mut reported = Vec::new();
        for (name, unit) in &wanted {
            match self.metrics.get(name) {
                Some(m) if &m.unit == unit => reported.push((name.clone(), m.value, unit.clone())),
                Some(m) => {
                    let msg = format!(
                        "metric {name} measured in {}, BENCHMARK.json says {unit}",
                        m.unit
                    );
                    self.fail(msg);
                }
                // A layer this workload never calls did no work.
                None if self.args.trace => reported.push((name.clone(), 0.0, unit.clone())),
                None => self.fail(format!("end-to-end metric {name} was not measured")),
            }
        }
        let correct = self.failures.is_empty();

        for (key, value) in &self.info {
            println!("info   {key:<44} {}", value.to_string_compact());
        }
        for (name, m) in &self.metrics {
            println!(
                "metric {name:<44} {:>18} {:<6} n={}",
                fmt_value(m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "checks {} (attempted {}, failed {})",
            if correct { "passed" } else { "FAILED" },
            self.attempted,
            self.failed
        );

        let record = Json::object(vec![
            ("info", Json::Object(self.info.clone())),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(n, m)| {
                            (
                                n.clone(),
                                Json::object(vec![
                                    ("value", Json::Float(m.value)),
                                    ("unit", Json::Str(m.unit.clone())),
                                    ("samples", Json::UInt(m.samples)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Array(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
        ]);
        let name = format!(
            "{}-seed{}-trace{}.json",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        );
        if let Err(e) = self
            .results_dir()
            .and_then(|d| write_file(&d.join(name), &record.to_string_pretty()))
        {
            eprintln!("perfbench: {e}");
        }

        let line = Json::object(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Object(
                    reported
                        .into_iter()
                        .map(|(n, v, u)| {
                            (
                                n,
                                Json::object(vec![
                                    ("value", Json::Float(v)),
                                    ("unit", Json::Str(u)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", line.to_string_compact());
        i32::from(!correct)
    }
}

/// Writes `text` to `path`.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Worker threads the machine offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The checked-out commit, read from `.git` in the working directory
/// (a source checkout without git metadata reports `unknown`).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
