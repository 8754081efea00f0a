//! Experiment harness for the HPDC'10 reproduction.
//!
//! This crate contains the shared machinery behind the `repro` binary:
//! one subcommand per table/figure of the paper's Section 5, plus the
//! service, policy-advisor and chaos campaigns. The central entry point
//! is [`run_cell`]: map one application with one version on one
//! platform, simulate it, and return the [`SimReport`]. Everything above
//! that is sweep + formatting logic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::{HierarchyTree, PlatformConfig, SimReport, Simulator};
use cachemap_workloads::{Application, Scale};

pub mod advisor;
pub mod chaos;
pub mod experiments;
pub mod obs;
pub mod open_loop;
pub mod report;
pub mod serve;
pub mod storm;
pub mod tracefmt;

pub use obs::{render_artifact, run_cell_observed, write_obs_artifact};

/// Runs one (application, version, platform) cell end to end.
pub fn run_cell(
    app: &Application,
    platform: &PlatformConfig,
    mapper_cfg: &MapperConfig,
    version: Version,
) -> SimReport {
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let mapper = Mapper::new(*mapper_cfg);
    let mapped = mapper.map(&app.program, &data, platform, &tree, version);
    Simulator::new(platform.clone())
        .expect("valid platform config")
        .run(&mapped)
        .expect("well-formed mapped program")
}

/// The reports of all requested versions for one application.
#[derive(Debug, Clone)]
pub struct AppResults {
    /// Application name.
    pub app: String,
    /// `(version label, report)` in request order.
    pub versions: Vec<(String, SimReport)>,
}

impl AppResults {
    /// The report for a version label.
    pub fn get(&self, label: &str) -> &SimReport {
        &self
            .versions
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no version {label}"))
            .1
    }
}

/// Runs the given versions for every app of the suite on one platform,
/// fanning the independent (app, version) cells out over worker threads.
pub fn run_suite(
    scale: Scale,
    platform: &PlatformConfig,
    mapper_cfg: &MapperConfig,
    versions: &[Version],
) -> Vec<AppResults> {
    let apps = cachemap_workloads::suite(scale);
    let mut cells: Vec<(usize, Version)> = Vec::new();
    for ai in 0..apps.len() {
        for &v in versions {
            cells.push((ai, v));
        }
    }

    // One pool task per (app, version) cell; `CACHEMAP_THREADS`
    // overrides the machine's available parallelism. Results come back
    // in cell order, so the per-app tables below are deterministic.
    let results: Vec<(usize, Version, SimReport)> = cachemap_par::Pool::from_env()
        .map(&cells, |_, &(ai, v)| {
            (ai, v, run_cell(&apps[ai], platform, mapper_cfg, v))
        });

    let mut per_app: Vec<AppResults> = apps
        .iter()
        .map(|a| AppResults {
            app: a.name.to_string(),
            versions: Vec::new(),
        })
        .collect();
    // Preserve the requested version order per app.
    for &v in versions {
        for r in &results {
            if r.1 == v {
                per_app[r.0]
                    .versions
                    .push((v.label().to_string(), r.2.clone()));
            }
        }
    }
    per_app
}

/// Writes a serializable result as pretty JSON to `reports/<name>.json`;
/// a `/` in `name` writes into a subdirectory.
pub fn write_report<T: cachemap_util::ToJson>(
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new("reports").join(format!("{name}.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, value.to_json().to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_consistent_reports() {
        let app = cachemap_workloads::by_name("contour", Scale::Test).unwrap();
        let platform = PlatformConfig::paper_default().with_cache_chunks(8, 8, 8);
        let cfg = MapperConfig::default();
        let a = run_cell(&app, &platform, &cfg, Version::Original);
        let b = run_cell(&app, &platform, &cfg, Version::Original);
        assert_eq!(a.io_latency_ns, b.io_latency_ns, "must be deterministic");
        assert!(a.l1.accesses() > 0);
    }

    #[test]
    fn run_suite_returns_all_apps_and_versions() {
        let platform = PlatformConfig::paper_default().with_cache_chunks(8, 8, 8);
        let cfg = MapperConfig::default();
        let res = run_suite(
            Scale::Test,
            &platform,
            &cfg,
            &[Version::Original, Version::InterProcessor],
        );
        assert_eq!(res.len(), 8);
        for r in &res {
            assert_eq!(r.versions.len(), 2);
            assert_eq!(r.versions[0].0, "original");
            let orig = r.get("original");
            let inter = r.get("inter-processor");
            assert_eq!(
                orig.l1.accesses(),
                inter.l1.accesses(),
                "{}: same access totals across versions",
                r.app
            );
        }
    }
}
