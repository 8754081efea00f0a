//! The eight I/O-intensive application models of the HPDC'10 evaluation.
//!
//! The paper's suite (Table 2) consists of production codes manipulating
//! 190-423 GB disk-resident datasets. Those codes and datasets are not
//! available, so each application is modelled as a parameterized set of
//! affine loop nests whose *chunk-level access structure* matches what
//! the paper (and the applications' public descriptions) document:
//!
//! | name | structure modelled |
//! |---|---|
//! | `hf` | Hartree-Fock: block-pair sweeps over a large integral file with quadratic reuse of Fock/density blocks |
//! | `sar` | SAR kernel: a row-major range pass followed by a column-major azimuth pass over the image |
//! | `contour` | contour displaying: one streaming neighbour-stencil scan of a huge grid |
//! | `astro` | astronomy analysis: time-series volumes streamed once with tiny shared statistics |
//! | `e_elem` | FEM electromagnetics: element sweeps gathering from a banded node neighbourhood |
//! | `apsi` | pollutant modelling: repeated 2-D plane stencil sweeps (multiple nests, inter-sweep reuse) |
//! | `madbench2` | CMB analysis: out-of-core blocked matrix-matrix products |
//! | `wupwise` | lattice QCD: 4-D (collapsed) stencil with short and long stride couplings |
//!
//! Dataset sizes are scaled down ~3 orders of magnitude with the
//! cache:data ratios preserved (see `cachemap-storage`'s
//! `PlatformConfig::paper_default`). Suite subscripts are affine; array
//! strides are expressed in units of [`CHUNK_ELEMS`] so one subscript
//! step moves one 64 KB data chunk at the paper's default chunk size.
//! [`extras`] holds extension workloads beyond Table 2 (periodic
//! boundaries via quasi-affine subscripts, write-heavy checkpointing).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cachemap_polyhedral::Program;

pub mod apps;
pub mod extras;
pub mod scenarios;

/// Elements of an 8-byte-element array per 64 KB data chunk. Workload
/// subscripts stride in multiples of this, so at the default chunk size
/// each logical "block" is exactly one chunk (at 16 KB it spans four
/// chunks, at 128 KB two blocks share one — exactly the granularity
/// effect Figure 14 studies).
pub const CHUNK_ELEMS: i64 = 8192;

/// Workload scale knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (seconds in debug).
    Test,
    /// The evaluation scale used by the experiment harness.
    Paper,
}

impl Scale {
    /// Divides a paper-scale dimension down for the test scale.
    pub(crate) fn dim(&self, paper: i64) -> i64 {
        match self {
            Scale::Paper => paper,
            Scale::Test => (paper / 4).max(2),
        }
    }

    /// Scales an inner repetition count.
    pub(crate) fn reps(&self, paper: i64) -> i64 {
        match self {
            Scale::Paper => paper,
            Scale::Test => (paper / 2).max(1),
        }
    }
}

/// An application model plus its paper-reported reference numbers.
#[derive(Debug, Clone)]
pub struct Application {
    /// Suite name (matches Table 2).
    pub name: &'static str,
    /// One-line description (matches Table 2's "Brief Description").
    pub description: &'static str,
    /// The loop nests and arrays.
    pub program: Program,
    /// Miss rates of the *original* version reported in Table 2
    /// (L1, L2, L3) as fractions — the calibration reference.
    pub paper_miss_rates: (f64, f64, f64),
}

/// Builds the full eight-application suite at a scale.
pub fn suite(scale: Scale) -> Vec<Application> {
    vec![
        apps::hf(scale),
        apps::sar(scale),
        apps::contour(scale),
        apps::astro(scale),
        apps::e_elem(scale),
        apps::apsi(scale),
        apps::madbench2(scale),
        apps::wupwise(scale),
    ]
}

/// Builds one application by its Table 2 name.
pub fn by_name(name: &str, scale: Scale) -> Option<Application> {
    match name {
        "hf" => Some(apps::hf(scale)),
        "sar" => Some(apps::sar(scale)),
        "contour" => Some(apps::contour(scale)),
        "astro" => Some(apps::astro(scale)),
        "e_elem" => Some(apps::e_elem(scale)),
        "apsi" => Some(apps::apsi(scale)),
        "madbench2" => Some(apps::madbench2(scale)),
        "wupwise" => Some(apps::wupwise(scale)),
        _ => None,
    }
}

/// Builds the adversarial policy-zoo scenarios (see [`mod@scenarios`]).
pub fn scenarios(scale: Scale) -> Vec<Application> {
    vec![
        scenarios::scan_storm(scale),
        scenarios::graph_bfs(scale),
        scenarios::graph_dfs(scale),
    ]
}

/// Builds one adversarial scenario by name.
pub fn scenario_by_name(name: &str, scale: Scale) -> Option<Application> {
    match name {
        "scan_storm" => Some(scenarios::scan_storm(scale)),
        "graph_bfs" => Some(scenarios::graph_bfs(scale)),
        "graph_dfs" => Some(scenarios::graph_dfs(scale)),
        _ => None,
    }
}

/// The adversarial scenario names, in [`scenarios()`] order.
pub const SCENARIO_NAMES: [&str; 3] = ["scan_storm", "graph_bfs", "graph_dfs"];

/// The suite names in Table 2 order.
pub const NAMES: [&str; 8] = [
    "hf",
    "sar",
    "contour",
    "astro",
    "e_elem",
    "apsi",
    "madbench2",
    "wupwise",
];

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_polyhedral::DataSpace;

    #[test]
    fn suite_has_eight_apps_in_table2_order() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 8);
        for (app, name) in s.iter().zip(NAMES) {
            assert_eq!(app.name, name);
        }
    }

    #[test]
    fn scenario_registry_roundtrip() {
        let s = scenarios(Scale::Test);
        assert_eq!(s.len(), SCENARIO_NAMES.len());
        for (app, name) in s.iter().zip(SCENARIO_NAMES) {
            assert_eq!(app.name, name);
            let again = scenario_by_name(name, Scale::Test).expect(name);
            assert_eq!(again.name, name);
        }
        // Scenario names never collide with the Table 2 suite.
        for name in SCENARIO_NAMES {
            assert!(by_name(name, Scale::Test).is_none());
            assert!(!NAMES.contains(&name));
        }
        assert!(scenario_by_name("hf", Scale::Test).is_none());
    }

    #[test]
    fn by_name_roundtrip() {
        for name in NAMES {
            let app = by_name(name, Scale::Test).expect(name);
            assert_eq!(app.name, name);
        }
        assert!(by_name("nonesuch", Scale::Test).is_none());
    }

    #[test]
    fn every_reference_stays_in_bounds_at_both_scales() {
        for scale in [Scale::Test, Scale::Paper] {
            for app in suite(scale) {
                for nest in &app.program.nests {
                    nest.validate_bounds(&app.program.arrays)
                        .unwrap_or_else(|e| panic!("{} ({scale:?}): {e}", app.name));
                }
            }
        }
    }

    #[test]
    fn paper_scale_datasets_are_in_the_calibrated_range() {
        // 2-6 Ki chunks at 64 KB keeps the cache:data ratio near the
        // paper's; see PlatformConfig::paper_default.
        for app in suite(Scale::Paper) {
            let data = DataSpace::new(&app.program.arrays, 64 * 1024);
            let chunks = data.num_chunks();
            assert!(
                (900..8000).contains(&chunks),
                "{}: {chunks} chunks out of calibrated range",
                app.name
            );
        }
    }

    #[test]
    fn paper_scale_iteration_counts_are_tractable() {
        for app in suite(Scale::Paper) {
            let iters = app.program.total_iterations();
            assert!(
                (1_000..200_000).contains(&iters),
                "{}: {iters} iterations",
                app.name
            );
        }
    }

    #[test]
    fn paper_miss_rates_match_table2() {
        let s = suite(Scale::Test);
        let expect = [
            (0.213, 0.404, 0.479),
            (0.160, 0.233, 0.444),
            (0.153, 0.393, 0.671),
            (0.284, 0.544, 0.764),
            (0.083, 0.336, 0.499),
            (0.177, 0.254, 0.360),
            (0.206, 0.347, 0.565),
            (0.208, 0.363, 0.528),
        ];
        for (app, e) in s.iter().zip(expect) {
            assert_eq!(app.paper_miss_rates, e, "{}", app.name);
        }
    }
}
