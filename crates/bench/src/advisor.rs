//! The policy advisor: per-(workload, level) eviction-policy sweeps.
//!
//! For every advisor workload (the three adversarial scenarios plus two
//! contrasting Table 2 apps) and every cache level, the advisor runs the
//! full [`PolicyKind::ALL`] sweep *at that level only* — the other two
//! levels stay at the paper's LRU — and picks a winner per cell:
//! highest hit rate at the swept level, ties broken by lower makespan,
//! then by canonical policy order (so exact ties go to LRU).
//!
//! Within one cell the access stream reaching the swept level is
//! identical for every candidate (upstream levels are fixed at LRU), so
//! hit rates are directly comparable. The result is a crossover table —
//! which (workload, level) cells actually want a non-LRU policy — that
//! `repro advisor[:<seed>]` renders and archives as
//! `BENCH_policies.json`. Everything downstream of the seed is a
//! deterministic simulation, so same seed → byte-identical report.

use crate::run_cell;
use cachemap_core::{MapperConfig, Version};
use cachemap_storage::{PlatformConfig, PolicyKind, SimReport};
use cachemap_util::table::TextTable;
use cachemap_util::{Json, ToJson};
use cachemap_workloads::{Application, Scale};

/// Cache-level labels, in `PlatformConfig::policies` index order.
pub const LEVELS: [&str; 3] = ["L1", "L2", "L3"];

/// Advisor report schema version (checked by `validate_report`).
pub const SCHEMA_VERSION: u64 = 1;

/// One simulated (policy) outcome inside a cell.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The candidate policy at the swept level.
    pub policy: PolicyKind,
    /// Hits at the swept level.
    pub hits: u64,
    /// Misses at the swept level.
    pub misses: u64,
    /// Simulated makespan of the whole run.
    pub exec_time_ns: u64,
}

impl PolicyOutcome {
    /// Hit rate at the swept level in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One (workload, level) cell: all policy outcomes plus the verdict.
#[derive(Debug, Clone)]
pub struct AdvisorCell {
    /// Workload name.
    pub workload: String,
    /// Swept level label (`"L1"`, `"L2"`, `"L3"`).
    pub level: &'static str,
    /// Outcomes in [`PolicyKind::ALL`] order.
    pub outcomes: Vec<PolicyOutcome>,
    /// The winning policy.
    pub winner: PolicyKind,
}

impl AdvisorCell {
    /// The outcome for one policy.
    pub fn outcome(&self, policy: PolicyKind) -> &PolicyOutcome {
        self.outcomes
            .iter()
            .find(|o| o.policy == policy)
            .expect("all policies present")
    }

    /// Winner hit rate minus LRU hit rate (positive ⇒ LRU loses).
    pub fn margin_vs_lru(&self) -> f64 {
        self.outcome(self.winner).hit_rate() - self.outcome(PolicyKind::Lru).hit_rate()
    }
}

/// The full advisor sweep result.
#[derive(Debug, Clone)]
pub struct AdvisorReport {
    /// Seed recorded in the artifact (the simulation itself is
    /// deterministic; the seed keys archives and CI comparisons).
    pub seed: u64,
    /// `"paper"` or `"test"`.
    pub scale: &'static str,
    /// All (workload, level) cells, workload-major in advisor order.
    pub cells: Vec<AdvisorCell>,
}

impl AdvisorReport {
    /// Cells whose winner strictly beats LRU on hit rate.
    pub fn crossovers(&self) -> Vec<&AdvisorCell> {
        self.cells
            .iter()
            .filter(|c| c.winner != PolicyKind::Lru && c.margin_vs_lru() > 0.0)
            .collect()
    }
}

/// The advisor workload set: the three adversarial scenarios plus two
/// contrasting suite apps (reuse-heavy `hf`, streaming `contour`).
pub fn advisor_workloads(scale: Scale) -> Vec<Application> {
    let mut apps = cachemap_workloads::scenarios(scale);
    apps.push(cachemap_workloads::by_name("hf", scale).expect("suite app"));
    apps.push(cachemap_workloads::by_name("contour", scale).expect("suite app"));
    apps
}

/// The platform the advisor sweeps on. At test scale the workload
/// datasets shrink ~4× (see `Scale::dim`), so cache capacities shrink
/// with them to preserve the paper's cache-pressure regime — otherwise
/// every policy ties and the sweep is vacuous.
pub fn advisor_platform(scale: Scale, base: &PlatformConfig) -> PlatformConfig {
    match scale {
        Scale::Paper => base.clone(),
        Scale::Test => base.clone().with_cache_chunks(
            (base.client_cache_chunks / 4).max(2),
            (base.io_cache_chunks / 4).max(4),
            (base.storage_cache_chunks / 4).max(8),
        ),
    }
}

/// Runs the full advisor sweep: `workloads × levels × policies` cells,
/// fanned out over the worker pool in deterministic order.
pub fn run_advisor(scale: Scale, base: &PlatformConfig, seed: u64) -> AdvisorReport {
    run_advisor_on(scale, base, seed, advisor_workloads(scale))
}

/// [`run_advisor`] restricted to an explicit workload list (tests and
/// partial sweeps).
pub fn run_advisor_on(
    scale: Scale,
    base: &PlatformConfig,
    seed: u64,
    apps: Vec<Application>,
) -> AdvisorReport {
    let platform = advisor_platform(scale, base);
    let cfg = MapperConfig::default();

    let mut cells: Vec<(usize, usize, PolicyKind)> = Vec::new();
    for ai in 0..apps.len() {
        for level in 0..LEVELS.len() {
            for policy in PolicyKind::ALL {
                cells.push((ai, level, policy));
            }
        }
    }

    let results: Vec<(usize, usize, PolicyKind, SimReport)> =
        cachemap_par::Pool::from_env().map(&cells, |_, &(ai, level, policy)| {
            let mut p = platform.clone().with_policy(PolicyKind::Lru);
            p.policies[level] = policy;
            let rep = run_cell(&apps[ai], &p, &cfg, Version::InterProcessor);
            (ai, level, policy, rep)
        });

    let mut out = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        for (level, level_label) in LEVELS.iter().enumerate() {
            let mut outcomes = Vec::new();
            for policy in PolicyKind::ALL {
                let rep = &results
                    .iter()
                    .find(|r| r.0 == ai && r.1 == level && r.2 == policy)
                    .expect("cell simulated")
                    .3;
                let hm = [&rep.l1, &rep.l2, &rep.l3][level];
                outcomes.push(PolicyOutcome {
                    policy,
                    hits: hm.hits,
                    misses: hm.misses,
                    exec_time_ns: rep.exec_time_ns,
                });
            }
            // Highest hit rate, then lowest makespan, then ALL order.
            // Hit rates within a cell share a denominator, so compare
            // the integer hit counts (no float ties to worry about).
            let winner = PolicyKind::ALL
                .iter()
                .copied()
                .enumerate()
                .max_by(|&(ia, a), &(ib, b)| {
                    let (oa, ob) = (
                        outcomes.iter().find(|o| o.policy == a).expect("present"),
                        outcomes.iter().find(|o| o.policy == b).expect("present"),
                    );
                    oa.hits
                        .cmp(&ob.hits)
                        .then(ob.exec_time_ns.cmp(&oa.exec_time_ns))
                        // Exact tie: earlier in ALL order wins, so a cell
                        // where no policy separates reports LRU, not
                        // whichever policy happens to sort last.
                        .then(ib.cmp(&ia))
                })
                .map(|(_, p)| p)
                .expect("non-empty");
            out.push(AdvisorCell {
                workload: app.name.to_string(),
                level: level_label,
                outcomes,
                winner,
            });
        }
    }
    AdvisorReport {
        seed,
        scale: match scale {
            Scale::Paper => "paper",
            Scale::Test => "test",
        },
        cells: out,
    }
}

/// Renders the advisor result as the harness's standard text block.
pub fn render(report: &AdvisorReport) -> String {
    let mut out = format!(
        "== advisor — per-(workload, level) policy sweep (seed {}, {} scale) ==\n",
        report.seed, report.scale
    );
    let mut columns = vec!["workload/level".to_string()];
    columns.extend(PolicyKind::ALL.iter().map(|p| p.label().to_string()));
    columns.push("winner".into());
    let mut t = TextTable::new(columns.iter().map(String::as_str));
    for cell in &report.cells {
        let mut row = vec![format!("{}/{}", cell.workload, cell.level)];
        for p in PolicyKind::ALL {
            row.push(format!("{:.1}", cell.outcome(p).hit_rate() * 100.0));
        }
        row.push(cell.winner.label().to_string());
        t.row(row);
    }
    out.push_str(&t.render());
    let crossovers = report.crossovers();
    if crossovers.is_empty() {
        out.push_str("   no crossovers: LRU wins or ties every cell\n");
    } else {
        out.push_str("   crossovers (non-LRU strictly beats LRU on hit rate):\n");
        for c in crossovers {
            out.push_str(&format!(
                "   - {}/{}: {} beats lru by {:+.1} pp\n",
                c.workload,
                c.level,
                c.winner.label(),
                c.margin_vs_lru() * 100.0
            ));
        }
    }
    out
}

impl ToJson for AdvisorReport {
    fn to_json(&self) -> Json {
        let policy_order: Vec<Json> = PolicyKind::ALL
            .iter()
            .map(|p| Json::Str(p.label().into()))
            .collect();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let outcomes: Vec<Json> = c
                    .outcomes
                    .iter()
                    .map(|o| {
                        Json::object(vec![
                            ("policy", Json::Str(o.policy.label().into())),
                            ("hits", Json::UInt(o.hits)),
                            ("misses", Json::UInt(o.misses)),
                            ("hit_rate", Json::Float(o.hit_rate())),
                            ("exec_time_ns", Json::UInt(o.exec_time_ns)),
                        ])
                    })
                    .collect();
                Json::object(vec![
                    ("workload", Json::Str(c.workload.clone())),
                    ("level", Json::Str(c.level.into())),
                    ("outcomes", Json::Array(outcomes)),
                    ("winner", Json::Str(c.winner.label().into())),
                    ("margin_vs_lru", Json::Float(c.margin_vs_lru())),
                ])
            })
            .collect();
        let crossovers: Vec<Json> = self
            .crossovers()
            .iter()
            .map(|c| {
                Json::object(vec![
                    ("workload", Json::Str(c.workload.clone())),
                    ("level", Json::Str(c.level.into())),
                    ("winner", Json::Str(c.winner.label().into())),
                    ("margin_vs_lru", Json::Float(c.margin_vs_lru())),
                ])
            })
            .collect();
        Json::object(vec![
            ("experiment", Json::Str("advisor".into())),
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("seed", Json::UInt(self.seed)),
            ("scale", Json::Str(self.scale.into())),
            ("policy_order", Json::Array(policy_order)),
            ("cells", Json::Array(cells)),
            ("crossovers", Json::Array(crossovers)),
        ])
    }
}

fn field<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

/// Validates a parsed `BENCH_policies.json` against the advisor schema
/// (used by `repro advisor-check` and the CI smoke step).
pub fn validate_report(v: &Json) -> Result<(), String> {
    if field(v, "experiment", "report")?.as_str() != Some("advisor") {
        return Err("report: `experiment` must be \"advisor\"".into());
    }
    if field(v, "schema_version", "report")?.as_u64() != Some(SCHEMA_VERSION) {
        return Err(format!("report: `schema_version` must be {SCHEMA_VERSION}"));
    }
    field(v, "seed", "report")?
        .as_u64()
        .ok_or("report: `seed` must be an unsigned integer")?;
    let scale = field(v, "scale", "report")?
        .as_str()
        .ok_or("report: `scale` must be a string")?;
    if scale != "paper" && scale != "test" {
        return Err(format!("report: unknown scale `{scale}`"));
    }
    let order = field(v, "policy_order", "report")?
        .as_array()
        .ok_or("report: `policy_order` must be an array")?;
    let expected: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.label()).collect();
    let got: Vec<&str> = order.iter().filter_map(|j| j.as_str()).collect();
    if got != expected {
        return Err(format!("report: policy_order {got:?} != {expected:?}"));
    }
    let cells = field(v, "cells", "report")?
        .as_array()
        .ok_or("report: `cells` must be an array")?;
    if cells.is_empty() {
        return Err("report: `cells` is empty".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cells[{i}]");
        field(cell, "workload", &ctx)?
            .as_str()
            .ok_or(format!("{ctx}: `workload` must be a string"))?;
        let level = field(cell, "level", &ctx)?
            .as_str()
            .ok_or(format!("{ctx}: `level` must be a string"))?;
        if !LEVELS.contains(&level) {
            return Err(format!("{ctx}: unknown level `{level}`"));
        }
        let outcomes = field(cell, "outcomes", &ctx)?
            .as_array()
            .ok_or(format!("{ctx}: `outcomes` must be an array"))?;
        if outcomes.len() != PolicyKind::ALL.len() {
            return Err(format!(
                "{ctx}: expected {} outcomes, got {}",
                PolicyKind::ALL.len(),
                outcomes.len()
            ));
        }
        for (o, want) in outcomes.iter().zip(&expected) {
            let octx = format!("{ctx}.outcomes[{want}]");
            if field(o, "policy", &octx)?.as_str() != Some(want) {
                return Err(format!("{octx}: outcomes out of canonical order"));
            }
            field(o, "hits", &octx)?
                .as_u64()
                .ok_or(format!("{octx}: `hits` must be an unsigned integer"))?;
            field(o, "misses", &octx)?
                .as_u64()
                .ok_or(format!("{octx}: `misses` must be an unsigned integer"))?;
            let rate = field(o, "hit_rate", &octx)?
                .as_f64()
                .ok_or(format!("{octx}: `hit_rate` must be a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{octx}: hit_rate {rate} outside [0, 1]"));
            }
            let exec = field(o, "exec_time_ns", &octx)?.as_u64().ok_or(format!(
                "{octx}: `exec_time_ns` must be an unsigned integer"
            ))?;
            if exec == 0 {
                return Err(format!("{octx}: exec_time_ns must be positive"));
            }
        }
        let winner = field(cell, "winner", &ctx)?
            .as_str()
            .ok_or(format!("{ctx}: `winner` must be a string"))?;
        if !expected.contains(&winner) {
            return Err(format!("{ctx}: unknown winner `{winner}`"));
        }
        field(cell, "margin_vs_lru", &ctx)?
            .as_f64()
            .ok_or(format!("{ctx}: `margin_vs_lru` must be a number"))?;
    }
    let crossovers = field(v, "crossovers", "report")?
        .as_array()
        .ok_or("report: `crossovers` must be an array")?;
    for (i, c) in crossovers.iter().enumerate() {
        let ctx = format!("crossovers[{i}]");
        let winner = field(c, "winner", &ctx)?
            .as_str()
            .ok_or(format!("{ctx}: `winner` must be a string"))?;
        if winner == "lru" {
            return Err(format!("{ctx}: an LRU win is not a crossover"));
        }
        let margin = field(c, "margin_vs_lru", &ctx)?
            .as_f64()
            .ok_or(format!("{ctx}: `margin_vs_lru` must be a number"))?;
        if margin <= 0.0 {
            return Err(format!("{ctx}: margin {margin} not positive"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance scenario: SLRU's protected segment rides out the
    /// scan storms that flush LRU, so at the client level scan_storm
    /// prefers SLRU — strictly more L1 hits on the identical stream.
    #[test]
    fn scan_storm_prefers_slru_over_lru_at_l1() {
        let scale = Scale::Test;
        let platform = advisor_platform(scale, &PlatformConfig::paper_default());
        let app = cachemap_workloads::scenario_by_name("scan_storm", scale).expect("scenario");
        let cfg = MapperConfig::default();
        let lru = run_cell(&app, &platform, &cfg, Version::InterProcessor);
        let slru = run_cell(
            &app,
            &platform.clone().with_level_policies(
                PolicyKind::Slru,
                PolicyKind::Lru,
                PolicyKind::Lru,
            ),
            &cfg,
            Version::InterProcessor,
        );
        assert_eq!(
            lru.l1.accesses(),
            slru.l1.accesses(),
            "same stream reaches L1 either way"
        );
        assert!(
            slru.l1.hits > lru.l1.hits,
            "SLRU must out-hit LRU under scan storms: slru {} vs lru {} of {}",
            slru.l1.hits,
            lru.l1.hits,
            lru.l1.accesses()
        );
    }

    /// One-workload advisor end to end: schema-valid JSON and the
    /// scan-storm crossover. The full-sweep double-run byte-determinism
    /// gate lives in CI (`repro --test-scale advisor:42` twice, diffed),
    /// where the release build keeps it cheap; in debug this test stays
    /// at one workload so the workspace suite stays fast.
    #[test]
    fn mini_advisor_is_schema_valid_with_a_crossover() {
        let platform = PlatformConfig::paper_default();
        let scan = cachemap_workloads::scenario_by_name("scan_storm", Scale::Test).expect("app");
        let a = run_advisor_on(Scale::Test, &platform, 42, vec![scan]);
        let ja = a.to_json().to_string_pretty();
        validate_report(&cachemap_util::json::parse(&ja).expect("valid json")).expect("schema");
        assert_eq!(a.cells.len(), LEVELS.len());
        assert!(
            !a.crossovers().is_empty(),
            "scan_storm must prefer a non-LRU policy at some level"
        );
        // The rendered table mentions the workload and the crossovers.
        let text = render(&a);
        assert!(text.contains("scan_storm/L1"));
        assert!(text.contains("crossover"));
    }

    #[test]
    fn validate_report_rejects_malformed_inputs() {
        let good = run_advisor_fixture();
        validate_report(&good).expect("fixture is valid");

        let mut missing = good.clone();
        if let Json::Object(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "cells");
        }
        assert!(validate_report(&missing).is_err());

        let mut bad_winner = good.clone();
        if let Json::Object(pairs) = &mut bad_winner {
            for (k, v) in pairs.iter_mut() {
                if k == "cells" {
                    if let Json::Array(cells) = v {
                        if let Json::Object(cell) = &mut cells[0] {
                            for (ck, cv) in cell.iter_mut() {
                                if ck == "winner" {
                                    *cv = Json::Str("mru".into());
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(validate_report(&bad_winner).is_err());

        let mut lru_crossover = good;
        if let Json::Object(pairs) = &mut lru_crossover {
            for (k, v) in pairs.iter_mut() {
                if k == "crossovers" {
                    *v = Json::Array(vec![Json::object(vec![
                        ("workload", Json::Str("x".into())),
                        ("level", Json::Str("L1".into())),
                        ("winner", Json::Str("lru".into())),
                        ("margin_vs_lru", Json::Float(0.1)),
                    ])]);
                }
            }
        }
        assert!(validate_report(&lru_crossover).is_err());
    }

    /// A tiny hand-built valid report (no simulation).
    fn run_advisor_fixture() -> Json {
        let report = AdvisorReport {
            seed: 7,
            scale: "test",
            cells: vec![AdvisorCell {
                workload: "scan_storm".into(),
                level: "L1",
                outcomes: PolicyKind::ALL
                    .iter()
                    .map(|&policy| PolicyOutcome {
                        policy,
                        hits: if policy == PolicyKind::Slru { 90 } else { 50 },
                        misses: 10,
                        exec_time_ns: 1000,
                    })
                    .collect(),
                winner: PolicyKind::Slru,
            }],
        };
        report.to_json()
    }
}
