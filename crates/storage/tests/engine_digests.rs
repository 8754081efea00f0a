//! Pinned digests of the engine's outputs.
//!
//! Seeded random programs — compute, reads and writes with per-client
//! reuse, and `Signal`/`Wait` pairs on acyclic tokens — run on the paper
//! platform under every uniform policy and one mixed per-level vector,
//! on the paper's caches and on 1/16 of them, with read-ahead 2,
//! `sync_ns = 0` and `cache_access_ns = 0` as variants. Each run's
//! `SimReport` JSON, its sorted trace and its recorder snapshot are
//! hashed, and the hashes are folded into one digest per output kind.
//! The digests were recorded once and are never edited to make an
//! engine change pass: any change to the order in which the engine
//! serves shared work or charges costs shows up here.

use cachemap_obs::Recorder;
use cachemap_storage::trace::Trace;
use cachemap_storage::{ClientOp, MappedProgram, PlatformConfig, PolicyKind, SimReport, Simulator};
use cachemap_util::fingerprint::{fingerprint_json, Fingerprint};
use cachemap_util::{ToJson, XorShift64};
use std::fmt::Write;

/// Digests `[report, trace, obs]` of the random programs.
const PINNED: [&str; 3] = [
    "d4ba2ebc144ce73f736eb1cdbc16c80b",
    "2d7e36158e692f4f0099e47c70165f84",
    "09f755eacf019f4923f869fcc3361ef4",
];

/// Digests `[report, trace, obs]` of the hand-built wake-up case.
const PINNED_WAKE: [&str; 3] = [
    "002a0474eb6744aad70d499b64c7dbc7",
    "08cd8998ad22cf5fc09523231a782ecf",
    "2fb106ca244985d5c08762350e830de8",
];

const CLIENT_OPS: usize = 48;
const CHUNKS: u64 = 3000;

/// A seeded random program. Every `Wait` is generated after the `Signal`
/// of its token, so generation order is a schedule and the program
/// cannot deadlock; a token may have several waiters. No stream ends in
/// a `Wait` (the engine tests cover that case on its own).
fn random_program(seed: u64, clients: usize) -> MappedProgram {
    let mut rng = XorShift64::new(seed);
    let mut prog = MappedProgram::new(clients);
    let mut signalled: Vec<u32> = Vec::new();
    for _ in 0..clients * CLIENT_OPS {
        let c = rng.usize_in(0, clients);
        let roll = rng.next_below(100);
        let op = if roll < 20 {
            ClientOp::Compute {
                ns: rng.next_below(120_000),
            }
        } else if roll < 23 {
            let token = signalled.len() as u32;
            signalled.push(token);
            ClientOp::Signal { token }
        } else if roll < 26 && !signalled.is_empty() {
            let token = signalled[rng.usize_in(0, signalled.len())];
            ClientOp::Wait { token }
        } else {
            // Half the accesses stay in a small per-client window (L1
            // reuse), half spread over the shared data.
            let chunk = if rng.chance(1, 2) {
                c * 7 + rng.usize_in(0, 12)
            } else {
                rng.next_below(CHUNKS) as usize
            };
            ClientOp::Access {
                chunk,
                write: rng.chance(1, 4),
            }
        };
        prog.per_client[c].push(op);
    }
    for ops in &mut prog.per_client {
        if let Some(ClientOp::Wait { .. }) = ops.last() {
            ops.push(ClientOp::Compute { ns: 1 });
        }
    }
    prog
}

/// The platforms: five uniform policies and one mixed vector, each on the
/// paper's caches and on 1/16 of them, each plain and with one of
/// read-ahead 2, `sync_ns = 0` or `cache_access_ns = 0` in turn.
fn platforms() -> Vec<(String, PlatformConfig)> {
    let base = PlatformConfig::paper_default();
    let mut policies: Vec<[PolicyKind; 3]> = PolicyKind::ALL.iter().map(|&p| [p; 3]).collect();
    policies.push([PolicyKind::Slru, PolicyKind::Lfuda, PolicyKind::Fifo]);
    let mut out = Vec::new();
    for p in policies {
        for div in [1, 16] {
            let sized = base
                .clone()
                .with_level_policies(p[0], p[1], p[2])
                .with_cache_chunks(
                    base.client_cache_chunks / div,
                    base.io_cache_chunks / div,
                    base.storage_cache_chunks / div,
                );
            let label = format!("{}-{}-{}/{div}", p[0].label(), p[1].label(), p[2].label());
            let mut tweaked = sized.clone();
            let tweak = match out.len() / 2 % 3 {
                0 => {
                    tweaked.readahead_chunks = 2;
                    "ra2"
                }
                1 => {
                    tweaked.sync_ns = 0;
                    "sync0"
                }
                _ => {
                    tweaked.cache_access_ns = 0;
                    "cache0"
                }
            };
            out.push((label.clone(), sized));
            out.push((format!("{label} {tweak}"), tweaked));
        }
    }
    out
}

fn trace_text(trace: &Trace) -> String {
    let mut s = String::new();
    for e in &trace.events {
        let _ = writeln!(
            s,
            "{} {} {} {} {:?}",
            e.time_ns, e.client, e.chunk, e.write, e.served_by
        );
    }
    s
}

/// `[report, trace, obs]` digests of one run, plus the report itself.
fn digest_run(sim: &Simulator, prog: &MappedProgram) -> ([Fingerprint; 3], SimReport) {
    let (report, trace) = sim.run_traced(prog).expect("traced run");
    let mut rec = Recorder::enabled(2_000_000);
    let observed = sim.run_observed(prog, &mut rec).expect("observed run");
    let report_json = report.to_json();
    assert_eq!(
        report_json.to_string_compact(),
        observed.to_json().to_string_compact(),
        "traced and observed runs disagree"
    );
    let obs = rec.finish().expect("enabled recorder");
    (
        [
            fingerprint_json(&report_json),
            Fingerprint::of_bytes(trace_text(&trace).as_bytes()),
            fingerprint_json(&obs.to_json()),
        ],
        report,
    )
}

/// Folds per-run digests into one, in run order.
fn fold(parts: &[Fingerprint]) -> String {
    let mut text = String::new();
    for p in parts {
        text.push_str(&p.to_hex());
    }
    Fingerprint::of_bytes(text.as_bytes()).to_hex()
}

#[test]
fn engine_outputs_match_pinned_digests() {
    let mut kinds: [Vec<Fingerprint>; 3] = Default::default();
    for (i, (label, cfg)) in platforms().into_iter().enumerate() {
        let prog = random_program(0xD16E_0000 + i as u64, cfg.num_clients);
        let sim = Simulator::new(cfg).unwrap();
        let (d, report) = digest_run(&sim, &prog);
        assert_eq!(report.l1.accesses(), prog.total_accesses(), "{label}");
        for (kind, digest) in kinds.iter_mut().zip(d) {
            kind.push(digest);
        }
    }
    let got = kinds.each_ref().map(|k| fold(k));
    assert_eq!(got, PINNED.map(str::to_string), "engine outputs changed");
}

/// At `sync_ns = 0`, client 3's `Signal` wakes client 1 at the
/// signaller's own clock. Client 1 sorts ahead of client 3 at that time,
/// so it reads chunk 9 from disk and client 3, under the other I/O node,
/// finds it in the shared storage cache.
#[test]
fn woken_waiter_runs_before_its_signaller_at_equal_time() {
    let mut cfg = PlatformConfig::tiny();
    cfg.sync_ns = 0;
    let mut prog = MappedProgram::new(cfg.num_clients);
    let read = ClientOp::Access {
        chunk: 9,
        write: false,
    };
    prog.per_client[1] = vec![ClientOp::Wait { token: 7 }, read];
    prog.per_client[3] = vec![
        ClientOp::Compute { ns: 1_000 },
        ClientOp::Signal { token: 7 },
        read,
    ];
    let sim = Simulator::new(cfg).unwrap();
    let (_, trace) = sim.run_traced(&prog).unwrap();
    let served: Vec<(u64, usize, String)> = trace
        .events
        .iter()
        .map(|e| (e.time_ns, e.client, format!("{:?}", e.served_by)))
        .collect();
    assert_eq!(
        served,
        vec![(1_000, 1, "Disk".to_string()), (1_000, 3, "L3".to_string())]
    );
    let (d, _) = digest_run(&sim, &prog);
    let got = d.map(|f| f.to_hex());
    assert_eq!(
        got,
        PINNED_WAKE.map(str::to_string),
        "wake-up outputs changed"
    );
}
