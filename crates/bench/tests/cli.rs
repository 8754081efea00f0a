//! `repro` rejects a malformed subcommand argument with the usage-error
//! exit code 2 and a one-line message, before it runs or writes
//! anything — also when the bad argument follows a good one. A
//! `--test-scale` run writes only under `reports/test-scale/`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every file under `dir`, recursively, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn malformed_arguments_exit_2_without_panicking_or_writing() {
    let dir = std::env::temp_dir().join(format!("cachemap-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&[&str], &str); 5] = [
        (&["detail:nosuchapp"], "repro: bad "),
        (&["advisor:x"], "repro: bad "),
        (&["serve-open:x"], "repro: bad "),
        (&["--test-scale", "table2", "advisor:x"], "repro: bad "),
        (
            &["--test-scale", "table2", "nosuchexp"],
            "unknown experiment: ",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            left.is_empty(),
            "{args:?} wrote into its directory: {left:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `repro` with `args` in a fresh directory and returns every file
/// it wrote there, relative to that directory.
fn files_written(tag: &str, args: &[&str]) -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join(format!("cachemap-repro-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = files_under(&dir)
        .into_iter()
        .map(|f| f.strip_prefix(&dir).unwrap().to_path_buf())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

#[test]
fn test_scale_obs_export_writes_only_under_reports_test_scale() {
    assert_eq!(
        files_written("obs", &["--test-scale", "obs-export:contour"]),
        [Path::new(
            "reports/test-scale/contour-inter-scheduled.obs.json"
        )]
    );
}

#[test]
fn test_scale_advisor_writes_only_under_reports_test_scale() {
    assert_eq!(
        files_written("advisor", &["--test-scale", "advisor:42"]),
        [
            Path::new("reports/test-scale/BENCH_policies-42.json"),
            Path::new("reports/test-scale/BENCH_policies.json"),
        ]
    );
}
