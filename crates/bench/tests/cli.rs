//! `repro` rejects a malformed subcommand argument with the usage-error
//! exit code 2 and a one-line message, before it runs or writes
//! anything — also when the bad argument follows a good one.

use std::process::Command;

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
