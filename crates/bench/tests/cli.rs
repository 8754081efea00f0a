//! `repro` rejects a malformed subcommand argument with the usage-error
//! exit code 2 and a one-line message, before it runs or writes
//! anything.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_without_panicking_or_writing() {
    let dir = std::env::temp_dir().join(format!("cachemap-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for arg in ["detail:nosuchapp", "advisor:x", "chaos:1:x", "serve-open:x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(!stderr.contains("panicked"), "{arg}: {stderr}");
        assert!(stderr.starts_with("repro: bad "), "{arg}: {stderr}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{arg} wrote into its directory: {left:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
