//! `figures` names what it does not understand instead of doing nothing.

use std::process::Command;

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--fig77")
        .output()
        .expect("figures binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing was regenerated");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --fig77"), "{stderr}");
    assert!(stderr.contains("usage: figures") && stderr.contains("[--fig7]"), "{stderr}");
}
