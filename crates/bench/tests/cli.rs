//! The argument-less experiment binaries (E1–E10) reject arguments with
//! a usage line and exit status 2 instead of ignoring them.

use std::process::Command;

#[test]
fn experiment_binary_rejects_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_e6_write_efficiency"))
        .arg("--bogus")
        .output()
        .expect("spawn e6_write_efficiency");
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "no experiment output on bad input");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unexpected argument \"--bogus\"")
            && err.contains("usage: e6_write_efficiency"),
        "stderr: {err}"
    );
}
