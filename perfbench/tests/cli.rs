//! The benchmark CLI rejects bad arguments with a usage message and a
//! non-zero exit code, without panicking and without printing a result.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_arguments_get_a_usage_message() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "gauntlet",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "gauntlet",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "gauntlet",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "7",
        ],
        &["--workload", "gauntlet", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "gauntlet",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--x",
        ],
        &["--seed"],
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perfbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
