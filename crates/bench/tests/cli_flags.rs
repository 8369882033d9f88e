//! `repro` rejects a missing or malformed flag value with exit code 2
//! before it runs anything, naming the flag and the value.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    let out = std::env::temp_dir().join(format!("fxnet-cli-flags-{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--out", out.to_str().expect("utf-8 temp dir")])
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_flag_values_exit_2_before_running() {
    for (flag, value) in [
        ("--div", "abc"),
        ("--div", "-3"),
        ("--hours", "ten"),
        ("--seed", "banana"),
        ("--jobs", "1.5"),
        ("--shards", "many"),
        ("--trace-format", "bogus"),
    ] {
        let out = repro(&[flag, value, "fig3"]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains(value),
            "{flag} {value}: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value}: nothing may run");
    }
}

#[test]
fn missing_flag_values_exit_2() {
    for flag in [
        "--div",
        "--hours",
        "--seed",
        "--jobs",
        "--shards",
        "--trace-format",
    ] {
        // The flag under test is last, so no value follows it.
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fig3", flag])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("missing value for {flag}")),
            "{flag}: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag}: nothing may run");
    }
}
