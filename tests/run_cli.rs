//! `ps2-run`'s command line: asking for help is not an error.

use std::process::{Command, Output};

fn ps2_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ps2-run"))
        .args(args)
        .output()
        .expect("ps2-run runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["lr", "--help"]] {
        let out = ps2_run(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("usage: ps2-run"), "{args:?}: {stdout}");
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = ps2_run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: ps2-run"));
}
