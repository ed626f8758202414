//! `ps2-bench diff` reads every sweep schema: each committed baseline gates
//! against itself, and two reports of different kinds never pass.

use std::process::{Command, Output};

const BASELINES: [&str; 3] = ["BENCH_pr5.json", "BENCH_pr6.json", "BENCH_pr9.json"];

fn ps2_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ps2-bench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("ps2-bench runs")
}

#[test]
fn diff_gates_every_committed_baseline_against_itself() {
    for file in BASELINES {
        let out = ps2_bench(&["diff", file, file, "--gate"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{file}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("gate passed"), "{file}: {stdout}");
    }
}

#[test]
fn diff_rejects_a_schema_mismatch_with_or_without_gate() {
    for (base, cand) in [(BASELINES[0], BASELINES[1]), (BASELINES[2], BASELINES[0])] {
        for gate in [true, false] {
            let mut args = vec!["diff", base, cand];
            if gate {
                args.push("--gate");
            }
            let out = ps2_bench(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{base} vs {cand}: {stderr}");
            assert!(stderr.contains("schema mismatch"), "{stderr}");
        }
    }
}
