//! Self-tests of the benchmark: tiny runs of every workload come back
//! clean, the traced run reports every per-layer metric, and the
//! `authz_churn` oracle fails runs whose revocation push misses a cache.
//!
//! Run with `cargo test --release` from this directory.

use std::process::Command;

/// Runs the benchmark at the tiny size and returns (exit code, stdout).
fn run(workload: &str, trace: &str, wiring: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", trace, "--size", "tiny", "--wiring", wiring])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout)
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

/// A metric's value in the result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let end = line[at..].find(',').expect("value ends") + at;
    line[at..end].parse().expect("numeric value")
}

#[test]
fn tiny_runs_are_clean() {
    for workload in ["signed_fresh", "session_warm", "authz_churn"] {
        let (code, stdout) = run(workload, "0", "full");
        assert_eq!(code, 0, "{workload}:\n{stdout}");
        let line = last_line(&stdout);
        assert!(line.contains("\"correct\": true"), "{workload}: {line}");
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        // error_rate 0, reported as its complement.
        assert_eq!(metric(line, "ok_ratio"), 1.0, "{workload}: {line}");
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let (code, stdout) = run("signed_fresh", "1", "full");
    assert_eq!(code, 0, "{stdout}");
    let line = last_line(&stdout);
    for name in [
        "runtime.outside_handler_us",
        "http.servlet_us",
        "sexpr.parse_us",
        "core.decode_us",
        "core.verify_cold_us",
        "crypto.verify_us",
        "audit.append_us",
        "revocation.revoke_us",
        "unaccounted_us",
        "trace.overhead_pct",
    ] {
        metric(line, name);
    }
    // No signed request repeats, so the identical-request cache is
    // bypassed.
    assert_eq!(metric(line, "http.ident_hits"), 0.0, "{line}");
    assert!(metric(line, "core.decode_us") > 0.0, "{line}");
}

#[test]
fn prover_off_the_bus_fails_authz_churn() {
    let (code, stdout) = run("authz_churn", "0", "prover-off-bus");
    assert_eq!(code, 1, "{stdout}");
    assert!(
        last_line(&stdout).contains("\"correct\": false"),
        "{stdout}"
    );
    assert!(
        stdout.contains("granted after its revoke was acknowledged"),
        "{stdout}"
    );
}

#[test]
fn memo_off_the_bus_fails_authz_churn() {
    let (code, stdout) = run("authz_churn", "0", "memo-off-bus");
    assert_eq!(code, 1, "{stdout}");
    assert!(
        last_line(&stdout).contains("\"correct\": false"),
        "{stdout}"
    );
    assert!(
        stdout.contains("evicted nothing from the authz memo"),
        "{stdout}"
    );
}
