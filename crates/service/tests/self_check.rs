//! Smoke tests over the real binaries: `spanner-serve --self-check`
//! must pass end to end (ephemeral port, all four variants, cache
//! byte-identity, error handling), and bad usage must exit non-zero.

use std::process::Command;

#[test]
fn spanner_serve_self_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--self-check")
        .output()
        .expect("run spanner-serve");
    assert!(
        out.status.success(),
        "self-check failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("self-check ok"));
}

#[test]
fn spanner_serve_http_self_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .args(["--self-check", "--http"])
        .output()
        .expect("run spanner-serve");
    assert!(
        out.status.success(),
        "http self-check failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("self-check ok"));
}

#[test]
fn http_flag_without_self_check_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--http")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--http-port"));
}

#[test]
fn unknown_flags_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--bogus")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-cli"))
        .arg("frobnicate")
        .output()
        .expect("run spanner-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn explicit_help_succeeds_on_stdout() {
    for bin in [
        env!("CARGO_BIN_EXE_spanner-cli"),
        env!("CARGO_BIN_EXE_spanner-serve"),
    ] {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("run --help");
        assert!(out.status.success(), "--help must exit 0 for {bin}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    }
}

#[test]
fn spanner_serve_graphs_self_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .args(["--self-check", "--graphs"])
        .output()
        .expect("run spanner-serve");
    assert!(
        out.status.success(),
        "graphs self-check failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-check ok"));
    // The one-line summary CI extracts into graph_deltas.json must be
    // on stdout, with no engine run inside a PATCH.
    assert!(
        stdout.contains("{\"graphs_self_check\":{\"deltas\":"),
        "missing artifact line\nstdout: {stdout}"
    );
    assert!(
        stdout.contains("\"engine_runs_in_patches\":0,"),
        "PATCHes ran the engine\nstdout: {stdout}"
    );
}

#[test]
fn graphs_flag_without_self_check_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--graphs")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--self-check"));
}
