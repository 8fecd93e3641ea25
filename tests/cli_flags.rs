//! `siro serve`, `siro route` and `siro store` refuse flags they do not
//! know: a misspelled or removed flag must fail with its name and a
//! non-zero exit, never run the command without it.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs the `siro` binary, killing it (and failing) if it is still
/// running after `limit` — a daemon that booted instead of refusing.
fn siro(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_siro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn siro");
    let started = Instant::now();
    while child.try_wait().expect("poll siro").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`siro {}` was still running after {limit:?}",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect siro output")
}

fn assert_refused(args: &[&str], named: &str) {
    let out = siro(args, Duration::from_secs(20));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`siro {}` must fail", args.join(" "));
    assert!(
        stderr.contains(named),
        "`siro {}` must name `{named}`: {stderr}",
        args.join(" ")
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening on"),
        "`siro {}` must not boot",
        args.join(" ")
    );
}

#[test]
fn serve_refuses_unknown_flags() {
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--no-compile"],
        "--no-compile",
    );
    assert_refused(&["serve", "--stroe", "/tmp/nowhere"], "--stroe");
    assert_refused(&["serve", "extra"], "extra");
    assert_refused(&["serve", "--threads"], "--threads");
}

#[test]
fn route_refuses_unknown_flags_and_prints_class_costs() {
    assert_refused(
        &[
            "route",
            "plan",
            "--from",
            "13.0",
            "--to",
            "3.6",
            "--observed",
        ],
        "--observed",
    );
    assert_refused(&["route", "matrix", "--dialect"], "--dialect");

    let out = siro(
        &["route", "plan", "--from", "13.0", "--to", "3.6"],
        Duration::from_secs(120),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("13.0 -> 3.6: cold (cost 50000us)"),
        "{stdout}"
    );
    assert!(!stdout.contains("observed"), "{stdout}");
}

#[test]
fn store_refuses_unknown_flags() {
    let dir = std::env::temp_dir().join(format!("siro-cli-flags-store-{}", std::process::id()));
    let d = dir.to_str().expect("utf-8 temp dir");
    // `--pair` is not `--pairs`: warming the default pair instead would
    // synthesize and write a store the caller did not ask for.
    assert_refused(
        &["store", "warm", "--dir", d, "--pair", "12.0:3.6"],
        "--pair",
    );
    assert_refused(&["store", "ls", "--dir", d, "extra"], "extra");
    assert_refused(&["store", "gc", "--dir", d, "--max-bytes"], "--max-bytes");
    assert!(!dir.exists(), "a refused command must not open the store");

    let out = siro(&["store", "ls", "--dir", d], Duration::from_secs(20));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 entries"));
}
