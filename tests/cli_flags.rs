//! Every `siro` command refuses flags it does not know: a misspelled or
//! removed flag must fail with its name and a non-zero exit, never run the
//! command without it. A local `siro translate` answers with the bytes the
//! serving engine answers.

use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use siro::ir::{write, DialectVersion, IrVersion};
use siro::serve::{Engine, Metrics, Request, Response, TranslateMode};
use siro::wir::WirVersion;

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

    // One router holds both catalogs: a WIR endpoint needs no flag.
    let out = siro(
        &["route", "plan", "--from", "13.0", "--to", "wir1.0"],
        Duration::from_secs(120),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("13.0 -> wir2.0 -> wir1.0 (2 hops"),
        "{stdout}"
    );
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

#[test]
fn translate_refuses_unknown_flags() {
    assert_refused(
        &[
            "translate",
            "--to",
            "3.6",
            "m.sir",
            "--synthesized",
            "--bogus",
        ],
        "--bogus",
    );
    // The source version comes from the file's header, never a flag.
    assert_refused(
        &["translate", "--from", "13.0", "--to", "3.6", "m.sir"],
        "--from",
    );
    assert_refused(&["translate", "--to", "3.6", "a.sir", "b.sir"], "b.sir");
    assert_refused(&["translate", "m.sir", "--to"], "--to");
}

#[test]
fn every_other_command_refuses_unknown_flags() {
    // Each is refused before it reads a file, boots a server or dials.
    assert_refused(&["run", "smoke.sir", "--bogus"], "--bogus");
    assert_refused(&["run", "a.sir", "b.sir"], "b.sir");
    assert_refused(&["opt", "m.sir", "--O3"], "--O3");
    // `--emit` is not `--emit-code`: synthesizing without printing the
    // code would succeed silently.
    assert_refused(
        &["synthesize", "--from", "13.0", "--to", "3.6", "--emit"],
        "--emit",
    );
    assert_refused(&["difftest", "--pair", "13.0:3.6"], "--pair");
    assert_refused(
        &["loadgen", "--ratez", "100", "--duration-ms", "10"],
        "--ratez",
    );
    for cmd in ["stats", "metrics", "shutdown"] {
        assert_refused(&[cmd, "--remote", "127.0.0.1:9", "--verbose"], "--verbose");
    }
    assert_refused(&["trace-report", "t.json", "--top"], "--top");
    assert_refused(&["versions", "--all"], "--all");
}

#[test]
fn loadgen_fails_when_a_rate_misses_its_slo() {
    let sweep = |slo_ms: &str| {
        siro(
            &[
                "loadgen",
                "--rates",
                "20",
                "--connections",
                "1",
                "--duration-ms",
                "300",
                "--slo-ms",
                slo_ms,
            ],
            Duration::from_secs(120),
        )
    };
    let missed = sweep("0.000001");
    let stdout = String::from_utf8_lossy(&missed.stdout);
    let stderr = String::from_utf8_lossy(&missed.stderr);
    assert!(
        !missed.status.success(),
        "a missed SLO must fail: {stdout}{stderr}"
    );
    assert!(
        stdout.lines().any(|l| l.ends_with(" MISS")),
        "a MISS row: {stdout}"
    );
    assert!(stderr.contains("20.0 req/s missed"), "{stderr}");

    let met = sweep("10000");
    assert!(
        met.status.success(),
        "every rate met its SLO: {}{}",
        String::from_utf8_lossy(&met.stdout),
        String::from_utf8_lossy(&met.stderr)
    );
}

#[test]
fn local_translate_answers_what_the_engine_serves() {
    let dir = std::env::temp_dir().join(format!("siro-cli-translate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (v13, v36) = (IrVersion::V13_0, IrVersion::V3_6);
    let siro13 = write::write_module(&siro::testcases::corpus_for_pair(v13, v36)[0].build(v13));
    let wir1 =
        siro::wir::write::write_module(&siro::wir::generate_straightline(7, WirVersion::W1_0));
    // Raising a straight-line WIR module gives a 13.0 module inside the
    // 13.0 <-> wir2.0 bridge's lowerable subset.
    let bridged13 = write::write_module(
        &siro::synth::raise_module(&siro::wir::generate_straightline(23, WirVersion::W2_0), v13)
            .expect("raise"),
    );
    let wir2: DialectVersion = WirVersion::W2_0.into();
    let cases: [(&str, &String, DialectVersion, DialectVersion, TranslateMode); 4] = [
        (
            "siro_ref",
            &siro13,
            v13.into(),
            v36.into(),
            TranslateMode::Reference,
        ),
        (
            "siro_syn",
            &siro13,
            v13.into(),
            v36.into(),
            TranslateMode::Synthesized,
        ),
        (
            "wir",
            &wir1,
            WirVersion::W1_0.into(),
            wir2,
            TranslateMode::Synthesized,
        ),
        (
            "cross",
            &bridged13,
            v13.into(),
            wir2,
            TranslateMode::Synthesized,
        ),
    ];
    let engine = Engine::new(Arc::new(Metrics::default()));
    for (name, text, source, target, mode) in cases {
        let input = dir.join(format!("{name}.sir"));
        let output = dir.join(format!("{name}_out.sir"));
        std::fs::write(&input, text).expect("write input");
        let to = target.to_string();
        let mut args = vec![
            "translate",
            "--to",
            &to,
            input.to_str().expect("utf-8 path"),
            "-o",
            output.to_str().expect("utf-8 path"),
        ];
        // A WIR endpoint implies `--synthesized`.
        if mode == TranslateMode::Synthesized && source.as_siro().and(target.as_siro()).is_some() {
            args.push("--synthesized");
        }
        let out = siro(&args, Duration::from_secs(600));
        assert!(
            out.status.success(),
            "`siro {}`: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let served = match engine.execute(&Request::Translate {
            source,
            target,
            mode,
            text: text.clone(),
        }) {
            Response::TranslateOk { text, .. } => text,
            other => panic!("{name}: the engine answered {other:?}"),
        };
        let local = std::fs::read_to_string(&output).expect("read output");
        assert_eq!(local, served, "{name}: `siro {}`", args.join(" "));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
