//! Sustained load on the `siro-serve` event engine.
//!
//! Boots the daemon on loopback (`SIRO_THREADS` workers), drives it with
//! an open-loop rate sweep from `siro-loadgen` (latencies measured from
//! *scheduled* arrival — no coordinated omission), and reports the max
//! sustained RPS at the p99 SLO. The schedule is spread over many more
//! connections than there are workers, all served by one reactor thread.
//!
//! Dumps `BENCH_loadtest.json` (`siro-bench/loadtest-v1`, path
//! overridable via `SIRO_BENCH_LOADTEST_JSON`) and exits non-zero unless
//! the engine meets the SLO at every swept rate — its max sustained RPS
//! must equal the top rate.
//!
//! Knobs: `SIRO_LOADTEST_CONNS` (default 384), `SIRO_LOADTEST_DURATION_MS`
//! (default 4000 — long enough that an engine that can only *briefly*
//! survive a rate tips over instead of squeaking through the step),
//! `SIRO_LOADTEST_RATES` (comma-separated req/s, default
//! `2500,5000,10000,12000,15000,20000` — swept ascending, since max
//! sustained is prefix-monotone), `SIRO_LOADTEST_SLO_MS` (default 20).

use std::time::Duration;

use siro_bench::perf;
use siro_ir::IrVersion;
use siro_loadgen::{corpus_payloads, sweep, EngineRun, LoadgenConfig};
use siro_serve::{ServeConfig, TranslateMode};

/// Version-pair mix for the sweep. Requests use [`TranslateMode::Reference`]
/// so each request does real (but cheap) translate work on one shared core
/// and the serving core — not translator synthesis — is the variable
/// under measurement.
const PAIRS: [(IrVersion, IrVersion); 4] = [
    (IrVersion::V13_0, IrVersion::V3_6),
    (IrVersion::V12_0, IrVersion::V3_0),
    (IrVersion::V17_0, IrVersion::V12_0),
    (IrVersion::V15_0, IrVersion::V13_0),
];

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_rates(default: &[f64]) -> Vec<f64> {
    std::env::var("SIRO_LOADTEST_RATES")
        .ok()
        .map(|spec| {
            spec.split(',')
                .map(|s| s.trim().parse().expect("bad SIRO_LOADTEST_RATES entry"))
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

fn main() {
    let config = LoadgenConfig {
        connections: env_usize("SIRO_LOADTEST_CONNS", 384),
        duration: Duration::from_millis(env_usize("SIRO_LOADTEST_DURATION_MS", 4000) as u64),
        rates_rps: env_rates(&[2500.0, 5000.0, 10000.0, 12000.0, 15000.0, 20000.0]),
        slo_p99_ms: env_f64("SIRO_LOADTEST_SLO_MS", 20.0),
        payloads: corpus_payloads(&PAIRS, TranslateMode::Reference),
        connect_timeout: Duration::from_secs(10),
        warmup: true,
        ..LoadgenConfig::default()
    };
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 512,
        ..ServeConfig::default()
    })
    .expect("bind loopback server");
    siro_bench::banner(&format!(
        "loadtest [event]: {} workers on {}, {} connections, SLO p99 <= {} ms",
        handle.workers(),
        handle.addr(),
        config.connections,
        config.slo_p99_ms
    ));
    let config = LoadgenConfig {
        addr: handle.addr(),
        ..config
    };
    let report = sweep(&config).expect("rate sweep");
    print!("{}", siro_loadgen::render_table(&report));
    let run = EngineRun {
        engine: "event".to_string(),
        workers: handle.workers(),
        connections: config.connections,
        report,
    };
    handle.shutdown();

    let top = config.rates_rps.iter().copied().fold(0.0, f64::max);
    let sustained = run.report.max_sustained_rps;
    siro_bench::banner(&format!(
        "max sustained RPS at SLO: {sustained:.0} of {top:.0} swept (gate: every rate)"
    ));
    let json = siro_loadgen::render_loadtest_json(&[run]);
    match perf::write_loadtest_json(&json) {
        Ok(path) => println!("loadtest record written to {}", path.display()),
        Err(e) => eprintln!("warning: writing loadtest JSON: {e}"),
    }
    assert!(
        sustained == top,
        "the event engine sustained {sustained:.0} req/s but the sweep tops out at {top:.0}: \
         it missed the SLO at a swept rate"
    );
}
