//! Smoke test: a short open-loop step against a real in-process server
//! completes every scheduled request with zero protocol errors.

use std::time::Duration;

use siro_ir::IrVersion;
use siro_loadgen::{corpus_payloads, sweep, LoadgenConfig};
use siro_serve::{ServeConfig, TranslateMode};

#[test]
fn short_open_loop_step_completes_cleanly() {
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind loopback server");

    let config = LoadgenConfig {
        addr: handle.addr(),
        connections: 4,
        duration: Duration::from_millis(500),
        rates_rps: vec![100.0],
        slo_p99_ms: 5_000.0,
        payloads: corpus_payloads(
            &[(IrVersion::V13_0, IrVersion::V3_6)],
            TranslateMode::Reference,
        ),
        connect_timeout: Duration::from_secs(5),
        warmup: true,
        step_retries: 0,
    };
    let report = sweep(&config).expect("sweep");
    assert_eq!(report.rates.len(), 1);
    let r = &report.rates[0];
    assert_eq!(r.offered, 50, "0.5 s at 100 req/s schedules 50 arrivals");
    assert_eq!(r.completed, r.offered, "every scheduled request completes");
    assert_eq!(r.errors, 0);
    assert_eq!(r.throttled, 0);
    assert!(r.slo_met, "p99 {} ms within generous SLO", r.p99_ms);
    assert!(report.max_sustained_rps >= 100.0);
    handle.shutdown();
}
