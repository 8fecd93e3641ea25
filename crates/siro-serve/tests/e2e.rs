//! End-to-end tests over a real loopback socket: byte-identical
//! translation, request coalescing, backpressure, pipelining, error
//! mapping, framing errors, and graceful shutdown.
//!
//! Each test starts its own server on an ephemeral port, so the tests are
//! independent and can run concurrently. The `TranslatorCache` is
//! process-global, so tests that assert cold-pair behaviour each reserve
//! a version pair no other test in this binary touches.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use siro_core::{ReferenceTranslator, Skeleton};
use siro_ir::{parse, write, IrVersion};
use siro_serve::protocol::{read_frame, FrameRead, MAX_FRAME};
use siro_serve::{
    metrics_value, stats_value, AdmissionConfig, Client, ClientError, ErrorCode, Response,
    ServeConfig, TranslateMode,
};

const TIMEOUT: Duration = Duration::from_secs(30);

/// The `TranslatorCache` counters are process-global, and several tests
/// below assert *exact* deltas on them — so the tests in this binary run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server(threads: usize, queue: usize) -> siro_serve::ServerHandle {
    siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(threads),
        queue_capacity: queue,
        ..ServeConfig::default()
    })
    .expect("server must bind an ephemeral port")
}

fn corpus_module_text(version: IrVersion, target: IrVersion, index: usize) -> String {
    let usable: Vec<_> = siro_testcases::full_corpus()
        .into_iter()
        .filter(|c| c.usable_for_pair(version, target))
        .collect();
    write::write_module(&usable[index % usable.len()].build(version))
}

/// Acceptance: a module translated over the socket is byte-identical to
/// the same translation done in-process, for two version pairs and both
/// translator modes.
#[test]
fn served_translation_is_byte_identical_to_in_process() {
    let _serial = serial();
    let handle = start_server(2, 32);
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let pairs = [
        (IrVersion::V13_0, IrVersion::V3_6),
        (IrVersion::V12_0, IrVersion::V3_0),
    ];
    for (src, tgt) in pairs {
        for index in 0..3 {
            let text = corpus_module_text(src, tgt, index);
            let module = parse::parse_module(&text).expect("local parse");

            // Reference mode vs in-process reference translation.
            let served = client
                .translate(src, tgt, TranslateMode::Reference, text.clone())
                .expect("served reference translation");
            let local = Skeleton::new(tgt)
                .translate_module(&module, &ReferenceTranslator)
                .expect("local reference translation");
            assert_eq!(
                served.text,
                write::write_module(&local),
                "reference {src} -> {tgt} case {index} must match byte-for-byte"
            );

            // Synthesized mode vs in-process synthesized translation
            // (sharing the same process-wide TranslatorCache).
            let served = client
                .translate(src, tgt, TranslateMode::Synthesized, text.clone())
                .expect("served synthesized translation");
            let outcome = siro_bench_corpus_outcome(src, tgt);
            let local = Skeleton::new(tgt)
                .translate_module(&module, &outcome.translator)
                .expect("local synthesized translation");
            assert_eq!(
                served.text,
                write::write_module(&local),
                "synthesized {src} -> {tgt} case {index} must match byte-for-byte"
            );
        }
    }
    handle.shutdown();
}

/// The same corpus + config the server uses, so the cache key matches and
/// the in-process comparison exercises the *same* translator.
fn siro_bench_corpus_outcome(src: IrVersion, tgt: IrVersion) -> Arc<siro_synth::SynthesisOutcome> {
    siro_synth::TranslatorCache::get_or_synthesize(
        siro_synth::SynthesisConfig::new(src, tgt),
        &siro_synth::oracle_corpus(src, tgt),
    )
    .expect("synthesis")
}

/// Acceptance: M concurrent cold requests for one pair → exactly one
/// synthesis, observable in the server's coalescing counters and the
/// cache counters on the STATS page.
#[test]
fn concurrent_cold_requests_coalesce_into_one_synthesis() {
    let _serial = serial();
    // Reserved pair: no other test in this binary synthesizes 14.0 -> 3.6.
    let (src, tgt) = (IrVersion::V14_0, IrVersion::V3_6);
    let handle = start_server(8, 64);
    let addr = handle.addr();
    let before = siro_synth::TranslatorCache::snapshot();

    let threads: Vec<_> = (0..8)
        .map(|index| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, TIMEOUT).expect("connect");
                let text = corpus_module_text(src, tgt, index);
                client
                    .translate(src, tgt, TranslateMode::Synthesized, text)
                    .expect("translation under stampede")
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("join"))
        .collect();
    assert_eq!(results.len(), 8);

    // Exactly one synthesis ran for the pair…
    let (syntheses, coalesced) = handle.engine().coalescer().pair_counters(src, tgt);
    assert_eq!(syntheses, 1, "stampede must synthesize exactly once");
    assert_eq!(coalesced, 7, "the other seven requests must coalesce");
    // …and the process-wide cache counters agree (exactly one new miss
    // for this key; hits grew by at least the seven coalesced requests).
    let after = siro_synth::TranslatorCache::snapshot();
    assert_eq!(
        after.misses - before.misses,
        1,
        "cache must record one miss for the cold pair"
    );
    assert!(after.hits >= before.hits + 7);

    // STATS reflects the same numbers.
    let mut client = Client::connect(addr, TIMEOUT).expect("connect");
    let page = client.stats().expect("stats");
    assert_eq!(stats_value(&page, "pairs_synthesized"), Some(1));
    assert_eq!(stats_value(&page, "coalesced_waiters"), Some(7));
    handle.shutdown();
}

/// Acceptance: a saturated bounded queue answers `Busy` instead of
/// blocking. One worker is pinned by a slow ping; the queue (capacity 1)
/// is filled by a second; the next request must be rejected immediately.
#[test]
fn saturated_queue_answers_busy_without_blocking() {
    let _serial = serial();
    let handle = start_server(1, 1);
    let addr = handle.addr();

    let mut filler = Client::connect(addr, TIMEOUT).expect("connect filler");
    // Request 1 occupies the single worker for ~1.5 s.
    filler.ping_nowait(1500).expect("send slow ping");
    // Request 2 sits in the single queue slot.
    std::thread::sleep(Duration::from_millis(200));
    filler.ping_nowait(1500).expect("send queued ping");
    std::thread::sleep(Duration::from_millis(200));

    // Request 3 must bounce with Busy, and must do so immediately — far
    // sooner than the ~2.6 s the worker needs to drain the backlog.
    let mut probe = Client::connect(addr, TIMEOUT).expect("connect probe");
    let t0 = std::time::Instant::now();
    let err = probe.ping(0).expect_err("queue is saturated");
    let elapsed = t0.elapsed();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other}"),
    }
    assert!(
        elapsed < Duration::from_millis(1000),
        "busy rejection must not block behind the queue (took {elapsed:?})"
    );

    // The filler's two slow pings still complete (backpressure rejected
    // new work, it did not drop accepted work).
    let (_, first) = filler.recv_response().expect("first pong");
    let (_, second) = filler.recv_response().expect("second pong");
    assert_eq!(first, Response::Pong);
    assert_eq!(second, Response::Pong);

    let page = probe.stats().expect("stats");
    assert_eq!(stats_value(&page, "requests_busy"), Some(1));
    handle.shutdown();
}

/// Pipelined batches on one connection come back complete and in order.
#[test]
fn pipelined_batch_preserves_request_order() {
    let _serial = serial();
    let handle = start_server(4, 64);
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_0);
    let batch: Vec<_> = (0..12)
        .map(|i| {
            (
                src,
                tgt,
                TranslateMode::Reference,
                corpus_module_text(src, tgt, i),
            )
        })
        .collect();
    let results = client.translate_batch(&batch).expect("batch");
    assert_eq!(results.len(), 12);
    for (i, r) in results.iter().enumerate() {
        let out = r.as_ref().expect("each batched translation succeeds");
        let module = parse::parse_module(&batch[i].3).expect("parse");
        let local = Skeleton::new(tgt)
            .translate_module(&module, &ReferenceTranslator)
            .expect("local");
        assert_eq!(out.text, write::write_module(&local), "slot {i}");
    }
    handle.shutdown();
}

/// Server-side failures arrive as structured codes, and the connection
/// (and server) survive them.
#[test]
fn errors_are_structured_and_nonfatal() {
    let _serial = serial();
    let handle = start_server(2, 16);
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");

    let err = client
        .translate(
            IrVersion::V13_0,
            IrVersion::V3_6,
            TranslateMode::Reference,
            "not ir at all",
        )
        .expect_err("malformed module must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Parse),
        other => panic!("expected Parse error, got {other}"),
    }

    // Same connection keeps working afterwards.
    let text = corpus_module_text(IrVersion::V13_0, IrVersion::V3_6, 0);
    client
        .translate(
            IrVersion::V13_0,
            IrVersion::V3_6,
            TranslateMode::Reference,
            text,
        )
        .expect("connection survives a request-level error");
    handle.shutdown();
}

/// A wire Shutdown drains in-flight work before the server exits: a slow
/// request accepted before the shutdown still completes.
#[test]
fn wire_shutdown_drains_in_flight_requests() {
    let _serial = serial();
    let handle = start_server(1, 8);
    let addr = handle.addr();

    let mut slow = Client::connect(addr, TIMEOUT).expect("connect slow");
    slow.ping_nowait(800).expect("send slow ping");
    std::thread::sleep(Duration::from_millis(100));

    let mut admin = Client::connect(addr, TIMEOUT).expect("connect admin");
    admin.shutdown().expect("shutdown ack");

    // The in-flight slow ping must still be answered.
    let (_, response) = slow.recv_response().expect("drained response");
    assert_eq!(response, Response::Pong);

    handle.wait();

    // And the port is actually closed afterwards.
    assert!(
        Client::connect(addr, Duration::from_millis(300)).is_err(),
        "server must stop accepting after shutdown"
    );
}

/// A length prefix over `MAX_FRAME` is answered with `Malformed` (id 0)
/// before the server closes the connection: after a framing error the
/// stream can no longer be trusted to be in sync.
#[test]
fn oversized_length_prefix_answers_malformed_then_closes() {
    let _serial = serial();
    let handle = start_server(1, 4);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream
        .write_all(&(MAX_FRAME as u32 + 1).to_be_bytes())
        .expect("write the length prefix");
    let Ok(FrameRead::Payload(payload)) = read_frame(&mut stream) else {
        panic!("the server must answer before it closes");
    };
    match Response::decode(&payload).expect("decode the answer") {
        (
            0,
            Response::Error {
                code: ErrorCode::Malformed,
                message,
            },
        ) => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected Malformed with id 0, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut stream), Ok(FrameRead::Eof)),
        "the server closes the connection after answering"
    );
    handle.shutdown();
}

/// Acceptance: the event engine holds more concurrent open connections
/// than it has worker threads, all served by one reactor thread.
#[test]
fn event_engine_holds_more_connections_than_workers() {
    let _serial = serial();
    let workers = 2;
    let handle = start_server(workers, 64);
    let addr = handle.addr();
    let total = workers * 8 + 4;

    // Open all connections first, then round-trip a ping on each while
    // every other connection stays open.
    let mut clients: Vec<Client> = (0..total)
        .map(|i| Client::connect(addr, TIMEOUT).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.ping(0).unwrap_or_else(|e| panic!("ping {i}: {e}"));
    }

    let open = handle
        .reactor_stats()
        .open_connections
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        open, total as u64,
        "all {total} connections must be open at once"
    );
    assert!(
        open > handle.workers() as u64,
        "open connections ({open}) must exceed the worker count ({})",
        handle.workers()
    );
    drop(clients);
    handle.shutdown();
}

/// Admission control: a peer that exceeds its per-client budget gets a
/// structured `Throttled` with a positive retry-after, the connection
/// survives, and the request is counted — while control requests (STATS)
/// stay exempt.
#[test]
fn over_budget_peer_is_throttled_with_retry_after() {
    let _serial = serial();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        queue_capacity: 16,
        admission: AdmissionConfig {
            rate_per_sec: Some(1.0),
            burst: Some(1.0),
        },
        ..ServeConfig::default()
    })
    .expect("server must bind an ephemeral port");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");

    // The bucket starts full: the first request is admitted.
    client.ping(0).expect("first request is within budget");
    // The second arrives immediately after and must be throttled.
    let err = client.ping(0).expect_err("budget is spent");
    match err {
        ClientError::Throttled {
            retry_after_ms,
            ref message,
        } => {
            assert!(
                (1..=60_000).contains(&retry_after_ms),
                "retry-after must be a sane positive backoff, got {retry_after_ms} ms"
            );
            assert!(
                message.contains("budget"),
                "message should explain the throttle: {message:?}"
            );
        }
        other => panic!("expected Throttled, got {other}"),
    }

    // STATS is a control request — exempt from admission — and reports
    // the throttle; the connection survived the rejection.
    let page = client.stats().expect("stats is exempt from admission");
    assert_eq!(stats_value(&page, "requests_throttled"), Some(1));
    handle.shutdown();
}

/// The METRICS endpoint serves a Prometheus-style page over the socket,
/// its counters move after a translate, and it always reports the
/// `siro-trace` enabled/disabled gauge so operators can tell traced runs
/// apart.
#[test]
fn metrics_over_the_socket_parse_and_move() {
    let _serial = serial();
    let handle = start_server(2, 16);
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");

    let before = client.metrics().expect("metrics page");
    let served_before = metrics_value(&before, "siro_requests_total").expect("requests sample");
    let translated_before =
        metrics_value(&before, "siro_translations_total").expect("translations sample");
    // The trace state gauge is always present, whatever its value.
    let trace_gauge = metrics_value(&before, "siro_trace_enabled").expect("trace gauge");
    assert!(trace_gauge <= 1, "gauge is 0 or 1, got {trace_gauge}");
    // Every sample carries a TYPE declaration (Prometheus exposition shape).
    for line in before.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(' ').next().unwrap();
        assert!(
            before.contains(&format!("# TYPE {name} ")),
            "sample `{line}` lacks a TYPE comment"
        );
    }

    let text = corpus_module_text(IrVersion::V13_0, IrVersion::V3_6, 0);
    client
        .translate(
            IrVersion::V13_0,
            IrVersion::V3_6,
            TranslateMode::Reference,
            text,
        )
        .expect("translate");

    let after = client.metrics().expect("metrics page again");
    let served_after = metrics_value(&after, "siro_requests_total").expect("requests sample");
    let translated_after =
        metrics_value(&after, "siro_translations_total").expect("translations sample");
    // The translate plus the first metrics fetch both count as requests.
    assert!(
        served_after >= served_before + 2,
        "requests_total must move: {served_before} -> {served_after}"
    );
    assert_eq!(
        translated_after,
        translated_before + 1,
        "exactly one translation ran"
    );
    // The in-process rendering is the same code path as the wire page.
    let inproc = handle.metrics_page();
    assert!(metrics_value(&inproc, "siro_requests_total").is_some());
    handle.shutdown();
}
