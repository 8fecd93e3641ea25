//! # siro-loadgen — open-loop load generation for `siro-serve`
//!
//! Closed-loop clients (send, wait, send again) hide overload: when the
//! server slows down, the clients slow down with it, the offered rate
//! collapses, and the measured latency stays flattering. This crate
//! drives the daemon **open-loop** instead: requests depart on a fixed
//! arrival schedule derived from a target rate, whether or not earlier
//! responses have come back, and every latency is measured from the
//! request's *scheduled* arrival time — so sender lag (coordinated
//! omission) counts against the server rather than being silently
//! forgiven.
//!
//! A [`sweep`] walks a list of target rates, runs one fixed-duration
//! open-loop step per rate ([`run_rate`]), and reports the *max
//! sustained RPS*: the highest swept rate such that that step **and
//! every step before it** met the latency SLO with zero errors.
//! "Sustained" is prefix-monotone — sweep rates in ascending order; a
//! server that collapses at a low rate and happens to recover for one
//! higher step has not sustained the higher rate. `siro loadgen` (the
//! CLI) is a thin wrapper over this, and CI's sustained-load gate runs
//! it; the methodology is documented in `docs/SERVING.md`
//! § "siro-loadgen — open-loop load generation".
//!
//! The schedule is partitioned round-robin across N connections, each
//! owned by a sender thread (writes frames at their scheduled times)
//! and a reader thread (drains responses and records completions), so a
//! slow response never delays an unrelated departure.

#![deny(missing_docs)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use siro_ir::{write, IrVersion};
use siro_serve::protocol::{read_frame, FrameRead, Request, Response};
use siro_serve::TranslateMode;
use siro_trace::json::{self, obj};

/// One request body in the workload mix.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Source IR version.
    pub source: IrVersion,
    /// Target IR version.
    pub target: IrVersion,
    /// Translator mode to request.
    pub mode: TranslateMode,
    /// The module text shipped on the wire.
    pub text: String,
}

/// Builds one payload per version pair from the shared test corpus
/// (each pair's first usable case), ready for [`LoadgenConfig::payloads`].
///
/// # Panics
///
/// Panics if a pair has no usable corpus case — every catalog pair does.
pub fn corpus_payloads(mix: &[(IrVersion, IrVersion)], mode: TranslateMode) -> Vec<Payload> {
    mix.iter()
        .map(|&(source, target)| {
            let case = siro_testcases::full_corpus()
                .into_iter()
                .find(|c| c.usable_for_pair(source, target))
                .unwrap_or_else(|| panic!("no corpus case usable for {source} -> {target}"));
            Payload {
                source,
                target,
                mode,
                text: write::write_module(&case.build(source)),
            }
        })
        .collect()
}

/// Everything one load-generation run needs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The daemon to drive.
    pub addr: SocketAddr,
    /// Client connections the arrival schedule is partitioned across.
    pub connections: usize,
    /// Wall-clock length of each rate step.
    pub duration: Duration,
    /// Target arrival rates (requests/second) to sweep, in order.
    pub rates_rps: Vec<f64>,
    /// The latency SLO: a rate step passes only if its p99 (measured
    /// from scheduled arrival) stays at or below this.
    pub slo_p99_ms: f64,
    /// The workload mix; requests cycle through it round-robin.
    pub payloads: Vec<Payload>,
    /// TCP connect timeout per connection.
    pub connect_timeout: Duration,
    /// When true, every payload is sent once (and awaited) before the
    /// sweep so cold synthesis happens outside the measured window.
    pub warmup: bool,
    /// How many times a rate step that missed the SLO is re-run before
    /// its result stands (the last attempt is kept). One retry forgives
    /// one-off interference on a noisy host — a cross-container
    /// scheduling hiccup can blow a single step's p99 — without
    /// forgiving sustained overload, which misses the re-run too.
    pub step_retries: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 4799)),
            connections: 8,
            duration: Duration::from_secs(2),
            rates_rps: vec![100.0, 200.0, 400.0, 800.0],
            slo_p99_ms: 50.0,
            payloads: Vec::new(),
            connect_timeout: Duration::from_secs(5),
            warmup: true,
            step_retries: 1,
        }
    }
}

/// What one open-loop rate step observed.
#[derive(Debug, Clone, Copy)]
pub struct RateReport {
    /// The arrival rate the schedule targeted, requests/second.
    pub target_rps: f64,
    /// Requests the schedule offered (departures planned).
    pub offered: u64,
    /// Successful responses received.
    pub completed: u64,
    /// Error responses, transport failures, and requests still
    /// unanswered when the step's grace window closed.
    pub errors: u64,
    /// Requests rejected by admission control (`Throttled`).
    pub throttled: u64,
    /// Completions per second of wall-clock step time.
    pub achieved_rps: f64,
    /// Median latency from scheduled arrival, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// True when every offered request completed successfully and the
    /// p99 stayed within the SLO.
    pub slo_met: bool,
}

/// A full rate sweep against one server.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The SLO the sweep was judged against.
    pub slo_p99_ms: f64,
    /// One entry per swept rate, in sweep order.
    pub rates: Vec<RateReport>,
    /// The highest target rate such that its step and every earlier
    /// step in the sweep met the SLO (prefix-monotone); `0.0` when the
    /// first step already missed.
    pub max_sustained_rps: f64,
}

/// The q-quantile (`0.0 ..= 1.0`) of an ascending-sorted latency slice,
/// using the nearest-rank method; `0.0` for an empty slice.
pub fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The per-connection slice of the global arrival schedule: connection
/// `conn` of `connections` departs at offsets `conn`, `conn +
/// connections`, … of the uniform `total`-request schedule.
pub fn connection_offsets(
    total: usize,
    connections: usize,
    interval: Duration,
    conn: usize,
) -> Vec<Duration> {
    (conn..total)
        .step_by(connections.max(1))
        .map(|k| interval * k as u32)
        .collect()
}

struct ConnOutcome {
    completed: u64,
    errors: u64,
    throttled: u64,
    latencies_ms: Vec<f64>,
}

/// Runs one open-loop step at `rate_rps` for `config.duration`.
///
/// # Errors
///
/// Fails only on setup problems (connecting the client sockets);
/// in-flight transport failures are folded into
/// [`RateReport::errors`].
pub fn run_rate(config: &LoadgenConfig, rate_rps: f64) -> Result<RateReport, String> {
    assert!(rate_rps > 0.0, "arrival rate must be positive");
    assert!(!config.payloads.is_empty(), "payload mix must be non-empty");
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let total = ((config.duration.as_secs_f64() * rate_rps) as usize).max(1);
    let connections = config.connections.max(1);

    // Connect everything first; the schedule starts once all sockets are
    // up so connect time never eats into the measured window.
    let mut socks = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream = TcpStream::connect_timeout(&config.addr, config.connect_timeout)
            .map_err(|e| format!("connect {i} to {}: {e}", config.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .map_err(|e| e.to_string())?;
        socks.push(stream);
    }

    // The schedule clock starts only once every sender and reader thread
    // is up: spawning 2×connections threads takes real time, and letting
    // arrivals come due during the spawn storm would book thread-start
    // lag as server latency.
    let ready = Arc::new(Barrier::new(2 * connections + 1));
    let start_cell: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let grace = Duration::from_secs(10);
    let mut pairs = Vec::new();
    for (conn, stream) in socks.into_iter().enumerate() {
        let offsets = Arc::new(connection_offsets(total, connections, interval, conn));
        // Frames are pre-encoded so the timed sender loop is a clock
        // wait plus a write.
        let frames: Vec<Vec<u8>> = offsets
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let p = &config.payloads[(conn + i * connections) % config.payloads.len()];
                let body = Request::Translate {
                    source: p.source.into(),
                    target: p.target.into(),
                    mode: p.mode,
                    text: p.text.clone(),
                }
                .encode(i as u64 + 1);
                let mut frame = (body.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(&body);
                frame
            })
            .collect();

        let sent = Arc::new(AtomicUsize::new(0));
        let sender_done = Arc::new(AtomicBool::new(false));
        let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;

        let sender = {
            let offsets = Arc::clone(&offsets);
            let sent = Arc::clone(&sent);
            let sender_done = Arc::clone(&sender_done);
            let ready = Arc::clone(&ready);
            let start_cell = Arc::clone(&start_cell);
            let mut stream = stream;
            std::thread::spawn(move || {
                ready.wait();
                ready.wait();
                let start = *start_cell.get().expect("start published before go");
                for (i, off) in offsets.iter().enumerate() {
                    let due = start + *off;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if stream.write_all(&frames[i]).is_err() {
                        break;
                    }
                    sent.store(i + 1, Ordering::Release);
                }
                sender_done.store(true, Ordering::Release);
            })
        };

        let reader = {
            let offsets = Arc::clone(&offsets);
            let sent = Arc::clone(&sent);
            let sender_done = Arc::clone(&sender_done);
            let ready = Arc::clone(&ready);
            let start_cell = Arc::clone(&start_cell);
            let duration = config.duration;
            let mut stream = reader_stream;
            std::thread::spawn(move || {
                ready.wait();
                ready.wait();
                let start = *start_cell.get().expect("start published before go");
                let deadline = start + duration + grace;
                let mut out = ConnOutcome {
                    completed: 0,
                    errors: 0,
                    throttled: 0,
                    latencies_ms: Vec::with_capacity(offsets.len()),
                };
                let mut received = 0usize;
                loop {
                    if sender_done.load(Ordering::Acquire)
                        && received >= sent.load(Ordering::Acquire)
                    {
                        break;
                    }
                    if Instant::now() >= deadline {
                        break;
                    }
                    match read_frame(&mut stream) {
                        Ok(FrameRead::Payload(p)) => {
                            received += 1;
                            let Ok((id, response)) = Response::decode(&p) else {
                                out.errors += 1;
                                continue;
                            };
                            let index = (id as usize).saturating_sub(1);
                            match response {
                                Response::TranslateOk { .. } => {
                                    out.completed += 1;
                                    if let Some(off) = offsets.get(index) {
                                        let scheduled = start + *off;
                                        let lat =
                                            Instant::now().saturating_duration_since(scheduled);
                                        out.latencies_ms.push(lat.as_secs_f64() * 1e3);
                                    }
                                }
                                Response::Throttled { .. } => out.throttled += 1,
                                _ => out.errors += 1,
                            }
                        }
                        Ok(FrameRead::Idle) => continue,
                        Ok(FrameRead::Eof) | Err(_) => break,
                    }
                }
                out
            })
        };
        pairs.push((sender, reader));
    }

    // First wait: every thread is spawned and parked. Publish the start
    // instant, then release everyone together on the second wait.
    ready.wait();
    start_cell
        .set(Instant::now() + Duration::from_millis(20))
        .expect("start set once");
    ready.wait();

    let mut latencies = Vec::with_capacity(total);
    let (mut completed, mut errors, mut throttled) = (0u64, 0u64, 0u64);
    for (sender, reader) in pairs {
        sender.join().map_err(|_| "sender thread panicked")?;
        let out = reader.join().map_err(|_| "reader thread panicked")?;
        completed += out.completed;
        errors += out.errors;
        throttled += out.throttled;
        latencies.extend(out.latencies_ms);
    }
    let offered = total as u64;
    // Whatever never came back before the grace window closed is a loss.
    errors += offered.saturating_sub(completed + throttled + errors);
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let p99 = percentile_ms(&latencies, 0.99);
    Ok(RateReport {
        target_rps: rate_rps,
        offered,
        completed,
        errors,
        throttled,
        achieved_rps: completed as f64 / config.duration.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: p99,
        p999_ms: percentile_ms(&latencies, 0.999),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        slo_met: completed == offered && errors == 0 && throttled == 0 && p99 <= config.slo_p99_ms,
    })
}

/// Sends every payload once over one connection and waits for the
/// responses, so cold synthesis lands outside the measured steps.
///
/// # Errors
///
/// Propagates connect/translate failures — a warmup that cannot
/// complete means the sweep would only measure noise.
pub fn warm_pairs(config: &LoadgenConfig) -> Result<(), String> {
    let mut client = siro_serve::Client::connect(config.addr, config.connect_timeout)
        .map_err(|e| format!("warmup connect: {e}"))?;
    for p in &config.payloads {
        client
            .translate(p.source, p.target, p.mode, p.text.clone())
            .map_err(|e| format!("warmup {} -> {}: {e}", p.source, p.target))?;
    }
    Ok(())
}

/// Sweeps every configured rate and finds the max sustained RPS.
///
/// # Errors
///
/// Propagates warmup and per-step setup failures.
pub fn sweep(config: &LoadgenConfig) -> Result<LoadReport, String> {
    if config.warmup {
        warm_pairs(config)?;
    }
    let mut rates = Vec::with_capacity(config.rates_rps.len());
    for &rate in &config.rates_rps {
        let mut step = run_rate(config, rate)?;
        for _ in 0..config.step_retries {
            if step.slo_met {
                break;
            }
            step = run_rate(config, rate)?;
        }
        rates.push(step);
    }
    // "Sustained" is prefix-monotone: a server that blows the SLO at a
    // low rate has not sustained any higher rate, even if a later step
    // happens to squeak through — metastable engines (thread-per-
    // connection under scheduler pressure) produce exactly that pattern.
    let max_sustained_rps = rates
        .iter()
        .take_while(|r| r.slo_met)
        .map(|r| r.target_rps)
        .fold(0.0, f64::max);
    Ok(LoadReport {
        slo_p99_ms: config.slo_p99_ms,
        rates,
        max_sustained_rps,
    })
}

/// One labelled sweep, as recorded in the loadtest JSON.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Which server was swept: `"event"` for an in-process daemon,
    /// `"remote"` for a running one.
    pub engine: String,
    /// Worker threads the server ran with.
    pub workers: usize,
    /// Client connections the schedule was partitioned across.
    pub connections: usize,
    /// The sweep itself.
    pub report: LoadReport,
}

/// Renders the `siro-bench/loadtest-v1` JSON document for a set of
/// sweeps.
pub fn render_loadtest_json(runs: &[EngineRun]) -> String {
    let engines = runs.iter().map(|run| {
        let rates = run.report.rates.iter().map(|r| {
            obj([
                ("target_rps", r.target_rps.into()),
                ("offered", r.offered.into()),
                ("completed", r.completed.into()),
                ("errors", r.errors.into()),
                ("throttled", r.throttled.into()),
                ("achieved_rps", r.achieved_rps.into()),
                ("p50_ms", r.p50_ms.into()),
                ("p99_ms", r.p99_ms.into()),
                ("p999_ms", r.p999_ms.into()),
                ("max_ms", r.max_ms.into()),
                ("slo_met", r.slo_met.into()),
            ])
        });
        obj([
            ("engine", run.engine.as_str().into()),
            ("workers", run.workers.into()),
            ("connections", run.connections.into()),
            ("slo_p99_ms", run.report.slo_p99_ms.into()),
            ("max_sustained_rps", run.report.max_sustained_rps.into()),
            ("rates", rates.collect()),
        ])
    });
    json::render(&obj([
        ("schema", "siro-bench/loadtest-v1".into()),
        ("engines", engines.collect()),
    ]))
}

/// Renders the human-readable sweep table printed by `siro loadgen`.
pub fn render_table(report: &LoadReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}  slo",
        "target_rps",
        "offered",
        "done",
        "errs",
        "throttled",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms"
    );
    for r in &report.rates {
        let _ = writeln!(
            out,
            "{:>10.1} {:>8} {:>8} {:>7} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {}",
            r.target_rps,
            r.offered,
            r.completed,
            r.errors,
            r.throttled,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.max_ms,
            if r.slo_met { "ok" } else { "MISS" }
        );
    }
    let _ = writeln!(
        out,
        "max sustained rate at p99 <= {:.1} ms: {:.1} req/s",
        report.slo_p99_ms, report.max_sustained_rps
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_ms(&v, 0.50), 50.0);
        assert_eq!(percentile_ms(&v, 0.99), 99.0);
        assert_eq!(percentile_ms(&v, 0.999), 100.0);
        assert_eq!(percentile_ms(&v, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
        assert_eq!(percentile_ms(&[7.5], 0.5), 7.5);
    }

    #[test]
    fn schedule_partition_covers_every_arrival_exactly_once() {
        let interval = Duration::from_millis(10);
        let (total, connections) = (103, 8);
        let mut all: Vec<Duration> = (0..connections)
            .flat_map(|c| connection_offsets(total, connections, interval, c))
            .collect();
        assert_eq!(all.len(), total);
        all.sort();
        for (k, off) in all.iter().enumerate() {
            assert_eq!(*off, interval * k as u32, "arrival {k}");
        }
    }

    #[test]
    fn corpus_payloads_cover_the_mix() {
        let mix = [
            (IrVersion::V13_0, IrVersion::V3_6),
            (IrVersion::V12_0, IrVersion::V3_0),
        ];
        let payloads = corpus_payloads(&mix, TranslateMode::Reference);
        assert_eq!(payloads.len(), 2);
        for (p, (src, tgt)) in payloads.iter().zip(mix) {
            assert_eq!((p.source, p.target), (src, tgt));
            assert!(p.text.contains("IR version"), "payload carries module text");
        }
    }

    #[test]
    fn loadtest_json_names_the_engine_and_its_sweep() {
        let report = LoadReport {
            slo_p99_ms: 50.0,
            rates: vec![RateReport {
                target_rps: 100.0,
                offered: 200,
                completed: 200,
                errors: 0,
                throttled: 0,
                achieved_rps: 100.0,
                p50_ms: 1.0,
                p99_ms: 2.0,
                p999_ms: 3.0,
                max_ms: 4.0,
                slo_met: true,
            }],
            max_sustained_rps: 100.0,
        };
        let run = EngineRun {
            engine: "event".into(),
            workers: 4,
            connections: 8,
            report,
        };
        let json = render_loadtest_json(&[run]);
        assert!(json.contains("\"schema\": \"siro-bench/loadtest-v1\""));
        assert!(json.contains("\"engine\": \"event\""));
        assert!(json.contains("\"max_sustained_rps\": 100.000"));
        assert!(json.contains("\"slo_met\": true"));
    }
}
