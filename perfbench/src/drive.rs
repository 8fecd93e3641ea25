//! The untraced run: closed-loop callers drive the release daemon over
//! loopback, every response is checked, and the end-to-end metrics are
//! taken from what the callers observe and from `/proc`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use siro_serve::{Client, TranslateMode, Translated};

use crate::daemon::{self, Daemon};
use crate::payload::{check, Payload};
use crate::util::{self, Cycle};

/// Connect and per-socket I/O timeout of every caller.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a caller waits for one reply; a cold synthesis takes well
/// under a second.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// One reply as a caller saw it.
pub struct Reply {
    /// Send → full response, in nanoseconds.
    pub latency_ns: u64,
    /// The translation, or a one-line failure reason.
    pub result: Result<Translated, String>,
}

/// A connected caller.
pub struct Caller(Client);

impl Caller {
    /// Connects with the benchmark's timeouts.
    ///
    /// # Errors
    ///
    /// When the daemon does not accept the connection.
    pub fn connect(daemon: &Daemon) -> Result<Caller, String> {
        let mut client = Client::connect(daemon.addr, CONNECT_TIMEOUT)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        client.set_op_timeout(Some(OP_TIMEOUT));
        Ok(Caller(client))
    }

    /// Sends one request and waits for its reply.
    pub fn send(&mut self, p: &Payload) -> Reply {
        let t = Instant::now();
        let result = self
            .0
            .translate(
                p.source,
                p.target,
                TranslateMode::Synthesized,
                p.text.as_str(),
            )
            .map_err(|e| e.to_string());
        Reply {
            latency_ns: t.elapsed().as_nanos() as u64,
            result,
        }
    }
}

/// What a later response to a payload must equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The payload's first response passed its reference check; later
    /// responses must be byte-identical to it.
    Bytes(String),
    /// The first response failed; later responses are checked against
    /// the reference afresh.
    Unchecked,
}

/// Counts and samples of one phase, merged across callers.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: a server error, a transport error, a
    /// response that failed its reference, or one that differs from the
    /// payload's checked response.
    pub failed: u64,
    /// Client latency of each checked-correct response (ms).
    pub latencies_ms: Vec<f64>,
    /// Latency of correct responses whose translator was synthesized by
    /// the request (`cache_hit == false`), in ms, keyed by pair.
    pub synth_ms: Vec<(String, f64)>,
    /// The daemon's `StageNanos.total` of each correct response (µs).
    pub stage_total_us: Vec<f64>,
    /// Client latency minus `StageNanos.total` (µs).
    pub wire_us: Vec<f64>,
    /// Failure census: `pair case: reason` → count.
    pub census: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one reply judged against `verdict`.
    pub fn record(&mut self, p: &Payload, reply: &Reply, verdict: Result<(), String>) {
        self.attempted += 1;
        let failure = match (&reply.result, verdict) {
            (Ok(t), Ok(())) => {
                let ms = reply.latency_ns as f64 / 1e6;
                self.latencies_ms.push(ms);
                if !t.cache_hit {
                    self.synth_ms
                        .push((format!("{}->{}", p.source, p.target), ms));
                }
                let total_us = t.timings.total as f64 / 1e3;
                self.stage_total_us.push(total_us);
                self.wire_us.push(reply.latency_ns as f64 / 1e3 - total_us);
                return;
            }
            (Ok(_), Err(why)) => why,
            (Err(e), _) => e.clone(),
        };
        self.failed += 1;
        let reason: String = failure.chars().take(120).collect();
        *self
            .census
            .entry(format!("{}: {reason}", p.label))
            .or_default() += 1;
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.synth_ms.extend(other.synth_ms);
        self.stage_total_us.extend(other.stage_total_us);
        self.wire_us.extend(other.wire_us);
        for (k, v) in other.census {
            *self.census.entry(k).or_default() += v;
        }
    }

    /// Checked-correct responses.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Judges a reply against the payload's expectation. Wrong answers —
/// a success that fails its reference — are reported separately from
/// server errors, so the run can say whether any output was wrong.
pub fn judge(p: &Payload, expect: &Expect, reply: &Reply) -> Result<(), String> {
    let Ok(t) = &reply.result else {
        return Ok(());
    };
    match expect {
        Expect::Bytes(b) if *b == t.text => Ok(()),
        Expect::Bytes(_) => Err("differs from the payload's checked response".into()),
        Expect::Unchecked => check(p, &t.text),
    }
}

/// Whether any reply in `replies` was a success that failed its check.
fn wrong_answers(verdicts: &[Result<(), String>], replies: &[Reply]) -> u64 {
    verdicts
        .iter()
        .zip(replies)
        .filter(|(v, r)| r.result.is_ok() && v.is_err())
        .count() as u64
}

/// A timed closed-loop window: its span and what the callers saw.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// First send to last reply, in seconds.
    pub seconds: f64,
    /// Everything the callers recorded.
    pub tally: Tally,
    /// Successes that failed their reference or the byte comparison.
    pub wrong: u64,
}

impl Window {
    /// Adds another window: its time, samples and counts.
    pub fn absorb(&mut self, other: &Window) {
        self.seconds += other.seconds;
        self.tally.merge(other.tally.clone());
        self.wrong += other.wrong;
    }

    /// Checked-correct responses per second.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tally.ok() as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Walks `payloads` once, in order, on one connection. Returns the
/// replies and the instant the last one arrived; nothing is checked
/// while the clock runs.
fn walk(caller: &mut Caller, payloads: &[Payload]) -> (Vec<Reply>, Instant) {
    let replies = payloads.iter().map(|p| caller.send(p)).collect();
    (replies, Instant::now())
}

/// Checks first responses against their references and returns what
/// later responses must equal, plus the tally and wrong-answer count.
fn check_first(payloads: &[Payload], replies: &[Reply]) -> (Vec<Expect>, Tally, u64) {
    let mut tally = Tally::default();
    let mut expects = Vec::with_capacity(payloads.len());
    let mut verdicts = Vec::with_capacity(payloads.len());
    for (p, r) in payloads.iter().zip(replies) {
        let verdict = judge(p, &Expect::Unchecked, r);
        expects.push(match (&r.result, &verdict) {
            (Ok(t), Ok(())) => Expect::Bytes(t.text.clone()),
            _ => Expect::Unchecked,
        });
        tally.record(p, r, verdict.clone());
        verdicts.push(verdict);
    }
    let wrong = wrong_answers(&verdicts, replies);
    (expects, tally, wrong)
}

/// One caller's closed loop: take the next payload of its cycle, send,
/// wait for the reply, judge it, repeat until `stop` says so (checked
/// before every send).
fn closed_loop(
    send: &mut dyn FnMut(&Payload) -> Reply,
    payloads: &[Payload],
    expects: &[Expect],
    order: &mut Cycle,
    stop: &dyn Fn() -> bool,
) -> (Tally, u64) {
    let mut tally = Tally::default();
    let mut wrong = 0;
    while !stop() {
        let i = order.next_index();
        let reply = send(&payloads[i]);
        let verdict = judge(&payloads[i], &expects[i], &reply);
        if reply.result.is_ok() && verdict.is_err() {
            wrong += 1;
        }
        tally.record(&payloads[i], &reply, verdict);
    }
    (tally, wrong)
}

/// Runs `callers` closed loops for `duration`; the window spans from the
/// start until the last caller's last reply.
fn hot_window(
    daemon: &Daemon,
    payloads: &[Payload],
    expects: &[Expect],
    duration: Duration,
    seed: u64,
    stream: u64,
) -> Result<Window, String> {
    let mut conns = (0..daemon::callers())
        .map(|_| Caller::connect(daemon))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(Tally, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut order =
                        Cycle::new(payloads.len(), util::rng(seed, stream * 16 + c as u64));
                    closed_loop(
                        &mut |p| conn.send(p),
                        payloads,
                        expects,
                        &mut order,
                        &|| Instant::now() >= deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut window = Window {
        seconds,
        ..Window::default()
    };
    for (t, w) in results {
        window.tally.merge(t);
        window.wrong += w;
    }
    Ok(window)
}

/// One daemon lifetime of a hot workload.
#[derive(Debug, Clone, Default)]
pub struct Lifetime {
    /// Spawn → every distinct payload answered once (s).
    pub setup_s: f64,
    /// The closed-loop window (absent for boot-only lifetimes).
    pub window: Option<Window>,
    /// Daemon user + system CPU over the window (s).
    pub cpu_s: f64,
    /// Daemon `VmHWM` at the end of the lifetime (MiB).
    pub peak_rss_mb: f64,
    /// What the first pass and the window recorded.
    pub tally: Tally,
    /// Wrong answers seen.
    pub wrong: u64,
    /// Store files written during the lifetime.
    pub writes: util::StoreWrites,
}

/// Boots a daemon on the store in `dir`, answers every distinct payload
/// once, and then (when `window` is set) runs the closed loop.
pub fn hot_lifetime(
    siro: &Path,
    dir: &Path,
    payloads: &[Payload],
    window: Option<Duration>,
    seed: u64,
    stream: u64,
) -> Result<Lifetime, String> {
    let before = util::snapshot_dir(dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn(siro, dir)?;
    let mut caller = Caller::connect(&daemon)?;
    let (replies, done) = walk(&mut caller, payloads);
    let setup_s = done.duration_since(daemon.spawned).as_secs_f64();
    drop(caller);
    let (expects, mut tally, mut wrong) = check_first(payloads, &replies);
    let mut life = Lifetime {
        setup_s,
        ..Lifetime::default()
    };
    if let Some(duration) = window {
        let cpu0 = util::cpu_seconds(daemon.pid()).map_err(|e| e.to_string())?;
        let w = hot_window(&daemon, payloads, &expects, duration, seed, stream)?;
        let cpu1 = util::cpu_seconds(daemon.pid()).map_err(|e| e.to_string())?;
        life.cpu_s = cpu1 - cpu0;
        tally.merge(w.tally.clone());
        wrong += w.wrong;
        life.window = Some(w);
    }
    life.peak_rss_mb =
        util::status_mib(&daemon.pid().to_string(), "VmHWM").map_err(|e| e.to_string())?;
    daemon.shutdown();
    let after = util::snapshot_dir(dir).map_err(|e| e.to_string())?;
    life.writes = util::store_writes(&before, &after);
    life.tally = tally;
    life.wrong = wrong;
    Ok(life)
}

/// One cold walk: a daemon on a copy of `store` (or an empty store), one
/// caller walking `sweep` once, and — for `cold_sweep` — a hot caller
/// requesting `hot` until the walk ends.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Spawn → every hot payload answered once (s); 0 without hot
    /// payloads.
    pub setup_s: f64,
    /// Cold caller's first request → last reply (s).
    pub sweep_s: f64,
    /// The cold caller's replies.
    pub cold: Tally,
    /// The cold payloads whose reply says the request synthesized.
    pub synthesized: Vec<Payload>,
    /// The hot caller during the walk.
    pub hot: Window,
    /// Daemon user + system CPU over the walk (s).
    pub cpu_s: f64,
    /// Daemon `VmHWM` at the end of the round (MiB).
    pub peak_rss_mb: f64,
    /// Everything recorded, first passes included.
    pub tally: Tally,
    /// Wrong answers seen.
    pub wrong: u64,
    /// Store files written during the round.
    pub writes: util::StoreWrites,
}

/// Runs one cold walk.
pub fn cold_round(
    siro: &Path,
    store: Option<&Path>,
    dir: &Path,
    sweep: &[Payload],
    hot: &[Payload],
    seed: u64,
    stream: u64,
) -> Result<Round, String> {
    match store {
        Some(s) => util::copy_dir(s, dir),
        None => std::fs::create_dir_all(dir),
    }
    .map_err(|e| format!("preparing the round's store: {e}"))?;
    let before = util::snapshot_dir(dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn(siro, dir)?;
    let mut round = Round::default();
    let mut tally = Tally::default();
    let mut wrong = 0;
    let mut hot_caller = Caller::connect(&daemon)?;
    let mut hot_expects = Vec::new();
    if !hot.is_empty() {
        let (replies, done) = walk(&mut hot_caller, hot);
        round.setup_s = done.duration_since(daemon.spawned).as_secs_f64();
        let (e, t, w) = check_first(hot, &replies);
        hot_expects = e;
        tally.merge(t);
        wrong += w;
    }
    let mut cold_caller = Caller::connect(&daemon)?;
    let cold_done = AtomicBool::new(false);
    let cpu0 = util::cpu_seconds(daemon.pid()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (cold_replies, cold_end, hot_result) = std::thread::scope(|s| {
        let hot_thread = (!hot.is_empty()).then(|| {
            let expects = &hot_expects;
            let caller = &mut hot_caller;
            let done = &cold_done;
            s.spawn(move || {
                let mut order = Cycle::new(hot.len(), util::rng(seed, stream));
                let t0 = Instant::now();
                let (tally, wrong) =
                    closed_loop(&mut |p| caller.send(p), hot, expects, &mut order, &|| {
                        done.load(Ordering::SeqCst)
                    });
                (tally, wrong, t0.elapsed().as_secs_f64())
            })
        });
        let (replies, end) = walk(&mut cold_caller, sweep);
        cold_done.store(true, Ordering::SeqCst);
        let hot_result = hot_thread.map(|h| h.join().expect("hot caller panicked"));
        (replies, end, hot_result)
    });
    let cpu1 = util::cpu_seconds(daemon.pid()).map_err(|e| e.to_string())?;
    round.sweep_s = cold_end.duration_since(start).as_secs_f64();
    round.peak_rss_mb =
        util::status_mib(&daemon.pid().to_string(), "VmHWM").map_err(|e| e.to_string())?;
    daemon.shutdown();
    let after = util::snapshot_dir(dir).map_err(|e| e.to_string())?;
    round.writes = util::store_writes(&before, &after);

    let (_, cold_tally, cold_wrong) = check_first(sweep, &cold_replies);
    round.synthesized = sweep
        .iter()
        .zip(&cold_replies)
        .filter(|(_, r)| r.result.as_ref().is_ok_and(|t| !t.cache_hit))
        .map(|(p, _)| p.clone())
        .collect();
    if let Some((hot_tally, hot_wrong, seconds)) = hot_result {
        round.hot = Window {
            seconds,
            tally: hot_tally,
            wrong: hot_wrong,
        };
        tally.merge(round.hot.tally.clone());
        wrong += hot_wrong;
    }
    round.cpu_s = cpu1 - cpu0;
    tally.merge(cold_tally.clone());
    round.cold = cold_tally;
    round.tally = tally;
    round.wrong = wrong + cold_wrong;
    Ok(round)
}

/// A numbered scratch directory under `root`.
pub fn sub(root: &Path, name: &str, i: usize) -> PathBuf {
    root.join(format!("{name}-{i}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Reference;
    use siro_serve::StageNanos;

    fn payload() -> Payload {
        Payload {
            source: siro_ir::IrVersion::V13_0.into(),
            target: siro_ir::IrVersion::V3_6.into(),
            text: String::new(),
            reference: Reference::Bytes("right".into()),
            label: "13.0->3.6 case".into(),
        }
    }

    fn reply(latency_ms: u64, text: Result<&str, &str>, cache_hit: bool) -> Reply {
        Reply {
            latency_ns: latency_ms * 1_000_000,
            result: text
                .map(|t| Translated {
                    text: t.into(),
                    cache_hit,
                    timings: StageNanos {
                        total: 250_000,
                        ..StageNanos::default()
                    },
                })
                .map_err(str::to_string),
        }
    }

    #[test]
    fn failures_are_counted_and_never_sampled() {
        let p = payload();
        let expect = Expect::Bytes("right".into());
        let mut t = Tally::default();
        for r in [
            reply(2, Ok("right"), true),
            reply(3, Ok("wrong"), true),
            reply(4, Err("parse: bad token"), true),
            reply(5, Ok("right"), false),
        ] {
            let verdict = judge(&p, &expect, &r);
            t.record(&p, &r, verdict);
        }
        assert_eq!((t.attempted, t.failed, t.ok()), (4, 2, 2));
        // Only correct replies carry a latency; synthesis is `cache_hit ==
        // false`.
        assert_eq!(t.latencies_ms, vec![2.0, 5.0]);
        assert_eq!(t.synth_ms, vec![("13.0->3.6".to_string(), 5.0)]);
        assert_eq!(t.wire_us, vec![2000.0 - 250.0, 5000.0 - 250.0]);
        assert_eq!(t.census.len(), 2);
        assert_eq!(
            t.census
                .get("13.0->3.6 case: differs from the payload's checked response"),
            Some(&1)
        );
    }

    #[test]
    fn first_responses_decide_later_expectations() {
        let p = payload();
        let replies = [reply(1, Ok("right"), true), reply(1, Ok("wrong"), true)];
        let (expects, tally, wrong) = check_first(&[p.clone(), p], &replies);
        assert_eq!(
            expects,
            vec![Expect::Bytes("right".into()), Expect::Unchecked]
        );
        assert_eq!((tally.attempted, tally.failed, wrong), (2, 1, 1));
    }

    #[test]
    fn closed_loop_checks_the_stop_before_every_send_and_counts_only_successes() {
        // A fake daemon: every third reply is an error.
        let p = payload();
        let payloads = vec![p.clone(), p];
        let expects = vec![Expect::Bytes("right".into()); 2];
        let sent = std::cell::Cell::new(0u64);
        let mut send = |_: &Payload| {
            sent.set(sent.get() + 1);
            reply(
                1,
                if sent.get().is_multiple_of(3) {
                    Err("busy")
                } else {
                    Ok("right")
                },
                true,
            )
        };
        let stop = || sent.get() >= 9;
        let (tally, wrong) = closed_loop(
            &mut send,
            &payloads,
            &expects,
            &mut Cycle::new(2, util::rng(1, 1)),
            &stop,
        );
        assert_eq!((tally.attempted, tally.failed, wrong), (9, 3, 0));
        let w = Window {
            seconds: 2.0,
            tally,
            wrong,
        };
        assert_eq!(w.throughput(), 3.0);
        assert_eq!(Window::default().throughput(), 0.0);
        // Pooling adds time and samples: 6 correct over 2 + 1 seconds.
        let mut pooled = Window::default();
        pooled.absorb(&w);
        pooled.absorb(&Window {
            seconds: 1.0,
            ..Window::default()
        });
        assert_eq!(pooled.throughput(), 2.0);
        assert_eq!(pooled.tally.latencies_ms.len(), 6);
    }

    #[test]
    fn merging_tallies_adds_counts_and_census() {
        let p = payload();
        let mut a = Tally::default();
        let mut b = Tally::default();
        let bad = reply(1, Err("boom"), true);
        a.record(&p, &bad, Ok(()));
        b.record(&p, &bad, Ok(()));
        b.record(&p, &reply(1, Ok("right"), true), Ok(()));
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (3, 2));
        assert_eq!(a.census.values().sum::<u64>(), 2);
    }
}
