//! The traced run: the same seeded request stream, replayed in this
//! process through the public functions of `siro-serve`, `siro-ir`,
//! `siro-synth` and `siro-wir`, with the benchmark's own spans around
//! each call. `SIRO_TRACE` stays unset: the program's own tracing changes
//! how the router prices edges.
//!
//! Every request is executed twice, back to back, on the same warm
//! state: once through `Engine::execute` (the daemon's request path,
//! timed whole as `serve.execute`), and once as a replay that makes the
//! same calls `Engine::execute` makes, each in its own span, and stops
//! where `Engine::execute` stops. The replay's spans explain the execute
//! time; what they leave unexplained is `serve.unattributed_pct`. The
//! replay runs on one thread, and counters (allocations, cache and
//! coalescer lookups) are read around the `Engine::execute` calls only,
//! so they never count the replay's own work.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use siro_ir::{parse, verify, write};
use siro_serve::{Engine, Request, Response, ServeConfig, TranslateMode};
use siro_synth::{
    compile_stats, corpus_fingerprint, oracle_corpus, set_active_store, Acquired, EdgeClass,
    RouteOutcome, Router, StoreConfig, StoreKey, StreamBackend, SynthesisConfig, SynthesisOutcome,
    TranslatorBackend, TranslatorCache, TranslatorStore,
};
use siro_wir::AnyModule;

use crate::drive::{self, Tally};
use crate::payload::{Kind, Payload, Workload};
use crate::spans::{self_times_by_name, Recorder};
use crate::util::{self, median, percentile, Cycle};
use crate::Report;

/// Share of `--seconds` the untraced daemon phase of a hot workload
/// runs; the in-process replay gets the rest.
const DAEMON_SHARE: f64 = 0.3;
/// Share of `--seconds` the untraced rounds of `cold_sweep` run; its
/// in-process replay is one cold walk.
const COLD_DAEMON_SHARE: f64 = 0.7;
/// Most translators lowered or saved for `compile.lower_us` /
/// `store.save_us`.
const MAX_TRANSLATORS: usize = 32;

/// Per-request values that are differences of spans or counters.
#[derive(Debug, Default)]
struct Samples {
    /// `acquire_with` minus the standalone plan of the same request (µs).
    acquire_minus_plan_us: Vec<f64>,
    /// Hops of each acquired route.
    hops: Vec<f64>,
    /// Allocations during `Engine::execute`.
    allocs: Vec<f64>,
    /// Request + response frame bytes.
    frame_bytes: Vec<f64>,
    /// `Engine::execute` time not covered by the replay's layer calls,
    /// as a share of it.
    unattributed: Vec<f64>,
    /// Translators the replay acquired, for lowering and saving.
    outcomes: BTreeMap<String, Arc<SynthesisOutcome>>,
    /// Composed chains the replay acquired: persist key → manifest.
    chains: BTreeMap<String, String>,
    /// `TranslatorCache` hits during `Engine::execute` calls.
    cache_hits: u64,
    /// `TranslatorCache` lookups during `Engine::execute` calls.
    cache_lookups: u64,
    /// Coalescer lookups that did not synthesize, during `Engine::execute`
    /// calls.
    coalesced: u64,
}

impl Samples {
    fn keep(&mut self, acquired: &Acquired) {
        match &acquired.outcome {
            RouteOutcome::Direct(o) => {
                let key = format!("{}->{}", acquired.plan.from, acquired.plan.to);
                self.outcomes.entry(key).or_insert_with(|| Arc::clone(o));
            }
            RouteOutcome::Composed(chain) => {
                for hop in &chain.hops {
                    if let Some(o) = hop.siro_outcome() {
                        let key = format!("{}->{}", hop.from, hop.to);
                        self.outcomes.entry(key).or_insert_with(|| Arc::clone(o));
                    }
                }
                self.chains
                    .entry(chain.persist_key())
                    .or_insert_with(|| chain.manifest());
            }
        }
    }
}

fn request_of(p: &Payload) -> Request {
    Request::Translate {
        source: p.source,
        target: p.target,
        mode: TranslateMode::Synthesized,
        text: p.text.clone(),
    }
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Runs `f`, an `Engine::execute` call, and adds the cache and coalescer
/// lookups made meanwhile to the samples.
fn counted<T>(engine: &Engine, s: &mut Samples, f: impl FnOnce() -> T) -> T {
    let cache0 = TranslatorCache::snapshot();
    let coalesced0 = engine.coalescer().totals().coalesced;
    let out = f();
    let cache1 = TranslatorCache::snapshot();
    s.cache_hits += cache1.hits - cache0.hits;
    s.cache_lookups += (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    s.coalesced += engine.coalescer().totals().coalesced - coalesced0;
    out
}

/// Replays one request: `Engine::execute`, the codec round trip, the
/// layer replay, and the standalone route plans.
fn replay(engine: &Engine, p: &Payload, id: u64, rec: &mut Recorder, s: &mut Samples) {
    rec.request(id);
    let request = request_of(p);
    let (response, exec_ns, allocs) = counted(engine, s, || {
        let allocs0 = crate::allocations();
        let t = Instant::now();
        let response = rec.span("serve.execute", |_| engine.execute(&request));
        (response, ns(t), crate::allocations() - allocs0)
    });
    s.allocs.push(allocs as f64);

    rec.span("serve.codec", |_| {
        let req = request.encode(id);
        let resp = response.encode(id);
        let _ = std::hint::black_box(Request::decode(&req));
        let _ = std::hint::black_box(Response::decode(&resp));
        s.frame_bytes.push((req.len() + resp.len()) as f64);
    });

    let resolve = |a, b, _tests: &[siro_synth::OracleTest]| {
        engine
            .coalescer()
            .translator_for(a, b)
            .map(|l| (l.outcome, l.fresh))
    };
    // The replay: the calls Engine::execute makes, in its order.
    let mut layers_ns = 0.0;
    let mut acquire_ns = 0.0;
    let mut timed = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        rec.span(name, |_| f());
        let d = ns(t);
        layers_ns += d;
        d
    };
    let mut acquired = None;
    rec.span("serve.replay", |rec| {
        match (p.source.as_siro(), p.target.as_siro()) {
            (Some(src), Some(dst)) => {
                let mut module = None;
                timed(rec, "ir.parse", &mut || {
                    module = parse::parse_module(&p.text).ok();
                });
                let Some(module) = module.filter(|m| m.version == src) else {
                    return;
                };
                let mut ok = false;
                timed(rec, "ir.verify_in", &mut || {
                    ok = verify::verify_module(&module).is_ok();
                });
                if !ok {
                    return;
                }
                acquire_ns = timed(rec, "route.acquire", &mut || {
                    acquired = engine.router().acquire_with(src, dst, &resolve).ok();
                });
                let Some(a) = &acquired else { return };
                let mut out = None;
                let mut module = Some(module);
                timed(rec, "translate", &mut || {
                    let m = module.take().expect("translated once");
                    out = match &a.outcome {
                        RouteOutcome::Direct(o) => {
                            siro_synth::translate_module_owned_tiered(o, dst, m).ok()
                        }
                        RouteOutcome::Composed(c) => c.translate_module_owned(m).ok(),
                    };
                });
                let Some(out) = out else { return };
                timed(rec, "ir.verify_out", &mut || {
                    ok = verify::verify_module(&out).is_ok();
                });
                if !ok {
                    return;
                }
                timed(rec, "ir.write", &mut || {
                    std::hint::black_box(write::write_module(&out));
                });
            }
            _ => {
                let mut module = None;
                timed(rec, "wir.parse", &mut || {
                    module = AnyModule::parse(&p.text).ok();
                });
                let Some(module) = module.filter(|m| m.dialect_version() == p.source) else {
                    return;
                };
                let mut ok = false;
                timed(rec, "wir.verify_in", &mut || {
                    ok = module.verify().is_ok();
                });
                if !ok {
                    return;
                }
                acquire_ns = timed(rec, "route.acquire", &mut || {
                    acquired = engine
                        .dialect_router()
                        .acquire_with(p.source, p.target, &resolve)
                        .ok();
                });
                let Some(a) = &acquired else { return };
                let RouteOutcome::Composed(chain) = &a.outcome else {
                    return;
                };
                let mut out = None;
                let mut module = Some(module);
                timed(rec, "wir.translate", &mut || {
                    out = chain
                        .translate_any_owned(module.take().expect("translated once"))
                        .ok();
                });
                let Some(out) = out.filter(|o| o.dialect_version() == p.target) else {
                    return;
                };
                timed(rec, "wir.verify_out", &mut || {
                    ok = out.verify().is_ok();
                });
                if !ok {
                    return;
                }
                timed(rec, "wir.write", &mut || {
                    std::hint::black_box(out.print());
                });
            }
        }
    });
    s.unattributed
        .push((exec_ns - layers_ns) / exec_ns.max(1.0));

    // Standalone plans: the cost of the plan inside acquire_with, and of
    // the dialect router's plan for the same pair.
    let plan_ns = if p.is_wir() {
        None
    } else {
        let t = Instant::now();
        rec.span("route.plan", |_| engine.router().plan(p.source, p.target));
        Some(ns(t))
    };
    let t = Instant::now();
    rec.span("route.dialect_plan", |_| {
        engine.dialect_router().plan(p.source, p.target)
    });
    let dialect_plan_ns = ns(t);
    if let Some(a) = &acquired {
        let inner_plan = plan_ns.unwrap_or(dialect_plan_ns);
        s.acquire_minus_plan_us
            .push((acquire_ns - inner_plan) / 1e3);
        s.hops.push(a.plan.hop_count() as f64);
        if s.outcomes.len() < MAX_TRANSLATORS {
            s.keep(a);
        }
    }
}

/// Synthesizes each Siro pair in this process with no store attached,
/// recording the span and the synthesis report's stage timings.
fn synthesize_pairs(
    pairs: &[(siro_ir::IrVersion, siro_ir::IrVersion)],
    rec: &mut Recorder,
    report: &mut Report,
) {
    set_active_store(None);
    TranslatorCache::reset();
    let mut stages: [Vec<f64>; 6] = Default::default();
    let mut assignments = Vec::new();
    for &(a, b) in pairs {
        let corpus = oracle_corpus(a, b);
        let lookup = rec.span("synth", |_| {
            TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(a, b), &corpus)
        });
        if let Ok(l) = lookup {
            let t = &l.outcome.report.timings;
            for (v, d) in stages.iter_mut().zip([
                t.generation,
                t.profiling,
                t.enumeration,
                t.validation,
                t.refinement,
                t.completion,
            ]) {
                v.push(d.as_secs_f64() * 1e3);
            }
            assignments.push(l.outcome.report.assignments_validated as f64);
        }
    }
    TranslatorCache::reset();
    let synth_ms: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "synth")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    report.metric(
        "synth.ms",
        "ms",
        median(&synth_ms).unwrap_or(0.0),
        synth_ms.len(),
    );
    for (name, v) in [
        "synth.generation_ms",
        "synth.profiling_ms",
        "synth.enumeration_ms",
        "synth.validation_ms",
        "synth.refinement_ms",
        "synth.completion_ms",
    ]
    .into_iter()
    .zip(&stages)
    {
        report.metric(name, "ms", median(v).unwrap_or(0.0), v.len());
    }
    let mean = if assignments.is_empty() {
        0.0
    } else {
        assignments.iter().sum::<f64>() / assignments.len() as f64
    };
    report.metric(
        "synth.assignments_validated",
        "count",
        mean,
        assignments.len(),
    );
}

/// The untraced daemon phase: client latency against the daemon's own
/// stage timings, store writes, and (for `cold_sweep`) which pairs the
/// cold caller synthesized.
struct DaemonPhase {
    tally: Tally,
    synth_count: u64,
    synthesized: Vec<(siro_ir::IrVersion, siro_ir::IrVersion)>,
    writes: util::StoreWrites,
    /// `cold_sweep`: hot requests answered per cold request in round 0,
    /// the mix the one-thread replay interleaves.
    hot_per_cold: usize,
}

#[allow(clippy::too_many_arguments)]
fn daemon_phase(
    kind: Kind,
    w: &Workload,
    siro: &Path,
    prepared: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) -> Result<DaemonPhase, String> {
    if kind == Kind::ColdSweep {
        // Rounds as in the untraced run, for the daemon's share of the
        // budget; round 0 (the stream the replay walks) names the pairs
        // that synthesized.
        let budget = Duration::from_secs_f64(seconds as f64 * COLD_DAEMON_SHARE);
        let start = Instant::now();
        let mut phase: Option<DaemonPhase> = None;
        let mut r = 0;
        while r < w.sweeps.len() && (r == 0 || start.elapsed() < budget) {
            let round = drive::cold_round(
                siro,
                Some(prepared),
                &drive::sub(dir, "round", r),
                &w.sweeps[r],
                &w.hot,
                seed,
                100 + r as u64,
            )?;
            report.count(&round.tally, round.wrong);
            match &mut phase {
                Some(p) => p.tally.merge(round.hot.tally),
                None => {
                    phase = Some(DaemonPhase {
                        hot_per_cold: (round.hot.tally.attempted as f64
                            / round.cold.attempted.max(1) as f64)
                            .round()
                            .max(1.0) as usize,
                        synth_count: round.cold.synth_ms.len() as u64,
                        synthesized: round
                            .synthesized
                            .iter()
                            .filter_map(Payload::siro_pair)
                            .collect(),
                        tally: round.hot.tally,
                        writes: round.writes,
                    })
                }
            }
            r += 1;
        }
        return Ok(phase.expect("at least one round ran"));
    }
    let sub = dir.join("daemon");
    util::copy_dir(prepared, &sub).map_err(|e| format!("copying the store: {e}"))?;
    let window = Duration::from_secs_f64(seconds as f64 * DAEMON_SHARE);
    let life = drive::hot_lifetime(siro, &sub, &w.hot, Some(window), seed, 1)?;
    report.count(&life.tally, life.wrong);
    Ok(DaemonPhase {
        hot_per_cold: 0,
        synth_count: life.tally.synth_ms.len() as u64,
        synthesized: Vec::new(),
        tally: life.window.map(|w| w.tally).unwrap_or_default(),
        writes: life.writes,
    })
}

/// Runs the traced run of one workload.
///
/// # Errors
///
/// Harness failures only.
pub fn run(
    kind: Kind,
    w: &Workload,
    siro: &Path,
    seed: u64,
    seconds: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let started = Instant::now();
    let mut rec = Recorder::default();

    // Router lazy state: the first graph of a fresh router builds every
    // pair's oracle corpus.
    let rss0 = util::status_mib("self", "VmRSS").map_err(|e| e.to_string())?;
    let router = Router::new();
    let t = Instant::now();
    rec.span("route.first_graph", |_| router.graph());
    let first_graph_ms = ns(t) / 1e6;
    let corpora_mb = util::status_mib("self", "VmRSS").map_err(|e| e.to_string())? - rss0;
    drop(router);

    // The same prepared store the untraced run boots on.
    let prepared = if kind == Kind::ColdSweep {
        let p = dir.join("prepared");
        crate::prepare_store(&w.store, &p)?;
        p
    } else {
        crate::prepare_hot_store(siro, w, dir, seed, report)?
    };
    let phase = daemon_phase(kind, w, siro, &prepared, dir, seed, seconds, report)?;

    // Synthesis, on the pairs this workload synthesizes.
    let synth_pairs = if kind == Kind::ColdSweep {
        phase.synthesized.clone()
    } else {
        w.store.siro.clone()
    };
    synthesize_pairs(&synth_pairs, &mut rec, report);

    // The daemon's engine, in this process, warm-started on a fresh copy
    // of the prepared store.
    let store_dir = dir.join("inproc");
    util::copy_dir(&prepared, &store_dir).map_err(|e| format!("copying the store: {e}"))?;
    TranslatorCache::reset();
    siro_synth::reset_wir_cache();
    siro_synth::reset_bridge_cache();
    let t = Instant::now();
    let handle = rec
        .span("store.warm_start", |_| {
            siro_serve::start(ServeConfig {
                threads: Some(1),
                store_dir: Some(store_dir.clone()),
                ..ServeConfig::default()
            })
        })
        .map_err(|e| format!("starting the in-process server: {e}"))?;
    let warm_start_ms = ns(t) / 1e6;
    let engine = Arc::clone(handle.engine());

    let mut samples = Samples::default();
    let compiled0 = compile_stats();
    if kind == Kind::ColdSweep {
        // The cold walk, each cold request followed by as many hot ones
        // as the daemon answered per cold request in round 0, on this one
        // thread.
        let mut order = Cycle::new(w.hot.len(), util::rng(seed, 2000));
        let mut id = 0;
        for p in &w.sweeps[0] {
            replay(&engine, p, id, &mut rec, &mut samples);
            id += 1;
            for _ in 0..phase.hot_per_cold {
                replay(
                    &engine,
                    &w.hot[order.next_index()],
                    id,
                    &mut rec,
                    &mut samples,
                );
                id += 1;
            }
        }
    } else {
        // Every distinct payload once (first touch), then the seeded
        // stream until the time budget runs out.
        for p in &w.hot {
            std::hint::black_box(counted(&engine, &mut samples, || {
                engine.execute(&request_of(p))
            }));
        }
        let budget = Duration::from_secs(seconds).saturating_sub(started.elapsed());
        let deadline = Instant::now() + budget.max(Duration::from_secs(1));
        let mut order = Cycle::new(w.hot.len(), util::rng(seed, 1000));
        let mut id = 0;
        while Instant::now() < deadline {
            replay(
                &engine,
                &w.hot[order.next_index()],
                id,
                &mut rec,
                &mut samples,
            );
            id += 1;
        }
    }
    let compiled1 = compile_stats();

    // Route state with the store attached: every edge that is not hot
    // costs the plan one filesystem probe.
    let graph = engine.router().graph();
    let mut non_hot = 0usize;
    for &a in graph.nodes() {
        for &b in graph.nodes() {
            if graph.edge(a, b).is_some_and(|e| e.class != EdgeClass::Hot) {
                non_hot += 1;
            }
        }
    }
    handle.shutdown();
    set_active_store(None);

    // One-off costs over the translators the replay used.
    let scratch = TranslatorStore::open(StoreConfig::at(dir.join("save")))
        .map_err(|e| format!("opening the scratch store: {e}"))?;
    let mut lower_us = Vec::new();
    let mut save_us = Vec::new();
    for outcome in samples.outcomes.values() {
        let t = Instant::now();
        let _ = rec.span("compile.lower", |_| {
            StreamBackend.lower(&outcome.translator)
        });
        lower_us.push(ns(t) / 1e3);
        let (a, b) = outcome.report.pair;
        let key = StoreKey::new(
            &SynthesisConfig::new(a, b),
            corpus_fingerprint(&oracle_corpus(a, b)),
        );
        let t = Instant::now();
        let _ = rec.span("store.save", |_| scratch.save(&key, outcome));
        save_us.push(ns(t) / 1e3);
    }
    for (key, manifest) in &samples.chains {
        let t = Instant::now();
        let _ = rec.span("store.save", |_| scratch.save_chain(key, manifest));
        save_us.push(ns(t) / 1e3);
    }

    // Per-layer self times.
    let by_name = self_times_by_name(rec.spans());
    let self_us = |name: &str| -> (f64, usize) {
        by_name.get(name).map_or((0.0, 0), |v| {
            let us: Vec<f64> = v.iter().map(|&n| n as f64 / 1e3).collect();
            (median(&us).unwrap_or(0.0), us.len())
        })
    };
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let stage_total = p50(&phase.tally.stage_total_us);
    let (execute_us, n_exec) = self_us("serve.execute");
    let m = |r: &mut Report, name: &'static str, (v, n): (f64, usize)| r.metric(name, "us", v, n);
    report.metric(
        "serve.wire_overhead_us",
        "us",
        p50(&phase.tally.wire_us),
        phase.tally.wire_us.len(),
    );
    m(report, "serve.codec_us", self_us("serve.codec"));
    report.metric(
        "serve.frame_bytes",
        "count",
        p50(&samples.frame_bytes),
        samples.frame_bytes.len(),
    );
    report.metric("serve.execute_us", "us", execute_us, n_exec);
    report.metric(
        "serve.unattributed_pct",
        "%",
        100.0 * median(&samples.unattributed).unwrap_or(0.0),
        samples.unattributed.len(),
    );
    report.metric(
        "serve.trace_overhead_us",
        "us",
        execute_us - stage_total,
        phase.tally.stage_total_us.len(),
    );
    m(report, "ir.parse_us", self_us("ir.parse"));
    m(report, "ir.verify_in_us", self_us("ir.verify_in"));
    m(report, "ir.verify_out_us", self_us("ir.verify_out"));
    m(report, "ir.write_us", self_us("ir.write"));
    report.metric(
        "ir.allocs_per_req",
        "count",
        p50(&samples.allocs),
        samples.allocs.len(),
    );
    m(report, "route.plan_us", self_us("route.plan"));
    report.metric(
        "route.acquire_us",
        "us",
        p50(&samples.acquire_minus_plan_us),
        samples.acquire_minus_plan_us.len(),
    );
    report.metric("route.store_probes", "count", non_hot as f64, 1);
    let hops_mean = if samples.hops.is_empty() {
        0.0
    } else {
        samples.hops.iter().sum::<f64>() / samples.hops.len() as f64
    };
    report.metric("route.hops_mean", "count", hops_mean, samples.hops.len());
    m(
        report,
        "route.dialect_plan_us",
        self_us("route.dialect_plan"),
    );
    report.metric("route.first_graph_ms", "ms", first_graph_ms, 1);
    report.metric("route.corpora_mb", "MiB", corpora_mb, 1);
    m(report, "translate.us", self_us("translate"));
    let compiled = compiled1.translations_compiled - compiled0.translations_compiled;
    let interpreted = compiled1.translations_interpreted - compiled0.translations_interpreted;
    report.metric(
        "translate.compiled_share",
        "ratio",
        compiled as f64 / (compiled + interpreted).max(1) as f64,
        (compiled + interpreted) as usize,
    );
    report.metric("compile.lower_us", "us", p50(&lower_us), lower_us.len());
    m(report, "wir.parse_us", self_us("wir.parse"));
    m(report, "wir.translate_us", self_us("wir.translate"));
    report.metric("store.warm_start_ms", "ms", warm_start_ms, 1);
    report.metric(
        "store.chain_rewrites",
        "count",
        phase.writes.chain_rewrites as f64,
        1,
    );
    report.metric(
        "store.files_written",
        "count",
        phase.writes.written as f64,
        1,
    );
    report.metric("store.save_us", "us", p50(&save_us), save_us.len());
    report.metric("synth.count", "count", phase.synth_count as f64, 1);
    report.metric(
        "cache.hit_ratio",
        "ratio",
        samples.cache_hits as f64 / samples.cache_lookups.max(1) as f64,
        samples.cache_lookups as usize,
    );
    report.metric("coalesce.waiters", "count", samples.coalesced as f64, 1);
    report.notes.push(format!(
        "  serve.replay self time p50 {:.1} us; untraced StageNanos.total p50 {stage_total:.1} us",
        self_us("serve.replay").0
    ));

    // Spans stay in memory until here and are written once.
    let path = Path::new(".perfbench").join(format!("trace-{}.jsonl", kind.name()));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.notes.push(format!(
        "  {} spans written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(())
}
