//! The repository benchmark: synthesized serving by the release `siro
//! serve` daemon, end to end (`--trace 0`) and layer by layer
//! (`--trace 1`).
//!
//! ```text
//! siro-perfbench --siro <path to siro> --workload <name> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A harness error (bad arguments,
//! a daemon that will not start, the wall-clock cap) exits non-zero
//! without printing it; failed requests are counted, never fatal.
//! `perfbench/NOTES.md` defines every metric and workload.

mod daemon;
mod drive;
mod payload;
mod spans;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use siro_synth::{
    bridge_cached, oracle_corpus, reset_bridge_cache, reset_wir_cache, set_active_store,
    wir_translator_cached, StoreConfig, SynthesisConfig, TranslatorCache, TranslatorStore,
};

use payload::{Kind, StorePlan, Workload};
use util::median;

/// Counting allocator: every allocation in this process bumps one
/// relaxed counter, read around the traced calls (`ir.allocs_per_req`).
struct Counting;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.realloc(ptr, layout, size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// A run that takes longer than this is abandoned: the daemons are
/// reaped and the process exits non-zero.
const WALL_CLOCK_CAP: Duration = Duration::from_secs(170);
/// Daemon lifetimes per hot run; the timed window is split evenly
/// between them. One lifetime can run 50% faster than another, so a run
/// spreads its window over many, and each lifetime's boot is one more
/// `setup_s` sample.
const LIFETIMES: usize = 16;
/// Cold walks per `anypair_small` / `tab4_large` run; divides
/// [`LIFETIMES`]. A `tab4_large` walk is three requests.
fn cold_reps(kind: Kind) -> usize {
    match kind {
        Kind::AnypairSmall => 4,
        _ => 8,
    }
}
/// Fewest rounds a `cold_sweep` run walks, whatever `--seconds` says.
const MIN_COLD_ROUNDS: usize = 3;

/// Parsed command line.
struct Args {
    siro: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    };
    let seconds = number("--seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=120"));
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace `{t}`")),
    };
    Ok(Args {
        siro: PathBuf::from(value("--siro")?),
        kind,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value was taken over.
    pub samples: usize,
}

/// Everything a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed (server errors, transport errors, wrong answers).
    pub failed: u64,
    /// Successful responses that failed their reference check.
    pub wrong: u64,
    /// Failed requests of the run, by `pair case: reason`.
    pub census: std::collections::BTreeMap<String, u64>,
    /// The census probe, when the workload has one: requests sent, and
    /// each census entry that still fails.
    pub probe: Option<drive::Tally>,
    /// Metrics printed for reading but left out of the result, because
    /// their run-to-run spread on a shared host is wider than any bound
    /// the result may carry: the tail latency, set by how often the host
    /// stalls the VM's vCPUs, and the cold walks' figures, which double
    /// while the host runs slow (see `NOTES.md`).
    pub ungated: Vec<Metric>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Adds a metric that is printed but not part of the result.
    pub fn ungated(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.ungated.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records the census probe. Its requests are not part of the
    /// workload's counts; a wrong answer among them still makes the run
    /// incorrect.
    pub fn probe(&mut self, tally: drive::Tally, wrong: u64) {
        self.wrong += wrong;
        self.probe = Some(tally);
    }

    /// Adds a phase's counts.
    pub fn count(&mut self, tally: &drive::Tally, wrong: u64) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.wrong += wrong;
        for (k, v) in &tally.census {
            *self.census.entry(k.clone()).or_default() += v;
        }
    }

    fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "  {:<28} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.ungated {
            println!(
                "  {:<28} {:>14.4} {:<6} n={} (printed, not in the result)",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  requests attempted {} failed {} (wrong answers {})",
            self.attempted, self.failed, self.wrong
        );
        for (what, n) in &self.census {
            println!("  failed x{n}: {what}");
        }
        if let Some(probe) = &self.probe {
            println!(
                "  census probe (sent once, untimed, not counted above): {} sent, {} fail, {} pass",
                probe.attempted,
                probe.failed,
                probe.ok()
            );
            for what in probe.census.keys() {
                println!("    fails: {what}");
            }
        }
        println!("{}", self.result_line());
    }

    /// The JSON result. The census rule leaves every request known to
    /// fail out of the timed traffic, so any failure there is a
    /// regression and makes the run incorrect.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    util::json_str(m.name),
                    util::json_num(m.value),
                    util::json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Synthesizes a store plan into `dir` in this process, in the plan's
/// fixed order, and leaves no translator cached here afterwards.
///
/// # Errors
///
/// When a planned translator cannot be synthesized or saved.
pub fn prepare_store(plan: &StorePlan, dir: &Path) -> Result<(), String> {
    let store = TranslatorStore::open(StoreConfig::at(dir))
        .map_err(|e| format!("opening store {}: {e}", dir.display()))?;
    set_active_store(Some(Arc::new(store)));
    let result = (|| {
        for &(a, b) in &plan.siro {
            TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(a, b), &oracle_corpus(a, b))
                .map_err(|e| format!("synthesizing {a}->{b}: {e}"))?;
        }
        for &(a, b) in &plan.wir {
            wir_translator_cached(a, b).map_err(|e| format!("synthesizing {a}->{b}: {e}"))?;
        }
        for &(s, w) in &plan.bridges {
            bridge_cached(s, w).map_err(|e| format!("validating bridge {s}<->{w}: {e}"))?;
        }
        Ok(())
    })();
    set_active_store(None);
    TranslatorCache::reset();
    reset_wir_cache();
    reset_bridge_cache();
    result
}

/// Prepares the store the hot daemons boot on: the plan's translators,
/// synthesized in this process, then one daemon lifetime that answers
/// every distinct payload once — so the store also holds what a served
/// deployment writes (chain manifests, compiled siblings) and each timed
/// daemon boots as a restart of that deployment. Then sends the census
/// probe once, on a copy of that store.
pub fn prepare_hot_store(
    siro: &Path,
    w: &Workload,
    dir: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<PathBuf, String> {
    let prepared = dir.join("prepared");
    prepare_store(&w.store, &prepared)?;
    let priming = drive::hot_lifetime(siro, &prepared, &w.hot, None, seed, 0)?;
    report.count(&priming.tally, priming.wrong);
    if !w.census.is_empty() {
        let copy = dir.join("census");
        util::copy_dir(&prepared, &copy).map_err(|e| format!("copying the store: {e}"))?;
        let probe = drive::hot_lifetime(siro, &copy, &w.census, None, seed, 0)?;
        report.probe(probe.tally, probe.wrong);
    }
    Ok(prepared)
}

/// The untraced run of `anypair_small` / `tab4_large`.
fn run_hot(args: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    let prepared = prepare_hot_store(&args.siro, w, dir, args.seed, report)?;

    // Daemon lifetimes, each on a fresh copy of the prepared store, with
    // the cold walks of the workload's pairs (on an empty store) spread
    // evenly between them, so each kind of sample sees the whole run.
    let reps = cold_reps(w.kind);
    let window = Duration::from_secs_f64(args.seconds as f64 / LIFETIMES as f64);
    let mut sweeps = Vec::new();
    let mut synth = Vec::new();
    let mut lives = Vec::new();
    for l in 0..LIFETIMES {
        if l % (LIFETIMES / reps) == 0 {
            let r = sweeps.len();
            let round = drive::cold_round(
                &args.siro,
                None,
                &drive::sub(dir, "cold", r),
                &w.sweeps[0],
                &[],
                args.seed,
                0,
            )?;
            report.count(&round.tally, round.wrong);
            sweeps.push(round.sweep_s);
            synth.extend(round.cold.synth_ms.iter().cloned());
        }
        let life_dir = drive::sub(dir, "life", l);
        util::copy_dir(&prepared, &life_dir).map_err(|e| format!("copying the store: {e}"))?;
        let life = drive::hot_lifetime(
            &args.siro,
            &life_dir,
            &w.hot,
            Some(window),
            args.seed,
            1 + l as u64,
        )?;
        report.count(&life.tally, life.wrong);
        lives.push(life);
    }
    // Throughput, latency and CPU pool every window: the host's speed
    // changes in phases of seconds to minutes, and a pooled figure moves
    // with the share of the run each phase took, where a median over
    // windows jumps from one phase's level to the other's. Boots, walks
    // and memory are medians: one stalled boot or walk is shrugged off.
    let mut pooled = drive::Window::default();
    for w in lives.iter().filter_map(|l| l.window.as_ref()) {
        pooled.absorb(w);
    }
    let ok = pooled.tally.latencies_ms.len();
    let cpu_s: f64 = lives.iter().map(|l| l.cpu_s).sum();
    let rss: Vec<f64> = lives.iter().map(|l| l.peak_rss_mb).collect();
    let setup: Vec<f64> = lives.iter().map(|l| l.setup_s).collect();
    report.metric("throughput_rps", "1/s", pooled.throughput(), ok);
    report.metric(
        "latency_p50_ms",
        "ms",
        util::percentile(&pooled.tally.latencies_ms, 50.0).unwrap_or(0.0),
        ok,
    );
    report.ungated(
        "latency_p99_ms",
        "ms",
        util::percentile(&pooled.tally.latencies_ms, 99.0).unwrap_or(0.0),
        ok,
    );
    report.metric("cpu_ms_per_req", "ms", cpu_s * 1e3 / ok.max(1) as f64, ok);
    report.metric("peak_rss_mb", "MiB", median(&rss).unwrap_or(0.0), rss.len());
    report.metric("setup_s", "s", median(&setup).unwrap_or(0.0), setup.len());
    report.ungated("sweep_s", "s", median(&sweeps).unwrap_or(0.0), sweeps.len());
    report.ungated(
        "synth_p50_ms",
        "ms",
        util::median_of_medians(&synth).unwrap_or(0.0),
        synth.len(),
    );
    let writes = &lives[0].writes;
    report.notes.push(format!(
        "  per-lifetime cpu us/req {:?}\n  per-lifetime throughput {:?}; each lifetime wrote {} store files ({} chain rewrites)",
        lives
            .iter()
            .filter_map(|l| {
                let w = l.window.as_ref()?;
                Some((l.cpu_s * 1e6 / w.tally.ok().max(1) as f64).round())
            })
            .collect::<Vec<_>>(),
        lives
            .iter()
            .filter_map(|l| Some(l.window.as_ref()?.throughput().round()))
            .collect::<Vec<_>>(),
        writes.written,
        writes.chain_rewrites
    ));
    Ok(())
}

/// The untraced run of `cold_sweep`.
fn run_cold(args: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    let prepared = dir.join("prepared");
    prepare_store(&w.store, &prepared)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < w.sweeps.len()
        && (rounds.len() < MIN_COLD_ROUNDS || start.elapsed() < budget)
    {
        let r = rounds.len();
        let round = drive::cold_round(
            &args.siro,
            Some(&prepared),
            &drive::sub(dir, "round", r),
            &w.sweeps[r],
            &w.hot,
            args.seed,
            100 + r as u64,
        )?;
        report.count(&round.tally, round.wrong);
        rounds.push(round);
    }
    // Pooled and median as in `run_hot`.
    let each = |f: &dyn Fn(&drive::Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let mut hot = drive::Window::default();
    for r in &rounds {
        hot.absorb(&r.hot);
    }
    let hot_ok = hot.tally.latencies_ms.len();
    let ok: u64 = rounds.iter().map(|r| r.cold.ok() + r.hot.tally.ok()).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let synth: Vec<(String, f64)> = rounds
        .iter()
        .flat_map(|r| r.cold.synth_ms.iter().cloned())
        .collect();
    let n = rounds.len();
    report.metric("throughput_rps", "1/s", hot.throughput(), hot_ok);
    report.metric(
        "latency_p50_ms",
        "ms",
        util::percentile(&hot.tally.latencies_ms, 50.0).unwrap_or(0.0),
        hot_ok,
    );
    report.ungated(
        "latency_p99_ms",
        "ms",
        util::percentile(&hot.tally.latencies_ms, 99.0).unwrap_or(0.0),
        hot_ok,
    );
    report.metric(
        "cpu_ms_per_req",
        "ms",
        cpu_s * 1e3 / ok.max(1) as f64,
        ok as usize,
    );
    report.metric(
        "peak_rss_mb",
        "MiB",
        median(&each(&|r| r.peak_rss_mb)).unwrap_or(0.0),
        n,
    );
    report.metric(
        "setup_s",
        "s",
        median(&each(&|r| r.setup_s)).unwrap_or(0.0),
        n,
    );
    report.ungated(
        "sweep_s",
        "s",
        median(&each(&|r| r.sweep_s)).unwrap_or(0.0),
        n,
    );
    report.ungated(
        "synth_p50_ms",
        "ms",
        util::median_of_medians(&synth).unwrap_or(0.0),
        synth.len(),
    );
    let syntheses: Vec<usize> = rounds.iter().map(|r| r.cold.synth_ms.len()).collect();
    let files: Vec<u64> = rounds.iter().map(|r| r.writes.created).collect();
    report.notes.push(format!(
        "  rounds {n}; syntheses per round {syntheses:?}; store files created per round {files:?}"
    ));
    Ok(())
}

/// Removes the run directory on every exit path.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if !args.siro.is_file() {
        return Err(format!("no siro binary at {}", args.siro.display()));
    }
    let root = PathBuf::from(".perfbench");
    let dir = RunDir(util::run_dir(&root, args.kind.name()).map_err(|e| e.to_string())?);
    let w = payload::build(args.kind, args.seed);
    let mut report = Report::default();
    report.notes.push(format!(
        "  store filesystem {} ({}); daemon workers {}; callers {}",
        util::filesystem_of(&dir.0),
        dir.0.display(),
        daemon::THREADS,
        daemon::callers()
    ));
    if args.trace {
        traced::run(
            args.kind,
            &w,
            &args.siro,
            args.seed,
            args.seconds,
            &dir.0,
            &mut report,
        )?;
    } else {
        match args.kind {
            Kind::ColdSweep => run_cold(args, &w, &dir.0, &mut report)?,
            _ => run_hot(args, &w, &dir.0, &mut report)?,
        }
    }
    Ok(report)
}

fn main() {
    // The program's own tracing makes the router price edges from trace
    // spans, which changes routes: neither run may turn it on.
    std::env::remove_var("SIRO_TRACE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("siro-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WALL_CLOCK_CAP);
        eprintln!("siro-perfbench: wall-clock cap reached, abandoning the run");
        daemon::kill_all();
        std::process::exit(3);
    });
    match run(&args) {
        Ok(report) => report.print(&args),
        Err(e) => {
            daemon::kill_all();
            eprintln!("siro-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_failure_or_wrong_answer_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.metric("latency_p50_ms", "ms", 0.5, 10);
        r.attempted = 10;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
        r.failed = 1;
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        let mut w = Report::default();
        w.probe(drive::Tally::default(), 1);
        assert!(w
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 0,"));
    }
}
