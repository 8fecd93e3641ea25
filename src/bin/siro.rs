//! The `siro` command-line tool: translate textual IR between versions,
//! run programs, synthesize translators, inspect the version catalog, and
//! run or talk to the `siro-serve` translation daemon.
//!
//! ```text
//! siro versions
//! siro run program.sir
//! siro translate --to 3.6 program.sir [-o out.sir] [--synthesized]
//! siro translate --to wir2.0 program.sir        # cross-dialect (anchor-bridged)
//! siro translate --remote 127.0.0.1:4799 --to 3.6 program.sir
//! siro synthesize --from 13.0 --to 3.6 [--emit-code]
//! siro difftest --pairs 13.0:3.6,17.0:12.0 --budget 60
//! siro opt program.sir [-o out.sir]
//! siro serve [--addr 127.0.0.1:4799] [--threads N] [--queue N] [--store DIR]
//!           [--admission-rps N] [--admission-burst N]
//! siro loadgen [--remote 127.0.0.1:4799] [--rates 1000,2000] [--connections N]
//! siro route plan --from 13.0 --to wir2.0 [--store DIR]
//! siro route matrix [--store DIR]
//! siro store warm --dir DIR [--pairs 13.0:3.6,17.0:12.0]
//! siro store ls --dir DIR
//! siro store gc --dir DIR --max-bytes N
//! siro store verify --dir DIR
//! siro stats --remote 127.0.0.1:4799
//! siro metrics --remote 127.0.0.1:4799
//! siro shutdown --remote 127.0.0.1:4799
//! siro trace-report [trace.json]
//! ```
//!
//! With `SIRO_TRACE=1`, `synthesize` and `serve` write a Chrome
//! `trace_event` JSON file on exit (`SIRO_TRACE_FILE` overrides the
//! `siro_trace.json` default) which `siro trace-report` aggregates and
//! Perfetto / `chrome://tracing` load directly — see
//! `docs/OBSERVABILITY.md`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use siro::core::Skeleton;
use siro::ir::{interp::Machine, parse, verify, write, IrVersion, Module};
use siro::serve::{Client, Engine, Metrics, Request, ServeConfig, TranslateMode, Translated};
use siro::synth::{oracle_corpus, Synthesizer};
use siro::wir::any::AnyModule;

/// Small blocks are recycled per thread instead of going through `malloc`
/// and `free` for every IR entity (`docs/SERVING.md` § "Thread cache").
#[global_allocator]
static ALLOCATOR: siro::serve::thread_cache::ThreadCache = siro::serve::thread_cache::ThreadCache;

/// Default I/O timeout for the remote-client commands. Generous because a
/// cold synthesized pair blocks the response on a full synthesis.
const DEFAULT_REMOTE_TIMEOUT: Duration = Duration::from_secs(30);

/// Resolves the remote I/O timeout: `--timeout-ms` beats
/// `SIRO_CLIENT_TIMEOUT_MS`, which beats the 30 s default. The second
/// element says whether the choice was explicit — an explicit timeout
/// also caps each response wait, not just connect and socket I/O.
fn remote_timeout(args: &[String]) -> Result<(Duration, bool), String> {
    let spec = match flag_value(args, "--timeout-ms") {
        Some(ms) => Some((ms.to_string(), "--timeout-ms")),
        None => std::env::var("SIRO_CLIENT_TIMEOUT_MS")
            .ok()
            .map(|ms| (ms, "SIRO_CLIENT_TIMEOUT_MS")),
    };
    match spec {
        Some((ms, what)) => {
            let ms: u64 = ms
                .parse()
                .ok()
                .filter(|&v| v > 0)
                .ok_or_else(|| format!("bad {what} `{ms}` (positive milliseconds)"))?;
            Ok((Duration::from_millis(ms), true))
        }
        None => Ok((DEFAULT_REMOTE_TIMEOUT, false)),
    }
}

/// Connects to a daemon honoring the resolved timeout. An explicitly
/// chosen timeout is also installed as the per-response deadline
/// ([`Client::set_op_timeout`]); the default leaves response waits
/// unbounded because a cold synthesis legitimately takes a while.
fn connect_remote(args: &[String], addr: &str) -> Result<Client, String> {
    let (timeout, explicit) = remote_timeout(args)?;
    let mut client =
        Client::connect(addr, timeout).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if explicit {
        client.set_op_timeout(Some(timeout));
    }
    Ok(client)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("versions") => cmd_versions(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("translate") => cmd_translate(&args[1..]),
        Some("synthesize") => cmd_synthesize(&args[1..]),
        Some("difftest") => cmd_difftest(&args[1..]),
        Some("opt") => cmd_opt(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("trace-report") => cmd_trace_report(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `siro help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "siro - synthesis-powered IR version translation (ASPLOS 2024 reproduction)

USAGE:
    siro versions                                    list the IR version catalog
    siro run <file>                                  interpret a textual IR module
    siro translate --to <ver> <file> [-o <out>]      translate across versions (in process,
                                                     on the daemon's request path)
                   [--synthesized]                   use a corpus-synthesized translator
                                                     (implied when a side is WIR)
                   [--remote <addr>]                 translate via a siro-serve daemon
    siro synthesize --from <ver> --to <ver>          synthesize instruction translators
                   [--emit-code]                     print the generated source
    siro difftest [--pairs <a:b,...>]                fuzz synthesized translators
                   [--budget <secs>] [--seed <n>]    (defaults: 13.0:3.6, 10 s, 42)
                   [--mid <ver>] [--fault <spec>]    chain intermediate; injected fault
                   [--route-mids <n>]                fuzz the top-n router-ranked paths
                   [--expect-failure]                require a caught+shrunk failure
                   [--regressions <dir>] [-o <json>] artifact dir; BENCH_difftest.json
    siro opt <file> [-o <out>]                       run the optimizer pipeline
    siro serve [--addr <host:port>]                  run the translation daemon
               [--threads <n>] [--queue <n>]         (defaults: SIRO_THREADS, 64)
               [--admission-rps <n>]                 per-peer admission budget (default off)
               [--admission-burst <n>]               token-bucket burst (default 1s of budget)
               [--store <dir>]                       persist translators; warm-start at boot
               [--store-validation off|checksum|full] load-time validation (default checksum)
               [--store-max-bytes <n>]               GC the store down to <n> bytes after writes
    siro loadgen [--remote <addr>]                   open-loop rate sweep (docs/SERVING.md);
               [--threads <n>]                       boots an in-process daemon unless --remote
               [--rates <r1,r2,...>] [--slo-ms <n>]  (defaults: 500,1000,2000,4000; 25 ms)
               [--connections <n>] [--duration-ms <n>] (defaults: 64, 1000)
               [--pairs <a:b,...>] [--synthesized]   version-pair mix (default 13.0:3.6)
               [-o <json>]                           write a loadtest-v1 JSON report
    siro route plan --from <ver> --to <ver>          show the cheapest translation route
               [--store <dir>]                       classify edges against a store
    siro route matrix [--store <dir>]                plan every pair of both catalogs
                                                     (hop-count grid)
    siro store warm --dir <dir> [--pairs <a:b,...>]  synthesize and persist translators
               [--validation off|checksum|full]      (default pair 13.0:3.6)
    siro store ls --dir <dir>                        list persisted translators
    siro store gc --dir <dir> --max-bytes <n>        sweep temp files; evict LRU over <n> bytes
    siro store verify --dir <dir>                    re-validate every entry against the corpus
    siro stats --remote <addr>                       print a daemon's STATS page
    siro metrics --remote <addr>                     print a daemon's Prometheus METRICS page
    siro trace-report [<trace.json>]                 aggregate a SIRO_TRACE Chrome trace
    siro shutdown --remote <addr>                    gracefully stop a daemon

    Remote commands (translate --remote, stats, metrics, shutdown) accept
    --timeout-ms <n>: connect + I/O + per-response deadline (default 30 s,
    response waits unbounded unless set explicitly).

ENVIRONMENT:
    SIRO_TRACE=1          record spans/counters; synthesize and serve write
                          a Chrome trace_event JSON on exit
    SIRO_TRACE_FILE=path  where to write it (default siro_trace.json)
    SIRO_THREADS=n        worker threads for synthesis and serving
    SIRO_CLIENT_TIMEOUT_MS=n  default for --timeout-ms on remote commands"
    );
}

fn parse_version(s: &str) -> Result<IrVersion, String> {
    let (maj, min) = s
        .split_once('.')
        .ok_or_else(|| format!("version `{s}` must look like `13.0`"))?;
    Ok(IrVersion::new(
        maj.parse().map_err(|_| format!("bad major in `{s}`"))?,
        min.parse().map_err(|_| format!("bad minor in `{s}`"))?,
    ))
}

/// Parses a dialect-qualified version: bare `13.0` is Siro, `wir2.0` (or
/// `wir:2.0`) is the stack-machine family.
fn parse_dialect_version(s: &str) -> Result<siro::ir::DialectVersion, String> {
    s.parse()
        .map_err(|_| format!("version `{s}` must look like `13.0` or `wir2.0`"))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Rejects every argument of `siro <cmd>` that is neither one of its
/// flags nor one of its first `files` positional arguments, and returns
/// those positional arguments: each of `valued` takes the next argument
/// as its value, each of `switches` stands alone. A misspelled or removed
/// flag must fail, not run the command without it.
fn check_flags<'a>(
    cmd: &str,
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
    files: usize,
) -> Result<Vec<&'a str>, String> {
    let mut positionals = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            if rest.next().is_none() {
                return Err(format!("`{a}` needs a value (siro {cmd})"));
            }
        } else if !a.starts_with('-') && positionals.len() < files {
            positionals.push(a);
        } else if !switches.contains(&a) {
            let what = if a.starts_with('-') {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("{what} `{a}` for `siro {cmd}` (try `siro help`)"));
        }
    }
    Ok(positionals)
}

fn load_module(path: &str) -> Result<Module, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let m = parse::parse_module(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    verify::verify_module(&m).map_err(|e| format!("{path} does not verify: {e}"))?;
    Ok(m)
}

fn emit_module(m: &Module, out: Option<&str>) -> Result<(), String> {
    let text = write::write_module(m);
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_versions(args: &[String]) -> Result<(), String> {
    check_flags("versions", args, &[], &[], 0)?;
    println!("{:>8} | {:>8} | notes", "version", "#opcodes");
    println!("{}", "-".repeat(60));
    for v in IrVersion::CATALOG {
        let mut notes = Vec::new();
        if v.explicit_load_type_in_text() {
            notes.push("explicit load/gep types");
        }
        if v.builders_require_explicit_type() {
            notes.push("typed builders (Fig. 13)");
        }
        if v.opaque_pointers_in_text() {
            notes.push("opaque ptr");
        }
        println!(
            "{:>8} | {:>8} | {}",
            v.to_string(),
            v.instruction_set().len(),
            notes.join(", ")
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let [path] = check_flags("run", args, &[], &[], 1)?[..] else {
        return Err("usage: siro run <file>".into());
    };
    let m = load_module(path)?;
    let outcome = Machine::new(&m)
        .run_main()
        .map_err(|e| format!("running {path}: {e}"))?;
    match outcome.result {
        siro::ir::interp::ExecResult::Returned(_) => {
            println!(
                "main() = {:?} ({} steps)",
                outcome.return_int(),
                outcome.steps
            );
            Ok(())
        }
        siro::ir::interp::ExecResult::Trapped(t) => Err(format!("trapped: {t}")),
    }
}

/// `siro translate`: one translate request, answered by a daemon
/// (`--remote`) or by an in-process [`Engine`], the code a daemon worker
/// runs, so both answer with the same bytes. The file's version header
/// names the source version.
fn cmd_translate(args: &[String]) -> Result<(), String> {
    let [path] = check_flags(
        "translate",
        args,
        &["--to", "-o", "--remote", "--timeout-ms"],
        &["--synthesized"],
        1,
    )?[..] else {
        return Err(
            "usage: siro translate --to <ver> <file> [-o <out>] [--synthesized] [--remote <addr>]"
                .into(),
        );
    };
    let to = parse_dialect_version(flag_value(args, "--to").ok_or("missing --to <version>")?)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let source = AnyModule::parse(&text)
        .map_err(|e| format!("parsing {path}: {e}"))?
        .dialect_version();
    // Cross-dialect pairs have no reference translator: imply
    // `--synthesized` so the pair is routed instead of refused.
    let cross = source.as_siro().is_none() || to.as_siro().is_none();
    let mode = if cross || args.iter().any(|a| a == "--synthesized") {
        TranslateMode::Synthesized
    } else {
        TranslateMode::Reference
    };
    let remote = flag_value(args, "--remote");
    let out = match remote {
        Some(addr) => connect_remote(args, addr)?.translate(source, to, mode, text),
        None => Translated::from_response(Engine::new(Arc::new(Metrics::default())).execute(
            &Request::Translate {
                source,
                target: to,
                mode,
                text,
            },
        )),
    };
    let place = if remote.is_some() { "remote" } else { "local" };
    let out = out.map_err(|e| format!("{place} translation failed: {e}"))?;
    eprintln!(
        "translated {source} -> {to} ({place}) in {:.3} ms (cache {})",
        out.timings.total as f64 / 1e6,
        if out.cache_hit { "hit" } else { "miss" }
    );
    match flag_value(args, "-o") {
        Some(out_path) => {
            std::fs::write(out_path, out.text).map_err(|e| format!("writing {out_path}: {e}"))
        }
        None => {
            print!("{}", out.text);
            Ok(())
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(
        "serve",
        args,
        &[
            "--addr",
            "--threads",
            "--queue",
            "--store",
            "--store-validation",
            "--store-max-bytes",
            "--admission-rps",
            "--admission-burst",
        ],
        &[],
        0,
    )?;
    let mut config = ServeConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = flag_value(args, "--threads") {
        config.threads = Some(n.parse().map_err(|_| format!("bad --threads `{n}`"))?);
    }
    if let Some(n) = flag_value(args, "--queue") {
        config.queue_capacity = n.parse().map_err(|_| format!("bad --queue `{n}`"))?;
    }
    if let Some(dir) = flag_value(args, "--store") {
        config.store_dir = Some(dir.into());
    }
    if let Some(mode) = flag_value(args, "--store-validation") {
        config.store_validation = mode
            .parse()
            .map_err(|e| format!("bad --store-validation: {e}"))?;
    }
    if let Some(n) = flag_value(args, "--store-max-bytes") {
        config.store_max_bytes = Some(
            n.parse()
                .map_err(|_| format!("bad --store-max-bytes `{n}`"))?,
        );
    }
    if let Some(r) = flag_value(args, "--admission-rps") {
        config.admission.rate_per_sec = Some(
            r.parse()
                .map_err(|_| format!("bad --admission-rps `{r}`"))?,
        );
    }
    if let Some(b) = flag_value(args, "--admission-burst") {
        config.admission.burst = Some(
            b.parse()
                .map_err(|_| format!("bad --admission-burst `{b}`"))?,
        );
    }
    let admission = config.admission.rate_per_sec;
    let handle = siro::serve::start(config).map_err(|e| format!("starting server: {e}"))?;
    // Parsed by scripts (and the CI smoke test) to discover the port.
    println!("siro-serve listening on {}", handle.addr());
    let store = siro::synth::store_stats();
    if store.attached {
        println!(
            "store attached | warm-loaded {} translator(s), {} corrupt entr{} skipped",
            store.warm_loaded,
            store.corrupt,
            if store.corrupt == 1 { "y" } else { "ies" }
        );
    }
    println!(
        "workers {} | queue capacity {}{} | \
         shut down with `siro shutdown --remote {}`",
        handle.workers(),
        handle.queue_capacity(),
        admission
            .map(|r| format!(" | admission {r} req/s per peer"))
            .unwrap_or_default(),
        handle.addr()
    );
    handle.wait();
    finish_trace();
    eprintln!("siro-serve drained and stopped");
    Ok(())
}

/// `siro loadgen`: open-loop rate sweep against a daemon. By default it
/// boots an in-process server so one command answers "what does this box
/// sustain"; `--remote` points the sweep at an already-running daemon
/// instead. Fails, after printing and writing its report, when the sweep
/// did not sustain its top rate, naming the first rate that missed.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use siro::loadgen::{corpus_payloads, sweep, EngineRun, LoadgenConfig};
    use std::net::ToSocketAddrs;

    check_flags(
        "loadgen",
        args,
        &[
            "--remote",
            "--threads",
            "--rates",
            "--slo-ms",
            "--connections",
            "--duration-ms",
            "--pairs",
            "-o",
        ],
        &["--synthesized"],
        0,
    )?;
    let pairs_spec = flag_value(args, "--pairs").unwrap_or("13.0:3.6");
    let mut pairs = Vec::new();
    for pair in pairs_spec.split(',') {
        let (a, b) = pair
            .split_once(':')
            .ok_or_else(|| format!("pair `{pair}` must look like `13.0:3.6`"))?;
        pairs.push((parse_version(a)?, parse_version(b)?));
    }
    let mode = if args.iter().any(|a| a == "--synthesized") {
        TranslateMode::Synthesized
    } else {
        TranslateMode::Reference
    };
    let rates: Vec<f64> = match flag_value(args, "--rates") {
        Some(spec) => {
            let mut out = Vec::new();
            for s in spec.split(',') {
                out.push(
                    s.trim()
                        .parse()
                        .map_err(|_| format!("bad --rates entry `{s}`"))?,
                );
            }
            out
        }
        None => vec![500.0, 1000.0, 2000.0, 4000.0],
    };
    let parse_num = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(s) => s.parse().map_err(|_| format!("bad {name} `{s}`")),
            None => Ok(default),
        }
    };
    let connections = parse_num("--connections", 64)?;
    let duration_ms = parse_num("--duration-ms", 1000)?;
    let slo_ms: f64 = match flag_value(args, "--slo-ms") {
        Some(s) => s.parse().map_err(|_| format!("bad --slo-ms `{s}`"))?,
        None => 25.0,
    };

    // An in-process server unless --remote points at a running daemon.
    let handle = match flag_value(args, "--remote") {
        Some(_) => None,
        None => {
            let mut config = ServeConfig {
                addr: "127.0.0.1:0".into(),
                queue_capacity: 512,
                ..ServeConfig::default()
            };
            if let Some(n) = flag_value(args, "--threads") {
                config.threads = Some(n.parse().map_err(|_| format!("bad --threads `{n}`"))?);
            }
            Some(siro::serve::start(config).map_err(|e| format!("starting server: {e}"))?)
        }
    };
    let (addr, engine) = match (&handle, flag_value(args, "--remote")) {
        (Some(h), _) => (h.addr(), "event".to_string()),
        (None, Some(remote)) => (
            remote
                .to_socket_addrs()
                .map_err(|e| format!("resolving {remote}: {e}"))?
                .next()
                .ok_or_else(|| format!("{remote} resolved to nothing"))?,
            "remote".to_string(),
        ),
        (None, None) => unreachable!("either in-process or --remote"),
    };

    let config = LoadgenConfig {
        addr,
        connections,
        duration: Duration::from_millis(duration_ms as u64),
        rates_rps: rates,
        slo_p99_ms: slo_ms,
        payloads: corpus_payloads(&pairs, mode),
        warmup: true,
        ..LoadgenConfig::default()
    };
    eprintln!(
        "loadgen [{engine}]: {addr}, {connections} connections, \
         {} pair(s), SLO p99 <= {slo_ms} ms",
        pairs.len()
    );
    let report = sweep(&config)?;
    print!("{}", siro::loadgen::render_table(&report));
    // A sweep that did not sustain its top rate fails the command, once
    // its report is printed and written.
    let top = report
        .rates
        .iter()
        .map(|r| r.target_rps)
        .fold(0.0, f64::max);
    let missed = report
        .rates
        .iter()
        .find(|r| !r.slo_met)
        .filter(|_| report.max_sustained_rps < top)
        .map(|r| r.target_rps);

    if let Some(out) = flag_value(args, "-o") {
        let run = EngineRun {
            engine,
            workers: handle.as_ref().map(|h| h.workers()).unwrap_or(0),
            connections,
            report,
        };
        let json = siro::loadgen::render_loadtest_json(&[run]);
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("report written to {out}");
    }
    if let Some(h) = handle {
        h.shutdown();
    }
    match missed {
        Some(rate) => Err(format!(
            "{rate:.1} req/s missed the SLO (p99 <= {slo_ms} ms, every request answered)"
        )),
        None => Ok(()),
    }
}

/// `siro store <warm|ls|gc|verify>`: manage a persistent translator
/// `siro route plan|matrix`: inspect the version-graph router (see
/// `docs/ROUTING.md`). With `--store`, edges are classified against the
/// persisted translators in that directory (warm vs cold).
fn cmd_route(args: &[String]) -> Result<(), String> {
    use siro::synth::{self, Router, StoreConfig, TranslatorStore, ValidationMode};

    const USAGE: &str = "usage: siro route <plan|matrix> [--from <ver> --to <ver>] \
                         [--store <dir>]";
    let sub = args.first().map(String::as_str).ok_or(USAGE)?;
    check_flags(
        &format!("route {sub}"),
        &args[1..],
        &["--from", "--to", "--store"],
        &[],
        0,
    )?;
    let previous = match flag_value(args, "--store") {
        Some(dir) => {
            let store = TranslatorStore::open(StoreConfig {
                dir: dir.into(),
                validation: ValidationMode::default(),
                max_bytes: None,
            })
            .map_err(|e| format!("opening store {dir}: {e}"))?;
            Some(synth::set_active_store(Some(std::sync::Arc::new(store))))
        }
        None => None,
    };
    let router = Router::new();
    let result = match sub {
        "plan" => {
            let from =
                parse_dialect_version(flag_value(args, "--from").ok_or("missing --from <ver>")?)?;
            let to = parse_dialect_version(flag_value(args, "--to").ok_or("missing --to <ver>")?)?;
            match router.plan(from, to) {
                Some(plan) => {
                    println!("{}", plan.describe());
                    for hop in &plan.hops {
                        println!(
                            "  {} -> {}: {} (cost {}us)",
                            hop.from, hop.to, hop.class, hop.cost_us
                        );
                    }
                    Ok(())
                }
                None => Err(format!("no route from {from} to {to}")),
            }
        }
        "matrix" => {
            let nodes = router.graph().nodes().to_vec();
            let matrix = router.matrix();
            print!("{:>6} |", "from\\to");
            for v in &nodes {
                print!("{:>6}", v.to_string());
            }
            println!();
            println!("{}", "-".repeat(8 + 6 * nodes.len()));
            let (mut direct, mut composed, mut unreachable) = (0usize, 0usize, 0usize);
            for (i, row) in matrix.chunks(nodes.len()).enumerate() {
                print!("{:>7} |", nodes[i].to_string());
                for ((from, to), plan) in row {
                    match plan {
                        Some(p) => {
                            if *from != *to {
                                if p.is_direct() {
                                    direct += 1;
                                } else {
                                    composed += 1;
                                }
                            }
                            print!("{:>6}", p.hop_count());
                        }
                        None => {
                            unreachable += 1;
                            print!("{:>6}", "-");
                        }
                    }
                }
                println!();
            }
            println!(
                "{} pair(s): {direct} direct, {composed} composed, {unreachable} unreachable",
                nodes.len() * (nodes.len() - 1),
            );
            if unreachable > 0 {
                Err(format!("{unreachable} pair(s) are unreachable"))
            } else {
                Ok(())
            }
        }
        other => Err(format!("unknown route subcommand `{other}` ({USAGE})")),
    };
    if let Some(previous) = previous {
        synth::set_active_store(previous);
    }
    result
}

/// store directory (see `docs/PERSISTENCE.md`).
fn cmd_store(args: &[String]) -> Result<(), String> {
    use siro::synth::{self, StoreConfig, TranslatorStore, ValidationMode};

    const USAGE: &str = "usage: siro store <warm|ls|gc|verify> --dir <dir> \
                         [--pairs <a:b,...>] [--validation <mode>] [--max-bytes <n>]";
    let sub = args.first().map(String::as_str).ok_or(USAGE)?;
    check_flags(
        &format!("store {sub}"),
        &args[1..],
        &["--dir", "--pairs", "--validation", "--max-bytes"],
        &[],
        0,
    )?;
    let dir = flag_value(args, "--dir").ok_or("missing --dir <path>")?;
    let validation = match flag_value(args, "--validation") {
        Some(s) => s
            .parse::<ValidationMode>()
            .map_err(|e| format!("bad --validation: {e}"))?,
        None => ValidationMode::default(),
    };
    let store = TranslatorStore::open(StoreConfig {
        dir: dir.into(),
        validation,
        max_bytes: None,
    })
    .map_err(|e| format!("opening store {dir}: {e}"))?;
    match sub {
        "warm" => {
            let pairs_spec = flag_value(args, "--pairs").unwrap_or("13.0:3.6");
            let previous = synth::set_active_store(Some(std::sync::Arc::new(store)));
            let result = (|| {
                for pair in pairs_spec.split(',') {
                    let (a, b) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("pair `{pair}` must look like `13.0:3.6`"))?;
                    let src = parse_version(a)?;
                    let tgt = parse_version(b)?;
                    let tests = oracle_corpus(src, tgt);
                    let config = synth::SynthesisConfig::new(src, tgt);
                    let lookup = synth::TranslatorCache::lookup_or_synthesize(config, &tests)
                        .map_err(|e| format!("synthesis {src} -> {tgt} failed: {e}"))?;
                    println!(
                        "{src} -> {tgt}: {}",
                        if lookup.from_store {
                            "already stored (validated on load)"
                        } else if lookup.fresh {
                            "synthesized and stored"
                        } else {
                            "already cached in this process"
                        }
                    );
                }
                Ok(())
            })();
            synth::set_active_store(previous);
            let s = synth::store_stats();
            println!(
                "store {dir}: {} write(s), {} validated load(s), {} corrupt",
                s.writes, s.hits, s.corrupt
            );
            finish_trace();
            result
        }
        "ls" => {
            let entries = store.entries().map_err(|e| format!("listing {dir}: {e}"))?;
            println!("{:>20} | {:>10} | entry", "pair", "bytes");
            println!("{}", "-".repeat(60));
            for e in &entries {
                let pair = e
                    .key
                    .map(|k| format!("{} -> {}", k.source, k.target))
                    .unwrap_or_else(|| "(unreadable)".into());
                let name = e.path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                println!("{pair:>20} | {:>10} | {name}", e.bytes);
            }
            println!(
                "{} entr{}",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            Ok(())
        }
        "gc" => {
            let max: u64 = flag_value(args, "--max-bytes")
                .ok_or("missing --max-bytes <n>")?
                .parse()
                .map_err(|_| "bad --max-bytes".to_string())?;
            let report = store.gc(max).map_err(|e| format!("gc {dir}: {e}"))?;
            println!(
                "scanned {} entr{}, removed {}, swept {} stale temp file(s), {} -> {} bytes",
                report.scanned,
                if report.scanned == 1 { "y" } else { "ies" },
                report.removed,
                report.stale_tmp_removed,
                report.bytes_before,
                report.bytes_after
            );
            Ok(())
        }
        "verify" => {
            let outcomes = store.verify().map_err(|e| format!("verify {dir}: {e}"))?;
            let mut corrupt = 0usize;
            for o in &outcomes {
                let name = o.path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                let pair = o
                    .pair
                    .map(|(s, t)| format!("{s} -> {t}"))
                    .unwrap_or_else(|| "(unreadable)".into());
                match &o.result {
                    Ok(()) => println!("ok      {pair:>16}  {name}"),
                    Err(reason) => {
                        corrupt += 1;
                        println!("CORRUPT {pair:>16}  {name}: {reason}");
                    }
                }
            }
            if corrupt > 0 {
                Err(format!(
                    "{corrupt} corrupt entr{} in {dir}",
                    if corrupt == 1 { "y" } else { "ies" }
                ))
            } else {
                println!(
                    "{} entr{} verified",
                    outcomes.len(),
                    if outcomes.len() == 1 { "y" } else { "ies" }
                );
                Ok(())
            }
        }
        other => Err(format!("unknown store subcommand `{other}` ({USAGE})")),
    }
}

/// The flags of the remote-client commands that take no others.
const REMOTE_FLAGS: [&str; 2] = ["--remote", "--timeout-ms"];

fn cmd_stats(args: &[String]) -> Result<(), String> {
    check_flags("stats", args, &REMOTE_FLAGS, &[], 0)?;
    let addr = flag_value(args, "--remote").ok_or("usage: siro stats --remote <addr>")?;
    let mut client = connect_remote(args, addr)?;
    let page = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
    print!("{page}");
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    check_flags("metrics", args, &REMOTE_FLAGS, &[], 0)?;
    let addr = flag_value(args, "--remote").ok_or("usage: siro metrics --remote <addr>")?;
    let mut client = connect_remote(args, addr)?;
    let page = client
        .metrics()
        .map_err(|e| format!("fetching metrics: {e}"))?;
    print!("{page}");
    Ok(())
}

fn cmd_trace_report(args: &[String]) -> Result<(), String> {
    let path = check_flags("trace-report", args, &[], &[], 1)?
        .first()
        .map_or_else(siro::trace::export::default_trace_path, |p| {
            std::path::PathBuf::from(p)
        });
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "reading {}: {e} (run with SIRO_TRACE=1 first)",
            path.display()
        )
    })?;
    let snapshot = siro::trace::export::parse_chrome_trace(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} spans, {} counters from {}\n",
        snapshot.spans.len(),
        snapshot.counters.len(),
        path.display()
    );
    print!("{}", siro::trace::export::render_aggregate(&snapshot));
    Ok(())
}

/// Writes the collected trace (if tracing is on) and says where it went.
fn finish_trace() {
    if !siro::trace::enabled() {
        return;
    }
    let path = siro::trace::export::default_trace_path();
    match siro::trace::export::write_chrome_trace(&path) {
        Ok(p) => eprintln!(
            "trace written to {} (load in Perfetto or run `siro trace-report {}`)",
            p.display(),
            p.display()
        ),
        Err(e) => eprintln!("warning: writing trace {}: {e}", path.display()),
    }
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    check_flags("shutdown", args, &REMOTE_FLAGS, &[], 0)?;
    let addr = flag_value(args, "--remote").ok_or("usage: siro shutdown --remote <addr>")?;
    let mut client = connect_remote(args, addr)?;
    client
        .shutdown()
        .map_err(|e| format!("requesting shutdown: {e}"))?;
    println!("shutdown acknowledged; {addr} is draining");
    Ok(())
}

fn cmd_synthesize(args: &[String]) -> Result<(), String> {
    check_flags("synthesize", args, &["--from", "--to"], &["--emit-code"], 0)?;
    let from = parse_version(flag_value(args, "--from").ok_or("missing --from <version>")?)?;
    let to = parse_version(flag_value(args, "--to").ok_or("missing --to <version>")?)?;
    let tests = oracle_corpus(from, to);
    eprintln!("pair {from} -> {to}: {} usable corpus tests", tests.len());
    let outcome = Synthesizer::for_pair(from, to)
        .synthesize(&tests)
        .map_err(|e| format!("synthesis failed: {e}"))?;
    let r = &outcome.report;
    println!(
        "synthesized {} instruction translators in {:.2}s \
         ({} per-test translators validated)",
        outcome.translator.covered_kinds().len(),
        r.timings.total().as_secs_f64(),
        r.assignments_validated
    );
    println!(
        "candidate space {} LOC -> final translator {} LOC",
        r.candidate_loc, r.translator_loc
    );
    let redundant = r.redundant_tests();
    if !redundant.is_empty() {
        println!("redundant tests: {}", redundant.join(", "));
    }
    if args.iter().any(|a| a == "--emit-code") {
        println!("\n{}", outcome.rendered);
    }
    // Smoke-check the result against the corpus, like the paper's review.
    let skel = Skeleton::new(to);
    for case in siro::testcases::corpus_for_pair(from, to) {
        let m = case.build(from);
        let t = skel
            .translate_module(&m, &outcome.translator)
            .map_err(|e| format!("self-check {} failed: {e}", case.name))?;
        let got = Machine::new(&t)
            .run_main()
            .map_err(|e| e.to_string())?
            .return_int();
        if got != Some(case.oracle) {
            return Err(format!(
                "self-check {}: got {got:?}, want {}",
                case.name, case.oracle
            ));
        }
    }
    println!("self-check: all corpus cases translate and meet their oracles");
    finish_trace();
    Ok(())
}

/// Picks the chain intermediate for a pair the way the version-graph
/// router would: the cheapest two-hop decomposition under the current
/// edge costs.
fn pick_mid(src: IrVersion, tgt: IrVersion) -> IrVersion {
    *siro::difftest::routed_mids(src, tgt)
        .first()
        .expect("catalog has more than two versions")
}

fn cmd_difftest(args: &[String]) -> Result<(), String> {
    use siro::difftest::{DifftestConfig, RegressionArtifact};

    check_flags(
        "difftest",
        args,
        &[
            "--pairs",
            "--budget",
            "--seed",
            "--fault",
            "--mid",
            "--route-mids",
            "--regressions",
            "-o",
        ],
        &["--expect-failure"],
        0,
    )?;
    let pairs_spec = flag_value(args, "--pairs").unwrap_or("13.0:3.6");
    let budget: f64 = match flag_value(args, "--budget") {
        Some(s) => s.parse().map_err(|_| format!("bad --budget `{s}`"))?,
        None => 10.0,
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
        None => 42,
    };
    let fault = match flag_value(args, "--fault") {
        Some(s) => Some(
            s.parse::<siro::synth::SynthFault>()
                .map_err(|e| format!("bad --fault: {e}"))?,
        ),
        None => None,
    };
    let mid_override = match flag_value(args, "--mid") {
        Some(s) => Some(parse_version(s)?),
        None => None,
    };
    let route_mids: usize = match flag_value(args, "--route-mids") {
        Some(s) => s.parse().map_err(|_| format!("bad --route-mids `{s}`"))?,
        None => 1,
    };
    let expect_failure = args.iter().any(|a| a == "--expect-failure");
    let regressions = flag_value(args, "--regressions");

    let mut reports = Vec::new();
    let mut any_failure = false;
    let mut any_shrunk = false;
    for pair in pairs_spec.split(',') {
        let (a, b) = pair
            .split_once(':')
            .ok_or_else(|| format!("pair `{pair}` must look like `13.0:3.6`"))?;
        let src = parse_version(a)?;
        let tgt = parse_version(b)?;
        let mid = mid_override.unwrap_or_else(|| pick_mid(src, tgt));
        let mut cfg = DifftestConfig::new(src, mid, tgt);
        cfg.seed = seed;
        cfg.budget = Duration::from_secs_f64(budget);
        cfg.fault = fault;
        cfg.route_mids = route_mids;
        eprintln!(
            "difftest {src} -> {tgt} (chain via {mid}, budget {budget}s{})",
            fault
                .map(|f| format!(", injected fault {f}"))
                .unwrap_or_default()
        );
        let report = siro::difftest::run(&cfg).map_err(|e| format!("synthesis failed: {e}"))?;
        println!(
            "pair {src}:{tgt}: {} execs ({:.1}/s), corpus {} ({} kinds, {} beyond generation), \
             {} failures ({} distinct, {} duplicate sightings), {} skips",
            report.execs,
            report.execs_per_sec(),
            report.corpus_size,
            report.corpus_kinds.len(),
            report.new_kinds().len(),
            report.failures.len(),
            report.distinct_failures(),
            report.duplicate_failures,
            report.skips
        );
        for f in &report.failures {
            println!(
                "  [{}/{}] path via {}, mutator {}: {} ({} -> {} insts{})",
                f.oracle,
                f.family.name(),
                f.mid,
                f.mutator,
                f.detail,
                f.original_insts,
                f.reduced_insts,
                if f.shrunk { ", shrunk" } else { ", NOT SHRUNK" }
            );
        }
        if let Some(dir) = regressions {
            for f in &report.failures {
                let artifact = RegressionArtifact::from_record(src, tgt, fault, f);
                let path = artifact
                    .save(std::path::Path::new(dir))
                    .map_err(|e| format!("writing regression artifact: {e}"))?;
                println!("  regression artifact: {}", path.display());
            }
        }
        any_failure |= !report.failures.is_empty();
        any_shrunk |= report.failures.iter().any(|f| f.shrunk);
        reports.push(report);
    }

    let json = siro::trace::json::render(&siro::difftest::difftest_json(&reports));
    let json_path = flag_value(args, "-o").unwrap_or("BENCH_difftest.json");
    std::fs::write(json_path, json).map_err(|e| format!("writing {json_path}: {e}"))?;
    eprintln!("report written to {json_path}");

    if expect_failure {
        if any_failure && any_shrunk {
            println!("expected failure was found and shrunk");
            Ok(())
        } else if any_failure {
            Err("--expect-failure: a failure was found but did not shrink to the target".into())
        } else {
            Err("--expect-failure: no oracle failure was found".into())
        }
    } else if any_failure {
        Err("oracle failures were found (see the report and artifacts)".into())
    } else {
        Ok(())
    }
}

fn cmd_opt(args: &[String]) -> Result<(), String> {
    let [path] = check_flags("opt", args, &["-o"], &[], 1)?[..] else {
        return Err("usage: siro opt <file> [-o <out>]".into());
    };
    let mut m = load_module(path)?;
    let stats = siro::opt::optimize(&mut m);
    verify::verify_module(&m).map_err(|e| format!("optimized module does not verify: {e}"))?;
    eprintln!(
        "mem2reg: {} slots; folded: {}; blocks removed: {}; dead insts: {}",
        stats.promoted_slots, stats.folded, stats.removed_blocks, stats.removed_insts
    );
    emit_module(&m, flag_value(args, "-o"))
}
