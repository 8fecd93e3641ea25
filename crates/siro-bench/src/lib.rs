//! # siro-bench — shared helpers for the experiment harness
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (run with `cargo bench -p siro-bench --bench <name>`):
//!
//! | target | reproduces or gates |
//! |---|---|
//! | `fig8_upgrade_trend` | Fig. 8 (LLVM IR upgrading trend) |
//! | `tab3_translators` | Tab. 3 (ten synthesized version pairs) |
//! | `fig12_distributions` | Fig. 12 (candidate / refined distributions) |
//! | `tab4_static_bugs` | Tab. 4 (Pinpoint reports under two settings) |
//! | `tab5_fuzzing` | Tab. 5 (Magma PoC reproduction) |
//! | `rq2_kernel` | the Linux-kernel deployment (80 bugs) |
//! | `rq3_breakdown` | RQ3 time breakdown |
//! | `rq3_ablation` | RQ3 ablation study |
//! | `future_autogen` | the paper's future-work experiment |
//! | `full_eval` | the whole pipeline sharing one translator cache |
//! | `micro` | micro-benchmarks |
//! | `trace_overhead` | gate: disabled tracing costs under 2% |
//! | `difftest_smoke` | gate: clean fuzzing is quiet, a seeded fault is caught and shrunk |
//! | `warmstart` | gate: a store-booted daemon answers its first request at cache-hit speed |
//! | `router_matrix` | gate: every catalog pair is reachable, composed routes equal direct |
//! | `translate_hot` | gate: the compiled tier is byte-identical and 5× faster |
//! | `ir_alloc` | gate: the arena IR cuts allocator calls per request 2× |
//! | `cross_dialect` | gate: WIR pairs and bridge anchors round-trip warm, byte-identical |
//!
//! All synthesis goes through [`siro_synth::TranslatorCache`], so targets
//! that need the same version pair (and the `full_eval` composite run)
//! synthesize it once per process.
//!
//! A target that records its run builds one [`Value`] and hands it to
//! [`write()`], which puts it in `BENCH_<target>.json` at the workspace root
//! whatever the working directory (`cargo bench` runs each target from
//! `crates/siro-bench/`). Each document starts with its `schema` tag; a
//! gate's document ends with `"pass"`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use siro_ir::IrVersion;
use siro_synth::{
    oracle_corpus, CacheLookup, SynthError, SynthesisConfig, SynthesisOutcome, TranslatorCache,
};
use siro_trace::json::{obj, Value};

/// A synthesis failure tagged with the version pair it belongs to, so a
/// failing multi-pair run names the culprit.
#[derive(Debug, Clone, PartialEq)]
pub struct PairError {
    /// Source version of the failing pair.
    pub source: IrVersion,
    /// Target version of the failing pair.
    pub target: IrVersion,
    /// The underlying synthesis error.
    pub error: SynthError,
}

impl std::fmt::Display for PairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "synthesis {} -> {} failed: {}",
            self.source, self.target, self.error
        )
    }
}

impl std::error::Error for PairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Synthesizes (or fetches from the process-wide cache) the instruction
/// translators for one pair from the corpus.
///
/// # Errors
///
/// Returns a [`PairError`] naming the pair when synthesis fails.
pub fn synthesize_pair(src: IrVersion, tgt: IrVersion) -> Result<Arc<SynthesisOutcome>, PairError> {
    let tests = oracle_corpus(src, tgt);
    TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests).map_err(|error| {
        PairError {
            source: src,
            target: tgt,
            error,
        }
    })
}

/// Synthesizes many pairs concurrently (one worker per pair, each worker
/// parallelizing internally on `config.threads`), returning each pair's
/// cache lookup and its wall clock, in input order.
///
/// # Errors
///
/// The first failing pair's [`PairError`] (all pairs still run to
/// completion first).
pub fn synthesize_pairs(
    pairs: &[(IrVersion, IrVersion)],
) -> Result<Vec<(CacheLookup, Duration)>, PairError> {
    let results: Vec<Result<(CacheLookup, Duration), PairError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|&(src, tgt)| {
                scope.spawn(move || {
                    let tests = oracle_corpus(src, tgt);
                    let t0 = Instant::now();
                    let lookup = TranslatorCache::lookup_or_synthesize(
                        SynthesisConfig::new(src, tgt),
                        &tests,
                    )
                    .map_err(|error| PairError {
                        source: src,
                        target: tgt,
                        error,
                    })?;
                    Ok((lookup, t0.elapsed()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pair synthesis worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// One pair's entry of the `siro-bench/synthesis-v2` document. `wall` is
/// the cache lookup's wall clock (≈ synthesis time on a miss, ≈ zero on a
/// hit); the stage timings come from the memoized report, identical on
/// hit and miss.
pub fn synthesis_pair(
    (source, target): (IrVersion, IrVersion),
    outcome: &SynthesisOutcome,
    wall: Duration,
    from_cache: bool,
) -> Value {
    let r = &outcome.report;
    let t = &r.timings;
    obj([
        ("source", source.to_string().into()),
        ("target", target.to_string().into()),
        ("from_cache", from_cache.into()),
        ("wall_us", micros(wall).into()),
        ("tests_used", r.tests_used.into()),
        ("assignments_validated", r.assignments_validated.into()),
        ("translator_loc", r.translator_loc.into()),
        (
            "timings_us",
            obj([
                ("generation", micros(t.generation).into()),
                ("profiling", micros(t.profiling).into()),
                ("enumeration", micros(t.enumeration).into()),
                ("validation", micros(t.validation).into()),
                (
                    "validation_execute_cpu",
                    micros(t.validation_execute_cpu).into(),
                ),
                (
                    "validation_translate_cpu",
                    micros(t.validation_translate_cpu).into(),
                ),
                ("refinement", micros(t.refinement).into()),
                ("completion", micros(t.completion).into()),
            ]),
        ),
    ])
}

/// A version pair as the `{"source", "target"}` object several records
/// carry under `"pair"`.
pub fn version_pair((source, target): (IrVersion, IrVersion)) -> Value {
    obj([
        ("source", source.to_string().into()),
        ("target", target.to_string().into()),
    ])
}

/// The `siro-bench/synthesis-v2` document: the [`synthesis_pair`]
/// entries plus the process-wide translator-cache counters.
pub fn synthesis_doc(pairs: Vec<Value>) -> Value {
    let stats = TranslatorCache::snapshot();
    obj([
        ("schema", "siro-bench/synthesis-v2".into()),
        ("threads", siro_synth::resolve_threads().into()),
        (
            "cache",
            obj([("hits", stats.hits.into()), ("misses", stats.misses.into())]),
        ),
        ("pairs", Value::Arr(pairs)),
    ])
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/siro-bench sits two levels below the workspace root")
}

/// Writes `doc` to `BENCH_<target>.json` at the workspace root and
/// returns the path. A top-level `"pass"` member is moved to the end, so
/// every other member's line ends in a comma (CI greps such as
/// `'"unreachable": 0,'` rely on it) and the verdict is the last line.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write(target: &str, doc: &Value) -> std::io::Result<PathBuf> {
    let mut doc = doc.clone();
    if let Value::Obj(members) = &mut doc {
        if let Some(i) = members.iter().position(|(k, _)| k == "pass") {
            let pass = members.remove(i);
            members.push(pass);
        }
    }
    let path = workspace_root().join(format!("BENCH_{target}.json"));
    std::fs::write(&path, siro_trace::json::render(&doc))?;
    Ok(path)
}

/// The median of a non-empty sample: `xs[len / 2]` after sorting, the
/// upper middle for an even length.
pub fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// The `pct`-th percentile of an ascending-sorted, non-empty sample, at
/// index `(len - 1) * pct / 100`.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[(sorted.len() - 1) * pct / 100]
}

/// `d` in whole microseconds, saturating.
pub fn micros(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

/// The positive number in environment variable `name`, else `default`.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(default)
}

/// Prints a titled separator for experiment output.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_lands_at_the_workspace_root_with_pass_last() {
        // `cargo test` runs this from crates/siro-bench, as `cargo bench`
        // runs the targets.
        let doc = obj([
            ("schema", "siro-bench/selftest-v1".into()),
            ("pass", true.into()),
            ("unreachable", 0u64.into()),
            ("hops", (1..=2u64).map(Value::from).collect()),
        ]);
        let path = write("write_selftest", &doc).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");

        let root = path.parent().expect("a file in a directory");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        assert!(
            manifest.contains("[workspace]"),
            "{} is not the workspace root",
            root.display()
        );
        assert!(root.join("crates/siro-bench").is_dir());
        assert_eq!(path.file_name().unwrap(), "BENCH_write_selftest.json");

        assert!(text.starts_with("{\n  \"schema\": \"siro-bench/selftest-v1\",\n"));
        assert!(text.contains("\n  \"unreachable\": 0,\n"), "{text}");
        assert!(text.ends_with("\n  \"pass\": true\n}\n"), "{text}");
        let back = siro_trace::json::parse(&text).expect("parses");
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["schema", "unreachable", "hops", "pass"]);
    }

    #[test]
    fn median_and_percentile_pick_by_index() {
        assert_eq!(median(vec![5u64, 1, 4, 2]), 4);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
    }
}
