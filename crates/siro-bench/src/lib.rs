//! # siro-bench — shared helpers for the experiment harness
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (run with `cargo bench -p siro-bench --bench <name>`):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig8_upgrade_trend` | Fig. 8 (LLVM IR upgrading trend) |
//! | `tab3_translators` | Tab. 3 (ten synthesized version pairs) |
//! | `fig12_distributions` | Fig. 12 (candidate / refined distributions) |
//! | `tab4_static_bugs` | Tab. 4 (Pinpoint reports under two settings) |
//! | `tab5_fuzzing` | Tab. 5 (Magma PoC reproduction) |
//! | `rq2_kernel` | the Linux-kernel deployment (80 bugs) |
//! | `rq3_breakdown` | RQ3 time breakdown |
//! | `rq3_ablation` | RQ3 ablation study |
//! | `full_eval` | the whole pipeline sharing one translator cache |
//! | `micro` | micro-benchmarks |
//! | `serve_loopback` | the `siro-serve` daemon over a loopback socket |
//!
//! All synthesis goes through [`siro_synth::TranslatorCache`], so targets
//! that need the same version pair (and the `full_eval` composite run)
//! synthesize it once per process. [`perf::write_synthesis_json`] dumps
//! per-pair stage timings and the cache hit/miss counters to
//! `BENCH_synthesis.json` (path overridable via `SIRO_BENCH_JSON`);
//! `serve_loopback` dumps a [`perf::ServeRecord`] to `BENCH_serve.json`
//! (overridable via `SIRO_BENCH_SERVE_JSON`).

use std::sync::Arc;
use std::time::Instant;

use siro_ir::IrVersion;
use siro_synth::{oracle_corpus, SynthError, SynthesisConfig, SynthesisOutcome, TranslatorCache};

pub mod perf;

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

/// Synthesizes with an explicit configuration, through the cache (each
/// distinct knob setting is its own cache key).
///
/// # Errors
///
/// Propagates [`SynthError`].
pub fn synthesize_with(config: SynthesisConfig) -> Result<Arc<SynthesisOutcome>, SynthError> {
    let tests = oracle_corpus(config.source, config.target);
    TranslatorCache::get_or_synthesize(config, &tests)
}

/// Synthesizes many pairs concurrently (one worker per pair, each worker
/// parallelizing internally on `config.threads`), returning the outcomes
/// in input order together with a [`perf::SynthRecord`] per pair for the
/// JSON dump.
///
/// # Errors
///
/// The first failing pair's [`PairError`] (all pairs still run to
/// completion first).
pub fn synthesize_pairs(
    pairs: &[(IrVersion, IrVersion)],
) -> Result<Vec<(Arc<SynthesisOutcome>, perf::SynthRecord)>, PairError> {
    let results: Vec<Result<(Arc<SynthesisOutcome>, perf::SynthRecord), PairError>> =
        std::thread::scope(|scope| {
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
                        let record = perf::SynthRecord::new(
                            src,
                            tgt,
                            &lookup.outcome,
                            t0.elapsed(),
                            !lookup.fresh,
                        );
                        Ok((lookup.outcome, record))
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
