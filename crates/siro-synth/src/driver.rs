//! The synthesis driver: Alg. 2 end to end.
//!
//! ```text
//! Λ* <- Generate(Lib, K)                  // type-guided generation  ➊
//! for t in T (ordered, Opt. III):
//!     τ_t  <- Profile(t)                  // three profilers          ➋
//!     PT_t <- Enumerate(Λ*, τ_t)          // per-test translators     ➋
//!     PT✓  <- Validate(PT_t, t)           // differential testing     ➌
//!     Refine(M*, PT✓, τ_t)                // Alg. 4                   ➍
//! return CompleteSkeleton(M*)             //                          ➎
//! ```
//!
//! The three optimizations of §4.4 are independently switchable so the RQ3
//! ablation can reproduce the paper's blow-ups:
//!
//! * **Opt. I (equivalence)** — locations sharing `(kind, σ&)` share one
//!   enumeration box, and probe-equivalent candidates are enumerated
//!   through one representative;
//! * **Opt. II (memoization)** — a conjunction already in `M*` restricts
//!   the box to the memoized survivors;
//! * **Opt. III (ordering)** — simpler test cases run first so later,
//!   larger cases start from refined boxes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use siro_api::{ApiProgram, ApiRegistry};
use siro_core::SynthesizedTranslator;
use siro_ir::{IrVersion, Opcode};

use crate::candgen::{generate_all, GenLimits};
use crate::complete::{candidate_loc, complete_translator, render_translator};
use crate::pertest::{
    probe_candidate, validate_assignment, Enumeration, OracleTest, Slot, ValidationTiming,
};
use crate::profile::profile_module;
use crate::refine::{MStar, SynthFault};
use crate::typegraph::TypeGraph;

/// Configuration of one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Source IR version (getter side).
    pub source: IrVersion,
    /// Target IR version (builder side).
    pub target: IrVersion,
    /// Optimization I: equivalence merging.
    pub opt_equivalence: bool,
    /// Optimization II: memoization through `M*`.
    pub opt_memoization: bool,
    /// Optimization III: simple-tests-first ordering.
    pub opt_ordering: bool,
    /// Validation worker threads.
    pub threads: usize,
    /// Candidate-generation limits.
    pub limits: GenLimits,
    /// Per-test translator budget; exceeding it aborts like the paper's
    /// 24-hour timeout with 13,000,000 translators pending.
    pub max_assignments_per_test: u128,
    /// Test-only fault injection: a deliberately broken synthesis rule the
    /// differential fuzzer must find. `None` (the default and the only
    /// production value) synthesizes normally.
    pub fault: Option<SynthFault>,
}

impl SynthesisConfig {
    /// Default configuration for a version pair (all optimizations on).
    pub fn new(source: IrVersion, target: IrVersion) -> Self {
        SynthesisConfig {
            source,
            target,
            opt_equivalence: true,
            opt_memoization: true,
            opt_ordering: true,
            threads: resolve_threads(),
            limits: GenLimits::default(),
            max_assignments_per_test: 500_000,
            fault: None,
        }
    }
}

/// Resolves the worker-thread count for synthesis: the `SIRO_THREADS`
/// environment variable when set to a positive integer, otherwise every
/// core `available_parallelism` reports. Resolved once per process —
/// [`SynthesisConfig::new`] runs on the serving hot path (the router
/// builds a config per catalog edge per plan), and the env lookup plus
/// `available_parallelism` syscall dominated it.
pub fn resolve_threads() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| threads_from_override(std::env::var("SIRO_THREADS").ok().as_deref()))
}

/// Pure core of [`resolve_threads`], split out so the fallback rules are
/// testable without racing on the process environment. Zero or unparsable
/// overrides fall back to the detected parallelism, so `SIRO_THREADS=0`
/// can never configure a run with no workers.
pub fn threads_from_override(raw: Option<&str>) -> usize {
    let detected = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    match raw.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => detected,
    }
}

/// Wall-clock breakdown of the synthesis stages (the RQ3 "time breakdown").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Type-guided candidate generation.
    pub generation: Duration,
    /// Profiling all test cases.
    pub profiling: Duration,
    /// Per-test translator enumeration (incl. probing).
    pub enumeration: Duration,
    /// Differential-testing validation (wall clock).
    pub validation: Duration,
    /// CPU time inside validation spent *executing* translated tests (the
    /// paper reports this separately: 0.19 h of 2.64 h).
    pub validation_execute_cpu: Duration,
    /// CPU time inside validation spent translating + compiling.
    pub validation_translate_cpu: Duration,
    /// Refinement (Alg. 4).
    pub refinement: Duration,
    /// Skeleton completion + rendering.
    pub completion: Duration,
}

impl StageTimings {
    /// Total wall-clock of all stages.
    pub fn total(&self) -> Duration {
        self.generation
            + self.profiling
            + self.enumeration
            + self.validation
            + self.refinement
            + self.completion
    }
}

/// Per-test statistics (drives the "did this test prune anything" feedback
/// the paper uses to spot duplicated test cases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestStats {
    /// Test name.
    pub name: String,
    /// Per-test translators validated.
    pub assignments: u64,
    /// How many passed the oracle.
    pub passed: u64,
    /// Candidates eliminated from `M*` by this test.
    pub pruned: u64,
}

/// The full report of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// The version pair.
    pub pair: (IrVersion, IrVersion),
    /// Number of test cases consumed.
    pub tests_used: usize,
    /// Initial candidate count per kind (Fig. 12(a)).
    pub candidate_counts: BTreeMap<Opcode, usize>,
    /// Refined candidate count per kind (Fig. 12(b)).
    pub refined_counts: BTreeMap<Opcode, usize>,
    /// Total per-test translators validated.
    pub assignments_validated: u64,
    /// Stage timings.
    pub timings: StageTimings,
    /// Rendered-source line count of all initial candidates ("#Atomic Trans
    /// (LOC)" of Tab. 3).
    pub candidate_loc: usize,
    /// Rendered-source line count of the final translator ("#Inst Trans
    /// (LOC)").
    pub translator_loc: usize,
    /// Per-test statistics in execution order.
    pub per_test: Vec<TestStats>,
}

impl SynthesisReport {
    /// Tests that eliminated no candidates — duplicates the user can drop.
    pub fn redundant_tests(&self) -> Vec<&str> {
        self.per_test
            .iter()
            .filter(|t| t.pruned == 0)
            .map(|t| t.name.as_str())
            .collect()
    }
}

/// A completed synthesis: the pluggable translator plus its report and
/// rendered source.
#[derive(Debug)]
pub struct SynthesisOutcome {
    /// The executable instruction-translator set.
    pub translator: SynthesizedTranslator,
    /// Statistics and timings.
    pub report: SynthesisReport,
    /// The final translator rendered as source code (Fig. 4 style).
    pub rendered: String,
    /// The lazily lowered compiled tier: unset until the first
    /// [`SynthesisOutcome::compiled`] call, then memoized — `None` records
    /// a failed lowering so it is not re-attempted per request.
    pub(crate) compiled_slot: OnceLock<Option<Arc<crate::compile::CompiledTranslator>>>,
}

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// A test case produced more per-test translators than the budget —
    /// the ablation's "timeout" signal.
    Blowup {
        /// The offending test.
        test: String,
        /// How many per-test translators would have to be validated.
        assignments: u128,
    },
    /// No per-test translator passed a test: the candidate space lacks a
    /// correct translator or the corpus is inconsistent.
    Conflict {
        /// The offending test.
        test: String,
    },
    /// A profiler or API failure.
    Api(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Blowup { test, assignments } => write!(
                f,
                "enumeration blow-up on `{test}`: {assignments} per-test translators pending"
            ),
            SynthError::Conflict { test } => {
                write!(f, "no per-test translator satisfied `{test}`")
            }
            SynthError::Api(m) => write!(f, "API failure: {m}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// The synthesis system of Fig. 5.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    /// Run configuration.
    pub config: SynthesisConfig,
}

impl Synthesizer {
    /// Creates a synthesizer.
    pub fn new(config: SynthesisConfig) -> Self {
        Synthesizer { config }
    }

    /// Convenience constructor with defaults for a pair.
    pub fn for_pair(source: IrVersion, target: IrVersion) -> Self {
        Synthesizer::new(SynthesisConfig::new(source, target))
    }

    /// Runs Alg. 2 over the given test cases.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize(&self, tests: &[OracleTest]) -> Result<SynthesisOutcome, SynthError> {
        let cfg = &self.config;
        let _run = siro_trace::span!(
            "synth.run",
            "{}->{} ({} tests)",
            cfg.source,
            cfg.target,
            tests.len()
        );
        let registry = Arc::new(ApiRegistry::for_pair(cfg.source, cfg.target));
        let mut timings = StageTimings::default();

        // ➊ Type-guided generation.
        let t0 = Instant::now();
        let sp = siro_trace::span!("synth.generate");
        let per_kind: HashMap<Opcode, Vec<ApiProgram>> = {
            let graph = TypeGraph::new(&registry);
            generate_all(&graph, cfg.limits).into_iter().collect()
        };
        drop(sp);
        timings.generation = t0.elapsed();
        let candidate_counts: BTreeMap<Opcode, usize> =
            per_kind.iter().map(|(k, v)| (*k, v.len())).collect();

        // Opt. III: order the tests simplest-first (fewest distinct kinds,
        // then fewest instructions).
        let mut order: Vec<usize> = (0..tests.len()).collect();
        if cfg.opt_ordering {
            let keys: Vec<(usize, usize)> = tests
                .iter()
                .map(|t| {
                    let mut kinds = BTreeSet::new();
                    let mut insts = 0usize;
                    for f in &t.module.funcs {
                        for i in &f.insts {
                            kinds.insert(i.opcode);
                            insts += 1;
                        }
                    }
                    (kinds.len(), insts)
                })
                .collect();
            order.sort_by_key(|&i| keys[i]);
        }

        let mut mstar = MStar::new();
        let mut per_test_stats = Vec::new();
        let mut assignments_total: u64 = 0;

        for &ti in &order {
            let test = &tests[ti];
            let _t = siro_trace::span!("synth.test", "{}", test.name);
            // ➋ Profiling.
            let tp = Instant::now();
            let sp = siro_trace::span!("synth.profile");
            let table = profile_module(&registry, &test.module)
                .map_err(|e| SynthError::Api(format!("{}: {e}", test.name)))?;
            drop(sp);
            timings.profiling += tp.elapsed();

            // ➋ Enumeration: build the boxes.
            let te = Instant::now();
            let sp = siro_trace::span!("synth.enumerate");
            let enumeration = self.enumerate(&registry, &per_kind, test, &table, &mstar)?;
            drop(sp);
            timings.enumeration += te.elapsed();

            let count = enumeration.assignment_count();
            if count > cfg.max_assignments_per_test {
                return Err(SynthError::Blowup {
                    test: test.name.clone(),
                    assignments: count,
                });
            }
            let count = count as u64;
            siro_trace::counter("synth.enum_slots", enumeration.slots.len() as u64);
            siro_trace::counter("synth.enum_assignments", count);

            // ➌ Validation (parallel differential testing).
            let tv = Instant::now();
            let sp = siro_trace::span!("synth.validate", "{} assignments", count);
            let (passing, exec_ns, trans_ns) =
                self.validate_all(&registry, &per_kind, test, &enumeration, count);
            drop(sp);
            timings.validation += tv.elapsed();
            timings.validation_execute_cpu += Duration::from_nanos(exec_ns);
            timings.validation_translate_cpu += Duration::from_nanos(trans_ns);
            assignments_total += count;
            siro_trace::counter("synth.assignments_validated", count);
            siro_trace::counter("synth.assignments_passed", passing.len() as u64);
            siro_trace::counter(
                "synth.assignments_failed",
                count.saturating_sub(passing.len() as u64),
            );

            if passing.is_empty() {
                return Err(SynthError::Conflict {
                    test: test.name.clone(),
                });
            }

            // ➍ Refinement (Alg. 4).
            let tr = Instant::now();
            let sp = siro_trace::span!("synth.refine", "{} passing", passing.len());
            let before: usize = enumeration
                .slots
                .iter()
                .map(|s| {
                    mstar
                        .lookup(s.kind, &s.conj)
                        .map_or(per_kind[&s.kind].len(), BTreeSet::len)
                })
                .sum();
            for (si, slot) in enumeration.slots.iter().enumerate() {
                let mut survivors: BTreeSet<usize> = BTreeSet::new();
                for assignment in &passing {
                    survivors.extend(slot.expand(assignment[si]).iter().copied());
                }
                mstar.refine(slot.kind, &slot.conj, &survivors);
            }
            let after: usize = enumeration
                .slots
                .iter()
                .map(|s| mstar.lookup(s.kind, &s.conj).map_or(0, BTreeSet::len))
                .sum();
            drop(sp);
            timings.refinement += tr.elapsed();

            let pruned = before.saturating_sub(after) as u64;
            siro_trace::counter("synth.candidates_pruned", pruned);
            per_test_stats.push(TestStats {
                name: test.name.to_string(),
                assignments: count,
                passed: passing.len() as u64,
                pruned,
            });
        }

        // Armed fault injection (test-only): corrupt the refinement state
        // after the test loop so the run still completes but the completed
        // translator is wrong — the seeded bug the difftest fuzzer must
        // rediscover.
        if let Some(SynthFault::ForgetRefinement(kind)) = cfg.fault {
            if let Some(cands) = per_kind.get(&kind) {
                mstar.forget_refinement(kind, cands.len());
                siro_trace::counter("synth.fault_injected", 1);
            }
        }

        // ➎ Skeleton completion.
        let tc = Instant::now();
        let sp = siro_trace::span!("synth.complete");
        let mut translator = complete_translator(Arc::clone(&registry), &mstar, &per_kind);
        if let Some(SynthFault::SwapOperands(kind)) = cfg.fault {
            apply_swap_operands_fault(&registry, &mut translator, kind);
        }
        let rendered = render_translator(&translator);
        drop(sp);
        timings.completion = tc.elapsed();

        let refined_counts: BTreeMap<Opcode, usize> = mstar
            .kinds()
            .into_iter()
            .map(|k| (k, mstar.refined_candidates(k).len()))
            .collect();
        let report = SynthesisReport {
            pair: (cfg.source, cfg.target),
            tests_used: tests.len(),
            candidate_counts,
            refined_counts,
            assignments_validated: assignments_total,
            timings,
            candidate_loc: candidate_loc(&registry, &per_kind),
            translator_loc: rendered.lines().count(),
            per_test: per_test_stats,
        };
        Ok(SynthesisOutcome {
            translator,
            report,
            rendered,
            compiled_slot: OnceLock::new(),
        })
    }

    /// Builds the enumeration boxes for one test.
    fn enumerate(
        &self,
        registry: &ApiRegistry,
        per_kind: &HashMap<Opcode, Vec<ApiProgram>>,
        test: &OracleTest,
        table: &crate::profile::ProfileTable,
        mstar: &MStar,
    ) -> Result<Enumeration, SynthError> {
        let cfg = &self.config;
        let mut slots: Vec<Slot> = Vec::new();
        let mut slot_of_loc = vec![usize::MAX; table.len()];
        for row in &table.rows {
            // Opt. I(a): share a box with an earlier location of the same
            // (kind, σ&).
            if cfg.opt_equivalence {
                if let Some((si, slot)) = slots
                    .iter_mut()
                    .enumerate()
                    .find(|(_, s)| s.kind == row.kind && s.conj == row.conj)
                {
                    slot.locs.push(row.loc);
                    slot_of_loc[row.loc] = si;
                    continue;
                }
            }
            let all = per_kind.get(&row.kind).ok_or_else(|| {
                SynthError::Api(format!("no candidates generated for `{}`", row.kind))
            })?;
            // Opt. II: memoized survivors, if this conjunction was seen.
            let base: Vec<usize> = if cfg.opt_memoization {
                match mstar.lookup(row.kind, &row.conj) {
                    Some(set) => set.iter().copied().collect(),
                    None => (0..all.len()).collect(),
                }
            } else {
                (0..all.len()).collect()
            };
            // Probe each candidate against the concrete instruction (in
            // parallel; probe order is preserved so grouping stays
            // deterministic); failures are dropped, successes grouped by
            // signature (Opt. I(b)) or kept singleton.
            let probes = self.probe_all(registry, test, row, all, &base);
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut by_sig: HashMap<String, usize> = HashMap::new();
            for (ci, sig) in probes {
                let Some(sig) = sig else {
                    siro_trace::counter("synth.probes_failed", 1);
                    continue;
                };
                if cfg.opt_equivalence {
                    if let Some(&gi) = by_sig.get(&sig) {
                        groups[gi].push(ci);
                    } else {
                        by_sig.insert(sig, groups.len());
                        groups.push(vec![ci]);
                    }
                } else {
                    groups.push(vec![ci]);
                }
            }
            if groups.is_empty() {
                return Err(SynthError::Conflict {
                    test: format!("{} (no candidate translates `{}`)", test.name, row.kind),
                });
            }
            slot_of_loc[row.loc] = slots.len();
            slots.push(Slot {
                kind: row.kind,
                conj: row.conj.clone(),
                locs: vec![row.loc],
                groups,
            });
        }
        Ok(Enumeration { slots, slot_of_loc })
    }

    /// Probes every candidate in `base` against the concrete instruction,
    /// fanning the work out over contiguous chunks that are reassembled in
    /// order — the result is identical to a sequential probe loop, so the
    /// downstream signature grouping (and hence the synthesized translator)
    /// does not depend on the thread count. Failed probes come back `None`.
    fn probe_all(
        &self,
        registry: &ApiRegistry,
        test: &OracleTest,
        row: &crate::profile::ProfiledInst,
        all: &[ApiProgram],
        base: &[usize],
    ) -> Vec<(usize, Option<String>)> {
        siro_trace::counter("synth.probes", base.len() as u64);
        let probe = |&ci: &usize| {
            (
                ci,
                probe_candidate(registry, &test.module, row, &all[ci]).ok(),
            )
        };
        let threads = self.config.threads.max(1).min(base.len().max(1));
        // Below this size thread spawn overhead beats the win.
        if threads == 1 || base.len() < 64 {
            return base.iter().map(probe).collect();
        }
        let chunk = base.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = base
                .chunks(chunk)
                .map(|part| scope.spawn(move || part.iter().map(probe).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("probe worker panicked"))
                .collect()
        })
    }

    /// Validates every assignment, in parallel, returning the passing
    /// representative vectors plus CPU-time counters.
    fn validate_all(
        &self,
        registry: &ApiRegistry,
        per_kind: &HashMap<Opcode, Vec<ApiProgram>>,
        test: &OracleTest,
        enumeration: &Enumeration,
        count: u64,
    ) -> (Vec<Vec<usize>>, u64, u64) {
        let threads = self.config.threads.max(1).min(count.max(1) as usize);
        let exec_ns = AtomicU64::new(0);
        let trans_ns = AtomicU64::new(0);
        let target = self.config.target;
        let passing: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let exec_ns = &exec_ns;
                let trans_ns = &trans_ns;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut timing = ValidationTiming::default();
                    let mut n = w as u64;
                    while n < count {
                        let assignment = enumeration.decode(u128::from(n));
                        if validate_assignment(
                            registry,
                            test,
                            enumeration,
                            per_kind,
                            &assignment,
                            target,
                            &mut timing,
                        ) {
                            local.push(assignment);
                        }
                        n += threads as u64;
                    }
                    exec_ns.fetch_add(timing.execute_ns, AtomicOrd::Relaxed);
                    trans_ns.fetch_add(timing.translate_compile_ns, AtomicOrd::Relaxed);
                    local
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("validation worker panicked"))
                .collect()
        });
        (
            passing,
            exec_ns.load(AtomicOrd::Relaxed),
            trans_ns.load(AtomicOrd::Relaxed),
        )
    }
}

/// Implements [`SynthFault::SwapOperands`]: rewrites every arm of the
/// kind's completed translator so steps fetching operand 0 fetch operand 1
/// and vice versa. The corrupted program stays well-typed (the two index
/// constants have the same API type), so the bug is a silent miscompile
/// rather than a loud translation failure.
fn apply_swap_operands_fault(
    registry: &ApiRegistry,
    translator: &mut SynthesizedTranslator,
    kind: Opcode,
) {
    let (Some(c0), Some(c1)) = (registry.find("const_0"), registry.find("const_1")) else {
        return;
    };
    if let Some(kt) = translator.kinds.get_mut(&kind) {
        for arm in &mut kt.arms {
            for step in &mut arm.program.steps {
                if step.api == c0 {
                    step.api = c1;
                } else if step.api == c1 {
                    step.api = c0;
                }
            }
        }
        siro_trace::counter("synth.fault_injected", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_core::{ReferenceTranslator, Skeleton};
    use siro_ir::interp::Machine;

    fn tests_from_corpus(src: IrVersion, tgt: IrVersion, names: &[&str]) -> Vec<OracleTest> {
        siro_testcases::corpus_for_pair(src, tgt)
            .into_iter()
            .filter(|c| names.is_empty() || names.contains(&c.name))
            .map(|c| OracleTest {
                name: c.name.to_string(),
                module: c.build(src),
                oracle: c.oracle,
            })
            .collect()
    }

    #[test]
    fn thread_override_rules() {
        let detected = threads_from_override(None);
        assert!(detected >= 1, "no override: detected parallelism");
        assert_eq!(threads_from_override(Some("3")), 3);
        assert_eq!(threads_from_override(Some(" 5 ")), 5);
        // Zero or garbage can never configure a run with no workers.
        assert_eq!(threads_from_override(Some("0")), detected);
        assert_eq!(threads_from_override(Some("lots")), detected);
        assert_eq!(threads_from_override(Some("")), detected);
        assert_eq!(threads_from_override(Some("-2")), detected);
        // The default config inherits the resolved count.
        let cfg = SynthesisConfig::new(IrVersion::V13_0, IrVersion::V3_6);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn synthesizes_branch_and_arithmetic_translators() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(
            src,
            tgt,
            &[
                "ret_const",
                "add_asym",
                "sub_asym",
                "icmp_three_preds",
                "br_cond_true",
                "br_cond_false",
                "br_uncond_chain",
            ],
        );
        assert_eq!(tests.len(), 7);
        let outcome = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        // The synthesized translator must now translate a fresh program
        // correctly.
        let case = siro_testcases::full_corpus()
            .into_iter()
            .find(|c| c.name == "br_cond_false")
            .unwrap();
        let m = case.build(src);
        let out = Skeleton::new(tgt)
            .translate_module(&m, &outcome.translator)
            .unwrap();
        siro_ir::verify::verify_module(&out).unwrap();
        assert_eq!(
            Machine::new(&out).run_main().unwrap().return_int(),
            Some(case.oracle)
        );
        // The report carries Fig. 12 data.
        assert!(outcome.report.candidate_counts[&Opcode::Br] >= 10);
        assert!(outcome.report.refined_counts[&Opcode::Br] >= 1);
        assert!(outcome.rendered.contains("translate_br"));
    }

    #[test]
    fn refinement_kills_swapped_subtraction() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &["sub_asym"]);
        let outcome = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        // After the asymmetric test, exactly the correct operand order
        // remains (modulo true equivalences, of which sub has none).
        let refined = outcome.report.refined_counts[&Opcode::Sub];
        assert_eq!(refined, 1, "sub should refine to a single candidate");
    }

    #[test]
    fn weak_test_keeps_wrong_candidates_alive() {
        // The paper's Fig. 7 left-hand case: symmetric operands cannot
        // reject duplicated/swapped operands.
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &["add_sym"]);
        let outcome = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        assert!(
            outcome.report.refined_counts[&Opcode::Add] >= 3,
            "symmetric test should leave ambiguous candidates"
        );
    }

    #[test]
    fn synthesized_translator_matches_reference_on_corpus() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &[]);
        let outcome = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        // Every corpus case translates identically (behaviourally) under
        // the synthesized and the reference translators.
        for case in siro_testcases::corpus_for_pair(src, tgt) {
            let m = case.build(src);
            let skel = Skeleton::new(tgt);
            let a = skel.translate_module(&m, &outcome.translator).unwrap();
            let b = skel.translate_module(&m, &ReferenceTranslator).unwrap();
            let ra = Machine::new(&a).run_main().unwrap().return_int();
            let rb = Machine::new(&b).run_main().unwrap().return_int();
            assert_eq!(ra, rb, "case {}", case.name);
            assert_eq!(ra, Some(case.oracle), "case {}", case.name);
        }
    }

    #[test]
    fn injected_fault_corrupts_the_completed_translator() {
        // The difftest acceptance bug: the swapped-operand Sub candidate
        // the asymmetric corpus had specifically eliminated.
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &["ret_const", "sub_asym"]);
        let mut cfg = SynthesisConfig::new(src, tgt);
        cfg.fault = Some(crate::refine::SynthFault::SwapOperands(Opcode::Sub));
        let outcome = Synthesizer::new(cfg).synthesize(&tests).unwrap();
        let case = siro_testcases::full_corpus()
            .into_iter()
            .find(|c| c.name == "sub_asym")
            .unwrap();
        let m = case.build(src);
        let out = Skeleton::new(tgt)
            .translate_module(&m, &outcome.translator)
            .unwrap();
        siro_ir::verify::verify_module(&out).unwrap();
        let got = Machine::new(&out).run_main().unwrap().return_int();
        assert_ne!(
            got,
            Some(case.oracle),
            "the armed fault must change observable behaviour"
        );
        // Without the fault the same corpus synthesizes correctly.
        let clean = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        let out = Skeleton::new(tgt)
            .translate_module(&m, &clean.translator)
            .unwrap();
        assert_eq!(
            Machine::new(&out).run_main().unwrap().return_int(),
            Some(case.oracle)
        );
    }

    #[test]
    fn blowup_error_without_optimizations() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &["switch_both", "gep_struct"]);
        let mut cfg = SynthesisConfig::new(src, tgt);
        cfg.opt_equivalence = false;
        cfg.opt_memoization = false;
        cfg.max_assignments_per_test = 10_000;
        let err = Synthesizer::new(cfg).synthesize(&tests).unwrap_err();
        assert!(matches!(err, SynthError::Blowup { .. }), "{err}");
    }

    #[test]
    fn unseen_predicate_warns_after_partial_corpus() {
        // Synthesize with only unconditional branches, then meet a
        // conditional one: the generated warning branch must fire.
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_from_corpus(src, tgt, &["ret_const", "br_uncond_chain"]);
        let outcome = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        let case = siro_testcases::full_corpus()
            .into_iter()
            .find(|c| c.name == "br_cond_true")
            .unwrap();
        let m = case.build(src);
        let err = Skeleton::new(tgt)
            .translate_module(&m, &outcome.translator)
            .unwrap_err();
        assert!(
            matches!(err, siro_core::TranslateError::UnseenPredicate { .. }),
            "{err}"
        );
    }
}
