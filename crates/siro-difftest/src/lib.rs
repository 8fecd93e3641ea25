//! Coverage-guided differential fuzzing of synthesized translators.
//!
//! The paper's fuzzing evaluation (§8.3) asks one question of a
//! synthesized translator: *does the translated program behave like the
//! source program?* This crate operationalizes that question as a
//! feedback-driven loop:
//!
//! * [`mutate`] — targeted mutators that splice long-tail instruction
//!   kinds (atomics, `invoke`/`landingpad`, vectors, `indirectbr`, …)
//!   into well-typed generated programs, gated on
//!   [`IrVersion::supports`](siro_ir::IrVersion);
//! * [`oracle`] — the interpreter-differential oracle plus two chain
//!   metamorphic relations: `A→B→C ≡ A→C` and the `A→B→A` round trip;
//! * [`fuzz`] — the loop itself, guided by executed-opcode coverage
//!   (from [`siro_fuzz::coverage`] block probes) and translator-phase
//!   funnel counters (from [`siro_trace`]);
//! * [`mod@reduce`] — a delta-debugging reducer that shrinks every failure
//!   to a minimal reproduction before it is reported;
//! * [`artifact`] — deterministic on-disk regression artifacts that are
//!   simultaneously valid IR modules and self-describing bug reports;
//! * [`report`] — the report document (schema `siro-bench/difftest-v1`);
//! * [`wir_mutate`] + [`cross`] — the second dialect: stack-depth-
//!   preserving WIR mutators and the cross-dialect interpreter-
//!   differential oracle over the SIRO↔WIR bridge anchors, with `.sirw`
//!   regression artifacts (schema `siro-difftest/cross-regression-v1`).
//!
//! Faults for end-to-end validation of the pipeline are injected with
//! [`siro_synth::SynthFault`]; a clean run over the production
//! synthesis pipeline is expected to find no failures.

#![warn(missing_docs)]

pub mod artifact;
pub mod cross;
pub mod fuzz;
pub mod mutate;
pub mod oracle;
pub mod reduce;
pub mod report;
pub mod wir_mutate;

pub use artifact::{RegressionArtifact, ARTIFACT_SCHEMA};
pub use cross::{
    run_all_anchors, run_cross, CrossArtifact, CrossConfig, CrossFailure, CrossReport,
    CROSS_ARTIFACT_SCHEMA, CROSS_DEFAULT_MODULES,
};
pub use fuzz::{run, DifftestConfig, DifftestReport, FailureRecord, SHRINK_TARGET};
pub use mutate::{applicable_mutators, Mutator};
pub use oracle::{
    behaviour, routed_mids, Behaviour, ChainSet, Failure, FailureFamily, Verdict, ORACLE_FUEL,
};
pub use reduce::{compact, placed_inst_count, reduce, ReduceOutcome};
pub use report::difftest_json;
pub use wir_mutate::{applicable_wir_mutators, raisable_wir_mutators, WirMutator};
