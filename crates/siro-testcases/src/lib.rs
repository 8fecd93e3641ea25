//! # siro-testcases — the synthesis test-case corpus
//!
//! The paper's users drive synthesis by supplying *test cases*: small IR
//! programs whose `main` returns a known constant with no inputs (§4.3.3).
//! This crate is that corpus — 68 cases, mirroring the paper's 60 base
//! cases plus the 8 additional cases introduced for the close-version pairs
//! (5.0→4.0 and 17.0→12.0) to cover the seven instructions those pairs have
//! in common with newer versions (the Windows EH family, `callbr`,
//! `freeze`).
//!
//! Each case is version-parametric: [`TestCase::build`] constructs the same
//! program in any requested source version, so one corpus serves every
//! version pair. Cases are written to *discriminate*: binary operations use
//! asymmetric operands so that swapped/duplicated-operand candidates die
//! (the Fig. 7 right-hand case), branches exercise both edges (the Fig. 10
//! enhancement), and so on. A few deliberately weak cases (symmetric
//! operands) are retained to demonstrate the refinement dynamics the paper
//! discusses.

#![warn(missing_docs)]

mod corpus;
pub mod gen;

use std::collections::BTreeSet;

use siro_ir::{interp::Machine, IrVersion, Module, Opcode};

/// One oracle-carrying test case.
#[derive(Clone)]
pub struct TestCase {
    /// Unique case name.
    pub name: &'static str,
    /// The constant `main` must return.
    pub oracle: i64,
    /// Whether this case belongs to the 8-case extension for close-version
    /// pairs (EH / callbr / freeze coverage).
    pub extended: bool,
    build: fn(IrVersion) -> Module,
}

impl std::fmt::Debug for TestCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestCase")
            .field("name", &self.name)
            .field("oracle", &self.oracle)
            .field("extended", &self.extended)
            .finish()
    }
}

impl TestCase {
    /// Creates a case (used by the corpus module).
    pub(crate) fn new(
        name: &'static str,
        oracle: i64,
        extended: bool,
        build: fn(IrVersion) -> Module,
    ) -> Self {
        TestCase {
            name,
            oracle,
            extended,
            build,
        }
    }

    /// Builds the case's module in the given source version.
    pub fn build(&self, version: IrVersion) -> Module {
        (self.build)(version)
    }

    /// The set of opcodes the case exercises (computed from the built
    /// module).
    pub fn kinds(&self, version: IrVersion) -> BTreeSet<Opcode> {
        opcodes(&self.build(version))
    }

    /// Whether every instruction in this case is *common* to both versions
    /// of a pair — the prerequisite for using it in synthesis.
    pub fn usable_for_pair(&self, src: IrVersion, tgt: IrVersion) -> bool {
        usable_with_kinds(&self.kinds(src.min(tgt)), src, tgt)
    }

    /// Runs the case in the given version and checks the oracle.
    ///
    /// # Panics
    ///
    /// Panics if the module does not verify — corpus bugs should be loud.
    pub fn self_check(&self, version: IrVersion) -> bool {
        let m = self.build(version);
        siro_ir::verify::verify_module(&m)
            .unwrap_or_else(|e| panic!("corpus case {} does not verify: {e}", self.name));
        Machine::new(&m)
            .run_main()
            .map(|o| o.return_int() == Some(self.oracle))
            .unwrap_or(false)
    }
}

/// The opcodes of every instruction in `module`.
pub fn opcodes(module: &Module) -> BTreeSet<Opcode> {
    let mut s = BTreeSet::new();
    for f in &module.funcs {
        for i in &f.insts {
            s.insert(i.opcode);
        }
    }
    s
}

/// [`TestCase::usable_for_pair`] for a case whose module, built in
/// `src.min(tgt)`, uses `kinds`: every kind exists in both versions.
pub fn usable_with_kinds(kinds: &BTreeSet<Opcode>, src: IrVersion, tgt: IrVersion) -> bool {
    kinds.iter().all(|&k| src.supports(k) && tgt.supports(k))
}

/// The full 68-case corpus (60 base + 8 extended).
pub fn full_corpus() -> Vec<TestCase> {
    corpus::all()
}

/// The 60-case base corpus.
pub fn base_corpus() -> Vec<TestCase> {
    corpus::all().into_iter().filter(|c| !c.extended).collect()
}

/// The cases usable for one version pair: every exercised instruction must
/// exist in both versions.
pub fn corpus_for_pair(src: IrVersion, tgt: IrVersion) -> Vec<TestCase> {
    corpus::all()
        .into_iter()
        .filter(|c| c.usable_for_pair(src, tgt))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_sixty_eight_cases() {
        assert_eq!(full_corpus().len(), 68);
        assert_eq!(base_corpus().len(), 60);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = full_corpus().iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn every_case_meets_its_oracle_in_v17() {
        for case in full_corpus() {
            assert!(
                case.self_check(IrVersion::V17_0),
                "case {} failed its oracle",
                case.name
            );
        }
    }

    #[test]
    fn base_cases_meet_oracles_in_v3_6() {
        for case in base_corpus() {
            if case.usable_for_pair(IrVersion::V3_6, IrVersion::V3_6) {
                assert!(
                    case.self_check(IrVersion::V3_6),
                    "case {} failed its oracle at 3.6",
                    case.name
                );
            }
        }
    }

    #[test]
    fn pair_filter_excludes_new_instructions() {
        // freeze is not expressible when either side is < 10.0.
        let cases = corpus_for_pair(IrVersion::V13_0, IrVersion::V3_6);
        assert!(cases.iter().all(|c| c.name != "freeze_value"));
        // but usable when both sides know it.
        let cases = corpus_for_pair(IrVersion::V17_0, IrVersion::V12_0);
        assert!(cases.iter().any(|c| c.name == "freeze_value"));
    }

    #[test]
    fn corpus_covers_all_common_instructions_of_pair1() {
        // Pair 1 (12.0 -> 3.6) has 58 common instructions; the usable cases
        // must collectively exercise every one of them.
        let src = IrVersion::V12_0;
        let tgt = IrVersion::V3_6;
        let mut covered = BTreeSet::new();
        for case in corpus_for_pair(src, tgt) {
            covered.extend(case.kinds(tgt));
        }
        let missing: Vec<Opcode> = src
            .common_instructions(tgt)
            .into_iter()
            .filter(|k| !covered.contains(k))
            .collect();
        assert!(
            missing.is_empty(),
            "uncovered common instructions: {missing:?}"
        );
    }

    #[test]
    fn corpus_covers_all_common_instructions_of_pair9() {
        // Pair 9 (17.0 -> 12.0): all 65 instructions are common.
        let src = IrVersion::V17_0;
        let tgt = IrVersion::V12_0;
        let mut covered = BTreeSet::new();
        for case in corpus_for_pair(src, tgt) {
            covered.extend(case.kinds(tgt));
        }
        let missing: Vec<Opcode> = src
            .common_instructions(tgt)
            .into_iter()
            .filter(|k| !covered.contains(k))
            .collect();
        assert!(
            missing.is_empty(),
            "uncovered common instructions: {missing:?}"
        );
    }
}
