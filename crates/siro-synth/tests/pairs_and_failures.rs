//! Synthesis across diverse version pairs, determinism, and failure
//! injection (corrupted oracles, insufficient corpora).

use siro_core::Skeleton;
use siro_ir::{interp::Machine, IrVersion};
use siro_synth::{oracle_corpus, OracleTest, SynthError, SynthesisConfig, Synthesizer};

fn check_pair(src: IrVersion, tgt: IrVersion) {
    let tests = oracle_corpus(src, tgt);
    let outcome = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .unwrap_or_else(|e| panic!("{src}->{tgt}: {e}"));
    let skel = Skeleton::new(tgt);
    for case in siro_testcases::corpus_for_pair(src, tgt) {
        let m = case.build(src);
        let t = skel
            .translate_module(&m, &outcome.translator)
            .unwrap_or_else(|e| panic!("{src}->{tgt} {}: {e}", case.name));
        siro_ir::verify::verify_module(&t)
            .unwrap_or_else(|e| panic!("{src}->{tgt} {}: {e}", case.name));
        assert_eq!(
            Machine::new(&t).run_main().unwrap().return_int(),
            Some(case.oracle),
            "{src}->{tgt} {}",
            case.name
        );
    }
}

#[test]
fn longest_gap_pair_17_to_3_0() {
    check_pair(IrVersion::V17_0, IrVersion::V3_0);
}

#[test]
fn adjacent_pair_3_6_to_3_0() {
    check_pair(IrVersion::V3_6, IrVersion::V3_0);
}

#[test]
fn opaque_pointer_source_15_to_3_6() {
    check_pair(IrVersion::V15_0, IrVersion::V3_6);
}

#[test]
fn same_version_pair_is_the_degenerate_case() {
    // Translating 13.0 -> 13.0 must also synthesize cleanly (identity-ish
    // translators).
    check_pair(IrVersion::V13_0, IrVersion::V13_0);
}

#[test]
fn synthesis_is_deterministic() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests = oracle_corpus(src, tgt);
    let a = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
    let b = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
    assert_eq!(a.rendered, b.rendered);
    assert_eq!(
        a.report.assignments_validated,
        b.report.assignments_validated
    );
    assert_eq!(a.report.candidate_counts, b.report.candidate_counts);
    assert_eq!(a.report.refined_counts, b.report.refined_counts);
}

#[test]
fn corrupted_oracle_is_a_conflict() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let mut tests = oracle_corpus(src, tgt);
    // Poison one oracle: no per-test translator can satisfy it.
    let victim = tests
        .iter_mut()
        .find(|t| t.name == "mul_asym")
        .expect("mul_asym present");
    victim.oracle += 1;
    let err = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .unwrap_err();
    match err {
        SynthError::Conflict { test } => assert_eq!(test, "mul_asym"),
        other => panic!("expected conflict, got {other}"),
    }
}

#[test]
fn contradictory_oracles_refine_to_emptiness() {
    // Two copies of the same program with different oracles: the first
    // installs survivors, the second intersects them away (or simply finds
    // no passing translator).
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let base = siro_testcases::full_corpus()
        .into_iter()
        .find(|c| c.name == "add_asym")
        .unwrap();
    let tests = vec![
        OracleTest {
            name: "good".into(),
            module: base.build(src),
            oracle: base.oracle,
        },
        OracleTest {
            name: "evil-twin".into(),
            module: base.build(src),
            oracle: base.oracle + 5,
        },
    ];
    let err = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .unwrap_err();
    assert!(matches!(err, SynthError::Conflict { .. }), "{err}");
}

#[test]
fn empty_corpus_yields_warning_translators_for_everything() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let outcome = Synthesizer::for_pair(src, tgt).synthesize(&[]).unwrap();
    // Every common kind exists but only as the warning shell.
    assert_eq!(
        outcome.translator.covered_kinds().len(),
        src.common_instructions(tgt).len()
    );
    let case = siro_testcases::full_corpus()
        .into_iter()
        .find(|c| c.name == "ret_const")
        .unwrap();
    let err = Skeleton::new(tgt)
        .translate_module(&case.build(src), &outcome.translator)
        .unwrap_err();
    assert!(
        matches!(err, siro_core::TranslateError::UnseenPredicate { .. }),
        "{err}"
    );
    assert!(outcome.rendered.contains("warn_unseen_predicate"));
}

#[test]
fn single_threaded_synthesis_matches_parallel() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests: Vec<OracleTest> = oracle_corpus(src, tgt).into_iter().take(12).collect();
    let mut cfg1 = SynthesisConfig::new(src, tgt);
    cfg1.threads = 1;
    let a = Synthesizer::new(cfg1).synthesize(&tests).unwrap();
    let mut cfg8 = SynthesisConfig::new(src, tgt);
    cfg8.threads = 8;
    let b = Synthesizer::new(cfg8).synthesize(&tests).unwrap();
    assert_eq!(a.rendered, b.rendered);
}

#[test]
fn ordering_off_still_converges() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests = oracle_corpus(src, tgt);
    let mut cfg = SynthesisConfig::new(src, tgt);
    cfg.opt_ordering = false;
    cfg.max_assignments_per_test = 2_000_000;
    let outcome = Synthesizer::new(cfg).synthesize(&tests).unwrap();
    // Same translator quality, possibly more work.
    let skel = Skeleton::new(tgt);
    let case = siro_testcases::full_corpus()
        .into_iter()
        .find(|c| c.name == "br_cond_false")
        .unwrap();
    let t = skel
        .translate_module(&case.build(src), &outcome.translator)
        .unwrap();
    assert_eq!(
        Machine::new(&t).run_main().unwrap().return_int(),
        Some(case.oracle)
    );
}
