//! Cross-crate integration tests: the full pipeline from synthesis to
//! clients, spanning every workspace crate.

use std::sync::Arc;

use siro::core::{InstTranslator, ReferenceTranslator, Skeleton};
use siro::ir::{interp::Machine, verify, IrVersion};
use siro::synth::{oracle_corpus, SynthesisConfig, SynthesisOutcome, Synthesizer, TranslatorCache};

/// Synthesizes through the process-wide cache, so tests in this binary
/// that need the same pair share one synthesis.
fn synth(src: IrVersion, tgt: IrVersion) -> Arc<SynthesisOutcome> {
    TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &oracle_corpus(src, tgt))
        .expect("synthesis")
}

#[test]
fn synthesized_translator_handles_whole_corpus_for_pair_12_to_3_6() {
    let (src, tgt) = (IrVersion::V12_0, IrVersion::V3_6);
    let outcome = synth(src, tgt);
    let skel = Skeleton::new(tgt);
    for case in siro::testcases::corpus_for_pair(src, tgt) {
        let m = case.build(src);
        let t = skel.translate_module(&m, &outcome.translator).unwrap();
        verify::verify_module(&t).unwrap();
        assert_eq!(
            Machine::new(&t).run_main().unwrap().return_int(),
            Some(case.oracle),
            "case {}",
            case.name
        );
    }
}

#[test]
fn upgrade_pair_3_6_to_12_synthesizes_and_translates() {
    // Tab. 3 pair 10: low-to-high translation.
    let (src, tgt) = (IrVersion::V3_6, IrVersion::V12_0);
    let outcome = Synthesizer::for_pair(src, tgt)
        .synthesize(&oracle_corpus(src, tgt))
        .expect("synthesis");
    let skel = Skeleton::new(tgt);
    for case in siro::testcases::corpus_for_pair(src, tgt).iter().take(20) {
        let m = case.build(src);
        let t = skel.translate_module(&m, &outcome.translator).unwrap();
        verify::verify_module(&t).unwrap();
        assert_eq!(
            Machine::new(&t).run_main().unwrap().return_int(),
            Some(case.oracle),
            "case {}",
            case.name
        );
    }
}

#[test]
fn close_pair_5_to_4_covers_windows_eh() {
    let (src, tgt) = (IrVersion::V5_0, IrVersion::V4_0);
    let tests = oracle_corpus(src, tgt);
    // The extended corpus must contribute the EH cases here.
    assert!(tests.iter().any(|t| t.name.starts_with("eh_")));
    let outcome = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .expect("synthesis");
    let skel = Skeleton::new(tgt);
    for case in siro::testcases::corpus_for_pair(src, tgt) {
        let m = case.build(src);
        let t = skel.translate_module(&m, &outcome.translator).unwrap();
        assert_eq!(
            Machine::new(&t).run_main().unwrap().return_int(),
            Some(case.oracle),
            "case {}",
            case.name
        );
    }
}

#[test]
fn pair_17_to_12_covers_callbr_and_freeze() {
    let (src, tgt) = (IrVersion::V17_0, IrVersion::V12_0);
    let tests = oracle_corpus(src, tgt);
    assert!(tests.iter().any(|t| t.name.starts_with("callbr")));
    assert!(tests.iter().any(|t| t.name.starts_with("freeze")));
    let outcome = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .expect("synthesis");
    // callbr and freeze are *common* here, so the synthesized translator
    // must map them one-to-one, not lower them.
    let case = siro::testcases::full_corpus()
        .into_iter()
        .find(|c| c.name == "callbr_fallthrough")
        .unwrap();
    let m = case.build(src);
    let t = Skeleton::new(tgt)
        .translate_module(&m, &outcome.translator)
        .unwrap();
    let has_callbr = t
        .funcs
        .iter()
        .any(|f| f.insts.iter().any(|i| i.opcode == siro::ir::Opcode::CallBr));
    assert!(has_callbr, "callbr must survive a 17.0 -> 12.0 translation");
}

#[test]
fn chained_translation_12_to_3_6_to_3_0() {
    // Translate twice through the reference translator; semantics must
    // survive both hops (including the addrspacecast lowering on the
    // second hop).
    let skel_a = Skeleton::new(IrVersion::V3_6);
    let skel_b = Skeleton::new(IrVersion::V3_0);
    for case in siro::testcases::corpus_for_pair(IrVersion::V12_0, IrVersion::V3_6) {
        let m = case.build(IrVersion::V12_0);
        let hop1 = skel_a.translate_module(&m, &ReferenceTranslator).unwrap();
        let hop2 = skel_b
            .translate_module(&hop1, &ReferenceTranslator)
            .unwrap();
        verify::verify_module(&hop2).unwrap();
        assert_eq!(
            Machine::new(&hop2).run_main().unwrap().return_int(),
            Some(case.oracle),
            "case {}",
            case.name
        );
    }
}

#[test]
fn translated_text_roundtrips_through_the_low_version_reader() {
    // The whole point of translation: the low-version ecosystem can
    // serialize and re-read the output.
    let skel = Skeleton::new(IrVersion::V3_6);
    for case in siro::testcases::corpus_for_pair(IrVersion::V13_0, IrVersion::V3_6)
        .iter()
        .take(25)
    {
        let m = case.build(IrVersion::V13_0);
        let t = skel.translate_module(&m, &ReferenceTranslator).unwrap();
        let text = siro::ir::write::write_module(&t);
        assert!(text.contains("; IR version 3.6"));
        let reparsed = siro::ir::parse::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: {e}\n{text}", case.name));
        assert_eq!(
            Machine::new(&reparsed).run_main().unwrap().return_int(),
            Some(case.oracle),
            "case {}",
            case.name
        );
    }
}

#[test]
fn clients_compose_with_a_synthesized_translator() {
    // Tab. 4 and the kernel campaign driven by a *synthesized* (not
    // reference) translator.
    let outcome = synth(IrVersion::V12_0, IrVersion::V3_6);
    let results =
        siro::workloads::run_table4(&outcome.translator, IrVersion::V12_0, IrVersion::V3_6)
            .expect("table 4 pipeline");
    let shared: usize = results.iter().map(|r| r.diff.shared.len()).sum();
    let new: usize = results.iter().map(|r| r.diff.new.len()).sum();
    let missing: usize = results.iter().map(|r| r.diff.missing.len()).sum();
    assert_eq!((shared, new, missing), (253, 15, 8));

    // Multi-pair fan-out: both kernel translators synthesize concurrently
    // through the cache.
    let jobs: Vec<_> = [IrVersion::V14_0, IrVersion::V15_0]
        .into_iter()
        .map(|src| {
            (
                SynthesisConfig::new(src, IrVersion::V3_6),
                oracle_corpus(src, IrVersion::V3_6),
            )
        })
        .collect();
    let mut outcomes = siro::synth::synthesize_all(&jobs).into_iter();
    let t14 = outcomes.next().unwrap().expect("synthesis 14");
    let t15 = outcomes.next().unwrap().expect("synthesis 15");
    let campaign = siro::kernel::run_campaign(
        &|v| -> Box<dyn InstTranslator> {
            if v == IrVersion::V14_0 {
                Box::new(t14.translator.clone())
            } else {
                Box::new(t15.translator.clone())
            }
        },
        IrVersion::V3_6,
    )
    .expect("kernel campaign");
    assert_eq!(campaign.total_bugs(), 80);
    assert_eq!(campaign.merged(), 56);
}

#[test]
fn fuzz_pipeline_with_synthesized_translator() {
    let outcome = synth(IrVersion::V12_0, IrVersion::V3_6);
    let rows = siro::fuzz::run_table5(
        &outcome.translator,
        IrVersion::V12_0,
        IrVersion::V3_6,
        siro::fuzz::Scale(0.005),
    )
    .expect("table 5 pipeline");
    let cves: usize = rows.iter().map(|r| r.cves).sum();
    let r_cves: usize = rows.iter().map(|r| r.r_cve).sum();
    assert_eq!(cves, 111);
    assert_eq!(r_cves, 95);
}
