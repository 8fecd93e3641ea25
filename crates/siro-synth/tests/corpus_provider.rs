//! Corpora only where tests are read, and the same store keys: a
//! version-graph build keeps no corpus, every catalog slot's fingerprint
//! is the one its full corpus hashes to, and acquiring a warm pair through
//! either router builds no corpus.
//!
//! One test in its own binary, so no other test shares the process whose
//! resident memory and corpus count it reads.
#![cfg(target_os = "linux")]

use siro_ir::IrVersion;
use siro_synth::{
    corpora_built, corpus_fingerprint, oracle_corpus, pair_fingerprint, Router, SynthesisConfig,
    TranslatorCache,
};

/// This process's resident set, in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn graphs_keep_no_corpus_and_warm_acquires_build_none() {
    // 1. Two graph builds together keep less than 5 MiB; all 156
    //    corpora take some 25 MiB.
    let siro_only = || Router::over(IrVersion::CATALOG.to_vec());
    let before = vm_rss_kib();
    Router::new().graph();
    siro_only().graph();
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 5 * 1024,
        "two graph builds grew VmRSS by {grown} KiB"
    );

    // 2. Every store key stays what the full corpus hashes to, in all 169
    //    slots: the 156 pairs and the 13 identity pairs.
    for &a in &IrVersion::CATALOG {
        for &b in &IrVersion::CATALOG {
            let corpus = oracle_corpus(a, b);
            assert!(!corpus.is_empty(), "{a} -> {b} has no oracle test");
            assert_eq!(
                pair_fingerprint(a, b),
                corpus_fingerprint(&corpus),
                "{a} -> {b}"
            );
        }
    }

    // 3. Acquiring a warm pair through either router builds no corpus:
    //    only the synthesis that warmed it did.
    let (a, b) = (IrVersion::V13_0, IrVersion::V12_0);
    let before = corpora_built();
    let warmed = TranslatorCache::lookup_pair(SynthesisConfig::new(a, b)).expect("synthesis");
    assert!(warmed.fresh);
    assert_eq!(corpora_built() - before, 1, "one synthesis, one corpus");
    for router in [Router::new(), siro_only()] {
        let acquired = router.acquire(a, b).expect("a warm pair acquires");
        assert!(!acquired.fresh, "the pair was warm");
    }
    assert_eq!(
        corpora_built() - before,
        1,
        "acquiring a warm pair built a corpus"
    );
}
