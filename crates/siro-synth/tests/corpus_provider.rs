//! One corpus per pair, and the same store keys: a version-graph build
//! keeps no corpus, every catalog pair's fingerprint is the one its
//! full corpus hashes to, and two routers hand their resolvers the same
//! corpus allocation.
//!
//! One test in its own binary, so no other test shares the process whose
//! resident memory it reads.
#![cfg(target_os = "linux")]

use std::cell::Cell;

use siro_ir::IrVersion;
use siro_synth::{corpus_fingerprint, oracle_corpus, pair_fingerprint, Router, SynthError};

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
fn graphs_keep_no_corpus_and_routers_share_one() {
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

    // 2. Every store key stays what the full corpus hashes to.
    for &a in &IrVersion::CATALOG {
        for &b in IrVersion::CATALOG.iter().filter(|&&b| b != a) {
            let corpus = oracle_corpus(a, b);
            assert!(!corpus.is_empty(), "{a} -> {b} has no oracle test");
            assert_eq!(
                pair_fingerprint(a, b),
                corpus_fingerprint(&corpus),
                "{a} -> {b}"
            );
        }
    }

    // 3. Two routers hand their resolvers the same corpus allocation. The
    //    resolver refuses, so nothing synthesizes.
    let (a, b) = (IrVersion::V13_0, IrVersion::V3_6);
    let seen = [Router::new(), siro_only()].map(|router| {
        let tests_at = Cell::new(None);
        let refused = router.acquire_with(a, b, &|_, _, tests| {
            tests_at.set(Some(tests.as_ptr()));
            Err(SynthError::Api("refused by the test".into()))
        });
        assert!(refused.is_err());
        tests_at.get().expect("the direct route calls the resolver")
    });
    assert_eq!(seen[0], seen[1], "the routers hold separate corpora");
}
