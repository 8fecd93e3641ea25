//! The crash/corruption matrix: every way an entry file can be damaged —
//! truncation, bit flips, format-version skew, corpus-fingerprint skew,
//! a writer killed mid-write — must degrade to cold synthesis (counted as
//! `store_corrupt`), never panic, and never serve a wrong translation.
//! The subsequent write-back must repair the damaged file in place.
//!
//! The store attachment and its counters are process-global, so the whole
//! matrix runs inside ONE `#[test]` with scenario labels in every
//! assertion message.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use siro_ir::{IrVersion, Opcode};
use siro_synth::persist::fnv1a64;
use siro_synth::{
    corpus_fingerprint, oracle_corpus, reset_store_stats, set_active_store, store_stats,
    StoreConfig, StoreKey, SynthFault, SynthesisConfig, TranslatorCache, TranslatorStore,
};

/// Rewrites the trailing FNV-1a checksum so a deliberately *semantic*
/// corruption (format bump, fingerprint skew) is not masked by the
/// checksum check — the deeper validation layer must catch it.
fn fix_checksum(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_be_bytes());
}

/// One corruption scenario: how to damage the pristine entry bytes.
struct Scenario {
    label: &'static str,
    damage: fn(&[u8]) -> Vec<u8>,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        label: "truncate-half",
        damage: |b| b[..b.len() / 2].to_vec(),
    },
    Scenario {
        label: "truncate-one-byte",
        damage: |b| b[..b.len() - 1].to_vec(),
    },
    Scenario {
        label: "truncate-to-ten-bytes",
        damage: |b| b[..10].to_vec(),
    },
    Scenario {
        label: "truncate-to-empty",
        damage: |_| Vec::new(),
    },
    Scenario {
        label: "bit-flip-mid-body",
        damage: |b| {
            let mut v = b.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x40;
            v
        },
    },
    Scenario {
        label: "bit-flip-in-checksum",
        damage: |b| {
            let mut v = b.to_vec();
            let last = v.len() - 1;
            v[last] ^= 0x01;
            v
        },
    },
    Scenario {
        // A future (or past) build wrote this entry: the format version
        // lives at bytes [4..6], right after the magic.
        label: "format-version-bump",
        damage: |b| {
            let mut v = b.to_vec();
            v[4..6].copy_from_slice(&2u16.to_be_bytes());
            fix_checksum(&mut v);
            v
        },
    },
    Scenario {
        // The oracle corpus changed since the entry was written: the
        // fingerprint lives at [14..22] (magic 4 + format 2 + versions 8).
        label: "corpus-fingerprint-skew",
        damage: |b| {
            let mut v = b.to_vec();
            v[14] ^= 0xff;
            fix_checksum(&mut v);
            v
        },
    },
    Scenario {
        label: "garbage-with-right-length",
        damage: |b| vec![0xa5; b.len()],
    },
];

#[test]
fn corruption_matrix_degrades_to_cold_synthesis() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("siro-store-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir)).expect("open store"));
    set_active_store(Some(Arc::clone(&store)));
    reset_store_stats();

    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests = oracle_corpus(src, tgt);
    let config = SynthesisConfig::new(src, tgt);
    let key = StoreKey::new(&config, corpus_fingerprint(&tests));
    let entry_path = store.entry_path(&key);

    // Populate: the first lookup cold-synthesizes and writes back.
    TranslatorCache::reset();
    let first = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).expect("synthesis");
    assert!(first.fresh && !first.from_store);
    assert_eq!(store_stats().writes, 1, "cold synthesis writes back");
    let pristine = std::fs::read(&entry_path).expect("pristine entry exists");
    let rendered = first.outcome.rendered.clone();
    drop(first);

    // Sanity: an undamaged entry warm-loads as a store hit.
    TranslatorCache::reset();
    let warm = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).expect("reload");
    assert!(!warm.fresh && warm.from_store, "pristine entry must hit");
    assert_eq!(warm.outcome.rendered, rendered);
    drop(warm);

    for scenario in SCENARIOS {
        let label = scenario.label;
        std::fs::write(&entry_path, (scenario.damage)(&pristine))
            .unwrap_or_else(|e| panic!("{label}: writing damaged entry: {e}"));
        TranslatorCache::reset();
        let corrupt_before = store_stats().corrupt;
        let writes_before = store_stats().writes;

        // No panic, falls back to cold synthesis, and the answer is the
        // same translator the pristine run produced.
        let lookup = TranslatorCache::lookup_or_synthesize(config.clone(), &tests)
            .unwrap_or_else(|e| panic!("{label}: lookup failed: {e}"));
        assert!(
            lookup.fresh && !lookup.from_store,
            "{label}: a damaged entry must not serve from the store"
        );
        assert_eq!(
            lookup.outcome.rendered, rendered,
            "{label}: cold fallback produced a different translator"
        );
        assert_eq!(
            store_stats().corrupt,
            corrupt_before + 1,
            "{label}: the rejected entry must be counted"
        );
        assert_eq!(
            store_stats().writes,
            writes_before + 1,
            "{label}: the fallback synthesis must write back a repair"
        );

        // The write-back repaired the file in place (timings in the
        // report differ run to run, so compare behaviour, not bytes):
        // the store serves the same translator again.
        TranslatorCache::reset();
        let again = TranslatorCache::lookup_or_synthesize(config.clone(), &tests)
            .unwrap_or_else(|e| panic!("{label}: post-repair lookup: {e}"));
        assert!(
            again.from_store,
            "{label}: the repaired entry must hit again"
        );
        assert_eq!(
            again.outcome.rendered, rendered,
            "{label}: the repaired entry serves a different translator"
        );
        // Restore the canonical pristine bytes so the next scenario's
        // offsets refer to a known layout.
        std::fs::write(&entry_path, &pristine)
            .unwrap_or_else(|e| panic!("{label}: restoring pristine entry: {e}"));
    }

    // Kill-mid-write: a crashed writer leaves an orphaned temp file next
    // to an intact old entry. Readers still hit the old entry (rename is
    // atomic — old or new, never torn), and GC sweeps the orphan once it
    // is stale.
    let orphan = dir.join(format!(".{}.99999.0.tmp", key.file_name()));
    std::fs::write(&orphan, &pristine[..pristine.len() / 3]).expect("write orphan tmp");
    TranslatorCache::reset();
    let lookup = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).expect("lookup");
    assert!(
        lookup.from_store,
        "an orphaned temp file must not shadow the intact entry"
    );
    // Fresh orphans are left alone (a live writer may own them) ...
    let report = store.gc(u64::MAX).expect("gc");
    assert_eq!(report.stale_tmp_removed, 0);
    assert!(orphan.exists());
    // ... but stale ones are swept.
    let old = SystemTime::now() - Duration::from_secs(3600);
    std::fs::File::options()
        .write(true)
        .open(&orphan)
        .expect("open orphan")
        .set_modified(old)
        .expect("age orphan");
    let report = store.gc(u64::MAX).expect("gc again");
    assert_eq!(report.stale_tmp_removed, 1);
    assert!(!orphan.exists(), "stale temp file survived gc");
    assert!(entry_path.exists(), "gc must not touch live entries");

    // Fault-injected configs never touch the store, in either direction.
    let writes_before = store_stats().writes;
    let mut faulty = SynthesisConfig::new(src, tgt);
    faulty.fault = Some(SynthFault::ForgetRefinement(Opcode::Add));
    assert!(
        !TranslatorCache::warm_from_store(&faulty),
        "fault configs must not warm from the store"
    );
    let lookup = TranslatorCache::lookup_or_synthesize(faulty, &tests).expect("faulty synthesis");
    assert!(lookup.fresh && !lookup.from_store);
    assert_eq!(
        store_stats().writes,
        writes_before,
        "a fault-injected translator must never be persisted"
    );

    set_active_store(None);
    let _ = std::fs::remove_dir_all(&dir);
}
