//! Round-trip property of the persistent translator store: an outcome
//! serialized to disk and reloaded must behave *byte-identically* to the
//! original — same rendered source, structurally equal translator, and
//! the same output text for every corpus module — under every validation
//! mode. Re-saving the reloaded outcome must reproduce the entry bytes
//! exactly (the format is canonical).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use siro_core::Skeleton;
use siro_ir::{write, IrVersion};
use siro_synth::store::{decode_entry, encode_entry, peek_key};
use siro_synth::{
    corpus_fingerprint, oracle_corpus, Corpus, OracleTest, StoreConfig, StoreKey, SynthesisConfig,
    SynthesisOutcome, Synthesizer, TranslatorStore, ValidationMode,
};

/// A unique scratch directory per call; best-effort removed by `TempDir`'s
/// drop so a failing test leaves the evidence behind only until re-run.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "siro-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("creating temp store dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn synthesize(
    src: IrVersion,
    tgt: IrVersion,
    take: Option<usize>,
) -> (Vec<OracleTest>, SynthesisOutcome) {
    let mut tests = oracle_corpus(src, tgt);
    if let Some(n) = take {
        tests.truncate(n);
    }
    let outcome = Synthesizer::for_pair(src, tgt)
        .synthesize(&tests)
        .unwrap_or_else(|e| panic!("{src}->{tgt}: {e}"));
    (tests, outcome)
}

/// Translate every corpus module with both translators and require the
/// written text to match byte for byte.
fn assert_identical_translations(
    tgt: IrVersion,
    tests: &[OracleTest],
    original: &SynthesisOutcome,
    reloaded: &SynthesisOutcome,
) {
    let skel = Skeleton::new(tgt);
    for test in tests {
        let a = skel
            .translate_module(&test.module, &original.translator)
            .unwrap_or_else(|e| panic!("original {}: {e}", test.name));
        let b = skel
            .translate_module(&test.module, &reloaded.translator)
            .unwrap_or_else(|e| panic!("reloaded {}: {e}", test.name));
        assert_eq!(
            write::write_module(&a),
            write::write_module(&b),
            "translation of `{}` diverged after a store round-trip",
            test.name
        );
    }
}

fn roundtrip_pair(src: IrVersion, tgt: IrVersion, take: Option<usize>) {
    let tmp = TempDir::new("roundtrip");
    let (tests, outcome) = synthesize(src, tgt, take);
    let key = StoreKey::new(&SynthesisConfig::new(src, tgt), corpus_fingerprint(&tests));
    let store = TranslatorStore::open(StoreConfig::at(&tmp.0)).expect("open store");
    store.save(&key, &outcome).expect("save entry");

    let path = store.entry_path(&key);
    let bytes = std::fs::read(&path).expect("entry file exists after save");
    assert_eq!(
        peek_key(&bytes),
        Some(key),
        "peek_key reads the header back"
    );

    for mode in [
        ValidationMode::Off,
        ValidationMode::Checksum,
        ValidationMode::Full,
    ] {
        let reloaded = decode_entry(&bytes, &key, mode, Corpus::Built(&tests))
            .unwrap_or_else(|e| panic!("{src}->{tgt} mode {mode}: {e}"));
        assert_eq!(reloaded.rendered, outcome.rendered, "mode {mode}");
        assert!(
            reloaded.translator.structurally_eq(&outcome.translator),
            "{src}->{tgt} mode {mode}: reloaded translator differs structurally"
        );
        assert_eq!(reloaded.report.tests_used, outcome.report.tests_used);
        assert_eq!(reloaded.report.pair, outcome.report.pair);
        assert_eq!(
            reloaded.report.candidate_counts,
            outcome.report.candidate_counts
        );
        assert_eq!(reloaded.report.per_test, outcome.report.per_test);
        assert_identical_translations(tgt, &tests, &outcome, &reloaded);

        // The format is canonical: re-encoding the reloaded outcome
        // reproduces the on-disk bytes exactly.
        assert_eq!(
            encode_entry(&key, &reloaded),
            bytes,
            "{src}->{tgt} mode {mode}: re-encoding is not canonical"
        );
    }

    // The store's own load path agrees with direct decoding.
    let via_store = store
        .load(&key, Corpus::Built(&tests))
        .expect("store.load hits");
    assert_eq!(via_store.rendered, outcome.rendered);
    assert!(via_store.translator.structurally_eq(&outcome.translator));
}

#[test]
fn roundtrip_downgrade_pair_full_corpus() {
    roundtrip_pair(IrVersion::V13_0, IrVersion::V3_6, None);
}

#[test]
fn roundtrip_modern_pair_subset() {
    roundtrip_pair(IrVersion::V17_0, IrVersion::V12_0, Some(10));
}

#[test]
fn roundtrip_upgrade_pair_subset() {
    roundtrip_pair(IrVersion::V3_6, IrVersion::V13_0, Some(10));
}

#[test]
fn lru_gc_keeps_the_most_recently_used_entries() {
    let tmp = TempDir::new("gc");
    let (tests, outcome) = synthesize(IrVersion::V13_0, IrVersion::V3_6, Some(6));
    let key = StoreKey::new(
        &SynthesisConfig::new(IrVersion::V13_0, IrVersion::V3_6),
        corpus_fingerprint(&tests),
    );
    let store = TranslatorStore::open(StoreConfig::at(&tmp.0)).expect("open store");
    store.save(&key, &outcome).expect("save entry");
    let bytes = std::fs::read(store.entry_path(&key)).expect("read entry");

    // Fabricate older siblings (GC orders purely by mtime, so content-
    // identical copies under other names are fine).
    let past = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
    for name in ["aaa-old.sirt", "bbb-older.sirt"] {
        let p = tmp.0.join(name);
        std::fs::write(&p, &bytes).expect("write sibling");
        let f = std::fs::File::options()
            .write(true)
            .open(&p)
            .expect("open sibling");
        f.set_modified(past).expect("age sibling");
    }

    // Cap at exactly one entry's size: the two aged copies go, the real
    // (recently written) entry survives.
    let report = store.gc(bytes.len() as u64).expect("gc");
    assert_eq!(report.scanned, 3);
    assert_eq!(report.removed, 2);
    assert_eq!(report.bytes_after, bytes.len() as u64);
    assert!(
        store.entry_path(&key).exists(),
        "LRU evicted the wrong entry"
    );

    // Cap zero clears the store entirely.
    let report = store.gc(0).expect("gc to zero");
    assert_eq!(report.removed, 1);
    assert_eq!(report.bytes_after, 0);
}
