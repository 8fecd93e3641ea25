//! Regression stress test for the `TranslatorCache::snapshot()` /
//! `reset()` race: snapshot used to read the hit/miss counters *before*
//! taking the map lock, so a concurrent `reset()` could zero the map in
//! between and a reader would observe `hits + misses > 0` with
//! `entries == 0` — an impossible state (every miss inserts its slot
//! under the lock before the counter moves, and reset clears both under
//! the same lock).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use siro_ir::IrVersion;
use siro_synth::{SynthesisConfig, TranslatorCache};

/// Populates `n` distinct cache keys (same pair, varying limits) with an
/// empty corpus — milliseconds per key, real inserts and hits.
fn populate_keys(src: IrVersion, tgt: IrVersion, n: usize, salt: usize) {
    for i in 0..n {
        let mut config = SynthesisConfig::new(src, tgt);
        config.limits.max_exprs_per_type = 1 + (salt + i) % 7;
        config.limits.max_candidates_per_kind = 4 + (salt + i) % 13;
        // Miss, then hit, on the same key.
        TranslatorCache::get_or_synthesize(config.clone(), &[]).expect("empty-corpus synth");
        TranslatorCache::get_or_synthesize(config, &[]).expect("cached re-lookup");
    }
}

#[test]
fn snapshot_is_consistent_under_concurrent_reset() {
    const ROUNDS: usize = 20;
    const KEYS_PER_ROUND: usize = 24;

    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let stop = Arc::new(AtomicBool::new(false));

    let spinner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = TranslatorCache::snapshot();
                assert!(
                    s.hits + s.misses == 0 || s.entries > 0,
                    "impossible snapshot: hits {} + misses {} with {} entries \
                     (counters and map read under different lock epochs)",
                    s.hits,
                    s.misses,
                    s.entries
                );
                observed += 1;
            }
            observed
        })
    };

    // Keep the per-key work tiny: an empty corpus synthesizes only the
    // warning shells, so each round is milliseconds while still driving
    // real insertions, hits, and misses through the map.
    for round in 0..ROUNDS {
        TranslatorCache::reset();
        populate_keys(src, tgt, KEYS_PER_ROUND, round * KEYS_PER_ROUND);
        // Every key missed once and hit once.
        let s = TranslatorCache::snapshot();
        assert_eq!(s.entries, KEYS_PER_ROUND, "round {round}");
        assert_eq!(s.misses, KEYS_PER_ROUND as u64, "round {round}");
        assert_eq!(s.hits, KEYS_PER_ROUND as u64, "round {round}");
    }

    stop.store(true, Ordering::Relaxed);
    let observed = spinner
        .join()
        .expect("spinner panicked (invariant violated)");
    assert!(observed > 0, "the spinner never got to observe a snapshot");
    TranslatorCache::reset();
}
