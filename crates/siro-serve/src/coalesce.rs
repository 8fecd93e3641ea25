//! Per-version-pair request coalescing.
//!
//! A burst of N concurrent requests for the same *cold* version pair must
//! trigger exactly one synthesis. The heavy lifting is done by
//! [`TranslatorCache`]'s per-key `OnceLock` — concurrent racers on one
//! key serialize and the losers adopt the winner's outcome. This module
//! adds the serving-side bookkeeping on top:
//!
//! * per-pair counters (`syntheses`, `coalesced`) make the coalescing
//!   observable — the e2e test asserts `syntheses == 1` after a stampede,
//!   and `STATS` exposes the totals.
//!
//! The coalescer neither builds nor keeps a corpus: each lookup goes to
//! [`TranslatorCache::lookup_pair`], keyed by the pair's fingerprint,
//! which builds the pair's corpus only when it must synthesize.
//!
//! The pair map sits under one lock, held only to find a pair's counters:
//! the synthesis runs after it is dropped, in the cache's per-key slot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use siro_ir::IrVersion;
use siro_synth::{SynthError, SynthesisConfig, SynthesisOutcome, TranslatorCache};

/// Observable per-pair counters.
#[derive(Debug, Default)]
struct PairCounters {
    /// Requests for this pair that actually ran a synthesis.
    syntheses: AtomicU64,
    /// Requests for this pair answered by someone else's synthesis (a
    /// cache hit, including waiting out an in-flight one).
    coalesced: AtomicU64,
}

type PairMap = HashMap<(IrVersion, IrVersion), Arc<PairCounters>>;

/// Coalesces translator acquisition per `(source, target)` pair.
#[derive(Default)]
pub struct PairCoalescer {
    pairs: Mutex<PairMap>,
}

/// What [`PairCoalescer::translator_for`] reports alongside the outcome.
#[derive(Debug, Clone)]
pub struct CoalescedLookup {
    /// The shared synthesis outcome.
    pub outcome: Arc<SynthesisOutcome>,
    /// `true` when this request ran the synthesis itself.
    pub fresh: bool,
}

/// Totals across all pairs, for `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceTotals {
    /// Distinct pairs requested so far.
    pub pairs: u64,
    /// Syntheses actually run.
    pub syntheses: u64,
    /// Requests that reused another request's synthesis.
    pub coalesced: u64,
}

impl PairCoalescer {
    /// Creates an empty coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pairs(&self) -> MutexGuard<'_, PairMap> {
        self.pairs.lock().expect("coalescer poisoned")
    }

    /// Returns the (memoized) synthesized translator for `source -> target`,
    /// running at most one synthesis per pair regardless of concurrency.
    ///
    /// # Errors
    ///
    /// Propagates the memoized [`SynthError`] when the pair cannot be
    /// synthesized from the corpus.
    pub fn translator_for(
        &self,
        source: IrVersion,
        target: IrVersion,
    ) -> Result<CoalescedLookup, SynthError> {
        let counters = Arc::clone(self.pairs().entry((source, target)).or_default());
        let lookup = TranslatorCache::lookup_pair(SynthesisConfig::new(source, target))?;
        if lookup.fresh {
            &counters.syntheses
        } else {
            &counters.coalesced
        }
        .fetch_add(1, Ordering::Relaxed);
        Ok(CoalescedLookup {
            outcome: lookup.outcome,
            fresh: lookup.fresh,
        })
    }

    /// Counters for one pair: `(syntheses, coalesced)`.
    pub fn pair_counters(&self, source: IrVersion, target: IrVersion) -> (u64, u64) {
        self.pairs()
            .get(&(source, target))
            .map(|c| {
                (
                    c.syntheses.load(Ordering::Relaxed),
                    c.coalesced.load(Ordering::Relaxed),
                )
            })
            .unwrap_or((0, 0))
    }

    /// Totals across every pair seen so far, read under the map lock.
    pub fn totals(&self) -> CoalesceTotals {
        let pairs = self.pairs();
        let mut t = CoalesceTotals {
            pairs: pairs.len() as u64,
            ..CoalesceTotals::default()
        };
        for c in pairs.values() {
            t.syntheses += c.syntheses.load(Ordering::Relaxed);
            t.coalesced += c.coalesced.load(Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stampede_on_a_cold_pair_synthesizes_once() {
        // A pair no other test in this binary touches, so the process-wide
        // TranslatorCache is genuinely cold for it.
        let (src, tgt) = (IrVersion::V15_0, IrVersion::V3_6);
        let coalescer = Arc::new(PairCoalescer::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&coalescer);
            handles.push(std::thread::spawn(move || {
                c.translator_for(src, tgt).expect("synthesis")
            }));
        }
        let lookups: Vec<CoalescedLookup> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        let fresh = lookups.iter().filter(|l| l.fresh).count();
        assert_eq!(fresh, 1, "exactly one request may synthesize");
        let first = &lookups[0].outcome;
        for l in &lookups[1..] {
            assert!(Arc::ptr_eq(first, &l.outcome), "all share one outcome");
        }
        let (syntheses, coalesced) = coalescer.pair_counters(src, tgt);
        assert_eq!(syntheses, 1);
        assert_eq!(coalesced, 7);
        let totals = coalescer.totals();
        assert!(totals.pairs >= 1 && totals.syntheses >= 1);
    }

    #[test]
    fn unknown_pair_reports_zero_counters() {
        let c = PairCoalescer::new();
        assert_eq!(c.pair_counters(IrVersion::V3_0, IrVersion::V3_6), (0, 0));
        assert_eq!(c.totals(), CoalesceTotals::default());
    }

    /// A stampede over several distinct cold pairs at once, racers on
    /// each, must still synthesize exactly once per pair, and the totals
    /// must account for every request.
    #[test]
    fn multi_pair_stampede_synthesizes_once_per_pair() {
        // Pairs reserved for this test (no other test in this binary
        // synthesizes them).
        let pairs = [
            (IrVersion::V17_0, IrVersion::V3_6),
            (IrVersion::V17_0, IrVersion::V3_0),
            (IrVersion::V10_0, IrVersion::V3_0),
        ];
        const RACERS: usize = 4;
        let coalescer = Arc::new(PairCoalescer::new());
        let mut handles = Vec::new();
        for &(src, tgt) in &pairs {
            for _ in 0..RACERS {
                let c = Arc::clone(&coalescer);
                handles.push(std::thread::spawn(move || {
                    c.translator_for(src, tgt).expect("synthesis")
                }));
            }
        }
        for h in handles {
            h.join().expect("join");
        }
        for &(src, tgt) in &pairs {
            let (syntheses, coalesced) = coalescer.pair_counters(src, tgt);
            assert_eq!(syntheses, 1, "{src}->{tgt} must synthesize exactly once");
            assert_eq!(coalesced, (RACERS - 1) as u64, "{src}->{tgt}");
        }
        let totals = coalescer.totals();
        assert_eq!(totals.pairs, pairs.len() as u64);
        assert_eq!(totals.syntheses, pairs.len() as u64);
        assert_eq!(totals.coalesced, (pairs.len() * (RACERS - 1)) as u64);
    }
}
