//! The oracle corpus of each version pair, built once per process.
//!
//! Synthesis validates a translator against its pair's oracle corpus
//! (§4.3, Fig. 6), and the corpus's [`corpus_fingerprint`] is part of the
//! translator's identity: in the [`crate::TranslatorCache`] and in the
//! store ([`crate::StoreKey`]). This module is the one place that keeps
//! corpora. It holds one slot per ordered pair of
//! [`IrVersion::CATALOG`] versions, and each slot gives two things:
//!
//! * the pair's fingerprint ([`pair_fingerprint`]), computed once, by
//!   hashing a corpus that is then dropped unless it is kept (below). So
//!   every key is `corpus_fingerprint(&oracle_corpus(a, b))` by
//!   construction, and a version-graph build, which needs only
//!   fingerprints, keeps no corpus.
//! * the pair's corpus behind an [`Arc`] ([`pair_corpus`]), built at most
//!   once and only for a caller that needs the tests: a
//!   [`crate::router::HopResolver`] call, synthesis, or store validation.
//!
//! The slots cover the 156 translation pairs and the 13 identity pairs
//! (a `13.0 -> 13.0` request is served by a synthesized translator too).
//! A pair with a version outside the catalog is built for each caller and
//! never kept, so requests naming arbitrary versions cannot grow the
//! table.

use std::sync::{Arc, OnceLock};

use siro_ir::IrVersion;

use crate::cache::corpus_fingerprint;
use crate::pertest::OracleTest;

/// Builds the full oracle corpus for a pair, in the shape synthesis (and
/// hence store keys) consume. The daemon, `siro store`, the benches and
/// difftest all build their corpora here, so everyone fingerprints the
/// same corpus.
pub fn oracle_corpus(source: IrVersion, target: IrVersion) -> Vec<OracleTest> {
    siro_testcases::corpus_for_pair(source, target)
        .into_iter()
        .map(|c| OracleTest {
            name: c.name.to_string(),
            module: c.build(source),
            oracle: c.oracle,
        })
        .collect()
}

const VERSIONS: usize = IrVersion::CATALOG.len();
const SLOTS: usize = VERSIONS * VERSIONS;

static FINGERPRINTS: [OnceLock<u64>; SLOTS] = [const { OnceLock::new() }; SLOTS];
static CORPORA: [OnceLock<Arc<Vec<OracleTest>>>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// The slot of `(source, target)`, row-major in catalog order; `None` when
/// either version is outside the catalog.
fn slot(source: IrVersion, target: IrVersion) -> Option<usize> {
    let index = |v| IrVersion::CATALOG.iter().position(|&c| c == v);
    Some(index(source)? * VERSIONS + index(target)?)
}

/// The pair's oracle corpus ([`oracle_corpus`]), shared: a catalog pair's
/// corpus is built on the first call and every later call gets the same
/// allocation.
pub fn pair_corpus(source: IrVersion, target: IrVersion) -> Arc<Vec<OracleTest>> {
    match slot(source, target) {
        Some(i) => Arc::clone(CORPORA[i].get_or_init(|| Arc::new(oracle_corpus(source, target)))),
        None => Arc::new(oracle_corpus(source, target)),
    }
}

/// `corpus_fingerprint(&oracle_corpus(source, target))`, computed once per
/// catalog pair. When the pair's corpus is not kept, the corpus built to
/// hash it is dropped again.
pub fn pair_fingerprint(source: IrVersion, target: IrVersion) -> u64 {
    let Some(i) = slot(source, target) else {
        return corpus_fingerprint(&oracle_corpus(source, target));
    };
    *FINGERPRINTS[i].get_or_init(|| match CORPORA[i].get() {
        Some(tests) => corpus_fingerprint(tests),
        None => corpus_fingerprint(&oracle_corpus(source, target)),
    })
}
