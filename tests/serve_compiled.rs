//! End-to-end check that the compiled translate tier is invisible on the
//! wire: a synthesized request served by the daemon (from the compiled
//! tier) returns exactly the bytes the interpreter produces in-process
//! for the same text, and the daemon's `STATS` page shows which tier did
//! the work.
//!
//! Lives in its own integration-test binary so the compile counters on
//! the `STATS` page count this test's translations only.

use std::time::Duration;

use siro::core::Skeleton;
use siro::ir::{interp::Machine, parse, write, IrVersion};
use siro::serve::{stats_value, Client, ServeConfig, TranslateMode};
use siro::synth::{oracle_corpus, SynthesisConfig, TranslatorCache};

#[test]
fn compiled_tier_is_byte_invisible_on_the_wire() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let case = siro::testcases::corpus_for_pair(src, tgt)
        .into_iter()
        .next()
        .expect("corpus has cases for the pair");
    let text = write::write_module(&case.build(src));

    let handle = siro::serve::start(ServeConfig {
        threads: Some(2),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).expect("connect");

    // The request synthesizes, lowers, and serves from the compiled tier
    // (the in-place mirror driver on this corpus pair).
    let served = client
        .translate(src, tgt, TranslateMode::Synthesized, text.clone())
        .expect("served translation (compiled tier)");
    let page = client.stats().expect("stats");
    let compiled_count = stats_value(&page, "compile_translations_compiled");
    assert!(
        compiled_count.is_some_and(|n| n >= 1),
        "expected a compiled-tier translation on the stats page, got {compiled_count:?}"
    );
    assert_eq!(
        stats_value(&page, "compile_translations_interpreted"),
        Some(0)
    );

    // The interpreter, run in-process on the same text with the same
    // (now cached) translator, must produce the exact served bytes.
    let outcome = TranslatorCache::get_or_synthesize(
        SynthesisConfig::new(src, tgt),
        &oracle_corpus(src, tgt),
    )
    .expect("cached translator");
    let module = parse::parse_module(&text).expect("parse request text");
    let interpreted = Skeleton::new(tgt)
        .translate_module(&module, &outcome.translator)
        .expect("interpreted translation");
    assert_eq!(
        served.text,
        write::write_module(&interpreted),
        "the compiled tier served bytes the interpreter does not produce"
    );

    // The served text is live: it reparses and meets the corpus oracle.
    let reparsed = parse::parse_module(&served.text).expect("reparse served text");
    let got = Machine::new(&reparsed)
        .run_main()
        .expect("run served module")
        .return_int();
    assert_eq!(got, Some(case.oracle));

    handle.shutdown();
}
