//! End-to-end acceptance for the second dialect: a SIRO↔WIR pair
//! synthesized by the unchanged pipeline serves through `siro serve`
//! (event engine, store-warm), and the cross-dialect
//! interpreter-differential oracle is clean over ≥500 fuzzed modules per
//! bridge anchor.
//!
//! This is the issue's acceptance bar in executable form; the
//! `cross_dialect` CI lane runs exactly this file plus the bench gate.

use std::time::Duration;

use siro::difftest::run_all_anchors;
use siro::ir::IrVersion;
use siro::serve::{Client, ServeConfig, TranslateMode};
use siro::synth::{raise_module, siro_behaviour, wir_behaviour};
use siro::wir::{generate_straightline, parse_module, write_module, WirVersion};

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(30)).expect("connect")
}

/// The full serve story for the second dialect, through the event engine
/// with a persistent store:
///
/// * a WIR→WIR pair and both SIRO↔WIR anchor directions serve
///   successfully over the wire;
/// * behaviour buckets survive every served translation;
/// * repeating a request is byte-identical (translator-cache warm);
/// * restarting the server on the same store directory stays
///   byte-identical (store-warm).
#[test]
fn cross_dialect_pairs_serve_store_warm_through_the_event_engine() {
    let store = std::env::temp_dir().join(format!("siro-cross-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ServeConfig {
        threads: Some(2),
        store_dir: Some(store.clone()),
        ..ServeConfig::default()
    };

    let handle = siro::serve::start(config.clone()).expect("bind ephemeral port");
    let mut client = connect(handle.addr());

    // SIRO → WIR across the 13.0 ↔ wir2.0 anchor. Raising a straight-line
    // WIR module yields a Siro source guaranteed to sit in the bridge's
    // lowerable subset.
    let wir_src = generate_straightline(23, WirVersion::W2_0);
    let siro_src = raise_module(&wir_src, IrVersion::V13_0).expect("raise");
    let siro_text = siro::ir::write::write_module(&siro_src);
    let down = client
        .translate(
            IrVersion::V13_0,
            WirVersion::W2_0,
            TranslateMode::Synthesized,
            siro_text.clone(),
        )
        .expect("serve 13.0 -> wir2.0");
    let down_mod = parse_module(&down.text).expect("served WIR parses");
    assert_eq!(down_mod.version, WirVersion::W2_0);
    assert_eq!(
        siro_behaviour(&siro_src),
        wir_behaviour(&down_mod),
        "behaviour bucket must survive the served lowering"
    );

    // WIR → SIRO, the reverse direction over the same anchor.
    let up = client
        .translate(
            WirVersion::W2_0,
            IrVersion::V13_0,
            TranslateMode::Synthesized,
            write_module(&wir_src),
        )
        .expect("serve wir2.0 -> 13.0");
    let up_mod = siro::ir::parse::parse_module(&up.text).expect("served Siro parses");
    assert_eq!(up_mod.version, IrVersion::V13_0);
    assert_eq!(
        wir_behaviour(&wir_src),
        siro_behaviour(&up_mod),
        "behaviour bucket must survive the served raising"
    );

    // WIR → WIR within the catalog (synthesized translator hop).
    let w1 = generate_straightline(11, WirVersion::W1_0);
    let hop = client
        .translate(
            WirVersion::W1_0,
            WirVersion::W3_0,
            TranslateMode::Synthesized,
            write_module(&w1),
        )
        .expect("serve wir1.0 -> wir3.0");
    let hop_mod = parse_module(&hop.text).expect("served WIR parses");
    assert_eq!(hop_mod.version, WirVersion::W3_0);
    assert_eq!(wir_behaviour(&w1), wir_behaviour(&hop_mod));

    // Warm repeat on the live server: byte-identical.
    let down2 = client
        .translate(
            IrVersion::V13_0,
            WirVersion::W2_0,
            TranslateMode::Synthesized,
            siro_text.clone(),
        )
        .expect("warm repeat");
    assert_eq!(down.text, down2.text, "warm repeat must be byte-identical");

    handle.shutdown();

    // Store-warm restart: the prefetched store must reproduce the same
    // bytes without re-synthesis.
    let handle = siro::serve::start(config).expect("rebind");
    let mut client = connect(handle.addr());
    let down3 = client
        .translate(
            IrVersion::V13_0,
            WirVersion::W2_0,
            TranslateMode::Synthesized,
            siro_text,
        )
        .expect("store-warm serve");
    assert_eq!(
        down.text, down3.text,
        "store-warm restart must serve byte-identical translations"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// The issue's fuzzing bar: ≥500 modules through the cross-dialect
/// interpreter-differential oracle per anchor, with zero `cross-dialect`
/// failures outstanding and real coverage of the divergence bucket.
#[test]
fn cross_dialect_oracle_is_clean_over_500_fuzzed_modules_per_anchor() {
    for ((siro, wir), report) in run_all_anchors(500).expect("anchor sweep") {
        assert!(
            report.failures.is_empty(),
            "{siro}<->wir{wir}: {} cross-dialect failures, first: {:?}",
            report.failures.len(),
            report.failures.first().map(|f| &f.detail)
        );
        assert!(
            report.modules_checked >= 300,
            "{siro}<->wir{wir}: only {} of 500 modules were comparable",
            report.modules_checked
        );
        assert!(
            report.arith_cases > 0,
            "{siro}<->wir{wir}: the corpus never reached the arith bucket"
        );
    }
}
