//! One router for both dialects moves no Siro plan: over every ordered
//! pair of Siro catalog versions, `Router::new()` (both catalogs and the
//! anchor bridges) plans exactly what a router over the Siro catalog alone
//! plans, costs included. Checked on a cold graph and again once both
//! anchor bridges are validated and wir2.0 -> wir3.0 is hot, when
//! `13.0 -> wir2.0 -> wir3.0 -> 15.0` costs less than the cold direct
//! `13.0 -> 15.0` edge.
//!
//! Its own integration-test binary with one test: the caches that make
//! edges hot are process-global.

use siro_ir::{DialectVersion, IrVersion};
use siro_synth::{bridge_cached, wir_translator_cached, RoutePlan, Router, BRIDGE_ANCHORS};
use siro_wir::WirVersion;

/// Every ordered pair of distinct Siro catalog versions, planned.
fn siro_plans(router: &Router) -> Vec<((IrVersion, IrVersion), Option<RoutePlan>)> {
    let mut out = Vec::new();
    for &a in &IrVersion::CATALOG {
        for &b in IrVersion::CATALOG.iter().filter(|&&b| b != a) {
            out.push(((a, b), router.plan(a, b)));
        }
    }
    out
}

fn assert_same_siro_plans(when: &str) {
    let (one, siro_only) = (Router::new(), Router::over(IrVersion::CATALOG.to_vec()));
    let (got, want) = (siro_plans(&one), siro_plans(&siro_only));
    assert_eq!(got.len(), 156);
    for (((a, b), got), (_, want)) in got.iter().zip(&want) {
        assert_eq!(
            got,
            want,
            "{when}: {a} -> {b} planned {} on the one router, {} on the Siro catalog",
            got.as_ref().map_or("nothing".into(), RoutePlan::describe),
            want.as_ref().map_or("nothing".into(), RoutePlan::describe),
        );
    }
}

#[test]
fn siro_plans_equal_the_siro_only_router() {
    assert_same_siro_plans("cold");

    for (siro, wir) in BRIDGE_ANCHORS {
        bridge_cached(siro, wir).unwrap_or_else(|e| panic!("bridge {siro} <-> {wir}: {e}"));
    }
    wir_translator_cached(WirVersion::W2_0, WirVersion::W3_0).expect("wir2.0 -> wir3.0");
    // The detour through the bridges now undercuts the cold direct edge,
    // and a plan with a WIR endpoint still takes it.
    let one = Router::new();
    let wir_target: DialectVersion = WirVersion::W3_0.into();
    let cross = one
        .plan(IrVersion::V13_0, wir_target)
        .expect("13.0 -> wir3.0");
    assert_eq!(
        cross.describe(),
        "13.0 -> wir2.0 -> wir3.0 (2 hops, cost 20us)"
    );
    assert_same_siro_plans("bridges and wir2.0 -> wir3.0 hot");
}
