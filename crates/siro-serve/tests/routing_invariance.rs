//! Observing the daemon must not change how it routes: every plan of
//! `Router::new()`, over both catalogs, made with tracing off is
//! identical, cost included, to the plan made after traced direct,
//! composed and WIR traffic has filled the span sink with `route.hop` and
//! `serve.translate` spans.
//!
//! Its own integration-test binary: the trace collector and the caches
//! that make edges hot are process-global.

use std::sync::Arc;

use siro_ir::{DialectVersion, IrVersion};
use siro_serve::{Engine, Metrics, Request, Response, TranslateMode};
use siro_synth::{
    bump_route_epoch, oracle_corpus, RoutePlan, Router, SynthesisConfig, TranslatorCache,
};
use siro_wir::WirVersion;

type Plans = Vec<((DialectVersion, DialectVersion), Option<RoutePlan>)>;

/// Plans every ordered pair of the router's nodes, one `plan` call each.
fn all_plans(router: &Router) -> Plans {
    let nodes = router.graph().nodes().to_vec();
    let mut out = Vec::with_capacity(nodes.len() * nodes.len());
    for &a in &nodes {
        for &b in &nodes {
            out.push(((a, b), router.plan(a, b)));
        }
    }
    out
}

fn requests() -> Vec<Request> {
    let siro = |from: IrVersion, to: IrVersion| {
        let case = siro_testcases::full_corpus()
            .into_iter()
            .find(|c| c.usable_for_pair(from, to))
            .expect("a usable corpus case");
        Request::Translate {
            source: from.into(),
            target: to.into(),
            mode: TranslateMode::Synthesized,
            text: siro_ir::write::write_module(&case.build(from)),
        }
    };
    let wir = siro_wir::generate_straightline(7, WirVersion::W1_0);
    vec![
        // Direct: a hot pair.
        siro(IrVersion::V13_0, IrVersion::V12_0),
        // Composed: two hot hops against a cold direct edge.
        siro(IrVersion::V13_0, IrVersion::V11_0),
        Request::Translate {
            source: WirVersion::W1_0.into(),
            target: WirVersion::W2_0.into(),
            mode: TranslateMode::Synthesized,
            text: siro_wir::write::write_module(&wir),
        },
    ]
}

fn serve(engine: &Engine, requests: &[Request]) {
    for request in requests {
        let response = engine.execute(request);
        assert!(
            matches!(response, Response::TranslateOk { .. }),
            "{request:?} answered {response:?}"
        );
    }
}

#[test]
fn tracing_does_not_change_any_plan() {
    siro_trace::set_enabled(false);
    for (from, to) in [
        (IrVersion::V13_0, IrVersion::V12_0),
        (IrVersion::V12_0, IrVersion::V11_0),
    ] {
        TranslatorCache::get_or_synthesize(
            SynthesisConfig::new(from, to),
            &oracle_corpus(from, to),
        )
        .unwrap_or_else(|e| panic!("synthesizing {from}->{to}: {e}"));
    }
    let engine = Engine::new(Arc::new(Metrics::default()));
    let requests = requests();
    // Untraced warm-up: the WIR translator is synthesized here, so no
    // edge changes class between the two planning rounds.
    serve(&engine, &requests);

    let router = Router::new();
    let before = all_plans(&router);
    let composed = before
        .iter()
        .find(|(pair, _)| *pair == (IrVersion::V13_0.into(), IrVersion::V11_0.into()))
        .and_then(|(_, plan)| plan.as_ref())
        .expect("13.0 -> 11.0 has a route");
    assert_eq!(composed.hop_count(), 2, "{}", composed.describe());

    siro_trace::set_enabled(true);
    for _ in 0..5 {
        serve(&engine, &requests);
    }
    let spans = siro_trace::snapshot().spans;
    for name in ["route.hop", "serve.translate"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "traced traffic must record `{name}` spans"
        );
    }
    bump_route_epoch();
    let after = all_plans(&router);
    siro_trace::set_enabled(false);
    siro_trace::reset();

    assert_eq!(before, after, "plans moved under tracing");
}
