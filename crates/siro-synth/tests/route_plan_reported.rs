//! `Acquired.plan` names the route that served: when a memoized composed
//! chain answers, the reported plan is the chain's own, even after a
//! cheaper route has become hot. Heating that route starts a new route
//! epoch, so the next plan rebuilds the graph and finds it.
//!
//! Lives in its own integration-test binary because the translator cache
//! that makes edges hot and the router counters are process-global.

use siro_ir::{DialectVersion, IrVersion};
use siro_synth::{router_stats, RouteOutcome, Router, SynthesisConfig, TranslatorCache};

fn heat(from: IrVersion, to: IrVersion) {
    TranslatorCache::lookup_pair(SynthesisConfig::new(from, to))
        .unwrap_or_else(|e| panic!("synthesizing {from}->{to}: {e}"));
}

#[test]
fn a_cached_chain_reports_its_own_plan_after_a_cheaper_route_turns_hot() {
    let (a, b, c, d) = (
        IrVersion::V13_0,
        IrVersion::V12_0,
        IrVersion::V11_0,
        IrVersion::V3_6,
    );
    let r = Router::over(vec![a, b, c, d]);

    // Three hot hops against a cold direct edge: a->b->c->d.
    for (from, to) in [(a, b), (b, c), (c, d)] {
        heat(from, to);
    }
    let first = r.acquire(a, d).expect("acquire a->d");
    let RouteOutcome::Composed(chain) = &first.outcome else {
        panic!("three hot hops must compose: {}", first.plan.describe());
    };
    assert_eq!(chain.hop_count(), 3, "{}", first.plan.describe());

    // A cheaper two-hop route turns hot: a->c->d. Heating it is a new
    // route epoch, so re-planning rebuilds the graph, once.
    let builds = router_stats().graph_builds;
    heat(a, c);
    assert_eq!(
        r.plan(a, d).expect("plan a->d").hop_count(),
        2,
        "the cheapest route must now be a->c->d"
    );
    assert_eq!(
        router_stats().graph_builds,
        builds + 1,
        "re-planning after heat(a, c) must rebuild the graph"
    );

    // The memoized chain still serves, so the reported plan must still be
    // the chain's.
    let second = r.acquire(a, d).expect("acquire a->d again");
    let RouteOutcome::Composed(served) = &second.outcome else {
        panic!("the memoized chain must serve");
    };
    let reported: Vec<(DialectVersion, DialectVersion)> =
        second.plan.hops.iter().map(|e| (e.from, e.to)).collect();
    let serving: Vec<(DialectVersion, DialectVersion)> =
        served.hops.iter().map(|h| (h.from, h.to)).collect();
    assert_eq!(
        reported,
        serving,
        "reported plan {} is not the chain that served",
        second.plan.describe()
    );
    assert_eq!(
        router_stats().graph_builds,
        builds + 1,
        "plans within one route epoch must share its graph"
    );
}
