//! Path selection under fuzz: the difftest lane for the version-graph
//! router.
//!
//! Three layers, cheapest first:
//!
//! * **planner properties** — randomized warm/cold/extra-cost landscapes
//!   over the real catalog, with [`VersionGraph::cheapest_path`] checked
//!   against path invariants and, on small node subsets, against a
//!   brute-force enumeration of every simple path;
//! * **routed oracles** — [`ChainSet::routed`] lets the router pick the
//!   chain intermediate, and the metamorphic oracles must still agree on
//!   clean translators (and still catch injected faults);
//! * **routed fuzzing** — a short [`run`] with `route_mids > 1` rotates
//!   mutants across router-ranked paths; an injected fault must be
//!   caught on one of them and the failing path recorded.
//!
//! The `generate_path_selection_artifact` test (ignored by default)
//! regenerates the committed path-selection regression artifact under
//! `regressions/`.

use std::time::Duration;

use siro_difftest::{routed_mids, run, ChainSet, DifftestConfig, Verdict, ORACLE_FUEL};
use siro_ir::{FuncBuilder, IrVersion, Module, Opcode, ValueRef};
use siro_rng::{Rng, SeedableRng, StdRng};
use siro_synth::{EdgeClass, EdgeInfo, RoutePlan, SynthFault, VersionGraph, COST_COLD_US};

/// Bound on the random extra cost an edge of a fuzzed landscape carries
/// on top of its class cost.
const EXTRA_CAP_US: u64 = COST_COLD_US / 2;

fn tiny(version: IrVersion) -> Module {
    let mut m = Module::new("tiny", version);
    let i32t = m.types.i32();
    let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
    let mut b = FuncBuilder::new(&mut m, f);
    let e = b.add_block("entry");
    b.position_at_end(e);
    let v = b.sub(ValueRef::const_int(i32t, 50), ValueRef::const_int(i32t, 8));
    b.ret(Some(v));
    m
}

/// A random cost landscape: each ordered pair gets an edge with
/// probability `edge_p` (percent), a random class, and, half the time, a
/// random extra cost below [`EXTRA_CAP_US`] in its `cost_us`.
fn random_graph(rng: &mut StdRng, nodes: &[IrVersion], edge_p: u32) -> VersionGraph {
    let mut edges = Vec::new();
    for &a in nodes {
        for &b in nodes {
            if a == b || rng.gen_range(0..100) >= edge_p {
                continue;
            }
            let class = match rng.gen_range(0..3) {
                0 => EdgeClass::Hot,
                1 => EdgeClass::Warm,
                _ => EdgeClass::Cold,
            };
            let extra = if rng.gen_range(0..2) == 0 {
                rng.gen_range(0..EXTRA_CAP_US)
            } else {
                0
            };
            edges.push(EdgeInfo {
                from: a.into(),
                to: b.into(),
                class,
                cost_us: class.cost_us() + extra,
            });
        }
    }
    VersionGraph::from_edges(nodes.to_vec(), edges)
}

/// The plan must be a connected `from → to` walk whose summed hop costs
/// equal the reported total, and no pricier than the direct edge.
fn assert_plan_invariants(graph: &VersionGraph, plan: &RoutePlan) {
    let mut at = plan.from;
    let mut total = 0u64;
    for hop in &plan.hops {
        assert_eq!(hop.from, at, "disconnected hop in {}", plan.describe());
        let edge = graph
            .edge(hop.from, hop.to)
            .unwrap_or_else(|| panic!("plan uses a non-edge: {}", plan.describe()));
        assert_eq!(edge.cost_us, hop.cost_us, "stale hop cost");
        at = hop.to;
        total += hop.cost_us;
    }
    assert_eq!(at, plan.to, "plan does not end at the target");
    assert_eq!(total, plan.cost_us, "plan cost is not the sum of its hops");
    if let Some(direct) = graph.edge(plan.from, plan.to) {
        assert!(
            plan.cost_us <= direct.cost_us,
            "plan {} beats nothing: direct costs {}us",
            plan.describe(),
            direct.cost_us
        );
    }
}

/// Cheapest simple-path cost by exhaustive enumeration (small graphs).
fn brute_force_cost(
    graph: &VersionGraph,
    nodes: &[IrVersion],
    at: IrVersion,
    to: IrVersion,
    used: &mut Vec<IrVersion>,
) -> Option<u64> {
    if at == to {
        return Some(0);
    }
    let mut best: Option<u64> = None;
    for &next in nodes {
        if used.contains(&next) {
            continue;
        }
        let Some(edge) = graph.edge(at, next) else {
            continue;
        };
        used.push(next);
        if let Some(rest) = brute_force_cost(graph, nodes, next, to, used) {
            let cost = edge.cost_us + rest;
            best = Some(best.map_or(cost, |b| b.min(cost)));
        }
        used.pop();
    }
    best
}

#[test]
fn fuzzed_cost_landscapes_hold_plan_invariants() {
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
    let nodes = IrVersion::CATALOG.to_vec();
    for round in 0..60 {
        let graph = random_graph(&mut rng, &nodes, 20 + (round % 8) * 10);
        for &a in &nodes {
            for &b in &nodes {
                let Some(plan) = graph.cheapest_path(a, b) else {
                    continue;
                };
                if a == b {
                    assert_eq!(plan.hop_count(), 0);
                    assert_eq!(plan.cost_us, 0);
                    continue;
                }
                assert_plan_invariants(&graph, &plan);
            }
        }
    }
}

#[test]
fn fuzzed_small_graphs_match_brute_force_optimum() {
    let mut rng = StdRng::seed_from_u64(0x51ce_cafe);
    let nodes = &IrVersion::CATALOG[..5];
    for _ in 0..120 {
        let graph = random_graph(&mut rng, nodes, 50);
        for &a in nodes {
            for &b in nodes {
                if a == b {
                    continue;
                }
                let planned = graph.cheapest_path(a, b).map(|p| p.cost_us);
                let brute = brute_force_cost(&graph, nodes, a, b, &mut vec![a]);
                assert_eq!(planned, brute, "suboptimal or spurious plan {a} -> {b}");
            }
        }
    }
}

#[test]
fn planner_is_deterministic_across_snapshots() {
    let nodes = IrVersion::CATALOG.to_vec();
    for seed in [1u64, 2, 3] {
        let g1 = random_graph(&mut StdRng::seed_from_u64(seed), &nodes, 60);
        let g2 = random_graph(&mut StdRng::seed_from_u64(seed), &nodes, 60);
        for &a in &nodes {
            for &b in &nodes {
                let p1 = g1.cheapest_path(a, b).map(|p| p.describe());
                let p2 = g2.cheapest_path(a, b).map(|p| p.describe());
                assert_eq!(p1, p2, "ties must break deterministically");
            }
        }
    }
}

#[test]
fn routed_mids_excludes_endpoints_and_covers_the_catalog() {
    let (src, tgt) = (IrVersion::V10_0, IrVersion::V4_0);
    let mids = routed_mids(src, tgt);
    assert_eq!(mids.len(), IrVersion::CATALOG.len() - 2);
    assert!(!mids.contains(&src) && !mids.contains(&tgt));
}

#[test]
fn routed_chain_agrees_on_clean_translators() {
    // Pair unique to this test so concurrent tests cannot perturb which
    // intermediate ranks cheapest mid-flight.
    let chain = ChainSet::routed(IrVersion::V9_0, IrVersion::V3_0, None).expect("routed synthesis");
    assert!(chain.mid != chain.src && chain.mid != chain.tgt);
    match chain.check(&tiny(chain.src), ORACLE_FUEL) {
        Verdict::Agree => {}
        other => panic!("expected agreement on the routed path, got {other:?}"),
    }
}

#[test]
fn routed_fuzz_catches_a_fault_on_a_router_ranked_path() {
    let mut cfg = DifftestConfig::routed(IrVersion::V10_0, IrVersion::V4_0);
    cfg.route_mids = 2;
    cfg.fault = Some(SynthFault::SwapOperands(Opcode::Sub));
    cfg.budget = Duration::from_secs(20);
    cfg.max_execs = 24;
    let report = run(&cfg).expect("fuzzing run");
    assert_eq!(report.mids.len(), 2, "two router-ranked paths expected");
    assert!(
        !report.failures.is_empty(),
        "the injected fault must be caught on a routed path"
    );
    for f in &report.failures {
        assert!(
            report.mids.contains(&f.mid),
            "failure recorded on unknown path via {}",
            f.mid
        );
    }
}

/// Regenerates the committed path-selection regression artifact. Run
/// explicitly (`cargo test -p siro-difftest --test router_paths -- \
/// --ignored generate_path_selection_artifact`) after a change to the
/// artifact format, the router's ranking, or the corpus; commit the
/// resulting file.
#[test]
#[ignore = "generator: rewrites the committed path-selection artifact"]
fn generate_path_selection_artifact() {
    let (src, tgt) = (IrVersion::V10_0, IrVersion::V9_0);
    let fault = Some(SynthFault::SwapOperands(Opcode::Sub));
    let chain = ChainSet::routed(src, tgt, fault).expect("faulted routed synthesis");
    let module = tiny(src);
    let Verdict::Fail(f) = chain.check(&module, ORACLE_FUEL) else {
        panic!("the injected fault must trip an oracle on the routed path");
    };
    let artifact = siro_difftest::RegressionArtifact {
        src,
        mid: chain.mid,
        tgt,
        fault,
        oracle: f.oracle.to_string(),
        family: f.family,
        mutator: "route-path".into(),
        detail: f.detail,
        module,
    };
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/regressions"));
    let path = artifact.save(dir).expect("write artifact");
    eprintln!("wrote {}", path.display());
}
