//! The version-graph router: any-to-any translation over the catalog.
//!
//! The paper's headline scenario is a set of IR versions with *any-to-any*
//! compatibility. Direct synthesis can serve every pair, but it is the
//! most expensive way to answer a request whose endpoints are already
//! bridged by warm translators. This module models the catalog as a
//! directed graph and answers a `(from, to)` request by cheapest-path
//! composition over that graph.
//!
//! ## Dialect-aware nodes
//!
//! Nodes are keyed by `(dialect, version)` ([`DialectVersion`]), not by a
//! flat version number — `1.0` in the Siro family and `1.0` in the WIR
//! family are different nodes. Edges come in three kinds:
//!
//! * **Siro → Siro** — the synthesized pairwise translator for the pair
//!   (every ordered pair of Siro nodes; each has an oracle corpus);
//! * **WIR → WIR** — the synthesized WIR translator
//!   ([`crate::wir::wir_translator_cached`]; every ordered catalog pair);
//! * **Siro ↔ WIR** — a validated bridge at one of the
//!   [`crate::bridge::BRIDGE_ANCHORS`], in either direction. Non-anchor
//!   cross-dialect pairs get **no** edge, so a request whose endpoints
//!   span dialects with no anchor on any path is reported *unreachable*
//!   rather than served by a bogus chain.
//!
//! [`Router::new`] holds both catalogs and the anchor bridges between
//! them, so one graph, one plan memo and one chain memo serve every pair.
//! One rule keeps the second dialect out of Siro traffic: a plan whose
//! endpoints are both Siro versions relaxes only edges into Siro nodes
//! ([`VersionGraph::cheapest_path`]), so it equals the plan of a Siro-only
//! graph and never detours through a bridge. A plan with a WIR endpoint
//! uses every edge, and its cross-dialect hops compose like any other.
//!
//! ## Edge-cost formula
//!
//! Each edge is classified by how much work acquiring its translator
//! costs *right now*:
//!
//! * **Hot** — a successful outcome sits in the in-memory cache for its
//!   kind ([`COST_HOT_US`] ≈ an `Arc` clone);
//! * **Warm** — a persisted entry (`.sirt`, `.sirw`, or `.sirb`) exists in
//!   the attached [`TranslatorStore`] ([`COST_WARM_US`] ≈ read + validate);
//! * **Cold** — the translator must be synthesized or the bridge validated
//!   ([`COST_COLD_US`] ≈ a measured full-corpus synthesis).
//!
//! `cost(edge) = class_cost_us`. The unit is "expected microseconds to
//! serve one request through this edge", so path costs add meaningfully.
//! Nothing observed at run time (trace spans, latencies) enters the cost,
//! so turning tracing on cannot change a route.
//!
//! ## Route epoch
//!
//! An edge's class changes only at a handful of events: a translator,
//! WIR translator or bridge entering (or a reset emptying) its in-memory
//! cache, a store file written or collected, or a different store
//! attached. Each of them bumps one process-wide counter, the route
//! epoch ([`bump_route_epoch`]). A [`Router`] builds its [`VersionGraph`] at
//! most once per epoch and memoizes every plan made over it, so a request
//! whose plan is memoized costs one hash lookup: no edge classification,
//! no store probe. A failed synthesis does not bump: its edge stays cold.
//!
//! A store entry written by *another process* is not an event this
//! process sees. It enters the graph at the next epoch; acquiring that
//! edge before then still loads it from the store, so only the route
//! choice lags.
//!
//! ## Fallback ladder
//!
//! 1. cheapest path over the graph (direct edges compete on cost like any
//!    other path);
//! 2. if acquiring any hop of a composed path fails and both endpoints
//!    are Siro versions, fall back to direct synthesis of the full pair;
//! 3. if direct synthesis also fails — or the endpoints span dialects,
//!    where no direct synthesis exists — the error propagates.
//!
//! Composed chains are memoized per process (the router's composed cache)
//! and never persisted: a new process recomposes a chain from its hops,
//! whose translators persist in their own store entries.
//!
//! ## Corpora
//!
//! A router neither builds nor keeps a corpus. A graph build reads each
//! Siro edge's fingerprint from [`crate::corpus`]'s table, and a hop
//! resolver gets only the pair: the default one looks the pair up with
//! [`TranslatorCache::lookup_pair`], which builds the corpus only if the
//! pair must be synthesized.
//!
//! ## Locks
//!
//! The plan memo and the composed-chain memo each change by whole
//! entries: a graph is built before it replaces the memo, and a chain's
//! hops are resolved before it is inserted. A thread that panics while
//! holding either lock therefore leaves it consistent, and later callers
//! recover the guard instead of panicking in turn.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use siro_ir::{Dialect, DialectVersion, IrVersion, Module};
use siro_wir::{AnyModule, WirVersion};

use crate::bridge::{
    bridge_cached, bridge_is_hot, bridge_store_name, is_anchor_pair, BridgeOutcome,
};
use crate::cache::{CacheLookup, TranslatorCache};
use crate::corpus::pair_fingerprint;
use crate::driver::{SynthError, SynthesisConfig, SynthesisOutcome};
use crate::persist::fnv1a64;
use crate::pertest::OracleTest;
use crate::store::{active_store, StoreKey, TranslatorStore};
use crate::wir::{wir_pair_is_hot, wir_store_name, wir_translator_cached, WirOutcome};

/// Cost (µs) of an edge whose translator is in the in-memory cache.
pub const COST_HOT_US: u64 = 10;
/// Cost (µs) of an edge whose translator is persisted in the store.
pub const COST_WARM_US: u64 = 2_000;
/// Cost (µs) of an edge whose translator must be synthesized.
pub const COST_COLD_US: u64 = 50_000;

/// Extracts the WIR-family version, if `v` names one.
fn as_wir(v: DialectVersion) -> Option<WirVersion> {
    matches!(v.dialect, Dialect::Wir).then(|| WirVersion::new(v.major, v.minor))
}

/// How an edge's translator would be acquired right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// In the in-memory cache for its kind.
    Hot,
    /// Persisted in the attached [`TranslatorStore`].
    Warm,
    /// Must be synthesized (or, for a bridge, validated).
    Cold,
}

impl EdgeClass {
    /// The edge cost of this class (µs).
    pub fn cost_us(self) -> u64 {
        match self {
            EdgeClass::Hot => COST_HOT_US,
            EdgeClass::Warm => COST_WARM_US,
            EdgeClass::Cold => COST_COLD_US,
        }
    }
}

impl std::fmt::Display for EdgeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EdgeClass::Hot => "hot",
            EdgeClass::Warm => "warm",
            EdgeClass::Cold => "cold",
        })
    }
}

/// One edge of the version graph, with its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Source node of the hop.
    pub from: DialectVersion,
    /// Target node of the hop.
    pub to: DialectVersion,
    /// Acquisition class at snapshot time.
    pub class: EdgeClass,
    /// Edge cost: the class cost for graphs the router builds; synthetic
    /// landscapes ([`VersionGraph::from_edges`]) may set any cost.
    pub cost_us: u64,
}

/// A snapshot of the version graph: every node of the catalog (or a
/// custom node set) and every synthesizable edge with its current cost.
#[derive(Debug, Clone)]
pub struct VersionGraph {
    nodes: Vec<DialectVersion>,
    edges: HashMap<(DialectVersion, DialectVersion), EdgeInfo>,
}

impl VersionGraph {
    /// Builds a graph from an explicit edge set. [`Router::graph`] builds
    /// the live snapshot; this constructor exists for planners and tests
    /// that need a synthetic cost landscape (e.g. difftest fuzzing path
    /// selection over randomized warm/cold mixes).
    pub fn from_edges<N: Into<DialectVersion>>(nodes: Vec<N>, edges: Vec<EdgeInfo>) -> Self {
        VersionGraph {
            nodes: nodes.into_iter().map(Into::into).collect(),
            edges: edges.into_iter().map(|e| ((e.from, e.to), e)).collect(),
        }
    }

    /// The node set.
    pub fn nodes(&self) -> &[DialectVersion] {
        &self.nodes
    }

    /// The edge `from -> to`, if it exists in this snapshot.
    pub fn edge(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<&EdgeInfo> {
        self.edges.get(&(from.into(), to.into()))
    }

    /// Number of edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Cheapest path `from -> to` by summed edge cost (Dijkstra; ties
    /// broken toward fewer hops, then lower node order, so plans are
    /// deterministic). `from == to` yields an empty-hop plan. When both
    /// endpoints are Siro versions, only edges into Siro nodes are
    /// relaxed: the plan is the one the graph's Siro nodes alone give.
    pub fn cheapest_path(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<RoutePlan> {
        let (from, to) = (from.into(), to.into());
        if !self.nodes.contains(&from) || !self.nodes.contains(&to) {
            return None;
        }
        if from == to {
            return Some(RoutePlan {
                from,
                to,
                hops: Vec::new(),
                cost_us: 0,
            });
        }
        let siro_only = from.dialect == Dialect::Siro && to.dialect == Dialect::Siro;
        // dist: node -> (cost, hops); prev: node -> predecessor.
        let mut dist: HashMap<DialectVersion, (u64, usize)> = HashMap::new();
        let mut prev: HashMap<DialectVersion, DialectVersion> = HashMap::new();
        let mut done: Vec<DialectVersion> = Vec::new();
        dist.insert(from, (0, 0));
        loop {
            let (&node, &(cost, hops)) = dist
                .iter()
                .filter(|(v, _)| !done.contains(v))
                .min_by_key(|(v, &(c, h))| (c, h, **v))?;
            if node == to {
                let mut hops_rev = Vec::new();
                let mut cur = to;
                while cur != from {
                    let p = prev[&cur];
                    hops_rev.push(self.edges[&(p, cur)]);
                    cur = p;
                }
                hops_rev.reverse();
                return Some(RoutePlan {
                    from,
                    to,
                    hops: hops_rev,
                    cost_us: cost,
                });
            }
            done.push(node);
            for (&(a, b), e) in &self.edges {
                if a != node || (siro_only && b.dialect != Dialect::Siro) {
                    continue;
                }
                let next = (cost + e.cost_us, hops + 1);
                let better = match dist.get(&b) {
                    None => true,
                    Some(&(c, h)) => next < (c, h),
                };
                if better {
                    dist.insert(b, next);
                    prev.insert(b, node);
                }
            }
        }
    }
}

/// The route chosen for one `(from, to)` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// Requested source node.
    pub from: DialectVersion,
    /// Requested target node.
    pub to: DialectVersion,
    /// The hops, in order; empty for `from == to`, one entry for a
    /// direct route.
    pub hops: Vec<EdgeInfo>,
    /// Summed edge cost.
    pub cost_us: u64,
}

impl RoutePlan {
    /// Number of hops (0 = identity, 1 = direct, 2+ = composed).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Whether this plan needs no composition.
    pub fn is_direct(&self) -> bool {
        self.hops.len() <= 1
    }

    /// One-line rendering, e.g. `13.0 -> 12.0 -> 3.6 (2 hops, cost 2010us)`.
    pub fn describe(&self) -> String {
        let mut path = self.from.to_string();
        for hop in &self.hops {
            path.push_str(&format!(" -> {}", hop.to));
        }
        format!(
            "{path} ({} hop{}, cost {}us)",
            self.hop_count(),
            if self.hop_count() == 1 { "" } else { "s" },
            self.cost_us
        )
    }
}

/// The translator carried by one leg of a composed chain.
#[derive(Debug, Clone)]
pub enum HopKind {
    /// A synthesized Siro pairwise translator.
    Siro(Arc<SynthesisOutcome>),
    /// A synthesized WIR translator.
    Wir(Arc<WirOutcome>),
    /// A validated bridge, applied Siro → WIR (lowering).
    Lower(Arc<BridgeOutcome>),
    /// A validated bridge, applied WIR → Siro (raising).
    Raise(Arc<BridgeOutcome>),
}

/// One leg of a composed translator.
#[derive(Debug, Clone)]
pub struct ComposedHop {
    /// Hop source node.
    pub from: DialectVersion,
    /// Hop target node.
    pub to: DialectVersion,
    /// The hop's translator.
    pub kind: HopKind,
    /// The hop's store entry file name (its persistent identity:
    /// `.sirt` for Siro hops, `.sirw` for WIR hops, `.sirb` for bridges).
    pub entry_file: String,
}

impl ComposedHop {
    /// The Siro synthesis outcome, when this is a Siro hop.
    pub fn siro_outcome(&self) -> Option<&Arc<SynthesisOutcome>> {
        match &self.kind {
            HopKind::Siro(o) => Some(o),
            _ => None,
        }
    }
}

fn hop_dialect_error(hop: &ComposedHop, got: &AnyModule) -> siro_core::TranslateError {
    siro_core::TranslateError::Api(siro_api::ApiError::Unsupported(format!(
        "chain hop {} -> {} fed a {} module",
        hop.from,
        hop.to,
        got.dialect_version()
    )))
}

fn hop_error(hop: &ComposedHop, e: impl std::fmt::Display) -> siro_core::TranslateError {
    siro_core::TranslateError::Api(siro_api::ApiError::Unsupported(format!(
        "chain hop {} -> {}: {e}",
        hop.from, hop.to
    )))
}

/// A chain of pairwise translators serving one `(from, to)` pair by
/// module-level composition: the module is translated hop by hop, each
/// hop running its full translation into its own target version. Hops may
/// cross dialects (through bridge legs), so the unit of composition is an
/// [`AnyModule`].
#[derive(Debug, Clone)]
pub struct ComposedTranslator {
    /// Composed source node.
    pub from: DialectVersion,
    /// Composed target node.
    pub to: DialectVersion,
    /// The legs, in application order.
    pub hops: Vec<ComposedHop>,
    /// The plan this chain was built from.
    pub plan: RoutePlan,
}

impl ComposedTranslator {
    /// Number of legs.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Translates a whole module through every hop in order. The input
    /// dialect must match `from`.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's failure as a
    /// [`siro_core::TranslateError`].
    pub fn translate_any_owned(&self, module: AnyModule) -> siro_core::TranslateResult<AnyModule> {
        let mut current = module;
        for hop in &self.hops {
            let sp = siro_trace::span!("route.hop", "{}->{}", hop.from, hop.to);
            let next = match (&hop.kind, current) {
                (HopKind::Siro(outcome), AnyModule::Siro(m)) => {
                    let to = hop.to.as_siro().expect("siro hop targets a siro version");
                    AnyModule::Siro(crate::compile::translate_module_owned_tiered(
                        outcome, to, m,
                    )?)
                }
                (HopKind::Wir(outcome), AnyModule::Wir(w)) => AnyModule::Wir(
                    outcome
                        .translator
                        .translate_module(&w)
                        .map_err(|e| hop_error(hop, e))?,
                ),
                (HopKind::Lower(bridge), AnyModule::Siro(m)) => AnyModule::Wir(
                    crate::bridge::lower_module(&m, bridge.wir).map_err(|e| hop_error(hop, e))?,
                ),
                (HopKind::Raise(bridge), AnyModule::Wir(w)) => AnyModule::Siro(
                    crate::bridge::raise_module(&w, bridge.siro).map_err(|e| hop_error(hop, e))?,
                ),
                (_, got) => return Err(hop_dialect_error(hop, &got)),
            };
            drop(sp);
            current = next;
        }
        Ok(current)
    }

    /// Translates a whole Siro module through every hop in order.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's [`siro_core::TranslateError`]; a chain
    /// ending at a WIR node reports a dialect mismatch.
    pub fn translate_module(&self, module: &Module) -> siro_core::TranslateResult<Module> {
        self.translate_module_owned(module.clone())
    }

    /// [`ComposedTranslator::translate_module`] for an *owned* module:
    /// every hop consumes the previous hop's output through the tiered
    /// path ([`crate::translate_module_owned_tiered`]), so a fully
    /// compiled chain rewrites one module in place hop after hop — no
    /// per-hop target module, no intermediate clones.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's [`siro_core::TranslateError`].
    pub fn translate_module_owned(&self, module: Module) -> siro_core::TranslateResult<Module> {
        match self.translate_any_owned(AnyModule::Siro(module))? {
            AnyModule::Siro(m) => Ok(m),
            AnyModule::Wir(_) => Err(siro_core::TranslateError::Api(
                siro_api::ApiError::Unsupported(format!(
                    "chain {} -> {} ends at a WIR node; use translate_any_owned",
                    self.from, self.to
                )),
            )),
        }
    }

    /// The chain's persist key (see [`chain_persist_key`]).
    pub fn persist_key(&self) -> String {
        chain_persist_key(
            self.from,
            self.to,
            self.hops.iter().map(|h| h.entry_file.as_str()),
        )
    }

    /// A plaintext manifest of the chain: endpoints, plan cost, and one
    /// `hop` line per leg naming the hop's store entry (see
    /// [`TranslatorStore::save_chain`]).
    pub fn manifest(&self) -> String {
        let mut out = format!(
            "SIRC 1\nfrom {}\nto {}\ncost {}\n",
            self.from, self.to, self.plan.cost_us
        );
        for hop in &self.hops {
            out.push_str(&format!("hop {} {} {}\n", hop.from, hop.to, hop.entry_file));
        }
        out
    }
}

/// How [`Router::acquire`] answered a request.
#[derive(Debug, Clone)]
pub enum RouteOutcome {
    /// A single pairwise translator (direct Siro route).
    Direct(Arc<SynthesisOutcome>),
    /// A composed chain (including every WIR or cross-dialect route).
    Composed(Arc<ComposedTranslator>),
}

/// A resolved `(from, to)` acquisition.
#[derive(Debug, Clone)]
pub struct Acquired {
    /// The translator to run.
    pub outcome: RouteOutcome,
    /// The plan that produced it (the *attempted* plan; when the fallback
    /// ladder demoted a composed plan to direct synthesis,
    /// [`Acquired::fell_back`] is set and the outcome is direct).
    pub plan: RoutePlan,
    /// `true` when any synthesis ran during this call.
    pub fresh: bool,
    /// `true` when a composed hop failed and direct synthesis answered.
    pub fell_back: bool,
}

/// A hop resolver: returns the translator outcome for one Siro pair plus
/// whether this call synthesized it. It gets the pair alone; a resolver
/// that must synthesize builds the pair's corpus itself
/// ([`TranslatorCache::lookup_pair`]). The serving layer passes a
/// coalescer-backed resolver; the default resolver goes straight to
/// [`TranslatorCache`]. WIR and bridge hops resolve through their own
/// process caches and are not routed through this hook.
pub type HopResolver<'a> = &'a dyn Fn(IrVersion, IrVersion) -> HopResult;

/// What a [`HopResolver`] returns: the outcome, and whether this call
/// synthesized it.
pub type HopResult = Result<(Arc<SynthesisOutcome>, bool), SynthError>;

// ---- process-wide router counters (read by serve STATS/METRICS) ---------

static PLANS: AtomicU64 = AtomicU64::new(0);
static DIRECT: AtomicU64 = AtomicU64::new(0);
static COMPOSED: AtomicU64 = AtomicU64::new(0);
static COMPOSED_CACHED: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static MAX_HOPS: AtomicU64 = AtomicU64::new(0);
static GRAPH_BUILDS: AtomicU64 = AtomicU64::new(0);
static STORE_PROBES: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Route plans requested (memoized or computed).
    pub plans: u64,
    /// Acquisitions answered by a direct (≤1 hop) route.
    pub direct: u64,
    /// Acquisitions answered by a composed chain (freshly built or
    /// cached).
    pub composed: u64,
    /// Composed acquisitions answered from the composed cache.
    pub composed_cached: u64,
    /// Composed plans demoted to direct synthesis by a failing hop.
    pub fallbacks: u64,
    /// Longest hop count acquired so far.
    pub max_hops: u64,
    /// Version graphs built (at most one per router per route epoch).
    pub graph_builds: u64,
    /// Store files stat-ed while classifying edges during graph builds.
    pub store_probes: u64,
}

/// Snapshot of the router counters.
pub fn router_stats() -> RouterStats {
    RouterStats {
        plans: PLANS.load(Ordering::Relaxed),
        direct: DIRECT.load(Ordering::Relaxed),
        composed: COMPOSED.load(Ordering::Relaxed),
        composed_cached: COMPOSED_CACHED.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        max_hops: MAX_HOPS.load(Ordering::Relaxed),
        graph_builds: GRAPH_BUILDS.load(Ordering::Relaxed),
        store_probes: STORE_PROBES.load(Ordering::Relaxed),
    }
}

/// Zeroes the router counters (benches and tests).
pub fn reset_router_stats() {
    for c in [
        &PLANS,
        &DIRECT,
        &COMPOSED,
        &COMPOSED_CACHED,
        &FALLBACKS,
        &MAX_HOPS,
        &GRAPH_BUILDS,
        &STORE_PROBES,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

fn note_max_hops(hops: u64) {
    MAX_HOPS.fetch_max(hops, Ordering::Relaxed);
}

/// Whether a store file exists, counted as one store probe.
fn store_has(path: &Path) -> bool {
    STORE_PROBES.fetch_add(1, Ordering::Relaxed);
    path.exists()
}

// ---- route epoch ----------------------------------------------------------

/// Bumped (`AcqRel`) *after* each class-changing state change; loaded
/// (`Acquire`) *before* a graph build reads that state. A build that loads
/// a bumped value therefore sees the change, and one that loads an older
/// value is tagged with it and rebuilt at the next plan.
static ROUTE_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The current route epoch: how many events that can change an edge's
/// class this process has seen (see the module docs).
fn route_epoch() -> u64 {
    ROUTE_EPOCH.load(Ordering::Acquire)
}

/// Starts a new route epoch, so every router rebuilds its graph at its
/// next plan. The caches, the store and [`crate::set_active_store`] call
/// this *after* their state changed; call it directly only for a change
/// this process cannot see, such as store entries written by another
/// process.
pub fn bump_route_epoch() {
    ROUTE_EPOCH.fetch_add(1, Ordering::AcqRel);
}

/// One router's memo: the graph of one route epoch and every plan made
/// over it. Both are tagged by `epoch`, read before the graph was built,
/// so a bump that races the build leaves the memo stale, not wrong.
#[derive(Default)]
struct RouteMemo {
    epoch: u64,
    graph: Option<Arc<VersionGraph>>,
    plans: HashMap<(DialectVersion, DialectVersion), Option<RoutePlan>>,
}

impl RouteMemo {
    /// The graph, when it was built in `epoch`.
    fn graph_at(&self, epoch: u64) -> Option<&Arc<VersionGraph>> {
        self.graph.as_ref().filter(|_| self.epoch == epoch)
    }
}

/// The version-graph router. One instance per engine / CLI invocation;
/// the counters it bumps are process-global so `STATS` can report them.
pub struct Router {
    nodes: Vec<DialectVersion>,
    memo: RwLock<RouteMemo>,
    composed: Mutex<ChainMemo>,
}

/// The composed chains a router has built, by endpoints.
type ChainMemo = HashMap<(DialectVersion, DialectVersion), Arc<ComposedTranslator>>;

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// The router over both catalogs: every Siro version
    /// ([`IrVersion::CATALOG`]), every WIR version ([`WirVersion::CATALOG`]),
    /// and the anchor bridges between them.
    pub fn new() -> Self {
        let mut nodes: Vec<DialectVersion> = IrVersion::CATALOG.iter().map(|&v| v.into()).collect();
        nodes.extend(WirVersion::CATALOG.iter().map(|&v| DialectVersion::from(v)));
        Self::over_dialects(nodes)
    }

    /// A router over a custom Siro node set (tests, partial deployments).
    pub fn over(nodes: Vec<IrVersion>) -> Self {
        Self::over_dialects(nodes.into_iter().map(Into::into).collect())
    }

    /// A router over an explicit dialect-qualified node set.
    pub fn over_dialects(nodes: Vec<DialectVersion>) -> Self {
        Router {
            nodes,
            memo: RwLock::new(RouteMemo::default()),
            composed: Mutex::new(HashMap::new()),
        }
    }

    fn memo(&self) -> RwLockReadGuard<'_, RouteMemo> {
        self.memo.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn memo_mut(&self) -> RwLockWriteGuard<'_, RouteMemo> {
        self.memo.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn chains(&self) -> MutexGuard<'_, ChainMemo> {
        self.composed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Classifies one potential edge, or `None` when the pair has no edge
    /// (a non-anchor cross-dialect pair). A Siro edge is classified by its
    /// corpus fingerprint alone ([`pair_fingerprint`]), so a graph build
    /// keeps no corpus.
    fn classify_edge(
        &self,
        a: DialectVersion,
        b: DialectVersion,
        store: Option<&TranslatorStore>,
    ) -> Option<EdgeClass> {
        match (a.dialect, b.dialect) {
            (Dialect::Siro, Dialect::Siro) => {
                let (sa, sb) = (a.as_siro()?, b.as_siro()?);
                let fp = pair_fingerprint(sa, sb);
                let config = SynthesisConfig::new(sa, sb);
                Some(if TranslatorCache::is_warm_fingerprint(&config, fp) {
                    EdgeClass::Hot
                } else if store
                    .is_some_and(|s| store_has(&s.entry_path(&StoreKey::new(&config, fp))))
                {
                    EdgeClass::Warm
                } else {
                    EdgeClass::Cold
                })
            }
            (Dialect::Wir, Dialect::Wir) => {
                let (wa, wb) = (as_wir(a)?, as_wir(b)?);
                Some(if wir_pair_is_hot(wa, wb) {
                    EdgeClass::Hot
                } else if store.is_some_and(|s| store_has(&s.named_path(&wir_store_name(wa, wb)))) {
                    EdgeClass::Warm
                } else {
                    EdgeClass::Cold
                })
            }
            (Dialect::Siro, Dialect::Wir) => anchor_class(a.as_siro()?, as_wir(b)?, store),
            (Dialect::Wir, Dialect::Siro) => anchor_class(b.as_siro()?, as_wir(a)?, store),
        }
    }

    /// Classifies every edge against the in-memory caches and the attached
    /// store.
    fn build_graph(&self) -> VersionGraph {
        GRAPH_BUILDS.fetch_add(1, Ordering::Relaxed);
        let store = active_store();
        let mut edges = HashMap::new();
        for &a in &self.nodes {
            for &b in &self.nodes {
                if a == b {
                    continue;
                }
                let Some(class) = self.classify_edge(a, b, store.as_deref()) else {
                    continue;
                };
                edges.insert(
                    (a, b),
                    EdgeInfo {
                        from: a,
                        to: b,
                        class,
                        cost_us: class.cost_us(),
                    },
                );
            }
        }
        VersionGraph {
            nodes: self.nodes.clone(),
            edges,
        }
    }

    /// The current route epoch and its graph, built on the first call of
    /// the epoch.
    fn snapshot(&self) -> (u64, Arc<VersionGraph>) {
        let epoch = route_epoch();
        if let Some(graph) = self.memo().graph_at(epoch) {
            return (epoch, Arc::clone(graph));
        }
        let mut memo = self.memo_mut();
        // Another thread may have built the graph while this one waited.
        let epoch = route_epoch();
        if let Some(graph) = memo.graph_at(epoch) {
            return (epoch, Arc::clone(graph));
        }
        let graph = Arc::new(self.build_graph());
        *memo = RouteMemo {
            epoch,
            graph: Some(Arc::clone(&graph)),
            plans: HashMap::new(),
        };
        (epoch, graph)
    }

    /// The version graph of the current route epoch: every edge
    /// classified against the in-memory caches and the attached store.
    /// Built at most once per epoch; later calls share the snapshot.
    pub fn graph(&self) -> Arc<VersionGraph> {
        self.snapshot().1
    }

    /// Plans the cheapest route for `(from, to)`, memoized per route
    /// epoch. `None` when either endpoint is off this router's node set
    /// or no path exists (including cross-dialect requests with no anchor
    /// bridge).
    pub fn plan(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<RoutePlan> {
        let (from, to) = (from.into(), to.into());
        PLANS.fetch_add(1, Ordering::Relaxed);
        // Off-node endpoints are answered without the memo, so requests
        // naming arbitrary versions cannot grow it.
        if !self.nodes.contains(&from) || !self.nodes.contains(&to) {
            return None;
        }
        let _sp = siro_trace::span!("route.plan", "{from}->{to}");
        let epoch = route_epoch();
        {
            let memo = self.memo();
            if memo.epoch == epoch {
                if let Some(plan) = memo.plans.get(&(from, to)) {
                    return plan.clone();
                }
            }
        }
        let (epoch, graph) = self.snapshot();
        let plan = graph.cheapest_path(from, to);
        let mut memo = self.memo_mut();
        if memo.epoch == epoch {
            memo.plans.insert((from, to), plan.clone());
        }
        plan
    }

    /// Plans every ordered pair over one graph snapshot, row-major in
    /// node order (identity pairs included, as 0-hop plans). Pairs with
    /// no path are reported as `None` at their matrix position.
    pub fn matrix(&self) -> Vec<((DialectVersion, DialectVersion), Option<RoutePlan>)> {
        let graph = self.graph();
        let mut out = Vec::with_capacity(self.nodes.len() * self.nodes.len());
        for &a in &self.nodes {
            for &b in &self.nodes {
                out.push(((a, b), graph.cheapest_path(a, b)));
            }
        }
        out
    }

    /// Acquires a translator for `(from, to)` along the cheapest route,
    /// with the default [`TranslatorCache`]-backed hop resolver.
    ///
    /// # Errors
    ///
    /// [`SynthError`] when no route exists (for Siro pairs, reported as
    /// the direct pair's synthesis error; for cross-dialect pairs, as an
    /// explicit unreachable report) or when the fallback ladder failed.
    pub fn acquire(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Result<Acquired, SynthError> {
        self.acquire_via(from, to, &|a, b| {
            TranslatorCache::lookup_pair(SynthesisConfig::new(a, b))
                .map(|CacheLookup { outcome, fresh, .. }| (outcome, fresh))
        })
    }

    /// [`Router::acquire_via`] for a resolver of the older three-argument
    /// shape, whose third argument was the pair's corpus. Hops no longer
    /// carry a corpus, so that argument is always empty. The benchmark's
    /// replay (`perfbench/src/traced.rs`) still passes such a resolver.
    ///
    /// # Errors
    ///
    /// See [`Router::acquire`].
    pub fn acquire_with(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
        resolve: &dyn Fn(IrVersion, IrVersion, &[OracleTest]) -> HopResult,
    ) -> Result<Acquired, SynthError> {
        self.acquire_via(from, to, &|a, b| resolve(a, b, &[]))
    }

    /// [`Router::acquire`] with a caller-supplied Siro hop resolver (the
    /// serving layer passes its coalescer so per-pair serving counters
    /// keep working).
    ///
    /// # Errors
    ///
    /// See [`Router::acquire`].
    pub fn acquire_via(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
        resolve: HopResolver<'_>,
    ) -> Result<Acquired, SynthError> {
        let (from, to) = (from.into(), to.into());
        let all_siro_endpoints = from.dialect == Dialect::Siro && to.dialect == Dialect::Siro;
        let plan = match self.plan(from, to) {
            Some(plan) => plan,
            // Off-graph or unreachable. For Siro pairs, attempt the direct
            // pair anyway and let its synthesis error speak — the
            // historical behaviour. Anything cross-dialect has no direct
            // synthesis to attempt: report unreachable instead of
            // fabricating a chain.
            None if all_siro_endpoints => RoutePlan {
                from,
                to,
                hops: Vec::new(),
                cost_us: COST_COLD_US,
            },
            None => {
                return Err(SynthError::Api(format!(
                    "no route {from} -> {to}: the endpoints span dialects with no \
                     validated bridge on any path"
                )))
            }
        };
        note_max_hops(plan.hop_count() as u64);

        // A plan between Siro endpoints has only Siro hops (see
        // `VersionGraph::cheapest_path`).
        if plan.is_direct() && all_siro_endpoints {
            let (sf, st) = (
                from.as_siro().expect("checked siro"),
                to.as_siro().expect("checked siro"),
            );
            let (outcome, fresh) = resolve(sf, st)?;
            DIRECT.fetch_add(1, Ordering::Relaxed);
            return Ok(Acquired {
                outcome: RouteOutcome::Direct(outcome),
                plan,
                fresh,
                fell_back: false,
            });
        }

        // Composed route: serve from the composed cache when possible, and
        // report the plan the cached chain was built from — the route that
        // actually serves, even if the cheapest route has since changed.
        if let Some(chain) = self.chains().get(&(from, to)) {
            COMPOSED.fetch_add(1, Ordering::Relaxed);
            COMPOSED_CACHED.fetch_add(1, Ordering::Relaxed);
            return Ok(Acquired {
                outcome: RouteOutcome::Composed(Arc::clone(chain)),
                plan: chain.plan.clone(),
                fresh: false,
                fell_back: false,
            });
        }

        match self.compose(&plan, resolve) {
            Ok((chain, fresh)) => {
                COMPOSED.fetch_add(1, Ordering::Relaxed);
                Ok(Acquired {
                    outcome: RouteOutcome::Composed(chain),
                    plan,
                    fresh,
                    fell_back: false,
                })
            }
            Err(e) if all_siro_endpoints => {
                // Fallback ladder step 2: a hop died; synthesize the Siro
                // pair directly.
                let _ = e;
                FALLBACKS.fetch_add(1, Ordering::Relaxed);
                let (sf, st) = (
                    from.as_siro().expect("checked siro"),
                    to.as_siro().expect("checked siro"),
                );
                let (outcome, fresh) = resolve(sf, st)?;
                DIRECT.fetch_add(1, Ordering::Relaxed);
                Ok(Acquired {
                    outcome: RouteOutcome::Direct(outcome),
                    plan,
                    fresh,
                    fell_back: true,
                })
            }
            // Cross-dialect hop failures have no direct fallback.
            Err(e) => Err(e),
        }
    }

    /// Resolves one plan edge into a composed hop.
    fn resolve_hop(
        &self,
        edge: &EdgeInfo,
        resolve: HopResolver<'_>,
    ) -> Result<(ComposedHop, bool), SynthError> {
        let hop = match (edge.from.dialect, edge.to.dialect) {
            (Dialect::Siro, Dialect::Siro) => {
                let (a, b) = (
                    edge.from.as_siro().expect("siro edge"),
                    edge.to.as_siro().expect("siro edge"),
                );
                let (outcome, fresh) = resolve(a, b)?;
                let key = StoreKey::new(&SynthesisConfig::new(a, b), pair_fingerprint(a, b));
                (
                    ComposedHop {
                        from: edge.from,
                        to: edge.to,
                        kind: HopKind::Siro(outcome),
                        entry_file: key.file_name(),
                    },
                    fresh,
                )
            }
            (Dialect::Wir, Dialect::Wir) => {
                let (a, b) = (
                    as_wir(edge.from).expect("wir edge"),
                    as_wir(edge.to).expect("wir edge"),
                );
                let (outcome, fresh) =
                    wir_translator_cached(a, b).map_err(|e| SynthError::Api(e.to_string()))?;
                (
                    ComposedHop {
                        from: edge.from,
                        to: edge.to,
                        kind: HopKind::Wir(outcome),
                        entry_file: wir_store_name(a, b),
                    },
                    fresh,
                )
            }
            (Dialect::Siro, Dialect::Wir) => {
                let (s, w) = (
                    edge.from.as_siro().expect("siro edge"),
                    as_wir(edge.to).expect("wir edge"),
                );
                let (outcome, fresh) =
                    bridge_cached(s, w).map_err(|e| SynthError::Api(e.to_string()))?;
                (
                    ComposedHop {
                        from: edge.from,
                        to: edge.to,
                        kind: HopKind::Lower(outcome),
                        entry_file: bridge_store_name(s, w),
                    },
                    fresh,
                )
            }
            (Dialect::Wir, Dialect::Siro) => {
                let (w, s) = (
                    as_wir(edge.from).expect("wir edge"),
                    edge.to.as_siro().expect("siro edge"),
                );
                let (outcome, fresh) =
                    bridge_cached(s, w).map_err(|e| SynthError::Api(e.to_string()))?;
                (
                    ComposedHop {
                        from: edge.from,
                        to: edge.to,
                        kind: HopKind::Raise(outcome),
                        entry_file: bridge_store_name(s, w),
                    },
                    fresh,
                )
            }
        };
        Ok(hop)
    }

    /// Builds (and memoizes) the composed chain for a plan.
    fn compose(
        &self,
        plan: &RoutePlan,
        resolve: HopResolver<'_>,
    ) -> Result<(Arc<ComposedTranslator>, bool), SynthError> {
        let mut hops = Vec::with_capacity(plan.hops.len());
        let mut fresh = false;
        for edge in &plan.hops {
            let (hop, hop_fresh) = self.resolve_hop(edge, resolve)?;
            fresh |= hop_fresh;
            hops.push(hop);
        }
        let chain = Arc::new(ComposedTranslator {
            from: plan.from,
            to: plan.to,
            hops,
            plan: plan.clone(),
        });
        self.chains()
            .insert((plan.from, plan.to), Arc::clone(&chain));
        Ok((chain, fresh))
    }

    /// Composes a translator along an explicit Siro node path, the caller
    /// choosing the route instead of the cost model — the byte-identity
    /// matrix checks and difftest's path-selection fuzzing exercise
    /// router alternates this way. Hops resolve through the process-wide
    /// [`TranslatorCache`]; the chain is returned without entering the
    /// router's composed-chain memo, so cost-driven serving is
    /// unaffected. Hop edges are rendered hot: once resolved, the chain
    /// holds every hop in memory.
    ///
    /// # Errors
    ///
    /// Propagates the first failing hop's [`SynthError`].
    ///
    /// # Panics
    ///
    /// When `path` has fewer than two nodes.
    pub fn compose_path(&self, path: &[IrVersion]) -> Result<ComposedTranslator, SynthError> {
        assert!(path.len() >= 2, "a route needs at least two nodes");
        let mut hops = Vec::with_capacity(path.len() - 1);
        let mut edges = Vec::with_capacity(path.len() - 1);
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let config = SynthesisConfig::new(a, b);
            let entry_file = StoreKey::new(&config, pair_fingerprint(a, b)).file_name();
            let lookup = TranslatorCache::lookup_pair(config)?;
            hops.push(ComposedHop {
                from: a.into(),
                to: b.into(),
                kind: HopKind::Siro(lookup.outcome),
                entry_file,
            });
            edges.push(EdgeInfo {
                from: a.into(),
                to: b.into(),
                class: EdgeClass::Hot,
                cost_us: COST_HOT_US,
            });
        }
        let plan = RoutePlan {
            from: path[0].into(),
            to: (*path.last().expect("non-empty path")).into(),
            cost_us: edges.iter().map(|e| e.cost_us).sum(),
            hops: edges,
        };
        Ok(ComposedTranslator {
            from: plan.from,
            to: plan.to,
            hops,
            plan,
        })
    }

    /// Number of chains currently memoized in the composed cache.
    pub fn composed_cached_count(&self) -> usize {
        self.chains().len()
    }
}

/// Edge class for a cross-dialect anchor, or `None` when `(s, w)` is not
/// an anchor pair — the non-edge that makes unbridged cross-dialect
/// requests unreachable.
fn anchor_class(s: IrVersion, w: WirVersion, store: Option<&TranslatorStore>) -> Option<EdgeClass> {
    if !is_anchor_pair(s, w) {
        return None;
    }
    Some(if bridge_is_hot(s, w) {
        EdgeClass::Hot
    } else if store.is_some_and(|st| store_has(&st.named_path(&bridge_store_name(s, w)))) {
        EdgeClass::Warm
    } else {
        EdgeClass::Cold
    })
}

/// The persist key of a composed chain, e.g. `c13.0-t3.6-9e3779b97f4a7c15`
/// or `c13.0-twir1.0-…` for a cross-dialect chain: the pair plus an FNV-1a
/// hash over the ordered hop entry file names, so a different path (or
/// different hop knobs) gets a different key. Siro endpoints render
/// exactly as they did before dialects existed, so pre-dialect keys are
/// unchanged byte for byte.
pub fn chain_persist_key<'a>(
    from: impl Into<DialectVersion>,
    to: impl Into<DialectVersion>,
    entry_files: impl Iterator<Item = &'a str>,
) -> String {
    let (from, to) = (from.into(), to.into());
    let mut bytes = Vec::new();
    for file in entry_files {
        bytes.extend_from_slice(file.as_bytes());
        bytes.push(0);
    }
    format!("c{from}-t{to}-{:016x}", fnv1a64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_core::Skeleton;

    // NOTE: router counters are process-global and tests run concurrently,
    // so assertions use per-call results (plans, Acquired flags) and
    // counter *deltas* only where a unique pair guarantees isolation.

    fn small_router() -> Router {
        Router::over(vec![IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6])
    }

    #[test]
    fn cold_graph_plans_direct_routes() {
        let r = small_router();
        let plan = r.plan(IrVersion::V13_0, IrVersion::V3_6).expect("plan");
        assert_eq!(plan.hop_count(), 1, "{}", plan.describe());
        assert!(plan.is_direct());
    }

    #[test]
    fn identity_plans_zero_hops() {
        let r = small_router();
        let plan = r.plan(IrVersion::V13_0, IrVersion::V13_0).expect("plan");
        assert_eq!(plan.hop_count(), 0);
        assert_eq!(plan.cost_us, 0);
    }

    #[test]
    fn off_catalog_endpoint_has_no_plan() {
        let r = small_router();
        assert!(r.plan(IrVersion::new(2, 0), IrVersion::V3_6).is_none());
    }

    #[test]
    fn warm_hops_beat_a_cold_direct_edge() {
        // Hand-build a graph where 13.0->3.6 direct is cold but the two
        // hops through 12.0 are hot: the cheapest path must compose.
        let mk = |from: IrVersion, to: IrVersion, class, cost_us| EdgeInfo {
            from: from.into(),
            to: to.into(),
            class,
            cost_us,
        };
        let (a, m, b) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
        let g = VersionGraph::from_edges(
            vec![a, m, b],
            vec![
                mk(a, b, EdgeClass::Cold, COST_COLD_US),
                mk(a, m, EdgeClass::Hot, COST_HOT_US),
                mk(m, b, EdgeClass::Hot, COST_HOT_US),
            ],
        );
        let plan = g.cheapest_path(a, b).expect("path");
        assert_eq!(plan.hop_count(), 2, "{}", plan.describe());
        assert_eq!(plan.hops[0].to, m.into());
        assert_eq!(plan.cost_us, 2 * COST_HOT_US);
    }

    #[test]
    fn ties_prefer_fewer_hops() {
        let mk = |from: IrVersion, to: IrVersion, cost_us| EdgeInfo {
            from: from.into(),
            to: to.into(),
            class: EdgeClass::Hot,
            cost_us,
        };
        let (a, m, b) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
        let g = VersionGraph::from_edges(
            vec![a, m, b],
            vec![mk(a, b, 20), mk(a, m, 10), mk(m, b, 10)],
        );
        let plan = g.cheapest_path(a, b).expect("path");
        assert_eq!(plan.hop_count(), 1, "equal cost must stay direct");
    }

    #[test]
    fn fallback_demotes_a_failing_composed_plan_to_direct() {
        // Warm the two hop edges so the plan composes, then hand acquire a
        // resolver that refuses the second hop: the fallback ladder must
        // answer with direct synthesis and set `fell_back`.
        let (a, m, b) = (IrVersion::V14_0, IrVersion::V12_0, IrVersion::V3_0);
        let r = Router::over(vec![a, m, b]);
        for (s, t) in [(a, m), (m, b)] {
            TranslatorCache::lookup_pair(SynthesisConfig::new(s, t)).expect("hop synthesis");
        }
        let plan = r.plan(a, b).expect("plan");
        assert_eq!(plan.hop_count(), 2, "{}", plan.describe());
        let acquired = r
            .acquire_via(a, b, &|s, t| {
                if (s, t) == (m, b) {
                    return Err(SynthError::Api("injected hop failure".into()));
                }
                TranslatorCache::lookup_pair(SynthesisConfig::new(s, t))
                    .map(|l| (l.outcome, l.fresh))
            })
            .expect("fallback must answer");
        assert!(acquired.fell_back);
        assert!(matches!(acquired.outcome, RouteOutcome::Direct(_)));
    }

    #[test]
    fn composed_chain_is_memoized_and_byte_identical_to_direct() {
        let (a, m, b) = (IrVersion::V15_0, IrVersion::V13_0, IrVersion::V4_0);
        let r = Router::over(vec![a, m, b]);
        for (s, t) in [(a, m), (m, b)] {
            TranslatorCache::lookup_pair(SynthesisConfig::new(s, t)).expect("hop synthesis");
        }
        let first = r.acquire(a, b).expect("acquire");
        let RouteOutcome::Composed(chain) = &first.outcome else {
            panic!("warm hops must compose, got {:?}", first.plan.describe());
        };
        assert_eq!(chain.hop_count(), 2);
        assert_eq!(r.composed_cached_count(), 1);
        let second = r.acquire(a, b).expect("acquire again");
        let RouteOutcome::Composed(chain2) = &second.outcome else {
            panic!("second acquire must stay composed");
        };
        assert!(Arc::ptr_eq(chain, chain2), "chain must be memoized");
        assert!(!second.fresh);

        // Composed output equals the direct translator's output.
        let direct = TranslatorCache::lookup_pair(SynthesisConfig::new(a, b))
            .expect("direct synthesis")
            .outcome;
        for case in siro_testcases::corpus_for_pair(a, b).iter().take(8) {
            let module = case.build(a);
            let via_chain = chain.translate_module(&module).expect("chain translate");
            let via_direct = Skeleton::new(b)
                .translate_module(&module, &direct.translator)
                .expect("direct translate");
            assert_eq!(
                siro_ir::write::write_module(&via_chain),
                siro_ir::write::write_module(&via_direct),
                "case {}",
                case.name
            );
        }
    }

    #[test]
    fn poisoned_memo_and_chain_locks_still_plan_and_acquire() {
        // No other test synthesizes 11.0 -> 9.0, so its edge stays cold.
        let (a, m, b) = (IrVersion::V11_0, IrVersion::V10_0, IrVersion::V9_0);
        let r = Router::over(vec![a, m, b]);
        for (s, t) in [(a, m), (m, b)] {
            TranslatorCache::lookup_pair(SynthesisConfig::new(s, t)).expect("hop synthesis");
        }
        std::thread::scope(|scope| {
            let memo = scope.spawn(|| {
                let _memo = r.memo_mut();
                panic!("poisoning the plan memo");
            });
            let chains = scope.spawn(|| {
                let _chains = r.chains();
                panic!("poisoning the chain memo");
            });
            assert!(memo.join().is_err() && chains.join().is_err());
        });
        assert!(r.memo.is_poisoned() && r.composed.is_poisoned());
        let plan = r.plan(a, b).expect("plan");
        assert_eq!(plan.hop_count(), 2, "{}", plan.describe());
        let acquired = r.acquire(a, b).expect("acquire");
        assert!(matches!(acquired.outcome, RouteOutcome::Composed(_)));
        assert_eq!(r.composed_cached_count(), 1);
        assert!(r.acquire(a, b).is_ok(), "the memoized chain serves");
    }

    #[test]
    fn persist_key_distinguishes_paths() {
        let (from, to) = (IrVersion::V13_0, IrVersion::V3_6);
        let via_12 = ["s13.0-t12.0-0.sirt", "s12.0-t3.6-0.sirt"];
        let via_4 = ["s13.0-t4.0-0.sirt", "s4.0-t3.6-0.sirt"];
        let k12 = chain_persist_key(from, to, via_12.into_iter());
        let k4 = chain_persist_key(from, to, via_4.into_iter());
        assert_ne!(k12, k4, "different paths must get different keys");
        assert!(k12.starts_with("c13.0-t3.6-"));
    }

    // ---- dialect-aware routing ------------------------------------------

    #[test]
    fn nodes_are_keyed_by_dialect_and_version() {
        let g = Router::new().graph();
        let wir1: DialectVersion = WirVersion::W1_0.into();
        let wir2: DialectVersion = WirVersion::W2_0.into();
        // WIR pairs always have an edge; anchors bridge the dialects; a
        // non-anchor cross pair has no edge at all.
        assert!(g.edge(wir1, wir2).is_some(), "wir catalog pair");
        assert!(
            g.edge(IrVersion::V13_0, wir2).is_some(),
            "anchor bridge edge"
        );
        assert!(
            g.edge(IrVersion::V13_0, wir1).is_none(),
            "non-anchor cross pair must not get an edge"
        );
    }

    #[test]
    fn cross_dialect_plans_route_through_an_anchor() {
        let r = Router::new();
        let plan = r
            .plan(IrVersion::V13_0, WirVersion::W1_0)
            .expect("route exists via the 13.0<->wir2.0 anchor");
        assert!(plan.hop_count() >= 2, "{}", plan.describe());
        assert!(
            plan.hops.iter().any(|h| h.from.dialect != h.to.dialect),
            "the plan must contain a bridge hop: {}",
            plan.describe()
        );
    }

    #[test]
    fn missing_bridge_reports_unreachable_not_a_bogus_chain() {
        // A node set with both dialects but no anchor pair present: the
        // cross-dialect request must be *unreachable*, and acquisition
        // must surface that as an error instead of fabricating a chain.
        let r = Router::over_dialects(vec![
            IrVersion::V3_6.into(),
            IrVersion::V4_0.into(),
            WirVersion::W1_0.into(),
        ]);
        assert!(r.plan(IrVersion::V3_6, WirVersion::W1_0).is_none());
        let err = r
            .acquire(IrVersion::V3_6, WirVersion::W1_0)
            .expect_err("must not fabricate a chain");
        assert!(
            err.to_string().contains("no route"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn wir_pairs_acquire_composed_chains_that_translate() {
        let r = Router::new();
        let acquired = r
            .acquire(WirVersion::W1_0, WirVersion::W2_0)
            .expect("wir pair acquires");
        let RouteOutcome::Composed(chain) = &acquired.outcome else {
            panic!("wir routes are served as composed chains");
        };
        assert_eq!(chain.hop_count(), 1);
        let m = siro_wir::generate_straightline(7, WirVersion::W1_0);
        let out = chain
            .translate_any_owned(AnyModule::Wir(m.clone()))
            .expect("translates");
        let AnyModule::Wir(w) = out else {
            panic!("wir chain must end at a wir module");
        };
        assert_eq!(w.version, WirVersion::W2_0);
        // Behaviour preserved across the synthesized hop.
        assert_eq!(
            crate::bridge::wir_behaviour(&m),
            crate::bridge::wir_behaviour(&w)
        );
    }

    #[test]
    fn siro_chains_refuse_a_wir_module() {
        let r = Router::new();
        let acquired = r
            .acquire(WirVersion::W1_0, WirVersion::W2_0)
            .expect("wir pair acquires");
        let RouteOutcome::Composed(chain) = &acquired.outcome else {
            panic!("composed expected");
        };
        // Feeding the wrong dialect through the typed entry point fails
        // loudly instead of mis-translating.
        let m = Module::new("m", IrVersion::V13_0);
        assert!(chain.translate_module(&m).is_err());
    }
}
