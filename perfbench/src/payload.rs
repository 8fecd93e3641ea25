//! The three workloads: which requests they send, how the store they
//! run on is prepared, and the independent reference every response is
//! checked against. See `perfbench/NOTES.md` for why each exists.
//!
//! Payloads are drawn by a fixed rule, never by whether they pass. The
//! failure census below names the requests that fail on the program as it
//! stands; the rule leaves exactly those out of the timed traffic, so no
//! timed request is expected to fail, and each run sends them once,
//! untimed, as the census probe, which reports whether each still fails.

use siro_core::{ReferenceTranslator, Skeleton};
use siro_ir::interp::Machine;
use siro_ir::{parse, verify, write, DialectVersion, IrVersion};
use siro_synth::{raise_module, siro_behaviour, wir_behaviour, XBehaviour, BRIDGE_ANCHORS};
use siro_wir::WirVersion;
use siro_workloads::{compile_project, table4_projects, Frontend};

use siro_rng::rngs::StdRng;
use siro_rng::seq::SliceRandom;
use siro_rng::RngCore;

use crate::util::rng;

/// Corpus cases drawn per Siro pair in `anypair_small`.
pub const CASES_PER_PAIR: usize = 2;
/// Payloads per WIR→WIR or cross-dialect pair in `anypair_small`.
pub const CASES_PER_WIR_PAIR: usize = 2;
/// The Tab. 4 direction's source versions, all translated into 3.6.
pub const TAB4_SOURCES: [IrVersion; 3] = [IrVersion::V12_0, IrVersion::V13_0, IrVersion::V17_0];
/// The hot pair of `cold_sweep`, the only translator its store holds.
pub const HOT_PAIR: (IrVersion, IrVersion) = (IrVersion::V13_0, IrVersion::V3_6);
/// Distinct payloads of `cold_sweep`'s hot caller.
pub const HOT_CASES: usize = 8;

/// Census: Siro corpus cases that fail on some route the workloads
/// build. `ptr_roundtrip` (output fails verification) and `call_indirect`
/// (API type mismatch) from 15.0/17.0 down to 3.0–5.0 on adjacent-hop
/// routes; `addrspacecast_rt` (output fails verification) from 15.0 down
/// on some composed routes; the Windows exception-handling cases wherever
/// a route passes through a version without `catchswitch` / `cleanuppad`.
pub const CENSUS_CASES: [&str; 6] = [
    "ptr_roundtrip",
    "call_indirect",
    "addrspacecast_rt",
    "eh_catch_path",
    "eh_cleanup_path",
    "eh_full",
];
/// Census: cross-dialect pairs whose route runs wir3.0→wir2.0 and then
/// the wir2.0→13.0 bridge, which answers "bridge: unsupported control".
pub const CENSUS_CROSS: [(&str, &str); 2] = [("wir3.0", "13.0"), ("wir3.0", "15.0")];
/// Census: Tab. 4 projects that fail from every source version. The
/// writer emits `@http-parser_fn_0` unquoted and the parser stops at `-`.
pub const CENSUS_TAB4: [&str; 2] = ["http-parser", "pkg-config"];
/// Census: Tab. 4 projects whose 17.0→3.6 output fails verification
/// (`ret` returned value type differs).
pub const CENSUS_TAB4_FROM_17: [&str; 3] = ["libcapstone", "libssh", "tmux"];

/// Whether a Siro corpus case is in the census.
pub fn census_case(name: &str) -> bool {
    CENSUS_CASES.contains(&name)
}

/// Whether a cross-dialect pair is in the census.
fn census_cross(a: DialectVersion, b: DialectVersion) -> bool {
    CENSUS_CROSS
        .iter()
        .any(|&(x, y)| a.to_string() == x && b.to_string() == y)
}

/// Whether a Tab. 4 project from `source` is in the census.
fn census_tab4(source: IrVersion, project: &str) -> bool {
    CENSUS_TAB4.contains(&project)
        || (source == IrVersion::V17_0 && CENSUS_TAB4_FROM_17.contains(&project))
}

/// A workload name accepted by `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small corpus modules over every Siro pair plus a WIR share.
    AnypairSmall,
    /// The eight Tab. 4 project modules into 3.6.
    Tab4Large,
    /// A cold walk of every pair beside a hot caller.
    ColdSweep,
}

impl Kind {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "anypair_small" => Some(Kind::AnypairSmall),
            "tab4_large" => Some(Kind::Tab4Large),
            "cold_sweep" => Some(Kind::ColdSweep),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AnypairSmall => "anypair_small",
            Kind::Tab4Large => "tab4_large",
            Kind::ColdSweep => "cold_sweep",
        }
    }
}

/// What a response must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// A Siro corpus case: the translated module's `main`, run by the
    /// `siro-ir` interpreter, returns this oracle.
    Oracle(i64),
    /// A Tab. 4 module: the exact bytes the hand-written
    /// `ReferenceTranslator` produces.
    Bytes(String),
    /// A WIR or cross-dialect request: the output's behaviour bucket
    /// equals the input's.
    Bucket(XBehaviour),
}

/// One distinct request.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Source endpoint.
    pub source: DialectVersion,
    /// Target endpoint.
    pub target: DialectVersion,
    /// Module text sent on the wire.
    pub text: String,
    /// The independent reference for the response.
    pub reference: Reference,
    /// `pair case` label for the failure census.
    pub label: String,
}

impl Payload {
    /// Whether either endpoint is a WIR version.
    pub fn is_wir(&self) -> bool {
        self.source.as_siro().is_none() || self.target.as_siro().is_none()
    }

    /// The Siro pair, when both endpoints are Siro versions.
    pub fn siro_pair(&self) -> Option<(IrVersion, IrVersion)> {
        Some((self.source.as_siro()?, self.target.as_siro()?))
    }
}

/// Checks one response text against its payload's reference.
///
/// # Errors
///
/// A one-line reason when the response does not satisfy the reference.
pub fn check(payload: &Payload, text: &str) -> Result<(), String> {
    match &payload.reference {
        Reference::Bytes(expected) => {
            if text == expected {
                Ok(())
            } else {
                Err("bytes differ from the reference translator".into())
            }
        }
        Reference::Oracle(oracle) => {
            let module = parse::parse_module(text).map_err(|e| format!("reparse: {e}"))?;
            if DialectVersion::from(module.version) != payload.target {
                return Err(format!("output declares {}", module.version));
            }
            verify::verify_module(&module).map_err(|e| format!("verify: {e}"))?;
            let got = Machine::new(&module)
                .run_main()
                .map_err(|e| format!("interpreter: {e}"))?
                .return_int();
            if got == Some(*oracle) {
                Ok(())
            } else {
                Err(format!("main returned {got:?}, oracle {oracle}"))
            }
        }
        Reference::Bucket(expected) => {
            let module = siro_wir::AnyModule::parse(text).map_err(|e| format!("reparse: {e}"))?;
            if module.dialect_version() != payload.target {
                return Err(format!("output declares {}", module.dialect_version()));
            }
            let got = match &module {
                siro_wir::AnyModule::Siro(m) => siro_behaviour(m),
                siro_wir::AnyModule::Wir(w) => wir_behaviour(w),
            };
            if &got == expected {
                Ok(())
            } else {
                Err(format!("behaviour {got:?}, input {expected:?}"))
            }
        }
    }
}

/// Every ordered pair of distinct Siro catalog versions (156).
pub fn siro_pairs() -> Vec<(IrVersion, IrVersion)> {
    let cat = IrVersion::CATALOG;
    cat.iter()
        .flat_map(|&a| cat.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect()
}

/// Every ordered pair of distinct WIR catalog versions (6).
pub fn wir_pairs() -> Vec<(WirVersion, WirVersion)> {
    let cat = WirVersion::CATALOG;
    cat.iter()
        .flat_map(|&a| cat.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect()
}

/// The cross-dialect pairs: each bridge anchor with every WIR version,
/// in both directions (12).
pub fn cross_pairs() -> Vec<(DialectVersion, DialectVersion)> {
    let mut out = Vec::new();
    for (s, _) in BRIDGE_ANCHORS {
        for w in WirVersion::CATALOG {
            out.push((s.into(), w.into()));
            out.push((w.into(), s.into()));
        }
    }
    out
}

fn corpus_payload(a: IrVersion, b: IrVersion, c: &siro_testcases::TestCase) -> Payload {
    Payload {
        source: a.into(),
        target: b.into(),
        text: write::write_module(&c.build(a)),
        reference: Reference::Oracle(c.oracle),
        label: format!("{a}->{b} {}", c.name),
    }
}

/// Seeded draw of `n` distinct corpus cases of a Siro pair, from the
/// cases outside the census (all of them when fewer remain).
fn corpus_payloads(a: IrVersion, b: IrVersion, n: usize, rng: &mut StdRng) -> Vec<Payload> {
    let mut cases = siro_testcases::corpus_for_pair(a, b);
    cases.retain(|c| !census_case(c.name));
    cases.shuffle(rng);
    cases
        .iter()
        .take(n)
        .map(|c| corpus_payload(a, b, c))
        .collect()
}

/// Every census case in a Siro pair's corpus.
fn census_payloads(a: IrVersion, b: IrVersion) -> Vec<Payload> {
    siro_testcases::corpus_for_pair(a, b)
        .iter()
        .filter(|c| census_case(c.name))
        .map(|c| corpus_payload(a, b, c))
        .collect()
}

/// Seeded WIR payloads for a WIR→WIR pair: draws from the source
/// version's WIR corpus.
fn wir_payloads(a: WirVersion, b: WirVersion, n: usize, rng: &mut StdRng) -> Vec<Payload> {
    let mut cases: Vec<(usize, siro_wir::WirModule)> = siro_wir::corpus::cases_at(a)
        .into_iter()
        .enumerate()
        .collect();
    cases.shuffle(rng);
    cases
        .into_iter()
        .take(n)
        .map(|(i, m)| Payload {
            source: a.into(),
            target: b.into(),
            text: siro_wir::write_module(&m),
            reference: Reference::Bucket(wir_behaviour(&m)),
            label: format!("{a}->{b} wir-corpus#{i}"),
        })
        .collect()
}

/// Seeded payloads for a cross-dialect pair: straight-line WIR modules
/// (the bridges' documented input class), raised into the Siro anchor
/// when the source is a Siro version.
fn cross_payloads(
    a: DialectVersion,
    b: DialectVersion,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Payload> {
    (0..n)
        .map(|_| {
            let gen_seed = rng.next_u64() % 1_000_000;
            let (text, reference) = match (a.as_siro(), b.as_siro()) {
                (Some(s), None) => {
                    let w = WirVersion::new(b.major, b.minor);
                    let wir = siro_wir::generate_straightline(gen_seed, w);
                    let m = raise_module(&wir, s).expect("straight-line WIR raises");
                    (
                        write::write_module(&m),
                        Reference::Bucket(siro_behaviour(&m)),
                    )
                }
                _ => {
                    let w = WirVersion::new(a.major, a.minor);
                    let wir = siro_wir::generate_straightline(gen_seed, w);
                    (
                        siro_wir::write_module(&wir),
                        Reference::Bucket(wir_behaviour(&wir)),
                    )
                }
            };
            Payload {
                source: a,
                target: b,
                text,
                reference,
                label: format!("{a}->{b} straightline#{gen_seed}"),
            }
        })
        .collect()
}

/// The eight Tab. 4 modules (high frontend) for each source version,
/// into 3.6, with the hand-written reference translator's bytes: those
/// outside the census, or (`census`) those in it.
fn tab4_payloads(census: bool) -> Vec<Payload> {
    let mut out = Vec::new();
    for source in TAB4_SOURCES {
        for spec in table4_projects() {
            if census_tab4(source, spec.name) != census {
                continue;
            }
            let module = compile_project(&spec, Frontend::High, source);
            let expected = Skeleton::new(IrVersion::V3_6)
                .translate_module(&module, &ReferenceTranslator)
                .expect("the reference translator handles every Tab. 4 module");
            out.push(Payload {
                source: source.into(),
                target: IrVersion::V3_6.into(),
                text: write::write_module(&module),
                reference: Reference::Bytes(write::write_module(&expected)),
                label: format!("{source}->3.6 {}", spec.name),
            });
        }
    }
    out
}

/// What a store must hold before the timed daemons boot on it.
#[derive(Debug, Clone, Default)]
pub struct StorePlan {
    /// Siro translators, synthesized in this order.
    pub siro: Vec<(IrVersion, IrVersion)>,
    /// WIR translators.
    pub wir: Vec<(WirVersion, WirVersion)>,
    /// Validated bridges.
    pub bridges: Vec<(IrVersion, WirVersion)>,
}

/// One workload, fully generated from its seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Distinct payloads of the hot stream (every caller draws from
    /// these; `cold_sweep`: the hot caller's 13.0→3.6 payloads).
    pub hot: Vec<Payload>,
    /// Cold sweeps, each a list of payloads walked once in order by one
    /// caller on a store that lacks their translators.
    pub sweeps: Vec<Vec<Payload>>,
    /// The prepared store the hot daemons boot on.
    pub store: StorePlan,
    /// The census probe: the requests the census leaves out of the timed
    /// traffic, sent once per run on the prepared store.
    pub census: Vec<Payload>,
}

/// The adjacent-version Siro pairs, both directions, in catalog order
/// (24) — the deployment the `anypair_small` store models.
pub fn adjacent_pairs() -> Vec<(IrVersion, IrVersion)> {
    IrVersion::CATALOG
        .windows(2)
        .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
        .collect()
}

/// Number of cold-sweep rounds generated for `cold_sweep`; a run walks
/// as many as fit in its time budget.
pub const COLD_ROUNDS: usize = 32;

/// Builds a workload's payloads and store plan from the seed.
pub fn build(kind: Kind, seed: u64) -> Workload {
    match kind {
        Kind::AnypairSmall => {
            let mut rng = rng(seed, 1);
            let mut hot = Vec::new();
            let mut census = Vec::new();
            for (a, b) in siro_pairs() {
                hot.extend(corpus_payloads(a, b, CASES_PER_PAIR, &mut rng));
                census.extend(census_payloads(a, b));
            }
            for (a, b) in wir_pairs() {
                hot.extend(wir_payloads(a, b, CASES_PER_WIR_PAIR, &mut rng));
            }
            for (a, b) in cross_pairs() {
                let payloads = cross_payloads(a, b, CASES_PER_WIR_PAIR, &mut rng);
                if census_cross(a, b) {
                    census.extend(payloads);
                } else {
                    hot.extend(payloads);
                }
            }
            // The cold sweep walks every pair of the mix once, in
            // catalog order, with the pair's first payload.
            let mut sweep: Vec<Payload> = Vec::new();
            for p in &hot {
                if !sweep
                    .iter()
                    .any(|q| q.source == p.source && q.target == p.target)
                {
                    sweep.push(p.clone());
                }
            }
            Workload {
                kind,
                hot,
                sweeps: vec![sweep],
                store: StorePlan {
                    siro: adjacent_pairs(),
                    wir: wir_pairs(),
                    bridges: BRIDGE_ANCHORS.to_vec(),
                },
                census,
            }
        }
        Kind::Tab4Large => {
            let hot = tab4_payloads(false);
            // One payload per pair, the project order fixed.
            let sweep: Vec<Payload> = TAB4_SOURCES
                .iter()
                .map(|&s| {
                    hot.iter()
                        .find(|p| p.source == s.into())
                        .expect("every Tab. 4 source has payloads")
                        .clone()
                })
                .collect();
            Workload {
                kind,
                hot,
                sweeps: vec![sweep],
                store: StorePlan {
                    siro: TAB4_SOURCES.iter().map(|&s| (s, IrVersion::V3_6)).collect(),
                    ..StorePlan::default()
                },
                census: tab4_payloads(true),
            }
        }
        Kind::ColdSweep => {
            let mut rng = rng(seed, 3);
            let hot = corpus_payloads(HOT_PAIR.0, HOT_PAIR.1, HOT_CASES, &mut rng);
            let pairs = siro_pairs();
            let sweeps = (0..COLD_ROUNDS)
                .map(|_| {
                    let mut order = pairs.clone();
                    order.shuffle(&mut rng);
                    order
                        .into_iter()
                        .map(|(a, b)| {
                            corpus_payloads(a, b, 1, &mut rng)
                                .pop()
                                .expect("every catalog pair has corpus cases")
                        })
                        .collect()
                })
                .collect();
            Workload {
                kind,
                hot,
                sweeps,
                store: StorePlan {
                    siro: vec![HOT_PAIR],
                    ..StorePlan::default()
                },
                // Its corpus-case census is probed by `anypair_small`:
                // probing it here would synthesize most of the catalog.
                census: Vec::new(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_sets_have_the_catalog_sizes() {
        assert_eq!(siro_pairs().len(), 156);
        assert_eq!(wir_pairs().len(), 6);
        assert_eq!(cross_pairs().len(), 12);
        assert_eq!(adjacent_pairs().len(), 24);
    }

    #[test]
    fn the_same_seed_builds_the_same_requests() {
        let a = build(Kind::AnypairSmall, 11);
        let b = build(Kind::AnypairSmall, 11);
        let c = build(Kind::AnypairSmall, 12);
        let texts = |w: &Workload| w.hot.iter().map(|p| p.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        // Two cross-dialect pairs are census entries.
        assert_eq!(a.hot.len(), 156 * CASES_PER_PAIR + 16 * CASES_PER_WIR_PAIR);
        assert_eq!(a.sweeps[0].len(), 156 + 16);
    }

    #[test]
    fn the_census_rule_splits_timed_traffic_from_the_probe() {
        let census_label = |p: &Payload| {
            let case = p.label.rsplit(' ').next().unwrap_or_default();
            census_case(case) || census_cross(p.source, p.target)
        };
        for kind in [Kind::AnypairSmall, Kind::ColdSweep] {
            let w = build(kind, 9);
            assert!(!w.hot.iter().any(census_label), "{kind:?}");
            assert!(!w.sweeps.iter().flatten().any(census_label), "{kind:?}");
            assert!(w.census.iter().all(census_label), "{kind:?}");
        }
        assert!(!build(Kind::AnypairSmall, 9).census.is_empty());
        // Tab. 4: 6 projects from 12.0 and 13.0, 3 from 17.0; 9 probed.
        let t = build(Kind::Tab4Large, 9);
        assert_eq!((t.hot.len(), t.census.len()), (15, 9));
        assert!(t.census.iter().any(|p| p.label == "17.0->3.6 tmux"));
        assert!(t.hot.iter().any(|p| p.label == "12.0->3.6 tmux"));
    }

    #[test]
    fn references_accept_the_reference_and_reject_a_wrong_answer() {
        let w = build(Kind::AnypairSmall, 5);
        let p = &w.hot[0];
        let Reference::Oracle(_) = p.reference else {
            panic!("first payload is a corpus case");
        };
        // The reference translator is an independent correct answer.
        let module = parse::parse_module(&p.text).expect("payload parses");
        let target = p.target.as_siro().expect("siro target");
        let out = Skeleton::new(target)
            .translate_module(&module, &ReferenceTranslator)
            .expect("reference translation");
        assert_eq!(check(p, &write::write_module(&out)), Ok(()));
        // The untranslated input declares the wrong version.
        assert!(check(p, &p.text).is_err());
        assert!(check(p, "garbage").is_err());
    }
}
