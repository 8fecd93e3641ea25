//! The cross-dialect interpreter-differential oracle.
//!
//! Within a dialect the difftest compares exact behaviours; across the
//! SIRO↔WIR bridge exactness is the wrong contract, because the dialects
//! *genuinely* disagree in two places (wrapping vs trapping `sdiv MIN/-1`,
//! low-bit vs non-zero `select` truthiness) and the bridge's whole job is
//! to normalize those divergences into a shared bucket. The oracle
//! therefore compares [`XBehaviour`] buckets: a WIR module, its raised
//! Siro image, and the round-trip lowered image must all land in the same
//! bucket, over a corpus of generated straight-line modules diversified by
//! the raisable [`crate::wir_mutate`] mutators.
//!
//! Any bucket mismatch is a [`FailureFamily::CrossDialect`] failure. A
//! confirmed failure is persisted as a [`CrossArtifact`] — a valid WIR
//! module with `;; difftest-*:` metadata, the `.sirw` sibling of the Siro
//! `.sir` regression artifacts — and replayed by
//! `tests/cross_replay.rs` in the default lane.

use std::path::{Path, PathBuf};

use siro_ir::IrVersion;
use siro_rng::{SeedableRng, StdRng};
use siro_synth::persist::fnv1a64;
use siro_synth::{
    lower_module, raise_module, siro_behaviour, wir_behaviour, BridgeError, XBehaviour,
    BRIDGE_ANCHORS,
};
use siro_wir::{generate_straightline, parse_module, write_module, WirModule, WirVersion};

use crate::artifact::one_line;
use crate::oracle::FailureFamily;
use crate::wir_mutate::raisable_wir_mutators;

/// Schema tag stamped into every cross-dialect artifact.
pub const CROSS_ARTIFACT_SCHEMA: &str = "siro-difftest/cross-regression-v1";

/// Default fuzzed-module count: the acceptance bar is ≥ 500 per anchor.
pub const CROSS_DEFAULT_MODULES: usize = 500;

/// Configuration for one cross-dialect differential run over an anchor.
#[derive(Debug, Clone, Copy)]
pub struct CrossConfig {
    /// The Siro side of the anchor.
    pub siro: IrVersion,
    /// The WIR side of the anchor.
    pub wir: WirVersion,
    /// RNG / generator seed base.
    pub seed: u64,
    /// How many fuzzed modules to push through the oracle.
    pub modules: usize,
}

impl CrossConfig {
    /// The default configuration for an anchor pair.
    pub fn new(siro: IrVersion, wir: WirVersion) -> Self {
        CrossConfig {
            siro,
            wir,
            seed: 42,
            modules: CROSS_DEFAULT_MODULES,
        }
    }
}

/// One confirmed cross-dialect oracle violation.
#[derive(Debug, Clone)]
pub struct CrossFailure {
    /// Which leg diverged: `raise` (WIR→SIRO) or `lower` (SIRO→WIR
    /// round trip).
    pub direction: &'static str,
    /// Always [`FailureFamily::CrossDialect`].
    pub family: FailureFamily,
    /// The mutator that produced the failing input (`seed` for an
    /// unmutated generator output).
    pub mutator: &'static str,
    /// Behaviour evidence (`got` vs `want` buckets).
    pub detail: String,
    /// The WIR-side failing module.
    pub module: WirModule,
}

/// The outcome of one cross-dialect differential run.
#[derive(Debug, Clone, Default)]
pub struct CrossReport {
    /// Modules pushed through the oracle (each checks both directions).
    pub modules_checked: usize,
    /// How many landed in the arithmetic-trap bucket — the normalized
    /// divergence class; a corpus that never reaches it proves nothing.
    pub arith_cases: usize,
    /// Inputs skipped (fuel exhaustion or bridge-subset partiality).
    pub skips: usize,
    /// Confirmed bucket mismatches.
    pub failures: Vec<CrossFailure>,
}

/// Runs the interpreter-differential oracle over `cfg.modules` fuzzed
/// straight-line WIR modules: each module's bucket must survive the raise
/// to Siro and the lowering back (both bridge directions are exercised on
/// every input).
///
/// # Errors
///
/// [`BridgeError::NotAnAnchor`] when the pair has no bridge; per-module
/// raise/lower partiality is counted as a skip, not an error.
pub fn run_cross(cfg: &CrossConfig) -> Result<CrossReport, BridgeError> {
    if !siro_synth::is_anchor_pair(cfg.siro, cfg.wir) {
        return Err(BridgeError::NotAnAnchor(cfg.siro, cfg.wir));
    }
    let mutators = raisable_wir_mutators(cfg.wir);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc805_5d1f);
    let mut report = CrossReport::default();

    for i in 0..cfg.modules {
        let seed = cfg.seed.wrapping_add(i as u64);
        let base = generate_straightline(seed, cfg.wir);
        // Every other input is diversified by a raisable mutator, rotated
        // round-robin so each gets airtime within one sweep.
        let (w, mutator) = if i % 2 == 1 && !mutators.is_empty() {
            let mu = mutators[(i / 2) % mutators.len()];
            match mu.apply(&base, &mut rng) {
                Some(m) => (m, mu.name()),
                None => (base, "seed"),
            }
        } else {
            (base, "seed")
        };

        let want = wir_behaviour(&w);
        if want == XBehaviour::Fuel {
            report.skips += 1;
            continue;
        }
        if want == XBehaviour::Arith {
            report.arith_cases += 1;
        }

        // Raise leg: WIR → SIRO.
        let s = match raise_module(&w, cfg.siro) {
            Ok(s) => s,
            Err(BridgeError::Unsupported(_)) => {
                report.skips += 1;
                continue;
            }
            Err(e) => {
                report.failures.push(CrossFailure {
                    direction: "raise",
                    family: FailureFamily::CrossDialect,
                    mutator,
                    detail: format!("raise {} -> {}: {e}", cfg.wir, cfg.siro),
                    module: w,
                });
                continue;
            }
        };
        let got = siro_behaviour(&s);
        if got != want {
            report.failures.push(CrossFailure {
                direction: "raise",
                family: FailureFamily::CrossDialect,
                mutator,
                detail: format!("wir {want}, raised siro {got}"),
                module: w,
            });
            continue;
        }

        // Lower leg: the Siro image back down — the SIRO→WIR direction
        // over a fuzzed Siro source.
        match lower_module(&s, cfg.wir) {
            Ok(w2) => {
                let got = wir_behaviour(&w2);
                if got != want {
                    report.failures.push(CrossFailure {
                        direction: "lower",
                        family: FailureFamily::CrossDialect,
                        mutator,
                        detail: format!("wir {want}, round-trip lowered {got}"),
                        module: w,
                    });
                    continue;
                }
            }
            Err(BridgeError::Unsupported(_)) => report.skips += 1,
            Err(e) => {
                report.failures.push(CrossFailure {
                    direction: "lower",
                    family: FailureFamily::CrossDialect,
                    mutator,
                    detail: format!("lower {} -> {}: {e}", cfg.siro, cfg.wir),
                    module: w,
                });
                continue;
            }
        }
        report.modules_checked += 1;
    }
    Ok(report)
}

/// One bridge anchor paired with the [`CrossReport`] its run produced.
pub type AnchorReport = ((IrVersion, WirVersion), CrossReport);

/// Runs [`run_cross`] over every [`BRIDGE_ANCHORS`] entry with default
/// settings, returning `(anchor, report)` pairs.
///
/// # Errors
///
/// Propagates the first anchor's [`BridgeError`] (anchors are validated
/// pairs, so this only fires if the anchor list itself regresses).
pub fn run_all_anchors(modules: usize) -> Result<Vec<AnchorReport>, BridgeError> {
    let mut out = Vec::new();
    for (siro, wir) in BRIDGE_ANCHORS {
        let mut cfg = CrossConfig::new(siro, wir);
        cfg.modules = modules;
        let report = run_cross(&cfg)?;
        out.push(((siro, wir), report));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Cross-dialect regression artifacts (.sirw)
// ---------------------------------------------------------------------------

/// A persisted cross-dialect regression: the WIR-side module of a recorded
/// divergence, plus the reproduction metadata, in a file
/// [`siro_wir::parse_module`] accepts unchanged.
#[derive(Debug, Clone)]
pub struct CrossArtifact {
    /// The Siro side of the anchor.
    pub siro: IrVersion,
    /// The WIR side of the anchor (also the module's version).
    pub wir: WirVersion,
    /// The leg that diverged (`raise` / `lower`).
    pub direction: String,
    /// Failure family (always cross-dialect for artifacts from this
    /// oracle).
    pub family: FailureFamily,
    /// The mutator that produced the failing input.
    pub mutator: String,
    /// Evidence string.
    pub detail: String,
    /// The WIR-side module.
    pub module: WirModule,
}

impl CrossArtifact {
    /// Renders the artifact to its on-disk text: canonical WIR followed by
    /// `;; difftest-*:` comment metadata the WIR parser skips.
    pub fn render(&self) -> String {
        let mut out = write_module(&self.module);
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&format!(";; difftest-schema: {CROSS_ARTIFACT_SCHEMA}\n"));
        out.push_str(&format!(
            ";; difftest-anchor: {} <-> wir{}\n",
            self.siro, self.wir
        ));
        out.push_str(&format!(
            ";; difftest-direction: {}\n",
            one_line(&self.direction)
        ));
        out.push_str(&format!(";; difftest-family: {}\n", self.family.name()));
        out.push_str(&format!(
            ";; difftest-mutator: {}\n",
            one_line(&self.mutator)
        ));
        out.push_str(&format!(";; difftest-detail: {}\n", one_line(&self.detail)));
        out
    }

    /// The content-derived file name, e.g.
    /// `13.0-w2.0-raise-cross-dialect-1a2b3c4d.sirw`.
    pub fn file_name(&self) -> String {
        format!(
            "{}-w{}-{}-{}-{:08x}.sirw",
            self.siro,
            self.wir,
            one_line(&self.direction),
            self.family.name(),
            fnv1a64(write_module(&self.module).as_bytes()) as u32
        )
    }

    /// Writes the artifact under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Parses an artifact back from its on-disk text.
    pub fn parse(text: &str) -> Option<Self> {
        let meta = |key: &str| -> Option<String> {
            text.lines().find_map(|l| {
                l.strip_prefix(";; difftest-")
                    .and_then(|r| r.strip_prefix(key))
                    .and_then(|r| r.strip_prefix(':'))
                    .map(|v| v.trim().to_string())
            })
        };
        if meta("schema")? != CROSS_ARTIFACT_SCHEMA {
            return None;
        }
        let anchor = meta("anchor")?;
        let (siro, wir) = anchor.split_once("<->")?;
        let parse_pair = |s: &str| -> Option<(u16, u16)> {
            let (maj, min) = s.trim().split_once('.')?;
            Some((maj.parse().ok()?, min.parse().ok()?))
        };
        let (smaj, smin) = parse_pair(siro)?;
        let (wmaj, wmin) = parse_pair(wir.trim().strip_prefix("wir")?)?;
        let module = parse_module(text).ok()?;
        Some(CrossArtifact {
            siro: IrVersion::new(smaj, smin),
            wir: WirVersion::new(wmaj, wmin),
            direction: meta("direction")?,
            family: FailureFamily::parse(&meta("family")?)?,
            mutator: meta("mutator")?,
            detail: meta("detail")?,
            module,
        })
    }

    /// Loads every `.sirw` artifact under `dir`, sorted by file name.
    /// A missing directory is an empty set, not an error.
    pub fn load_dir(dir: &Path) -> Vec<(PathBuf, CrossArtifact)> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "sirw"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .filter_map(|p| {
                let text = std::fs::read_to_string(&p).ok()?;
                CrossArtifact::parse(&text).map(|a| (p, a))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_wir::{WBin, WTy, WirFunc, WirInst};

    /// The canonical first divergence: `MIN div_s -1` traps in WIR where
    /// Siro's `sdiv` wraps.
    fn sdiv_overflow_module(wir: WirVersion) -> WirModule {
        let mut m = WirModule::new("sdiv_overflow", wir);
        let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
        f.body.alloc(WirInst::Const(WTy::I32, i32::MIN as i64));
        f.body.alloc(WirInst::Const(WTy::I32, -1));
        f.body.alloc(WirInst::Binop(WTy::I32, WBin::DivS));
        f.body.alloc(WirInst::Return);
        m.funcs.push(f);
        m
    }

    #[test]
    fn clean_anchor_runs_find_no_failures() {
        for (siro, wir) in BRIDGE_ANCHORS {
            let mut cfg = CrossConfig::new(siro, wir);
            cfg.modules = 60;
            let report = run_cross(&cfg).expect("anchor pair");
            assert!(
                report.failures.is_empty(),
                "{siro}<->wir{wir}: {:?}",
                report.failures.first().map(|f| &f.detail)
            );
            assert!(report.modules_checked > 40, "too few comparable modules");
        }
    }

    #[test]
    fn non_anchor_pairs_are_refused() {
        let cfg = CrossConfig::new(IrVersion::V3_6, WirVersion::W1_0);
        assert!(matches!(
            run_cross(&cfg),
            Err(BridgeError::NotAnAnchor(_, _))
        ));
    }

    #[test]
    fn corpus_reaches_the_arith_bucket() {
        // The divergence the bridge normalizes lives in the arith bucket;
        // a run that never visits it would vacuously pass.
        let mut cfg = CrossConfig::new(IrVersion::V13_0, WirVersion::W2_0);
        cfg.modules = 200;
        let report = run_cross(&cfg).expect("anchor pair");
        assert!(
            report.arith_cases > 0,
            "generator must exercise the trap bucket"
        );
    }

    #[test]
    fn cross_artifact_round_trips_through_text() {
        let a = CrossArtifact {
            siro: IrVersion::V13_0,
            wir: WirVersion::W2_0,
            direction: "raise".into(),
            family: FailureFamily::CrossDialect,
            mutator: "wir-div-edge".into(),
            detail: "wir traps integer-overflow, naive raise wraps to value -2147483648".into(),
            module: sdiv_overflow_module(WirVersion::W2_0),
        };
        let text = a.render();
        let b = CrossArtifact::parse(&text).expect("parse back");
        assert_eq!(b.siro, a.siro);
        assert_eq!(b.wir, a.wir);
        assert_eq!(b.direction, a.direction);
        assert_eq!(b.family, a.family);
        assert_eq!(b.mutator, a.mutator);
        assert_eq!(b.detail, a.detail);
        assert_eq!(write_module(&b.module), write_module(&a.module));
    }

    #[test]
    fn cross_artifact_text_is_a_valid_wir_module() {
        let a = CrossArtifact {
            siro: IrVersion::V13_0,
            wir: WirVersion::W2_0,
            direction: "raise".into(),
            family: FailureFamily::CrossDialect,
            mutator: "seed".into(),
            detail: "divergence".into(),
            module: sdiv_overflow_module(WirVersion::W2_0),
        };
        let m = parse_module(&a.render()).expect("metadata must not break parsing");
        assert_eq!(m.version, WirVersion::W2_0);
        assert!(siro_wir::looks_like_wir(&a.render()));
    }

    #[test]
    fn file_name_is_deterministic_and_content_addressed() {
        let a = CrossArtifact {
            siro: IrVersion::V13_0,
            wir: WirVersion::W2_0,
            direction: "raise".into(),
            family: FailureFamily::CrossDialect,
            mutator: "seed".into(),
            detail: "d".into(),
            module: sdiv_overflow_module(WirVersion::W2_0),
        };
        assert_eq!(a.file_name(), a.file_name());
        assert!(a.file_name().starts_with("13.0-w2.0-raise-cross-dialect-"));
        assert!(a.file_name().ends_with(".sirw"));
    }
}
