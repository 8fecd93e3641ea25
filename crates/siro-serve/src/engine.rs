//! Request execution: the code a worker thread runs for one request.
//!
//! The engine is deliberately free of any socket or queue knowledge so it
//! can be exercised directly by unit tests and reused by the in-process
//! `STATS` path. All IR work — parse, verify, acquire, translate, verify
//! again, print — happens here, on one path for both dialects, and every
//! failure maps to a structured [`ErrorCode`] instead of a panic: a
//! malformed served module must never take down a worker.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use siro_core::{ReferenceTranslator, Skeleton};
use siro_ir::DialectVersion;
use siro_synth::{RouteOutcome, Router};
use siro_wir::AnyModule;

use crate::coalesce::PairCoalescer;
use crate::protocol::{ErrorCode, Request, Response, StageNanos, TranslateMode};
use crate::stats::Metrics;

/// Shared, thread-safe request executor.
pub struct Engine {
    coalescer: PairCoalescer,
    router: Router,
    dialect_router: Router,
    metrics: Arc<Metrics>,
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

impl Engine {
    /// Creates an engine publishing into `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> Self {
        Engine {
            coalescer: PairCoalescer::new(),
            router: Router::new(),
            dialect_router: Router::with_wir(),
            metrics,
        }
    }

    /// The coalescer, for stats reporting.
    pub fn coalescer(&self) -> &PairCoalescer {
        &self.coalescer
    }

    /// The version-graph router serving Siro any-pair requests.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The dual-catalog router serving requests with a WIR endpoint.
    /// Separate from [`Engine::router`] on purpose: pure-Siro requests
    /// plan over the Siro-only node set, so adding the second dialect
    /// cannot change how existing traffic routes.
    pub fn dialect_router(&self) -> &Router {
        &self.dialect_router
    }

    /// Executes one already-dequeued request. `Stats` and `Shutdown` are
    /// handled at the connection layer; a worker seeing them answers
    /// `Internal` rather than crashing.
    pub fn execute(&self, request: &Request) -> Response {
        match request {
            Request::Translate {
                source,
                target,
                mode,
                text,
            } => self.translate(*source, *target, *mode, text),
            Request::Ping { delay_ms } => {
                if *delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(u64::from(*delay_ms)));
                }
                Response::Pong
            }
            Request::Stats | Request::Shutdown | Request::Metrics => err(
                ErrorCode::Internal,
                "control request routed to a worker thread",
            ),
        }
    }

    /// The one request path, for every pair of either dialect: parse →
    /// verify → acquire → translate → verify → print over [`AnyModule`].
    /// The dialects decide three things: which router plans the route,
    /// whether reference mode serves (Siro pairs only), and the error code
    /// of a failed acquire. Unbridgeable pairs answer `Unsupported` — the
    /// dialect router reports them unreachable rather than planning a
    /// bogus chain.
    fn translate(
        &self,
        source: DialectVersion,
        target: DialectVersion,
        mode: TranslateMode,
        text: &str,
    ) -> Response {
        let t_start = Instant::now();
        self.metrics.translations.fetch_add(1, Ordering::Relaxed);
        // `Some(target)` exactly when both endpoints are Siro versions.
        let siro_target = source.as_siro().and(target.as_siro());
        let (router, acquire_code, acquiring) = if siro_target.is_some() {
            (&self.router, ErrorCode::Synthesis, "synthesizing")
        } else {
            self.metrics.cross_dialect.fetch_add(1, Ordering::Relaxed);
            siro_trace::counter("serve.cross_dialect", 1);
            if mode == TranslateMode::Reference {
                return err(
                    ErrorCode::Unsupported,
                    "the reference translator only serves Siro-to-Siro pairs",
                );
            }
            (&self.dialect_router, ErrorCode::Unsupported, "acquiring")
        };

        // Parse + verify the incoming module; its version header selects
        // the dialect and must agree with the request's source.
        let sp = siro_trace::span!("serve.parse");
        let module = match AnyModule::parse(text) {
            Ok(m) => m,
            Err(e) => return err(ErrorCode::Parse, format!("parsing request module: {e}")),
        };
        if module.dialect_version() != source {
            return err(
                ErrorCode::Parse,
                format!(
                    "module text declares version {} but the request says {source}",
                    module.dialect_version()
                ),
            );
        }
        if let Err(e) = module.verify() {
            return err(ErrorCode::Verify, format!("request module: {e}"));
        }
        drop(sp);
        let parse_nanos = t_start.elapsed().as_nanos() as u64;

        // Obtain a translator (possibly synthesizing, coalesced per pair):
        // the router picks the cheapest route, direct or composed, and
        // every Siro hop acquisition goes through the coalescer so
        // per-pair serving counters keep working.
        let t_synth = Instant::now();
        let acquired = match mode {
            TranslateMode::Reference => None,
            TranslateMode::Synthesized => {
                let _sp = siro_trace::span!("serve.acquire_translator", "{source}->{target}");
                match router.acquire_with(source, target, &|s, t, _tests| {
                    self.coalescer
                        .translator_for(s, t)
                        .map(|l| (l.outcome, l.fresh))
                }) {
                    Ok(a) => Some(a),
                    Err(e) => {
                        return err(
                            acquire_code,
                            format!("{acquiring} {source} -> {target}: {e}"),
                        )
                    }
                }
            }
        };
        let synth_nanos = match acquired {
            Some(_) => t_synth.elapsed().as_nanos() as u64,
            None => 0,
        };

        // The request module is owned by this handler and not needed
        // afterwards: hand it to the owned paths, so a compiled translator
        // rewrites it in place (mirror driver) instead of rebuilding it —
        // with transparent fallback to the compiled push driver and then
        // the interpreter.
        let t_translate = Instant::now();
        let label = match mode {
            TranslateMode::Reference => "reference",
            TranslateMode::Synthesized => "synthesized",
        };
        let sp = siro_trace::span!("serve.translate", "{source}->{target} {label}");
        let outcome = acquired.as_ref().map(|a| &a.outcome);
        let translated = match (outcome, module, siro_target) {
            (None, AnyModule::Siro(m), Some(to)) => Skeleton::new(to)
                .translate_module(&m, &ReferenceTranslator)
                .map(AnyModule::Siro),
            (Some(RouteOutcome::Direct(outcome)), AnyModule::Siro(m), Some(to)) => {
                siro_synth::translate_module_owned_tiered(outcome, to, m).map(AnyModule::Siro)
            }
            (Some(RouteOutcome::Composed(chain)), m, _) => chain.translate_any_owned(m),
            // Direct routes are Siro pairwise translators, and reference
            // mode was refused above for any other pair.
            _ => {
                return err(
                    ErrorCode::Internal,
                    "cross-dialect request resolved to a direct Siro translator",
                )
            }
        };
        drop(sp);
        let translate_nanos = t_translate.elapsed().as_nanos() as u64;
        let translated = match translated {
            Ok(m) => m,
            Err(e) => {
                return err(
                    ErrorCode::Translate,
                    format!("translating {source} -> {target}: {e}"),
                )
            }
        };
        if translated.dialect_version() != target {
            return err(
                ErrorCode::Internal,
                format!(
                    "chain produced {} instead of {target}",
                    translated.dialect_version()
                ),
            );
        }
        if let Err(e) = translated.verify() {
            return err(ErrorCode::Verify, format!("translated module: {e}"));
        }

        let sp = siro_trace::span!("serve.serialize");
        let text = translated.print();
        drop(sp);
        Response::TranslateOk {
            cache_hit: acquired.is_some_and(|a| !a.fresh),
            timings: StageNanos {
                parse: parse_nanos,
                synth: synth_nanos,
                translate: translate_nanos,
                total: t_start.elapsed().as_nanos() as u64,
            },
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::{parse, write, IrVersion};

    fn engine() -> Engine {
        Engine::new(Arc::new(Metrics::default()))
    }

    fn sample_module(version: IrVersion) -> String {
        let case = &siro_testcases::full_corpus()[0];
        write::write_module(&case.build(version))
    }

    #[test]
    fn reference_translation_matches_in_process() {
        let e = engine();
        let text = sample_module(IrVersion::V13_0);
        let resp = e.execute(&Request::Translate {
            source: IrVersion::V13_0.into(),
            target: IrVersion::V3_6.into(),
            mode: TranslateMode::Reference,
            text: text.clone(),
        });
        let Response::TranslateOk {
            text: served,
            cache_hit,
            timings,
        } = resp
        else {
            panic!("expected TranslateOk, got {resp:?}");
        };
        assert!(!cache_hit);
        assert!(timings.total >= timings.translate);
        let module = parse::parse_module(&text).expect("reparse");
        let expected = Skeleton::new(IrVersion::V3_6)
            .translate_module(&module, &ReferenceTranslator)
            .expect("in-process translation");
        assert_eq!(served, write::write_module(&expected));
    }

    #[test]
    fn malformed_module_is_a_parse_error_not_a_panic() {
        let e = engine();
        let resp = e.execute(&Request::Translate {
            source: IrVersion::V13_0.into(),
            target: IrVersion::V3_6.into(),
            mode: TranslateMode::Reference,
            text: "this is not ir".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Parse,
                    ..
                }
            ),
            "got {resp:?}"
        );
    }

    #[test]
    fn version_mismatch_is_reported() {
        let e = engine();
        let resp = e.execute(&Request::Translate {
            source: IrVersion::V12_0.into(),
            target: IrVersion::V3_6.into(),
            mode: TranslateMode::Reference,
            text: sample_module(IrVersion::V13_0),
        });
        match resp {
            Response::Error {
                code: ErrorCode::Parse,
                message,
            } => assert!(message.contains("declares version"), "{message}"),
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn composed_route_serves_byte_identical_to_direct() {
        // Warm the two hop edges in the process-global cache so the
        // router's cheapest path for (11.0 -> 3.7) composes through 5.0,
        // then check the served text equals a direct synthesis. The pair
        // triple is unique to this test so no other test perturbs the
        // edge classes.
        let (a, m, b) = (IrVersion::V11_0, IrVersion::V5_0, IrVersion::V3_7);
        for (s, t) in [(a, m), (m, b)] {
            let corpus = siro_synth::oracle_corpus(s, t);
            siro_synth::TranslatorCache::get_or_synthesize(
                siro_synth::SynthesisConfig::new(s, t),
                &corpus,
            )
            .expect("hop synthesis");
        }
        let e = engine();
        let plan = e.router().plan(a, b).expect("plan");
        assert_eq!(
            plan.hop_count(),
            2,
            "hot hops must compose: {}",
            plan.describe()
        );
        let text = sample_module(a);
        let resp = e.execute(&Request::Translate {
            source: a.into(),
            target: b.into(),
            mode: TranslateMode::Synthesized,
            text: text.clone(),
        });
        let Response::TranslateOk { text: served, .. } = resp else {
            panic!("expected TranslateOk, got {resp:?}");
        };
        let module = parse::parse_module(&text).expect("reparse");
        let direct = siro_synth::TranslatorCache::get_or_synthesize(
            siro_synth::SynthesisConfig::new(a, b),
            &siro_synth::oracle_corpus(a, b),
        )
        .expect("direct synthesis");
        let expected = Skeleton::new(b)
            .translate_module(&module, &direct.translator)
            .expect("direct translation");
        assert_eq!(served, write::write_module(&expected));
    }

    #[test]
    fn wir_pair_serves_through_the_dialect_router() {
        let e = engine();
        let m = siro_wir::generate_straightline(11, siro_wir::WirVersion::W1_0);
        let text = siro_wir::write::write_module(&m);
        let resp = e.execute(&Request::Translate {
            source: DialectVersion::wir(1, 0),
            target: DialectVersion::wir(2, 0),
            mode: TranslateMode::Synthesized,
            text,
        });
        let Response::TranslateOk { text: served, .. } = resp else {
            panic!("expected TranslateOk, got {resp:?}");
        };
        let out = siro_wir::parse::parse_module(&served).expect("served text parses");
        assert_eq!(out.version, siro_wir::WirVersion::W2_0);
    }

    #[test]
    fn cross_dialect_pair_serves_through_an_anchor_bridge() {
        let e = engine();
        // 13.0 -> wir2.0 is an anchor pair. Raising a straight-line WIR
        // module gives a Siro module guaranteed to be in the bridge's
        // lowerable subset, so the round trip must serve successfully and
        // preserve behaviour.
        let wir = siro_wir::generate_straightline(23, siro_wir::WirVersion::W2_0);
        let module = siro_synth::raise_module(&wir, IrVersion::V13_0).expect("raise");
        let text = write::write_module(&module);
        let resp = e.execute(&Request::Translate {
            source: IrVersion::V13_0.into(),
            target: DialectVersion::wir(2, 0),
            mode: TranslateMode::Synthesized,
            text,
        });
        let Response::TranslateOk { text: served, .. } = resp else {
            panic!("expected TranslateOk, got {resp:?}");
        };
        let out = siro_wir::parse::parse_module(&served).expect("wir text");
        assert_eq!(out.version, siro_wir::WirVersion::W2_0);
        assert_eq!(
            siro_synth::siro_behaviour(&module),
            siro_synth::wir_behaviour(&out),
            "behaviour bucket must survive the bridge"
        );
    }

    #[test]
    fn unbridged_cross_dialect_pair_answers_unsupported() {
        let e = engine();
        // wir1.0 -> 3.6: the only bridges are at the anchors, and 3.6 is
        // not one, but wir1.0 can hop to an anchored WIR version first —
        // so this *is* reachable. A version off both catalogs is not.
        let m = siro_wir::generate_straightline(3, siro_wir::WirVersion::W1_0);
        let resp = e.execute(&Request::Translate {
            source: DialectVersion::wir(1, 0),
            target: DialectVersion::wir(9, 9),
            mode: TranslateMode::Synthesized,
            text: siro_wir::write::write_module(&m),
        });
        match resp {
            Response::Error {
                code: ErrorCode::Unsupported,
                message,
            } => assert!(message.contains("no route"), "{message}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn stage_timings_are_disjoint_slices_of_the_total() {
        // parse, synth (acquire) and translate must not overlap, so they
        // add up to no more than total. A path that counts the acquire
        // inside translate as well breaks this whenever the acquire costs
        // more than output verify plus print — always on a cold pair. The
        // Siro pair is unique to this test, so it is cold here.
        let e = engine();
        let wir = siro_wir::generate_straightline(5, siro_wir::WirVersion::W1_0);
        let requests = [
            Request::Translate {
                source: IrVersion::V13_0.into(),
                target: IrVersion::V12_0.into(),
                mode: TranslateMode::Synthesized,
                text: sample_module(IrVersion::V13_0),
            },
            Request::Translate {
                source: DialectVersion::wir(1, 0),
                target: DialectVersion::wir(2, 0),
                mode: TranslateMode::Synthesized,
                text: siro_wir::write::write_module(&wir),
            },
        ];
        for request in &requests {
            let Response::TranslateOk { timings, .. } = e.execute(request) else {
                panic!("expected TranslateOk for {request:?}");
            };
            assert!(
                timings.parse + timings.synth + timings.translate <= timings.total,
                "stages overlap: {timings:?}"
            );
        }
    }

    #[test]
    fn control_requests_do_not_reach_workers() {
        let e = engine();
        assert!(matches!(
            e.execute(&Request::Stats),
            Response::Error {
                code: ErrorCode::Internal,
                ..
            }
        ));
    }

    #[test]
    fn ping_pongs() {
        assert_eq!(
            engine().execute(&Request::Ping { delay_ms: 0 }),
            Response::Pong
        );
    }
}
