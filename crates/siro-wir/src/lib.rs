//! # siro-wir — a versioned stack-machine IR family
//!
//! The repo's second IR dialect: a small wasm-flavoured stack machine with
//! typed i32/i64 values, structured `block`/`loop`/`end` regions, relative
//! branches, locals, and calls. Like the Siro family, WIR exists at several
//! catalog versions ([`WirVersion::CATALOG`]) whose *API surface* evolves
//! in the paper's three breakage shapes — renamed builders (2.0),
//! reordered builder parameters (3.0), and representation migrations
//! (opaque function references, 3.0) — so the same synthesis pipeline that
//! builds Siro version translators can build WIR→WIR translators and
//! cross-dialect SIRO↔WIR bridges from the [`WirRegistry`] surface alone.
//!
//! Per-dialect pieces mirror `siro-ir`'s layout:
//!
//! * [`inst`]/[`module`] — the instruction set and arena-backed module
//!   forms (the instruction arena recycles through the same thread-local
//!   slab machinery as Siro's, via `siro_ir::Entity`);
//! * [`parse`]/[`mod@write`] — a canonical text format with byte-stable
//!   round-tripping, version-gated at parse time;
//! * [`validate`] — a stack-typing verifier (height-neutral regions, no
//!   dead code, branch-depth checking);
//! * [`interp`] — a deterministic fuel-limited interpreter, the
//!   differential oracle's ground truth;
//! * [`api`] — the versioned builder/getter registry the synthesizer
//!   searches;
//! * [`gen`]/[`corpus`] — seeded program generation and hand conformance
//!   cases;
//! * [`any`] — the dialect-tagged [`AnyModule`] wrapper the serving path
//!   uses.

#![warn(missing_docs)]

pub mod any;
pub mod api;
pub mod corpus;
pub mod gen;
pub mod inst;
pub mod interp;
pub mod module;
pub mod parse;
pub mod validate;
pub mod version;
pub mod write;

pub use any::{parse_wir_expecting, AnyModule};
pub use api::{WirApiFn, WirApiImpl, WirApiType, WirApiValue, WirEmit, WirRegistry};
pub use gen::{generate_module, generate_straightline};
pub use inst::{WBin, WCmp, WKind, WTy, WirInst};
pub use interp::{WirExec, WirMachine, WirOutcome, WirTrap, DEFAULT_FUEL};
pub use module::{wir_slab_depth, WirFunc, WirModule};
pub use parse::{looks_like_wir, parse_module, WirParseError};
pub use validate::{verify_module, WirVerifyError};
pub use version::WirVersion;
pub use write::write_module;
