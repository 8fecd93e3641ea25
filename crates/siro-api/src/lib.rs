//! # siro-api — versioned reflective IR API registries
//!
//! The paper builds IR translators out of three component families (Tab. 2,
//! §3.3.1): source-version **IR getters**, target-version **IR builders**,
//! and the skeleton's **operand translators**. This crate reifies those
//! components as typed, versioned, *searchable* objects:
//!
//! * [`ApiRegistry::for_pair`] assembles the component library for one
//!   `(source, target)` version pair. Component availability, names, and
//!   signatures depend on the versions — `create_invoke` requires an
//!   explicit function type from 9.0 on (Fig. 13), the call-target getter
//!   renames at 11.0, `create_freeze` only exists when the target knows
//!   `freeze`, and so on.
//! * [`TranslationCtx`] is the shared translation state: the target module
//!   under construction plus the source-to-target maps, with placeholder
//!   fix-ups for forward references (§5).
//! * [`ApiProgram`] is a candidate atomic translator (the λ of Def. 3.1) as
//!   a straight-line composition of components — data the synthesizer can
//!   generate, execute, compare, and finally render as source code.
//!
//! `siro-synth` performs the actual type-guided generation and test-guided
//! refinement over these registries; `siro-core` provides the translation
//! skeleton that invokes the finished translators.

#![warn(missing_docs)]

pub mod builders;
pub mod getters;

pub mod ctx;
pub mod error;
pub mod program;
pub mod registry;
pub mod value;

pub use builders::Builder;
pub use ctx::{ExecEnv, TranslationCtx};
pub use error::{ApiError, ApiResult};
pub use getters::Getter;
pub use program::{ApiCall, ApiProgram, Reg};
pub use registry::{ApiFn, ApiId, ApiKind, ApiRegistry, Args, Component, PredConj, Translator};
pub use value::{ApiType, ApiValue, PredValue, Side};

/// Static upper bound on the operand count of an opcode, exposed for the
/// synthesizer's type-graph pruning.
pub fn operand_index_bound(op: siro_ir::Opcode) -> u32 {
    getters::max_operand_index(op)
}
