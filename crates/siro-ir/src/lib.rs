//! # siro-ir — a versioned, LLVM-like IR substrate
//!
//! This crate is the substrate the Siro reproduction is built on. It plays
//! the role of LLVM's IR libraries in the paper (Tab. 2): it provides, for a
//! whole catalog of [`IrVersion`]s,
//!
//! * an in-memory IR data model ([`Module`], [`Function`], [`BasicBlock`],
//!   [`Instruction`], [`ValueRef`], [`TypeTable`]) following the
//!   formulation of Fig. 3,
//! * an **IR Builder** ([`FuncBuilder`]), and the result-type rules of
//!   the implicit-type builders ([`infer`]), shared by the reader and
//!   every translator tier,
//! * an **IR Verifier** ([`verify::verify_module`]),
//! * an **IR Writer** and **IR Reader** ([`write::write_module`],
//!   [`parse::parse_module`]) whose text formats differ across versions, and
//! * an interpreter ([`interp::Machine`]) used as the differential-testing
//!   execution oracle (Fig. 6 of the paper).
//!
//! Instruction sets are version-gated: [`IrVersion::supports`] decides which
//! [`Opcode`]s verify, reproducing the common/new instruction structure of
//! Table 3.
//!
//! ## Quick example
//!
//! ```
//! use siro_ir::{FuncBuilder, IrVersion, Module, ValueRef, interp, verify};
//!
//! let mut m = Module::new("demo", IrVersion::V13_0);
//! let i32t = m.types.i32();
//! let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
//! let mut b = FuncBuilder::new(&mut m, f);
//! let entry = b.add_block("entry");
//! b.position_at_end(entry);
//! let v = b.add(ValueRef::const_int(i32t, 40), ValueRef::const_int(i32t, 2));
//! b.ret(Some(v));
//!
//! verify::verify_module(&m).unwrap();
//! let outcome = interp::Machine::new(&m).run_main().unwrap();
//! assert_eq!(outcome.return_int(), Some(42));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod ctx;
pub mod dialect;
pub mod error;
mod hash;
pub mod infer;
pub mod inst;
pub mod interp;
pub mod module;
pub mod opcode;
pub mod parse;
pub mod types;
pub mod value;
pub mod verify;
pub mod version;
pub mod write;

pub use builder::FuncBuilder;
pub use ctx::{Arena, Entity, OpVec, Ptr, Use, UseIndex};
pub use dialect::{Dialect, DialectVersion};
pub use error::{IrError, IrResult};
pub use inst::{AtomicOrdering, FloatPredicate, InstAttrs, Instruction, IntPredicate, RmwOp};
pub use module::{BasicBlock, Ctx, Function, Global, GlobalInit, InlineAsm, Module, Param};
pub use opcode::{OpCategory, Opcode};
pub use types::{Type, TypeId, TypeTable};
pub use value::{AsmId, BlockId, FuncId, GlobalId, InstId, ValueRef};
pub use version::IrVersion;
