//! The top level of the IR hierarchy: `P := F+ G+` (Fig. 3).
//!
//! Storage follows the arena model of [`crate::ctx`]: a [`Module`] owns a
//! [`Ctx`] whose typed [`Arena`]s hold every module-level entity, each
//! function owns arenas for its blocks and instructions, and all
//! cross-entity links are copyable [`Ptr`](crate::ctx::Ptr) indices.

use std::ops::{Deref, DerefMut};

use crate::ctx::Arena;
use crate::inst::Instruction;
use crate::types::{TypeId, TypeTable};
use crate::value::{AsmId, BlockId, FuncId, GlobalId, InstId, ValueRef};
use crate::version::IrVersion;

/// Initializer of a global variable.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// External declaration (no initializer).
    External,
    /// Zero-initialized.
    Zero,
    /// An integer constant.
    Int(i64),
    /// A floating constant.
    Float(f64),
    /// Raw bytes (e.g. string literals).
    Bytes(Vec<u8>),
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name (without the `@` sigil).
    pub name: String,
    /// The *value* type; the global itself is addressed through a pointer to
    /// this type.
    pub ty: TypeId,
    /// Initializer.
    pub init: GlobalInit,
    /// Whether the global is immutable (`constant`).
    pub is_const: bool,
}

/// An inline-assembly snippet usable as a call target.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineAsm {
    /// The assembly text.
    pub text: String,
    /// Constraint string.
    pub constraints: String,
    /// Function type of the callable.
    pub ty: TypeId,
    /// Minimum backend "hardware level" able to lower this snippet; models
    /// source code hard-coding newer hardware instructions (the paper's php
    /// case). See [`IrVersion::max_asm_hw_level`].
    pub hw_level: u8,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name (cosmetic).
    pub name: String,
    /// Parameter type.
    pub ty: TypeId,
}

/// A basic block: an ordered list of instructions (`B := I+`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// Label (cosmetic; blocks are referenced by [`BlockId`]).
    pub name: String,
    /// Instructions in execution order; ids index the function's arena.
    pub insts: Vec<InstId>,
}

/// A function: `F := f(arg1..argn){ B+ }`.
///
/// Blocks and instructions live in per-function [`Arena`]s; [`BlockId`] and
/// [`InstId`] index them. Dropping the function parks both arena buffers in
/// the thread-local recycling slab (see [`crate::ctx`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name (without the `@` sigil).
    pub name: String,
    /// Return type.
    pub ret_ty: TypeId,
    /// Parameters.
    pub params: Vec<Param>,
    /// Whether the function is variadic.
    pub varargs: bool,
    /// Whether this is a declaration without a body.
    pub is_external: bool,
    /// Basic blocks in layout order; the first is the entry block.
    pub blocks: Arena<BasicBlock>,
    /// Instruction arena.
    pub insts: Arena<Instruction>,
}

impl Function {
    /// Creates an empty function definition.
    pub fn new(name: impl Into<String>, ret_ty: TypeId, params: Vec<Param>) -> Self {
        Function {
            name: name.into(),
            ret_ty,
            params,
            varargs: false,
            is_external: false,
            blocks: Arena::new(),
            insts: Arena::new(),
        }
    }

    /// Creates an external declaration.
    pub fn external(name: impl Into<String>, ret_ty: TypeId, params: Vec<Param>) -> Self {
        Function {
            is_external: true,
            ..Function::new(name, ret_ty, params)
        }
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.blocks.alloc(BasicBlock {
            name: name.into(),
            insts: Vec::new(),
        })
    }

    /// Appends `inst` to `block`, returning the instruction id.
    pub fn push_inst(&mut self, block: BlockId, inst: Instruction) -> InstId {
        let id = self.insts.alloc(inst);
        self.blocks[block].insts.push(id);
        id
    }

    /// The instruction behind `id`.
    pub fn inst(&self, id: InstId) -> &Instruction {
        &self.insts[id]
    }

    /// Mutable access to the instruction behind `id`.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Instruction {
        &mut self.insts[id]
    }

    /// The block behind `id`.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id]
    }

    /// Iterates over block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        self.blocks.ids()
    }

    /// The entry block, if the function has a body.
    pub fn entry(&self) -> Option<BlockId> {
        if self.blocks.is_empty() {
            None
        } else {
            Some(BlockId::new(0))
        }
    }

    /// The terminator instruction of `block`, if present.
    pub fn terminator(&self, block: BlockId) -> Option<&Instruction> {
        self.block(block)
            .insts
            .last()
            .map(|&i| self.inst(i))
            .filter(|i| i.opcode.is_terminator())
    }

    /// Total number of instructions.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Replaces every occurrence of the placeholder `key` with `actual`
    /// across all instruction operands (the translation fix-up pass).
    ///
    /// Returns the number of operand slots rewritten.
    pub fn replace_placeholder(&mut self, key: u32, actual: ValueRef) -> usize {
        let mut n = 0;
        for inst in &mut self.insts {
            for op in &mut inst.operands {
                if *op == ValueRef::Placeholder(key) {
                    *op = actual;
                    n += 1;
                }
            }
        }
        n
    }
}

/// The arena context of a module: interned types plus the typed arenas
/// holding every module-level entity.
///
/// [`Module`] owns exactly one `Ctx` and dereferences to it, so module
/// content is reached as `module.types`, `module.funcs`, `module.globals`,
/// `module.asms` exactly as before the arena refactor. Dropping the `Ctx`
/// releases the whole program in one arena free per entity kind (the
/// buffers park in the thread-local slab for the next request).
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Interned types.
    pub types: TypeTable,
    /// Global variables.
    pub globals: Arena<Global>,
    /// Inline-assembly snippets.
    pub asms: Arena<InlineAsm>,
    /// Functions (definitions and declarations).
    pub funcs: Arena<Function>,
}

impl Ctx {
    /// Creates an empty context, reusing slab-recycled arena buffers.
    pub fn new() -> Self {
        Ctx {
            types: TypeTable::new(),
            globals: Arena::new(),
            asms: Arena::new(),
            funcs: Arena::new(),
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

/// A complete IR program of a particular version.
///
/// All entity storage lives in the owned [`Ctx`]; `Module` adds the
/// identity (name, version) and dereferences to the context.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (cosmetic).
    pub name: String,
    /// The version this module's serialized form and instruction set obey.
    pub version: IrVersion,
    /// The arena context holding types, globals, asms, and functions.
    pub ctx: Ctx,
}

impl Deref for Module {
    type Target = Ctx;
    #[inline]
    fn deref(&self) -> &Ctx {
        &self.ctx
    }
}

impl DerefMut for Module {
    #[inline]
    fn deref_mut(&mut self) -> &mut Ctx {
        &mut self.ctx
    }
}

impl Module {
    /// Creates an empty module of the given version.
    pub fn new(name: impl Into<String>, version: IrVersion) -> Self {
        Module {
            name: name.into(),
            version,
            ctx: Ctx::new(),
        }
    }

    /// Deep-copies the module into freshly allocated (slab-recycled)
    /// arenas.
    ///
    /// The clone is structurally equal to the original but shares no
    /// storage with it: every arena buffer, operand spill, and string is
    /// disjoint, so mutating the clone can never alias back. This is what
    /// `siro-difftest`'s `arena-clone` oracle exercises.
    pub fn arena_clone(&self) -> Module {
        self.clone()
    }

    /// Adds a global variable, returning its id.
    pub fn add_global(&mut self, global: Global) -> GlobalId {
        self.ctx.globals.alloc(global)
    }

    /// Adds an inline-assembly snippet, returning its id.
    pub fn add_asm(&mut self, asm: InlineAsm) -> AsmId {
        self.ctx.asms.alloc(asm)
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        self.ctx.funcs.alloc(func)
    }

    /// The function behind `id`.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.ctx.funcs[id]
    }

    /// Mutable access to the function behind `id`.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.ctx.funcs[id]
    }

    /// The global behind `id`.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.ctx.globals[id]
    }

    /// The inline-assembly snippet behind `id`.
    pub fn asm(&self, id: AsmId) -> &InlineAsm {
        &self.ctx.asms[id]
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.ctx
            .funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_usize)
    }

    /// Iterates over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        self.ctx.funcs.ids()
    }

    /// Iterates over global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> {
        self.ctx.globals.ids()
    }

    /// Total instruction count over all functions.
    pub fn inst_count(&self) -> usize {
        self.ctx.funcs.iter().map(Function::inst_count).sum()
    }

    /// The static type of an operand value within `func`.
    ///
    /// Returns `None` for block labels (whose "type" is `label`) when the
    /// table has not interned it, and for out-of-range references.
    pub fn value_type(&self, func: &Function, v: ValueRef) -> Option<TypeId> {
        match v {
            ValueRef::Inst(i) => Some(func.inst(i).ty),
            ValueRef::Arg(a) => func.params.get(a as usize).map(|p| p.ty),
            ValueRef::Global(_) | ValueRef::Func(_) | ValueRef::InlineAsm(_) => None,
            ValueRef::Block(_) => None,
            ValueRef::ConstInt { ty, .. }
            | ValueRef::ConstFloat { ty, .. }
            | ValueRef::Null(ty)
            | ValueRef::Undef(ty)
            | ValueRef::ZeroInit(ty) => Some(ty),
            ValueRef::Placeholder(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;

    #[test]
    fn build_and_query_module() {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let void = m.types.void();
        let mut f = Function::new("main", i32t, vec![]);
        let entry = f.add_block("entry");
        let c = ValueRef::const_int(i32t, 41);
        let one = ValueRef::const_int(i32t, 1);
        let add = f.push_inst(entry, Instruction::new(Opcode::Add, i32t, vec![c, one]));
        f.push_inst(
            entry,
            Instruction::new(Opcode::Ret, void, vec![ValueRef::Inst(add)]),
        );
        let fid = m.add_func(f);
        assert_eq!(m.func_by_name("main"), Some(fid));
        assert_eq!(m.inst_count(), 2);
        let f = m.func(fid);
        assert_eq!(f.terminator(BlockId::new(0)).unwrap().opcode, Opcode::Ret);
        assert_eq!(f.entry(), Some(BlockId::new(0)));
    }

    #[test]
    fn placeholder_replacement() {
        let mut m = Module::new("m", IrVersion::V3_6);
        let i32t = m.types.i32();
        let mut f = Function::new("f", i32t, vec![]);
        let b = f.add_block("entry");
        let add = f.push_inst(
            b,
            Instruction::new(
                Opcode::Add,
                i32t,
                vec![ValueRef::Placeholder(3), ValueRef::Placeholder(3)],
            ),
        );
        let n = f.replace_placeholder(3, ValueRef::const_int(i32t, 5));
        assert_eq!(n, 2);
        assert!(!f.inst(add).has_placeholders());
        let _ = m.add_func(f);
    }

    #[test]
    fn external_functions_have_no_body() {
        let mut m = Module::new("m", IrVersion::V3_6);
        let i32t = m.types.i32();
        let f = Function::external("malloc", i32t, vec![]);
        let id = m.add_func(f);
        assert!(m.func(id).is_external);
        assert_eq!(m.func(id).entry(), None);
    }
}
