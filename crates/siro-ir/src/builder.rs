//! Ergonomic construction of IR ("IR Builder" row of Tab. 2 in the paper).
//!
//! [`FuncBuilder`] positions itself at the end of a block and appends
//! instructions, mirroring LLVM's `IRBuilder`.

use crate::infer;
use crate::inst::{AtomicOrdering, FloatPredicate, Instruction, IntPredicate, RmwOp};
use crate::module::{Function, Module, Param};
use crate::opcode::Opcode;
use crate::types::TypeId;
use crate::value::{BlockId, FuncId, ValueRef};

/// Builds instructions into one function of a [`Module`].
///
/// # Examples
///
/// ```
/// use siro_ir::{FuncBuilder, IrVersion, Module, ValueRef};
///
/// let mut m = Module::new("demo", IrVersion::V13_0);
/// let i32t = m.types.i32();
/// let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
/// let mut b = FuncBuilder::new(&mut m, f);
/// let entry = b.add_block("entry");
/// b.position_at_end(entry);
/// let x = b.add(ValueRef::const_int(i32t, 40), ValueRef::const_int(i32t, 2));
/// b.ret(Some(x));
/// assert_eq!(m.func(f).inst_count(), 2);
/// ```
#[derive(Debug)]
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: FuncId,
    block: Option<BlockId>,
}

impl<'m> FuncBuilder<'m> {
    /// Adds a new function definition to `module` and returns its id.
    pub fn define(
        module: &'m mut Module,
        name: impl Into<String>,
        ret_ty: TypeId,
        params: Vec<Param>,
    ) -> FuncId {
        module.add_func(Function::new(name, ret_ty, params))
    }

    /// Creates a builder over an existing function.
    pub fn new(module: &'m mut Module, func: FuncId) -> Self {
        FuncBuilder {
            module,
            func,
            block: None,
        }
    }

    /// The function being built.
    pub fn func_id(&self) -> FuncId {
        self.func
    }

    /// The module being built into.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    fn f(&mut self) -> &mut Function {
        self.module.func_mut(self.func)
    }

    /// Appends a new block with the given label.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.f().add_block(name)
    }

    /// Positions the insertion point at the end of `block`.
    pub fn position_at_end(&mut self, block: BlockId) {
        self.block = Some(block);
    }

    /// The current insertion block, if one has been set — the predecessor
    /// a generator needs when it is about to branch to a new block and
    /// record phi incomings.
    pub fn current_block(&self) -> Option<BlockId> {
        self.block
    }

    /// Appends a raw instruction at the insertion point.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point has been set.
    pub fn push(&mut self, inst: Instruction) -> ValueRef {
        let block = self.block.expect("FuncBuilder: no insertion point set");
        let id = self.f().push_inst(block, inst);
        ValueRef::Inst(id)
    }

    /// The type of operand `v`. A global stands for its address,
    /// `ptr(global.ty)`, as in [`infer`]'s pointer rule, and a function
    /// for its address, a pointer to its function type, as the reader
    /// types a function operand.
    fn value_ty(&mut self, v: ValueRef) -> TypeId {
        let pointee = match v {
            ValueRef::Global(g) => self.module.global(g).ty,
            ValueRef::Func(f) => {
                let (ret, params, varargs) = infer::signature(self.module.func(f));
                infer::func_type(&mut self.module.types, ret, params, varargs)
            }
            _ => {
                let f = self.module.func(self.func);
                return self
                    .module
                    .value_type(f, v)
                    .expect("operand type must be inferable; pass explicit types otherwise");
            }
        };
        self.module.types.ptr(pointee)
    }

    /// The result type of a compare whose first operand is `a`
    /// ([`infer::cmp_result`]): `<N x i1>` for a vector operand, else `i1`.
    /// Addresses (globals, functions) are scalars.
    fn cmp_ty(&mut self, a: ValueRef) -> TypeId {
        let f = self.module.func(self.func);
        match self.module.value_type(f, a) {
            Some(ty) => infer::cmp_result(&mut self.module.types, ty),
            None => self.module.types.i1(),
        }
    }

    // ---- Arithmetic ------------------------------------------------------

    fn binary(&mut self, op: Opcode, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.value_ty(a);
        self.push(Instruction::new(op, ty, [a, b]))
    }

    /// `add`
    pub fn add(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Add, a, b)
    }

    /// `sub`
    pub fn sub(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Sub, a, b)
    }

    /// `mul`
    pub fn mul(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Mul, a, b)
    }

    /// `sdiv`
    pub fn sdiv(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::SDiv, a, b)
    }

    /// `udiv`
    pub fn udiv(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::UDiv, a, b)
    }

    /// `srem`
    pub fn srem(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::SRem, a, b)
    }

    /// `urem`
    pub fn urem(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::URem, a, b)
    }

    /// `fadd`
    pub fn fadd(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::FAdd, a, b)
    }

    /// `fsub`
    pub fn fsub(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::FSub, a, b)
    }

    /// `fmul`
    pub fn fmul(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::FMul, a, b)
    }

    /// `fdiv`
    pub fn fdiv(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::FDiv, a, b)
    }

    /// `frem`
    pub fn frem(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::FRem, a, b)
    }

    /// `fneg`
    pub fn fneg(&mut self, a: ValueRef) -> ValueRef {
        let ty = self.value_ty(a);
        self.push(Instruction::new(Opcode::FNeg, ty, [a]))
    }

    /// `shl`
    pub fn shl(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Shl, a, b)
    }

    /// `lshr`
    pub fn lshr(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::LShr, a, b)
    }

    /// `ashr`
    pub fn ashr(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::AShr, a, b)
    }

    /// `and`
    pub fn and(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::And, a, b)
    }

    /// `or`
    pub fn or(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Or, a, b)
    }

    /// `xor`
    pub fn xor(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.binary(Opcode::Xor, a, b)
    }

    // ---- Comparisons / select ---------------------------------------------

    /// `icmp <pred>`
    pub fn icmp(&mut self, pred: IntPredicate, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.cmp_ty(a);
        let mut inst = Instruction::new(Opcode::ICmp, ty, [a, b]);
        inst.attrs.int_pred = Some(pred);
        self.push(inst)
    }

    /// `fcmp <pred>`
    pub fn fcmp(&mut self, pred: FloatPredicate, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.cmp_ty(a);
        let mut inst = Instruction::new(Opcode::FCmp, ty, [a, b]);
        inst.attrs.float_pred = Some(pred);
        self.push(inst)
    }

    /// `select`
    pub fn select(&mut self, cond: ValueRef, t: ValueRef, f: ValueRef) -> ValueRef {
        let ty = self.value_ty(t);
        self.push(Instruction::new(Opcode::Select, ty, [cond, t, f]))
    }

    // ---- Memory ------------------------------------------------------------

    /// `alloca <ty>`
    pub fn alloca(&mut self, ty: TypeId) -> ValueRef {
        let ptr = self.module.types.ptr(ty);
        let mut inst = Instruction::new(Opcode::Alloca, ptr, crate::ctx::OpVec::new());
        inst.attrs.alloc_ty = Some(ty);
        self.push(inst)
    }

    /// `load <ty>, <ty>* <ptr>`
    pub fn load(&mut self, ty: TypeId, ptr: ValueRef) -> ValueRef {
        let mut inst = Instruction::new(Opcode::Load, ty, [ptr]);
        inst.attrs.gep_source_ty = Some(ty);
        self.push(inst)
    }

    /// `store <val>, <ptr>`
    pub fn store(&mut self, val: ValueRef, ptr: ValueRef) -> ValueRef {
        let void = self.module.types.void();
        self.push(Instruction::new(Opcode::Store, void, [val, ptr]))
    }

    /// `getelementptr <src_ty>, <ptr>, <indices...>`; `result_ty` is the
    /// pointer type produced.
    pub fn gep(
        &mut self,
        src_ty: TypeId,
        base: ValueRef,
        indices: Vec<ValueRef>,
        result_ty: TypeId,
    ) -> ValueRef {
        let mut ops = crate::ctx::OpVec::from([base]);
        ops.extend(indices);
        let mut inst = Instruction::new(Opcode::GetElementPtr, result_ty, ops);
        inst.attrs.gep_source_ty = Some(src_ty);
        self.push(inst)
    }

    /// `atomicrmw <op> <ptr>, <val>`
    pub fn atomicrmw(&mut self, op: RmwOp, ptr: ValueRef, val: ValueRef) -> ValueRef {
        let ty = self.value_ty(val);
        let mut inst = Instruction::new(Opcode::AtomicRmw, ty, [ptr, val]);
        inst.attrs.rmw_op = Some(op);
        inst.attrs.ordering = Some(AtomicOrdering::SeqCst);
        self.push(inst)
    }

    /// `cmpxchg <ptr>, <expected>, <replacement>`; result is
    /// `{ <ty>, i1 }`.
    pub fn cmpxchg(&mut self, ptr: ValueRef, expected: ValueRef, new: ValueRef) -> ValueRef {
        let vty = self.value_ty(expected);
        let i1 = self.module.types.i1();
        let res = self.module.types.struct_(vec![vty, i1]);
        let mut inst = Instruction::new(Opcode::CmpXchg, res, [ptr, expected, new]);
        inst.attrs.ordering = Some(AtomicOrdering::SeqCst);
        self.push(inst)
    }

    /// `fence`
    pub fn fence(&mut self) -> ValueRef {
        let void = self.module.types.void();
        let mut inst = Instruction::new(Opcode::Fence, void, crate::ctx::OpVec::new());
        inst.attrs.ordering = Some(AtomicOrdering::SeqCst);
        self.push(inst)
    }

    // ---- Casts ---------------------------------------------------------------

    /// Generic cast helper.
    pub fn cast(&mut self, op: Opcode, v: ValueRef, to: TypeId) -> ValueRef {
        debug_assert_eq!(op.category(), crate::opcode::OpCategory::Cast);
        self.push(Instruction::new(op, to, [v]))
    }

    /// `trunc`
    pub fn trunc(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::Trunc, v, to)
    }

    /// `zext`
    pub fn zext(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::ZExt, v, to)
    }

    /// `sext`
    pub fn sext(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::SExt, v, to)
    }

    /// `bitcast`
    pub fn bitcast(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::BitCast, v, to)
    }

    /// `ptrtoint`
    pub fn ptrtoint(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::PtrToInt, v, to)
    }

    /// `inttoptr`
    pub fn inttoptr(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::IntToPtr, v, to)
    }

    // ---- Control flow -----------------------------------------------------

    /// `br label <dest>`
    pub fn br(&mut self, dest: BlockId) -> ValueRef {
        let void = self.module.types.void();
        self.push(Instruction::new(Opcode::Br, void, [ValueRef::Block(dest)]))
    }

    /// `br i1 <cond>, label <t>, label <f>`
    pub fn cond_br(&mut self, cond: ValueRef, t: BlockId, f: BlockId) -> ValueRef {
        let void = self.module.types.void();
        self.push(Instruction::new(
            Opcode::Br,
            void,
            [cond, ValueRef::Block(t), ValueRef::Block(f)],
        ))
    }

    /// `switch`
    pub fn switch(
        &mut self,
        value: ValueRef,
        default: BlockId,
        cases: Vec<(i64, BlockId)>,
    ) -> ValueRef {
        let void = self.module.types.void();
        let vty = self.value_ty(value);
        let mut ops = crate::ctx::OpVec::from([value, ValueRef::Block(default)]);
        for (c, b) in cases {
            ops.push(ValueRef::const_int(vty, c));
            ops.push(ValueRef::Block(b));
        }
        self.push(Instruction::new(Opcode::Switch, void, ops))
    }

    /// `ret` / `ret void`
    pub fn ret(&mut self, v: Option<ValueRef>) -> ValueRef {
        let void = self.module.types.void();
        let ops: crate::ctx::OpVec = v.into_iter().collect();
        self.push(Instruction::new(Opcode::Ret, void, ops))
    }

    /// `unreachable`
    pub fn unreachable(&mut self) -> ValueRef {
        let void = self.module.types.void();
        self.push(Instruction::new(
            Opcode::Unreachable,
            void,
            crate::ctx::OpVec::new(),
        ))
    }

    /// `phi <ty> [v, b]...`
    pub fn phi(&mut self, ty: TypeId, incoming: Vec<(ValueRef, BlockId)>) -> ValueRef {
        let mut ops = Vec::with_capacity(incoming.len() * 2);
        for (v, b) in incoming {
            ops.push(v);
            ops.push(ValueRef::Block(b));
        }
        self.push(Instruction::new(Opcode::Phi, ty, ops))
    }

    // ---- Calls ------------------------------------------------------------

    /// `call <ret_ty> <callee>(<args>)`
    pub fn call(&mut self, ret_ty: TypeId, callee: ValueRef, args: Vec<ValueRef>) -> ValueRef {
        let mut ops = crate::ctx::OpVec::from([callee]);
        let n = args.len() as u32;
        ops.extend(args);
        let mut inst = Instruction::new(Opcode::Call, ret_ty, ops);
        inst.attrs.num_args = n;
        self.push(inst)
    }

    /// `invoke <callee>(<args>) to label <normal> unwind label <unwind>`
    pub fn invoke(
        &mut self,
        ret_ty: TypeId,
        callee: ValueRef,
        args: Vec<ValueRef>,
        normal: BlockId,
        unwind: BlockId,
    ) -> ValueRef {
        let mut ops = crate::ctx::OpVec::from([callee]);
        let n = args.len() as u32;
        ops.extend(args);
        ops.push(ValueRef::Block(normal));
        ops.push(ValueRef::Block(unwind));
        let mut inst = Instruction::new(Opcode::Invoke, ret_ty, ops);
        inst.attrs.num_args = n;
        self.push(inst)
    }

    /// `callbr <callee>(<args>) to label <fallthrough> [indirect...]`
    /// (versions >= 9.0 only).
    pub fn callbr(
        &mut self,
        ret_ty: TypeId,
        callee: ValueRef,
        args: Vec<ValueRef>,
        fallthrough: BlockId,
        indirect: Vec<BlockId>,
    ) -> ValueRef {
        let mut ops = crate::ctx::OpVec::from([callee]);
        let n = args.len() as u32;
        ops.extend(args);
        ops.push(ValueRef::Block(fallthrough));
        ops.extend(indirect.into_iter().map(ValueRef::Block));
        let mut inst = Instruction::new(Opcode::CallBr, ret_ty, ops);
        inst.attrs.num_args = n;
        self.push(inst)
    }

    /// `freeze` (versions >= 10.0 only).
    pub fn freeze(&mut self, v: ValueRef) -> ValueRef {
        let ty = self.value_ty(v);
        self.push(Instruction::new(Opcode::Freeze, ty, [v]))
    }

    /// `addrspacecast` (versions >= 3.6 only).
    pub fn addrspacecast(&mut self, v: ValueRef, to: TypeId) -> ValueRef {
        self.cast(Opcode::AddrSpaceCast, v, to)
    }

    // ---- Vectors / aggregates ----------------------------------------------

    /// `extractelement`
    pub fn extractelement(&mut self, vec: ValueRef, idx: ValueRef, elem_ty: TypeId) -> ValueRef {
        self.push(Instruction::new(
            Opcode::ExtractElement,
            elem_ty,
            [vec, idx],
        ))
    }

    /// `insertelement`
    pub fn insertelement(&mut self, vec: ValueRef, elem: ValueRef, idx: ValueRef) -> ValueRef {
        let ty = self.value_ty(vec);
        self.push(Instruction::new(
            Opcode::InsertElement,
            ty,
            [vec, elem, idx],
        ))
    }

    /// `extractvalue`
    pub fn extractvalue(&mut self, agg: ValueRef, indices: Vec<u64>, ty: TypeId) -> ValueRef {
        let mut inst = Instruction::new(Opcode::ExtractValue, ty, [agg]);
        inst.attrs.indices = indices;
        self.push(inst)
    }

    /// `insertvalue`
    pub fn insertvalue(&mut self, agg: ValueRef, val: ValueRef, indices: Vec<u64>) -> ValueRef {
        let ty = self.value_ty(agg);
        let mut inst = Instruction::new(Opcode::InsertValue, ty, [agg, val]);
        inst.attrs.indices = indices;
        self.push(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;
    use crate::version::IrVersion;

    #[test]
    fn builds_a_loop() {
        let mut m = Module::new("loop", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.position_at_end(entry);
        b.br(header);
        b.position_at_end(header);
        let phi = b.phi(i32t, vec![(ValueRef::const_int(i32t, 0), entry)]);
        let cond = b.icmp(IntPredicate::Slt, phi, ValueRef::const_int(i32t, 10));
        b.cond_br(cond, body, exit);
        b.position_at_end(body);
        let next = b.add(phi, ValueRef::const_int(i32t, 1));
        b.br(header);
        // patch the phi with the back edge
        if let ValueRef::Inst(pid) = phi {
            let func = m.func_mut(f);
            let inst = func.inst_mut(pid);
            inst.operands.push(next);
            inst.operands.push(ValueRef::Block(body));
        }
        let mut b = FuncBuilder::new(&mut m, f);
        b.position_at_end(exit);
        b.ret(Some(phi));
        assert_eq!(m.func(f).blocks.len(), 4);
        assert_eq!(
            m.func(f).inst(crate::value::InstId::new(0)).opcode,
            Opcode::Br
        );
        assert_eq!(
            m.func(f).inst(crate::value::InstId::new(2)).opcode,
            Opcode::ICmp
        );
    }

    #[test]
    fn call_and_memory_helpers() {
        let mut m = Module::new("t", IrVersion::V13_0);
        let i32t = m.types.i32();
        let callee = m.add_func(Function::external("ext", i32t, vec![]));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let slot = b.alloca(i32t);
        let r = b.call(i32t, ValueRef::Func(callee), vec![]);
        b.store(r, slot);
        let v = b.load(i32t, slot);
        b.ret(Some(v));
        assert_eq!(m.func(f).inst_count(), 5);
    }

    #[test]
    fn result_types_survive_a_text_round_trip() {
        // The reader infers a compare's and a select's result type from
        // the operands; the builder must have typed them the same way,
        // functions and globals as their addresses.
        let mut m = Module::new("t", IrVersion::V13_0);
        let i1 = m.types.i1();
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let v4 = m.types.vector(i32t, 4);
        let v2 = m.types.vector(f64t, 2);
        let global = |name: &str| crate::module::Global {
            name: name.into(),
            ty: i32t,
            init: crate::module::GlobalInit::Int(0),
            is_const: false,
        };
        let a = m.add_global(global("a"));
        let c = m.add_global(global("c"));
        let param = |name: &str, ty| Param {
            name: name.into(),
            ty,
        };
        let void = m.types.void();
        let g = m.add_func(crate::module::Function::external("g", void, vec![]));
        let h = m.add_func(crate::module::Function::external("h", void, vec![]));
        let params = vec![param("v", v4), param("w", v2), param("p", i1)];
        let f = FuncBuilder::define(&mut m, "main", i32t, params);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.icmp(IntPredicate::Eq, ValueRef::Arg(0), ValueRef::Arg(0));
        b.fcmp(FloatPredicate::Olt, ValueRef::Arg(1), ValueRef::Arg(1));
        b.select(ValueRef::Arg(2), ValueRef::Func(g), ValueRef::Func(h));
        let sel = b.select(ValueRef::Arg(2), ValueRef::Global(a), ValueRef::Global(c));
        let x = b.load(i32t, sel);
        b.ret(Some(x));

        let back = crate::parse::parse_module(&crate::write::write_module(&m)).expect("reparse");
        let main = back.func_by_name("main").expect("main");
        let (built, read) = (m.func(f), back.func(main));
        let pairs = built.blocks[0].insts.iter().zip(&read.blocks[0].insts);
        assert_eq!(pairs.len(), 6);
        for (&x, &y) in pairs {
            let (x, y) = (built.inst(x), read.inst(y));
            assert_eq!(
                m.types.display(x.ty).to_string(),
                back.types.display(y.ty).to_string(),
                "{:?}",
                x.opcode
            );
        }
    }

    #[test]
    #[should_panic(expected = "no insertion point")]
    fn pushing_without_position_panics() {
        let mut m = Module::new("t", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        b.ret(None);
    }
}
