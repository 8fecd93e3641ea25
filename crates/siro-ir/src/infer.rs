//! Result-type inference: the one copy of the rules by which an
//! implicit-type builder (the pre-9.0 `create_load`, `create_gep`,
//! `create_call`, … of Fig. 13) and the IR reader derive a result type
//! from operands.
//!
//! The reader, the API's builder and getter registry, and both compiled
//! tiers (push and mirror) call these functions; none keeps a copy, so
//! the tiers agree byte for byte by construction. Each rule is generic
//! over a [`Scope`] the caller supplies — the push tier's includes its
//! placeholder types, the mirror's reads the module it rewrites — and
//! fails with a `Copy` [`RuleError`], so a caller that only needs
//! "did it apply" (the mirror) maps errors with `.ok()` and allocates
//! nothing.

use crate::module::Function;
use crate::types::{Type, TypeId, TypeTable};
use crate::value::{AsmId, FuncId, ValueRef};

/// What the rules read about one side of a translation: value types,
/// functions and inline-asm types, and the type table they read and
/// intern into.
pub trait Scope {
    /// The static type of `v`, `None` when it has none. A `Global`'s type
    /// is the global's value type (the pointee of its address).
    fn value_type(&self, v: ValueRef) -> Option<TypeId>;
    /// The function a `Func` value names.
    fn func(&self, f: FuncId) -> &Function;
    /// The function type of an inline-asm value.
    fn asm_ty(&self, a: AsmId) -> TypeId;
    /// The type table, for reading.
    fn types(&self) -> &TypeTable;
    /// The type table, for interning.
    fn types_mut(&mut self) -> &mut TypeTable;
}

impl<S: Scope + ?Sized> Scope for &mut S {
    #[inline]
    fn value_type(&self, v: ValueRef) -> Option<TypeId> {
        (**self).value_type(v)
    }
    #[inline]
    fn func(&self, f: FuncId) -> &Function {
        (**self).func(f)
    }
    #[inline]
    fn asm_ty(&self, a: AsmId) -> TypeId {
        (**self).asm_ty(a)
    }
    #[inline]
    fn types(&self) -> &TypeTable {
        (**self).types()
    }
    #[inline]
    fn types_mut(&mut self) -> &mut TypeTable {
        (**self).types_mut()
    }
}

/// Why a rule does not apply to its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleError {
    /// A global or function operand: its value is an address, whose type
    /// an implicit-type builder cannot pick.
    AddressNeedsExplicitType,
    /// The operand has no static type.
    OperandTypeUnknown,
    /// A type that should be a function type is not.
    ExpectedFunctionType,
    /// A callee value has no static type.
    UntypedCallee,
    /// A callee's type is neither a pointer nor a function type.
    CalleeNotCallable,
    /// A source callee's type is neither a pointer nor a function type.
    CalleeNotFunctionPointer,
    /// A call argument has no static type.
    UntypedCallArgument,
    /// A struct is indexed by a non-constant.
    StructGepIndexNotConstant,
    /// A struct is indexed past its last field.
    StructFieldOutOfRange,
    /// An index steps into a scalar.
    GepThroughScalar,
    /// A load's operand is not a pointer.
    LoadFromNonPointer,
    /// A GEP's base is not a pointer.
    GepOnNonPointer,
}

impl RuleError {
    /// The rule's message, as the API's errors carry it.
    pub fn message(self) -> &'static str {
        match self {
            RuleError::AddressNeedsExplicitType => "address value needs explicit type",
            RuleError::OperandTypeUnknown => "operand type unknown",
            RuleError::ExpectedFunctionType => "expected function type",
            RuleError::UntypedCallee => "untyped callee",
            RuleError::CalleeNotCallable => "callee is not callable",
            RuleError::CalleeNotFunctionPointer => "callee is not a function pointer",
            RuleError::UntypedCallArgument => "untyped call argument",
            RuleError::StructGepIndexNotConstant => "struct gep index must be constant",
            RuleError::StructFieldOutOfRange => "struct field",
            RuleError::GepThroughScalar => "gep through scalar",
            RuleError::LoadFromNonPointer => "load from non-pointer",
            RuleError::GepOnNonPointer => "gep on non-pointer",
        }
    }
}

/// The type of a value operand. Globals and functions are addresses, so
/// they are refused rather than typed.
#[inline]
pub fn operand_type<S: Scope + ?Sized>(s: &S, v: ValueRef) -> Result<TypeId, RuleError> {
    match v {
        ValueRef::Global(_) | ValueRef::Func(_) => Err(RuleError::AddressNeedsExplicitType),
        _ => s.value_type(v).ok_or(RuleError::OperandTypeUnknown),
    }
}

/// The type two operands share (binary operators, `select`, compares):
/// the first's, else the second's — whose error wins when neither has one.
#[inline]
pub fn shared_operand_type<S: Scope + ?Sized>(
    s: &S,
    a: ValueRef,
    b: ValueRef,
) -> Result<TypeId, RuleError> {
    operand_type(s, a).or_else(|_| operand_type(s, b))
}

/// The type of a pointer operand: a global stands for its address,
/// `ptr(global.ty)`; anything else is an [`operand_type`].
#[inline]
fn pointer_operand_type<S: Scope + ?Sized>(s: &mut S, v: ValueRef) -> Result<TypeId, RuleError> {
    match v {
        ValueRef::Global(_) => {
            let ty = s.value_type(v).ok_or(RuleError::OperandTypeUnknown)?;
            Ok(s.types_mut().ptr(ty))
        }
        _ => operand_type(s, v),
    }
}

/// The result type of an implicit-type load from `p`: its pointee.
#[inline]
pub fn load_type<S: Scope + ?Sized>(s: &mut S, p: ValueRef) -> Result<TypeId, RuleError> {
    let pty = pointer_operand_type(s, p)?;
    s.types().pointee(pty).ok_or(RuleError::LoadFromNonPointer)
}

/// The source element type of an implicit-type GEP on `base`: its
/// pointee.
#[inline]
pub fn gep_source_type<S: Scope + ?Sized>(s: &mut S, base: ValueRef) -> Result<TypeId, RuleError> {
    let pty = pointer_operand_type(s, base)?;
    s.types().pointee(pty).ok_or(RuleError::GepOnNonPointer)
}

/// The return type of function type `ty`.
#[inline]
pub fn fn_ret(types: &TypeTable, ty: TypeId) -> Result<TypeId, RuleError> {
    match types.get(ty) {
        Type::Func { ret, .. } => Ok(*ret),
        _ => Err(RuleError::ExpectedFunctionType),
    }
}

/// The return type of a call through `callee`: a function's, an inline
/// asm's, or that of the function type behind a typed pointer.
#[inline]
pub fn callee_ret<S: Scope + ?Sized>(s: &S, callee: ValueRef) -> Result<TypeId, RuleError> {
    let types = s.types();
    match callee {
        ValueRef::Func(f) => Ok(s.func(f).ret_ty),
        ValueRef::InlineAsm(a) => fn_ret(types, s.asm_ty(a)),
        v => {
            let ty = s.value_type(v).ok_or(RuleError::UntypedCallee)?;
            match types.get(ty) {
                Type::Ptr { pointee, .. } => fn_ret(types, *pointee),
                Type::Func { .. } => fn_ret(types, ty),
                _ => Err(RuleError::CalleeNotCallable),
            }
        }
    }
}

/// The element type a GEP with source element type `src` addresses:
/// `indices` (the GEP's own, the leading one included) walk arrays,
/// vectors and, by constant index, structs. The GEP's result is a
/// pointer to it.
#[inline]
pub(crate) fn gep_elem(
    types: &TypeTable,
    src: TypeId,
    indices: &[ValueRef],
) -> Result<TypeId, RuleError> {
    let mut cur = src;
    for idx in indices.iter().skip(1) {
        cur = match types.get(cur) {
            Type::Array { elem, .. } | Type::Vector { elem, .. } => *elem,
            Type::Struct { fields } => {
                let i = idx.as_int().ok_or(RuleError::StructGepIndexNotConstant)?;
                *fields
                    .get(i as usize)
                    .ok_or(RuleError::StructFieldOutOfRange)?
            }
            _ => return Err(RuleError::GepThroughScalar),
        };
    }
    Ok(cur)
}

/// The result type of a GEP: a pointer to the element type that
/// `indices` (the GEP's own, the leading one included) walk to from
/// `src` through arrays, vectors and, by constant index, structs.
#[inline]
pub fn gep_result(
    types: &mut TypeTable,
    src: TypeId,
    indices: &[ValueRef],
) -> Result<TypeId, RuleError> {
    let elem = gep_elem(types, src, indices)?;
    Ok(types.ptr(elem))
}

/// The result type of a compare over operands of type `operand_ty`:
/// `i1`, or a vector of `i1` as wide as a vector operand.
#[inline]
pub(crate) fn cmp_result(types: &mut TypeTable, operand_ty: TypeId) -> TypeId {
    match *types.get(operand_ty) {
        Type::Vector { len, .. } => {
            let i1 = types.i1();
            types.vector(i1, len)
        }
        _ => types.i1(),
    }
}

/// The result type of an implicit-type compare of `a` and `b`.
#[inline]
pub fn cmp_type<S: Scope + ?Sized>(
    s: &mut S,
    a: ValueRef,
    b: ValueRef,
) -> Result<TypeId, RuleError> {
    let ty = shared_operand_type(s, a, b)?;
    Ok(cmp_result(s.types_mut(), ty))
}

/// The function type a call through `callee` uses, on the source side
/// (the `get_callee_type` getter that post-9.0 builders need). A direct
/// callee gives its signature, a pointer to a function type its pointee.
/// Opaque-pointer dialects erase the pointee, so for any other pointer the
/// type is rebuilt from the call site — its result type `ret` and the
/// types of `args` — as LLVM's opaque-pointer migration does.
#[inline]
pub fn callee_type<S: Scope + ?Sized>(
    s: &mut S,
    callee: ValueRef,
    ret: TypeId,
    args: &[ValueRef],
) -> Result<TypeId, RuleError> {
    let pointee = match callee {
        ValueRef::Func(f) => {
            let (ret, params, varargs) = signature(s.func(f));
            return Ok(func_type(s.types_mut(), ret, params, varargs));
        }
        ValueRef::InlineAsm(a) => return Ok(s.asm_ty(a)),
        v => {
            let ty = s.value_type(v).ok_or(RuleError::UntypedCallee)?;
            match s.types().get(ty) {
                Type::Ptr { pointee, .. } => *pointee,
                Type::Func { .. } => return Ok(ty),
                _ => return Err(RuleError::CalleeNotFunctionPointer),
            }
        }
    };
    if matches!(s.types().get(pointee), Type::Func { .. }) {
        return Ok(pointee);
    }
    let params = args
        .iter()
        .map(|&a| s.value_type(a).ok_or(RuleError::UntypedCallArgument))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(s.types_mut().func(ret, params))
}

/// A function's signature: return type, parameter types, varargs.
pub fn signature(f: &Function) -> (TypeId, Vec<TypeId>, bool) {
    (f.ret_ty, f.params.iter().map(|p| p.ty).collect(), f.varargs)
}

/// Interns the function type of a signature.
pub fn func_type(types: &mut TypeTable, ret: TypeId, params: Vec<TypeId>, varargs: bool) -> TypeId {
    if varargs {
        types.func_varargs(ret, params)
    } else {
        types.func(ret, params)
    }
}
