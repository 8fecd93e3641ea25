//! The versioned WIR builder/getter registry.
//!
//! WIR's API surface evolves across the catalog in the paper's three
//! breakage shapes, mirroring how [`siro_api::ApiRegistry`] evolves for the
//! Siro family:
//!
//! * **renames** — every builder is `emit_*` in 1.0 and `build_*` from 2.0;
//! * **reordered parameters** — the binop builder takes `(type, op)` before
//!   3.0 and `(op, type)` from 3.0;
//! * **representation migrations** — 3.0 replaces the symbolic call builder
//!   with `build_call_ref` (opaque function references), and versions
//!   lacking `select`/`local.tee`/`br_table` offer *composite* builders
//!   (`emit_select_via_branch`, …) that expand to supported sequences.
//!
//! The synthesizer (`siro_synth::wir`) searches this registry directly:
//! for each instruction kind it tries the target version's builders,
//! fills every parameter with the source getter whose return type matches
//! it ([`WirRegistry::args_for`]), and keeps a builder only when its output
//! passes differential validation.

use siro_api::ApiKind;

use crate::inst::{WBin, WCmp, WTy, WirInst};
use crate::module::WirFunc;
use crate::version::WirVersion;

/// Types in WIR's component signatures.
///
/// Each getter returns a distinct type, so a builder parameter's type
/// uniquely determines which getter feeds it — the property the candidate
/// search exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WirApiType {
    /// A value type (`i32`/`i64`).
    ValTy,
    /// A binary operator kind.
    BinKind,
    /// A comparison kind.
    CmpKind,
    /// A constant value.
    ConstVal,
    /// A local index.
    LocalIdx,
    /// A function reference.
    FuncIdx,
    /// A relative branch depth.
    Depth,
    /// A branch table (targets + default).
    Table,
    /// No value (builder return type).
    Void,
}

/// A runtime value in WIR's component signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirApiValue {
    /// A value type.
    ValTy(WTy),
    /// A binop kind.
    Bin(WBin),
    /// A comparison kind.
    Cmp(WCmp),
    /// A constant.
    Const(i64),
    /// A local index.
    Local(u32),
    /// A function reference.
    Func(u32),
    /// A branch depth.
    Depth(u32),
    /// A branch table.
    Table(Vec<u32>),
}

impl WirApiValue {
    /// The value's static type.
    pub fn ty(&self) -> WirApiType {
        match self {
            WirApiValue::ValTy(_) => WirApiType::ValTy,
            WirApiValue::Bin(_) => WirApiType::BinKind,
            WirApiValue::Cmp(_) => WirApiType::CmpKind,
            WirApiValue::Const(_) => WirApiType::ConstVal,
            WirApiValue::Local(_) => WirApiType::LocalIdx,
            WirApiValue::Func(_) => WirApiType::FuncIdx,
            WirApiValue::Depth(_) => WirApiType::Depth,
            WirApiValue::Table(_) => WirApiType::Table,
        }
    }
}

/// Build context handed to builder components: the function under
/// construction (body + scratch-local allocation) at the target version.
#[derive(Debug)]
pub struct WirEmit<'f> {
    /// The target version being built for.
    pub version: WirVersion,
    /// The function being appended to.
    pub func: &'f mut WirFunc,
}

impl WirEmit<'_> {
    fn push(&mut self, inst: WirInst) {
        self.func.body.alloc(inst);
    }
}

type BuildFn = fn(&mut WirEmit<'_>, &[WirApiValue]) -> Result<(), String>;
type GetFn = fn(&WirInst) -> Option<WirApiValue>;

/// A component implementation: target-side builder or source-side getter.
#[derive(Clone)]
pub enum WirApiImpl {
    /// Appends instructions to a [`WirEmit`].
    Build(BuildFn),
    /// Extracts a value from a source instruction (`None` if the
    /// instruction does not carry it).
    Get(GetFn),
}

impl std::fmt::Debug for WirApiImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WirApiImpl::Build(_) => "Build(..)",
            WirApiImpl::Get(_) => "Get(..)",
        })
    }
}

/// One registered component.
#[derive(Debug, Clone)]
pub struct WirApiFn {
    /// Version-dependent name.
    pub name: String,
    /// Component family.
    pub kind: ApiKind,
    /// Parameter types.
    pub params: Vec<WirApiType>,
    /// Return type ([`WirApiType::Void`] for builders).
    pub ret: WirApiType,
    /// The implementation.
    pub imp: WirApiImpl,
}

/// The component library of one WIR version.
#[derive(Debug, Clone)]
pub struct WirRegistry {
    /// The version the registry describes.
    pub version: WirVersion,
    fns: Vec<WirApiFn>,
}

macro_rules! arg {
    ($args:expr, $i:expr, $variant:ident) => {
        match &$args[$i] {
            WirApiValue::$variant(v) => v.clone(),
            other => return Err(format!("arg {} has wrong type: {other:?}", $i)),
        }
    };
}

fn b_const(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let ty = arg!(a, 0, ValTy);
    let v = arg!(a, 1, Const);
    e.push(WirInst::Const(ty, v));
    Ok(())
}

fn b_binop_ty_op(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let ty = arg!(a, 0, ValTy);
    let op = arg!(a, 1, Bin);
    e.push(WirInst::Binop(ty, op));
    Ok(())
}

fn b_binop_op_ty(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let op = arg!(a, 0, Bin);
    let ty = arg!(a, 1, ValTy);
    e.push(WirInst::Binop(ty, op));
    Ok(())
}

fn b_cmp(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let ty = arg!(a, 0, ValTy);
    let op = arg!(a, 1, Cmp);
    e.push(WirInst::Cmp(ty, op));
    Ok(())
}

fn b_eqz(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let ty = arg!(a, 0, ValTy);
    e.push(WirInst::Eqz(ty));
    Ok(())
}

fn b_local_get(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let i = arg!(a, 0, Local);
    e.push(WirInst::LocalGet(i));
    Ok(())
}

fn b_local_set(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let i = arg!(a, 0, Local);
    e.push(WirInst::LocalSet(i));
    Ok(())
}

fn b_local_tee(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let i = arg!(a, 0, Local);
    e.push(WirInst::LocalTee(i));
    Ok(())
}

/// Composite for pre-2.0 targets: `tee i` expands to `set i; get i`.
fn b_tee_via_set_get(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let i = arg!(a, 0, Local);
    e.push(WirInst::LocalSet(i));
    e.push(WirInst::LocalGet(i));
    Ok(())
}

fn b_select(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Select);
    Ok(())
}

/// Composite for pre-2.0 targets: `select` (on i32 operands) expands to a
/// branch diamond over scratch locals.
fn b_select_via_branch(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    let lc = e.func.alloc_local(WTy::I32); // condition
    let lb = e.func.alloc_local(WTy::I32); // if-false value
    let la = e.func.alloc_local(WTy::I32); // if-true value
    let lr = e.func.alloc_local(WTy::I32); // result
    e.push(WirInst::LocalSet(lc));
    e.push(WirInst::LocalSet(lb));
    e.push(WirInst::LocalSet(la));
    e.push(WirInst::LocalGet(lb));
    e.push(WirInst::LocalSet(lr));
    e.push(WirInst::Block);
    e.push(WirInst::LocalGet(lc));
    e.push(WirInst::Eqz(WTy::I32));
    e.push(WirInst::BrIf(0));
    e.push(WirInst::LocalGet(la));
    e.push(WirInst::LocalSet(lr));
    e.push(WirInst::End);
    e.push(WirInst::LocalGet(lr));
    Ok(())
}

fn b_drop(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Drop);
    Ok(())
}

fn b_nop(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Nop);
    Ok(())
}

fn b_block(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Block);
    Ok(())
}

fn b_loop(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Loop);
    Ok(())
}

fn b_end(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::End);
    Ok(())
}

fn b_br(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let d = arg!(a, 0, Depth);
    e.push(WirInst::Br(d));
    Ok(())
}

fn b_br_if(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let d = arg!(a, 0, Depth);
    e.push(WirInst::BrIf(d));
    Ok(())
}

fn b_br_table(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let t = arg!(a, 0, Table);
    e.push(WirInst::BrTable(t));
    Ok(())
}

/// Composite for pre-3.0 targets: `br_table` expands to an `eq`/`br_if`
/// chain over a scratch local, ending in an unconditional `br` to the
/// default target. Emitted depths are unchanged — the expansion opens no
/// new block.
fn b_br_table_via_chain(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let t = arg!(a, 0, Table);
    let (default, cases) = t.split_last().ok_or("empty branch table")?;
    let li = e.func.alloc_local(WTy::I32);
    e.push(WirInst::LocalSet(li));
    for (k, d) in cases.iter().enumerate() {
        e.push(WirInst::LocalGet(li));
        e.push(WirInst::Const(WTy::I32, k as i64));
        e.push(WirInst::Cmp(WTy::I32, WCmp::Eq));
        e.push(WirInst::BrIf(*d));
    }
    e.push(WirInst::Br(*default));
    Ok(())
}

fn b_return(e: &mut WirEmit<'_>, _a: &[WirApiValue]) -> Result<(), String> {
    e.push(WirInst::Return);
    Ok(())
}

fn b_call(e: &mut WirEmit<'_>, a: &[WirApiValue]) -> Result<(), String> {
    let f = arg!(a, 0, Func);
    e.push(WirInst::Call(f));
    Ok(())
}

fn g_value_type(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Const(ty, _) | WirInst::Binop(ty, _) | WirInst::Cmp(ty, _) | WirInst::Eqz(ty) => {
            Some(WirApiValue::ValTy(*ty))
        }
        _ => None,
    }
}

fn g_const_value(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Const(_, v) => Some(WirApiValue::Const(*v)),
        _ => None,
    }
}

fn g_binop_kind(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Binop(_, op) => Some(WirApiValue::Bin(*op)),
        _ => None,
    }
}

fn g_cmp_kind(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Cmp(_, op) => Some(WirApiValue::Cmp(*op)),
        _ => None,
    }
}

fn g_local_index(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::LocalGet(n) | WirInst::LocalSet(n) | WirInst::LocalTee(n) => {
            Some(WirApiValue::Local(*n))
        }
        _ => None,
    }
}

fn g_branch_depth(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Br(d) | WirInst::BrIf(d) => Some(WirApiValue::Depth(*d)),
        _ => None,
    }
}

fn g_branch_table(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::BrTable(t) => Some(WirApiValue::Table(t.clone())),
        _ => None,
    }
}

fn g_callee(i: &WirInst) -> Option<WirApiValue> {
    match i {
        WirInst::Call(f) => Some(WirApiValue::Func(*f)),
        _ => None,
    }
}

impl WirRegistry {
    /// Assembles the component library of `version`.
    pub fn for_version(version: WirVersion) -> Self {
        use WirApiType::*;
        let mut fns = Vec::new();
        let mut getter = |name: &str, ret: WirApiType, get: GetFn| {
            fns.push(WirApiFn {
                name: name.to_string(),
                kind: ApiKind::Getter,
                params: Vec::new(),
                ret,
                imp: WirApiImpl::Get(get),
            });
        };
        getter("get_value_type", ValTy, g_value_type);
        getter("get_const_value", ConstVal, g_const_value);
        getter("get_binop_kind", BinKind, g_binop_kind);
        getter("get_cmp_kind", CmpKind, g_cmp_kind);
        getter("get_local_index", LocalIdx, g_local_index);
        getter("get_branch_depth", Depth, g_branch_depth);
        getter("get_branch_table", Table, g_branch_table);
        getter("get_callee", FuncIdx, g_callee);

        // Builders: `emit_*` before 2.0, `build_*` from 2.0 on.
        let p = if version.renamed_builders() {
            "build"
        } else {
            "emit"
        };
        let mut builder = |name: String, params: Vec<WirApiType>, run: BuildFn| {
            fns.push(WirApiFn {
                name,
                kind: ApiKind::Builder,
                params,
                ret: Void,
                imp: WirApiImpl::Build(run),
            });
        };
        builder(format!("{p}_const"), vec![ValTy, ConstVal], b_const);
        if version.reordered_binop_params() {
            builder(format!("{p}_binop"), vec![BinKind, ValTy], b_binop_op_ty);
        } else {
            builder(format!("{p}_binop"), vec![ValTy, BinKind], b_binop_ty_op);
        }
        builder(format!("{p}_cmp"), vec![ValTy, CmpKind], b_cmp);
        builder(format!("{p}_eqz"), vec![ValTy], b_eqz);
        builder(format!("{p}_local_get"), vec![LocalIdx], b_local_get);
        builder(format!("{p}_local_set"), vec![LocalIdx], b_local_set);
        if version.supports(crate::inst::WKind::LocalTee) {
            builder(format!("{p}_local_tee"), vec![LocalIdx], b_local_tee);
        } else {
            builder(
                format!("{p}_tee_via_set_get"),
                vec![LocalIdx],
                b_tee_via_set_get,
            );
        }
        if version.supports(crate::inst::WKind::Select) {
            builder(format!("{p}_select"), vec![], b_select);
        } else {
            builder(
                format!("{p}_select_via_branch"),
                vec![],
                b_select_via_branch,
            );
        }
        builder(format!("{p}_drop"), vec![], b_drop);
        builder(format!("{p}_nop"), vec![], b_nop);
        builder(format!("{p}_block"), vec![], b_block);
        builder(format!("{p}_loop"), vec![], b_loop);
        builder(format!("{p}_end"), vec![], b_end);
        builder(format!("{p}_br"), vec![Depth], b_br);
        builder(format!("{p}_br_if"), vec![Depth], b_br_if);
        if version.supports(crate::inst::WKind::BrTable) {
            builder(format!("{p}_br_table"), vec![Table], b_br_table);
        } else {
            builder(
                format!("{p}_br_table_via_chain"),
                vec![Table],
                b_br_table_via_chain,
            );
        }
        builder(format!("{p}_return"), vec![], b_return);
        if version.opaque_func_refs_in_text() {
            builder(format!("{p}_call_ref"), vec![FuncIdx], b_call);
        } else {
            builder(format!("{p}_call"), vec![FuncIdx], b_call);
        }
        WirRegistry { version, fns }
    }

    /// Every component, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &WirApiFn> {
        self.fns.iter()
    }

    /// Every builder, in registration order.
    pub fn builders(&self) -> impl Iterator<Item = &WirApiFn> {
        self.fns.iter().filter(|f| f.kind == ApiKind::Builder)
    }

    /// Looks a component up by name.
    pub fn find(&self, name: &str) -> Option<&WirApiFn> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// The getter whose return type is `ty`, if any. Return types are
    /// unique across getters, which is what makes builder-argument
    /// assignment deterministic given a builder signature.
    pub fn getter_returning(&self, ty: WirApiType) -> Option<&WirApiFn> {
        self.fns
            .iter()
            .find(|f| f.kind == ApiKind::Getter && f.ret == ty)
    }

    /// Extracts the argument list for `builder` from source instruction
    /// `inst` by running the getter matching each parameter type. `None`
    /// if some parameter cannot be sourced from this instruction — i.e.
    /// the builder is not *applicable* to it.
    pub fn args_for(&self, builder: &WirApiFn, inst: &WirInst) -> Option<Vec<WirApiValue>> {
        builder
            .params
            .iter()
            .map(|p| {
                let g = self.getter_returning(*p)?;
                match &g.imp {
                    WirApiImpl::Get(get) => get(inst),
                    WirApiImpl::Build(_) => None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_surface_encodes_the_three_quirk_families() {
        let v1 = WirRegistry::for_version(WirVersion::W1_0);
        let v2 = WirRegistry::for_version(WirVersion::W2_0);
        let v3 = WirRegistry::for_version(WirVersion::W3_0);
        // Renames.
        assert!(v1.find("emit_const").is_some());
        assert!(v1.find("build_const").is_none());
        assert!(v2.find("build_const").is_some());
        // Reordered parameters.
        let emit_binop = v1.find("emit_binop").unwrap();
        assert_eq!(
            (emit_binop.params.clone(), emit_binop.ret),
            (
                vec![WirApiType::ValTy, WirApiType::BinKind],
                WirApiType::Void
            )
        );
        assert_eq!(
            v2.find("build_binop").unwrap().params,
            vec![WirApiType::ValTy, WirApiType::BinKind]
        );
        assert_eq!(
            v3.find("build_binop").unwrap().params,
            vec![WirApiType::BinKind, WirApiType::ValTy]
        );
        // Representation migrations.
        assert!(v2.find("build_call").is_some());
        assert!(v3.find("build_call").is_none());
        assert!(v3.find("build_call_ref").is_some());
        // Composites stand in for missing instructions.
        assert!(v1.find("emit_select_via_branch").is_some());
        assert!(v2.find("build_select").is_some());
        assert!(v2.find("build_br_table_via_chain").is_some());
        assert!(v3.find("build_br_table").is_some());
    }

    #[test]
    fn getter_return_types_are_unique() {
        let r = WirRegistry::for_version(WirVersion::W2_0);
        let mut seen = std::collections::HashSet::new();
        for f in r.iter().filter(|f| f.kind == ApiKind::Getter) {
            assert!(
                seen.insert(f.ret),
                "duplicate getter return type {:?}",
                f.ret
            );
        }
    }

    #[test]
    fn args_for_derives_assignment_from_the_signature() {
        let v2 = WirRegistry::for_version(WirVersion::W2_0);
        let v3 = WirRegistry::for_version(WirVersion::W3_0);
        let inst = WirInst::Binop(WTy::I64, WBin::Xor);
        let a2 = v2.args_for(v2.find("build_binop").unwrap(), &inst).unwrap();
        assert_eq!(
            a2,
            vec![WirApiValue::ValTy(WTy::I64), WirApiValue::Bin(WBin::Xor)]
        );
        let a3 = v3.args_for(v3.find("build_binop").unwrap(), &inst).unwrap();
        assert_eq!(
            a3,
            vec![WirApiValue::Bin(WBin::Xor), WirApiValue::ValTy(WTy::I64)]
        );
        // A builder needing a table is not applicable to a binop.
        assert!(v3
            .args_for(v3.find("build_br_table").unwrap(), &inst)
            .is_none());
    }

    #[test]
    fn select_composite_behaves_like_native_select() {
        use crate::interp::{WirExec, WirMachine};
        use crate::module::WirModule;
        for (cond, want) in [(1i64, 10i64), (0, 20)] {
            let mut m = WirModule::new("t", WirVersion::W1_0);
            let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
            f.body.alloc(WirInst::Const(WTy::I32, 10));
            f.body.alloc(WirInst::Const(WTy::I32, 20));
            f.body.alloc(WirInst::Const(WTy::I32, cond));
            let reg = WirRegistry::for_version(WirVersion::W1_0);
            let b = reg.find("emit_select_via_branch").unwrap();
            let WirApiImpl::Build(run) = &b.imp else {
                panic!()
            };
            run(
                &mut WirEmit {
                    version: WirVersion::W1_0,
                    func: &mut f,
                },
                &[],
            )
            .unwrap();
            f.body.alloc(WirInst::Return);
            m.funcs.push(f);
            crate::validate::verify_module(&m).expect("composite must validate");
            assert_eq!(WirMachine::new(&m).run_main().result, WirExec::Value(want));
        }
    }
}
