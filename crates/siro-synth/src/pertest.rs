//! Per-test translators (Def. 4.4, Alg. 3) and their differential-testing
//! validation (Fig. 6).
//!
//! For one test case, every instruction location gets a box that can be
//! filled with a candidate atomic translator; enumerating the boxes yields
//! per-test translators, each validated by translating the whole test case,
//! "compiling" it (verifier + backend feasibility), executing it, and
//! comparing the result against the test's oracle.
//!
//! Optimization I lives here in both of its forms: locations with the same
//! `(kind, σ&)` share one box, and candidates whose probe against the
//! actual instructions produces identical IR are merged into equivalence
//! classes enumerated through a single representative.

use std::cell::Cell;

use siro_api::{ApiProgram, ApiRegistry, PredConj, TranslationCtx};
use siro_core::{InstTranslator, Skeleton, TranslateResult};
use siro_ir::{interp::Machine, verify, IrVersion, Module, Opcode};

/// A test case in the form the synthesizer consumes: a module plus its
/// execution oracle.
#[derive(Debug, Clone)]
pub struct OracleTest {
    /// Case name (diagnostics only).
    pub name: String,
    /// The source-version program.
    pub module: Module,
    /// The constant `main` must return.
    pub oracle: i64,
}

/// One enumeration box: a set of locations sharing `(kind, σ&)` plus the
/// candidate domain for those locations.
#[derive(Debug, Clone)]
pub struct Slot {
    /// The instruction kind.
    pub kind: Opcode,
    /// The shared predicate conjunction.
    pub conj: PredConj,
    /// The locations this box fills.
    pub locs: Vec<usize>,
    /// Equivalence classes of candidate indices (into Λ*_kind); each class
    /// is enumerated through its first element.
    pub groups: Vec<Vec<usize>>,
}

impl Slot {
    /// Expands a representative back to its full equivalence class.
    pub fn expand(&self, rep: usize) -> &[usize] {
        self.groups
            .iter()
            .find(|g| g[0] == rep)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The enumeration structure for one test case.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// The boxes.
    pub slots: Vec<Slot>,
    /// location -> slot index.
    pub slot_of_loc: Vec<usize>,
}

impl Enumeration {
    /// Total number of per-test translators (product of representative
    /// counts), without materialising them.
    pub fn assignment_count(&self) -> u128 {
        self.slots.iter().map(|s| s.groups.len() as u128).product()
    }

    /// Decodes assignment number `n` (mixed radix) into one representative
    /// candidate index per slot.
    pub fn decode(&self, mut n: u128) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            let base = s.groups.len() as u128;
            let d = (n % base) as usize;
            n /= base;
            out.push(s.groups[d][0]);
        }
        out
    }
}

/// Probes one candidate against one concrete instruction: sets up a fresh
/// translation context (blocks pre-mapped, functions pre-registered), runs
/// the candidate, and returns a structural signature of what it built.
///
/// # Errors
///
/// Returns the candidate's translation failure, which removes it from the
/// location's domain (the "reject at an early stage" effect of §6.4).
pub fn probe_candidate(
    registry: &ApiRegistry,
    module: &Module,
    row: &crate::profile::ProfiledInst,
    program: &ApiProgram,
) -> Result<String, siro_api::ApiError> {
    let mut ctx = TranslationCtx::new(module, registry.tgt_version);
    for f in module.func_ids() {
        ctx.clone_signature(f);
    }
    let tgt_f = ctx.translate_func(row.func)?;
    ctx.begin_function(row.func, tgt_f);
    let func = module.func(row.func);
    for b in func.block_ids() {
        let name = func.block(b).name.clone();
        let tb = ctx.tgt.func_mut(tgt_f).add_block(name);
        ctx.map_block(b, tb);
    }
    let tb = ctx.translate_block(row.block)?;
    ctx.set_insertion(tb);
    let out = program.run(registry, &mut ctx, row.inst)?;
    // Structural signature: every instruction the candidate built plus the
    // value it returned. Identical signatures => equivalent behaviour on
    // this instruction (Optimization I's object-equivalence merging).
    let built = &ctx.tgt.func(tgt_f).insts;
    Ok(format!("{out:?} | {built:?}"))
}

/// The per-test translator of Alg. 3: dispatches each location to its
/// assigned candidate, relying on the skeleton's deterministic traversal
/// order (the location profiler uses the same order).
pub struct PerTestTranslator<'a> {
    registry: &'a ApiRegistry,
    /// Program per location.
    programs: Vec<&'a ApiProgram>,
    counter: Cell<usize>,
}

impl std::fmt::Debug for PerTestTranslator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PerTestTranslator({} locations)", self.programs.len())
    }
}

impl<'a> PerTestTranslator<'a> {
    /// Creates a per-test translator from one program per location.
    pub fn new(registry: &'a ApiRegistry, programs: Vec<&'a ApiProgram>) -> Self {
        PerTestTranslator {
            registry,
            programs,
            counter: Cell::new(0),
        }
    }
}

impl InstTranslator for PerTestTranslator<'_> {
    fn translate_inst(
        &self,
        ctx: &mut TranslationCtx<'_>,
        inst: siro_ir::InstId,
    ) -> TranslateResult<siro_ir::ValueRef> {
        let loc = self.counter.get();
        self.counter.set(loc + 1);
        let program = self.programs.get(loc).ok_or_else(|| {
            siro_core::TranslateError::Ir(siro_ir::IrError::Other(format!(
                "location {loc} beyond the profile table"
            )))
        })?;
        Ok(program.run(self.registry, ctx, inst)?)
    }
}

/// Timing split of one validation (translate+compile vs execute).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidationTiming {
    /// Nanoseconds spent translating and "compiling" (verify + backend
    /// check).
    pub translate_compile_ns: u64,
    /// Nanoseconds spent executing the translated program.
    pub execute_ns: u64,
}

/// Validates one per-test translator assignment against the oracle
/// (Fig. 6): translate, compile (verify + backend-feasibility check),
/// execute, and compare the returned constant.
#[allow(clippy::too_many_arguments)]
pub fn validate_assignment(
    registry: &ApiRegistry,
    test: &OracleTest,
    enumeration: &Enumeration,
    per_kind: &std::collections::HashMap<Opcode, Vec<ApiProgram>>,
    assignment: &[usize],
    target: IrVersion,
    timing: &mut ValidationTiming,
) -> bool {
    debug_assert_eq!(target, registry.tgt_version);
    let t0 = std::time::Instant::now();
    let programs: Vec<&ApiProgram> = enumeration
        .slot_of_loc
        .iter()
        .map(|&si| {
            let slot = &enumeration.slots[si];
            &per_kind[&slot.kind][assignment[si]]
        })
        .collect();
    let translator = PerTestTranslator::new(registry, programs);
    let skel = Skeleton::new(registry.tgt_version);
    let translated = match skel.translate_module(&test.module, &translator) {
        Ok(m) => m,
        Err(_) => {
            timing.translate_compile_ns += t0.elapsed().as_nanos() as u64;
            siro_trace::counter("synth.validate_translate_rejects", 1);
            return false;
        }
    };
    let compiled =
        verify::verify_module(&translated).is_ok() && verify::codegen_check(&translated).is_ok();
    timing.translate_compile_ns += t0.elapsed().as_nanos() as u64;
    if !compiled {
        siro_trace::counter("synth.validate_compile_rejects", 1);
        return false;
    }
    siro_trace::counter("synth.validate_executions", 1);
    let t1 = std::time::Instant::now();
    let ok = Machine::new(&translated)
        .with_fuel(200_000)
        .run_main()
        .map(|o| o.return_int() == Some(test.oracle))
        .unwrap_or(false);
    timing.execute_ns += t1.elapsed().as_nanos() as u64;
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candgen::{generate_for_kind, GenLimits};
    use crate::profile::profile_module;
    use crate::typegraph::TypeGraph;
    use siro_ir::{FuncBuilder, ValueRef};

    fn uncond_br_test() -> OracleTest {
        let mut m = Module::new("t", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        let x = b.add_block("exit");
        b.position_at_end(e);
        b.br(x);
        b.position_at_end(x);
        b.ret(Some(ValueRef::const_int(i32t, 5)));
        OracleTest {
            name: "uncond".into(),
            module: m,
            oracle: 5,
        }
    }

    #[test]
    fn probe_prunes_wrong_subkind_candidates() {
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let graph = TypeGraph::new(&reg);
        let br_cands = generate_for_kind(&graph, Opcode::Br, GenLimits::default());
        let test = uncond_br_test();
        let table = profile_module(&reg, &test.module).unwrap();
        let br_row = &table.rows[0];
        assert_eq!(br_row.kind, Opcode::Br);
        let mut ok = 0;
        let mut dead = 0;
        for c in &br_cands {
            match probe_candidate(&reg, &test.module, br_row, c) {
                Ok(_) => ok += 1,
                Err(_) => dead += 1,
            }
        }
        // Conditional-branch candidates (needing get_condition /
        // successor 1) must die on an unconditional branch.
        assert!(ok >= 1, "no candidate survived the probe");
        assert!(dead > ok, "probe pruned nothing: ok={ok}, dead={dead}");
    }

    #[test]
    fn probe_signatures_merge_aliases() {
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let graph = TypeGraph::new(&reg);
        let br_cands = generate_for_kind(&graph, Opcode::Br, GenLimits::default());
        let test = uncond_br_test();
        let table = profile_module(&reg, &test.module).unwrap();
        let row = &table.rows[0];
        // get_successor(0) and get_block_operand(0) produce identical IR for
        // an unconditional branch -> identical signatures.
        let find = |needle: &str| {
            br_cands
                .iter()
                .find(|c| c.summary(&reg) == needle)
                .unwrap_or_else(|| panic!("candidate {needle} not generated"))
        };
        let a = find("create_br(translate_block(get_successor(inst, const_0())))");
        let b = find("create_br(translate_block(get_block_operand(inst, const_0())))");
        let sa = probe_candidate(&reg, &test.module, row, a).unwrap();
        let sb = probe_candidate(&reg, &test.module, row, b).unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn enumeration_counts_and_decoding() {
        let e = Enumeration {
            slots: vec![
                Slot {
                    kind: Opcode::Br,
                    conj: PredConj::new(),
                    locs: vec![0],
                    groups: vec![vec![3], vec![5, 6]],
                },
                Slot {
                    kind: Opcode::Ret,
                    conj: PredConj::new(),
                    locs: vec![1],
                    groups: vec![vec![0], vec![1], vec![2]],
                },
            ],
            slot_of_loc: vec![0, 1],
        };
        assert_eq!(e.assignment_count(), 6);
        assert_eq!(e.decode(0), vec![3, 0]);
        assert_eq!(e.decode(1), vec![5, 0]);
        assert_eq!(e.decode(5), vec![5, 2]);
        assert_eq!(e.slots[0].expand(5), &[5, 6]);
    }
}
