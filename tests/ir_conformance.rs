//! Cross-crate IR conformance suite — the behavioral contract of `siro-ir`.
//!
//! Every externally observable behavior of the IR layer is pinned here
//! against committed golden files: the exact serialized text of a corpus of
//! modules at **every** version in [`IrVersion::CATALOG`], the verifier
//! verdict for each (including error messages), the reader's verdict on the
//! writer's output and on text it did not write (Tab. 4 projects, seeded
//! mutants, hand-written quirks), the interpreter outcome (result, step
//! count, event stream, leak accounting), and the byte-exact output of
//! synthesized translation for representative version pairs.
//!
//! The suite exists so that representation changes inside `siro-ir` (such
//! as the arena/`Ptr<T>` core) can be proven to be *no-behavior-change*
//! refactors: the goldens were generated from the pre-arena tree and must
//! keep passing bit-for-bit afterwards.
//!
//! The suite is dialect-generic: a parallel WIR section pins the same
//! contract (text, verify verdict, reparse fixpoint, interpreter outcome)
//! for every version in [`WirVersion::CATALOG`] — the `wir_conformance`
//! CI lane runs exactly these `wir_*` tests.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! SIRO_REGEN_GOLDEN=1 cargo test --test ir_conformance
//! ```

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use siro::core::Skeleton;
use siro::ir::{interp, parse, verify, write, IrVersion, Module, Opcode};
use siro::synth::{oracle_corpus, SynthesisConfig, SynthesisOutcome, TranslatorCache};
use siro::wir::{self, WKind, WirModule, WirVersion};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ir_conformance")
}

fn version_slug(v: IrVersion) -> String {
    format!("v{}_{}", v.major(), v.minor())
}

/// Deterministic corpus for one version: every hand-written test case (the
/// 68-case corpus covers the full opcode catalog, including the EH family,
/// `callbr`, `freeze`, atomics, vectors, and inline asm) plus a batch of
/// seeded generator programs for shape diversity.
fn corpus(version: IrVersion) -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for case in siro::testcases::full_corpus() {
        out.push((format!("case:{}", case.name), case.build(version)));
    }
    let seed = 0x51D0_C0DE ^ (u64::from(version.major()) << 8) ^ u64::from(version.minor());
    for case in siro::testcases::gen::generate_cases(seed, 6, version) {
        out.push((format!("gen:{}", case.name), case.module));
    }
    out
}

/// Renders every observable fact about `module` into a deterministic dump
/// section: serialized text, verify verdict, reparse verdict, and (when the
/// module verifies) the interpreter outcome.
fn dump_module(name: &str, module: &Module) -> String {
    let mut s = String::new();
    let text = write::write_module(module);
    writeln!(s, "== {name} ==").unwrap();
    writeln!(s, "-- text ({} bytes) --", text.len()).unwrap();
    s.push_str(&text);
    if !text.ends_with('\n') {
        s.push('\n');
    }
    let verdict = verify::verify_module(module);
    match &verdict {
        Ok(()) => writeln!(s, "-- verify: ok --").unwrap(),
        Err(e) => writeln!(s, "-- verify: error: {e} --").unwrap(),
    }
    match parse::parse_module(&text) {
        Ok(reparsed) => {
            let retext = write::write_module(&reparsed);
            if retext == text {
                writeln!(s, "-- reparse: ok (fixpoint) --").unwrap();
            } else {
                writeln!(s, "-- reparse: ok (NOT a fixpoint) --").unwrap();
            }
        }
        Err(e) => writeln!(s, "-- reparse: error: {e} --").unwrap(),
    }
    if verdict.is_ok() {
        match interp::Machine::new(module).with_fuel(200_000).run_main() {
            Ok(outcome) => {
                writeln!(s, "-- interp --").unwrap();
                writeln!(s, "result: {:?}", outcome.result).unwrap();
                writeln!(s, "steps: {}", outcome.steps).unwrap();
                writeln!(s, "events: {:?}", outcome.events).unwrap();
                writeln!(s, "leaked_heap: {}", outcome.leaked_heap).unwrap();
            }
            Err(e) => writeln!(s, "-- interp: error: {e} --").unwrap(),
        }
    } else {
        writeln!(s, "-- interp: skipped (verify failed) --").unwrap();
    }
    s.push('\n');
    s
}

fn dump_version(version: IrVersion) -> String {
    let mut s = format!("# siro-ir conformance dump, version {version}\n\n");
    for (name, module) in corpus(version) {
        s.push_str(&dump_module(&name, &module));
    }
    s
}

fn check_or_regen(file: &str, rendered: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("SIRO_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}; regenerate with SIRO_REGEN_GOLDEN=1",
            path.display()
        )
    });
    if rendered != golden {
        // Locate the first differing line for a readable failure.
        for (line, (a, b)) in (1usize..).zip(rendered.lines().zip(golden.lines())) {
            if a != b {
                panic!(
                    "{file} drifted from the committed golden at line {line}:\n  \
                     got:    {a}\n  golden: {b}\n\
                     The IR layer's observable behavior changed; if intentional, \
                     regenerate with SIRO_REGEN_GOLDEN=1",
                );
            }
        }
        panic!(
            "{file} drifted from the committed golden (length {} vs {}); \
             regenerate with SIRO_REGEN_GOLDEN=1 if intentional",
            rendered.len(),
            golden.len()
        );
    }
}

/// The headline conformance check: for every version in the catalog the
/// full corpus dump (text, verify verdict, reparse verdict, interpreter
/// outcome) must be byte-identical to the committed golden.
#[test]
fn golden_corpus_is_byte_identical_for_every_version() {
    for version in IrVersion::CATALOG {
        let rendered = dump_version(version);
        check_or_regen(&format!("{}.txt", version_slug(version)), &rendered);
    }
}

/// Writer output must be a parser fixpoint wherever the parser accepts it:
/// `write(parse(write(m))) == write(m)`, and the reparsed module must agree
/// with the original on the verifier verdict and interpreter outcome.
#[test]
fn write_parse_write_is_a_fixpoint_and_preserves_behavior() {
    for version in IrVersion::CATALOG {
        for (name, module) in corpus(version) {
            let text = write::write_module(&module);
            let reparsed = match parse::parse_module(&text) {
                Ok(m) => m,
                Err(_) => continue, // verdict itself is pinned by the golden dump
            };
            let retext = write::write_module(&reparsed);
            assert_eq!(retext, text, "{version} {name}: not a print fixpoint");
            let v1 = verify::verify_module(&module).map_err(|e| e.to_string());
            let v2 = verify::verify_module(&reparsed).map_err(|e| e.to_string());
            assert_eq!(v1, v2, "{version} {name}: verify verdict changed");
            if v1.is_ok() {
                let o1 = interp::Machine::new(&module).with_fuel(200_000).run_main();
                let o2 = interp::Machine::new(&reparsed)
                    .with_fuel(200_000)
                    .run_main();
                match (o1, o2) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.result, b.result, "{version} {name}: result");
                        assert_eq!(a.steps, b.steps, "{version} {name}: steps");
                        assert_eq!(a.events, b.events, "{version} {name}: events");
                    }
                    (a, b) => assert_eq!(
                        a.is_ok(),
                        b.is_ok(),
                        "{version} {name}: interp error class changed"
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader verdicts on inputs the writer's corpus does not cover
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, the digest recorded for an accepted input.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One verdict line: the digest of `write(module)` for an accepted input,
/// the cited line for a rejected one.
fn reader_verdict(label: &str, parsed: siro::ir::IrResult<Module>) -> String {
    match parsed {
        Ok(m) => format!(
            "{label}: ok {:016x}\n",
            fnv1a64(write::write_module(&m).as_bytes())
        ),
        Err(siro::ir::IrError::Parse { line, .. }) => format!("{label}: err line {line}\n"),
        Err(e) => format!("{label}: err {e}\n"),
    }
}

/// Writer text of the first eight corpus cases at `version`, as the
/// reader's robustness tests mutate them.
fn mutant_bases(version: IrVersion) -> Vec<(&'static str, String)> {
    siro::testcases::full_corpus()
        .iter()
        .take(8)
        .map(|c| (c.name, write::write_module(&c.build(version))))
        .collect()
}

/// The reader's verdict on the Tab. 4 project texts and on seeded mutants
/// of corpus texts (the cuts and substitutions of
/// `crates/siro-ir/tests/parse_robustness.rs`). These pin the reader's
/// quirks on text it did not write: which symbol a name resolves to, which
/// lines it skips, and which line an error cites.
fn dump_reader_verdicts() -> String {
    use siro::workloads::{compile_project, table4_projects, Frontend};
    use siro_rng::{Rng, SeedableRng, StdRng};

    let mut s =
        String::from("# siro-ir reader verdicts: ok <fnv1a64 of write(module)> | err line <n>\n");
    s.push_str("\n## Tab. 4 projects (high frontend)\n");
    for version in [IrVersion::V12_0, IrVersion::V13_0, IrVersion::V17_0] {
        for spec in table4_projects() {
            let text = write::write_module(&compile_project(&spec, Frontend::High, version));
            let label = format!("tab4 {version} {}", spec.name);
            s.push_str(&reader_verdict(&label, parse::parse_module(&text)));
        }
    }
    s.push_str("\n## every line truncation\n");
    for version in [IrVersion::V5_0, IrVersion::V13_0, IrVersion::V17_0] {
        for (name, text) in mutant_bases(version) {
            let lines: Vec<&str> = text.lines().collect();
            for keep in 0..lines.len() {
                let prefix = lines[..keep].join("\n");
                let label = format!("lines {version} {name} keep {keep}");
                s.push_str(&reader_verdict(
                    &label,
                    parse::parse_module_as(&prefix, version),
                ));
            }
        }
    }
    s.push_str("\n## every 7th-byte cut\n");
    let (name, text) = &mutant_bases(IrVersion::V13_0)[0];
    for cut in (0..text.len()).step_by(7) {
        let label = format!("cut 13.0 {name} at {cut}");
        let parsed = parse::parse_module_as(&text[..cut], IrVersion::V13_0);
        s.push_str(&reader_verdict(&label, parsed));
    }
    s.push_str("\n## 64 byte substitutions per text\n");
    let mut rng = StdRng::seed_from_u64(0x6A5B);
    let replacements = [b'%', b'@', b'(', b')', b',', b'x', b'0', b'!', b' '];
    for (name, text) in mutant_bases(IrVersion::V13_0) {
        for _ in 0..64 {
            let mut corrupt = text.as_bytes().to_vec();
            let pos = rng.gen_range(0..corrupt.len());
            let byte = replacements[rng.gen_range(0..replacements.len())];
            corrupt[pos] = byte;
            let corrupt = String::from_utf8(corrupt).expect("ASCII over ASCII");
            let label = format!("subst 13.0 {name} {pos}={}", char::from(byte));
            let parsed = parse::parse_module_as(&corrupt, IrVersion::V13_0);
            s.push_str(&reader_verdict(&label, parsed));
        }
    }
    s.push_str("\n## hand-written quirks\n");
    for (label, text) in READER_QUIRKS {
        s.push_str(&reader_verdict(label, parse::parse_module(text)));
    }
    s
}

/// Texts that each exercise one rule of the reader a rewrite could move.
const READER_QUIRKS: &[(&str, &str)] = &[
    (
        "function name shadows a global, defined later",
        "; IR version 13.0\n@f = global i32 5\ndefine i32 @main() {\nentry:\n  %v = load i32, i32* @f\n  %c = call i32 @f()\n  ret i32 %c\n}\ndefine i32 @f() {\nentry:\n  ret i32 1\n}\n",
    ),
    (
        "first of two same-named functions wins",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %c = call i32 @g(i32 1)\n  ret i32 %c\n}\ndeclare i32 @g(i32 %a)\ndefine i32 @g(i32 %b) {\nentry:\n  ret i32 %b\n}\n",
    ),
    (
        "first of two same-named globals wins",
        "; IR version 13.0\n@x = global i32 1\n@x = constant i64 2\ndefine i32 @main() {\nentry:\n  %v = load i32, i32* @x\n  ret i32 %v\n}\n",
    ),
    (
        "repeated local resolves to its last definition",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %x = add i32 1, 2\n  %y = add i32 %x, 10\n  %x = add i32 3, 4\n  ret i32 %y\n}\n",
    ),
    (
        "instruction name shadows a parameter, even before it",
        "; IR version 13.0\ndefine i32 @f(i32 %x, i32 %x) {\nentry:\n  %y = add i32 %x, 1\n  %x = add i32 2, 3\n  ret i32 %y\n}\ndefine i32 @main() {\nentry:\n  %r = call i32 @f(i32 1, i32 2)\n  ret i32 %r\n}\n",
    ),
    (
        "duplicate label collects both runs in the last block",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  br label %a\na:\n  %x = add i32 1, 2\n  br label %b\nb:\n  br label %a\na:\n  ret i32 %x\n}\n",
    ),
    (
        "forward references to values, labels and symbols",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  br label %loop\nloop:\n  %i = phi i32 [ 0, %entry ], [ %n, %loop ]\n  %n = add i32 %i, 1\n  %p = getelementptr i32, i32* @later, i64 0\n  %c = icmp slt i32 %n, 5\n  br i1 %c, label %loop, label %done\ndone:\n  %r = call i32 @h(i32 %n)\n  ret i32 %r\n}\n@later = global i32 3\ndefine i32 @h(i32 %v) {\nentry:\n  ret i32 %v\n}\n",
    ),
    (
        "top-level lines other than define, declare and @ are skipped",
        "; IR version 13.0\nsource_filename = \"x.c\"\ntarget triple = \"x86_64\"\nattributes #0 = { nounwind }\n}\ngarbage ( here\ndefine\ti32 @tab() {\n  define i32 @main() {\nentry:\n  ret i32 0\n}\n",
    ),
    (
        "comments are kept on lines holding a quote",
        "; IR version 13.0\ndefine void @main() {\nentry:\n  call void asm \"nop; nop\", \"\" hwlevel 0()\n  %x = add i32 1, 2 ; say \"hi\" ; again\n  ret void\n}\n",
    ),
    (
        "a label line whose comment holds a quote is an instruction",
        "; IR version 13.0\ndefine void @main() {\nentry: ; \"x\"\n  ret void\n}\n",
    ),
    (
        "trailing text after an instruction or signature is ignored",
        "; IR version 13.0\ndefine i32 @main() trailing words {\nentry:\n  %x = add i32 1, 2 extra ( tokens\n  ret i32 %x garbage\n}\n",
    ),
    (
        "a global error outranks an earlier body error",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  frobnicate i32 1\n  ret i32 0\n}\n@g = wobble i32 1\n",
    ),
    (
        "a signature error outranks an earlier body error",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %x = add i32 %nope, 1\n  ret i32 0\n}\ndeclare i32 @f(i32 %a\n",
    ),
    (
        "an unknown local outranks a later bad line",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %a = add i32 %nope, 1\n  frobnicate\n  ret i32 %a\n}\n",
    ),
    (
        "a local defined after a bad line still resolves",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %a = add i32 %later, 1\n  frobnicate\n  %later = add i32 1, 2\n  ret i32 %a\n}\n",
    ),
    (
        "a local defined on the bad line itself still resolves",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %a = add i32 %later, 1\n  %later = frobnicate i32 1\n  ret i32 %a\n}\n",
    ),
    (
        "an unknown label outranks a later bad line",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  br label %nowhere\nnext:\n  frobnicate\n}\n",
    ),
    (
        "an unknown symbol in one body outranks a bad line in the next",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  %c = call i32 @missing()\n  ret i32 %c\n}\ndefine i32 @f() {\nentry:\n  frobnicate\n}\n",
    ),
    (
        "a bad line outranks a later unknown symbol",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  frobnicate\n  %c = call i32 @missing()\n  ret i32 %c\n}\n",
    ),
    (
        "instruction before any label",
        "; IR version 13.0\ndefine i32 @main() {\n  ret i32 0\n}\n",
    ),
    (
        "a missing close brace swallows the next define",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  ret i32 0\ndefine i32 @f() {\nentry:\n  ret i32 1\n}\n",
    ),
    (
        "a close brace with a comment does not end a body",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  ret i32 0\n} ; end\n}\n",
    ),
    (
        "a body that runs to the end of the text",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  ret i32 0\n",
    ),
    (
        "an empty local name",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  % = add i32 1, 2\n  ret i32 %\n}\n",
    ),
    (
        "labels keep the name before a numeric suffix",
        "; IR version 13.0\ndefine i32 @main() {\nbb7:\n  br label %loop.12\nloop.12:\n  br label %x.\nx.:\n  br label %y.z\ny.z:\n  ret i32 0\n}\n",
    ),
    (
        "CRLF line endings",
        "; IR version 13.0\r\ndefine i32 @main() {\r\nentry:\r\n  %x = add i32 1, 2\r\n  ret i32 %x\r\n}\r\n",
    ),
    (
        "a trailing carriage return on the last line",
        "; IR version 13.0\ndefine i32 @main() {\nentry:\n  ret i32 0\n}\r",
    ),
    (
        "tabs and blank lines inside a body",
        "; IR version 13.0\n\ndefine i32 @main() {\n\n\tentry:\n\t%x\t=\tadd\ti32 1,\t2\n\n  ;\n\tret i32 %x\n}\n\n",
    ),
    (
        "dashed and dollar names",
        "; IR version 13.0\n@pkg-config_g = global i32 4\ndefine i32 @pkg-config_helper(i32 %a-b) {\nentry:\n  %x$1 = add i32 %a-b, 1\n  ret i32 %x$1\n}\ndefine i32 @main() {\nentry:\n  %v = load i32, i32* @pkg-config_g\n  %r = call i32 @pkg-config_helper(i32 %v)\n  ret i32 %r\n}\n",
    ),
];

/// Every Tab. 4 project text is accepted and is a `write∘parse` fixpoint,
/// including the projects whose symbols carry a dash
/// (`@http-parser_fn_0`), which LLVM prints without quotes.
#[test]
fn tab4_texts_are_write_parse_fixpoints() {
    use siro::workloads::{compile_project, table4_projects, Frontend};

    for version in [IrVersion::V12_0, IrVersion::V13_0, IrVersion::V17_0] {
        for spec in table4_projects() {
            let text = write::write_module(&compile_project(&spec, Frontend::High, version));
            let module = parse::parse_module(&text)
                .unwrap_or_else(|e| panic!("{version} {}: {e}", spec.name));
            assert_eq!(
                write::write_module(&module),
                text,
                "{version} {}: not a print fixpoint",
                spec.name
            );
        }
    }
}

/// The bytes of perfbench's Tab. 4 traffic, pinned apart from the writer
/// that renders both its requests and its references: for every Tab. 4
/// project (census included) from 12.0, 13.0 and 17.0, the FNV-1a-64
/// digest and length of the module's text and of its
/// `ReferenceTranslator` translation into 3.6.
fn dump_tab4_bytes() -> String {
    use siro::core::ReferenceTranslator;
    use siro::workloads::{compile_project, table4_projects, Frontend};

    let mut s = String::from(
        "# Tab. 4 texts: <source> <project>: module <fnv1a64> <bytes> | 3.6 <fnv1a64> <bytes>\n",
    );
    for version in [IrVersion::V12_0, IrVersion::V13_0, IrVersion::V17_0] {
        for spec in table4_projects() {
            let module = compile_project(&spec, Frontend::High, version);
            let text = write::write_module(&module);
            let translated = Skeleton::new(IrVersion::V3_6)
                .translate_module(&module, &ReferenceTranslator)
                .unwrap_or_else(|e| panic!("{version} {}: {e}", spec.name));
            let out = write::write_module(&translated);
            writeln!(
                s,
                "{version} {}: module {:016x} {} | 3.6 {:016x} {}",
                spec.name,
                fnv1a64(text.as_bytes()),
                text.len(),
                fnv1a64(out.as_bytes()),
                out.len()
            )
            .unwrap();
        }
    }
    s
}

/// The Tab. 4 modules and their 3.6 translations keep their bytes.
#[test]
fn tab4_bytes_match_golden() {
    check_or_regen("tab4_bytes.txt", &dump_tab4_bytes());
}

/// The reader's verdict on text it did not write must not move: an
/// accepted input keeps the digest of its re-written text, and a rejected
/// one keeps the line its error cites.
#[test]
fn reader_verdicts_are_pinned_on_foreign_and_mutated_text() {
    check_or_regen("reader_verdicts.txt", &dump_reader_verdicts());
}

/// The conformance corpus must exercise the complete opcode catalog at the
/// newest version — otherwise "proven behavior-identical" would silently
/// exclude the long tail.
#[test]
fn corpus_covers_every_opcode_kind() {
    let version = IrVersion::V17_0;
    let mut seen: BTreeSet<Opcode> = BTreeSet::new();
    for (_, module) in corpus(version) {
        for f in &module.funcs {
            for inst in &f.insts {
                seen.insert(inst.opcode);
            }
        }
    }
    let missing: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|o| !seen.contains(o))
        .collect();
    assert!(
        missing.is_empty(),
        "conformance corpus misses opcode kinds: {missing:?}"
    );
}

// ---------------------------------------------------------------------------
// WIR: the second dialect's conformance section
// ---------------------------------------------------------------------------

fn wir_version_slug(v: WirVersion) -> String {
    format!("wir{}_{}", v.major(), v.minor())
}

/// Deterministic WIR corpus for one version: seeded full-feature generator
/// modules (blocks, loops, branches, calls — everything the version's
/// instruction set gates in) plus straight-line modules from the
/// bridge-facing generator.
fn wir_corpus(version: WirVersion) -> Vec<(String, WirModule)> {
    use siro::wir::{WBin, WTy, WirFunc, WirInst};

    let mut out = Vec::new();

    // Hand-written cases covering the corners the generator avoids:
    // cross-function calls, unconditional branches, nop, and the two
    // division trap kinds (the semantics the cross-dialect bridge hinges
    // on — pinned here per version so a drift is caught at the dialect
    // layer, not just in the bridge tests).
    let mut m = WirModule::new("call_helper", version);
    let mut h = WirFunc::new("add2", vec![WTy::I32, WTy::I32], Some(WTy::I32));
    h.body.alloc(WirInst::LocalGet(0));
    h.body.alloc(WirInst::LocalGet(1));
    h.body.alloc(WirInst::Binop(WTy::I32, WBin::Add));
    h.body.alloc(WirInst::Return);
    let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
    f.body.alloc(WirInst::Const(WTy::I32, 40));
    f.body.alloc(WirInst::Const(WTy::I32, 2));
    f.body.alloc(WirInst::Call(0));
    f.body.alloc(WirInst::Return);
    m.funcs.push(h);
    m.funcs.push(f);
    out.push(("case:call-helper".to_string(), m));

    let mut m = WirModule::new("br_skip_nop", version);
    let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
    let l = f.alloc_local(WTy::I32);
    f.body.alloc(WirInst::Block);
    f.body.alloc(WirInst::Br(0));
    f.body.alloc(WirInst::End);
    f.body.alloc(WirInst::Nop);
    f.body.alloc(WirInst::LocalGet(l));
    f.body.alloc(WirInst::Return);
    m.funcs.push(f);
    out.push(("case:br-skip-nop".to_string(), m));

    for (name, divisor) in [("div-by-zero", 0i64), ("sdiv-overflow", -1i64)] {
        let mut m = WirModule::new(name.replace('-', "_"), version);
        let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
        f.body.alloc(WirInst::Const(WTy::I32, i64::from(i32::MIN)));
        f.body.alloc(WirInst::Const(WTy::I32, divisor));
        f.body.alloc(WirInst::Binop(WTy::I32, WBin::DivS));
        f.body.alloc(WirInst::Return);
        m.funcs.push(f);
        out.push((format!("case:{name}"), m));
    }

    let seed = 0x51D0_C0DE ^ (u64::from(version.major()) << 8) ^ u64::from(version.minor());
    for i in 0..8u64 {
        out.push((
            format!("gen:full-{i}"),
            wir::generate_module(seed ^ (i << 16), version),
        ));
    }
    for i in 0..4u64 {
        out.push((
            format!("gen:straightline-{i}"),
            wir::generate_straightline(seed ^ (i << 24), version),
        ));
    }
    out
}

/// The WIR analogue of [`dump_module`]: text, verify verdict, reparse
/// verdict, and interpreter outcome (result + step count).
fn dump_wir_module(name: &str, module: &WirModule) -> String {
    let mut s = String::new();
    let text = wir::write_module(module);
    writeln!(s, "== {name} ==").unwrap();
    writeln!(s, "-- text ({} bytes) --", text.len()).unwrap();
    s.push_str(&text);
    if !text.ends_with('\n') {
        s.push('\n');
    }
    let verdict = wir::verify_module(module);
    match &verdict {
        Ok(()) => writeln!(s, "-- verify: ok --").unwrap(),
        Err(e) => writeln!(s, "-- verify: error: {e} --").unwrap(),
    }
    match wir::parse_module(&text) {
        Ok(reparsed) => {
            if wir::write_module(&reparsed) == text {
                writeln!(s, "-- reparse: ok (fixpoint) --").unwrap();
            } else {
                writeln!(s, "-- reparse: ok (NOT a fixpoint) --").unwrap();
            }
        }
        Err(e) => writeln!(s, "-- reparse: error: {e} --").unwrap(),
    }
    if verdict.is_ok() {
        let outcome = wir::WirMachine::new(module)
            .with_fuel(wir::DEFAULT_FUEL)
            .run_main();
        writeln!(s, "-- interp --").unwrap();
        writeln!(s, "result: {:?}", outcome.result).unwrap();
        writeln!(s, "steps: {}", outcome.steps).unwrap();
    } else {
        writeln!(s, "-- interp: skipped (verify failed) --").unwrap();
    }
    s.push('\n');
    s
}

fn dump_wir_version(version: WirVersion) -> String {
    let mut s = format!("# siro-wir conformance dump, version {version}\n\n");
    for (name, module) in wir_corpus(version) {
        s.push_str(&dump_wir_module(&name, &module));
    }
    s
}

/// The WIR headline check: for every version in the WIR catalog the full
/// corpus dump (text, verify verdict, reparse verdict, interpreter
/// outcome) must be byte-identical to the committed golden.
#[test]
fn wir_golden_corpus_is_byte_identical_for_every_version() {
    for version in WirVersion::CATALOG {
        let rendered = dump_wir_version(version);
        check_or_regen(&format!("{}.txt", wir_version_slug(version)), &rendered);
    }
}

/// WIR writer output must be a parser fixpoint, and the reparsed module
/// must agree on the verifier verdict and interpreter outcome.
#[test]
fn wir_write_parse_write_is_a_fixpoint_and_preserves_behavior() {
    for version in WirVersion::CATALOG {
        for (name, module) in wir_corpus(version) {
            let text = wir::write_module(&module);
            let reparsed = wir::parse_module(&text)
                .unwrap_or_else(|e| panic!("wir{version} {name}: reparse failed: {e}"));
            assert_eq!(
                wir::write_module(&reparsed),
                text,
                "wir{version} {name}: not a print fixpoint"
            );
            let v1 = wir::verify_module(&module).map_err(|e| e.to_string());
            let v2 = wir::verify_module(&reparsed).map_err(|e| e.to_string());
            assert_eq!(v1, v2, "wir{version} {name}: verify verdict changed");
            if v1.is_ok() {
                let o1 = wir::WirMachine::new(&module).run_main();
                let o2 = wir::WirMachine::new(&reparsed).run_main();
                assert_eq!(o1.result, o2.result, "wir{version} {name}: result");
                assert_eq!(o1.steps, o2.steps, "wir{version} {name}: steps");
            }
        }
    }
}

/// The WIR corpus must exercise the complete instruction catalog at the
/// newest version, mirroring [`corpus_covers_every_opcode_kind`].
#[test]
fn wir_corpus_covers_every_instruction_kind() {
    let mut seen: BTreeSet<WKind> = BTreeSet::new();
    for (_, module) in wir_corpus(WirVersion::W3_0) {
        for f in &module.funcs {
            for inst in f.body.iter() {
                seen.insert(inst.kind());
            }
        }
    }
    let missing: Vec<WKind> = WKind::ALL
        .iter()
        .copied()
        .filter(|k| !seen.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "WIR conformance corpus misses instruction kinds: {missing:?}"
    );
}

fn synth(src: IrVersion, tgt: IrVersion) -> Arc<SynthesisOutcome> {
    TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &oracle_corpus(src, tgt))
        .expect("synthesis")
}

/// The serve path end to end: for representative pairs, the serialized
/// bytes of every translated corpus module are pinned. This is the exact
/// parse→translate→serialize composition the daemon runs per request.
#[test]
fn translated_bytes_match_golden_for_representative_pairs() {
    let pairs = [
        (IrVersion::V13_0, IrVersion::V3_6),
        (IrVersion::V17_0, IrVersion::V12_0),
        (IrVersion::V3_6, IrVersion::V12_0),
    ];
    for (src, tgt) in pairs {
        let outcome = synth(src, tgt);
        let skel = Skeleton::new(tgt);
        let mut s = format!("# translation conformance dump, pair {src} -> {tgt}\n\n");
        for case in siro::testcases::corpus_for_pair(src, tgt) {
            let m = case.build(src);
            let translated = skel
                .translate_module(&m, &outcome.translator)
                .unwrap_or_else(|e| panic!("{src}->{tgt} {}: {e}", case.name));
            let text = write::write_module(&translated);
            writeln!(s, "== case:{} ({} bytes) ==", case.name, text.len()).unwrap();
            s.push_str(&text);
            if !text.ends_with('\n') {
                s.push('\n');
            }
            s.push('\n');
        }
        check_or_regen(
            &format!(
                "translate_{}_to_{}.txt",
                version_slug(src),
                version_slug(tgt)
            ),
            &s,
        );
    }
}
