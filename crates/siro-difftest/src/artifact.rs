//! Deterministic regression artifacts.
//!
//! A shrunk failure is persisted as a `.sir` file: the reduced module in
//! normal textual IR, followed by a block of `; difftest-*:` comment
//! lines carrying the reproduction metadata (version triple, injected
//! fault, oracle, family, mutator, evidence). The parser strips comment
//! lines wherever they appear, so the metadata rides inside a file
//! `parse_module` accepts unchanged — an artifact is simultaneously a
//! valid IR module and a self-describing bug report.
//!
//! File names are content-derived (`{src}-{tgt}-{oracle}-{family}-{hash}`)
//! so re-running the fuzzer on the same bug overwrites the same file
//! instead of accumulating duplicates.

use std::path::{Path, PathBuf};

use siro_ir::{parse::parse_module, write::write_module, IrVersion, Module};
use siro_synth::persist::fnv1a64;
use siro_synth::SynthFault;

use crate::fuzz::FailureRecord;
use crate::oracle::FailureFamily;

/// Schema tag stamped into every artifact.
pub const ARTIFACT_SCHEMA: &str = "siro-difftest/regression-v1";

/// A persisted, shrunk, replayable failure.
#[derive(Debug, Clone)]
pub struct RegressionArtifact {
    /// Source version `A`.
    pub src: IrVersion,
    /// Intermediate version `B`.
    pub mid: IrVersion,
    /// Target version `C`.
    pub tgt: IrVersion,
    /// The fault injected when the failure was found (`None` for real
    /// translator bugs).
    pub fault: Option<SynthFault>,
    /// Which oracle tripped.
    pub oracle: String,
    /// Failure family.
    pub family: FailureFamily,
    /// The mutator that produced the failing input.
    pub mutator: String,
    /// Evidence string from the reduced reproduction.
    pub detail: String,
    /// The reduced failing module.
    pub module: Module,
}

/// `s` with line breaks turned into spaces, for a one-line header field.
pub(crate) fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

fn parse_version(s: &str) -> Option<IrVersion> {
    let (maj, min) = s.trim().split_once('.')?;
    Some(IrVersion::new(maj.parse().ok()?, min.parse().ok()?))
}

impl RegressionArtifact {
    /// Builds an artifact from a fuzzing failure record. The intermediate
    /// comes from the record itself — with path-selection fuzzing the
    /// failing path need not be the run's primary triple.
    pub fn from_record(
        src: IrVersion,
        tgt: IrVersion,
        fault: Option<SynthFault>,
        rec: &FailureRecord,
    ) -> Self {
        RegressionArtifact {
            src,
            mid: rec.mid,
            tgt,
            fault,
            oracle: rec.oracle.to_string(),
            family: rec.family,
            mutator: rec.mutator.to_string(),
            detail: rec.detail.clone(),
            module: rec.module.clone(),
        }
    }

    /// Renders the artifact to its on-disk text.
    pub fn render(&self) -> String {
        let mut out = write_module(&self.module);
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&format!("; difftest-schema: {ARTIFACT_SCHEMA}\n"));
        out.push_str(&format!("; difftest-pair: {} -> {}\n", self.src, self.tgt));
        out.push_str(&format!("; difftest-mid: {}\n", self.mid));
        if let Some(f) = self.fault {
            out.push_str(&format!("; difftest-fault: {f}\n"));
        }
        out.push_str(&format!("; difftest-oracle: {}\n", one_line(&self.oracle)));
        out.push_str(&format!("; difftest-family: {}\n", self.family.name()));
        out.push_str(&format!(
            "; difftest-mutator: {}\n",
            one_line(&self.mutator)
        ));
        out.push_str(&format!("; difftest-detail: {}\n", one_line(&self.detail)));
        out
    }

    /// The content-derived file name for this artifact.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}-{:08x}.sir",
            self.src,
            self.tgt,
            one_line(&self.oracle),
            self.family.name(),
            fnv1a64(write_module(&self.module).as_bytes()) as u32
        )
    }

    /// Writes the artifact under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Parses an artifact back from its on-disk text.
    pub fn parse(text: &str) -> Option<Self> {
        let meta = |key: &str| -> Option<String> {
            text.lines().find_map(|l| {
                l.strip_prefix("; difftest-")
                    .and_then(|r| r.strip_prefix(key))
                    .and_then(|r| r.strip_prefix(':'))
                    .map(|v| v.trim().to_string())
            })
        };
        if meta("schema")? != ARTIFACT_SCHEMA {
            return None;
        }
        let pair = meta("pair")?;
        let (src, tgt) = pair.split_once("->")?;
        let fault = match meta("fault") {
            Some(s) => Some(s.parse().ok()?),
            None => None,
        };
        Some(RegressionArtifact {
            src: parse_version(src)?,
            mid: parse_version(&meta("mid")?)?,
            tgt: parse_version(tgt)?,
            fault,
            oracle: meta("oracle")?,
            family: FailureFamily::parse(&meta("family")?)?,
            mutator: meta("mutator")?,
            detail: meta("detail")?,
            module: parse_module(text).ok()?,
        })
    }

    /// Loads every `.sir` artifact under `dir`, sorted by file name.
    /// A missing directory is an empty set, not an error.
    pub fn load_dir(dir: &Path) -> Vec<(PathBuf, RegressionArtifact)> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "sir"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .filter_map(|p| {
                let text = std::fs::read_to_string(&p).ok()?;
                RegressionArtifact::parse(&text).map(|a| (p, a))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::{FuncBuilder, ValueRef};

    fn sample() -> RegressionArtifact {
        let mut m = Module::new("repro", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.sub(ValueRef::const_int(i32t, 50), ValueRef::const_int(i32t, 8));
        b.ret(Some(v));
        RegressionArtifact {
            src: IrVersion::V13_0,
            mid: IrVersion::V12_0,
            tgt: IrVersion::V3_6,
            fault: Some(SynthFault::SwapOperands(siro_ir::Opcode::Sub)),
            oracle: "differential".into(),
            family: FailureFamily::Miscompile,
            mutator: "seed".into(),
            detail: "source returns 42, 13.0->3.6 returns -42".into(),
            module: m,
        }
    }

    #[test]
    fn artifact_round_trips_through_text() {
        let a = sample();
        let text = a.render();
        let b = RegressionArtifact::parse(&text).expect("parse back");
        assert_eq!(b.src, a.src);
        assert_eq!(b.mid, a.mid);
        assert_eq!(b.tgt, a.tgt);
        assert_eq!(b.fault, a.fault);
        assert_eq!(b.oracle, a.oracle);
        assert_eq!(b.family, a.family);
        assert_eq!(b.mutator, a.mutator);
        assert_eq!(b.detail, a.detail);
        assert_eq!(write_module(&b.module), write_module(&a.module));
    }

    #[test]
    fn artifact_text_is_a_valid_module() {
        let text = sample().render();
        let m = parse_module(&text).expect("metadata must not break parsing");
        assert_eq!(m.version, IrVersion::V13_0);
    }

    #[test]
    fn file_name_is_deterministic_and_content_addressed() {
        let a = sample();
        assert_eq!(a.file_name(), a.file_name());
        assert!(a
            .file_name()
            .starts_with("13.0-3.6-differential-miscompile-"));
        assert!(a.file_name().ends_with(".sir"));
    }
}
