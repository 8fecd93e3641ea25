//! The `siro-bench/difftest-v1` document: one entry per fuzzed pair,
//! built as a [`Value`] for `siro_trace::json::render` (`siro difftest
//! -o`, default `BENCH_difftest.json`) and for the `difftest_smoke`
//! bench's record. The content is deterministic, times excepted.

use siro_trace::json::{obj, Value};

use crate::fuzz::DifftestReport;

fn strings<T: ToString>(items: impl IntoIterator<Item = T>) -> Value {
    items.into_iter().map(|v| v.to_string().into()).collect()
}

/// One fuzzing run per pair as the `siro-bench/difftest-v1` document.
pub fn difftest_json(reports: &[DifftestReport]) -> Value {
    let pairs = reports.iter().map(|r| {
        let new = r.new_kinds();
        obj([
            ("source", r.src.to_string().into()),
            ("mid", r.mid.to_string().into()),
            ("mids", strings(&r.mids)),
            ("target", r.tgt.to_string().into()),
            ("execs", r.execs.into()),
            ("wall_secs", r.wall.as_secs_f64().into()),
            ("execs_per_sec", r.execs_per_sec().into()),
            ("seed_corpus_size", r.seed_corpus_size.into()),
            ("corpus_size", r.corpus_size.into()),
            ("features", r.features.into()),
            ("skips", r.skips.into()),
            ("generated_kind_count", r.generated_kinds.len().into()),
            ("corpus_kind_count", r.corpus_kinds.len().into()),
            ("new_kind_count", new.len().into()),
            ("new_kinds", strings(&new)),
            ("failures", r.failures.len().into()),
            ("duplicate_failures", r.duplicate_failures.into()),
            ("distinct_failures", r.distinct_failures().into()),
            (
                "unshrunk_failures",
                r.failures.iter().filter(|f| !f.shrunk).count().into(),
            ),
        ])
    });
    obj([
        ("schema", "siro-bench/difftest-v1".into()),
        ("pairs", pairs.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::{IrVersion, Opcode};
    use std::collections::BTreeSet;
    use std::time::Duration;

    #[test]
    fn rendered_json_has_schema_first_and_new_kinds() {
        let report = DifftestReport {
            src: IrVersion::V13_0,
            mid: IrVersion::V12_0,
            tgt: IrVersion::V3_6,
            mids: vec![IrVersion::V12_0],
            execs: 10,
            wall: Duration::from_millis(500),
            corpus_size: 8,
            seed_corpus_size: 6,
            features: 30,
            generated_kinds: BTreeSet::from([Opcode::Add, Opcode::Ret]),
            corpus_kinds: BTreeSet::from([Opcode::Add, Opcode::Ret, Opcode::Switch]),
            failures: Vec::new(),
            duplicate_failures: 0,
            skips: 1,
        };
        let json = siro_trace::json::render(&difftest_json(&[report]));
        let schema_at = json.find("\"schema\": \"siro-bench/difftest-v1\"").unwrap();
        assert!(schema_at < json.find("\"pairs\"").unwrap());
        assert!(json.contains("\"new_kind_count\": 1,"));
        assert!(json.contains("switch"));
        assert!(json.contains("\"execs_per_sec\": 20.000"));
    }
}
