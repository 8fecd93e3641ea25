//! Small self-contained helpers: seeded request order, order statistics,
//! `/proc` readers, store-directory bookkeeping and JSON rendering.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use siro_rng::rngs::StdRng;
use siro_rng::seq::SliceRandom;
use siro_rng::SeedableRng;

/// The generator for one named stream of one seed: the request stream
/// depends only on `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The order in which one caller sends a workload's payloads: every
/// payload once per cycle, each cycle freshly shuffled. Every window then
/// sends the same mix, so a percentile over it lands on the same payloads
/// from window to window instead of on whichever a random draw favoured.
#[derive(Debug, Clone)]
pub struct Cycle {
    order: Vec<usize>,
    next: usize,
    rng: StdRng,
}

impl Cycle {
    /// A cycle over `n` payloads (`n > 0`).
    pub fn new(n: usize, rng: StdRng) -> Self {
        Cycle {
            order: (0..n).collect(),
            next: n,
            rng,
        }
    }

    /// The index of the next payload to send.
    pub fn next_index(&mut self) -> usize {
        if self.next == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count), `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Median over keys of each key's median: one value per key, however
/// many samples each key has. Synthesis latency differs by pair, and a
/// plain median of a few pairs' samples lands on the edge between them.
pub fn median_of_medians(samples: &[(String, f64)]) -> Option<f64> {
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, v) in samples {
        by_key.entry(k).or_default().push(*v);
    }
    let medians: Vec<f64> = by_key.values().filter_map(|v| median(v)).collect();
    median(&medians)
}

/// Clock ticks per second for `/proc/<pid>/stat` CPU fields.
fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a process-wide constant.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds consumed so far by every thread of `pid`.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3, so utime (14) and stime (15) sit at
    // indices 11 and 12.
    let parse = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat cpu field"))
    };
    Ok((parse(11)? + parse(12)?) / clock_ticks_per_sec())
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`, `VmRSS`) in MiB.
pub fn status_mib(pid: &str, field: &str) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/{pid}/status")))
}

/// The filesystem type `path` lives on, from `/proc/self/mountinfo`
/// (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Copies the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// File name → (modification time, length) for every file in `dir`.
pub type DirSnapshot = BTreeMap<String, (SystemTime, u64)>;

/// Snapshots a store directory.
pub fn snapshot_dir(dir: &Path) -> io::Result<DirSnapshot> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            out.insert(
                entry.file_name().to_string_lossy().into_owned(),
                (meta.modified()?, meta.len()),
            );
        }
    }
    Ok(out)
}

/// What changed in a store between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreWrites {
    /// Files that did not exist before.
    pub created: u64,
    /// `.sirc` chain manifests that existed and were written again.
    pub chain_rewrites: u64,
    /// Every file created or rewritten.
    pub written: u64,
}

/// Compares two snapshots of one store directory.
pub fn store_writes(before: &DirSnapshot, after: &DirSnapshot) -> StoreWrites {
    let mut w = StoreWrites::default();
    for (name, stamp) in after {
        match before.get(name) {
            None => {
                w.created += 1;
                w.written += 1;
            }
            Some(old) if old != stamp => {
                w.written += 1;
                if name.ends_with(".sirc") {
                    w.chain_rewrites += 1;
                }
            }
            Some(_) => {}
        }
    }
    w
}

/// A per-run scratch directory inside the working directory.
pub fn run_dir(root: &Path, tag: &str) -> io::Result<PathBuf> {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = root.join(format!("{tag}-{}-{nanos}", std::process::id()));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite JSON number with all its digits (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_medians_weighs_each_key_once() {
        let s = |k: &str, v: f64| (k.to_string(), v);
        // A plain median of these six samples is 45 (the edge between the
        // two pairs); per pair the medians are 40 and 60.
        let samples = [
            s("a", 39.0),
            s("a", 40.0),
            s("a", 41.0),
            s("b", 50.0),
            s("b", 60.0),
            s("b", 61.0),
        ];
        assert_eq!(median_of_medians(&samples), Some(50.0));
        assert_eq!(median_of_medians(&[]), None);
    }

    #[test]
    fn a_cycle_sends_every_payload_once_per_cycle() {
        let mut c = Cycle::new(5, rng(3, 0));
        let first: Vec<usize> = (0..5).map(|_| c.next_index()).collect();
        let second: Vec<usize> = (0..5).map(|_| c.next_index()).collect();
        for cycle in [&first, &second] {
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        // Seeded: the same seed and stream give the same order.
        let mut again = Cycle::new(5, rng(3, 0));
        assert_eq!(
            (0..5).map(|_| again.next_index()).collect::<Vec<_>>(),
            first
        );
    }

    #[test]
    fn store_writes_separate_creations_from_chain_rewrites() {
        let t0 = SystemTime::UNIX_EPOCH;
        let t1 = t0 + std::time::Duration::from_secs(1);
        let before: DirSnapshot = [
            ("a.sirt".to_string(), (t0, 10)),
            ("c.sirc".to_string(), (t0, 5)),
            ("d.sirc".to_string(), (t0, 5)),
        ]
        .into();
        let after: DirSnapshot = [
            ("a.sirt".to_string(), (t0, 10)),
            ("c.sirc".to_string(), (t1, 5)),
            ("d.sirc".to_string(), (t0, 5)),
            ("e.sirt".to_string(), (t1, 9)),
        ]
        .into();
        assert_eq!(
            store_writes(&before, &after),
            StoreWrites {
                created: 1,
                chain_rewrites: 1,
                written: 2
            }
        );
    }

    #[test]
    fn json_rendering_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
