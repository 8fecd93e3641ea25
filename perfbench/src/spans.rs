//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one thread: spans nest by call order.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans to `request`.
    pub fn request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested in whatever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line each.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Self times (ns) of every span, grouped by name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(3, 3)], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,100) with children [10,40) and [50,60); the first child
        // has a grandchild [15,35) that must not count against root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 15, 35, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 10, 20]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["root"], vec![60]);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut r = Recorder::default();
        r.request(7);
        r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        r.span("next", |_| ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s.iter().all(|s| s.request == 7));
        let self_t = self_times(s);
        assert_eq!(self_t[0], s[0].dur() - s[1].dur());
    }
}
