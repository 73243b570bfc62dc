//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `minhash.sketch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request every span of one request shares.
    pub request: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `epoch`, so several can be merged.
    #[must_use]
    pub fn with_epoch(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Moves every span of `other` (same epoch) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `at` (0 when `at` precedes it).
    #[must_use]
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends an opened span.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates the file error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of its interval its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Mean self time per span name, in microseconds, with the span count.
#[must_use]
pub fn mean_self_us(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut sums: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = sums.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (ns, n))| (k, (ns as f64 / 1e3 / n as f64, n)))
        .collect()
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
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn mean_self_groups_by_name() {
        let spans = vec![
            span("x", 0, 2_000, None),
            span("x", 0, 4_000, None),
            span("y", 0, 1_000, Some(0)),
        ];
        let m = mean_self_us(&spans);
        assert_eq!(m["x"], (2.5, 2)); // (1 µs + 4 µs) / 2
        assert_eq!(m["y"], (1.0, 1));
    }
}
