//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is traced inside the program: a span wraps one public
//! call, carries a name, start, end, parent and request id, and stays in
//! memory until the run ends and [`Tracer::write_ndjson`] writes it out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the epoch at `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part of its interval that its
    /// children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.dur().saturating_sub(union_len(kids)))
            .collect()
    }

    /// Self time per span name, in microseconds.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of half-open intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("request", None, 1, 0, 100);
        let a = t.record("a", Some(root), 1, 10, 40);
        t.record("b", Some(root), 1, 30, 60);
        t.record("c", Some(a), 1, 15, 20);
        assert_eq!(t.self_times(), vec![50, 25, 30, 5]);
        let by_name = t.self_us_by_name();
        assert_eq!(by_name["request"], vec![0.05]);
    }
}
