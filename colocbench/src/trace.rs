//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions (the crates carry no tracing of their own).
//! Nothing is written while a run measures: spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One span: a named interval, the span that caused it, and the request
/// it belongs to (0 when it belongs to none).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

/// Per-name totals: spans, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder. Span times are nanoseconds since the tracer was made.
pub struct Tracer {
    origin: Instant,
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
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` as nanoseconds since the tracer was made, for intervals
    /// measured on other threads.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now();
        self.record(name, start_ns, start_ns, parent, req)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Totals per span name. A span's self time is its duration minus the
    /// part of its interval that its direct children cover (overlapping
    /// children are merged, so concurrent children are not counted
    /// twice).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent req` (`-` for no parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Tracer::new();
        let root = t.record("root", 0, 100, None, 0);
        t.record("a", 10, 30, Some(root), 0);
        t.record("a", 20, 40, Some(root), 0); // overlaps the first child
        t.record("b", 60, 70, Some(root), 0);
        let layers = t.layer_times();
        assert_eq!(layers["root"].self_ns, 100 - 30 - 10);
        assert_eq!(layers["a"].count, 2);
        assert_eq!(layers["a"].total_ns, 40);
        assert_eq!(layers["b"].self_ns, 10);
    }
}
