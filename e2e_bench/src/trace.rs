//! Spans for the traced run: recorded in memory around every public call
//! the benchmark makes, written out as JSONL when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and a
//! group id that every span of one prompt, token or request shares. A
//! span's self time is its duration minus the part of its interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; when disabled every call is a no-op, so
/// the untraced run executes the same code without keeping anything.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span. Returns its id (meaningless when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span whose children are recorded before it ends; close it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, group: u64, start: Instant) -> SpanId {
        self.record(name, group, None, start, start)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            let end_ns = self.ns(end);
            self.spans[id].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut ch)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, &mut ch))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self times grouped by span name, in span order within each name.
pub fn self_times_by_name(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(self_ns) {
        by.entry(s.name).or_default().push(t);
    }
    by
}

/// Whether the spans under every root named `root` cover that root's
/// wall: the sum of the descendants' self times against the sum of the
/// roots' durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    pub wall_ns: u64,
    pub accounted_ns: u64,
}

impl Reconciliation {
    pub fn of(spans: &[Span], self_ns: &[u64], root: &str) -> Self {
        let mut wall_ns = 0;
        let mut accounted_ns = 0;
        for (i, s) in spans.iter().enumerate() {
            if s.name == root {
                wall_ns += s.duration_ns();
            } else if under_root(spans, i, root) {
                accounted_ns += self_ns[i];
            }
        }
        Self {
            wall_ns,
            accounted_ns,
        }
    }

    /// The unaccounted share of the wall (negative when children
    /// over-cover it).
    pub fn gap_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.wall_ns as f64 - self.accounted_ns as f64) / self.wall_ns as f64
    }

    pub fn within(&self, tolerance: f64) -> bool {
        self.wall_ns > 0 && self.gap_fraction().abs() <= tolerance
    }
}

fn under_root(spans: &[Span], mut i: SpanId, root: &str) -> bool {
    while let Some(p) = spans[i].parent {
        if spans[p].name == root {
            return true;
        }
        i = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 90, 120),
        ];
        // Covered: 10..40 and 90..100 = 40.
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = vec![
            span("root", None, 0, 100),
            span("layer", Some(0), 0, 80),
            span("inner", Some(1), 10, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn reconciliation_passes_when_children_cover_the_wall() {
        let spans = vec![
            span("prompt", None, 0, 100),
            span("layer", Some(0), 0, 60),
            span("glue", Some(0), 60, 99),
            span("prompt", None, 200, 300),
            span("layer", Some(3), 200, 300),
        ];
        let r = Reconciliation::of(&spans, &self_times_ns(&spans), "prompt");
        assert_eq!(r.wall_ns, 200);
        assert_eq!(r.accounted_ns, 199);
        assert!(r.within(0.01));
    }

    #[test]
    fn reconciliation_fails_on_unaccounted_time() {
        let spans = vec![
            span("prompt", None, 0, 100),
            span("layer", Some(0), 0, 50),
            span("glue", Some(0), 50, 60),
        ];
        let r = Reconciliation::of(&spans, &self_times_ns(&spans), "prompt");
        assert!((r.gap_fraction() - 0.4).abs() < 1e-12);
        assert!(!r.within(0.02));
        // An empty trace reconciles nothing.
        assert!(!Reconciliation::of(&[], &[], "prompt").within(0.02));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let root = t.open("prompt", 1, now);
        t.record("layer", 1, Some(root), now, now);
        t.close(root, now);
        assert!(t.spans().is_empty());
    }
}
