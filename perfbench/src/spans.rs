//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions, for the traced pass.
//!
//! A span is `(name, start, end, parent, request id)`. Spans stay in
//! memory while the workload runs and are written out once at the end,
//! so recording costs two clock reads and one vector push. A layer's
//! self time is the sum of its spans' durations minus the time their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NONE`] when nothing was recorded.
pub type SpanId = usize;

/// The id returned by a disabled or full tracer.
pub const NONE: SpanId = usize::MAX;

/// Most spans one tracer keeps; later spans are counted as dropped.
const MAX_SPANS: usize = 1 << 21;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` until the span is closed).
    pub end: u64,
    /// Enclosing span, or [`NONE`].
    pub parent: SpanId,
    /// Request the span belongs to.
    pub request: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this layer.
    pub count: u64,
    /// Total duration, ns.
    pub total_ns: u64,
    /// Duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// A span recorder; when disabled every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A recorder sharing `origin` with another one (spans of several
    /// threads then merge onto one time axis).
    #[must_use]
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shared time origin.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of layer `name` under `parent` for `request`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` (no-op for [`NONE`]).
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = now;
        }
    }

    /// Records an already-measured span (used when the times were taken
    /// by another clock read, e.g. a request timed from its due time).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: NONE,
            request,
        });
    }

    /// Appends another tracer's spans (re-basing their parent ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the tracer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per layer name.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes the spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent","request"}` objects.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{sep}",
                s.name, s.start, s.end, parent, s.request
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Count, total and self time per layer over `spans`. A child span is
/// clipped to its parent's interval before it is subtracted, so a child
/// that outlives its parent never drives self time below zero.
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent) {
            let start = s.start.max(p.start);
            let end = s.end.min(p.end);
            covered[s.parent] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end.saturating_sub(s.start);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(cov);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // stream [0,100) with children encode [10,30) and write [40,90);
        // write has its own child syscall [50,60).
        let spans = [
            span("stream", 0, 100, NONE),
            span("encode", 10, 30, 0),
            span("write", 40, 90, 0),
            span("syscall", 50, 60, 2),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["stream"].self_ns, 100 - 20 - 50);
        assert_eq!(t["stream"].total_ns, 100);
        assert_eq!(t["encode"].self_ns, 20);
        assert_eq!(t["write"].self_ns, 40);
        assert_eq!(t["syscall"].self_ns, 10);
        // Self times partition the root's duration.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn child_outliving_parent_is_clipped() {
        let spans = [span("a", 0, 10, NONE), span("b", 5, 50, 0)];
        let t = layer_times(&spans);
        assert_eq!(t["a"].self_ns, 5);
        assert_eq!(t["b"].self_ns, 45);
    }

    #[test]
    fn same_layer_spans_accumulate() {
        let spans = [span("q", 0, 10, NONE), span("q", 20, 25, NONE)];
        let t = layer_times(&spans);
        assert_eq!(t["q"].count, 2);
        assert_eq!(t["q"].self_ns, 15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x", NONE, 1);
        assert_eq!(id, NONE);
        tr.end(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        let root = a.begin("root", NONE, 0);
        a.end(root);
        let mut b = Tracer::with_origin(true, a.origin());
        let p = b.begin("p", NONE, 1);
        let c = b.begin("c", p, 1);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, 1);
    }
}
