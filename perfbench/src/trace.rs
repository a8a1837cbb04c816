//! Spans recorded by the benchmark's own code around every call it
//! makes into a layer's public API. Kept in memory per generator
//! thread, merged and written out when the run ends; self time is
//! computed from the parent links.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call or op name, e.g. `dirsvr.resolve`.
    pub name: &'static str,
    /// The op this span belongs to (unique per run).
    pub op: u64,
    /// Generator thread that recorded it.
    pub thread: u32,
    /// 1-based index within the thread's spans.
    pub id: u32,
    /// The enclosing span's `id`, or 0 for an op's root span.
    pub parent: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Disabled tracers run the wrapped call
/// and record nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    thread: u32,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            thread: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer for generator `thread`, timing from `epoch`.
    pub fn on(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            thread,
            op: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Sets the op id carried by subsequent spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            op: self.op,
            thread: self.thread,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns): duration minus the time covered
    /// by direct children.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration in microseconds (0 when there are no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self time and totals per span name. `spans` may interleave threads.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry((s.thread, s.parent)).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&(s.thread, s.id)).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// At most this many spans are written to the span file.
pub const SPAN_FILE_LIMIT: usize = 100_000;

/// Writes the first [`SPAN_FILE_LIMIT`] spans as tab-separated lines.
///
/// # Errors
/// I/O errors creating or writing the file.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# {} of {} spans; columns: thread op id parent name start_ns end_ns",
        spans.len().min(SPAN_FILE_LIMIT),
        spans.len()
    )?;
    for s in spans.iter().take(SPAN_FILE_LIMIT) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.thread, s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            thread: 0,
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 1, 0, 0, 100),
            span("dirsvr.resolve", 2, 1, 10, 40),
            span("flatfs.read", 3, 1, 50, 90),
            span("inner", 4, 3, 60, 70),
        ];
        let stats = by_name(&spans);
        assert_eq!(stats["op"].self_ns, 30);
        assert_eq!(stats["flatfs.read"].self_ns, 30);
        assert_eq!(stats["inner"].self_ns, 10);
        assert_eq!(stats["dirsvr.resolve"].total_ns, 30);
    }

    #[test]
    fn tracer_links_nested_spans() {
        let mut t = Tracer::on(Instant::now(), 3);
        t.set_op(9);
        t.span("op", |t| t.span("child", |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert!(spans.iter().all(|s| s.op == 9 && s.thread == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("op", |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }
}
