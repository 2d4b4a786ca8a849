//! The benchmark's own span recorder. Traced runs record one span around
//! every public call the benchmark makes into the stack (the program itself
//! gets no new instrumentation); spans stay in memory and are written as
//! JSON lines when the run ends, followed by per-layer self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Shared by every span of one request or registration.
    pub trace: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// `layer.call`, e.g. `serve.register` or `tune.convert`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder. Ids carry a per-thread tag, so recorders on
/// different threads never collide and need no synchronisation. Disabled
/// recorders (untraced runs) drop everything and hand out id 0.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, thread_tag: u64) -> Tracer {
        Tracer { epoch, enabled, next: thread_tag << 48, spans: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id, for a trace or for a parent span recorded after its
    /// children.
    pub fn id(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        self.next
    }

    pub fn record(
        &mut self,
        id: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { trace, id, parent, name, start_ns: ns(start), end_ns: ns(end) });
        }
    }

    /// Records a span under a fresh id and returns that id.
    pub fn span(&mut self, trace: u64, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.record(id, trace, parent, name, start, end);
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: `(spans, total ns, self ns)`, where self time is the
/// span's duration minus the part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Where span files go: `out/` beside this package's manifest, inside the
/// checkout the benchmark was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes every span, then one self-time line per layer, as JSON lines.
pub fn write_span_file(path: &Path, spans: &[Span], extra: &[(&str, String)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (k, v) in extra {
        writeln!(w, "{{\"note\": \"{k}\", \"value\": {v}}}")?;
    }
    for s in spans {
        writeln!(
            w,
            "{{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, (n, total, own)) in self_times(spans) {
        writeln!(
            w,
            "{{\"layer\": \"{name}\", \"spans\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
            total as f64 / 1e6,
            own as f64 / 1e6
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, name, start_ns, end_ns| Span { trace: 1, id, parent, name, start_ns, end_ns };
        let spans = [
            mk(1, 0, "request", 0, 100),
            mk(2, 1, "submit", 10, 30),
            mk(3, 1, "wait", 20, 60),  // overlaps submit: union is 10..60
            mk(4, 3, "check", 50, 70), // runs past its parent: clipped
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 100, 50));
        assert_eq!(t["submit"], (1, 20, 20));
        assert_eq!(t["wait"], (1, 40, 30));
        assert_eq!(t["check"], (1, 20, 20));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let now = Instant::now();
        let mut t = Tracer::new(now, false, 1);
        assert_eq!(t.span(1, 0, "x", now, now), 0);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(now, true, 2);
        let a = t.span(1, 0, "x", now, now);
        let b = t.span(1, a, "y", now, now);
        assert!(a != b && a >> 48 == 2);
        assert_eq!(t.into_spans().len(), 2);
    }
}
