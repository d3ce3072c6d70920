//! The benchmark's own span recorder.
//!
//! Spans are recorded *around* calls into a layer, from this bin's files
//! only: name, start, end, the span that caused it, and an operation id
//! shared by every span of one operation. They stay in memory and are
//! written out once, when the run ends. With tracing off, [`Tracer::span`]
//! is a plain call of the closure: no clock is read and nothing is stored.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the dump; the per-name totals cover every span.
const DUMP_LIMIT: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Operation id: equal for all spans of one benchmark operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many layer calls the span covers (batched spans cover many).
    pub units: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub spans: u64,
    pub units: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    /// Mean span time per covered call, in nanoseconds.
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.units as f64
        }
    }

    /// Mean self time per covered call, in nanoseconds.
    pub fn self_ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

struct Open {
    index: Option<usize>,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// A per-thread span recorder; worker threads own one each and the driver
/// [`Tracer::merge`]s them afterwards.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    op: u64,
}

impl Tracer {
    /// A recorder that is initially off.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            op: 0,
        }
    }

    /// A recorder for a worker thread: same origin and state as `self`.
    pub fn fork(&self) -> Tracer {
        let mut t = Tracer::new(self.origin);
        t.enabled = self.enabled;
        t
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation: spans recorded from here share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name` that covers `units` layer calls.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        units: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = (self.spans.len() < DUMP_LIMIT).then(|| {
            let parent = self.open.iter().rev().find_map(|o| o.index);
            self.spans.push(Span {
                name,
                parent,
                op: self.op,
                start_ns: 0,
                end_ns: 0,
                units,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            index,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let result = f(self);
        let end = Instant::now();
        let open = self.open.pop().expect("span stack is balanced");
        debug_assert_eq!(open.name, name);
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(i) = open.index {
            self.spans[i].start_ns = (open.start - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(name).or_default();
        t.spans += 1;
        t.units += units;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        result
    }

    /// Folds a worker thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut span in other.spans {
            if self.spans.len() >= DUMP_LIMIT {
                break;
            }
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.spans += t.spans;
            mine.units += t.units;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    /// Totals of every span named `name` (zeros if none was recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn span_count(&self) -> u64 {
        self.totals.values().map(|t| t.spans).sum()
    }

    /// The dump: per-name totals plus the first [`DUMP_LIMIT`] raw spans.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"totals\":{{");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"spans\":{},\"units\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.spans, t.units, t.total_ns, t.self_ns
            );
        }
        let _ = write!(
            out,
            "}},\"spans_recorded\":{},\"spans\":[",
            self.span_count()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.units
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.span_count(), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        t.next_op();
        t.span("outer", 1, |t| {
            t.span("inner", 4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("leaf", 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!((outer.spans, inner.spans, inner.units), (1, 1, 4));
        assert!(inner.total_ns >= 5_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns - t.totals("leaf").total_ns
        );
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.op == 1));
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn merge_offsets_parent_links_and_sums_totals() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.set_enabled(true);
        a.span("x", 1, |_| ());
        let mut b = a.fork();
        b.span("x", 1, |t| t.span("y", 1, |_| ()));
        a.merge(b);
        assert_eq!(a.totals("x").spans, 2);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
