//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are recorded only by the benchmark's own code. Each has a name,
//! a parent, the recording thread, and start/end offsets from the
//! tracer's origin; they are kept in memory and written out once, when
//! the traced run ends. A span's self time is its duration minus the
//! part of it covered by its children (the union of their intervals, as
//! children on different threads may overlap).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Metric;

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn start(&self, name: &'static str, parent: Option<SpanId>) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends `open` and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end = Instant::now();
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        let dur = rec.dur_ns();
        self.spans.lock().expect("span list poisoned").push(rec);
        dur
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let open = self.start(name, parent);
        let result = f();
        self.end(open);
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Count, total time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(covered);
        }
        totals
    }

    /// Renders every span, the per-name totals and `metrics` as JSON.
    pub fn to_json(&self, metrics: &[Metric]) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.thread, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n], \"totals\": {");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("\n}, \"metrics\": {");
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(out, "{sep}\"{}\": {v:?}", m.name);
        }
        out.push_str("\n}}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut children = vec![(10, 40), (30, 50), (70, 80)];
        assert_eq!(union_ns(&mut children, 0, 100), 50);
        let mut clipped = vec![(0, 20), (90, 120)];
        assert_eq!(union_ns(&mut clipped, 10, 100), 20);
    }
}
