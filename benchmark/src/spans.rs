//! The benchmark's own span recorder: one span around every call into a
//! layer, kept in memory and written out when the run ends.
//!
//! A span has a name, the layer (crate) it calls into, start and end, the
//! span that caused it, and the id of the operation (rep, plan or request)
//! it belongs to. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover; children on other threads
//! may overlap each other, so the covered part is the union of their
//! intervals, clipped to the parent.
//!
//! Timed numbers come from runs with the recorder off: then [`Recorder::span`]
//! hands out an inert guard without reading the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Operation this span belongs to (rep, plan or request number).
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-thread number, for the trace viewer's rows.
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD_NO: u32 = {
        // Relaxed: a unique label, publishes no other data.
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// In-memory span store.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    // Relaxed: a unique id, publishes no other data.
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'r> {
    live: Option<(&'r Recorder, Span)>,
}

impl Guard<'_> {
    /// This span's id, to name it as the parent of spans on other threads.
    pub fn id(&self) -> Option<u32> {
        self.live.as_ref().map(|(_, s)| s.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((rec, mut span)) = self.live.take() {
            span.end_ns = rec.now_ns();
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(at) = open.iter().rposition(|&id| id == span.id) {
                    open.remove(at);
                }
            });
            rec.done
                .lock()
                .expect("span store is never held across a panic")
                .push(span);
        }
    }
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span caused by the innermost span open on this thread.
    pub fn span(&self, layer: &'static str, name: &'static str, op: u64) -> Guard<'_> {
        if !self.on {
            return Guard { live: None };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.open(parent, layer, name, op)
    }

    /// Open a span caused by `parent`, which may be open on another thread.
    pub fn span_under(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        op: u64,
    ) -> Guard<'_> {
        if !self.on {
            return Guard { live: None };
        }
        self.open(parent, layer, name, op)
    }

    fn open(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        op: u64,
    ) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.now_ns();
        Guard {
            live: Some((
                self,
                Span {
                    id,
                    parent,
                    op,
                    layer,
                    name,
                    start_ns,
                    end_ns: start_ns,
                    thread: THREAD_NO.with(|n| *n),
                },
            )),
        }
    }

    /// Every finished span, in id order.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .done
            .into_inner()
            .expect("span store is never held across a panic");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// One row of the self-time table: every span of one name in one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The self-time table, by layer then name.
pub fn table(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<(&'static str, &'static str), Row> = BTreeMap::new();
    for s in spans {
        let row = rows.entry((s.layer, s.name)).or_insert(Row {
            layer: s.layer,
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += selfs[&s.id];
    }
    rows.into_values().collect()
}

/// Share of the root spans named `root` that spans below them cover: one
/// minus the roots' own self time over their duration. The acceptance
/// floor is 0.9 — time the table cannot attribute to a layer call.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == root) {
        total += s.duration_ns();
        own += selfs[&s.id];
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - own as f64 / total as f64
}

/// Render the table as aligned text.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<28} {:>8} {:>12} {:>12}\n",
        "LAYER", "SPAN", "COUNT", "TOTAL ms", "SELF ms"
    );
    for r in rows {
        out += &format!(
            "{:<10} {:<28} {:>8} {:>12.3} {:>12.3}\n",
            r.layer,
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

/// Chrome `trace_event` JSON (complete events, microsecond timestamps);
/// loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Names and layers are identifiers from this crate's source: no
        // character in them needs escaping.
        out += &format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent.unwrap_or(0),
            s.op
        );
    }
    out += "\n]}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: "l",
            name: "n",
            start_ns: start,
            end_ns: end,
            thread: 1,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 30),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 50, "root loses its child only, not the grandchild");
        assert_eq!(s[&2], 40);
        assert_eq!(s[&3], 10);
        assert_eq!(s.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn siblings_subtract_their_sum_when_disjoint() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 50, 90),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn cross_thread_children_subtract_their_union_not_their_sum() {
        // Two workers overlap on 20..40; a third runs past the parent.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 70),
            span(4, Some(1), 90, 130),
        ];
        let s = self_times(&spans);
        // Covered: 10..70 and 90..100 = 70.
        assert_eq!(s[&1], 30);
        // Children keep their full duration as self time.
        assert_eq!(s[&2] + s[&3] + s[&4], 30 + 50 + 40);
    }

    #[test]
    fn coverage_is_the_share_of_the_root_below_it() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 5, 95)];
        spans[0].name = "timed";
        assert!((coverage(&spans, "timed") - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_links_parents_on_one_thread_and_across_threads() {
        let rec = Recorder::new(true);
        {
            let root = rec.span("benchmark", "timed", 7);
            {
                let _inner = rec.span("sim", "run", 7);
            }
            let parent = root.id();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = rec.span_under(parent, "bench", "worker", 8);
                    let _nested = rec.span("sim", "run", 8);
                });
            });
        }
        let spans = rec.finish();
        assert_eq!(spans.len(), 4);
        let by_name = |layer: &str, name: &str, op: u64| {
            spans
                .iter()
                .find(|s| s.layer == layer && s.name == name && s.op == op)
                .expect("span recorded")
        };
        let root = by_name("benchmark", "timed", 7);
        assert_eq!(root.parent, None);
        assert_eq!(by_name("sim", "run", 7).parent, Some(root.id));
        let worker = by_name("bench", "worker", 8);
        assert_eq!(worker.parent, Some(root.id));
        assert_ne!(worker.thread, root.thread);
        assert_eq!(by_name("sim", "run", 8).parent, Some(worker.id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let trace = chrome_trace(&spans);
        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace is JSON");
        assert_eq!(parsed["traceEvents"].as_array().map(Vec::len), Some(4));
    }

    #[test]
    fn recorder_off_records_nothing() {
        let rec = Recorder::new(false);
        {
            let g = rec.span("sim", "run", 1);
            assert_eq!(g.id(), None);
        }
        assert!(rec.finish().is_empty());
    }
}
