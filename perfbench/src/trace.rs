//! Spans recorded around calls into the system's layers, kept in memory
//! and written at exit as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`).
//!
//! Each recording thread owns a [`Recorder`] (its own lane, so no lock
//! sits in a timed loop); the lanes are merged once the threads join.
//! A span carries its parent and the id of the operation it belongs to;
//! [`self_times`] subtracts the part of a span's interval its children
//! cover, which is how the per-layer numbers are derived.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (lane in the high bits).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation (request, child process, probe) it belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `proto.decode`.
    pub name: &'static str,
    /// Recording lane (one per thread).
    pub lane: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer sharing one epoch with its siblings.
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on `lane`, timing relative to `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> Recorder {
        Recorder {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A sibling recorder for another thread.
    pub fn lane(&self, lane: u32) -> Recorder {
        Recorder::new(self.epoch, lane)
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.lane) << 48) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span under a reserved `id`.
    pub fn span(
        &mut self,
        id: u64,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            lane: self.lane,
            start_ns,
            end_ns,
        });
    }

    /// Records a closed span with a fresh id and returns the id.
    pub fn leaf(
        &mut self,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.span(id, parent, op, name, start, end);
        id
    }

    /// Moves `other`'s spans into this recorder.
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, grouped by span name: the
/// span's duration minus the union of its children's intervals (clipped
/// to the span).
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        out.entry(s.name)
            .or_default()
            .push(s.dur_ns().saturating_sub(covered) as f64);
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The spans as a Chrome trace-event document: one complete (`"X"`)
/// event per span, one thread row per lane.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.op,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0, 1);
        let root = r.id();
        // Overlapping children [1,4) and [3,6) cover 5 ms of the 10 ms root.
        r.leaf(Some(root), 1, "child.a", at(1), at(4));
        r.leaf(Some(root), 1, "child.b", at(3), at(6));
        r.span(root, None, 1, "root", at(0), at(10));
        let st = self_times(r.spans());
        assert_eq!(st["root"], vec![5e6]);
        assert_eq!(st["child.a"], vec![3e6]);
        let json = chrome_json(r.spans(), "t");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
