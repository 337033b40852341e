//! The benchmark's own spans: one record per public call into a layer,
//! kept in memory and written out when the run ends.
//!
//! The program's layers are black boxes here, so a parent's children
//! are *replayed*: the same call the parent made inside itself is made
//! again from the benchmark, timed, and laid under the parent from the
//! parent's start, one after the other. A parent's self time — its
//! duration minus what its children cover — is then the part of it the
//! replay could not attribute to any layer.

use serde::json::{obj, JsonValue};

/// One timed call. Times are nanoseconds from the start of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer, `None` for a root.
    pub parent: Option<usize>,
}

/// Collects spans for the whole run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Per span: where its next replayed child starts.
    cursor_ns: Vec<u64>,
    next_trace: u64,
}

impl Tracer {
    /// Starts a new trace (one per sample) and records its root span.
    pub fn root(&mut self, name: &'static str, duration_ns: u64) -> usize {
        self.next_trace += 1;
        self.push(Span {
            trace_id: self.next_trace,
            name,
            start_ns: 0,
            end_ns: duration_ns,
            parent: None,
        })
    }

    /// Records a replayed child of `parent`, placed after the parent's
    /// earlier children.
    pub fn child(&mut self, parent: usize, name: &'static str, duration_ns: u64) -> usize {
        let start_ns = self.cursor_ns[parent];
        self.cursor_ns[parent] = start_ns + duration_ns;
        self.push(Span {
            trace_id: self.spans[parent].trace_id,
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.cursor_ns.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval its direct children cover.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        // A span's descendants follow it and share its trace.
        let trace = self.spans[idx].trace_id;
        let children: Vec<(u64, u64)> = self.spans[idx + 1..]
            .iter()
            .take_while(|s| s.trace_id == trace)
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time_ns(self.spans[idx].start_ns, self.spans[idx].end_ns, &children)
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj([
                        ("span", JsonValue::Uint(i as u64)),
                        ("trace", JsonValue::Uint(s.trace_id)),
                        ("name", JsonValue::Str(s.name.to_string())),
                        ("start_ns", JsonValue::Uint(s.start_ns)),
                        ("end_ns", JsonValue::Uint(s.end_ns)),
                        ("parent", s.parent.map_or(JsonValue::Null, |p| JsonValue::Uint(p as u64))),
                    ])
                })
                .collect(),
        )
    }
}

/// Duration of `[start, end)` not covered by any of `children`.
/// Children may overlap each other and may stick out of the parent;
/// only the union of their parts inside the parent counts.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        assert_eq!(self_time_ns(0, 100, &[]), 100);
        assert_eq!(self_time_ns(0, 100, &[(10, 30), (50, 60)]), 70);
        // Back-to-back children covering everything leave nothing.
        assert_eq!(self_time_ns(0, 100, &[(0, 40), (40, 100)]), 0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (30, 70)]), 40);
        // One child nested in another adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 90), (20, 30)]), 20);
        // Unsorted input, identical intervals.
        assert_eq!(self_time_ns(0, 100, &[(60, 80), (10, 20), (60, 80)]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(100, 200, &[(50, 120), (190, 400)]), 70);
        // Entirely outside: covers nothing.
        assert_eq!(self_time_ns(100, 200, &[(0, 100), (200, 300)]), 100);
        // Replayed children that add up to more than the parent: zero,
        // never negative.
        assert_eq!(self_time_ns(0, 100, &[(0, 80), (80, 160)]), 0);
    }

    #[test]
    fn tracer_lays_replayed_children_end_to_end() {
        let mut t = Tracer::default();
        let root = t.root("gateway.binary", 1_000);
        let a = t.child(root, "wire.encode_req", 100);
        let b = t.child(root, "serve.submit_wait", 600);
        let c = t.child(b, "exec.infer", 500);
        assert_eq!((t.spans[a].start_ns, t.spans[a].end_ns), (0, 100));
        assert_eq!((t.spans[b].start_ns, t.spans[b].end_ns), (100, 700));
        // A grandchild starts where its own parent starts.
        assert_eq!((t.spans[c].start_ns, t.spans[c].end_ns), (100, 600));
        assert_eq!(t.self_time_ns(root), 300);
        assert_eq!(t.self_time_ns(b), 100);
        assert_eq!(t.self_time_ns(c), 500);
        // A second sample is a second trace.
        let other = t.root("exec.cold_build", 50);
        assert_ne!(t.spans[other].trace_id, t.spans[root].trace_id);
        assert_eq!(t.spans[c].trace_id, t.spans[root].trace_id);
    }
}
