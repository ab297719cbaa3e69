//! The span recorder: the benchmark's own tracing around every call into a
//! layer's public function.
//!
//! A span has a name of the form `layer.operation`, a start and an end
//! relative to the recorder's epoch, the id of the span that caused it and
//! a request id shared by the spans of one request. Spans are kept in
//! memory and written out once, when the run ends. A disabled recorder
//! still runs the wrapped call but records nothing, so untraced runs pay
//! one branch per call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    pub request: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// (0 when disabled) so it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let value = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span list lock").push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
        value
    }

    /// All spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        v
    }

    /// Summed duration of the spans named `name`, of one request if given.
    pub fn total(&self, name: &str, request: Option<u64>) -> f64 {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name && request.is_none_or(|r| s.request == r))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as JSON lines, for writing out at the end of a run.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}\n",
                s.id, s.name, s.start, s.end, parent, s.request
            ));
        }
        out
    }
}

/// Self time of every span in the tree under `root`, in seconds.
///
/// A span's self time is the part of its interval during which none of its
/// children runs. Where children of one parent overlap (concurrent
/// requests), the overlapping time is shared equally among the spans that
/// are innermost at that moment, so the self times of the tree always add
/// up to the root's duration.
pub fn self_times(spans: &[Span], root: u64) -> BTreeMap<u64, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let Some(root_span) = by_id.get(&root) else {
        return BTreeMap::new();
    };
    let in_tree = |s: &Span| {
        let mut cur = Some(s.id);
        while let Some(id) = cur {
            if id == root {
                return true;
            }
            cur = by_id.get(&id).and_then(|p| p.parent);
        }
        false
    };
    let (lo, hi) = (root_span.start, root_span.end);
    let tree: Vec<&Span> = spans.iter().filter(|s| in_tree(s)).collect();
    let clip = |t: f64| t.clamp(lo, hi);

    let mut cuts: Vec<f64> = tree
        .iter()
        .flat_map(|s| [clip(s.start), clip(s.end)])
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let mut out: BTreeMap<u64, f64> = tree.iter().map(|s| (s.id, 0.0)).collect();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<&Span> = tree
            .iter()
            .copied()
            .filter(|s| clip(s.start) <= a && clip(s.end) >= b)
            .collect();
        let mut has_active_child = std::collections::BTreeSet::new();
        for s in &active {
            let mut cur = s.parent;
            while let Some(p) = cur {
                if !has_active_child.insert(p) || p == root {
                    break;
                }
                cur = by_id.get(&p).and_then(|x| x.parent);
            }
        }
        let innermost: Vec<u64> = active
            .iter()
            .map(|s| s.id)
            .filter(|id| !has_active_child.contains(id))
            .collect();
        let share = (b - a) / innermost.len().max(1) as f64;
        for id in innermost {
            *out.get_mut(&id).expect("tree span") += share;
        }
    }
    out
}

/// Self time per layer for the tree under `root`. The root's own layer is
/// reported as `unattributed`: time the benchmark spent outside any layer
/// call.
pub fn layer_self_times(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let names: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = BTreeMap::new();
    for (id, t) in self_times(spans, root) {
        let layer = if id == root {
            "unattributed"
        } else {
            names[&id].layer()
        };
        *out.entry(layer).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_children_are_subtracted_from_their_parent() {
        // root [0,10] > a [1,6] > b [2,4]; root > c [7,9]
        let spans = vec![
            span(1, "bench.pass", 0.0, 10.0, None),
            span(2, "analysis.find", 1.0, 6.0, Some(1)),
            span(3, "reuse.analyze", 2.0, 4.0, Some(2)),
            span(4, "cache.sim", 7.0, 9.0, Some(1)),
        ];
        let st = self_times(&spans, 1);
        assert!(close(st[&1], 10.0 - 5.0 - 2.0));
        assert!(close(st[&2], 5.0 - 2.0));
        assert!(close(st[&3], 2.0));
        assert!(close(st[&4], 2.0));
        let total: f64 = st.values().sum();
        assert!(close(total, 10.0));
    }

    #[test]
    fn overlapping_children_share_the_overlap() {
        // Two concurrent requests under one root: [1,5] and [3,8].
        let spans = vec![
            span(1, "bench.pass", 0.0, 10.0, None),
            span(2, "serve.request", 1.0, 5.0, Some(1)),
            span(3, "serve.request", 3.0, 8.0, Some(1)),
        ];
        let st = self_times(&spans, 1);
        // The root runs alone on [0,1] and [8,10].
        assert!(close(st[&1], 3.0));
        // [3,5] is split between the two requests.
        assert!(close(st[&2], 2.0 + 1.0));
        assert!(close(st[&3], 1.0 + 3.0));
        let layers = layer_self_times(&spans, 1);
        assert!(close(layers["serve"], 7.0));
        assert!(close(layers["unattributed"], 3.0));
    }

    #[test]
    fn overlapping_nested_spans_credit_only_innermost() {
        // Request 2 has a child during the overlap with request 3.
        let spans = vec![
            span(1, "bench.pass", 0.0, 10.0, None),
            span(2, "serve.request", 1.0, 6.0, Some(1)),
            span(5, "analysis.find", 2.0, 4.0, Some(2)),
            span(3, "serve.request", 3.0, 8.0, Some(1)),
        ];
        let st = self_times(&spans, 1);
        // [3,4]: innermost are span 5 and span 3 (span 2 has an active child).
        assert!(close(st[&5], 1.0 + 0.5));
        assert!(close(st[&2], 1.0 + 1.0));
        assert!(close(st[&3], 0.5 + 1.0 + 2.0));
        let total: f64 = st.values().sum();
        assert!(close(total, 10.0));
    }

    #[test]
    fn spans_outside_the_tree_are_ignored() {
        let spans = vec![
            span(1, "bench.pass", 0.0, 4.0, None),
            span(2, "cache.sim", 1.0, 2.0, Some(1)),
            span(3, "bench.extra", 4.0, 9.0, None),
            span(4, "trace.gen", 5.0, 6.0, Some(3)),
        ];
        let st = self_times(&spans, 1);
        assert_eq!(st.len(), 2);
        assert!(close(st[&1], 3.0));
    }

    #[test]
    fn recorder_keeps_parent_and_request_ids() {
        let rec = Recorder::new(true);
        rec.span("bench.pass", None, 7, |root| {
            rec.span("reuse.analyze", Some(root), 7, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.request == 7));
        let whole = spans[0].end - spans[0].start;
        assert_eq!(rec.total("bench.pass", Some(7)), whole);
        assert_eq!(rec.total("bench.pass", None), whole);
        assert_eq!(rec.total("bench.pass", Some(8)), 0.0);
        assert!(rec.dump().lines().count() == 2);

        let off = Recorder::new(false);
        assert_eq!(off.span("cache.sim", None, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
