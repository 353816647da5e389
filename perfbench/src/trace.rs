//! Spans recorded from the benchmark's own side of each layer boundary, and the ledger
//! arithmetic over them.
//!
//! A traced run wraps every top-level workload call in a span, then replays a sample of the
//! same generated requests through each layer's public entry point, one span per layer per
//! replayed request; the spans of one request share its request id. A layer's self time is
//! its span minus the part of that interval its child spans cover; the ledger's unattributed
//! share is what the replayed layers leave unexplained of the mean full call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; they are summarised when the run ends.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; returns its result and the span id.
    pub fn span<R>(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce(u64) -> R,
    ) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        (out, id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// `span`'s duration minus the union of its children's intervals clipped to it.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.duration_ns() - covered
}

/// Mean self time in microseconds of every span named `name`, and how many there were.
pub fn mean_self_us(spans: &[Span], name: &str) -> (f64, usize) {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let selves: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            self_time_ns(s, kids) as f64 / 1e3
        })
        .collect();
    (crate::stats::mean(&selves), selves.len())
}

/// One replayed layer's share of a full call: its mean per replay times how many of it one
/// full call performs (e.g. a 16-assertion record pays 16 per-assertion store stagings).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerPart {
    pub layer: String,
    pub mean_us: f64,
    pub per_call: f64,
}

/// 1 − (sum of replayed layer means per call) ÷ (mean full call). Negative when the replayed
/// layers, run alone, cost more than the call they were replayed from.
pub fn unattributed_share(full_mean_us: f64, parts: &[LedgerPart]) -> f64 {
    if full_mean_us <= 0.0 {
        return 0.0;
    }
    let attributed: f64 = parts.iter().map(|p| p.mean_us * p.per_call).sum();
    1.0 - attributed / full_mean_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let root = span(1, None, "call", 100, 200);
        let a = span(2, Some(1), "a", 110, 140);
        let b = span(3, Some(1), "b", 130, 160); // overlaps a: union 110..160
        let c = span(4, Some(1), "c", 190, 250); // clipped to 190..200
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&root, &[&a]), 70);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 50);
        assert_eq!(self_time_ns(&root, &[&c, &b, &a]), 40);
        // A child entirely outside the parent covers nothing.
        let d = span(5, Some(1), "d", 300, 400);
        assert_eq!(self_time_ns(&root, &[&d]), 100);
        // A child covering the whole parent leaves no self time.
        let e = span(6, Some(1), "e", 50, 250);
        assert_eq!(self_time_ns(&root, &[&e]), 0);
    }

    #[test]
    fn mean_self_time_groups_by_name() {
        let spans = vec![
            span(1, None, "call", 0, 1000),
            span(2, Some(1), "layer", 0, 400),
            span(3, None, "call", 2000, 4000),
        ];
        let (mean, n) = mean_self_us(&spans, "call");
        assert_eq!(n, 2);
        // (600 + 2000) / 2 ns = 1.3 µs
        assert!((mean - 1.3).abs() < 1e-9);
    }

    #[test]
    fn unattributed_share_of_a_ledger() {
        let parts = vec![
            LedgerPart {
                layer: "codec".into(),
                mean_us: 10.0,
                per_call: 1.0,
            },
            LedgerPart {
                layer: "store".into(),
                mean_us: 2.0,
                per_call: 16.0,
            },
        ];
        // attributed 10 + 32 = 42 of 60
        assert!((unattributed_share(60.0, &parts) - 0.3).abs() < 1e-12);
        assert!((unattributed_share(42.0, &parts)).abs() < 1e-12);
        assert!(unattributed_share(21.0, &parts) < 0.0);
        assert_eq!(unattributed_share(0.0, &parts), 0.0);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tracer = Tracer::default();
        let ((), root) = tracer.span(1, None, "call", |root| {
            tracer.span(1, Some(root), "layer", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "layer").unwrap();
        assert_eq!(child.parent, Some(root));
        let parent = spans.iter().find(|s| s.id == root).unwrap();
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
    }
}
