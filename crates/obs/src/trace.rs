//! Finished captures: the span tree, the metrics snapshot, and their JSON
//! export through [`crate::json`].

use crate::json::Value;
use crate::metrics::{Histogram, MetricsRegistry};

/// One span in the finished tree.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Dotted phase name, e.g. `"fed_knn.query"`.
    pub name: String,
    /// Small per-thread label (assigned in first-use order, not an OS id).
    pub thread: u64,
    /// Start offset from the capture epoch, microseconds.
    pub start_us: u64,
    /// Span duration in microseconds. For spans still open when the
    /// capture finished, this is the time until the capture end.
    pub duration_us: u64,
    /// False when the span was still open at [`crate::finish_capture`].
    pub closed: bool,
    /// Nested spans, in recording order.
    pub children: Vec<TraceSpan>,
}

/// A completed capture: the span forest plus the metrics snapshot.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Root spans (those with no enclosing span on their thread).
    pub spans: Vec<TraceSpan>,
    /// Counters, gauges, and histograms recorded during the capture.
    pub metrics: MetricsRegistry,
    /// Total capture wall time in microseconds.
    pub wall_us: u64,
}

impl Trace {
    /// Sum of `duration_us` over every span named `name`, anywhere in the
    /// tree. The aggregate a per-phase breakdown wants.
    #[must_use]
    pub fn total_us(&self, name: &str) -> u64 {
        fn walk(spans: &[TraceSpan], name: &str) -> u64 {
            spans
                .iter()
                .map(|s| (if s.name == name { s.duration_us } else { 0 }) + walk(&s.children, name))
                .sum()
        }
        walk(&self.spans, name)
    }

    /// Number of spans named `name`, anywhere in the tree.
    #[must_use]
    pub fn span_count(&self, name: &str) -> u64 {
        fn walk(spans: &[TraceSpan], name: &str) -> u64 {
            spans.iter().map(|s| u64::from(s.name == name) + walk(&s.children, name)).sum()
        }
        walk(&self.spans, name)
    }

    /// Total number of spans in the tree, regardless of name.
    #[must_use]
    pub fn span_count_total(&self) -> u64 {
        fn walk(spans: &[TraceSpan]) -> u64 {
            spans.iter().map(|s| 1 + walk(&s.children)).sum()
        }
        walk(&self.spans)
    }

    /// Every distinct span name in the tree, sorted.
    #[must_use]
    pub fn span_names(&self) -> Vec<String> {
        fn walk(spans: &[TraceSpan], out: &mut Vec<String>) {
            for s in spans {
                out.push(s.name.clone());
                walk(&s.children, out);
            }
        }
        let mut names = Vec::new();
        walk(&self.spans, &mut names);
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Serializes the full capture — span tree and metrics — as JSON,
    /// one key per line (the [`crate::json`] writer's layout).
    ///
    /// Schema (documented in DESIGN.md §8):
    ///
    /// ```json
    /// {
    ///   "wall_us": 1234,
    ///   "spans": [{"name": "...", "thread": 0, "start_us": 0,
    ///              "duration_us": 10, "closed": true, "children": [...]}],
    ///   "metrics": {
    ///     "counters": {"name": 1},
    ///     "gauges": {"name": 1.5},
    ///     "histograms": {"name": {"count": 2, "sum": 3.0, "min": 1.0,
    ///                             "max": 2.0, "mean": 1.5, "buckets": [...]}}
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        object([
            ("wall_us", num(self.wall_us)),
            ("spans", Value::Arr(self.spans.iter().map(span_value).collect())),
            (
                "metrics",
                object([
                    ("counters", named(m.counters(), |v| num(*v))),
                    ("gauges", named(m.gauges(), |v| Value::Num(*v))),
                    ("histograms", named(m.histograms(), histogram_value)),
                ]),
            ),
        ])
        .to_json()
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn named<T>(map: &std::collections::BTreeMap<String, T>, value: impl Fn(&T) -> Value) -> Value {
    Value::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

fn span_value(s: &TraceSpan) -> Value {
    object([
        ("name", Value::Str(s.name.clone())),
        ("thread", num(s.thread)),
        ("start_us", num(s.start_us)),
        ("duration_us", num(s.duration_us)),
        ("closed", Value::Bool(s.closed)),
        ("children", Value::Arr(s.children.iter().map(span_value).collect())),
    ])
}

fn histogram_value(h: &Histogram) -> Value {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    object([
        ("count", num(h.count())),
        ("sum", Value::Num(h.sum())),
        ("min", opt(h.min())),
        ("max", opt(h.max())),
        ("mean", opt(h.mean())),
        ("buckets", Value::Arr(h.buckets().iter().map(|b| num(*b)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, dur: u64) -> TraceSpan {
        TraceSpan {
            name: name.to_owned(),
            thread: 0,
            start_us: 0,
            duration_us: dur,
            closed: true,
            children: Vec::new(),
        }
    }

    fn sample() -> Trace {
        let mut metrics = MetricsRegistry::default();
        metrics.counter_add("enc", 7);
        metrics.gauge_set("bytes", 12.5);
        metrics.histogram_record("lat_us", 3.0);
        let root =
            TraceSpan { children: vec![leaf("child", 2), leaf("child", 3)], ..leaf("root", 10) };
        Trace { spans: vec![root], metrics, wall_us: 42 }
    }

    #[test]
    fn aggregates_by_name_across_the_tree() {
        let t = sample();
        assert_eq!(t.total_us("child"), 5);
        assert_eq!(t.total_us("root"), 10);
        assert_eq!(t.total_us("missing"), 0);
        assert_eq!(t.span_count("child"), 2);
        assert_eq!(t.span_count_total(), 3);
        assert_eq!(t.span_names(), vec!["child".to_owned(), "root".to_owned()]);
    }

    #[test]
    fn json_contains_tree_and_metrics() {
        let j = sample().to_json();
        assert!(j.contains("\"wall_us\": 42"), "{j}");
        assert!(j.contains("\"enc\": 7"), "{j}");
        // The export parses with the workspace codec and gives back the
        // span tree, counters, gauges and histogram fields.
        let v = crate::json::parse(&j).expect("trace JSON parses");
        let root = match v.get("spans") {
            Some(Value::Arr(spans)) if spans.len() == 1 => &spans[0],
            other => panic!("expected one root span, got {other:?}"),
        };
        assert_eq!(root.get("name"), Some(&Value::Str("root".into())));
        assert_eq!(root.get("duration_us").and_then(Value::as_num), Some(10.0));
        // Children nest inside their parent, not beside it.
        match root.get("children") {
            Some(Value::Arr(children)) => {
                let names: Vec<_> = children.iter().filter_map(|c| c.get("name")).collect();
                assert_eq!(names, vec![&Value::Str("child".into()); 2]);
            }
            other => panic!("expected children, got {other:?}"),
        }
        let metrics = v.get("metrics").expect("metrics");
        let counter = metrics.get("counters").and_then(|c| c.get("enc"));
        assert_eq!(counter.and_then(Value::as_num), Some(7.0));
        let gauge = metrics.get("gauges").and_then(|g| g.get("bytes"));
        assert_eq!(gauge.and_then(Value::as_num), Some(12.5));
        let hist = metrics.get("histograms").and_then(|h| h.get("lat_us")).expect("histogram");
        for (field, want) in [("count", 1.0), ("sum", 3.0), ("min", 3.0), ("max", 3.0)] {
            assert_eq!(hist.get(field).and_then(Value::as_num), Some(want), "{field}");
        }
        match hist.get("buckets") {
            Some(Value::Arr(b)) => assert_eq!(b.len(), crate::HISTOGRAM_BUCKETS),
            other => panic!("expected buckets, got {other:?}"),
        }
    }
}
