//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory during a pass and are written to `trace.json` when it
//! ends. A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are microseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one (`None` for a request root).
    pub parent: Option<usize>,
    /// Position of the request in the seeded sequence.
    pub request: usize,
}

/// Collects spans. A disabled recorder times calls exactly the same way but
/// keeps nothing — the untraced pass that tracing overhead is measured
/// against.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span that stays open until [`close`](Self::close); returns
    /// its index for use as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_us = self.now_us();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                request,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    pub fn close(&mut self, span: usize) {
        let end_us = self.now_us();
        if self.enabled {
            self.spans[span].end_us = end_us;
        }
    }

    /// Runs `call` inside a span under `parent` and returns its result with
    /// the elapsed microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let out = call();
        let end_us = self.now_us();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent: Some(parent),
                request,
            });
        }
        (out, end_us - start_us)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let self_us = self_times(&self.spans);
        let mut out = String::from("[");
        for (i, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{own:.3}}}",
                s.name, s.request, s.start_us, s.end_us
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span itself (so children
/// that overlap one another, or stick out, are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            let clipped = (s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_us,
            end_us,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0.0, 100.0, None),    // 0: root
            span(10.0, 40.0, Some(0)), // 1: child with a child of its own
            span(15.0, 25.0, Some(1)), // 2: grandchild
            span(40.0, 70.0, Some(0)), // 3: adjacent to 1
            span(90.0, 95.0, Some(0)), // 4: after a gap
        ];
        assert_eq!(self_times(&spans), vec![35.0, 20.0, 10.0, 30.0, 5.0]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 60.0, Some(0)),
            span(50.0, 80.0, Some(0)),  // overlaps the previous by 10
            span(90.0, 130.0, Some(0)), // sticks out by 30
            span(20.0, 30.0, Some(0)),  // inside the first
        ];
        // covered: [10,80] = 70 and [90,100] = 10
        assert_eq!(self_times(&spans)[0], 20.0);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new(true);
        let root = rec.open("request", None, 7);
        let (value, us) = rec.time("layer.call", root, 7, || 42);
        rec.close(root);
        assert_eq!(value, 42);
        assert!(us >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_us >= spans[1].end_us);
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"layer.call\",\"request\":7,\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.open("request", None, 0);
        let ((), us) = rec.time("layer.call", root, 0, || ());
        rec.close(root);
        assert!(us >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
