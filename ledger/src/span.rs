//! In-memory spans around the calls the harness makes into each layer.
//!
//! One driver thread makes every call, so the open spans form a stack and a
//! span's parent is whatever was open when it started.  Spans are kept in
//! memory and written out as Chrome `trace_event` JSON when the run ends.
//! A layer's *self time* is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The job (index within the run) the call was made for.
    pub job: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name`, child of the span open now.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u64,
        call: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let result = call(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON (complete events, one per line), loadable
    /// in `chrome://tracing` and Perfetto.  Times are microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": \"ledger\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"job\": {}, \"parent\": {}}}}}{sep}\n",
                quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.job,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

/// Self time of every span: duration minus the duration of its direct
/// children (children of one driver thread never overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self-time samples, in nanoseconds, of the spans from index `from` on,
/// grouped by span name.
pub fn self_times_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)).skip(from) {
        by_name.entry(span.name).or_default().push(own as f64);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("job", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("fingerprint", 12, 20, Some(1)),
            span("wait", 40, 90, Some(0)),
        ];
        // job: 100 - 30 - 50; submit: 30 - 8; grandchildren do not count twice.
        assert_eq!(self_times_ns(&spans), vec![20, 22, 8, 50]);
        let by_name = self_times_by_name(&spans, 1);
        assert_eq!(by_name["submit"], vec![22.0]);
        assert!(!by_name.contains_key("job"));
    }

    #[test]
    fn nesting_records_parents_and_the_trace_loads() {
        let mut t = Tracer::default();
        let answer = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(answer, 42);
        t.span("sibling", 8, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = json::parse(&t.chrome_trace()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
