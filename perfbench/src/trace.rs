//! Wall-clock spans around every call the benchmark makes into a layer,
//! kept in memory and written at the end as Chrome-trace JSON (loads in
//! Perfetto and chrome://tracing).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; the innermost open span is its
    /// parent.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome-trace document: complete (`X`) events on one
    /// thread, each carrying its id and its parent's id.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        t.span("second", |_| ());
        assert_eq!(t.len(), 3);
        let json = t.to_chrome_trace();
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"args\":{\"id\":0,\"parent\":null}"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0}"));
        assert!(json.contains("\"args\":{\"id\":2,\"parent\":null}"));
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 1), 1);
        assert_eq!(t.len(), 0);
    }
}
