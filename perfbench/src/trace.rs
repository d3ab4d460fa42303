//! In-memory spans of the traced run.
//!
//! A span is a named interval with a parent and the id of the request (or
//! pass) it belongs to.  Spans are kept in memory while the benchmark runs
//! and written out once, as JSON lines, when it ends.  A span's self time
//! is its duration minus the part of it that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log; ids are unique within it (0 means "no parent").
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Sets the end of a span opened with `start == end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.offset_ns(end);
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Self time of every span named `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for span in &self.spans {
            if span.parent != 0 {
                children[span.parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| {
                let mut covered = children[span.id as usize].clone();
                covered.sort_unstable();
                let (mut total, mut reach) = (0u64, span.start_ns);
                for (start, end) in covered {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        total += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(total) as f64 / 1e3
            })
            .collect()
    }

    /// Appends this log as JSON lines, tagging each span with `thread`.
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for span in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"thread":{thread},"id":{},"parent":{},"name":"{}","request":{},"start_ns":{},"end_ns":{}}}"#,
                span.id, span.parent, span.name, span.request, span.start_ns, span.end_ns
            );
        }
    }
}
