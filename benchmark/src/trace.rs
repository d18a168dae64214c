//! The traced run's span recorder. Spans are taken from outside the
//! program — around the harness's own calls into each layer — kept in
//! memory, and written out when the workload ends.

use crate::stats::Span;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Span times are nanoseconds since `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root); close it with
    /// [`Trace::close`].
    pub fn open(&mut self, parent: u64, op_id: u64, name: &'static str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.duration()
    }

    /// Runs `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u64,
        op_id: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, op_id, name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose interval was timed by the caller.
    pub fn record(&mut self, op_id: u64, name: &'static str, start: Instant, ns: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: 0,
            op_id,
            name,
            start_ns,
            end_ns: start_ns + ns,
        });
        id
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_keep_parent_and_op() {
        let mut t = Trace::new(Instant::now());
        let probe = t.open(0, 9, "probe.read");
        let v = t.time(probe, 9, "child", || 42);
        t.close(probe);
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, probe);
        assert_eq!(t.spans[1].op_id, 9);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
