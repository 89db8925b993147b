//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Nothing inside the program is instrumented: a
//! span covers one call made from here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, self_time};

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name, such as `service.submit`.
    pub name: &'static str,
    /// The op this call served.
    pub op: usize,
    /// Index of the enclosing span in the same [`SpanBuf`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// The spans of one caller thread. With recording off every method is
/// a plain call, so the same code times an untraced pass.
pub struct SpanBuf {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` while recording is off).
pub type SpanId = Option<usize>;

impl SpanBuf {
    /// A buffer timing against `epoch`, recording only when `on`.
    pub fn new(epoch: Instant, on: bool) -> SpanBuf {
        SpanBuf {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`SpanBuf::close`] ends.
    pub fn open(&mut self, name: &'static str, op: usize, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`SpanBuf::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Call count and self times of one layer call name.
#[derive(Clone, Debug, Default)]
pub struct LayerStat {
    /// Self time of every call, in nanoseconds.
    pub self_ns: Vec<u64>,
}

impl LayerStat {
    /// Number of calls.
    pub fn calls(&self) -> usize {
        self.self_ns.len()
    }

    /// Median self time per call, in microseconds.
    pub fn median_us(&self) -> f64 {
        let us: Vec<f64> = self.self_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        median(&us)
    }

    /// Summed self time, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

/// Self time (span minus the time its children cover) of every span,
/// grouped by name.
pub fn layer_stats(bufs: &[SpanBuf]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for buf in bufs {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); buf.spans.len()];
        for s in &buf.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in buf.spans.iter().zip(&children) {
            out.entry(s.name)
                .or_default()
                .self_ns
                .push(self_time(s.start_ns, s.end_ns, kids));
        }
    }
    out
}

/// Writes every span as one JSON line (`caller` names the buffer the
/// `parent` index refers to).
pub fn write_jsonl(path: &Path, passes: &[(&str, &[SpanBuf])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, bufs) in passes {
        for (caller, buf) in bufs.iter().enumerate() {
            for s in &buf.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"pass\":\"{pass}\",\"caller\":{caller},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.op, s.start_ns, s.end_ns
                )?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(spans: Vec<Span>) -> SpanBuf {
        SpanBuf {
            epoch: Instant::now(),
            on: true,
            spans,
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn layer_self_time_subtracts_children() {
        let b = buf(vec![
            span("op", None, 0, 1000),
            span("decode", Some(0), 0, 100),
            span("submit", Some(0), 100, 700),
            span("op", None, 1000, 1500),
            span("decode", Some(3), 1000, 1050),
        ]);
        let stats = layer_stats(&[b]);
        assert_eq!(stats["op"].self_ns, vec![300, 450]);
        assert_eq!(stats["decode"].calls(), 2);
        assert_eq!(stats["decode"].total_ms(), 150.0 / 1e6);
        assert_eq!(stats["submit"].median_us(), 0.6);
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut b = SpanBuf::new(Instant::now(), false);
        let id = b.open("op", 0, None);
        assert_eq!(b.time("decode", 0, id, || 7), 7);
        b.close(id);
        assert!(b.spans().is_empty());
    }
}
