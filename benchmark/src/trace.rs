//! Driver-side spans. A traced run records, in memory, a root span per
//! op and a child span around each of the driver's own calls into a
//! layer; the spans of one op share its id. They are written at exit as
//! Chrome trace-event JSON (loadable in Perfetto). Spans inside the
//! program are a later issue — this is the view from outside.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Lanes ("threads" in the trace viewer) ops are spread over so that
/// the few ops in flight at once do not overlap on one lane.
const LANES: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    pub name: &'static str,
    /// The layer (crate) the call went into; `"op"` for a root span.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub root: bool,
}

/// Per span name: how often, total time, and total self time (time not
/// covered by child spans of the same op).
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub layer: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder. Off, every method returns at once.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `cap` spans, preallocated so recording
    /// never grows a buffer inside the window. It starts switched off;
    /// with `cap` 0 it stays off.
    pub fn new(origin: Instant, cap: usize) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Spans this recorder has room for.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (the traced window follows an
    /// untraced one in the same process).
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.cap > 0;
    }

    /// Nanoseconds since the run's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span as is (spans taken on another thread).
    pub fn push(&mut self, span: Span) {
        if !self.on {
            return;
        }
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a child span around one call into `layer`, ending now.
    pub fn child(&mut self, op: u64, name: &'static str, layer: &'static str, start_ns: u64) {
        if self.on {
            let end_ns = self.now();
            self.push(Span {
                op,
                name,
                layer,
                start_ns,
                end_ns,
                root: false,
            });
        }
    }

    /// Record the op's root span.
    pub fn root(&mut self, op: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.push(Span {
                op,
                name,
                layer: "op",
                start_ns,
                end_ns,
                root: true,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span name: a root's self time is its duration minus
    /// what its op's child spans cover; a child has no children here.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| !s.root) {
            *covered.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: Vec<SelfTime> = Vec::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = if s.root {
                dur.saturating_sub(covered.get(&s.op).copied().unwrap_or(0))
            } else {
                dur
            };
            let slot = match by_name.iter_mut().find(|t| t.name == s.name) {
                Some(slot) => slot,
                None => {
                    by_name.push(SelfTime {
                        name: s.name,
                        layer: s.layer,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    by_name.last_mut().expect("just pushed")
                }
            };
            slot.count += 1;
            slot.total_ns += dur;
            slot.self_ns += own;
        }
        by_name
    }

    /// Write the spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path, process: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for s in &self.spans {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.layer,
                1 + s.op % LANES,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, start_ns: u64, end_ns: u64, root: bool) -> Span {
        Span {
            op,
            name,
            layer: if root { "op" } else { "enet" },
            start_ns,
            end_ns,
            root,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now(), 16);
        t.set_on(true);
        t.push(span(1, "send", 10, 30, false));
        t.push(span(1, "open_stanza", 80, 90, false));
        t.push(span(1, "stanza", 0, 100, true));
        t.push(span(2, "stanza", 50, 70, true));
        let times = t.self_times();
        let root = times.iter().find(|s| s.name == "stanza").unwrap();
        assert_eq!(root.count, 2);
        assert_eq!(root.total_ns, 120);
        assert_eq!(root.self_ns, 90, "100 - (20 + 10) + 20 ns");
        let send = times.iter().find(|s| s.name == "send").unwrap();
        assert_eq!((send.count, send.self_ns), (1, 20));
    }

    #[test]
    fn off_records_nothing_and_full_counts_drops() {
        let mut off = Tracer::new(Instant::now(), 0);
        off.set_on(true);
        off.root(1, "x", 0, 1);
        assert!(off.spans().is_empty());
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_on(true);
        t.root(1, "x", 0, 1);
        t.root(2, "x", 0, 1);
        assert_eq!((t.spans().len(), t.dropped()), (1, 1));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(Instant::now(), 4);
        t.set_on(true);
        t.push(span(7, "send", 1_000, 2_500, false));
        t.push(span(7, "stanza", 0, 5_000, true));
        let path = crate::runner::out_dir().join(format!("selftest-{}.json", std::process::id()));
        t.write_chrome(&path, "selftest").unwrap();
        let doc = obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("send"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.5));
    }
}
