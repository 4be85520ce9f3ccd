//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into the program in a
//! span: name, start, end, parent span and request id. Spans are kept
//! in memory and written out once the run ends, so recording costs a
//! clock read and a vector push. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Request-id ranges. Spans of one request share an id; the ranges keep
/// set-up, restarts and the layer probe apart from workload requests.
pub const SETUP_REQ: u64 = 1 << 40;
pub const RESTART_REQ: u64 = 2 << 40;
/// The layer probe: fixed-cost calls and pooled stage runs...
pub const PROBE_REQ: u64 = 3 << 40;
/// ...sequential stage runs...
pub const PROBE_SEQ_REQ: u64 = PROBE_REQ + (1 << 30);
/// ...and the journaled serve session.
pub const PROBE_JOB_REQ: u64 = PROBE_REQ + (2 << 30);
pub const PROBE_END: u64 = PROBE_REQ + (3 << 30);

pub const REQUEST_RANGE: Range<u64> = 0..SETUP_REQ;
pub const SETUP_RANGE: Range<u64> = SETUP_REQ..RESTART_REQ;
pub const RESTART_RANGE: Range<u64> = RESTART_REQ..PROBE_REQ;
pub const PROBE_RANGE: Range<u64> = PROBE_REQ..PROBE_SEQ_REQ;
pub const PROBE_SEQ_RANGE: Range<u64> = PROBE_SEQ_REQ..PROBE_JOB_REQ;
pub const PROBE_JOB_RANGE: Range<u64> = PROBE_JOB_REQ..PROBE_END;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`. With
    /// tracing off this is a plain call.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, in nanoseconds, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per request id in `reqs`, the summed self time (ns) of the spans
    /// named in `names`; one value per request that has any.
    pub fn per_request(&self, names: &[&str], reqs: Range<u64>) -> Vec<f64> {
        let own = self.self_ns();
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if reqs.contains(&s.req) && names.contains(&s.name) {
                *by_req.entry(s.req).or_default() += ns;
            }
        }
        by_req.into_values().map(|ns| ns as f64).collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
