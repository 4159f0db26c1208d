//! In-memory span recording for the traced run.
//!
//! A span marks one call into a layer, made from the benchmark's own
//! code: its name (the layer and call), start, end, parent span and
//! request id. Spans stay in memory until the run ends, then
//! [`Tracer::write_jsonl`] writes them out. A layer's self time is its
//! spans' duration minus the part of each span that its child spans
//! cover ([`Tracer::self_seconds`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span (times in ns since the tracer's origin).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `engine.run_jobs`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The span this call was made from.
    pub parent: Option<SpanId>,
    /// The request (or job) the span belongs to; 0 when none.
    pub req: u64,
}

/// A span recorder; when disabled every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `body` inside a span named `name`; `body` receives the new
    /// span's id to parent its own calls on (`None` when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        body: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return body(None);
        }
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        let out = body(Some(id));
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Total self time (s) per span name: each span's duration minus the
    /// union of its children's intervals within it.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_within(&mut children[i], s.start_ns, s.end_ns);
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Self time (s) of the spans named `name` (0.0 when none).
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(union_within(&mut [(2, 5), (4, 8), (12, 20)], 0, 15), 9);
        let t = Tracer::new(true);
        t.span("outer", None, 0, |p| {
            t.span("inner", p, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let selfs = t.self_seconds();
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |p| p), None);
        assert!(t.spans().is_empty());
    }
}
