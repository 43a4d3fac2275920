//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. A span has an id, the id of the span that
//! caused it, and the id of the request it belongs to; spans are kept in
//! memory and written out as JSON lines when the run ends.
//!
//! A disabled tracer takes no clock readings and records nothing, so a
//! pass run once with tracing on and once with it off measures the
//! tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span. Returns `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            request,
            name,
            start_ns,
            end_ns: None,
        });
        Some(SpanId(id))
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let now = self.now_ns();
            let span = &mut self.spans[i as usize];
            debug_assert!(span.end_ns.is_none(), "span {i} ended twice");
            span.end_ns = Some(now);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{own}}}",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.duration_ns()
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let (Some(p), Some(e)) = (s.parent, s.end_ns) {
            children.entry(p).or_default().push((s.start_ns, e));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(end) = s.end_ns else { return 0 };
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, summed duration in ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut m: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = m.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 25, 50), // overlaps child 1 by 5
            span(3, Some(1), 12, 20),
            span(4, None, 200, 210),
        ];
        // Root: 100 − |[10,50)| = 60; span 1: 20 − 8 = 12; leaves keep all.
        assert_eq!(self_times(&spans), vec![60, 12, 25, 8, 10]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 1);
        assert!(id.is_none());
        assert_eq!(t.span("y", id, 1, || 5), 5);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_requests() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, 7);
        t.span("child", root, 7, || ());
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].request), (Some(0), 7));
        assert!(s[0].duration_ns() >= s[1].duration_ns());
        let tot = totals(s);
        assert_eq!(tot["child"].0, 1);
    }
}
