//! In-memory spans for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it and the request it belongs to. Spans
//! stay in memory while the load runs and are written out as JSON lines
//! when the run ends. A span's self time is its duration minus the part
//! of its interval that its children cover.

use crate::json::quote;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// One thread's span recorder. Ids are unique across recorders built
/// with distinct `lane`s, so per-thread span sets merge without clashes.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, lane: u64) -> Self {
        Tracer {
            origin,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            request,
            name,
            start_ns: self.now(),
        }
    }

    pub fn close(&mut self, open: Open) {
        let end_ns = self.now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, Some(parent), request, start, end);
        out
    }
}

/// Self time of every span, in input order: its duration minus the
/// length of the union of its children's intervals, each clipped to the
/// span's own interval (children may overlap one another, or reach past
/// their parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans to `path` as JSON lines.
pub fn save(path: &Path, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(&mut out, spans, self_ns)?;
    out.flush()
}

/// Writes one JSON object per span, with its self time.
fn write_jsonl(out: &mut impl Write, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    for (s, own) in spans.iter().zip(self_ns) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.id,
            s.request,
            quote(s.name),
            s.start_ns,
            s.end_ns,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![70, 14, 10, 6]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 35, 45),
        ];
        // Union of [10,40), [30,50), [35,45) is [10,50): 40 ns covered.
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, 100, 200),
            // Starts before and ends inside: 20 ns covered.
            span(2, Some(1), 50, 120),
            // Entirely after the parent (a replay run once the request
            // returned): nothing covered.
            span(3, Some(1), 250, 300),
            // Ends past the parent: 10 ns covered.
            span(4, Some(1), 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn jsonl_lines_parse() {
        let spans = [span(1, None, 0, 10), span(2, Some(1), 2, 5)];
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans, &self_times(&spans)).expect("write spans");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Json::parse(lines[0]).expect("json line");
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(first.get("self_ns").and_then(|p| p.as_f64()), Some(7.0));
        let second = crate::json::Json::parse(lines[1]).expect("json line");
        assert_eq!(second.get("parent").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(second.get("self_ns").and_then(|p| p.as_f64()), Some(3.0));
    }
}
