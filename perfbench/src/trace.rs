//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records a name, a start and an end (nanoseconds since the
//! run's epoch), the span that caused it, and the id of the request,
//! burst or sub-run it belongs to. Spans stay in memory until the run
//! ends, then [`Tracer::write_tsv`] writes them out. A disabled tracer
//! records nothing, so the untraced pass runs the same code with the
//! bookkeeping off.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The request, burst or sub-run the span belongs to.
    pub req: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time children cover.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean duration per span, in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

impl Tracer {
    /// A tracer that records when `on`, timing against `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the returned handle to [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            let now = self.now_ns();
            if let Some(span) = self.spans.get_mut(i) {
                span.end_ns = now;
            }
        }
    }

    /// Renames an open or closed span, for calls whose kind is only
    /// known from their result.
    pub fn rename(&mut self, handle: Option<usize>, name: &'static str) {
        if let Some(span) = handle.and_then(|i| self.spans.get_mut(i)) {
            span.name = name;
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name counts, durations and self times. Self time subtracts
    /// the union of the children's intervals, so overlapping children
    /// are not counted twice.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent.filter(|&p| p < self.spans.len()) {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index name req parent start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("request", None, 0, 100),
            span("register_peer", Some(0), 10, 40),
            span("verify", Some(0), 40, 90),
            // Overlaps the first child: covered time is a union.
            span("probe", Some(0), 30, 50),
        ];
        let s = t.summary();
        assert_eq!(s["request"].self_ns, 100 - 80);
        assert_eq!(s["verify"].self_ns, 50);
        assert_eq!(s["register_peer"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let h = t.enter("verify", 1, None);
        t.exit(h);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.enter("request", 0, None);
        a.exit(root);
        let mut b = Tracer::new(true, epoch);
        let r = b.enter("request", 1, None);
        let c = b.enter("verify", 1, r);
        b.exit(c);
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.summary()["request"].count, 2);
    }
}
