//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer, written out as JSON lines when the run ends.
//!
//! The program under test is not instrumented (spans inside it are a later
//! issue); a span here is an interval between two clock readings the
//! harness took. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// The round the span belongs to (spans of one round share it).
    pub round: usize,
    /// The crate the time belongs to (`harness` for the benchmark's own).
    pub layer: &'static str,
    /// What the interval covers.
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A clock origin plus the spans recorded against it.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The clock every span of this trace is read from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        round: usize,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            round,
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Opens a span starting now; [`Self::close`] ends it.
    pub fn open(
        &mut self,
        parent: Option<usize>,
        round: usize,
        layer: &'static str,
        name: &'static str,
    ) -> usize {
        let now = self.now();
        self.add(parent, round, layer, name, now, now)
    }

    /// Ends span `id` now.
    ///
    /// # Panics
    /// On an id this trace did not hand out.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` and records the interval it took as one span. The span is
    /// stored after the closing clock reading, so bookkeeping stays out of
    /// the interval.
    pub fn timed<T>(
        &mut self,
        parent: Option<usize>,
        round: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.add(parent, round, layer, name, start, end);
        out
    }

    /// The spans, in recording order (`spans()[i].id == i`).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by span id: its duration minus the
    /// durations of its direct children (siblings never overlap — each is
    /// closed before the next opens).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total duration of the spans named `name`, in nanoseconds, and how
    /// many there are.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, count), s| (ns + s.duration_ns(), count + 1))
    }

    /// Checks the tree: parents precede their children and share their
    /// round, every child lies inside its parent's interval, and no parent
    /// is covered by its children for longer than it lasted.
    ///
    /// # Errors
    /// A description of the first span that breaks a rule.
    pub fn check(&self) -> Result<(), String> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            let Some(parent_id) = span.parent else {
                continue;
            };
            let parent = self
                .spans
                .get(parent_id)
                .filter(|p| p.id < span.id)
                .ok_or_else(|| format!("span {} names a parent recorded after it", span.id))?;
            if parent.round != span.round {
                return Err(format!(
                    "span {} is of round {} but its parent of round {}",
                    span.id, span.round, parent.round
                ));
            }
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) leaves its parent {} ({})",
                    span.id, span.name, parent.id, parent.name
                ));
            }
            covered[parent_id] += span.duration_ns();
        }
        match self.spans.iter().find(|s| covered[s.id] > s.duration_ns()) {
            Some(s) => Err(format!("children of span {} ({}) outlast it", s.id, s.name)),
            None => Ok(()),
        }
    }

    /// Writes one JSON object per span, in recording order.
    ///
    /// # Errors
    /// Any I/O failure, with the path.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"round\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.round, s.layer, s.name, s.start_ns, s.end_ns
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let root = t.add(None, 0, "cluster", "round", 0, 100);
        let child = t.add(Some(root), 0, "harness", "consume", 40, 90);
        t.add(Some(child), 0, "optim", "step", 50, 70);
        assert_eq!(t.self_ns(), vec![50, 30, 20]);
        assert_eq!(t.total_ns("step"), (20, 1));
        t.check().unwrap();
    }

    #[test]
    fn check_rejects_escaping_and_overlong_children() {
        let mut t = Trace::new();
        let root = t.add(None, 0, "cluster", "round", 10, 20);
        t.add(Some(root), 0, "optim", "step", 15, 25);
        assert!(t.check().unwrap_err().contains("leaves its parent"));

        let mut t = Trace::new();
        let root = t.add(None, 0, "cluster", "round", 0, 10);
        t.add(Some(root), 0, "optim", "a", 0, 8);
        t.add(Some(root), 0, "optim", "b", 2, 10);
        assert!(t.check().unwrap_err().contains("outlast"));

        let mut t = Trace::new();
        let root = t.add(None, 0, "cluster", "round", 0, 10);
        t.add(Some(root), 1, "optim", "step", 1, 2);
        assert!(t.check().unwrap_err().contains("round"));
    }
}
