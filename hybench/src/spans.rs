//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per span. The traced run keeps every span (name, start, end, parent) in
//! memory and writes them out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `bpu.process`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Closed spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Duration of each span named `name`, in seconds, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed self time of the spans named `name`, in seconds: each span's
    /// duration minus the time its direct children cover. Children of one
    /// span never overlap (spans nest on one thread).
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let own = s.end_ns - s.start_ns;
                own.saturating_sub(child_ns.get(&i).copied().unwrap_or(0)) as f64 * 1e-9
            })
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods)] // sleeps give the spans known lengths
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let total = t.total_s("outer");
        let inner = t.total_s("inner");
        assert!(inner >= 0.005 && total >= inner + 0.002);
        assert!((t.self_s("outer") - (total - inner)).abs() < 1e-9);
        assert_eq!(t.count("inner"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", || ());
        assert_eq!(t.count("x"), 0);
        assert_eq!(t.total_s("x"), 0.0);
    }
}
