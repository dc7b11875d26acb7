//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer or step), a key (what it worked on, such
//! as `kernel/config` or a request's sequence number), a start, an end and
//! a parent. Spans stay in memory while the run measures and are written
//! out once at the end, so recording costs one `Instant::now` per edge.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span; times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or step name.
    pub name: String,
    /// What the span worked on.
    pub key: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equal to start while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder for one single-threaded run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Totals for one span name: count, summed duration and summed self time
/// (duration minus the time covered by child spans), in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

impl Spans {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &str, key: &str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            key: key.to_string(),
            start_ns: t,
            end_ns: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = t;
        (t - s.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a new span and returns its value and duration in
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        key: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, key, parent);
        let v = f();
        (v, self.close(id))
    }

    /// Per-name totals, in name order.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// Summed duration of the top-level spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Every span as one JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{}\n",
                distda_trace::json::escape(&s.name),
                distda_trace::json::escape(&s.key),
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        let root = s.open("cell", "k/c", None);
        let (_, _) = s.time("simulate", "k/c", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.close(root);
        let t = s.totals();
        let cell = t["cell"];
        let sim = t["simulate"];
        assert_eq!(cell.total_ns, cell.self_ns + sim.total_ns);
        assert!(sim.self_ns >= 5_000_000);
    }
}
