//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file. A span's self time is its duration minus the part of
//! its interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval on the run's clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`request`, `parse`, `exec`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

/// An append-only span buffer on a shared epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant this buffer's clock starts at.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span between two nanosecond offsets; returns its index.
    pub fn push_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records a span between two instants; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.push_ns(name, self.ns(start), self.ns(end), parent, request)
    }

    /// Closes span `index` at `end_ns`, for spans opened before their
    /// children were recorded.
    pub fn set_end(&mut self, index: usize, end_ns: u64) {
        let s = &mut self.spans[index];
        s.end_ns = end_ns.max(s.start_ns);
    }

    /// Adds `offset` to every span's request id, so buffers recorded by
    /// separate clients keep distinct ids once appended.
    pub fn offset_requests(&mut self, offset: u64) {
        for s in &mut self.spans {
            s.request += offset;
        }
    }

    /// Moves every span of `other` (same epoch) into this buffer.
    pub fn append(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans, in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// union of its children's intervals clipped to its own.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut cover: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                cover.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times, in `unit` nanoseconds, of every span named `name`.
    pub fn self_times(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / unit_ns)
            .collect()
    }

    /// Writes the spans as one JSON document: a header naming the run and
    /// one object per span (times in nanoseconds since the epoch).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.push_ns("request", 0, 100, None, 1);
        spans.push_ns("a", 10, 40, Some(root), 1);
        // Overlaps `a`: the overlap is covered once.
        spans.push_ns("b", 30, 50, Some(root), 1);
        // Reaches past the parent: clipped to it.
        spans.push_ns("c", 90, 120, Some(root), 1);
        assert_eq!(spans.self_ns(), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn append_remaps_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        a.push_ns("x", 0, 1, None, 1);
        let mut b = Spans::new(epoch);
        let root = b.push_ns("request", 0, 10, None, 2);
        b.push_ns("exec", 2, 8, Some(root), 2);
        a.append(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_ns(), vec![1, 4, 6]);
    }
}
