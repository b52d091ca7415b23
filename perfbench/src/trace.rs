//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans stay in
//! memory while the run measures and are written out when it ends; a
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. With tracing off every call is a
//! branch and nothing is stored.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans one tracer keeps before it stops recording (and counts drops).
const MAX_SPANS: usize = 4_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.ns(Instant::now());
        self.push(name, parent, req, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.ns(Instant::now());
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Records a span whose interval was taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, s, e)
    }

    fn push(&mut self, name: &'static str, parent: SpanId, req: u64, s: u64, e: u64) -> SpanId {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId::NONE;
        }
        // A parent that was itself dropped makes this span a root.
        let parent = if (parent.0 as usize) < self.spans.len() {
            parent
        } else {
            SpanId::NONE
        };
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            req,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            if self.spans.len() < MAX_SPANS {
                self.spans.push(s);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Per span name: (count, total µs, self µs).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                children[s.parent.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e3;
            e.2 += dur.saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Mean duration (µs) of the spans called `name`, if there are any.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + s.end_ns.saturating_sub(s.start_ns))
            });
        (n > 0).then(|| total as f64 / n as f64 / 1e3)
    }

    /// Writes every span as TSV: id, parent, request, name, start, end.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "-".to_string()
            } else {
                s.parent.0.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(true, t0);
        let root = tr.record("req", SpanId::NONE, 1, at(0), at(100));
        tr.record("send", root, 1, at(10), at(30));
        tr.record("wait", root, 1, at(20), at(60)); // overlaps send
        tr.record("decode", root, 1, at(90), at(120)); // runs past the parent
        let s = tr.summary();
        assert_eq!(s["req"], (1, 100.0, 100.0 - 50.0 - 10.0));
        assert_eq!(s["send"], (1, 20.0, 20.0));
        assert_eq!(tr.mean_us("wait"), Some(40.0));
        assert_eq!(tr.mean_us("absent"), None);
    }

    #[test]
    fn off_records_nothing_and_absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0);
        let id = off.begin("x", SpanId::NONE, 0);
        off.end(id);
        assert!(off.spans.is_empty());

        let mut a = Tracer::new(true, t0);
        a.record("a", SpanId::NONE, 0, t0, t0);
        let mut b = Tracer::new(true, t0);
        let p = b.record("p", SpanId::NONE, 0, t0, t0);
        b.record("c", p, 0, t0, t0);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, SpanId(1));
    }
}
