//! The benchmark's own span recorder. Spans are taken around calls into
//! the library's public functions, from the benchmark's code; no `pgc-obs`
//! recording session is opened. Spans live in a preallocated buffer
//! and are written out once, when the run ends; a span that does not fit
//! is counted as dropped instead of growing the buffer mid-measurement.

use crate::json::Obj;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` opens on the tracer
    /// become its children. Returns `f`'s result and the span's seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let slot = if self.spans.len() < self.spans.capacity() {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        if let Some(i) = slot {
            self.open.push(i);
        }
        let t0 = self.now_ns();
        let r = f(self);
        let t1 = self.now_ns();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = t0;
            self.spans[i].end_ns = t1;
        }
        (r, (t1 - t0) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every completed span's seconds, keyed by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.secs());
        }
        by_name
    }

    /// Per name: span count, total seconds, and self seconds (each span's
    /// duration minus the time its direct children cover; children run
    /// sequentially inside their parent, so they never overlap).
    pub fn summary(&self) -> Obj {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = acc.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        let mut out = Obj::new();
        for (name, (count, total, own)) in acc {
            out = out.obj(
                name,
                Obj::new()
                    .num("count", count as f64)
                    .num("total_s", total as f64 * 1e-9)
                    .num("self_s", own as f64 * 1e-9),
            );
        }
        out
    }

    /// The full trace: every span (name, start, end, parent index) plus
    /// the per-name summary.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Obj::new()
                    .str("name", s.name)
                    .num("start_ns", s.start_ns as f64)
                    .num("end_ns", s.end_ns as f64);
                if let Some(p) = s.parent {
                    o = o.num("parent", p as f64);
                }
                o.finish()
            })
            .collect();
        Obj::new()
            .raw("spans", &format!("[{}]", spans.join(",")))
            .num("dropped", self.dropped as f64)
            .obj("summary", self.summary())
            .finish()
    }
}
