//! In-memory span recorder for the traced run. Spans are kept in a
//! `Vec` and written once, at the end, as JSON lines (see NOTES.md for
//! the format). An untraced run uses a disabled recorder, which never
//! reads the clock for a span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Id 0 is "no parent".
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Times `f` as a span when tracing is on; runs it bare otherwise.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, job, parent, t0, t1);
        out
    }

    /// Reparents spans recorded with `parent == ROOT` for `job` in
    /// `[from..]` under `parent` (the job span is only known once its
    /// DONE arrives, after the frame parse spans were recorded).
    pub fn adopt(&mut self, from: usize, job: u64, parent: u32) {
        for s in &mut self.spans[from..] {
            if s.parent == ROOT && s.job == job && s.id != parent {
                s.parent = parent;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total and self seconds per span name. Self time is a span's
    /// duration minus the union of its children's intervals.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len() + 1];
        for (i, s) in self.spans.iter().enumerate() {
            children[s.parent as usize].push(i);
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut iv: Vec<(u64, u64)> = children[i + 1]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id,
                s.parent,
                s.job,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            )?;
        }
        w.flush()
    }
}
