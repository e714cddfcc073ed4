//! The benchmark's span recorder: wall-clock intervals around calls
//! into the library, timed from outside it.
//!
//! Spans live in memory while the run measures and are written out as
//! JSON Lines once it ends, so recording costs two clock reads and a
//! `Vec` push per span. A recorder built with [`Recorder::untraced`]
//! still times every call (the end-to-end metrics need per-call
//! latency) but keeps no spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to: 0 for set-up and reference work,
    /// 1.. for the measured passes.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    traced: bool,
    pass: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps every span.
    pub fn traced() -> Recorder {
        Recorder::new(true)
    }

    /// A recorder that only times calls.
    pub fn untraced() -> Recorder {
        Recorder::new(false)
    }

    fn new(traced: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            traced,
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration. Spans opened by `f` become children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        if self.traced {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                pass: self.pass,
            });
            self.stack.push(self.spans.len() - 1);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.traced {
            let idx = self.stack.pop().expect("span stack is balanced");
            self.spans[idx].end_ns = end_ns;
        }
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_ns();
            }
        }
        own
    }

    /// Per pass (by pass id), the duration of each root span and the
    /// self time summed by span name over the spans beneath it (the
    /// root's own self time is the time no span accounts for).
    pub fn pass_breakdown(&self, root_name: &str) -> BTreeMap<u32, PassBreakdown> {
        let own = self.self_times();
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut out: BTreeMap<u32, PassBreakdown> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = &self.spans[root_of(i)];
            if root.name != root_name {
                continue;
            }
            let entry = out.entry(root.pass).or_default();
            if span.parent.is_none() {
                entry.wall_ns = span.duration_ns();
                entry.unattributed_ns = own[i];
            } else {
                *entry.self_ns.entry(span.name).or_insert(0) += own[i];
            }
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
        }
        out
    }
}

/// Where one pass's traced wall time went.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PassBreakdown {
    pub wall_ns: u64,
    /// Self time per span name, summed over the pass.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The pass root's own self time: wall time inside the pass that
    /// no child span covers.
    pub unattributed_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::traced();
        rec.set_pass(1);
        rec.time("pass", |rec| {
            rec.time("outer", |rec| {
                spin(200_000);
                rec.time("inner", |_| spin(300_000));
            });
            rec.time("other", |_| spin(100_000));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = rec.self_times();
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert_eq!(own[2], spans[2].duration_ns());
        // Self times of a tree add up to its root's duration exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn breakdown_groups_self_time_by_pass_and_name() {
        let mut rec = Recorder::traced();
        rec.time("setup", |_| spin(10_000));
        for pass in 1..=2 {
            rec.set_pass(pass);
            rec.time("pass", |rec| {
                rec.time("call", |_| spin(50_000));
                rec.time("call", |_| spin(50_000));
            });
        }
        let breakdown = rec.pass_breakdown("pass");
        assert_eq!(breakdown.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        for b in breakdown.values() {
            let covered: u64 = b.self_ns.values().sum();
            assert_eq!(covered + b.unattributed_ns, b.wall_ns);
            assert!(b.self_ns["call"] >= 100_000);
        }
    }

    #[test]
    fn untraced_recorder_times_calls_but_keeps_nothing() {
        let mut rec = Recorder::untraced();
        let (value, ns) = rec.time("call", |_| {
            spin(20_000);
            7
        });
        assert_eq!(value, 7);
        assert!(ns >= 20_000);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.to_jsonl(), "");
    }
}
