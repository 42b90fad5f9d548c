//! The benchmark's own in-memory tracer.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer's public functions — from outside the program; spans inside it
//! are a later change. A span is `(id, parent, name, pass, start, end)`;
//! counts are recorded at the same boundaries. Everything stays in
//! memory until the run ends, then [`Tracer::to_json`] writes it out.
//!
//! A span's **self time** is its duration minus the part of its interval
//! that its child spans cover (overlapping children are not counted
//! twice), so self times of a tree add up to the root's duration.
//!
//! A tracer that is off runs the closure and records nothing, so the
//! workload code is the same with tracing on and off and the difference
//! between the two runs is the tracing overhead.

use crate::json::Json;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (its index).
    pub id: SpanId,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// `layer.operation`.
    pub name: String,
    /// Pass of the workload it belongs to.
    pub pass: u32,
    /// Nanoseconds from the tracer's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's start.
    pub end_ns: u64,
    /// True for a span laid out from a duration the program reported
    /// (for example `PipelineResult::timings`) instead of being clocked
    /// around a call.
    pub derived: bool,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A count taken at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// The span that was open when it was taken.
    pub span: Option<SpanId>,
    /// `layer.counter`.
    pub name: String,
    /// The value.
    pub value: f64,
}

/// A span with its time split into children's and its own.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// The span.
    pub id: SpanId,
    /// Its duration.
    pub duration_ns: u64,
    /// Part of its interval covered by at least one child.
    pub child_ns: u64,
    /// `duration_ns - child_ns`.
    pub self_ns: u64,
}

/// Span and count store.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<SpanId>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pass number stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            pass: self.pass,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            derived: false,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Runs `f` inside a leaf span and also returns the seconds it took,
    /// clocked whether or not the tracer is on: for calls whose duration
    /// is a number the untraced run reports too.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, |_| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        })
    }

    /// Adds a span with explicit bounds (a derived span, or a hand-built
    /// tree in tests). Recorded even when the tracer is off.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            pass: parent
                .map(|p| self.spans[p as usize].pass)
                .unwrap_or(self.pass),
            start_ns,
            end_ns,
            derived: true,
        });
        id
    }

    /// Lays `stages` out back to back from the start of `parent`, as
    /// derived children: for a call that reports how long each of its
    /// sequential stages took. No-op when the tracer is off.
    pub fn record_stages(&mut self, parent: SpanId, stages: &[(&str, std::time::Duration)]) {
        if !self.on {
            return;
        }
        let mut at = self.spans[parent as usize].start_ns;
        for (name, d) in stages {
            let end = at + d.as_nanos() as u64;
            self.record(Some(parent), name, at, end);
            at = end;
        }
    }

    /// Records a count against the innermost open span.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            self.counts.push(Count {
                span: self.stack.last().copied(),
                name: name.to_string(),
                value,
            });
        }
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All counts, in the order they were taken.
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// The most recently opened span with this name.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Self time of every span (same order as [`Tracer::spans`]).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                // Clip to the parent: a derived child may overrun it by
                // clock skew between the program's timer and ours.
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                if end > start {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut intervals)| {
                intervals.sort_unstable();
                let mut child_ns = 0u64;
                let mut covered_to = s.start_ns;
                for (start, end) in intervals {
                    let start = start.max(covered_to);
                    if end > start {
                        child_ns += end - start;
                        covered_to = end;
                    }
                }
                let duration_ns = s.duration_ns();
                SelfTime {
                    id: s.id,
                    duration_ns,
                    child_ns,
                    self_ns: duration_ns - child_ns,
                }
            })
            .collect()
    }

    /// The trace file: spans with self time, then counts.
    pub fn to_json(&self) -> Json {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .map(|(s, st)| {
                let mut o = Json::obj();
                o.push("id", s.id as u64)
                    .push(
                        "parent",
                        s.parent.map(|p| Json::Num(p as f64)).unwrap_or(Json::Null),
                    )
                    .push("name", s.name.as_str())
                    .push("pass", s.pass as u64)
                    .push("start_ns", s.start_ns)
                    .push("end_ns", s.end_ns)
                    .push("self_ns", st.self_ns)
                    .push("derived", s.derived);
                o
            })
            .collect::<Vec<_>>();
        let counts = self
            .counts
            .iter()
            .map(|c| {
                let mut o = Json::obj();
                o.push(
                    "span",
                    c.span.map(|p| Json::Num(p as f64)).unwrap_or(Json::Null),
                )
                .push("name", c.name.as_str())
                .push("value", c.value);
                o
            })
            .collect::<Vec<_>>();
        let mut doc = Json::obj();
        doc.push("spans", spans).push("counts", counts);
        doc
    }
}
