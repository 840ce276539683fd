//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer call's name, an optional label (the topology
//! or engine it ran on), its start and end, the span that caused it and
//! the request it belongs to. Spans stay in memory until the run ends;
//! per-layer times are the spans' *self* times, so a parent never
//! double-counts the children it contains.

use std::fmt::Write as _;
use std::time::Instant;

use sunmap::sim::sweep::json_string;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the recorder (also the span's identifier).
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Layer call, e.g. `mapping.search`.
    pub name: &'static str,
    /// What the call ran on (a topology, an engine), or empty.
    pub label: String,
    /// Request (operation) this span belongs to.
    pub request: u64,
    /// Which part of the run recorded it: a set-up repetition or a pass.
    pub phase: Phase,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// The part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The n-th set-up repetition.
    Setup(usize),
    /// The n-th traced pass over the workload.
    Pass(usize),
    /// A single traced call outside the workload's passes, left out of
    /// their totals (synth-scale's 128-core application).
    Once,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    phase: Phase,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            phase: Phase::Setup(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the phase and request that later spans belong to.
    pub fn at(&mut self, phase: Phase, request: u64) {
        self.phase = phase;
        self.request = request;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, label: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            label: label.to_string(),
            request: self.request,
            phase: self.phase,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any spans still open inside it (left open
    /// when a panic unwound through them).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, label);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (`perfbench-span/1`).
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let (phase, n) = match s.phase {
                Phase::Setup(n) => ("setup", n),
                Phase::Pass(n) => ("pass", n),
                Phase::Once => ("once", 0),
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"schema\":\"perfbench-span/1\",\"id\":{},\"parent\":{parent},\
                 \"name\":{},\"label\":{},\"request\":{},\"phase\":\"{phase}\",\
                 \"phase_index\":{n},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id,
                json_string(s.name),
                json_string(&s.label),
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (intervals may overlap each other or stick out of the parent; only
/// the covered part inside the parent is subtracted).
pub fn uncovered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Grandchildren lie inside their parents, so
/// they are accounted for by their own parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| uncovered_ns(s.start_ns, s.end_ns, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            label: String::new(),
            request: 0,
            phase: Phase::Pass(0),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn sibling_children_are_subtracted_once_each() {
        // parent [0,100) with siblings [10,30) and [50,60): self = 70.
        assert_eq!(uncovered_ns(0, 100, &[(10, 30), (50, 60)]), 70);
        // Touching siblings.
        assert_eq!(uncovered_ns(0, 100, &[(10, 30), (30, 60)]), 50);
    }

    #[test]
    fn overlapping_and_protruding_children_count_their_union_inside_the_parent() {
        assert_eq!(uncovered_ns(0, 100, &[(10, 40), (20, 50)]), 60);
        assert_eq!(uncovered_ns(10, 20, &[(0, 15), (18, 30)]), 3);
        assert_eq!(uncovered_ns(0, 100, &[(200, 300)]), 100);
        assert_eq!(uncovered_ns(0, 100, &[(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn nested_spans_charge_each_level_its_own_time() {
        // root [0,100) > child [10,60) > grandchild [20,50); a second
        // child [70,80) of root.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 50),
            span(3, Some(0), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // Self times add back up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn the_recorder_links_parents_and_closes_innermost_first() {
        let mut t = Tracer::new();
        t.at(Phase::Pass(2), 7);
        let outer = t.begin("core.request", "");
        t.span("mapping.search", "mesh", || std::hint::black_box(1 + 1));
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].request, s[1].phase), (7, Phase::Pass(2)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn ending_an_outer_span_closes_inner_spans_a_panic_left_open() {
        let mut t = Tracer::new();
        let outer = t.begin("core.request", "");
        t.begin("mapping.search", "mesh");
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[0].end_ns, s[1].end_ns);
        let next = t.begin("core.request", "");
        assert_eq!(t.spans()[next].parent, None);
    }
}
