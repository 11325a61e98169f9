//! Trace assembly and analysis at the gateway / control plane.
//!
//! Sites export spans in whatever order the datapath produces them; the
//! collector groups them by trace id and assembles each trace into a
//! canonical, arrival-order-insensitive form (spans sorted by span id).
//! On top of the assembled tree it offers the analyses the paper's
//! operations story needs:
//!
//! * **nesting validation** — every child interval lies within its parent
//!   and every non-root span has a present parent (no orphans);
//! * **critical-path extraction** — the root-to-leaf chain of dominant
//!   children, i.e. where the latency actually went;
//! * **latency decomposition** — exclusive time per hop, the evidence the
//!   span-driven RCA consumes.

use crate::span::Span;
use canal_sim::{Fold, SimDuration};
use std::collections::BTreeMap;

/// One trace in canonical form: spans sorted by span id.
#[derive(Debug, Clone)]
pub struct AssembledTrace {
    /// All spans of the trace, sorted by `span_id` (arrival order erased).
    pub spans: Vec<Span>,
}

impl AssembledTrace {
    fn from_spans(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| s.span_id);
        AssembledTrace { spans }
    }

    /// The root span (no parent). If several claim root, the lowest id wins.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Spans whose parent is `span_id`, in span-id order.
    pub(crate) fn children(&self, span_id: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(span_id))
    }

    /// End-to-end duration: the root span's duration, or the widest span if
    /// the trace is rootless (still assembling).
    pub fn total(&self) -> SimDuration {
        match self.root() {
            Some(r) => r.duration(),
            None => self
                .spans
                .iter()
                .map(|s| s.duration())
                .fold(SimDuration::ZERO, |a, d| if d > a { d } else { a }),
        }
    }

    /// Structural soundness: exactly one root, every other span's parent is
    /// present, every child interval lies within its parent's, and no
    /// parent cycle exists.
    pub fn well_nested(&self) -> bool {
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return false;
        }
        let by_id: BTreeMap<u32, &Span> = self.spans.iter().map(|s| (s.span_id, s)).collect();
        if by_id.len() != self.spans.len() {
            return false; // duplicate span ids
        }
        for s in &self.spans {
            let Some(pid) = s.parent else { continue };
            let Some(parent) = by_id.get(&pid) else {
                return false; // orphan
            };
            if s.start < parent.start || s.end > parent.end {
                return false; // child escapes parent interval
            }
            // Walk to the root to reject parent cycles.
            let mut hops = 0usize;
            let mut cur = *parent;
            while let Some(next) = cur.parent.and_then(|p| by_id.get(&p)) {
                cur = next;
                hops += 1;
                if hops > self.spans.len() {
                    return false;
                }
            }
        }
        true
    }

    /// Critical path: from the root, repeatedly descend into the child with
    /// the largest duration (ties to the lowest span id). Returns the chain
    /// of spans in root-first order; empty if the trace has no root.
    pub fn critical_path(&self) -> Vec<&Span> {
        let mut path = Vec::new();
        let Some(mut cur) = self.root() else {
            return path;
        };
        loop {
            path.push(cur);
            if path.len() > self.spans.len() {
                break; // defensive: malformed parent links
            }
            let next = self
                .children(cur.span_id)
                .max_by_key(|c| (c.duration(), std::cmp::Reverse(c.span_id)));
            match next {
                Some(c) => cur = c,
                None => break,
            }
        }
        path
    }

    /// Exclusive time of span `span_id`: its duration minus the durations of
    /// its direct children (saturating at zero).
    pub fn exclusive(&self, span_id: u32) -> SimDuration {
        let Some(s) = self.spans.iter().find(|s| s.span_id == span_id) else {
            return SimDuration::ZERO;
        };
        let child_sum = self
            .children(span_id)
            .map(|c| c.duration())
            .fold(SimDuration::ZERO, |a, d| a + d);
        s.duration().saturating_sub(child_sum)
    }

    /// Fold the canonical form into a digest. Because spans are sorted by
    /// id, the value is independent of span arrival order.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { spans } = self;
        f.write_u64(spans.len() as u64);
        for s in spans {
            s.fold(f);
        }
    }
}

/// Span sink + assembler.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    // lint:allow(bounded-state) reason=the collector retains every sampled trace for end-of-run assembly; the run horizon and the samplers bound it
    traces: BTreeMap<u64, Vec<Span>>,
    ingested: u64,
}

impl Collector {
    /// New empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept one exported span.
    pub fn ingest(&mut self, span: Span) {
        self.traces.entry(span.trace_id).or_default().push(span);
        self.ingested += 1;
    }

    /// Accept a batch of spans (e.g. a tail retrieval from site rings).
    pub fn ingest_all<I: IntoIterator<Item = Span>>(&mut self, spans: I) {
        for s in spans {
            self.ingest(s);
        }
    }

    /// Assemble one trace, if any of its spans have arrived.
    pub fn assemble(&self, trace_id: u64) -> Option<AssembledTrace> {
        self.traces
            .get(&trace_id)
            .map(|spans| AssembledTrace::from_spans(spans.clone()))
    }

    /// Assemble every trace, in trace-id order.
    pub fn assemble_all(&self) -> Vec<AssembledTrace> {
        self.traces
            .values()
            .map(|spans| AssembledTrace::from_spans(spans.clone()))
            .collect()
    }

    /// Fold every trace id and its assembled trace into a digest (trace-id
    /// order, canonical span order — bit-identical across runs and arrival
    /// orders), plus the `ingested` span counter: two collectors holding
    /// the same traces after different ingest histories are different
    /// states.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { traces, ingested } = self;
        f.write_u64(traces.len() as u64);
        for (&id, spans) in traces {
            f.write_u64(id);
            AssembledTrace::from_spans(spans.clone()).fold(f);
        }
        f.count("ingested", *ingested);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::HopSite;
    use canal_sim::{Digest, SimTime};

    /// A 3-hop chain trace: root(0) ⊃ gateway(1) ⊃ app(2).
    fn chain(trace_id: u64) -> Vec<Span> {
        let us = SimTime::from_micros;
        let mk = |id: u32, parent: Option<u32>, site, a: u64, b: u64| Span {
            trace_id,
            span_id: id,
            parent,
            site,
            start: us(a),
            end: us(b),
            error: false,
            segments: Vec::new(),
        };
        vec![
            mk(0, None, HopSite::ClientNodeProxy, 0, 1000),
            mk(1, Some(0), HopSite::Gateway, 100, 900),
            mk(2, Some(1), HopSite::App, 200, 800),
        ]
    }

    #[test]
    fn assembly_is_arrival_order_insensitive() {
        let spans = chain(9);
        let mut fwd = Collector::new();
        fwd.ingest_all(spans.clone());
        let mut rev = Collector::new();
        rev.ingest_all(spans.into_iter().rev());
        let d1 = Digest::of(|f| fwd.fold(f));
        let d2 = Digest::of(|f| rev.fold(f));
        assert_eq!(d1.value(), d2.value());
    }

    #[test]
    fn nesting_critical_path_and_exclusive() {
        let mut c = Collector::new();
        c.ingest_all(chain(1));
        let tr = c.assemble(1).expect("trace present");
        assert!(tr.well_nested());
        assert_eq!(tr.total(), SimDuration::from_micros(1000));
        let path: Vec<_> = tr.critical_path().iter().map(|s| s.site).collect();
        assert_eq!(
            path,
            [HopSite::ClientNodeProxy, HopSite::Gateway, HopSite::App]
        );
        // root exclusive = 1000 − 800 (gateway child)
        assert_eq!(tr.exclusive(0), SimDuration::from_micros(200));
        assert_eq!(tr.exclusive(2), SimDuration::from_micros(600));
    }

    #[test]
    fn orphan_and_escaping_child_fail_nesting() {
        let mut spans = chain(2);
        spans.remove(1); // drop the middle hop → span 2's parent missing
        let tr = AssembledTrace::from_spans(spans);
        assert!(!tr.well_nested());

        let mut spans = chain(3);
        spans[2].end = SimTime::from_micros(5000); // child escapes parent
        let tr = AssembledTrace::from_spans(spans);
        assert!(!tr.well_nested());
    }
}
