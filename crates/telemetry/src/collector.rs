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
//! * **latency decomposition** — exclusive time per hop and per
//!   [`SegmentKind`] (queue vs crypto vs L7 parse vs network vs backend),
//!   the evidence the span-driven RCA consumes.

use crate::span::{SegmentKind, Span};
use canal_sim::{Digest, SimDuration};
use std::collections::BTreeMap;

/// One trace in canonical form: spans sorted by span id.
#[derive(Debug, Clone)]
pub struct AssembledTrace {
    /// Trace identity.
    pub trace_id: u64,
    /// All spans of the trace, sorted by `span_id` (arrival order erased).
    pub spans: Vec<Span>,
}

impl AssembledTrace {
    fn from_spans(trace_id: u64, mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| s.span_id);
        AssembledTrace { trace_id, spans }
    }

    /// The root span (no parent). If several claim root, the lowest id wins.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Spans whose parent is `span_id`, in span-id order.
    pub fn children(&self, span_id: u32) -> impl Iterator<Item = &Span> {
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

    /// Sum every span's segments by kind — the per-trace latency
    /// decomposition (segments describe exclusive time, so this never
    /// double-counts parent/child overlap).
    pub fn decompose(&self) -> BTreeMap<SegmentKind, SimDuration> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            for &(k, d) in &s.segments {
                *out.entry(k).or_insert(SimDuration::ZERO) += d;
            }
        }
        out
    }

    /// Fold the canonical form into a digest. Because spans are sorted by
    /// id, the value is independent of span arrival order.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.trace_id).write_u64(self.spans.len() as u64);
        for s in &self.spans {
            s.fold_digest(d);
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

    /// Spans ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Assemble one trace, if any of its spans have arrived.
    pub fn assemble(&self, trace_id: u64) -> Option<AssembledTrace> {
        self.traces
            .get(&trace_id)
            .map(|spans| AssembledTrace::from_spans(trace_id, spans.clone()))
    }

    /// Assemble every trace, in trace-id order.
    pub fn assemble_all(&self) -> Vec<AssembledTrace> {
        self.traces
            .iter()
            .map(|(&id, spans)| AssembledTrace::from_spans(id, spans.clone()))
            .collect()
    }

    /// Fold every assembled trace into a digest (trace-id order, canonical
    /// span order — bit-identical across runs and arrival orders), plus
    /// the `ingested` span counter: two collectors holding the same traces
    /// after different ingest histories are different states.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.traces.len() as u64);
        for tr in self.assemble_all() {
            tr.fold_digest(d);
        }
        d.write_u64(self.ingested);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::HopSite;
    use canal_sim::SimTime;

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
        let mut d1 = Digest::new();
        fwd.fold_digest(&mut d1);
        let mut d2 = Digest::new();
        rev.fold_digest(&mut d2);
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
        let tr = AssembledTrace::from_spans(2, spans);
        assert!(!tr.well_nested());

        let mut spans = chain(3);
        spans[2].end = SimTime::from_micros(5000); // child escapes parent
        let tr = AssembledTrace::from_spans(3, spans);
        assert!(!tr.well_nested());
    }

    #[test]
    fn decompose_sums_segments_across_spans() {
        let mut spans = chain(4);
        spans[0]
            .segments
            .push((SegmentKind::Crypto, SimDuration::from_micros(30)));
        spans[1]
            .segments
            .push((SegmentKind::L7Parse, SimDuration::from_micros(20)));
        spans[2]
            .segments
            .push((SegmentKind::Backend, SimDuration::from_micros(600)));
        spans[2]
            .segments
            .push((SegmentKind::Backend, SimDuration::from_micros(10)));
        let tr = AssembledTrace::from_spans(4, spans);
        let d = tr.decompose();
        assert_eq!(d[&SegmentKind::Crypto], SimDuration::from_micros(30));
        assert_eq!(d[&SegmentKind::Backend], SimDuration::from_micros(610));
        assert!(!d.contains_key(&SegmentKind::Queue));
    }
}
