//! Property tests for trace assembly: over seeded random span trees,
//! assembly is insensitive to span arrival order, assembled traces are
//! well-nested (child intervals inside parents, a single root, no cycles),
//! and a trace stays ill-formed exactly until every hop has reported.

use canal_sim::{Digest, Fold, SimRng, SimTime};
use canal_telemetry::{Collector, HopSite, SegmentKind, Span};

/// Build a random well-formed span tree: span 0 is the root; every later
/// span picks a random earlier parent and an interval strictly inside it.
fn random_trace(rng: &mut SimRng, trace_id: u64) -> Vec<Span> {
    let n = 2 + rng.index(7); // 2..=8 spans, so a root always has a child
    let root_start = rng.int_range(0, 1_000_000_000);
    let root_len = rng.int_range(1_000_000, 1_000_000_000);
    let mut spans = vec![Span {
        trace_id,
        span_id: 0,
        parent: None,
        site: HopSite::ALL[rng.index(HopSite::ALL.len())],
        start: SimTime::from_nanos(root_start),
        end: SimTime::from_nanos(root_start + root_len),
        error: rng.chance(0.1),
        segments: vec![(SegmentKind::Network, canal_sim::SimDuration::from_nanos(rng.int_range(1, 1000)))],
    }];
    for id in 1..n as u32 {
        // Pick a random parent wide enough to hold a strict sub-interval.
        let wide: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].end.as_nanos() - spans[i].start.as_nanos() >= 4)
            .collect();
        let (pid, ps, pe) = {
            let p = &spans[wide[rng.index(wide.len())]];
            (p.span_id, p.start.as_nanos(), p.end.as_nanos())
        };
        let start = rng.int_range(ps, ps + (pe - ps) / 2);
        let end = rng.int_range(start + 1, pe);
        spans.push(Span {
            trace_id,
            span_id: id,
            parent: Some(pid),
            site: HopSite::ALL[rng.index(HopSite::ALL.len())],
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            error: rng.chance(0.1),
            segments: Vec::new(),
        });
    }
    spans
}

fn digest_of(c: &Collector) -> u64 {
    Digest::of(|f| c.fold(f)).value()
}

#[test]
fn random_trees_assemble_well_nested_in_any_order() {
    let mut rng = SimRng::seed(0x7e1e_a55e);
    for iter in 0..50u64 {
        let trace_id = iter + 1;
        let spans = random_trace(&mut rng, trace_id);

        // In-order ingestion assembles a well-nested trace.
        let mut a = Collector::new();
        a.ingest_all(spans.iter().cloned());
        let trace = a.assemble(trace_id).expect("trace must assemble");
        assert!(
            trace.well_nested(),
            "iter {iter}: constructed tree must be well-nested"
        );
        assert_eq!(trace.spans.len(), spans.len());
        let root = trace.root().expect("root span");
        assert_eq!(root.span_id, 0);
        // The critical path starts at the root and is interval-monotone.
        let path = trace.critical_path();
        assert_eq!(path[0].span_id, 0);
        for pair in path.windows(2) {
            assert!(pair[1].start >= pair[0].start && pair[1].end <= pair[0].end);
        }

        // Arrival order is irrelevant: a shuffled ingestion yields the same
        // assembled spans and bit-identical collector digest.
        let mut shuffled = spans.clone();
        rng.shuffle(&mut shuffled);
        let mut b = Collector::new();
        b.ingest_all(shuffled);
        assert_eq!(digest_of(&a), digest_of(&b), "iter {iter}: order must not matter");
        let again = b.assemble(trace_id).expect("trace must assemble");
        assert!(again.well_nested());
        assert_eq!(again.spans, trace.spans);
    }
}

#[test]
fn trace_is_orphaned_until_every_hop_reports() {
    let mut rng = SimRng::seed(0x0bf5_cafe);
    for iter in 0..50u64 {
        let trace_id = iter + 1;
        let spans = random_trace(&mut rng, trace_id);
        // Withhold the root: its children are orphans, so the partial trace
        // must NOT claim to be well-nested.
        let mut c = Collector::new();
        c.ingest_all(spans.iter().skip(1).cloned());
        let partial = c.assemble(trace_id).expect("partial trace still assembles");
        assert!(
            !partial.well_nested(),
            "iter {iter}: missing root must leave orphans"
        );
        // Once the last hop reports, the very same collector heals.
        c.ingest(spans[0].clone());
        let healed = c.assemble(trace_id).expect("trace must assemble");
        assert!(healed.well_nested(), "iter {iter}: complete trace must nest");
    }
}
