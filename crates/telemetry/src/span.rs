//! Spans, recording sites, latency segments, and the bounded per-site ring
//! buffer every recording site feeds.
//!
//! A span is one hop's view of one request: where it ran ([`HopSite`]), when
//! it started and ended, whether it errored, and a breakdown of its exclusive
//! time into [`SegmentKind`] segments (queue vs crypto vs L7 parse vs network
//! vs backend) — the decomposition §4.1.1's "richer than sidecar logs" claim
//! needs. Sites record *every* span into a [`SpanRing`] regardless of the
//! head-sampling decision, so a later tail decision (error, slowest
//! percentile) can still retrieve the full trace as long as the ring has not
//! evicted it.

use canal_net::TraceContext;
use canal_sim::{Fold, SimDuration, SimTime};
use std::collections::VecDeque;

/// A recording site on the request path. Covers every proxy placement of the
/// three compared architectures plus the application itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopSite {
    /// Client-pod sidecar (sidecar architecture).
    ClientSidecar,
    /// Server-pod sidecar (sidecar architecture).
    ServerSidecar,
    /// Client-node ztunnel (ambient architecture, L4 only).
    ClientZtunnel,
    /// Server-node ztunnel (ambient architecture, L4 only).
    ServerZtunnel,
    /// Ambient waypoint proxy (L7).
    Waypoint,
    /// Canal client-node proxy (vSwitch/eBPF datapath, L4 only).
    ClientNodeProxy,
    /// Canal server-node proxy (L4 only).
    ServerNodeProxy,
    /// Canal shared gateway (full L7 pipeline).
    Gateway,
    /// The application backend itself.
    App,
}

impl HopSite {
    /// Every site, in a stable order.
    pub const ALL: [HopSite; 9] = [
        HopSite::ClientSidecar,
        HopSite::ServerSidecar,
        HopSite::ClientZtunnel,
        HopSite::ServerZtunnel,
        HopSite::Waypoint,
        HopSite::ClientNodeProxy,
        HopSite::ServerNodeProxy,
        HopSite::Gateway,
        HopSite::App,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HopSite::ClientSidecar => "client-sidecar",
            HopSite::ServerSidecar => "server-sidecar",
            HopSite::ClientZtunnel => "client-ztunnel",
            HopSite::ServerZtunnel => "server-ztunnel",
            HopSite::Waypoint => "waypoint",
            HopSite::ClientNodeProxy => "client-node-proxy",
            HopSite::ServerNodeProxy => "server-node-proxy",
            HopSite::Gateway => "gateway",
            HopSite::App => "app",
        }
    }

    /// Whether this site sees L7 structure and therefore records a *rich*
    /// span (headers, route, status) rather than a cheap L4 timing record.
    /// This is what makes per-architecture telemetry cost differ: sidecars
    /// pay the rich price at two pods per request, canal pays it once at the
    /// shared gateway.
    pub fn is_l7(self) -> bool {
        matches!(
            self,
            HopSite::ClientSidecar | HopSite::ServerSidecar | HopSite::Waypoint | HopSite::Gateway
        )
    }

    /// Stable numeric tag for digests.
    pub(crate) fn tag(self) -> u64 {
        match self {
            HopSite::ClientSidecar => 0,
            HopSite::ServerSidecar => 1,
            HopSite::ClientZtunnel => 2,
            HopSite::ServerZtunnel => 3,
            HopSite::Waypoint => 4,
            HopSite::ClientNodeProxy => 5,
            HopSite::ServerNodeProxy => 6,
            HopSite::Gateway => 7,
            HopSite::App => 8,
        }
    }
}

/// What a slice of a span's exclusive time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKind {
    /// Waiting in an admission or scheduler queue.
    Queue,
    /// TLS handshake (incl. key-server round trips) and symmetric crypto.
    Crypto,
    /// L7 protocol parsing, routing, header rewrite.
    L7Parse,
    /// L4 forwarding work (vSwitch/eBPF/ztunnel pass-through).
    L4Forward,
    /// Time on the wire between hops.
    Network,
    /// Application service time (incl. retry penalties).
    Backend,
}

impl SegmentKind {
    /// Every kind, in a stable order.
    pub const ALL: [SegmentKind; 6] = [
        SegmentKind::Queue,
        SegmentKind::Crypto,
        SegmentKind::L7Parse,
        SegmentKind::L4Forward,
        SegmentKind::Network,
        SegmentKind::Backend,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Queue => "queue",
            SegmentKind::Crypto => "crypto",
            SegmentKind::L7Parse => "l7-parse",
            SegmentKind::L4Forward => "l4-forward",
            SegmentKind::Network => "network",
            SegmentKind::Backend => "backend",
        }
    }

    /// Stable numeric tag for digests.
    pub(crate) fn tag(self) -> u64 {
        match self {
            SegmentKind::Queue => 0,
            SegmentKind::Crypto => 1,
            SegmentKind::L7Parse => 2,
            SegmentKind::L4Forward => 3,
            SegmentKind::Network => 4,
            SegmentKind::Backend => 5,
        }
    }
}

/// One hop's record of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Id of this span within the trace (root is conventionally 0).
    pub span_id: u32,
    /// Parent span id; `None` at the root.
    pub parent: Option<u32>,
    /// Where it was recorded.
    pub site: HopSite,
    /// Start of the hop's involvement.
    pub start: SimTime,
    /// End of the hop's involvement.
    pub end: SimTime,
    /// Whether this hop observed a failure.
    pub error: bool,
    /// Exclusive-time breakdown (kind, duration), in recording order.
    // lint:allow(bounded-state) reason=a few segments appended per hop while the request is in flight; spans are short-lived per-request records
    pub segments: Vec<(SegmentKind, SimDuration)>,
}

impl Span {
    /// Build a span from a propagated [`TraceContext`]: identity and parent
    /// come from the context, the hop fills in the rest.
    pub fn from_ctx(ctx: TraceContext, span_id: u32, site: HopSite, start: SimTime) -> Self {
        Span {
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent_span,
            site,
            start,
            end: start,
            error: false,
            segments: Vec::new(),
        }
    }

    /// Wall duration of the hop.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Append a segment and extend the span's end by its duration.
    pub fn push_segment(&mut self, kind: SegmentKind, d: SimDuration) {
        self.segments.push((kind, d));
        self.end += d;
    }

    /// Fold this span into a digest (order-stable given a stable span order).
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { trace_id, span_id, parent, site, start, end, error, segments } = self;
        f.write_u64(*trace_id)
            .write_u64(*span_id as u64)
            .write_u64(parent.map_or(u64::MAX, |p| p as u64))
            .write_u64(site.tag())
            .write_u64(start.as_nanos())
            .write_u64(end.as_nanos())
            .write_u64(*error as u64);
        for &(k, dur) in segments {
            f.write_u64(k.tag()).write_u64(dur.as_nanos());
        }
    }
}

/// Bounded ring buffer of recent spans at one recording site.
///
/// Recording is unconditional (the tail sampler may want any trace later);
/// the bound is what keeps the per-node memory cost of that promise fixed.
/// When the ring is full the oldest span is evicted — a tail retrieval that
/// arrives after eviction simply loses that hop, which the retention
/// invariant in `experiments trace` watches.
#[derive(Debug, Clone)]
pub struct SpanRing {
    cap: usize,
    buf: VecDeque<Span>,
    recorded: u64,
    evicted: u64,
}

impl SpanRing {
    /// Ring holding at most `cap` spans (cap 0 is clamped to 1).
    pub fn new(cap: usize) -> Self {
        SpanRing {
            cap: cap.max(1),
            buf: VecDeque::new(),
            recorded: 0,
            evicted: 0,
        }
    }

    /// Record a span, evicting the oldest if full.
    pub fn record(&mut self, span: Span) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(span);
        self.recorded += 1;
    }

    /// Retrieve (copies of) all buffered spans of `trace_id`.
    pub fn retrieve(&self, trace_id: u64) -> Vec<Span> {
        self.buf
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Fold the ring into a digest: the `cap`, every buffered span in
    /// `buf` (recording order), and the `recorded`/`evicted` counters.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { cap, buf, recorded, evicted } = self;
        f.write_u64(*cap as u64).write_u64(buf.len() as u64);
        for s in buf {
            s.fold(f);
        }
        f.count("recorded", *recorded).count("evicted", *evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u32) -> Span {
        let mut s = Span::from_ctx(
            TraceContext::root(trace, true),
            id,
            HopSite::Gateway,
            SimTime::from_micros(10),
        );
        s.push_segment(SegmentKind::L7Parse, SimDuration::from_micros(25));
        s
    }

    #[test]
    fn segments_extend_duration() {
        let mut s = span(1, 0);
        s.push_segment(SegmentKind::Network, SimDuration::from_micros(100));
        s.push_segment(SegmentKind::L7Parse, SimDuration::from_micros(5));
        assert_eq!(s.duration(), SimDuration::from_micros(130));
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ring = SpanRing::new(3);
        for t in 1..=5u64 {
            ring.record(span(t, 0));
        }
        assert_eq!(ring.buf.len(), 3);
        assert_eq!(ring.recorded, 5);
        assert_eq!(ring.evicted, 2);
        assert!(ring.retrieve(1).is_empty(), "oldest evicted");
        assert_eq!(ring.retrieve(5).len(), 1);
    }

    #[test]
    fn sites_have_distinct_tags_and_l7_split_matches_architectures() {
        let mut tags: Vec<u64> = HopSite::ALL.iter().map(|s| s.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), HopSite::ALL.len());
        // Sidecar pays L7 twice per request; canal exactly once (gateway).
        assert!(HopSite::ClientSidecar.is_l7() && HopSite::ServerSidecar.is_l7());
        assert!(!HopSite::ClientNodeProxy.is_l7() && !HopSite::ServerNodeProxy.is_l7());
        assert!(HopSite::Gateway.is_l7());
    }
}
