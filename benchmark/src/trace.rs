//! Spans around the calls into each layer.
//!
//! The request path is generic over [`Tracer`]: with [`NoTrace`] every span
//! compiles to the bare call, with [`SpanTrace`] each call is bracketed by
//! two clock reads and two allocation-counter reads and pushed into a
//! preallocated `Vec`, written out as CSV when the run ends.

use crate::alloc;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Declares [`Stage`] with its table and names from one list, so the three
/// cannot drift apart.
macro_rules! stages {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Every place a span is recorded. The first block is the composed
        /// request path in stage order, then the policy-rollout steps, then
        /// the scenario suites.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Stage {
            $($(#[$doc])* $variant,)+
        }

        impl Stage {
            /// Number of stages (array size for per-stage tables).
            pub const COUNT: usize = [$($name,)+].len();

            /// All stages in declaration order.
            pub const ALL: [Stage; Stage::COUNT] = [$(Stage::$variant,)+];

            /// Stable name used in the span CSV: `<crate>.<what>`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Stage::$variant => $name,)+
                }
            }
        }
    };
}

stages! {
    /// One whole op: the parent of every other span of that op.
    Root => "root",
    L4Admit => "mesh.l4_admit",
    NodeRecord => "telemetry.node_record",
    EncryptNode => "crypto.encrypt_node",
    VxlanEncodeNode => "net.vxlan_encode_node",
    VxlanDecode => "net.vxlan_decode",
    Decrypt => "crypto.decrypt",
    HttpParse => "http.parse",
    PolicyVerdict => "policy.l7_verdict",
    L7Process => "mesh.l7_process",
    GatewayHandle => "gateway.handle_request",
    EncryptBackend => "crypto.encrypt_backend",
    TunnelEncap => "gateway.tunnel_encap",
    VxlanEncodeGateway => "net.vxlan_encode_gateway",
    GatewayRecord => "telemetry.gateway_record",
    CollectorIngest => "telemetry.collector_ingest",
    PolicyCompile => "policy.compile",
    RolloutBegin => "control.begin",
    RolloutTick => "control.tick",
    PolicyStageCommit => "gateway.policy_stage_commit",
    L4Install => "mesh.l4_install",
    RolloutAck => "control.ack",
    RolloutRecover => "control.recover",
    ConfigStageCommit => "gateway.config_stage_commit",
    SimSurge => "sim.surge",
    SimChaos => "sim.chaos",
    SimDrill => "sim.drill",
    SimPolicy => "sim.policy",
    SimFailover => "sim.failover",
}

impl Stage {
    /// The crate a stage's allocations are charged to (the prefix of its
    /// name); `None` for the root.
    pub fn layer(self) -> Option<&'static str> {
        match self {
            Stage::Root => None,
            s => s.name().split('.').next(),
        }
    }
}

/// Where the request path reports its layer calls.
pub trait Tracer {
    /// Run `f` as one call into `stage`.
    fn span<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R;
    /// Run `f` as one whole op; spans recorded inside become its children.
    fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// Tracing off: every span is the bare call.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _stage: Stage, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the trace began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    /// Index of the op's root span, `u32::MAX` for a root.
    parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u32,
    pub alloc_bytes: u32,
}

/// Tracing on: spans kept in memory until the run ends.
pub struct SpanTrace {
    epoch: Instant,
    spans: Vec<Span>,
    current_root: u32,
}

impl SpanTrace {
    /// A recorder with room for `capacity` spans (it grows if exceeded,
    /// which would show up as allocations charged to the root).
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTrace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current_root: NO_PARENT,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans; each root precedes its children (its slot is
    /// reserved when the op starts).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write `span_id,parent_id,stage,start_ns,end_ns,allocs,alloc_bytes`
    /// rows; `parent_id` is empty for an op's root span.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "span_id,parent_id,stage,start_ns,end_ns,allocs,alloc_bytes"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id},{parent},{},{},{},{},{}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.alloc_bytes
            )?;
        }
        w.flush()
    }
}

impl Tracer for SpanTrace {
    #[inline]
    fn span<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let (a0, b0) = alloc::snapshot();
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let (a1, b1) = alloc::snapshot();
        self.spans.push(Span {
            stage,
            parent: self.current_root,
            start_ns,
            end_ns,
            allocs: (a1 - a0) as u32,
            alloc_bytes: (b1 - b0) as u32,
        });
        r
    }

    #[inline]
    fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let slot = self.spans.len();
        self.spans.push(Span {
            stage: Stage::Root,
            parent: NO_PARENT,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.current_root = slot as u32;
        let (a0, b0) = alloc::snapshot();
        let start_ns = self.now_ns();
        let r = f(self);
        let end_ns = self.now_ns();
        let (a1, b1) = alloc::snapshot();
        self.current_root = NO_PARENT;
        let root = &mut self.spans[slot];
        root.start_ns = start_ns;
        root.end_ns = end_ns;
        root.allocs = (a1 - a0) as u32;
        root.alloc_bytes = (b1 - b0) as u32;
        r
    }
}

/// The duration an empty span reports on this machine (`trace.timer_ns`):
/// the part of a span's recording cost that lands inside the span, and is
/// subtracted from every span.
pub fn calibrate_timer_ns() -> f64 {
    const N: usize = 200_000;
    // The minimum over a few rounds: anything above it is interference.
    (0..5)
        .map(|_| {
            let mut t = SpanTrace::with_capacity(N);
            for _ in 0..N {
                t.span(Stage::Root, || black_box(()));
            }
            t.spans
                .iter()
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .sum::<f64>()
                / N as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Totals for one stage over a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    pub calls: u64,
    /// Sum of span durations with the timer cost removed.
    pub self_ns: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl StageTotals {
    /// Mean self time per call.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// The traced run folded per stage.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub stages: [StageTotals; Stage::COUNT],
    /// Ops (root spans) recorded.
    pub ops: u64,
    /// Root durations as recorded, one per op: the traced end-to-end time,
    /// tracing overhead included.
    pub op_ns: Vec<f64>,
}

impl Ledger {
    /// Fold the spans of `trace`. A child's self time is its duration minus
    /// `timer_ns` (it has no children of its own). A root's self time
    /// is what its children's durations do not cover: the glue between the
    /// layer calls plus the part of each child's recording cost that falls
    /// outside the child, so it overstates the glue.
    pub fn fold(trace: &SpanTrace, timer_ns: f64) -> Ledger {
        let mut stages = [StageTotals::default(); Stage::COUNT];
        let spans = trace.spans();
        let mut op_ns = Vec::new();
        let mut i = 0;
        while i < spans.len() {
            let root = &spans[i];
            debug_assert_eq!(root.stage, Stage::Root);
            let root_dur = (root.end_ns - root.start_ns) as f64;
            let (mut covered, mut child_allocs, mut child_bytes) = (0.0, 0u64, 0u64);
            let mut j = i + 1;
            while j < spans.len() && spans[j].parent == i as u32 {
                let s = &spans[j];
                let dur = (s.end_ns - s.start_ns) as f64;
                let t = &mut stages[s.stage as usize];
                t.calls += 1;
                t.self_ns += (dur - timer_ns).max(0.0);
                t.allocs += u64::from(s.allocs);
                t.alloc_bytes += u64::from(s.alloc_bytes);
                covered += dur;
                child_allocs += u64::from(s.allocs);
                child_bytes += u64::from(s.alloc_bytes);
                j += 1;
            }
            let t = &mut stages[Stage::Root as usize];
            t.calls += 1;
            t.self_ns += (root_dur - timer_ns - covered).max(0.0);
            t.allocs += u64::from(root.allocs).saturating_sub(child_allocs);
            t.alloc_bytes += u64::from(root.alloc_bytes).saturating_sub(child_bytes);
            op_ns.push(root_dur);
            i = j;
        }
        Ledger {
            stages,
            ops: op_ns.len() as u64,
            op_ns,
        }
    }

    pub fn stage(&self, s: Stage) -> &StageTotals {
        &self.stages[s as usize]
    }

    /// Sum of the non-root stages' self time.
    pub fn staged_ns(&self) -> f64 {
        self.stages[1..].iter().map(|t| t.self_ns).sum()
    }

    /// Traced end-to-end time over all ops, as recorded.
    pub fn whole_ns(&self) -> f64 {
        self.op_ns.iter().sum()
    }

    /// Allocation calls charged to `layer` (a crate prefix such as `mesh`).
    pub fn layer_allocs(&self, layer: &str) -> u64 {
        Stage::ALL
            .iter()
            .filter(|s| s.layer() == Some(layer))
            .map(|&s| self.stage(s).allocs)
            .sum()
    }

    /// Self time charged to `layer`.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        Stage::ALL
            .iter()
            .filter(|s| s.layer() == Some(layer))
            .map(|&s| self.stage(s).self_ns)
            .sum()
    }

    /// All allocation calls, root glue included.
    pub fn total_allocs(&self) -> u64 {
        self.stages.iter().map(|t| t.allocs).sum()
    }

    /// All allocated bytes, root glue included.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.stages.iter().map(|t| t.alloc_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_root_and_fold_into_the_ledger() {
        let mut t = SpanTrace::with_capacity(16);
        for _ in 0..2 {
            t.op(|t| {
                t.span(Stage::L4Admit, || black_box(1));
                t.span(Stage::HttpParse, || black_box(vec![0u8; 64]));
            });
        }
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[4].parent, 3);
        let l = Ledger::fold(&t, 0.0);
        assert_eq!(l.ops, 2);
        assert_eq!(l.stage(Stage::L4Admit).calls, 2);
        // The counters are the process's, and other tests allocate on their
        // own threads meanwhile; `tests/contract.rs` checks exact counts on
        // a process that has one thread.
        assert!(l.stage(Stage::HttpParse).allocs >= 2);
        assert_eq!(l.layer_allocs("http"), l.stage(Stage::HttpParse).allocs);
        assert!(l.whole_ns() >= l.staged_ns());
    }
}
