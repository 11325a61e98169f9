//! Nagle-style small-packet aggregation for the eBPF redirection path
//! (§4.1.2, Figs. 7/22).
//!
//! eBPF socket redirection bypasses the kernel stack and with it the kernel's
//! Nagle algorithm — so a stream of tiny writes causes one context switch per
//! write, and eBPF ends up *slower* than iptables for small packets. Canal's
//! fix is to re-implement Nagle in front of the eBPF redirect: coalesce
//! writes until either a full MSS accumulates or the flush timer fires.
//!
//! [`NagleBuffer`] is that aggregator. It exposes how many flushes (≈ context
//! switches) a write sequence produced, which drives the Fig. 22 experiment.

use canal_sim::{Fold, SimDuration, SimTime};

/// Default TCP maximum segment size used by the aggregator.
pub(crate) const DEFAULT_MSS: usize = 1460;
/// Default flush delay mirroring a delayed-ACK-scale timer.
pub(crate) const DEFAULT_FLUSH_DELAY: SimDuration = SimDuration::from_millis(1);

/// One aggregated segment emitted by the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// When the segment left the buffer.
    pub at: SimTime,
    /// Payload size in bytes.
    pub len: usize,
    /// How many application writes were coalesced into it.
    pub writes: usize,
}

/// Nagle aggregation buffer for one flow.
#[derive(Debug)]
pub struct NagleBuffer {
    mss: usize,
    flush_delay: SimDuration,
    enabled: bool,
    pending_bytes: usize,
    pending_writes: usize,
    oldest_pending: Option<SimTime>,
    // lint:allow(bounded-state) reason=one buffer per simulated flow, dropped with it; the segment list is that flow's result
    emitted: Vec<Segment>,
}

impl NagleBuffer {
    /// An aggregating buffer with the given MSS and flush timer.
    pub fn new(mss: usize, flush_delay: SimDuration) -> Self {
        assert!(mss > 0);
        NagleBuffer {
            mss,
            flush_delay,
            enabled: true,
            pending_bytes: 0,
            pending_writes: 0,
            oldest_pending: None,
            emitted: Vec::new(),
        }
    }

    /// Defaults: 1460-byte MSS, 1 ms flush timer.
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_MSS, DEFAULT_FLUSH_DELAY)
    }

    /// A pass-through buffer (aggregation disabled — the raw eBPF behaviour
    /// the paper debugged). Every write becomes its own segment.
    pub fn disabled() -> Self {
        let mut b = Self::with_defaults();
        b.enabled = false;
        b
    }

    /// Submit one application write of `len` bytes at time `now`. Any due
    /// timer flush happens first (so call order by time must be monotonic).
    pub fn write(&mut self, now: SimTime, len: usize) {
        self.poll_timer(now);
        if !self.enabled {
            self.emitted.push(Segment {
                at: now,
                len,
                writes: 1,
            });
            return;
        }
        self.pending_bytes += len;
        self.pending_writes += 1;
        if self.oldest_pending.is_none() {
            self.oldest_pending = Some(now);
        }
        // Nagle: emit full segments immediately; keep the sub-MSS tail.
        while self.pending_bytes >= self.mss {
            let writes = self.pending_writes.max(1);
            self.emitted.push(Segment {
                at: now,
                len: self.mss,
                writes,
            });
            self.pending_bytes -= self.mss;
            // Attribute coalesced writes to the first full segment.
            self.pending_writes = 0;
            if self.pending_bytes == 0 {
                self.oldest_pending = None;
            } else {
                self.oldest_pending = Some(now);
            }
        }
    }

    /// Fire the flush timer if the oldest pending byte has waited long
    /// enough. Returns whether a segment was emitted.
    pub(crate) fn poll_timer(&mut self, now: SimTime) -> bool {
        if let Some(t0) = self.oldest_pending {
            if now.since(t0) >= self.flush_delay && self.pending_bytes > 0 {
                self.emitted.push(Segment {
                    at: t0 + self.flush_delay,
                    len: self.pending_bytes,
                    writes: self.pending_writes.max(1),
                });
                self.pending_bytes = 0;
                self.pending_writes = 0;
                self.oldest_pending = None;
                return true;
            }
        }
        false
    }

    /// Force out whatever is pending (e.g. connection close).
    pub fn flush(&mut self, now: SimTime) {
        if self.pending_bytes > 0 {
            self.emitted.push(Segment {
                at: now,
                len: self.pending_bytes,
                writes: self.pending_writes.max(1),
            });
            self.pending_bytes = 0;
            self.pending_writes = 0;
            self.oldest_pending = None;
        }
    }

    /// Fold the buffer into a digest: the knobs (`mss`, `flush_delay`,
    /// `enabled`), what is pending (`pending_bytes`, `pending_writes`,
    /// `oldest_pending`) and every segment in `emitted`.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { mss, flush_delay, enabled, pending_bytes, pending_writes, oldest_pending, emitted } =
            self;
        f.write_u64(*mss as u64)
            .write_u64(flush_delay.as_nanos())
            .write_u64(*enabled as u64)
            .write_u64(*pending_bytes as u64)
            .write_u64(*pending_writes as u64)
            .write_u64(oldest_pending.map_or(u64::MAX, SimTime::as_nanos))
            .write_u64(emitted.len() as u64);
        for seg in emitted {
            f.write_u64(seg.at.as_nanos())
                .write_u64(seg.len as u64)
                .write_u64(seg.writes as u64);
        }
    }

    /// Segments emitted so far. Each segment costs one redirect context
    /// switch, so `segments().len()` is the context-switch count of Fig. 22.
    pub fn segments(&self) -> &[Segment] {
        &self.emitted
    }

    /// Bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.pending_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_micros;

    #[test]
    fn small_writes_coalesce_into_one_segment() {
        let mut b = NagleBuffer::new(1000, SimDuration::from_millis(1));
        for i in 0..10 {
            b.write(T(i * 10), 16);
        }
        assert!(b.segments().is_empty(), "nothing emitted before MSS/timer");
        b.flush(T(100));
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].len, 160);
        assert_eq!(b.segments()[0].writes, 10);
    }

    #[test]
    fn full_mss_emits_immediately() {
        let mut b = NagleBuffer::new(1000, SimDuration::from_millis(1));
        b.write(T(0), 1500);
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].len, 1000);
        assert_eq!(b.pending(), 500);
    }

    #[test]
    fn timer_flushes_stalled_tail() {
        let mut b = NagleBuffer::new(1000, SimDuration::from_millis(1));
        b.write(T(0), 100);
        assert!(!b.poll_timer(T(500))); // 0.5ms: not yet
        assert!(b.poll_timer(T(1_000))); // 1ms: flush
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].at, T(1_000));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn disabled_buffer_emits_per_write() {
        // The raw-eBPF pathology: one context switch per small write.
        let mut raw = NagleBuffer::disabled();
        let mut nagled = NagleBuffer::with_defaults();
        for i in 0..100 {
            raw.write(T(i), 16);
            nagled.write(T(i), 16);
        }
        raw.flush(T(200));
        nagled.flush(T(200));
        assert_eq!(raw.segments().len(), 100);
        // 1600 bytes over a 1460 MSS: one full segment plus the flushed tail.
        assert_eq!(nagled.segments().len(), 2);
        // Same bytes delivered either way.
        let raw_bytes: usize = raw.segments().iter().map(|s| s.len).sum();
        let nagled_bytes: usize = nagled.segments().iter().map(|s| s.len).sum();
        assert_eq!(raw_bytes, nagled_bytes);
    }

    #[test]
    fn write_polls_timer_first() {
        let mut b = NagleBuffer::new(1000, SimDuration::from_millis(1));
        b.write(T(0), 100);
        // Next write arrives 5ms later: the stale 100B must flush at t0+1ms,
        // not merge with the new write.
        b.write(T(5_000), 200);
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].len, 100);
        assert_eq!(b.segments()[0].at, T(1_000));
        assert_eq!(b.pending(), 200);
    }

    #[test]
    fn multi_mss_burst_emits_multiple_segments() {
        let mut b = NagleBuffer::new(1000, SimDuration::from_millis(1));
        b.write(T(0), 3500);
        assert_eq!(b.segments().len(), 3);
        assert!(b.segments().iter().all(|s| s.len == 1000));
        assert_eq!(b.pending(), 500);
    }

    #[test]
    fn no_bytes_lost_across_patterns() {
        // Conservation: total bytes in == total bytes out after flush.
        let sizes = [1usize, 15, 700, 1460, 2921, 64, 64, 64, 5000];
        let mut b = NagleBuffer::with_defaults();
        let mut t = 0;
        for &s in &sizes {
            b.write(T(t), s);
            t += 100;
        }
        b.flush(T(t));
        let total_in: usize = sizes.iter().sum();
        let total_out: usize = b.segments().iter().map(|s| s.len).sum();
        assert_eq!(total_in, total_out);
    }
}
