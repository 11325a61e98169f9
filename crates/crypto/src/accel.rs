//! Asymmetric-crypto acceleration backends (§4.1.3, Fig. 23, Fig. 25).
//!
//! Three ways to complete the expensive handshake `mod_exp`:
//!
//! * [`SoftwareBackend`] — plain software on an old CPU: ≈2 ms per
//!   operation, all of it burned on the node's cores.
//! * [`BatchAccelerator`] — the AVX-512/QAT model: operations are gathered
//!   into a fixed-width batch (8 = 512 bits / 64-bit lanes) processed in
//!   ≈1 ms. A partially filled batch waits for more arrivals until a 1 ms
//!   flush timeout — the *batching bubble* that makes local acceleration
//!   slower than software when fewer than 8 new connections arrive together
//!   (Fig. 25).
//! * Remote key server (see [`crate::keyserver`]) — adds an intra-AZ RTT but
//!   sees the aggregate arrival rate of *all tenants*, so its batches are
//!   always full: completion is flat ≈1.7 ms regardless of any one node's
//!   concurrency (Fig. 23).
//!
//! The exact queue-based model ([`BatchAccelerator`]) drives the
//! micro-experiments; the [`AsymmetricBackend`] trait's analytic
//! `completion` is what the per-request data path uses.

use canal_sim::{SimDuration, SimTime};

/// Tunables for a batch accelerator.
#[derive(Debug, Clone, Copy)]
pub struct AccelConfig {
    /// Operations per batch (AVX-512: 8).
    pub batch_width: usize,
    /// How long a partial batch waits before processing anyway (min 1 ms per
    /// the paper).
    pub(crate) flush_timeout: SimDuration,
    /// Time to process one full batch.
    pub(crate) per_batch_cost: SimDuration,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            batch_width: 8,
            flush_timeout: SimDuration::from_millis(1),
            per_batch_cost: SimDuration::from_millis(1),
        }
    }
}

/// A completed asymmetric operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedOp {
    /// Caller-visible id returned by `submit`.
    pub id: u64,
    /// When the operation was submitted.
    pub arrived: SimTime,
    /// When its batch finished processing.
    pub(crate) completed: SimTime,
}

impl CompletedOp {
    /// End-to-end completion latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.arrived)
    }
}

/// Exact queue model of a batch accelerator.
#[derive(Debug)]
pub struct BatchAccelerator {
    cfg: AccelConfig,
    pending: Vec<(u64, SimTime)>,
    busy_until: SimTime,
    next_id: u64,
    completed: Vec<CompletedOp>,
    batches_processed: u64,
}

impl BatchAccelerator {
    /// New accelerator with the given config.
    pub fn new(cfg: AccelConfig) -> Self {
        assert!(cfg.batch_width > 0);
        BatchAccelerator {
            cfg,
            pending: Vec::new(),
            busy_until: SimTime::ZERO,
            next_id: 0,
            completed: Vec::new(),
            batches_processed: 0,
        }
    }

    fn flush(&mut self, trigger: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        let start = trigger.max(self.busy_until);
        let done = start + self.cfg.per_batch_cost;
        self.busy_until = done;
        self.batches_processed += 1;
        for (id, arrived) in self.pending.drain(..) {
            self.completed.push(CompletedOp {
                id,
                arrived,
                completed: done,
            });
        }
    }

    /// Process any batch whose flush timeout has expired by `now`.
    pub fn poll(&mut self, now: SimTime) {
        if let Some(&(_, first)) = self.pending.first() {
            let deadline = first + self.cfg.flush_timeout;
            if now >= deadline {
                self.flush(deadline);
            }
        }
    }

    /// Submit one operation at `now`; returns its id. A batch reaching full
    /// width processes immediately.
    pub fn submit(&mut self, now: SimTime) -> u64 {
        self.poll(now);
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((id, now));
        if self.pending.len() >= self.cfg.batch_width {
            self.flush(now);
        }
        id
    }

    /// Force-process everything pending (shutdown).
    pub fn flush_all(&mut self, now: SimTime) {
        self.flush(now);
    }

    /// Take all completions recorded so far.
    pub fn drain_completed(&mut self) -> Vec<CompletedOp> {
        std::mem::take(&mut self.completed)
    }

    /// Batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.batches_processed
    }
}

/// The analytic interface the per-request data path uses: given the
/// instantaneous number of concurrently arriving new connections, how long
/// until the handshake's asymmetric step completes, and how much *node* CPU
/// it burns.
pub trait AsymmetricBackend {
    /// Completion latency of one asymmetric operation under
    /// `concurrent_new_connections` simultaneous arrivals.
    fn completion(&self, concurrent_new_connections: usize) -> SimDuration;

    /// CPU time consumed on the requesting node per operation.
    fn node_cpu_cost(&self) -> SimDuration;

    /// Human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Plain software asymmetric crypto (no acceleration; "old CPU models").
#[derive(Debug, Clone, Copy)]
pub struct SoftwareBackend {
    /// Per-operation compute time.
    pub(crate) op_cost: SimDuration,
}

impl Default for SoftwareBackend {
    fn default() -> Self {
        SoftwareBackend {
            op_cost: SimDuration::from_millis(2),
        }
    }
}

impl AsymmetricBackend for SoftwareBackend {
    fn completion(&self, _concurrency: usize) -> SimDuration {
        self.op_cost
    }

    fn node_cpu_cost(&self) -> SimDuration {
        self.op_cost
    }

    fn name(&self) -> &'static str {
        "software"
    }
}

/// Analytic view of the local batch accelerator: full batches process at
/// batch cost; partial batches additionally eat the flush timeout.
#[derive(Debug, Clone, Copy)]
pub struct LocalBatchBackend {
    /// Batch configuration.
    pub cfg: AccelConfig,
    /// Node CPU consumed per op (the accelerator is the node's own CPU, but
    /// vectorization cuts the cycle count substantially).
    pub(crate) node_cpu: SimDuration,
}

impl Default for LocalBatchBackend {
    fn default() -> Self {
        LocalBatchBackend {
            cfg: AccelConfig::default(),
            node_cpu: SimDuration::from_micros(700),
        }
    }
}

impl AsymmetricBackend for LocalBatchBackend {
    fn completion(&self, concurrency: usize) -> SimDuration {
        if concurrency >= self.cfg.batch_width {
            self.cfg.per_batch_cost
        } else {
            // Partial batch: the op waits out (a fraction of) the flush
            // timeout before processing. Fewer concurrent arrivals → longer
            // expected wait, saturating at the full timeout for a lone op
            // (which then costs timeout + batch = exactly the software cost:
            // the Fig. 25 "no better than no offloading" regime).
            let missing = (self.cfg.batch_width - concurrency.max(1)) as f64
                / (self.cfg.batch_width - 1) as f64;
            self.cfg.per_batch_cost + self.cfg.flush_timeout.scale(missing)
        }
    }

    fn node_cpu_cost(&self) -> SimDuration {
        self.node_cpu
    }

    fn name(&self) -> &'static str {
        "local-batch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;
    const T: fn(u64) -> SimTime = SimTime::from_micros;

    #[test]
    fn full_batch_processes_immediately() {
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        for i in 0..8 {
            acc.submit(T(i * 10));
        }
        let done = acc.drain_completed();
        assert_eq!(done.len(), 8);
        // Batch triggered at the 8th arrival (t=70us), costs 1ms.
        for op in &done {
            assert_eq!(op.completed, T(70) + MS(1));
        }
        assert_eq!(acc.batches_processed(), 1);
    }

    #[test]
    fn partial_batch_waits_for_timeout() {
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        acc.submit(T(0));
        acc.poll(T(500));
        assert!(acc.drain_completed().is_empty(), "0.5ms: still waiting");
        acc.poll(T(1_000));
        let done = acc.drain_completed();
        assert_eq!(done.len(), 1);
        // Flushed at the 1ms deadline, +1ms processing = 2ms total latency.
        assert_eq!(done[0].latency(), MS(2));
    }

    #[test]
    fn lone_op_is_no_faster_than_software() {
        // The Fig. 25 pathology: a single new connection takes timeout +
        // batch cost = 2ms — exactly the software cost, so zero benefit
        // (and worse once queueing is added).
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        acc.submit(T(0));
        acc.poll(T(10_000));
        let lat = acc.drain_completed()[0].latency();
        let sw = SoftwareBackend::default().op_cost;
        assert!(lat >= sw);
    }

    #[test]
    fn serial_batches_queue_behind_each_other() {
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        // Two full batches arriving at once.
        for _ in 0..16 {
            acc.submit(T(0));
        }
        let done = acc.drain_completed();
        assert_eq!(done.len(), 16);
        let first_batch_done = done[0].completed;
        let second_batch_done = done[15].completed;
        assert_eq!(first_batch_done, SimTime::ZERO + MS(1));
        assert_eq!(second_batch_done, SimTime::ZERO + MS(2));
    }

    #[test]
    fn submit_flushes_stale_batch_first() {
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        acc.submit(T(0));
        // Next submit arrives 5ms later: the first op must have flushed at
        // its own deadline, not merged with the newcomer.
        acc.submit(T(5_000));
        let done = acc.drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), MS(2));
    }

    #[test]
    fn analytic_backend_matches_paper_shape() {
        let local = LocalBatchBackend::default();
        let sw = SoftwareBackend::default();
        // Saturated: 1ms — 2x faster than software (Fig. 23 local ≈ 1ms).
        assert_eq!(local.completion(8), MS(1));
        assert_eq!(local.completion(100), MS(1));
        // Starved: as slow as or slower than software (Fig. 25).
        assert!(local.completion(1) >= sw.completion(1));
        // Monotonic improvement with concurrency.
        for c in 1..8 {
            assert!(local.completion(c + 1) <= local.completion(c));
        }
    }

    #[test]
    fn node_cpu_cost_ordering() {
        // Acceleration must reduce node CPU burn (the Fig. 12 effect).
        let sw = SoftwareBackend::default();
        let local = LocalBatchBackend::default();
        assert!(local.node_cpu_cost() < sw.node_cpu_cost());
    }
}
