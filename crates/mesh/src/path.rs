//! Request-path execution over CPU stages.
//!
//! A request's journey through an architecture is a sequence of [`Step`]s.
//! A step either burns CPU on a named stage (queueing behind other requests
//! on that stage's [`CpuServer`]) or adds fixed latency (a network hop,
//! kernel overhead, a crypto-offload round trip). Executing the steps of
//! many requests against shared stages is what produces the emergent
//! latency-vs-load knees of Figs. 2 and 11.

use canal_sim::{CpuServer, SimDuration, SimTime};
use std::collections::BTreeMap;

/// CPU stages a request can visit. One [`CpuServer`] per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Client-side per-pod sidecar (Istio).
    ClientSidecar,
    /// Server-side per-pod sidecar (Istio).
    ServerSidecar,
    /// Client node's L4 ztunnel (Ambient).
    ClientZtunnel,
    /// Server node's L4 ztunnel (Ambient).
    ServerZtunnel,
    /// The per-service L7 waypoint (Ambient).
    Waypoint,
    /// Client node's Canal on-node proxy.
    ClientNodeProxy,
    /// Server node's Canal on-node proxy.
    ServerNodeProxy,
    /// A Canal mesh-gateway backend.
    GatewayBackend,
    /// The gateway VM's packet pipeline (vSwitch/NIC pps budget) — a
    /// serial resource separate from CPU; see
    /// `CostModel::gateway_pipeline_rps_cap`.
    GatewayPipeline,
    /// The server application itself.
    App,
}

/// One step of a request path.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// CPU stage to queue on, if any.
    pub stage: Option<StageId>,
    /// CPU demand on that stage.
    pub cpu: SimDuration,
    /// Fixed additional latency (hops, kernel overhead, offload RTTs).
    pub latency: SimDuration,
}

impl Step {
    /// A pure-latency step (network hop, overhead).
    pub(crate) fn wire(latency: SimDuration) -> Step {
        Step {
            stage: None,
            cpu: SimDuration::ZERO,
            latency,
        }
    }

    /// A CPU step on a stage.
    pub fn cpu(stage: StageId, demand: SimDuration) -> Step {
        Step {
            stage: Some(stage),
            cpu: demand,
            latency: SimDuration::ZERO,
        }
    }

    /// A CPU step with extra non-CPU latency (e.g. an L7 pass with kernel
    /// I/O overhead).
    pub(crate) fn cpu_with_overhead(stage: StageId, demand: SimDuration, overhead: SimDuration) -> Step {
        Step {
            stage: Some(stage),
            cpu: demand,
            latency: overhead,
        }
    }
}

/// Executes request paths against a set of shared stages.
#[derive(Debug)]
pub struct PathExecutor {
    stages: BTreeMap<StageId, CpuServer>,
}

impl PathExecutor {
    /// Build an executor with the given stage core counts.
    pub fn new(stage_cores: &[(StageId, usize)]) -> Self {
        let mut stages = BTreeMap::new();
        for &(id, cores) in stage_cores {
            stages.insert(id, CpuServer::new(cores));
        }
        PathExecutor { stages }
    }

    /// Run one request's steps starting at `arrival`. Returns the completion
    /// instant. Steps on stages without a registered server contribute their
    /// CPU demand as pure latency (an un-contended stage).
    ///
    /// NOTE: for *concurrent* requests use [`Self::run_many`] — calling
    /// `run` per request submits each request's whole path before the next
    /// request's first step, which misorders stage queues in time.
    pub fn run(&mut self, arrival: SimTime, steps: &[Step]) -> SimTime {
        let mut t = arrival;
        for step in steps {
            if let Some(stage) = step.stage {
                match self.stages.get_mut(&stage) {
                    Some(server) => {
                        let served = server.submit(t, step.cpu);
                        t = served.finish;
                    }
                    None => t += step.cpu,
                }
            }
            t += step.latency;
        }
        t
    }

    /// Run many requests concurrently: steps across requests are executed
    /// in global time order (a priority queue of ready events), so stage
    /// queues see arrivals chronologically — the correct queueing model for
    /// the Fig. 2/11 load sweeps. Returns each request's completion time,
    /// indexed like `requests`.
    pub fn run_many(&mut self, requests: &[(SimTime, Vec<Step>)]) -> Vec<SimTime> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut completions = vec![SimTime::ZERO; requests.len()];
        // (ready_time, tiebreak sequence, request index, next step index)
        let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, (arrival, _)) in requests.iter().enumerate() {
            heap.push(Reverse((*arrival, seq, i, 0)));
            seq += 1;
        }
        while let Some(Reverse((ready, _, req, idx))) = heap.pop() {
            let steps = &requests[req].1;
            let step = steps[idx];
            let after_cpu = match step.stage {
                Some(stage) => match self.stages.get_mut(&stage) {
                    Some(server) => server.submit(ready, step.cpu).finish,
                    None => ready + step.cpu,
                },
                None => ready + step.cpu,
            };
            let next_ready = after_cpu + step.latency;
            if idx + 1 < steps.len() {
                heap.push(Reverse((next_ready, seq, req, idx + 1)));
                seq += 1;
            } else {
                completions[req] = next_ready;
            }
        }
        completions
    }

    /// Sum of the fixed (queue-free) path time — the light-load latency.
    pub fn unloaded_latency(steps: &[Step]) -> SimDuration {
        steps
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.cpu + s.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: fn(u64) -> SimDuration = SimDuration::from_micros;
    const T: fn(u64) -> SimTime = SimTime::from_micros;

    #[test]
    fn unloaded_latency_sums_everything() {
        let steps = [
            Step::wire(US(100)),
            Step::cpu(StageId::App, US(50)),
            Step::cpu_with_overhead(StageId::GatewayBackend, US(20), US(75)),
        ];
        assert_eq!(PathExecutor::unloaded_latency(&steps), US(245));
    }

    #[test]
    fn single_request_matches_unloaded_latency() {
        let mut ex = PathExecutor::new(&[(StageId::App, 1), (StageId::GatewayBackend, 2)]);
        let steps = [
            Step::wire(US(100)),
            Step::cpu(StageId::GatewayBackend, US(30)),
            Step::cpu(StageId::App, US(50)),
        ];
        let done = ex.run(T(0), &steps);
        assert_eq!(done, T(180));
    }

    #[test]
    fn contention_adds_queueing_delay() {
        let mut ex = PathExecutor::new(&[(StageId::App, 1)]);
        let steps = [Step::cpu(StageId::App, US(100))];
        let a = ex.run(T(0), &steps);
        let b = ex.run(T(0), &steps); // same instant: queues behind a
        assert_eq!(a, T(100));
        assert_eq!(b, T(200));
    }

    #[test]
    fn unregistered_stage_is_uncontended() {
        let mut ex = PathExecutor::new(&[]);
        let steps = [Step::cpu(StageId::Waypoint, US(10))];
        assert_eq!(ex.run(T(0), &steps), T(10));
        assert_eq!(ex.run(T(0), &steps), T(10), "no queueing without a server");
    }

    #[test]
    fn run_many_interleaves_concurrent_requests() {
        // Request A arrives at t=0 with a long pre-wire before its CPU step
        // at t=1000; request B arrives at t=100 and needs the CPU at t=100.
        // Time-ordered execution must serve B first; naive per-request `run`
        // would let A reserve the core ahead of B.
        let steps_a = vec![Step::wire(US(1000)), Step::cpu(StageId::App, US(500))];
        let steps_b = vec![Step::cpu(StageId::App, US(500))];
        let mut ex = PathExecutor::new(&[(StageId::App, 1)]);
        let done = ex.run_many(&[(T(0), steps_a), (T(100), steps_b)]);
        assert_eq!(done[1], T(600), "B served immediately at t=100");
        assert_eq!(done[0], T(1500), "A's CPU starts at t=1000, core free");
    }

    #[test]
    fn run_many_matches_run_for_a_single_request() {
        let steps = vec![
            Step::wire(US(50)),
            Step::cpu(StageId::GatewayBackend, US(30)),
            Step::cpu_with_overhead(StageId::App, US(100), US(25)),
        ];
        let mut a = PathExecutor::new(&[(StageId::App, 1), (StageId::GatewayBackend, 1)]);
        let mut b = PathExecutor::new(&[(StageId::App, 1), (StageId::GatewayBackend, 1)]);
        let r1 = a.run(T(7), &steps);
        let r2 = b.run_many(&[(T(7), steps)]);
        assert_eq!(r1, r2[0]);
    }

    #[test]
    fn saturation_produces_latency_knee() {
        // The Fig. 11 mechanism in miniature: drive one 1-core stage at 80%
        // vs 105% of capacity; the overloaded run's tail latency diverges.
        let demand = US(100);
        let mut lat_ok = Vec::new();
        let mut lat_over = Vec::new();
        let mut ex1 = PathExecutor::new(&[(StageId::GatewayBackend, 1)]);
        let mut ex2 = PathExecutor::new(&[(StageId::GatewayBackend, 1)]);
        for i in 0..2000u64 {
            let steps = [Step::cpu(StageId::GatewayBackend, demand)];
            let a1 = T(i * 125); // 8k rps vs 10k capacity
            let a2 = T(i * 95); // 10.5k rps
            lat_ok.push((ex1.run(a1, &steps) - a1).as_micros_f64());
            lat_over.push((ex2.run(a2, &steps) - a2).as_micros_f64());
        }
        let p99_ok = canal_sim::stats::percentile(&lat_ok, 0.99);
        let p99_over = canal_sim::stats::percentile(&lat_over, 0.99);
        assert!(p99_over > p99_ok * 10.0, "{p99_ok} vs {p99_over}");
    }
}
