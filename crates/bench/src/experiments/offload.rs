//! Appendix offload/eBPF experiments: Figs. 27/28 (key-server crypto
//! offloading) and Figs. 29/30 (eBPF vs iptables redirection).

use crate::harness::{Check, ExperimentReport};
use canal_crypto::accel::{AsymmetricBackend, SoftwareBackend};
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
use canal_net::nagle::NagleBuffer;
use canal_sim::output::{num, pct, ratio, Table};
use canal_sim::{stats, CpuServer, SimDuration, SimRng, SimTime};

/// Non-offloadable on-node proxy CPU per HTTPS short flow: TLS record
/// crypto, connection setup/teardown, L4 bookkeeping and proxying. The
/// asymmetric handshake (≈2 ms in software) comes on top — offloading it is
/// what Figs. 27/28 measure.
const PER_CONN_WORK: SimDuration = SimDuration::from_micros(2_200);

fn conn_demand(backend: &dyn AsymmetricBackend) -> SimDuration {
    PER_CONN_WORK + backend.node_cpu_cost()
}

/// External (non-CPU) wait per connection — the key-server round trip for
/// remote offload, zero for local software crypto.
fn conn_wait(backend: &dyn AsymmetricBackend) -> SimDuration {
    if backend.name().starts_with("keyserver") {
        backend.completion(64)
    } else {
        SimDuration::ZERO
    }
}

/// Drive the proxy at `rps` connections/s for `n` connections; P90 latency.
fn drive(
    cores: usize,
    backend: &dyn AsymmetricBackend,
    rps: f64,
    n: usize,
    rng: &mut SimRng,
) -> f64 {
    let mut cpu = CpuServer::new(cores);
    let demand = conn_demand(backend);
    let wait = conn_wait(backend);
    let mut latencies = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..n {
        t += rng.exponential(1.0 / rps);
        let arrival = SimTime::from_nanos((t * 1e9) as u64);
        let served = cpu.submit(arrival, demand.scale(rng.uniform(0.8, 1.2)));
        latencies.push((served.finish + wait).since(arrival).as_millis_f64());
    }
    stats::percentile(&latencies[n / 10..], 0.9)
}

/// Max sustainable connections/s: P90 below 5 service-times of CPU
/// queueing + the constant external wait (counted once — the key-server
/// round trip is pipeline latency, not queueing headroom, so both backends
/// face the same knee criterion in units of their own service time). The
/// P90 estimate is noisy near the knee, so the sweep stops at the first
/// offered rate that busts the limit instead of crediting a lucky later
/// grid point.
fn capacity(cores: usize, backend: &dyn AsymmetricBackend, rng: &mut SimRng) -> f64 {
    let limit = conn_demand(backend).as_millis_f64() * 5.0 + conn_wait(backend).as_millis_f64();
    let hard_cap = cores as f64 / conn_demand(backend).as_secs_f64();
    let mut best = 0.0;
    for i in 0..24 {
        let rps = hard_cap * (0.3 + 0.75 * i as f64 / 23.0);
        if drive(cores, backend, rps, 20_000, rng) > limit {
            break;
        }
        best = rps;
    }
    best
}

/// Fig. 27 — throughput improvement with key-server offloading, across
/// proxy core counts.
pub(crate) fn fig27(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig27", "throughput improvement with offloading");
    let mut rng = SimRng::seed(seed);
    let software = SoftwareBackend::default();
    let remote = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
    let mut table = Table::new(
        "HTTPS short-flow throughput (conns/s)",
        &["proxy cores", "software", "key server", "improvement"],
    );
    let mut ratios = Vec::new();
    for cores in 1..=4usize {
        let sw = capacity(cores, &software, &mut rng);
        let off = capacity(cores, &remote, &mut rng);
        ratios.push(off / sw);
        table.row(&[cores.to_string(), num(sw), num(off), ratio(off / sw)]);
    }
    report.tables.push(table);
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    report.checks.push(Check::band(
        "throughput improvement (range min)",
        "1.6x~1.8x",
        lo,
        1.5,
        1.9,
    ));
    report.checks.push(Check::band(
        "throughput improvement (range max)",
        "1.6x~1.8x",
        hi,
        1.55,
        2.0,
    ));
    report
}

/// Fig. 28 — latency reduction with key-server offloading, growing with RPS
/// as the proxy's resources exhaust.
pub(crate) fn fig28(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig28", "latency improvement with offloading");
    let mut rng = SimRng::seed(seed);
    let software = SoftwareBackend::default();
    let remote = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
    let cores = 2;
    let sw_cap = cores as f64 / conn_demand(&software).as_secs_f64();
    let mut table = Table::new(
        "P90 latency (ms) vs offered connection rate",
        &["conns/s", "software", "key server", "reduction"],
    );
    let mut reductions = Vec::new();
    for &frac in &[0.60, 0.70, 0.80, 0.88] {
        let rps = sw_cap * frac;
        let sw = drive(cores, &software, rps, 20_000, &mut rng);
        let off = drive(cores, &remote, rps, 20_000, &mut rng);
        let red = 1.0 - off / sw;
        reductions.push(red);
        table.row(&[num(rps), num(sw), num(off), pct(red)]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "latency reduction near saturation (max)",
        "53%~60% (grows with RPS)",
        reductions.iter().cloned().fold(0.0, f64::max),
        0.45,
        0.80,
    ));
    report.checks.push(Check::cond(
        "reduction grows with RPS",
        "the rate of latency reduction becomes higher as RPS increases",
        &format!(
            "{} → {}",
            pct(reductions[0]),
            pct(reductions.last().copied().unwrap_or(0.0))
        ),
        reductions.windows(2).all(|w| w[1] >= w[0] - 0.03),
    ));
    report
}

/// Per-segment redirect cost of the two paths: base packet processing plus
/// iptables (2 stack traversals + 2 context switches) or a single eBPF
/// socket switch.
const SEGMENT_BASE: f64 = 20.0; // µs
const IPTABLES_SEGMENT: f64 = SEGMENT_BASE + 32.0;
const EBPF_SEGMENT: f64 = SEGMENT_BASE + 5.0;
/// Application write syscall cost (paid per write on both paths).
const SYSCALL: f64 = 15.0; // µs

/// Throughput of one path for a stream of `writes` × `size`-byte writes,
/// using the real Nagle aggregator to coalesce sub-MSS writes.
fn stream_throughput(size: usize, per_segment: f64) -> f64 {
    let writes = 20_000usize;
    let mut nagle = NagleBuffer::with_defaults();
    for i in 0..writes {
        nagle.write(SimTime::from_micros((i as u64) * 30), size);
    }
    nagle.flush(SimTime::from_secs(10));
    let segments = nagle.segments().len() as f64;
    let total_us = writes as f64 * SYSCALL + segments * per_segment;
    (writes * size) as f64 / (total_us / 1e6) // bytes per second
}

/// Fig. 29 — throughput improvement with eBPF redirection vs packet size.
pub(crate) fn fig29(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig29", "throughput improvement with eBPF");
    let mut table = Table::new(
        "redirection throughput (MB/s)",
        &["write size (B)", "iptables", "eBPF", "improvement"],
    );
    let mut small_ratio = 0.0;
    let mut large_ratio = 0.0;
    for &size in &[500usize, 1000, 1500, 3000, 6000] {
        let ipt = stream_throughput(size, IPTABLES_SEGMENT);
        let ebpf = stream_throughput(size, EBPF_SEGMENT);
        let r = ebpf / ipt;
        if size == 500 {
            small_ratio = r;
        }
        if size == 6000 {
            large_ratio = r;
        }
        table.row(&[size.to_string(), num(ipt / 1e6), num(ebpf / 1e6), ratio(r)]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "improvement at 500B",
        "≈1.3x for smaller packets",
        small_ratio,
        1.2,
        1.5,
    ));
    report.checks.push(Check::band(
        "improvement for large packets",
        "≈2x for packets > 1500B",
        large_ratio,
        1.7,
        2.2,
    ));
    report.checks.push(Check::cond(
        "improvement grows with packet size",
        "more significant for larger packets (no aggregation needed)",
        &format!("{} → {}", ratio(small_ratio), ratio(large_ratio)),
        large_ratio > small_ratio,
    ));
    report
}

/// Fig. 30 — latency improvement with eBPF redirection: iptables is
/// 1.5x~1.8x the eBPF latency, mostly insensitive to packet size.
pub(crate) fn fig30(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig30", "latency improvement with eBPF");
    let mut table = Table::new(
        "one-way redirect latency (µs)",
        &["write size (B)", "iptables", "eBPF", "iptables/eBPF"],
    );
    let mut ratios = Vec::new();
    for &size in &[500usize, 1000, 1500, 3000, 6000] {
        let copy = size as f64 * 0.0004; // per-byte copy, µs
        let ipt = SYSCALL + IPTABLES_SEGMENT + copy;
        let ebpf = SYSCALL + EBPF_SEGMENT + copy;
        ratios.push(ipt / ebpf);
        table.row(&[size.to_string(), num(ipt), num(ebpf), ratio(ipt / ebpf)]);
    }
    report.tables.push(table);
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    report.checks.push(Check::band(
        "iptables/eBPF latency (range min)",
        "1.5x~1.8x",
        lo,
        1.4,
        1.85,
    ));
    report.checks.push(Check::band(
        "iptables/eBPF latency (range max)",
        "1.5x~1.8x",
        hi,
        1.45,
        1.9,
    ));
    report.checks.push(Check::band(
        "size sensitivity (max/min of ratio)",
        "less sensitivity to packet size than throughput",
        hi / lo,
        1.0,
        1.15,
    ));
    report
}
