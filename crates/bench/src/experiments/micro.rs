//! Appendix micro-experiments: Figs. 22 (context switches), 23 (crypto
//! completion), 24 (production latency distribution), 25 (AVX-512
//! degradation), 26 (redirector session consistency).

use crate::harness::{Check, ExperimentReport};
use canal_crypto::accel::{AccelConfig, AsymmetricBackend, BatchAccelerator, LocalBatchBackend, SoftwareBackend};
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
use canal_gateway::redirector::BucketTable;
use canal_net::nagle::NagleBuffer;
use canal_net::{Endpoint, FiveTuple, VpcAddr, VpcId};
use canal_sim::output::{num, Table};
use canal_sim::{stats, SimDuration, SimRng, SimTime};
use canal_workload::servicetime::sample_ms;

/// Fig. 22 — context-switch frequency when forwarding 16-byte packets at
/// 4k RPS: raw eBPF (no aggregation) vs eBPF+Nagle vs iptables (kernel
/// Nagle). Each emitted segment costs one redirect context switch; iptables
/// costs two per segment (Fig. 21).
pub(crate) fn fig22(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig22", "context switch frequency of eBPF (16B, 4kRPS)");
    let rps = 4000u64;
    let secs = 10u64;
    let run = |buffer: &mut NagleBuffer| {
        for i in 0..rps * secs {
            buffer.write(SimTime::from_micros(i * 1_000_000 / rps), 16);
        }
        buffer.flush(SimTime::from_secs(secs));
        buffer.segments().len() as f64 / secs as f64
    };
    let raw_ebpf_segments = run(&mut NagleBuffer::disabled());
    let nagled_segments = run(&mut NagleBuffer::with_defaults());
    let raw_ebpf_switches = raw_ebpf_segments; // 1 switch per segment
    let ebpf_nagle_switches = nagled_segments;
    let iptables_switches = nagled_segments * 2.0; // kernel path: 2 per segment

    let mut table = Table::new(
        "context switches per second",
        &["path", "segments/s", "switches/s"],
    );
    table.row(&["ebpf (no aggregation)".into(), num(raw_ebpf_segments), num(raw_ebpf_switches)]);
    table.row(&["iptables (kernel Nagle)".into(), num(nagled_segments), num(iptables_switches)]);
    table.row(&["ebpf + Nagle (Canal)".into(), num(nagled_segments), num(ebpf_nagle_switches)]);
    report.tables.push(table);

    report.checks.push(Check::cond(
        "raw eBPF switches exceed iptables",
        "higher context switch frequency of eBPF on small packets",
        &format!("{} vs {}", num(raw_ebpf_switches), num(iptables_switches)),
        raw_ebpf_switches > iptables_switches * 1.5,
    ));
    report.checks.push(Check::cond(
        "Nagle-on-eBPF beats both",
        "implementing Nagle with eBPF fixes the regression",
        &format!("{} switches/s", num(ebpf_nagle_switches)),
        ebpf_nagle_switches < iptables_switches && ebpf_nagle_switches < raw_ebpf_switches,
    ));
    report
}

/// Fig. 23 — crypto completion time: remote key server ≈1.7 ms flat, local
/// offload ≈1 ms (when batches fill), no offloading ≈2 ms.
pub(crate) fn fig23(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig23", "completion time of crypto with remote/local/no offloading");
    let mut rng = SimRng::seed(seed);
    let software = SoftwareBackend::default();
    let remote = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
    let mut table = Table::new(
        "completion (ms) vs workload (new conns arriving together)",
        &["concurrent", "no offload", "local offload", "remote offload"],
    );
    let local = LocalBatchBackend::default();
    let mut local_at_saturation = 0.0;
    let mut remote_vals = Vec::new();
    for &conc in &[1usize, 2, 4, 8, 16, 32, 64] {
        // Local: the steady-state batching model (full batches flow through
        // back to back once arrivals keep the buffer fed).
        let local_ms = local.completion(conc).as_millis_f64();
        if conc >= 8 {
            local_at_saturation = local_ms;
        }
        let r = remote.completion(conc).as_millis_f64() * rng.uniform(0.995, 1.005);
        remote_vals.push(r);
        table.row(&[
            conc.to_string(),
            num(software.completion(conc).as_millis_f64()),
            num(local_ms),
            num(r),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "remote completion (ms)",
        "stable ≈1.7 ms regardless of workload",
        stats::mean(&remote_vals),
        1.6,
        1.8,
    ));
    report.checks.push(Check::band(
        "remote completion spread (max-min, ms)",
        "remains relatively stable",
        remote_vals.iter().cloned().fold(0.0, f64::max)
            - remote_vals.iter().cloned().fold(f64::INFINITY, f64::min),
        0.0,
        0.1,
    ));
    report.checks.push(Check::band(
        "local completion at saturation (ms)",
        "≈1 ms",
        local_at_saturation,
        0.8,
        1.3,
    ));
    report.checks.push(Check::band(
        "no-offload completion (ms)",
        "≈2 ms",
        software.completion(1).as_millis_f64(),
        1.9,
        2.1,
    ));
    report
}

/// Fig. 24 — distribution of end-to-end latency in a production K8s cluster.
pub(crate) fn fig24(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig24", "production end-to-end latency distribution");
    let mut rng = SimRng::seed(seed);
    let samples = sample_ms(100_000, &mut rng);
    let n = samples.len() as f64;
    let frac = |lo: f64, hi: f64| {
        samples.iter().filter(|&&x| (lo..hi).contains(&x)).count() as f64 / n
    };
    let mut table = Table::new("latency histogram", &["band (ms)", "fraction"]);
    for (lo, hi) in [(0.0, 20.0), (20.0, 40.0), (40.0, 50.0), (50.0, 70.0), (70.0, 100.0), (100.0, 200.0), (200.0, 400.0)] {
        table.row(&[format!("{lo}-{hi}"), num(frac(lo, hi))]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "mass in 40–50 ms + 100–200 ms",
        "the majority of latencies fall within 40~50ms and 100~200ms",
        frac(40.0, 50.0) + frac(100.0, 200.0),
        0.75,
        1.0,
    ));
    report.checks.push(Check::band(
        "key-server 0.7 ms as a fraction of mean app latency",
        "negligible compared to app processing",
        0.7 / stats::mean(&samples),
        0.0,
        0.02,
    ));
    report
}

/// Fig. 25 — AVX-512-style local acceleration degrades below 8 concurrent
/// new connections (the batch bubble), exercised on the exact queue model.
pub(crate) fn fig25(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig25", "performance under few concurrent connections (AVX-512)");
    let software = SoftwareBackend::default();
    let mut table = Table::new(
        "handshake completion vs concurrency",
        &["concurrent", "accelerated (ms)", "software (ms)", "accel wins?"],
    );
    let mut degraded_below_8 = true;
    let mut wins_at_8_plus = true;
    for conc in 1..=16usize {
        let mut acc = BatchAccelerator::new(AccelConfig::default());
        for round in 0..32u64 {
            let base = SimTime::from_millis(round * 8);
            for i in 0..conc {
                acc.submit(base + SimDuration::from_micros(i as u64));
            }
            acc.poll(base + SimDuration::from_millis(4));
        }
        acc.flush_all(SimTime::from_secs(2));
        let done = acc.drain_completed();
        let ms = stats::mean(&done.iter().map(|c| c.latency().as_millis_f64()).collect::<Vec<_>>());
        let sw = software.completion(conc).as_millis_f64();
        let wins = ms < sw;
        if conc < 8 && ms < sw * 0.75 {
            degraded_below_8 = false; // acceleration should NOT clearly win here
        }
        if conc >= 8 && !wins {
            wins_at_8_plus = false;
        }
        table.row(&[
            conc.to_string(),
            num(ms),
            num(sw),
            if wins { "yes".into() } else { "no".into() },
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::cond(
        "significant degradation below 8 concurrent connections",
        "performance degradation when #connections < 8",
        if degraded_below_8 { "no clear win below 8" } else { "accel won below 8" },
        degraded_below_8,
    ));
    report.checks.push(Check::cond(
        "acceleration wins at ≥8 concurrent connections",
        "batch fills at 8 (512-bit buffer, 8 ops)",
        if wins_at_8_plus { "wins at ≥8" } else { "lost at ≥8" },
        wins_at_8_plus,
    ));
    report
}

/// Fig. 26 — session-consistency case study: replica IP2 goes offline, IP3
/// is prepended; old flows keep landing on IP2, new flows go to IP3, and
/// IP2 can be removed once drained.
pub(crate) fn fig26(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig26", "session consistency maintenance with redirector");
    let mut table = BucketTable::new(256, &[1, 2], 4);
    let tuple = |sport: u16| {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 7, 7), 443),
        )
    };
    // Establish 500 flows; remember the owner of each.
    let flows: Vec<(FiveTuple, usize)> = (0..500u16)
        .map(|i| {
            let t = tuple(1000 + i);
            let d = table.dispatch(&t, true, |_, _| false);
            (t, d.replica)
        })
        .collect();
    let ip2_flows = flows.iter().filter(|&&(_, r)| r == 2).count();
    table.replica_going_offline(2, 3);
    // Old flows: every one still reaches its owner.
    let owners = flows.clone();
    let still_consistent = flows
        .iter()
        .filter(|(t, owner)| {
            let d = table.dispatch(t, false, |r, tpl| {
                owners.iter().any(|(t2, o2)| t2 == tpl && *o2 == r)
            });
            d.replica == *owner
        })
        .count();
    // New flows after the change: none land on IP2.
    let new_on_ip2 = (0..500u16)
        .filter(|i| {
            table
                .dispatch(&tuple(10_000 + i), true, |_, _| false)
                .replica
                == 2
        })
        .count();
    // Drain and remove.
    table.replica_removed(2);
    let ip2_in_chains = (0..table.len()).any(|b| table.chain(b).contains(&2));

    let mut t = Table::new("case study", &["metric", "value"]);
    t.row(&["established flows".into(), flows.len().to_string()]);
    t.row(&["flows owned by IP2 before offline".into(), ip2_flows.to_string()]);
    t.row(&["old flows still reaching their owner".into(), still_consistent.to_string()]);
    t.row(&["new flows landing on IP2 after offline".into(), new_on_ip2.to_string()]);
    t.row(&["IP2 present after drain+removal".into(), ip2_in_chains.to_string()]);
    report.tables.push(t);

    report.checks.push(Check::cond(
        "all established flows stay on their replica",
        "existing flows continue to their original destinations",
        &format!("{still_consistent}/{}", flows.len()),
        still_consistent == flows.len(),
    ));
    report.checks.push(Check::cond(
        "no new flow lands on the leaving replica",
        "the replica no longer processes new sessions",
        &format!("{new_on_ip2} new flows on IP2"),
        new_on_ip2 == 0,
    ));
    report.checks.push(Check::cond(
        "drained replica removable",
        "when flows have all aged, IP2 can be safely taken offline",
        &format!("IP2 in chains: {ip2_in_chains}"),
        !ip2_in_chains,
    ));
    report
}
