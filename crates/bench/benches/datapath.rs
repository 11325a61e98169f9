//! Data-path micro-benchmarks: ECMP selection, bucket-table dispatch (the
//! per-packet redirector work the paper eBPF-accelerates), Nagle
//! aggregation, session tables, tunnel encapsulation and the assembled
//! gateway's per-request path over a working set too large to stay cached.

// Benchmark scaffolding, like tests, may assert via unwrap.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use canal_bench::microbench::{bench, black_box};
use canal_gateway::gateway::{Gateway, GatewayConfig};
use canal_gateway::redirector::BucketTable;
use canal_gateway::tunnel::{SessionAggregator, TunnelConfig};
use canal_net::nagle::NagleBuffer;
use canal_net::{
    Endpoint, FiveTuple, FlowHash, GlobalServiceId, Packet, ServiceId, SessionTable, TenantId,
    VpcAddr, VpcId,
};
use canal_sim::{SimDuration, SimRng, SimTime};
use std::num::NonZeroUsize;

fn tuple(sport: u16) -> FiveTuple {
    FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 9, 9), 443),
    )
}

fn bench_hashing() {
    let t = tuple(12_345);
    let (hops, buckets) = (NonZeroUsize::new(16).unwrap(), NonZeroUsize::new(1024).unwrap());
    bench("hash/ecmp_select", || FlowHash::of(black_box(&t)).select(hops));
    bench("hash/bucket_of", || FlowHash::of(black_box(&t)).bucket(buckets));
}

fn bench_redirector() {
    let mut table = BucketTable::new(1024, &[0, 1, 2, 3], 4);
    table.replica_going_offline(1, 4); // chains of length 2 in a quarter
    let t = tuple(999);
    bench("redirector/dispatch_syn", || {
        table.dispatch(black_box(&t), true, |_, _| false)
    });
    bench("redirector/dispatch_established_chain_walk", || {
        table.dispatch(black_box(&t), false, |r, _| r == 1)
    });
}

fn bench_nagle() {
    bench("nagle/10k_small_writes", || {
        let mut buf = NagleBuffer::with_defaults();
        for i in 0..10_000u64 {
            buf.write(SimTime::from_micros(i), 64);
        }
        buf.flush(SimTime::from_secs(1));
        buf.segments().len()
    });
}

fn bench_session_table() {
    let mut st = SessionTable::new(1 << 20, SimDuration::from_secs(300));
    let mut sport = 0u16;
    bench("session_table/establish_touch_close", || {
        sport = sport.wrapping_add(1);
        let k = tuple(sport);
        let now = SimTime::from_micros(sport as u64);
        st.establish(k, now).unwrap();
        st.touch(&k, now);
        st.close(&k, now);
    });
}

fn bench_tunnel() {
    let mut agg = SessionAggregator::new(TunnelConfig::for_cores(4), 0x0A63_0002, 77);
    let pkt = Packet::data(tuple(5_000), vec![0u8; 1024]);
    bench("tunnel/encapsulate_1KiB", || agg.encapsulate(&pkt));
}

/// The `l4_fastpath` shape: 65,536 established flows over 1,024 services on
/// a 32-backend gateway, visited in a scrambled order so every request
/// finds its service slot, bucket and session cold.
fn bench_gateway() {
    let cfg = GatewayConfig {
        azs: 2,
        backends_per_az: 16,
        shard_size: 3,
        buckets: 128,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(cfg);
    let mut rng = SimRng::seed(42);
    let services: Vec<GlobalServiceId> = (0..1024u32)
        .map(|i| GlobalServiceId::compose(TenantId(1 + i / 16), ServiceId(i % 16)))
        .collect();
    for &s in &services {
        gw.register_service(s, &mut rng);
    }
    let flows: Vec<FiveTuple> = (0..65_536u32)
        .map(|i| {
            FiveTuple::tcp(
                Endpoint::new(VpcAddr::new(VpcId(1 + i % 64), 10, 1, (i >> 8) as u8, i as u8), 1024 + (i >> 4) as u16),
                Endpoint::new(VpcAddr::new(VpcId(1 + i % 64), 10, 9, 9, 9), 443),
            )
        })
        .collect();
    let mut now = SimTime::ZERO;
    for (i, t) in flows.iter().enumerate() {
        gw.handle_request(now, services[i % services.len()], t, true).unwrap();
    }
    let mut i = 0usize;
    bench("gateway/handle_request_64k_flows_1k_services", || {
        i = (i + 40_503) % flows.len(); // odd stride: a full cycle, no locality
        now += SimDuration::from_micros(10);
        gw.handle_request(now, services[i % services.len()], black_box(&flows[i]), i.is_multiple_of(16))
    });
}

fn main() {
    bench_hashing();
    bench_redirector();
    bench_nagle();
    bench_session_table();
    bench_tunnel();
    bench_gateway();
}
