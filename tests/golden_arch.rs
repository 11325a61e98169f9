//! Golden step plans and stage shapes of the four data-plane architectures.
//!
//! `GOLDEN_PLANS` folds every architecture's step plan and per-request mesh
//! CPU over the request shapes the experiments use. It was captured while
//! each architecture still summed its mesh CPU by hand; any change to a
//! step, its stage, its price or the CPU total moves it.
//!
//! `GOLDEN_SHAPES` folds every architecture's stage cores and background
//! cores at the paper's testbed and two production cluster sizes. It was
//! captured while each architecture was a hand-written step-plan builder of
//! its own, before the four became placements walked by one function.

use canal::mesh::arch::*;
use canal::mesh::CostModel;
use canal::net::{Priority, TraceContext};
use canal::sim::{Digest, Fold};

const GOLDEN_PLANS: u64 = 0xc491_76d4_a856_fbe3;
const GOLDEN_SHAPES: u64 = 0xaaae_c9be_30bb_3c00;

#[test]
fn step_plans_and_mesh_cpu_match_the_golden_value() {
    let mut https_large = RequestCtx::light();
    https_large.https = true;
    https_large.req_bytes = 16 * 1024;
    https_large.resp_bytes = 64 * 1024;
    let contexts = [
        RequestCtx::light(),
        RequestCtx::new_https(1),
        RequestCtx::new_https(64),
        RequestCtx::resumed_https(8),
        https_large,
        RequestCtx { trace: Some(TraceContext::root(7, true)), ..RequestCtx::light() },
        RequestCtx { trace: Some(TraceContext::root(7, false)), ..RequestCtx::light() },
        RequestCtx { priority: Priority::Bulk, ..RequestCtx::light() },
    ];
    let mut d = Digest::new();
    for kind in Architecture::ALL {
        let arch = build(kind, CostModel::default());
        for ctx in &contexts {
            let steps = arch.request_steps(ctx);
            d.write_u64(steps.len() as u64);
            for s in &steps {
                d.write_u64(s.stage.map_or(0, |stage| stage as u64 + 1));
                d.write_u64(s.cpu.as_nanos()).write_u64(s.latency.as_nanos());
            }
            d.write_u64(arch.mesh_cpu_per_request(ctx).as_nanos());
        }
    }
    assert_eq!(d.value(), GOLDEN_PLANS, "{:#018x}", d.value());
}

#[test]
fn stage_and_background_cores_match_the_golden_value() {
    let shapes = [
        ClusterShape::paper_testbed(),
        ClusterShape::production(450),
        ClusterShape::production(15_000),
    ];
    let mut d = Digest::new();
    for kind in Architecture::ALL {
        let arch = build(kind, CostModel::default());
        let cores = arch.stage_cores();
        d.write_u64(cores.len() as u64);
        for &(stage, n) in cores.iter() {
            d.write_u64(stage as u64).write_u64(n as u64);
        }
        for shape in &shapes {
            d.write_f64(arch.background_cores(shape));
        }
    }
    assert_eq!(d.value(), GOLDEN_SHAPES, "{:#018x}", d.value());
}
