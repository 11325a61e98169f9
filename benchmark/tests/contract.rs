//! The benchmark against its own contract: `BENCHMARK.json` has the shape
//! the driver accepts, every run names exactly the metrics it declares,
//! allocation counts repeat, and a wrong outcome fails the run.

use canal_benchmark::gen::DatapathParams;
use canal_benchmark::json::{self, Value};
use canal_benchmark::report::tables;
use canal_benchmark::workloads::datapath;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_canal-benchmark");

fn keys(v: &Value) -> Vec<&str> {
    v.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn strings(v: &Value) -> Vec<&str> {
    v.items().iter().filter_map(Value::as_str).collect()
}

fn well_formed(name: &str, max: usize, others: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || others.contains(c))
}

#[test]
fn benchmark_json_has_the_shape_the_driver_accepts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(file.len() <= 64 * 1024);
    let doc = json::parse(&file).expect("BENCHMARK.json parses");
    let field = |key: &str| doc.get(key).unwrap();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(strings(field("command")), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings(field("paths")), ["benchmark"]);
    let seconds = field("run_seconds").as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let mut names = std::collections::BTreeSet::new();
    let mut name_of = |v: &Value| {
        let name = text(v, "name").to_string();
        assert!(well_formed(&name, 64, "_.-"), "{name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(names.insert(name.clone()), "{name} used twice");
        name
    };
    let workloads = field("workloads").items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", name_of(w));
    }
    let (end_to_end, per_layer) = (field("end_to_end").items(), field("per_layer").items());
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    for (m, bounded) in end_to_end
        .iter()
        .map(|m| (m, true))
        .chain(per_layer.iter().map(|m| (m, false)))
    {
        let name = name_of(m);
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected, "{name}");
        assert!(well_formed(text(m, "unit"), 16, "_/%.-"), "{name}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{name}");
    }
    // `setup_s` is declared, in seconds, with the largest bound.
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).unwrap();
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for m in end_to_end {
        assert!(bound(m) > 0.0 && bound(m) <= bound(setup) && bound(setup) <= 0.25);
    }
}

/// Run the program; returns its exit code and the parsed last line.
fn run(args: &[&str]) -> (i32, Value) {
    let out = Command::new(BIN)
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{args:?} printed nothing"));
    let value = json::parse(last).unwrap_or_else(|e| panic!("{args:?}: {e}: {last}"));
    (out.status.code().unwrap_or(-1), value)
}

#[test]
fn smoke_runs_name_exactly_the_declared_metrics() {
    for (workload, _) in &tables().workloads {
        for (trace, table) in [("0", &tables().end_to_end), ("1", &tables().per_layer)] {
            let (code, v) = run(&[
                "--workload",
                workload,
                "--smoke",
                "--seed",
                "7",
                "--trace",
                trace,
            ]);
            assert_eq!(code, 0, "{workload} --trace {trace}");
            assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = v.get("metrics").unwrap();
            let expected: Vec<&str> = table.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(keys(metrics), expected, "{workload} --trace {trace}");
            for def in table {
                let m = metrics.get(&def.name).unwrap();
                assert_eq!(keys(m), ["value", "unit"]);
                assert_eq!(text(m, "unit"), def.unit);
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite());
                if trace == "0" {
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end metric {} is {value}",
                        def.name
                    );
                }
            }
        }
    }
}

#[test]
fn allocation_counts_repeat_exactly() {
    let allocs = || {
        let (code, v) = run(&["--workload", "l7_small", "--ops", "10000", "--trace", "1"]);
        assert_eq!(code, 0);
        let m = v.get("metrics").unwrap();
        let get = |name: &str| {
            m.get(name)
                .unwrap()
                .get("value")
                .and_then(Value::as_f64)
                .unwrap()
        };
        (
            get("path.allocs_per_op"),
            get("path.alloc_bytes_per_op"),
            get("http.allocs_per_op"),
        )
    };
    let first = allocs();
    assert!(first.0 > 0.0);
    assert_eq!(first, allocs());
}

const TINY: DatapathParams = DatapathParams {
    tenants: 2,
    services_per_tenant: 2,
    route_rules: 3,
    flows: 64,
    requests: 100,
    body_bytes: 0,
    pool_ops: 400,
    syn_every: 8,
    l4_only: false,
    chunk_ops: 100,
};

#[test]
fn a_flipped_expected_outcome_fails_the_run() {
    let mut honest = datapath::setup(&TINY, 11, 0);
    honest.drive(&TINY, 400);
    assert_eq!(honest.checker.failed, 0);

    // Expect 403 where the generated workload expects 200, on one op.
    let mut flipped = datapath::setup(&TINY, 11, 0);
    let k = flipped
        .inputs
        .ops
        .iter()
        .position(|op| op.status == 200)
        .unwrap();
    flipped.inputs.ops[k].status = 403;
    flipped.drive(&TINY, 400);
    assert_eq!(flipped.checker.failed, 1);

    // And a wrong route target: point an op at a request of another rule.
    let mut rerouted = datapath::setup(&TINY, 11, 0);
    let op = rerouted
        .inputs
        .ops
        .iter()
        .position(|op| op.status == 200)
        .unwrap();
    let request = rerouted.inputs.ops[op].request as usize;
    let other = rerouted.inputs.requests[request]
        .rule
        .map(|r| (r + 1) % TINY.route_rules);
    rerouted.inputs.requests[request].rule = other;
    rerouted.drive(&TINY, 400);
    assert!(rerouted.checker.failed >= 1);
}
