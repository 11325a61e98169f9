//! Report/check types and shared measurement helpers.

use canal_mesh::arch::{MeshArchitecture, RequestCtx};
use canal_mesh::path::PathExecutor;
use canal_sim::output::Table;
use canal_sim::{stats, SimRng, SimTime};

/// One paper-vs-measured assertion.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub name: String,
    /// The paper's reported value/range (free text).
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the measured value lands in the acceptance band.
    pub pass: bool,
}

impl Check {
    /// A check on a numeric value against an inclusive band.
    pub fn band(name: &str, paper: &str, measured: f64, lo: f64, hi: f64) -> Check {
        Check {
            name: name.to_string(),
            paper: paper.to_string(),
            measured: canal_sim::output::num(measured),
            pass: (lo..=hi).contains(&measured),
        }
    }

    /// A boolean condition check.
    pub fn cond(name: &str, paper: &str, measured: &str, pass: bool) -> Check {
        Check {
            name: name.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            pass,
        }
    }
}

/// The output of one experiment.
#[derive(Debug)]
pub struct ExperimentReport {
    /// Experiment id (e.g. "fig11").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper-shaped data tables.
    pub tables: Vec<Table>,
    /// Paper-vs-measured checks.
    pub checks: Vec<Check>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            tables: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Render the whole report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n===== {} — {} =====\n", self.id, self.title));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.checks.is_empty() {
            let mut t = Table::new(
                &format!("{} paper-vs-measured", self.id),
                &["check", "paper", "measured", "verdict"],
            );
            for c in &self.checks {
                t.row(&[
                    c.name.clone(),
                    c.paper.clone(),
                    c.measured.clone(),
                    if c.pass { "PASS".into() } else { "MISS".into() },
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

/// Measured behaviour of one architecture at one offered load.
#[derive(Debug, Clone, Copy)]
pub struct LoadPoint {
    /// Offered requests per second.
    pub rps: f64,
    /// Mean end-to-end latency (ms).
    pub mean_ms: f64,
    /// P99 end-to-end latency (ms).
    pub p99_ms: f64,
}

/// Drive an architecture with Poisson arrivals at `rps` for `duration_s`
/// simulated seconds; returns the latency profile. Service demands are
/// drawn per-request with ±25% jitter so queueing tails are realistic.
pub fn measure_at_load(
    arch: &dyn MeshArchitecture,
    ctx: &RequestCtx,
    rps: f64,
    duration_s: f64,
    rng: &mut SimRng,
) -> LoadPoint {
    let mut exec = PathExecutor::new(&arch.stage_cores());
    let template = arch.request_steps(ctx);
    let mut requests: Vec<(SimTime, Vec<canal_mesh::path::Step>)> = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / rps);
        if t > duration_s {
            break;
        }
        let arrival = SimTime::from_nanos((t * 1e9) as u64);
        // Jitter CPU demands ±25% around the template.
        let steps: Vec<canal_mesh::path::Step> = template
            .iter()
            .map(|s| canal_mesh::path::Step {
                stage: s.stage,
                cpu: s.cpu.scale(rng.uniform(0.75, 1.25)),
                latency: s.latency,
            })
            .collect();
        requests.push((arrival, steps));
    }
    let completions = exec.run_many(&requests);
    let latencies: Vec<f64> = requests
        .iter()
        .zip(&completions)
        .map(|((arrival, _), done)| done.since(*arrival).as_millis_f64())
        .collect();
    // Drop warmup (first 10%).
    let skip = latencies.len() / 10;
    let steady = &latencies[skip..];
    LoadPoint {
        rps,
        mean_ms: stats::mean(steady),
        p99_ms: stats::percentile(steady, 0.99),
    }
}

/// Find the knee: the highest RPS (on a geometric ladder up to `max_rps`)
/// whose P99 stays below `p99_limit_ms`. Returns (knee_rps, curve).
pub fn find_knee(
    arch: &dyn MeshArchitecture,
    ctx: &RequestCtx,
    max_rps: f64,
    p99_limit_ms: f64,
    rng: &mut SimRng,
) -> (f64, Vec<LoadPoint>) {
    let mut curve = Vec::new();
    let mut knee = 0.0f64;
    // Cover ~2.5 decades below max_rps so every architecture's knee falls
    // inside the ladder.
    let ladder: Vec<f64> = (0..36)
        .map(|i| max_rps * (1.18f64).powi(i - 35))
        .collect();
    for rps in ladder {
        // Simulate enough requests for a stable P99, bounded for speed.
        let duration = (20_000.0 / rps).clamp(0.5, 30.0);
        let point = measure_at_load(arch, ctx, rps, duration, rng);
        if point.p99_ms <= p99_limit_ms {
            knee = knee.max(point.rps);
        }
        curve.push(point);
    }
    (knee, curve)
}
