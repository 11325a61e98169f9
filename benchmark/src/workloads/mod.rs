//! The five workloads. Each has an untraced run (end-to-end metrics) and a
//! traced run (per-layer metrics).
//!
//! An untraced run is split into segments, each with a set-up of its own
//! followed by its share of the measuring: the set-ups (`setup_s` is their
//! median) are then spread over the whole run, like the measurements.

pub mod datapath;
pub mod rollout;
pub mod sim;

use crate::stats;
use std::time::Instant;

/// How much work a run does: measure for a wall-clock duration, or do a
/// fixed amount so that counts repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Seconds(f64),
    /// Requests / packets, replications, or rollouts, by workload.
    Ops(u64),
}

impl Budget {
    /// The share of this budget that segment `index` of `segments` gets.
    pub fn segment(self, segments: usize, index: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / segments as f64),
            Budget::Ops(n) => {
                let (each, extra) = (n / segments as u64, n % segments as u64);
                Budget::Ops(each + u64::from((index as u64) < extra))
            }
        }
    }
}

/// Times `build` and returns what it built with the seconds it took.
pub fn timed<S>(build: impl FnOnce() -> S) -> (S, f64) {
    let t = Instant::now();
    let state = build();
    (state, t.elapsed().as_secs_f64())
}

/// `setup_s` from the set-ups of a run's segments: the quiet end of them, like
/// every other time here (see [`stats::quiet_low`]). All of them go to stderr.
pub fn setup_seconds(setups: &[f64]) -> f64 {
    eprintln!("set-ups: {setups:.3?} s");
    stats::quiet_low(setups)
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
