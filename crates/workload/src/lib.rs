//! # canal-workload
//!
//! Traffic and service-time generators for the experiments:
//!
//! * [`rps`] — request-rate processes: constant (wrk-style closed loops),
//!   diurnal sinusoids with controllable phase (the §6.3 in-phase
//!   scenarios), ramps (§6.2 Case #2), spikes and flash crowds (hotspot
//!   events, §6.2 Case #3). Arrivals are drawn as a non-homogeneous Poisson
//!   process by thinning.
//! * [`servicetime`] — the production app latency distribution of Fig. 24
//!   (bimodal: 40–50 ms and 100–200 ms humps).
//! * [`attack`] — abnormal-traffic generators: session floods without RPS
//!   growth (the §6.2 Case #1 signature) and query-of-death demand
//!   inflation.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod attack;
pub mod rps;
pub mod servicetime;

