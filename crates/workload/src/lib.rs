//! # canal-workload
//!
//! Traffic and service-time generators for the experiments:
//!
//! * [`rps`] — request-rate processes: diurnal sinusoids with a peak
//!   offset (the daily curves of Figs. 5 and 20) and flash crowds (hotspot
//!   events, §6.2 Case #3).
//! * [`servicetime`] — the production app latency distribution of Fig. 24
//!   (bimodal: 40–50 ms and 100–200 ms humps).
//! * [`attack`] — abnormal-traffic generators: session floods without RPS
//!   growth (the §6.2 Case #1 signature) and query-of-death demand
//!   inflation.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod attack;
pub mod rps;
pub mod servicetime;

