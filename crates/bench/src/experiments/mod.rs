//! One module per experiment group; every public function regenerates one
//! paper table or figure (DESIGN.md §3 maps ids to modules).

pub mod ablations;
pub mod chaos;
pub mod cloud;
pub mod control;
pub mod costs;
pub mod drill;
pub mod failover;
pub mod handshake;
pub mod health;
pub mod micro;
pub mod motivation;
pub mod offload;
pub mod overload;
pub mod perf;
pub mod policy;
pub mod resource;
pub mod rollout;
pub mod southbound;
pub mod trace;
