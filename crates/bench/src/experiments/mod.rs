//! One module per experiment group; every public function regenerates one
//! paper table or figure (DESIGN.md §3 maps ids to modules).

pub(crate) mod ablations;
pub mod chaos;
pub(crate) mod cloud;
pub(crate) mod control;
pub(crate) mod costs;
pub mod drill;
pub mod failover;
pub(crate) mod handshake;
pub(crate) mod health;
pub(crate) mod micro;
pub(crate) mod motivation;
pub(crate) mod offload;
pub mod overload;
pub(crate) mod perf;
pub mod policy;
pub(crate) mod resource;
pub(crate) mod rollout;
pub(crate) mod southbound;
pub(crate) mod trace;
