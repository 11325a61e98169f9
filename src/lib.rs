//! Facade crate for the Canal Mesh workspace: re-exports every subsystem
//! crate under one name, so the examples and the integration tests reach
//! the whole mesh through `canal::…`. See README.md for the architecture
//! overview.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use canal_cluster as cluster;
pub use canal_control as control;
pub use canal_crypto as crypto;
pub use canal_gateway as gateway;
pub use canal_http as http;
pub use canal_mesh as mesh;
pub use canal_net as net;
pub use canal_policy as policy;
pub use canal_sim as sim;
pub use canal_workload as workload;
