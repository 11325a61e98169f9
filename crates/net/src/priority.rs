//! Request priority classes.
//!
//! Canal's shared gateway serves every tenant on one replica, so overload
//! control needs to know which traffic is latency-sensitive before it picks
//! what to delay. The class is request metadata: the on-node proxy stamps it
//! (from the service's traffic profile), `canal-mesh` carries it through the
//! step plan, and the gateway's fair scheduler gives interactive traffic a
//! larger deficit weight than bulk.
//!
//! Two classes are deliberate — the overload paper lineage (CoDel, WFQ
//! deployments) shows a small number of well-separated classes is what
//! operators can actually reason about under incident pressure.

/// Scheduling class carried as request metadata through the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive request/response traffic (RPC, user-facing).
    /// The default: unmarked traffic must not be accidentally deprioritized.
    #[default]
    Interactive,
    /// Throughput-oriented traffic (batch, replication, bulk transfer) that
    /// tolerates queueing and is first to be delayed under overload.
    Bulk,
}

impl Priority {
    /// Both classes, interactive first.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Bulk];

    /// Stable low bit used when packing the class into a scheduler
    /// [`ClassId`](u64) alongside a tenant id.
    pub fn bit(self) -> u64 {
        match self {
            Priority::Interactive => 0,
            Priority::Bulk => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_interactive() {
        assert_eq!(Priority::default(), Priority::Interactive);
    }

    #[test]
    fn bits_are_distinct_and_stable() {
        assert_eq!(Priority::Interactive.bit(), 0);
        assert_eq!(Priority::Bulk.bit(), 1);
        assert_eq!(Priority::ALL.len(), 2);
    }
}
