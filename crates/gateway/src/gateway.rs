//! The assembled mesh gateway.
//!
//! Glues the pieces together the way Fig. 6/Fig. 8 describe: services are
//! shuffle-sharded onto backends across AZs; each backend is a group of
//! replica VMs with bounded session tables; per-service bucket tables keep
//! session consistency; a sandbox handles exceptions; per-window water
//! levels and top-service RPS feed the control plane (the monitor names the
//! hot service, precise scaling extends it — `canal-control`).
//!
//! The per-request path ([`Gateway::handle_request_avoiding`]) hashes the
//! five-tuple once ([`FlowHash`]) and does one hashed probe for the
//! service's slot, which holds everything that request needs about the
//! service (placed backends, their bucket tables, their window counters);
//! backends and replicas are vectors indexed by id. DESIGN.md §16 has the
//! argument for why digests do not see any of that.

use crate::failure::{BackendKey, FailureDomain, PlacementView};
use crate::redirector::BucketTable;
use crate::sandbox::Sandbox;
use crate::sharding::ShuffleShardPlanner;
use canal_net::{
    AzId, FiveTuple, FlatKey, FlatTable, FlowHash, GlobalServiceId, SessionTable,
};
use canal_sim::{CpuServer, Fold, SimDuration, SimRng, SimTime};
use std::num::NonZeroUsize;

/// Identifier of a gateway backend.
pub type BackendId = BackendKey;

/// Gateway deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Availability zones.
    pub azs: usize,
    /// Initial backends per AZ.
    pub backends_per_az: usize,
    /// Replica VMs per backend.
    pub replicas_per_backend: usize,
    /// Cores per replica VM.
    pub cores_per_replica: usize,
    /// Backends a service is placed on per AZ (shuffle-shard size).
    pub shard_size: usize,
    /// Session-table budget per replica (SmartNIC memory).
    pub sessions_per_replica: usize,
    /// Session idle timeout.
    pub session_idle_timeout: SimDuration,
    /// Buckets per per-service bucket table.
    pub buckets: usize,
    /// Max replica-chain length (paper: > 2).
    pub max_chain: usize,
    /// Gateway CPU demand per request (request+response passes).
    pub cpu_per_request: SimDuration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            azs: 2,
            backends_per_az: 4,
            replicas_per_backend: 3,
            cores_per_replica: 4,
            shard_size: 2,
            sessions_per_replica: 100_000,
            session_idle_timeout: SimDuration::from_secs(300),
            buckets: 1024,
            max_chain: 4,
            cpu_per_request: SimDuration::from_micros(34),
        }
    }
}

/// Why a request failed at the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// Service unknown to the gateway.
    UnknownService,
    /// No available backend (all failed).
    Unavailable,
    /// Dropped by a redirector-level throttle.
    Throttled,
    /// Replica session table full.
    SessionsExhausted,
    /// Dropped by the overload layer (queue caps or CoDel shedding).
    OverloadShed,
    /// A retry/hedge rejected because the client's retry budget is dry.
    /// Terminal: retrying a budget rejection is exactly what it forbids.
    RetryBudgetExhausted,
}

/// Successful dispatch summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayServed {
    /// Backend that served the request.
    pub backend: BackendId,
    /// Replica within that backend.
    pub replica: usize,
    /// When the gateway finished processing.
    pub finish: SimTime,
    /// Chain-redirect hops taken.
    pub redirect_hops: usize,
}

struct ReplicaState {
    cpu: CpuServer,
    sessions: SessionTable,
}

/// One deployed backend: its replica VMs and its redirector's counters.
struct Backend {
    az: AzId,
    /// Indexed by replica number.
    replicas: Vec<ReplicaState>,
    /// Packets this backend's redirector dispatched.
    dispatches: u64,
    /// Dispatches that took at least one chain hop (the paper's claim that
    /// "the redirection frequency is low" is checked against these).
    redirected: u64,
}

/// One service on one of the backends it is placed on.
struct Placement {
    backend: BackendId,
    /// The service's bucket table in that backend's redirector.
    table: BucketTable,
    /// Requests served there in the current monitoring window.
    window_requests: u64,
}

/// Everything the per-request path needs to know about one service,
/// behind one lookup.
struct ServiceSlot {
    /// In placement order (the order ECMP indexes the pool in), mirroring
    /// `PlacementView::backends_of`.
    placements: Vec<Placement>,
}

/// The mesh gateway.
pub struct Gateway {
    cfg: GatewayConfig,
    placement: PlacementView,
    planner: ShuffleShardPlanner,
    /// Indexed by [`BackendId`]; ids are handed out densely from 0.
    // lint:allow(bounded-state) reason=one entry per deployed backend; grown only by explicit scale operations
    backends: Vec<Backend>,
    /// One slot per service ever registered or extended here.
    // lint:allow(bounded-state) reason=one slot per service ever registered; registration is a control-plane setup operation, not a data-path event
    services: FlatTable<GlobalServiceId, ServiceSlot>,
    /// The bucket table every placement starts from (all replicas of a
    /// backend, no scale event yet). Installed tables are clones of it and
    /// share its array until their own chains change.
    fresh_table: BucketTable,
    /// The sandbox/throttle machinery.
    pub sandbox: Sandbox,
    errors: u64,
    served: u64,
}

/// The leading run of `sorted` (ascending by backend) that belongs to
/// `backend`; `sorted` is advanced past it.
fn take_backend<'a, T>(
    sorted: &mut &'a [(BackendId, GlobalServiceId, T)],
    backend: BackendId,
) -> &'a [(BackendId, GlobalServiceId, T)] {
    let n = sorted.iter().take_while(|(b, _, _)| *b == backend).count();
    let (here, rest) = sorted.split_at(n);
    *sorted = rest;
    here
}

/// One backend's water-level report for the control plane.
#[derive(Debug, Clone)]
pub struct WaterLevel {
    /// Which backend.
    pub backend: BackendId,
    /// CPU utilization over the window.
    pub utilization: f64,
    /// Session occupancy (max over replicas).
    pub session_occupancy: f64,
    /// Per-service request counts over the window, descending.
    pub top_services: Vec<(GlobalServiceId, u64)>,
}

impl Gateway {
    /// Build a gateway with `cfg`, creating the initial backend pool.
    pub fn new(cfg: GatewayConfig) -> Self {
        let total = cfg.azs * cfg.backends_per_az;
        let replicas: Vec<usize> = (0..cfg.replicas_per_backend).collect();
        let mut gw = Gateway {
            cfg,
            placement: PlacementView::new(),
            planner: ShuffleShardPlanner::new(total, cfg.shard_size, cfg.shard_size - 1),
            backends: Vec::new(),
            services: FlatTable::new(),
            fresh_table: BucketTable::new(cfg.buckets, &replicas, cfg.max_chain),
            sandbox: Sandbox::new(),
            errors: 0,
            served: 0,
        };
        for az in 0..cfg.azs {
            for _ in 0..cfg.backends_per_az {
                gw.create_backend(AzId(az as u32));
            }
        }
        gw
    }

    /// The configuration.
    pub fn config(&self) -> GatewayConfig {
        self.cfg
    }

    /// Placement and failure state (for DNS/availability integration).
    pub fn placement(&self) -> &PlacementView {
        &self.placement
    }

    /// Mutable failure injection. Errors if the domain is outside the
    /// registered topology, so fault plans cannot silently drift.
    pub fn fail(&mut self, domain: FailureDomain) -> Result<(), crate::failure::UnknownDomain> {
        self.placement.fail(domain)
    }

    /// Recovery. Errors if the domain is outside the registered topology.
    pub fn recover(&mut self, domain: FailureDomain) -> Result<(), crate::failure::UnknownDomain> {
        self.placement.recover(domain)
    }

    fn create_backend(&mut self, az: AzId) -> BackendId {
        let id = self.backends.len() as BackendId;
        self.placement
            .add_backend(id, az, self.cfg.replicas_per_backend);
        let replicas = (0..self.cfg.replicas_per_backend)
            .map(|_| ReplicaState {
                cpu: CpuServer::new(self.cfg.cores_per_replica),
                sessions: SessionTable::new(
                    self.cfg.sessions_per_replica,
                    self.cfg.session_idle_timeout,
                ),
            })
            .collect();
        self.backends.push(Backend {
            az,
            replicas,
            dispatches: 0,
            redirected: 0,
        });
        id
    }

    /// Place `service` on `backend` and install (or replace) its bucket
    /// table there.
    fn install(&mut self, service: GlobalServiceId, backend: BackendId) {
        self.placement.place(service, backend);
        let table = self.fresh_table.clone();
        let hash = service.flat_hash();
        if !self.services.contains(hash, &service) {
            self.services
                .insert_new(hash, service, ServiceSlot { placements: Vec::new() });
        }
        let Some(slot) = self.services.get_mut(hash, &service) else {
            return;
        };
        match slot.placements.iter_mut().find(|p| p.backend == backend) {
            Some(p) => p.table = table,
            None => slot.placements.push(Placement {
                backend,
                table,
                window_requests: 0,
            }),
        }
    }

    /// The `New` scaling operation: spawn a fresh backend in `az` and grow
    /// the shard pool. (Its multi-minute wall-clock cost is modeled by the
    /// control plane, which schedules the completion event.)
    pub fn scale_new_backend(&mut self, az: AzId) -> BackendId {
        self.planner.grow_pool(1);
        self.create_backend(az)
    }

    /// Register a tenant service: shuffle-shard it onto backends in each AZ
    /// and install its bucket tables.
    pub fn register_service(&mut self, service: GlobalServiceId, rng: &mut SimRng) -> Vec<BackendId> {
        let combo = self.planner.assign(service, rng);
        let backends: Vec<BackendId> = combo.iter().map(|&b| b as BackendId).collect();
        for &b in &backends {
            self.install(service, b);
        }
        backends
    }

    /// The `Reuse` scaling operation: extend a service onto an existing
    /// low-water backend. Returns false, and changes nothing, if already
    /// placed there or if this gateway never created `backend`.
    pub fn extend_service(&mut self, service: GlobalServiceId, backend: BackendId) -> bool {
        let created = (backend as usize) < self.backends.len();
        if !created || self.placement.backends_of(service).contains(&backend) {
            return false;
        }
        // The planner tracks only the services it assigned: a service placed
        // by hand, which it refuses, is extended in the placement alone.
        self.planner.extend(service, backend as usize);
        self.install(service, backend);
        true
    }

    /// Backends of a service.
    pub fn backends_of(&self, service: GlobalServiceId) -> Vec<BackendId> {
        self.placement.backends_of(service).to_vec()
    }

    /// All backends with their AZ.
    pub fn backends(&self) -> Vec<(BackendId, AzId)> {
        self.backend_ids().zip(self.backends.iter().map(|be| be.az)).collect()
    }

    fn backend_ids(&self) -> impl Iterator<Item = BackendId> {
        0..self.backends.len() as BackendId
    }

    /// Handle one request at the gateway: throttle check → backend choice
    /// (ECMP over the service's available backends) → bucket-table dispatch
    /// → session + CPU accounting.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
    ) -> Result<GatewayServed, GatewayError> {
        self.handle_request_avoiding(now, service, tuple, syn, &[])
    }

    /// [`Gateway::handle_request`] with a retry steer: backends listed in
    /// `avoid` (ejected by an outlier detector, or already tried this
    /// request) are skipped *as a preference* — if avoiding them would
    /// leave no backend at all, the gateway degrades gracefully and falls
    /// back to the full available set (fail-open) rather than rejecting a
    /// servable request.
    pub fn handle_request_avoiding(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
        avoid: &[BackendId],
    ) -> Result<GatewayServed, GatewayError> {
        let outcome = self.dispatch(now, service, tuple, syn, avoid);
        match outcome {
            Ok(_) => self.served += 1,
            Err(_) => self.errors += 1,
        }
        outcome
    }

    fn dispatch(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
        avoid: &[BackendId],
    ) -> Result<GatewayServed, GatewayError> {
        if !self.sandbox.admit(now, service) {
            return Err(GatewayError::Throttled);
        }
        let slot = self
            .services
            .get_mut(service.flat_hash(), &service)
            .ok_or(GatewayError::UnknownService)?;

        // ECMP over the service's available backends, preferring those not
        // in `avoid`; the pool is counted and indexed in place.
        let placement = &self.placement;
        let usable = |p: &Placement, steer: bool| {
            placement.backend_available(p.backend) && !(steer && avoid.contains(&p.backend))
        };
        let count = |steer: bool| slot.placements.iter().filter(|p| usable(p, steer)).count();
        let available = NonZeroUsize::new(count(false)).ok_or(GatewayError::Unavailable)?;
        let preferred = if avoid.is_empty() { None } else { NonZeroUsize::new(count(true)) };
        let (pool, steer) = match preferred {
            Some(n) => (n, true),
            None => (available, false),
        };
        let hash = FlowHash::of(tuple);
        let placed = slot
            .placements
            .iter_mut()
            .filter(|p| usable(p, steer))
            .nth(hash.select(pool))
            .ok_or(GatewayError::Unavailable)?;
        let backend = placed.backend;
        let be = self
            .backends
            .get_mut(backend as usize)
            .ok_or(GatewayError::Unavailable)?;

        // Bucket-table dispatch with the replica session tables as the
        // flow-state oracle.
        let replicas = &be.replicas;
        let decision = placed.table.dispatch_hashed(hash, syn, |r| {
            replicas
                .get(r)
                .is_some_and(|st| st.sessions.contains_hashed(hash, tuple))
        });
        be.dispatches += 1;
        if decision.redirect_hops > 0 {
            be.redirected += 1;
        }

        // If the chain head is dead, fall over to any live replica (the
        // short disruption + reconstruction of §4.2).
        let replica = placement
            .serving_replica(backend, decision.replica)
            .ok_or(GatewayError::Unavailable)?;
        let state = be
            .replicas
            .get_mut(replica)
            .ok_or(GatewayError::Unavailable)?;
        state
            .sessions
            .touch_or_establish(hash, *tuple, now)
            .map_err(|_| GatewayError::SessionsExhausted)?;
        let served = state.cpu.submit(now, self.cfg.cpu_per_request);

        placed.window_requests += 1;
        Ok(GatewayServed {
            backend,
            replica,
            finish: served.finish,
            redirect_hops: decision.redirect_hops,
        })
    }

    /// Read and reset the monitoring window: per-backend water levels with
    /// top services (the control plane's §4.3 input).
    pub fn water_levels(&mut self, now: SimTime) -> Vec<WaterLevel> {
        let counted: Vec<(BackendId, GlobalServiceId, u64)> = self
            .placements_by_backend()
            .into_iter()
            .filter(|(_, _, p)| p.window_requests > 0)
            .map(|(b, s, p)| (b, s, p.window_requests))
            .collect();
        let mut counted = counted.as_slice();
        let mut out = Vec::with_capacity(self.backends.len());
        for (backend, be) in self.backends.iter_mut().enumerate() {
            let backend = backend as BackendId;
            let mut util_sum = 0.0;
            let mut occupancy: f64 = 0.0;
            for st in &mut be.replicas {
                util_sum += st.cpu.window_utilization(now);
                occupancy = occupancy.max(st.sessions.occupancy());
            }
            let utilization = if be.replicas.is_empty() {
                0.0
            } else {
                util_sum / be.replicas.len() as f64
            };
            let mut top: Vec<(GlobalServiceId, u64)> = take_backend(&mut counted, backend)
                .iter()
                .map(|&(_, s, n)| (s, n))
                .collect();
            top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            top.truncate(10);
            out.push(WaterLevel {
                backend,
                utilization,
                session_occupancy: occupancy,
                top_services: top,
            });
        }
        for (_, slot) in self.services.iter_mut() {
            for p in &mut slot.placements {
                p.window_requests = 0;
            }
        }
        out
    }

    /// Every (backend, service) placement, ascending by backend then
    /// service: the order the per-backend redirector maps and the window
    /// map iterated in when they were ordered maps, which digests and the
    /// stable top-services sort still see.
    fn placements_by_backend(&self) -> Vec<(BackendId, GlobalServiceId, &Placement)> {
        let mut all: Vec<(BackendId, GlobalServiceId, &Placement)> = self
            .services
            .iter()
            .flat_map(|(&s, slot)| slot.placements.iter().map(move |p| (p.backend, s, p)))
            .collect();
        all.sort_unstable_by_key(|&(b, s, _)| (b, s));
        all
    }

    /// Session count currently live on a backend.
    pub fn backend_sessions(&self, backend: BackendId) -> usize {
        self.backends
            .get(backend as usize)
            .map_or(0, |be| be.replicas.iter().map(|st| st.sessions.len()).sum())
    }

    /// Lifetime counters `(served, errors)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.served, self.errors)
    }

    /// One step of a rolling version upgrade (the Fig. 20 nightly
    /// operation): take a single replica of a single backend out, "upgrade"
    /// it, and bring it back. With `replicas_per_backend > 1` every backend
    /// keeps serving throughout. Returns the `(backend, replica)` pairs in
    /// the full rolling order so the caller can pace them (the paper's
    /// region-wide upgrade takes ~4 hours).
    pub fn rolling_upgrade_order(&self) -> Vec<(BackendId, usize)> {
        let mut order = Vec::new();
        for r in 0..self.cfg.replicas_per_backend {
            for b in self.backend_ids() {
                order.push((b, r));
            }
        }
        order
    }

    /// Fold the whole gateway into a digest, delegating to every
    /// subsystem: `placement`, `planner`, per-replica state and
    /// per-redirector tables and counters of `backends`, the `sandbox`, the
    /// backend AZs and count, the window counters of `services`, and
    /// `errors`/`served`. Tables and counters that live in service slots
    /// are emitted per backend in ascending service order, so the sequence
    /// is independent of the slot layout.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            placement, planner, backends, sandbox, errors, served,
            cfg: _, // config: fixed at construction
            services: _, // folded through `placements_by_backend`, in (backend, service) order
            fresh_table: _, // config: the table every placement starts from, built from `cfg`
        } = self;
        f.scope("placement", |f| placement.fold(f));
        f.scope("planner", |f| planner.fold(f));
        f.write_u64(backends.iter().map(|be| be.replicas.len() as u64).sum());
        for (b, be) in self.backend_ids().zip(backends) {
            for (r, st) in be.replicas.iter().enumerate() {
                f.write_u64(b as u64).write_u64(r as u64);
                f.scope("cpu", |f| st.cpu.fold(f));
                f.write_u64(st.sessions.len() as u64);
            }
        }
        let placed = self.placements_by_backend();
        let mut rest = placed.as_slice();
        f.write_u64(backends.len() as u64);
        for (b, be) in self.backend_ids().zip(backends) {
            let here = take_backend(&mut rest, b);
            f.write_u64(b as u64).write_u64(here.len() as u64);
            for (_, svc, p) in here {
                f.write_u64(svc.0);
                p.table.fold(f);
            }
            f.count("dispatches", be.dispatches).count("redirected", be.redirected);
        }
        f.scope("sandbox", |f| sandbox.fold(f));
        f.write_u64(backends.len() as u64);
        for (b, be) in self.backend_ids().zip(backends) {
            f.write_u64(b as u64).write_u64(be.az.0 as u64);
        }
        f.write_u64(backends.len() as u64);
        let counted = placed.iter().filter(|(_, _, p)| p.window_requests > 0);
        f.write_u64(counted.clone().count() as u64);
        for (b, s, p) in counted {
            f.write_u64(*b as u64).write_u64(s.0).write_u64(p.window_requests);
        }
        f.count("errors", *errors).count("served", *served);
    }

    /// Execute one upgrade step: fail the replica, migrate its sessions'
    /// ownership implicitly (flows re-establish on siblings via the
    /// redirector), then recover it. Returns whether every service placed
    /// on the backend stayed available during the step.
    pub fn rolling_upgrade_step(&mut self, backend: BackendId, replica: usize) -> bool {
        if self
            .placement
            .fail(crate::failure::FailureDomain::Replica(backend, replica))
            .is_err()
        {
            return false;
        }
        let still_up = self.placement.backend_available(backend);
        // Upgrade happens here (image swap); then the replica rejoins with
        // a cleared session table.
        let upgraded = self
            .backends
            .get_mut(backend as usize)
            .and_then(|be| be.replicas.get_mut(replica));
        if let Some(st) = upgraded {
            st.sessions.expire_idle(SimTime::MAX - SimDuration::from_secs(1));
        }
        let recovered = self
            .placement
            .recover(crate::failure::FailureDomain::Replica(backend, replica))
            .is_ok();
        still_up && recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{Endpoint, ServiceId, TenantId, VpcAddr, VpcId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 2, 2), 443),
        )
    }

    const T: fn(u64) -> SimTime = SimTime::from_millis;

    fn gateway_with_service() -> (Gateway, GlobalServiceId) {
        let mut gw = Gateway::new(GatewayConfig::default());
        let mut rng = SimRng::seed(42);
        let s = svc(1);
        gw.register_service(s, &mut rng);
        (gw, s)
    }

    #[test]
    fn registration_places_on_shard_size_backends() {
        let (gw, s) = gateway_with_service();
        let backends = gw.backends_of(s);
        assert_eq!(backends.len(), gw.config().shard_size);
    }

    #[test]
    fn requests_flow_and_sessions_stick() {
        let (mut gw, s) = gateway_with_service();
        let t1 = tuple(1000);
        let first = gw.handle_request(T(0), s, &t1, true).unwrap();
        // Subsequent packets of the same flow land on the same replica.
        for i in 1..10u64 {
            let again = gw.handle_request(T(i), s, &t1, false).unwrap();
            assert_eq!(again.backend, first.backend);
            assert_eq!(again.replica, first.replica);
        }
        let (served, errors) = gw.stats();
        assert_eq!((served, errors), (10, 0));
    }

    #[test]
    fn unknown_service_rejected() {
        let (mut gw, _) = gateway_with_service();
        assert_eq!(
            gw.handle_request(T(0), svc(99), &tuple(1), true),
            Err(GatewayError::UnknownService)
        );
    }

    #[test]
    fn failure_of_all_service_backends_is_unavailable_but_isolated() {
        let (mut gw, s) = gateway_with_service();
        let mut rng = SimRng::seed(43);
        let other = svc(2);
        gw.register_service(other, &mut rng);
        for b in gw.backends_of(s) {
            gw.fail(FailureDomain::Backend(b)).unwrap();
        }
        assert_eq!(
            gw.handle_request(T(0), s, &tuple(1), true),
            Err(GatewayError::Unavailable)
        );
        // Shuffle sharding: the other service still has at least one
        // backend (combinations differ).
        let other_ok = gw
            .backends_of(other)
            .iter()
            .any(|&b| gw.placement().backend_available(b));
        assert!(other_ok);
    }

    #[test]
    fn replica_failure_falls_over_within_backend() {
        let (mut gw, s) = gateway_with_service();
        let t1 = tuple(7);
        let first = gw.handle_request(T(0), s, &t1, true).unwrap();
        gw.fail(FailureDomain::Replica(first.backend, first.replica)).unwrap();
        // The flow's replica died: the session breaks briefly and is
        // reconstructed on another live replica of the same backend.
        let again = gw.handle_request(T(1), s, &t1, false).unwrap();
        assert_eq!(again.backend, first.backend);
        assert_ne!(again.replica, first.replica);
    }

    #[test]
    fn throttled_service_drops_excess() {
        let (mut gw, s) = gateway_with_service();
        gw.sandbox.throttle(s, 1.0, 1.0);
        assert!(gw.handle_request(T(0), s, &tuple(1), true).is_ok());
        assert_eq!(
            gw.handle_request(T(1), s, &tuple(2), true),
            Err(GatewayError::Throttled)
        );
    }

    #[test]
    fn water_levels_identify_top_service() {
        let (mut gw, s) = gateway_with_service();
        let mut rng = SimRng::seed(44);
        let quiet = svc(3);
        gw.register_service(quiet, &mut rng);
        for i in 0..200u16 {
            gw.handle_request(T(i as u64), s, &tuple(1000 + i), true).unwrap();
        }
        gw.handle_request(T(300), quiet, &tuple(5), true).unwrap();
        let levels = gw.water_levels(T(1000));
        let hot = levels
            .iter()
            .filter(|w| !w.top_services.is_empty())
            .max_by_key(|w| w.top_services[0].1)
            .unwrap();
        assert_eq!(hot.top_services[0].0, s);
        // Window resets after reading.
        let levels2 = gw.water_levels(T(2000));
        assert!(levels2.iter().all(|w| w.top_services.is_empty()));
    }

    #[test]
    fn session_exhaustion_surfaces() {
        let cfg = GatewayConfig {
            sessions_per_replica: 4,
            azs: 1,
            backends_per_az: 1,
            shard_size: 1,
            replicas_per_backend: 1,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(cfg);
        let mut rng = SimRng::seed(45);
        let s = svc(1);
        gw.register_service(s, &mut rng);
        let mut full = 0;
        for i in 0..10u16 {
            if gw.handle_request(T(0), s, &tuple(100 + i), true)
                == Err(GatewayError::SessionsExhausted)
            {
                full += 1;
            }
        }
        assert_eq!(full, 6, "4 admitted, 6 rejected");
    }

    #[test]
    fn rolling_upgrade_never_loses_availability() {
        let (mut gw, s) = gateway_with_service();
        let order = gw.rolling_upgrade_order();
        // 8 backends × 3 replicas by default.
        assert_eq!(order.len(), 8 * 3);
        for (i, (b, r)) in order.into_iter().enumerate() {
            assert!(gw.rolling_upgrade_step(b, r), "step {i} lost a backend");
            // The service keeps serving mid-upgrade.
            let t = tuple(30_000 + i as u16);
            assert!(gw.handle_request(T(i as u64 * 10), s, &t, true).is_ok());
        }
        let (_, errors) = gw.stats();
        assert_eq!(errors, 0);
    }

    #[test]
    fn single_replica_backends_do_blip_during_upgrade() {
        // The inverse guarantee: with one replica per backend, an upgrade
        // step takes the whole backend down — which is why the gateway
        // deploys replicated backends.
        let cfg = GatewayConfig {
            replicas_per_backend: 1,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(cfg);
        let mut rng = SimRng::seed(50);
        gw.register_service(svc(1), &mut rng);
        let (b, r) = gw.rolling_upgrade_order()[0];
        assert!(!gw.rolling_upgrade_step(b, r));
    }

    #[test]
    fn extend_service_refuses_a_backend_never_created() {
        let (mut gw, s) = gateway_with_service();
        let placed = gw.backends_of(s);
        let unknown = gw.backends().len() as BackendId;
        assert!(!gw.extend_service(s, unknown));
        assert_eq!(gw.backends_of(s), placed, "nothing installed");
        // A service the planner never assigned extends onto a real backend.
        let by_hand = svc(2);
        assert!(!gw.extend_service(by_hand, unknown));
        assert!(gw.backends_of(by_hand).is_empty());
        assert!(gw.extend_service(by_hand, 0));
        assert_eq!(gw.backends_of(by_hand), [0]);
    }

    #[test]
    fn scale_new_backend_then_extend_service() {
        let (mut gw, s) = gateway_with_service();
        let before = gw.backends_of(s).len();
        let nb = gw.scale_new_backend(canal_net::AzId(0));
        assert!(gw.extend_service(s, nb));
        assert!(!gw.extend_service(s, nb), "idempotent");
        assert_eq!(gw.backends_of(s).len(), before + 1);
        // New backend serves traffic for the service.
        let mut landed = false;
        for i in 0..200u16 {
            let r = gw.handle_request(T(i as u64), s, &tuple(2000 + i), true).unwrap();
            landed |= r.backend == nb;
        }
        assert!(landed, "extended backend never selected");
    }
}
