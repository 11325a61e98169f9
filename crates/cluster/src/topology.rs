//! Cluster topology: tenants, nodes, pods, services and lifecycle.
//!
//! [`ClusterSpec`] captures the population shape (node/pod/service counts);
//! [`Cluster::generate`] lays pods out over nodes round-robin (K8s
//! spreading) and assigns them to services with the production ratios the
//! paper reports (§2.2: pods:services ≈ 2:1, pods:nodes ≈ 15:1 — both
//! overridable). Lifecycle operations mutate the topology and return what
//! changed, so the control-plane can account configuration pushes.

use canal_net::{AzId, NodeId, PodId, ServiceId, TenantId, VpcAddr, VpcId};
use canal_sim::SimRng;
use std::collections::BTreeMap;

/// A cloud tenant and its mesh feature adoption (Table 3 population model).
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant id.
    pub id: TenantId,
    /// The tenant's VPC.
    pub vpc: VpcId,
    /// Whether the tenant configures L7 rules at all (80–95% do).
    pub uses_l7: bool,
    /// Whether they use L7 routing policies (72–95%).
    pub uses_l7_routing: bool,
    /// Whether they use L7 security/authorization (27–53%).
    pub uses_l7_security: bool,
}

/// One pod: a service replica bound to a node.
#[derive(Debug, Clone)]
pub struct Pod {
    /// Pod id (cluster-unique).
    pub id: PodId,
    /// Hosting node.
    pub node: NodeId,
    /// Owning service.
    pub service: ServiceId,
    /// Pod IP within the tenant VPC.
    pub ip: VpcAddr,
    /// Serving port.
    pub port: u16,
}

/// One service: a named set of pods.
#[derive(Debug, Clone)]
pub struct Service {
    /// Service id (per-tenant).
    pub id: ServiceId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Service port.
    pub port: u16,
    /// Member pods.
    pub pods: Vec<PodId>,
}

/// A worker node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The AZ hosting this node.
    pub az: AzId,
    /// Pods scheduled here.
    pub pods: Vec<PodId>,
}

/// Population shape for cluster generation.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Number of pods.
    pub pods: usize,
    /// Number of services (pods are spread over these).
    pub services: usize,
    /// AZs to spread nodes across.
    pub azs: usize,
}

impl ClusterSpec {
    /// Production-shaped spec derived from a pod count using the paper's
    /// ratios: pods:nodes ≈ 15:1, pods:services ≈ 2:1.
    pub fn production_shape(pods: usize) -> Self {
        ClusterSpec {
            nodes: (pods / 15).max(1),
            pods,
            services: (pods / 2).max(1),
            azs: 2,
        }
    }

    /// The paper's small-scale testbed (§5.1): 2 worker nodes, 15 pods
    /// each, 3 services.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            nodes: 2,
            pods: 30,
            services: 3,
            azs: 1,
        }
    }
}

/// A tenant's cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Owning tenant.
    pub tenant: Tenant,
    /// Nodes by id.
    pub nodes: BTreeMap<NodeId, Node>,
    /// Pods by id.
    pub pods: BTreeMap<PodId, Pod>,
    /// Services by id.
    pub services: BTreeMap<ServiceId, Service>,
    next_pod: u32,
}

impl Cluster {
    /// Generate a cluster with the given shape. Pods are spread round-robin
    /// over nodes; services get contiguous pod blocks of roughly equal size.
    pub fn generate(tenant: Tenant, spec: ClusterSpec, rng: &mut SimRng) -> Self {
        assert!(spec.nodes > 0 && spec.pods > 0 && spec.services > 0 && spec.azs > 0);
        let mut nodes = BTreeMap::new();
        for n in 0..spec.nodes {
            let id = NodeId(n as u32);
            nodes.insert(
                id,
                Node {
                    id,
                    az: AzId((n % spec.azs) as u32),
                    pods: Vec::new(),
                },
            );
        }
        let mut services = BTreeMap::new();
        for s in 0..spec.services {
            let id = ServiceId(s as u32);
            services.insert(
                id,
                Service {
                    id,
                    tenant: tenant.id,
                    port: 8000 + s as u16,
                    pods: Vec::new(),
                },
            );
        }
        let mut cluster = Cluster {
            tenant,
            nodes,
            pods: BTreeMap::new(),
            services,
            next_pod: 0,
        };
        for p in 0..spec.pods {
            let service = ServiceId((p % spec.services) as u32);
            let node = NodeId((p % spec.nodes) as u32);
            cluster.add_pod(service, Some(node), rng);
        }
        cluster
    }

    fn fresh_ip(&mut self, rng: &mut SimRng) -> VpcAddr {
        // 10.x.y.z within the tenant VPC; uniqueness by pod counter with a
        // random middle octet so different tenants' layouts differ.
        let n = self.next_pod;
        VpcAddr::new(
            self.tenant.vpc,
            10,
            (rng.index(200) + 1) as u8,
            (n >> 8) as u8,
            (n & 0xFF) as u8,
        )
    }

    /// Schedule one new pod of `service`, on `node` if given, else on the
    /// least-loaded node. Returns the new pod id.
    #[allow(clippy::expect_used)] // see the lint:allow below — generate() guarantees nodes
    pub(crate) fn add_pod(&mut self, service: ServiceId, node: Option<NodeId>, rng: &mut SimRng) -> PodId {
        let node_id = node.unwrap_or_else(|| {
            *self
                .nodes
                .iter()
                .min_by_key(|(_, n)| n.pods.len())
                .map(|(id, _)| id)
                // lint:allow(panic) reason=Cluster::generate asserts spec.nodes > 0, so the node map is never empty
                .expect("cluster has nodes")
        });
        let ip = self.fresh_ip(rng);
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        let port = self.services[&service].port;
        self.pods.insert(
            id,
            Pod {
                id,
                node: node_id,
                service,
                ip,
                port,
            },
        );
        if let Some(n) = self.nodes.get_mut(&node_id) {
            n.pods.push(id);
        }
        if let Some(s) = self.services.get_mut(&service) {
            s.pods.push(id);
        }
        id
    }

    /// Remove a pod. Returns whether it existed.
    pub(crate) fn remove_pod(&mut self, pod: PodId) -> bool {
        let Some(p) = self.pods.remove(&pod) else {
            return false;
        };
        if let Some(n) = self.nodes.get_mut(&p.node) {
            n.pods.retain(|&x| x != pod);
        }
        if let Some(s) = self.services.get_mut(&p.service) {
            s.pods.retain(|&x| x != pod);
        }
        true
    }

    /// Scale a service to `replicas` pods (adding or removing as needed).
    /// Returns `(added, removed)` pod ids.
    pub fn scale_service(
        &mut self,
        service: ServiceId,
        replicas: usize,
        rng: &mut SimRng,
    ) -> (Vec<PodId>, Vec<PodId>) {
        let current = self.services[&service].pods.len();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        if replicas > current {
            for _ in current..replicas {
                added.push(self.add_pod(service, None, rng));
            }
        } else {
            for _ in replicas..current {
                let Some(&victim) = self.services[&service].pods.last() else {
                    break;
                };
                self.remove_pod(victim);
                removed.push(victim);
            }
        }
        (added, removed)
    }

    /// Pod count.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Service count.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Pods of a service.
    pub fn pods_of(&self, service: ServiceId) -> &[PodId] {
        &self.services[&service].pods
    }

    /// Pods hosted on a node.
    pub fn pods_on(&self, node: NodeId) -> &[PodId] {
        &self.nodes[&node].pods
    }
}

/// Generate the Table-3-shaped tenant population of a region: `n` tenants
/// with L7 adoption probabilities.
pub fn tenant_population(
    n: usize,
    p_l7: f64,
    p_routing: f64,
    p_security: f64,
    rng: &mut SimRng,
) -> Vec<Tenant> {
    (0..n)
        .map(|i| {
            let uses_l7 = rng.chance(p_l7);
            Tenant {
                id: TenantId(i as u32),
                vpc: VpcId(i as u32),
                uses_l7,
                // Routing/security imply L7 usage.
                uses_l7_routing: uses_l7 && rng.chance(p_routing / p_l7.max(1e-9)),
                uses_l7_security: uses_l7 && rng.chance(p_security / p_l7.max(1e-9)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(id: u32) -> Tenant {
        Tenant {
            id: TenantId(id),
            vpc: VpcId(id),
            uses_l7: true,
            uses_l7_routing: true,
            uses_l7_security: false,
        }
    }

    #[test]
    fn generate_respects_spec() {
        let mut rng = SimRng::seed(1);
        let spec = ClusterSpec {
            nodes: 10,
            pods: 150,
            services: 75,
            azs: 2,
        };
        let c = Cluster::generate(tenant(1), spec, &mut rng);
        assert_eq!(c.node_count(), 10);
        assert_eq!(c.pod_count(), 150);
        assert_eq!(c.service_count(), 75);
        // Round-robin spreading: 15 pods per node.
        for n in c.nodes.values() {
            assert_eq!(n.pods.len(), 15);
        }
        // 2 pods per service.
        for s in c.services.values() {
            assert_eq!(s.pods.len(), 2);
        }
        // Nodes alternate AZs.
        let az0 = c.nodes.values().filter(|n| n.az == AzId(0)).count();
        assert_eq!(az0, 5);
    }

    #[test]
    fn production_shape_ratios() {
        let spec = ClusterSpec::production_shape(15_000);
        assert_eq!(spec.nodes, 1000);
        assert_eq!(spec.services, 7500);
        let tb = ClusterSpec::paper_testbed();
        assert_eq!((tb.nodes, tb.pods, tb.services), (2, 30, 3));
    }

    #[test]
    fn pod_ips_unique_within_cluster() {
        let mut rng = SimRng::seed(2);
        let c = Cluster::generate(tenant(1), ClusterSpec::production_shape(600), &mut rng);
        let mut ips: Vec<_> = c.pods.values().map(|p| p.ip).collect();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), c.pod_count());
    }

    #[test]
    fn add_and_remove_pods_keep_indexes_consistent() {
        let mut rng = SimRng::seed(3);
        let mut c = Cluster::generate(tenant(1), ClusterSpec::paper_testbed(), &mut rng);
        let svc = ServiceId(0);
        let before = c.pods_of(svc).len();
        let new_pod = c.add_pod(svc, None, &mut rng);
        assert_eq!(c.pods_of(svc).len(), before + 1);
        let node = c.pods[&new_pod].node;
        assert!(c.pods_on(node).contains(&new_pod));
        assert!(c.remove_pod(new_pod));
        assert!(!c.remove_pod(new_pod));
        assert_eq!(c.pods_of(svc).len(), before);
        assert!(!c.pods_on(node).contains(&new_pod));
    }

    #[test]
    fn scale_service_both_directions() {
        let mut rng = SimRng::seed(4);
        let mut c = Cluster::generate(tenant(1), ClusterSpec::paper_testbed(), &mut rng);
        let svc = ServiceId(1);
        let (added, removed) = c.scale_service(svc, 20, &mut rng);
        assert_eq!(c.pods_of(svc).len(), 20);
        assert!(removed.is_empty());
        assert!(!added.is_empty());
        let (added2, removed2) = c.scale_service(svc, 5, &mut rng);
        assert_eq!(c.pods_of(svc).len(), 5);
        assert!(added2.is_empty());
        assert_eq!(removed2.len(), 15);
    }

    #[test]
    fn least_loaded_scheduling() {
        let mut rng = SimRng::seed(5);
        let mut c = Cluster::generate(tenant(1), ClusterSpec::paper_testbed(), &mut rng);
        // Empty node0 a bit by removing two pods from it.
        let victims: Vec<PodId> = c.pods_on(NodeId(0)).iter().take(2).copied().collect();
        for v in victims {
            c.remove_pod(v);
        }
        let p = c.add_pod(ServiceId(0), None, &mut rng);
        assert_eq!(c.pods[&p].node, NodeId(0));
    }

    #[test]
    fn population_probabilities_hold() {
        let mut rng = SimRng::seed(7);
        let pop = tenant_population(20_000, 0.9, 0.85, 0.3, &mut rng);
        let l7 = pop.iter().filter(|t| t.uses_l7).count() as f64 / pop.len() as f64;
        let routing = pop.iter().filter(|t| t.uses_l7_routing).count() as f64 / pop.len() as f64;
        let sec = pop.iter().filter(|t| t.uses_l7_security).count() as f64 / pop.len() as f64;
        assert!((l7 - 0.9).abs() < 0.02, "{l7}");
        assert!((routing - 0.85).abs() < 0.02, "{routing}");
        assert!((sec - 0.3).abs() < 0.02, "{sec}");
        // Implication: routing users are L7 users.
        assert!(pop.iter().all(|t| !t.uses_l7_routing || t.uses_l7));
    }
}
