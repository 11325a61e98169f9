//! Configuration building and pushing (§2.2, Figs. 4/14/15, Table 2).
//!
//! The paper's control-plane cost decomposition:
//!
//! * **Build** — CPU-bound; each target's config is assembled by the
//!   controller. A sidecar's config covers *all* pods (full-config push), so
//!   build cost is `targets × per-entry-cost × pods` — quadratic for Istio.
//! * **Push** — I/O-bound; southbound bytes = Σ per-target config size.
//!   Istio pushes O(N) bytes to each of N sidecars = O(N²); Ambient pushes
//!   node- and service-scoped configs; Canal pushes once to the gateway.
//! * **Completion** — pod creation additionally pays per-pod infra setup
//!   common to all architectures; the config component is what
//!   differentiates them (Fig. 14's 1.5–2.1× / 1.2–1.5×).

use canal_mesh::arch::{Architecture, ClusterShape};
use canal_sim::SimDuration;

/// Controller-side model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConfigCosts {
    /// Serialized bytes per config entry (one pod's routing+security rules).
    pub(crate) bytes_per_entry: usize,
    /// Fixed bytes per target (envelope, TLS, metadata).
    pub(crate) base_bytes_per_target: usize,
    /// Controller CPU per built entry.
    pub(crate) build_cpu_per_entry: SimDuration,
    /// Southbound bandwidth (bytes/s) available for pushing.
    pub(crate) southbound_bandwidth: f64,
    /// Per-target push round trip (connection + ack).
    pub(crate) per_target_push_rtt: SimDuration,
    /// Per-pod infra setup common to all architectures (scheduling, image,
    /// IP allocation) when creating pods.
    pub(crate) pod_setup: SimDuration,
    /// Parallelism of the pusher (concurrent target streams).
    pub(crate) push_fanout: usize,
    /// Waypoint deployments run replicated (Ambient defaults to 2).
    pub(crate) waypoint_replicas: usize,
    /// A waypoint's config is scoped to its service plus the services it
    /// talks to: `pods_per_service × dependency_fanout` entries (capped at
    /// the full cluster).
    pub(crate) dependency_fanout: usize,
    /// A waypoint's config carries inbound+outbound policy and certs —
    /// larger than one sidecar's share by this factor.
    pub(crate) waypoint_config_scale: f64,
    /// The Canal gateway's multi-tenant config (routing + security +
    /// session/bucket/tunnel tables) relative to one sidecar's full config.
    pub(crate) gateway_config_scale: f64,
    /// Per-20-pod-wave bootstrap on pod creation: sidecar injection and
    /// restart (Istio).
    pub(crate) sidecar_bootstrap_per_wave: SimDuration,
    /// Per-wave bootstrap: ztunnel identity/cert issuance (Ambient).
    pub(crate) ambient_bootstrap_per_wave: SimDuration,
    /// Per-wave bootstrap: nothing node-local beyond registration (Canal).
    pub(crate) canal_bootstrap_per_wave: SimDuration,
}

impl Default for ConfigCosts {
    fn default() -> Self {
        ConfigCosts {
            bytes_per_entry: 600,
            base_bytes_per_target: 4 * 1024,
            build_cpu_per_entry: SimDuration::from_micros(12),
            southbound_bandwidth: 25e6 / 8.0, // 25 Mbit/s controller egress
            per_target_push_rtt: SimDuration::from_millis(4),
            pod_setup: SimDuration::from_secs(2),
            push_fanout: 64,
            waypoint_replicas: 2,
            dependency_fanout: 3,
            waypoint_config_scale: 2.0,
            gateway_config_scale: 3.0,
            sidecar_bootstrap_per_wave: SimDuration::from_millis(1200),
            ambient_bootstrap_per_wave: SimDuration::from_millis(500),
            canal_bootstrap_per_wave: SimDuration::from_millis(100),
        }
    }
}

/// Result of one configuration round.
#[derive(Debug, Clone, Copy)]
pub struct PushReport {
    /// Proxies configured.
    pub targets: usize,
    /// Total southbound bytes.
    pub southbound_bytes: u64,
    /// Controller CPU spent building.
    pub build_cpu: SimDuration,
    /// Wall-clock push time (I/O-bound, fanout-limited).
    pub push_time: SimDuration,
    /// Build + push.
    pub total_time: SimDuration,
}

/// The configuration plane for one architecture.
#[derive(Debug, Clone)]
pub struct ConfigPlane {
    /// Which architecture's push topology to use.
    pub arch: Architecture,
    /// Cost parameters.
    pub costs: ConfigCosts,
}

impl ConfigPlane {
    /// Plane with default costs.
    pub fn new(arch: Architecture) -> Self {
        ConfigPlane {
            arch,
            costs: ConfigCosts::default(),
        }
    }

    /// Config size for one target in a cluster of the given shape.
    ///
    /// * Sidecars each carry the *full* config — entries for every pod
    ///   (§2.2's O(N)-per-proxy, O(N²) total).
    /// * Ambient ztunnels also need cluster-wide workload identities (full
    ///   config); each service's waypoint (× its replicas) carries a
    ///   policy-and-cert bundle `waypoint_config_scale`× one sidecar's.
    /// * The Canal gateway is a single target whose multi-tenant config is
    ///   `gateway_config_scale`× one sidecar's full config.
    pub(crate) fn bytes_per_target(&self, shape: &ClusterShape) -> Vec<usize> {
        let c = &self.costs;
        let full = c.base_bytes_per_target + c.bytes_per_entry * shape.pods;
        match self.arch {
            Architecture::NoMesh => Vec::new(),
            Architecture::Sidecar => vec![full; shape.pods],
            Architecture::Ambient => {
                let mut targets = vec![full; shape.nodes];
                let pods_per_service = (shape.pods / shape.services.max(1)).max(1);
                let entries = (pods_per_service * c.dependency_fanout).min(shape.pods);
                let waypoint = ((c.base_bytes_per_target + c.bytes_per_entry * entries) as f64
                    * c.waypoint_config_scale) as usize;
                targets.extend(vec![waypoint; shape.services * c.waypoint_replicas]);
                targets
            }
            Architecture::Canal => vec![(full as f64 * c.gateway_config_scale) as usize],
        }
    }

    /// Execute one full configuration round (e.g. a routing-policy update)
    /// over the cluster: one wave to every target. This is the Fig. 15
    /// measurement.
    pub fn push_update(&self, shape: &ClusterShape) -> PushReport {
        self.push_wave(shape, usize::MAX)
    }

    /// One *rollout wave*: push the update to only `targets` of the
    /// architecture's config targets (a canary slice, then exponentially
    /// growing waves — `canal_control::rollout`). Build CPU is paid once
    /// per wave for the wave's entries; southbound bytes and RTTs scale
    /// with the wave size. `targets` is clamped to the architecture's
    /// target count.
    pub fn push_wave(&self, shape: &ClusterShape, targets: usize) -> PushReport {
        let c = &self.costs;
        let per_target = self.bytes_per_target(shape);
        let wave: &[usize] = &per_target[..targets.min(per_target.len())];
        let southbound_bytes: u64 = wave.iter().map(|&b| b as u64).sum();
        let entries_built: u64 = wave
            .iter()
            .map(|&b| ((b - c.base_bytes_per_target.min(b)) / c.bytes_per_entry.max(1)) as u64)
            .sum();
        self.price(wave.len(), southbound_bytes, entries_built)
    }

    /// Price a round that builds `entries_built` entries and sends
    /// `southbound_bytes` to `targets` targets: build CPU per entry, then an
    /// I/O-bound push, bandwidth-limited transfer plus fanout-limited RTTs.
    fn price(&self, targets: usize, southbound_bytes: u64, entries_built: u64) -> PushReport {
        let c = &self.costs;
        let build_cpu = c.build_cpu_per_entry.scale(entries_built as f64);
        let transfer = SimDuration::from_secs_f64(southbound_bytes as f64 / c.southbound_bandwidth);
        let rtt_waves = (targets + c.push_fanout - 1) / c.push_fanout.max(1);
        let push_time = transfer + c.per_target_push_rtt.times(rtt_waves as u64);
        PushReport {
            targets,
            southbound_bytes,
            build_cpu,
            push_time,
            total_time: build_cpu + push_time,
        }
    }

    /// [`ConfigPlane::push_update`] under a fault-injected control-plane
    /// stall: a chaos plan's `config-push degrade` adds `extra` wall-clock
    /// delay to the push (controller partition, southbound congestion).
    /// Build CPU is unaffected — the controller still computes; only
    /// delivery stalls.
    pub fn push_update_delayed(&self, shape: &ClusterShape, extra: SimDuration) -> PushReport {
        let report = self.push_update(shape);
        PushReport {
            push_time: report.push_time + extra,
            total_time: report.total_time + extra,
            ..report
        }
    }

    /// An *incremental* configuration round: only the entries that changed
    /// are pushed (`changed_entries` of them), instead of the full config.
    /// The paper notes "incremental update would be preferable, \[but\] Istio
    /// currently lacks good support for it" (§2.2) — this models what the
    /// southbound load would look like with delta support, for the
    /// `abl-push` ablation.
    pub fn push_incremental(&self, shape: &ClusterShape, changed_entries: usize) -> PushReport {
        let c = &self.costs;
        let targets = self.bytes_per_target(shape).len();
        // Every target that carries the affected entries receives just the
        // delta plus the per-target envelope.
        let per_target = c.base_bytes_per_target / 8 + c.bytes_per_entry * changed_entries;
        let entries_built = (changed_entries * targets.max(1)) as u64;
        self.price(targets, (per_target * targets) as u64, entries_built)
    }

    /// P90-style completion time for creating `new_pods` pods in a cluster
    /// (the Fig. 14 measurement): common pod setup (parallelized by K8s)
    /// plus the architecture's configuration round reflecting the grown
    /// cluster.
    pub fn pod_creation_completion(&self, shape: &ClusterShape, new_pods: usize) -> SimDuration {
        let grown = ClusterShape {
            pods: shape.pods + new_pods,
            nodes: shape.nodes,
            services: shape.services,
        };
        // Pod setup proceeds in parallel waves of ~20 concurrent creations.
        let waves = new_pods.div_ceil(20) as u64;
        let setup = self.costs.pod_setup.times(waves);
        let bootstrap = match self.arch {
            Architecture::NoMesh => SimDuration::ZERO,
            Architecture::Sidecar => self.costs.sidecar_bootstrap_per_wave.times(waves),
            Architecture::Ambient => self.costs.ambient_bootstrap_per_wave.times(waves),
            Architecture::Canal => self.costs.canal_bootstrap_per_wave.times(waves),
        };
        setup + bootstrap + self.push_update(&grown).total_time
    }
}

/// Table 2's empirical law: configuration updates per minute as a function
/// of cluster size (larger clusters host more services, each updating at
/// its own cadence).
pub fn update_frequency_per_min(pods: usize) -> f64 {
    // Fitted to Table 2: 100–500 pods → 1–5/min; 700–1100 → 10–20;
    // 1500–3000 → 40–70. Slightly superlinear in pod count.
    0.004 * (pods as f64).powf(1.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(pods: usize) -> ClusterShape {
        ClusterShape::production(pods)
    }

    #[test]
    fn sidecar_southbound_is_quadratic() {
        let plane = ConfigPlane::new(Architecture::Sidecar);
        let small = plane.push_update(&shape(500)).southbound_bytes as f64;
        let large = plane.push_update(&shape(5000)).southbound_bytes as f64;
        // 10x pods → ~100x bytes.
        let growth = large / small;
        assert!((70.0..130.0).contains(&growth), "{growth}");
    }

    #[test]
    fn canal_southbound_is_linear_and_single_target() {
        let plane = ConfigPlane::new(Architecture::Canal);
        let r = plane.push_update(&shape(5000));
        assert_eq!(r.targets, 1);
        let small = plane.push_update(&shape(500)).southbound_bytes as f64;
        let growth = r.southbound_bytes as f64 / small;
        assert!((8.0..12.0).contains(&growth), "{growth}");
    }

    #[test]
    fn fig15_southbound_ratios() {
        let shape = ClusterShape::paper_testbed();
        let istio = ConfigPlane::new(Architecture::Sidecar)
            .push_update(&shape)
            .southbound_bytes as f64;
        let ambient = ConfigPlane::new(Architecture::Ambient)
            .push_update(&shape)
            .southbound_bytes as f64;
        let canal = ConfigPlane::new(Architecture::Canal)
            .push_update(&shape)
            .southbound_bytes as f64;
        let r_istio = istio / canal;
        let r_ambient = ambient / canal;
        // Fig. 15: 9.8x and 4.6x.
        assert!((7.0..13.0).contains(&r_istio), "istio/canal {r_istio}");
        assert!((3.0..6.5).contains(&r_ambient), "ambient/canal {r_ambient}");
    }

    #[test]
    fn fig4_build_cpu_grows_with_cluster_push_is_io_bound() {
        let plane = ConfigPlane::new(Architecture::Sidecar);
        let small = plane.push_update(&shape(500));
        let large = plane.push_update(&shape(2000));
        // Build CPU scales with cluster size.
        assert!(large.build_cpu > small.build_cpu.times(10));
        // Push time grows too (I/O), and dominates CPU for large clusters.
        assert!(large.push_time > small.push_time);
        assert!(large.push_time > large.build_cpu);
    }

    #[test]
    fn fig14_completion_ratios() {
        let shape = ClusterShape::paper_testbed();
        let n = 100; // create 100 pods
        let istio = ConfigPlane::new(Architecture::Sidecar)
            .pod_creation_completion(&shape, n)
            .as_secs_f64();
        let ambient = ConfigPlane::new(Architecture::Ambient)
            .pod_creation_completion(&shape, n)
            .as_secs_f64();
        let canal = ConfigPlane::new(Architecture::Canal)
            .pod_creation_completion(&shape, n)
            .as_secs_f64();
        let r_i = istio / canal;
        let r_a = ambient / canal;
        assert!((1.4..2.2).contains(&r_i), "istio/canal {r_i}");
        assert!((1.1..1.6).contains(&r_a), "ambient/canal {r_a}");
    }

    #[test]
    fn table2_update_frequency_bands() {
        // 100–500 pods → 1–5/min.
        assert!((0.5..6.0).contains(&update_frequency_per_min(300)));
        // 700–1100 → 10–20.
        assert!((8.0..22.0).contains(&update_frequency_per_min(900)));
        // 1500–3000 → 40–70.
        assert!((30.0..80.0).contains(&update_frequency_per_min(2500)));
    }

    #[test]
    fn ambient_stays_below_istio_at_production_scale() {
        // Service-scoped waypoint configs must not blow past per-pod
        // sidecars when services are numerous (pods:services ≈ 2:1).
        let shape = ClusterShape::production(600);
        let istio = ConfigPlane::new(Architecture::Sidecar)
            .push_update(&shape)
            .southbound_bytes;
        let ambient = ConfigPlane::new(Architecture::Ambient)
            .push_update(&shape)
            .southbound_bytes;
        assert!(ambient < istio / 2, "{ambient} vs {istio}");
    }

    #[test]
    fn incremental_push_is_far_cheaper_than_full() {
        let shape = shape(1000);
        for arch in [Architecture::Sidecar, Architecture::Canal] {
            let plane = ConfigPlane::new(arch);
            let full = plane.push_update(&shape);
            let delta = plane.push_incremental(&shape, 3);
            assert!(delta.southbound_bytes * 20 < full.southbound_bytes);
            assert_eq!(delta.targets, full.targets);
        }
        // But Istio's *incremental* push still fans out to every sidecar —
        // Canal's stays a single message; the gap persists.
        let istio = ConfigPlane::new(Architecture::Sidecar).push_incremental(&shape, 3);
        let canal = ConfigPlane::new(Architecture::Canal).push_incremental(&shape, 3);
        assert!(istio.southbound_bytes > canal.southbound_bytes * 100);
    }

    #[test]
    fn delayed_push_adds_exactly_the_injected_stall() {
        let plane = ConfigPlane::new(Architecture::Canal);
        let s = shape(300);
        let healthy = plane.push_update(&s);
        let stall = SimDuration::from_secs(5);
        let delayed = plane.push_update_delayed(&s, stall);
        assert_eq!(delayed.total_time, healthy.total_time + stall);
        assert_eq!(delayed.push_time, healthy.push_time + stall);
        assert_eq!(delayed.build_cpu, healthy.build_cpu);
        assert_eq!(delayed.southbound_bytes, healthy.southbound_bytes);
        assert_eq!(
            plane.push_update_delayed(&s, SimDuration::ZERO).total_time,
            healthy.total_time
        );
    }

    #[test]
    fn wave_push_costs_scale_with_wave_size() {
        let plane = ConfigPlane::new(Architecture::Sidecar);
        let s = shape(1000);
        let full = plane.push_update(&s);
        let canary = plane.push_wave(&s, 10);
        assert_eq!(canary.targets, 10);
        assert!(canary.southbound_bytes < full.southbound_bytes / 50);
        assert!(canary.push_time < full.push_time);
        // Pushing "all" as one wave costs exactly a full push.
        let all = plane.push_wave(&s, usize::MAX);
        assert_eq!(all.targets, full.targets);
        assert_eq!(all.southbound_bytes, full.southbound_bytes);
        assert_eq!(all.total_time, full.total_time);
        // An empty wave costs nothing southbound.
        assert_eq!(plane.push_wave(&s, 0).southbound_bytes, 0);
    }

    #[test]
    fn no_mesh_pushes_nothing() {
        let plane = ConfigPlane::new(Architecture::NoMesh);
        let r = plane.push_update(&shape(1000));
        assert_eq!(r.targets, 0);
        assert_eq!(r.southbound_bytes, 0);
    }
}
