//! Per-pod sidecar resource model (Table 1, Figs. 2/3/5).
//!
//! The paper's production measurements show sidecar CPU/memory varying
//! widely with configuration complexity — from 4% of cluster CPU on a lean
//! cluster to 30% on one "loaded with complex network and security
//! configurations", with extremes where the sidecar out-eats the app (3× CPU
//! / 5.5× memory). [`SidecarResourceModel`] parameterizes that observation:
//! resource burn per pod grows affinely with a `config_complexity` knob in
//! `[0,1]`.

/// Resource burn model for one per-pod sidecar.
#[derive(Debug, Clone, Copy)]
pub struct SidecarResourceModel {
    /// CPU cores at zero config complexity.
    pub(crate) cpu_base: f64,
    /// Additional cores at full complexity.
    pub(crate) cpu_slope: f64,
    /// Memory GB at zero complexity.
    pub(crate) mem_base_gb: f64,
    /// Additional GB at full complexity.
    pub(crate) mem_slope_gb: f64,
}

impl Default for SidecarResourceModel {
    fn default() -> Self {
        // Calibrated so Table 1's rows (0.03–0.38 cores/pod, 0.15–0.75
        // GB/pod) are spanned by complexity in [0,1].
        SidecarResourceModel {
            cpu_base: 0.03,
            cpu_slope: 0.35,
            mem_base_gb: 0.15,
            mem_slope_gb: 0.60,
        }
    }
}

impl SidecarResourceModel {
    /// Cores one sidecar burns at the given config complexity.
    pub(crate) fn cpu_per_pod(&self, complexity: f64) -> f64 {
        self.cpu_base + self.cpu_slope * complexity.clamp(0.0, 1.0)
    }

    /// GB one sidecar holds at the given config complexity.
    pub(crate) fn mem_per_pod_gb(&self, complexity: f64) -> f64 {
        self.mem_base_gb + self.mem_slope_gb * complexity.clamp(0.0, 1.0)
    }

    /// Whole-cluster sidecar burn: `(cores, gb)`.
    pub fn cluster_usage(&self, pods: usize, complexity: f64) -> (f64, f64) {
        (
            pods as f64 * self.cpu_per_pod(complexity),
            pods as f64 * self.mem_per_pod_gb(complexity),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_spanned() {
        let m = SidecarResourceModel::default();
        // Lean cluster (complexity ~0.2): ~0.1 cores/pod — the 15k-pod row
        // (1500 cores / 15k pods).
        let lean = m.cpu_per_pod(0.2);
        assert!((0.08..0.12).contains(&lean), "{lean}");
        // Hot cluster (complexity 1.0): ~0.38 cores/pod — the 400-pod row
        // (150 cores / 400 pods).
        let hot = m.cpu_per_pod(1.0);
        assert!((0.3..0.45).contains(&hot), "{hot}");
    }

    #[test]
    fn cluster_usage_scales_linearly() {
        let m = SidecarResourceModel::default();
        let (cpu1, mem1) = m.cluster_usage(1000, 0.5);
        let (cpu2, mem2) = m.cluster_usage(2000, 0.5);
        assert!((cpu2 / cpu1 - 2.0).abs() < 1e-9);
        assert!((mem2 / mem1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn complexity_clamps() {
        let m = SidecarResourceModel::default();
        assert_eq!(m.cpu_per_pod(-1.0), m.cpu_per_pod(0.0));
        assert_eq!(m.cpu_per_pod(2.0), m.cpu_per_pod(1.0));
    }
}
