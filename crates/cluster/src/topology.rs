//! Tenants: the Table 3 population model of a region's mesh users.
//!
//! Cluster *counts* (pods, nodes, services and the §2.2 ratios between
//! them) are `canal_mesh::arch::ClusterShape`'s; what this module keeps is
//! who the tenants are and which L7 features each adopts.

use canal_sim::SimRng;

/// A cloud tenant and its mesh feature adoption (Table 3 population model).
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Whether the tenant configures L7 rules at all (80–95% do).
    pub uses_l7: bool,
    /// Whether they use L7 routing policies (72–95%).
    pub uses_l7_routing: bool,
    /// Whether they use L7 security/authorization (27–53%).
    pub uses_l7_security: bool,
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
        .map(|_| {
            let uses_l7 = rng.chance(p_l7);
            Tenant {
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
