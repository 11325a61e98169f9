//! Shuffle sharding (§4.2, Fig. 19).
//!
//! Each service is assigned `shard_size` backends out of the AZ's pool such
//! that no two services share the *same combination*. Then a "query of
//! death" that kills every backend of one service still leaves every other
//! service at least one healthy backend (unless the other service's
//! combination is a subset — which the planner avoids by bounding pairwise
//! overlap).

use canal_net::GlobalServiceId;
use canal_sim::{Fold, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// Assigns backend combinations to services with bounded pairwise overlap.
#[derive(Debug)]
pub struct ShuffleShardPlanner {
    pool_size: usize,
    shard_size: usize,
    max_overlap: usize,
    assignments: BTreeMap<GlobalServiceId, Vec<usize>>,
    used_combos: BTreeSet<Vec<usize>>,
}

impl ShuffleShardPlanner {
    /// Planner over a pool of `pool_size` backends, `shard_size` backends
    /// per service, tolerating at most `max_overlap` shared backends between
    /// any two services' combinations.
    ///
    /// Panics if `shard_size > pool_size` or `max_overlap >= shard_size`
    /// (full overlap would defeat the isolation goal).
    pub fn new(pool_size: usize, shard_size: usize, max_overlap: usize) -> Self {
        assert!(shard_size > 0 && shard_size <= pool_size);
        assert!(max_overlap < shard_size);
        ShuffleShardPlanner {
            pool_size,
            shard_size,
            max_overlap,
            assignments: BTreeMap::new(),
            used_combos: BTreeSet::new(),
        }
    }

    /// Assign a combination to a service. Tries random draws until the
    /// overlap bound holds (with a relaxation fallback after many attempts,
    /// so dense pools still get assignments — uniqueness is always kept).
    pub fn assign(&mut self, service: GlobalServiceId, rng: &mut SimRng) -> Vec<usize> {
        if let Some(existing) = self.assignments.get(&service) {
            return existing.clone();
        }
        let mut allowed_overlap = self.max_overlap;
        loop {
            for _attempt in 0..64 {
                let mut combo = rng.sample_indices(self.pool_size, self.shard_size);
                combo.sort_unstable();
                if self.used_combos.contains(&combo) {
                    continue;
                }
                let worst = self
                    .assignments
                    .values()
                    .map(|other| combo.iter().filter(|b| other.contains(b)).count())
                    .max()
                    .unwrap_or(0);
                if worst <= allowed_overlap {
                    self.used_combos.insert(combo.clone());
                    self.assignments.insert(service, combo.clone());
                    return combo;
                }
            }
            // Pool too dense for the bound: relax by one, never to full
            // overlap (uniqueness still enforced by `used_combos`).
            if allowed_overlap + 1 < self.shard_size {
                allowed_overlap += 1;
            } else {
                // Last resort: any unused combination.
                loop {
                    let mut combo = rng.sample_indices(self.pool_size, self.shard_size);
                    combo.sort_unstable();
                    if !self.used_combos.contains(&combo) {
                        self.used_combos.insert(combo.clone());
                        self.assignments.insert(service, combo.clone());
                        return combo;
                    }
                }
            }
        }
    }

    /// The combination assigned to a service, if any.
    pub fn combination(&self, service: GlobalServiceId) -> Option<&[usize]> {
        self.assignments.get(&service).map(Vec::as_slice)
    }

    /// Grow a service's shard by extra backends (the `Reuse` scaling path
    /// extends a service onto additional low-water backends). Keeps
    /// uniqueness bookkeeping consistent.
    pub(crate) fn extend(&mut self, service: GlobalServiceId, backend: usize) -> bool {
        let Some(combo) = self.assignments.get_mut(&service) else {
            return false;
        };
        if combo.contains(&backend) || backend >= self.pool_size {
            return false;
        }
        self.used_combos.remove(combo);
        combo.push(backend);
        combo.sort_unstable();
        self.used_combos.insert(combo.clone());
        true
    }

    /// Register newly created backends (the `New` scaling path grows the
    /// pool).
    pub(crate) fn grow_pool(&mut self, additional: usize) {
        self.pool_size += additional;
    }

    /// Largest pairwise overlap among all assigned combinations (Fig. 19's
    /// "no complete overlap" check).
    pub fn max_pairwise_overlap(&self) -> usize {
        let combos: Vec<&Vec<usize>> = self.assignments.values().collect();
        let mut worst = 0;
        for i in 0..combos.len() {
            for j in (i + 1)..combos.len() {
                let overlap = combos[i].iter().filter(|b| combos[j].contains(b)).count();
                worst = worst.max(overlap);
            }
        }
        worst
    }

    /// Services that would be *fully* lost if exactly `failed` backends
    /// died — the blast-radius query behind Fig. 8.
    pub fn services_lost_if(&self, failed: &[usize]) -> Vec<GlobalServiceId> {
        self.assignments
            .iter()
            .filter(|(_, combo)| combo.iter().all(|b| failed.contains(b)))
            .map(|(&s, _)| s)
            .collect()
    }

    /// Fold the planner state into a digest: `pool_size` and the bounds,
    /// every service's combination in `assignments`, and the `used_combos`
    /// uniqueness set (its size — the combos themselves are the assignment
    /// values, already folded).
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { pool_size, shard_size, max_overlap, assignments, used_combos } = self;
        f.write_u64(*pool_size as u64)
            .write_u64(*shard_size as u64)
            .write_u64(*max_overlap as u64)
            .write_u64(assignments.len() as u64);
        for (svc, combo) in assignments {
            f.write_u64(svc.0).write_u64(combo.len() as u64);
            for &b in combo {
                f.write_u64(b as u64);
            }
        }
        f.write_u64(used_combos.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn gs(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(i / 100), ServiceId(i % 100))
    }

    #[test]
    fn combinations_are_unique() {
        let mut rng = SimRng::seed(1);
        let mut p = ShuffleShardPlanner::new(12, 3, 2);
        let mut seen = BTreeSet::new();
        for i in 0..50 {
            let combo = p.assign(gs(i), &mut rng);
            assert_eq!(combo.len(), 3);
            assert!(seen.insert(combo), "duplicate combination");
        }
        assert_eq!(p.assignments.len(), 50);
    }

    #[test]
    fn overlap_bound_holds_when_pool_allows() {
        let mut rng = SimRng::seed(2);
        let mut p = ShuffleShardPlanner::new(24, 3, 1);
        for i in 0..12 {
            p.assign(gs(i), &mut rng);
        }
        assert!(p.max_pairwise_overlap() <= 1);
    }

    #[test]
    fn killing_one_services_backends_spares_others() {
        // The Fig. 8 scenario: service A's full combination dies; every
        // other service must retain at least one live backend.
        let mut rng = SimRng::seed(3);
        let mut p = ShuffleShardPlanner::new(12, 3, 2);
        for i in 0..30 {
            p.assign(gs(i), &mut rng);
        }
        let victim_combo = p.combination(gs(0)).unwrap().to_vec();
        let lost = p.services_lost_if(&victim_combo);
        assert_eq!(lost, vec![gs(0)], "only the victim is fully lost");
    }

    #[test]
    fn assignment_is_idempotent() {
        let mut rng = SimRng::seed(4);
        let mut p = ShuffleShardPlanner::new(10, 3, 2);
        let a = p.assign(gs(1), &mut rng);
        let b = p.assign(gs(1), &mut rng);
        assert_eq!(a, b);
        assert_eq!(p.assignments.len(), 1);
    }

    #[test]
    fn extend_adds_backend_preserving_uniqueness() {
        let mut rng = SimRng::seed(5);
        let mut p = ShuffleShardPlanner::new(10, 3, 2);
        p.assign(gs(1), &mut rng);
        let before = p.combination(gs(1)).unwrap().to_vec();
        let new_backend = (0..10).find(|b| !before.contains(b)).unwrap();
        assert!(p.extend(gs(1), new_backend));
        let after = p.combination(gs(1)).unwrap();
        assert_eq!(after.len(), 4);
        assert!(after.contains(&new_backend));
        // Re-extending with the same backend is a no-op.
        assert!(!p.extend(gs(1), new_backend));
        // Unknown service or out-of-pool backend rejected.
        assert!(!p.extend(gs(99), 0));
        assert!(!p.extend(gs(1), 999));
    }

    #[test]
    fn grow_pool_enables_new_backends() {
        let mut rng = SimRng::seed(6);
        let mut p = ShuffleShardPlanner::new(4, 2, 1);
        p.assign(gs(1), &mut rng);
        assert!(!p.extend(gs(1), 4), "backend 4 not in pool yet");
        p.grow_pool(2);
        assert_eq!(p.pool_size, 6);
        assert!(p.extend(gs(1), 4));
    }

    #[test]
    fn dense_pool_relaxes_but_stays_unique() {
        // 5 backends choose 3 = 10 combinations; ask for all 10 with a tight
        // overlap bound — the planner must relax yet never duplicate.
        let mut rng = SimRng::seed(7);
        let mut p = ShuffleShardPlanner::new(5, 3, 1);
        let mut seen = BTreeSet::new();
        for i in 0..10 {
            let combo = p.assign(gs(i), &mut rng);
            assert!(seen.insert(combo));
        }
    }
}
