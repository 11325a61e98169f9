//! The double-run contract, held for every scenario of the experiment table
//! through the driver the `experiments` binary uses: each `drive` call runs
//! the scenario twice and reports a divergence, or a violated invariant, as
//! a failure.

use canal_bench::EXPERIMENTS;

#[test]
fn every_scenario_repeats_bit_for_bit_and_holds_its_invariant() {
    let scenarios = EXPERIMENTS.iter().filter_map(|e| Some((e.id, e.scenario?.drive)));
    std::thread::scope(|scope| {
        for (id, drive) in scenarios {
            scope.spawn(move || {
                for seed in [42, 7, 1001] {
                    let run = drive(seed, true);
                    assert!(run.failures.is_empty(), "{id} seed {seed}: {:?}", run.failures);
                }
                let (a, b) = (drive(1, true), drive(2, true));
                assert_ne!(a.digest, b.digest, "{id}: the seed must actually steer the run");
            });
        }
    });
}

#[test]
fn the_table_names_eight_scenarios_and_no_id_twice() {
    let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(EXPERIMENTS.iter().filter(|e| e.scenario.is_some()).count(), 8);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), EXPERIMENTS.len());
}
