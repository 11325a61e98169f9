//! The double-run contract, held for every scenario of the experiment table
//! through the driver the `experiments` binary uses: each `drive` call runs
//! the scenario twice and reports a divergence, or a violated invariant, as
//! a failure.
//!
//! [`GOLDEN`] holds each scenario to its digests across commits: a change
//! that is meant to keep behaviour leaves all 32 values where they are, and
//! one that is meant to move a scenario re-pins that scenario's row and says
//! why in CHANGES.md.

use canal_bench::EXPERIMENTS;

/// `(seed, fast)` of each golden column.
const GOLDEN_RUNS: [(u64, bool); 4] = [(42, true), (7, true), (1001, true), (42, false)];

/// Digest of every scenario at each of [`GOLDEN_RUNS`], captured at commit
/// 67beed4 (PR 14) with `experiments [--fast] --seed <seed> <id>`.
const GOLDEN: [(&str, [u64; 4]); 8] = [
    ("fig8", [0xa887_2086_e24b_d75a, 0x4175_5572_426e_ba87, 0xfc2a_f813_a781_5647, 0xfdeb_3eb4_660a_bad3]),
    ("overload", [0x9cb1_60c7_adba_1cf5, 0xde6b_7a36_bb35_afde, 0x64a9_ebb0_9979_5357, 0x8cc2_ab2f_d509_df36]),
    ("trace", [0x5174_51e8_7c24_e9a9, 0x0d73_9eaf_a9f0_f871, 0x8c47_d5a5_496d_f2fa, 0x067c_eddc_1906_43cc]),
    ("rollout", [0x643b_6291_fe2f_ef7b, 0x061b_74bf_ad65_8103, 0x76bf_fb1b_d55f_bbc4, 0xc2d6_d714_5c44_8b8d]),
    ("handshake", [0xb581_b99d_baa1_387a, 0x7f8d_91e9_6797_8f56, 0xd066_81eb_e08d_f89c, 0x2de7_ce83_cf1d_16f3]),
    ("drill", [0xdb94_f1f7_3338_5696, 0xa6fc_0b12_cede_3a09, 0xbb63_c294_ab49_b7c8, 0x80e0_be23_b17a_3693]),
    ("policy", [0xd334_2fa3_2ae6_26d6, 0x31a0_8d9a_5949_7561, 0x95c3_d85b_2146_795e, 0xc6d1_8d0b_4c20_9755]),
    ("failover", [0x7977_f6a2_785f_2045, 0x2a80_3b44_332c_a99a, 0xe5da_b39d_6409_acbb, 0x87da_85b1_69c2_cfc9]),
];

#[test]
fn every_scenario_repeats_bit_for_bit_and_holds_its_invariant() {
    let scenarios = EXPERIMENTS.iter().filter_map(|e| Some((e.id, e.scenario?.drive)));
    std::thread::scope(|scope| {
        for (id, drive) in scenarios {
            scope.spawn(move || {
                let golden = GOLDEN.iter().find(|(g, _)| *g == id).map(|(_, digests)| digests);
                let golden = golden.unwrap_or_else(|| panic!("{id} has no golden row"));
                for ((seed, fast), want) in GOLDEN_RUNS.into_iter().zip(golden) {
                    let run = drive(seed, fast);
                    assert!(run.failures.is_empty(), "{id} seed {seed} fast {fast}: {:?}", run.failures);
                    assert_eq!(
                        run.digest, *want,
                        "{id} seed {seed} fast {fast}: digest {:#018x} left its golden value",
                        run.digest
                    );
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
