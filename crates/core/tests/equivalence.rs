//! Equivalence guarantees for the performance paths: the parallel
//! characterization driver and the memoizing delay cache must reproduce
//! the serial, uncached results exactly (bit-identical outcomes), so the
//! fast paths can stand in for the reference ones everywhere.

use obd_cmos::TechParams;
use obd_core::cache::DelayCache;
use obd_core::characterize::{characterize_table1, BenchConfig, DelayTable};
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_spice::SimOptions;

/// Coarse, fast settings — equivalence holds at any resolution.
fn fast_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

#[test]
fn parallel_characterization_matches_serial() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let opts = SimOptions::new();
    let serial = characterize_table1(&tech, &cfg, &opts, 1).unwrap();
    // The thread-count invariance matrix: uneven and oversubscribed
    // worker counts must reproduce the serial table bit for bit.
    for threads in [2, 3, 7] {
        let parallel = characterize_table1(&tech, &cfg, &opts, threads).unwrap();
        assert!(
            serial.bit_identical(&parallel),
            "threads={threads}:\n{}\n{}",
            serial.render(),
            parallel.render()
        );
    }
}

#[test]
fn cached_delay_table_matches_uncached() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let uncached = DelayTable::from_characterization(&tech, &cfg).unwrap();
    let cache = DelayCache::new();
    let cached = DelayTable::from_characterization_cached(&tech, &cfg, &cache).unwrap();
    let first_misses = cache.misses();
    assert!(first_misses > 0);

    // A second cached build must be answered entirely from memory...
    let cached_again = DelayTable::from_characterization_cached(&tech, &cfg, &cache).unwrap();
    assert_eq!(
        cache.misses(),
        first_misses,
        "second build must not simulate"
    );
    assert!(cache.hits() >= first_misses);

    // ...and all three tables must agree exactly where the model speaks.
    for t in [&cached, &cached_again] {
        assert!(t.base_fall_ps == uncached.base_fall_ps);
        assert!(t.base_rise_ps == uncached.base_rise_ps);
        for pol in [Polarity::Nmos, Polarity::Pmos] {
            for stage in [
                BreakdownStage::FaultFree,
                BreakdownStage::Sbd,
                BreakdownStage::Mbd1,
                BreakdownStage::Mbd2,
                BreakdownStage::Mbd3,
                BreakdownStage::Hbd,
            ] {
                assert_eq!(
                    t.extra_delay_ps(pol, stage),
                    uncached.extra_delay_ps(pol, stage),
                    "{pol:?}/{stage}"
                );
            }
        }
    }
}
