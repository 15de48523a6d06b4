//! `repro variation` as a view over two `run_monte` campaigns: the
//! paper's §3.3 screenability claim, bit-identity of the nominal shifts
//! with direct measurements, and the stuck-probe rendering.

use obd_bench::experiments::monte::{run_variation, Variation};
use obd_bench::quick_bench_config;
use obd_cmos::TechParams;
use obd_core::characterize::{measure_transition, BenchDefect};
use obd_core::monte::{MonteProbeStats, MonteReport};
use obd_core::{BreakdownStage, Polarity};

#[test]
fn mbd_stages_clear_process_noise() {
    let report = run_variation(&TechParams::date05(), 24, &quick_bench_config()).unwrap();
    assert!(report.sigma_ps > 0.5, "5% spread must move delays");
    let z_of = |s: BreakdownStage| {
        report
            .stages
            .iter()
            .find(|(st, _, _)| *st == s)
            .map(|(_, _, z)| *z)
            .expect("stage present")
    };
    // The paper's point: MBD-class defects are clearly screenable…
    assert!(z_of(BreakdownStage::Mbd1) > 3.0);
    assert!(z_of(BreakdownStage::Mbd2) > z_of(BreakdownStage::Mbd1));
    // …and every stage's shift is at least positive.
    for (_, shift, _) in &report.stages {
        assert!(*shift > 0.0);
    }
    assert!(report.unscreened().is_empty());
}

/// A spread-0 corner is the nominal technology, so every shift is bit
/// for bit the difference of two direct measurements.
#[test]
fn nominal_shifts_match_direct_measurements() {
    let (tech, cfg) = (TechParams::date05(), quick_bench_config());
    let report = run_variation(&tech, 2, &cfg).unwrap();
    let delay = |defect| {
        let out = measure_transition(&tech, defect, [false, true], [true, true], &cfg);
        out.unwrap().delay_ps().unwrap()
    };
    let base = delay(None);
    assert_eq!(report.stages.len(), 4);
    for &(stage, shift, _) in &report.stages {
        let params = stage.params(Polarity::Nmos).unwrap();
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params,
        };
        assert_eq!(
            shift.to_bits(),
            (delay(Some(defect)) - base).to_bits(),
            "{stage}"
        );
    }
}

#[test]
fn stuck_probe_is_an_infinite_shift_and_small_shifts_fail_the_screen() {
    let report = |probes: &[(Option<BreakdownStage>, &[f64])]| MonteReport {
        samples: 1,
        seed: 0,
        spread: 0.0,
        at_speed_ps: 800.0,
        probes: (probes.iter())
            .map(|&(stage, delays)| MonteProbeStats {
                label: stage.map_or("fault_free_fall".into(), |s| format!("{s}_nmos_fall")),
                stage,
                polarity: stage.map(|_| Polarity::Nmos),
                delays_ps: delays.to_vec(),
                stuck: usize::from(delays.is_empty()),
                degraded: 0,
                p05_ps: None,
                p50_ps: None,
                p95_ps: None,
                detected: 0,
            })
            .collect(),
        degraded_total: 0,
    };
    let spread = report(&[(None, &[100.0, 104.0])]);
    let stages = [
        (None, &[102.0][..]),
        (Some(BreakdownStage::Sbd), &[150.0]),
        (Some(BreakdownStage::Mbd1), &[]),
        (Some(BreakdownStage::Mbd2), &[106.0]),
    ];
    let v = Variation::of(&spread, &report(&stages));
    assert_eq!((v.corners, v.mean_ps, v.sigma_ps), (2, 102.0, 2.0));
    assert_eq!(
        v.stages,
        vec![
            (BreakdownStage::Sbd, 48.0, 24.0),
            (BreakdownStage::Mbd1, f64::INFINITY, f64::INFINITY),
            (BreakdownStage::Mbd2, 4.0, 2.0)
        ]
    );
    assert!(v.render().contains("MBD1         inf ps"), "{}", v.render());
    // A stuck stage clears the screen; a 2-sigma MBD shift does not.
    assert_eq!(v.unscreened(), vec![BreakdownStage::Mbd2]);
}
