//! Graceful degradation of the Table 1 campaign, in its own test binary
//! (arming fault injection is process-global).
//!
//! The contract: cells whose measurement fails are recorded as degraded
//! with their typed error and left empty; every cell that still measures
//! cleanly is **bit-identical** to the strict, chaos-free run.

use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1_degraded, BenchConfig, Table1, TransitionOutcome,
};
use obd_spice::SimOptions;

/// Chaos arming is process-global; tests in this binary serialize here.
static GATE: Mutex<()> = Mutex::new(());

fn quick_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

fn cell(t: &Table1, row: usize, slot: usize) -> Option<TransitionOutcome> {
    if slot < 4 {
        t.rows[row].nmos[slot]
    } else {
        t.rows[row].pmos[slot - 4]
    }
}

#[test]
fn disarmed_degraded_run_matches_strict_run() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let tech = TechParams::date05();
    let cfg = quick_cfg();
    let opts = SimOptions::new();
    let strict = obd_core::characterize::characterize_table1(&tech, &cfg, &opts, 1).unwrap();
    let report = characterize_table1_degraded(&tech, &cfg, &opts);
    assert!(!report.is_degraded(), "clean run must not degrade");
    assert!(report.recovered.is_empty(), "clean run has no recoveries");
    assert_eq!(report.failures_json(), "[]");
    assert_eq!(
        report.table.render(),
        strict.render(),
        "degraded driver must be byte-identical to the strict driver on a clean run"
    );
}

#[test]
fn chaos_degrades_cells_but_keeps_surviving_cells_identical() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let tech = TechParams::date05();
    let cfg = quick_cfg();
    let opts = SimOptions::new();

    obd_chaos::disarm();
    let clean = characterize_table1_degraded(&tech, &cfg, &opts);
    assert!(!clean.is_degraded());

    // Scan seeds for one that degrades at least one cell but not all of
    // them, so both sides of the contract are observable.
    let total_cells = 30usize;
    let mut verified = false;
    for seed in 0..64 {
        obd_chaos::arm(seed, 8);
        let report = characterize_table1_degraded(&tech, &cfg, &opts);
        obd_chaos::disarm();
        let failed = report.failures.len();
        if failed == 0 || failed >= total_cells {
            continue;
        }
        // Every failure carries a typed, rendered error.
        for f in &report.failures {
            assert!(!f.error.is_empty(), "failure must carry its error");
        }
        let json = report.failures_json();
        assert!(json.contains("\"row\":"), "artifact must list failures");
        // Cells the injection layer never touched are bit-identical to
        // the clean run; recovered cells are valid but path-dependent,
        // so they are accounted separately and skipped here.
        for row in 0..report.table.rows.len() {
            for slot in 0..8 {
                if report
                    .failures
                    .iter()
                    .any(|f| f.row == row && f.slot == slot)
                {
                    assert!(
                        cell(&report.table, row, slot).is_none(),
                        "degraded cell must stay empty"
                    );
                    continue;
                }
                if report
                    .recovered
                    .iter()
                    .any(|r| r.row == row && r.slot == slot)
                {
                    assert!(
                        cell(&report.table, row, slot).is_some(),
                        "recovered cell must still carry a value"
                    );
                    continue;
                }
                let a = cell(&report.table, row, slot);
                let b = cell(&clean.table, row, slot);
                match (a, b) {
                    (Some(TransitionOutcome::Delay(x)), Some(TransitionOutcome::Delay(y))) => {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "row {row} slot {slot}: {x} vs clean {y}"
                        );
                    }
                    (a, b) => assert_eq!(a, b, "row {row} slot {slot}"),
                }
            }
        }
        verified = true;
        break;
    }
    assert!(
        verified,
        "no seed in 0..64 produced a partially degraded table"
    );
}
