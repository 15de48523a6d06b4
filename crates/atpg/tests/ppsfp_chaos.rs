//! Chaos-armed tests for degraded grading on the PPSFP engine: a
//! `Degraded` fault must stop consuming tests (fault dropping in the
//! failure path), and the `atpg.faults_degraded` / injection accounting
//! must be exact — every injection produces exactly one degraded
//! outcome and vice versa.

use std::sync::{Mutex, PoisonError};

use obd_atpg::fault::{obd_faults, stuck_at_faults};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, DROPPING_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;

/// Chaos arming and the metrics registry are process-wide; serialize.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// At rate 1000 every evaluation fires: each fault degrades at its very
/// first unit of work and drops immediately, so the campaign injects
/// *exactly one* failure per fault no matter how many blocks the test
/// set spans.
#[test]
fn degraded_fault_stops_consuming_tests() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obd_metrics::enable();
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
    // 300 tests -> 5 packed blocks at the dropping width; without
    // dropping a rate-1000 campaign would inject once per (fault, block).
    let tests = random_two_pattern(nl.inputs().len(), 300, 9);
    let engine = PpsfpEngine::<DROPPING_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(engine.num_blocks(), 5);

    obd_chaos::arm(0xC0FFEE, 1000);
    let before_degraded = obd_metrics::snapshot()
        .counter("atpg.faults_degraded")
        .unwrap_or(0);
    let outcomes = sim.grade_degraded(&faults, &tests);
    let injected = obd_chaos::injected_total();
    obd_chaos::disarm();

    assert!(outcomes.iter().all(|o| o.is_degraded()));
    assert_eq!(
        injected,
        faults.len() as u64,
        "a degraded fault must not keep consuming blocks"
    );
    let after_degraded = obd_metrics::snapshot()
        .counter("atpg.faults_degraded")
        .unwrap_or(0);
    assert_eq!(
        after_degraded - before_degraded,
        faults.len() as u64,
        "FAULTS_DEGRADED must count each degraded fault exactly once"
    );
}

/// At a partial rate the ledger still balances exactly: every injection
/// yields one chaos-degraded outcome, every non-degraded fault saw no
/// injection, and detected/undetected splits match the clean run for
/// the faults chaos left alone... which is exactly what the repro chaos
/// campaign's `injected == recovered + degraded + reported` accounting
/// relies on.
#[test]
fn partial_rate_accounting_is_exact() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obd_metrics::enable();
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let mut faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
    faults.extend(stuck_at_faults(&nl));
    let tests = random_two_pattern(nl.inputs().len(), 150, 31);
    let clean = sim.grade_degraded(&faults, &tests);
    assert!(clean.iter().all(|o| !o.is_degraded()));

    obd_chaos::arm(0xDECAF, 250);
    let outcomes = sim.grade_degraded(&faults, &tests);
    let injected = obd_chaos::injected_total();
    obd_chaos::disarm();

    let degraded = outcomes.iter().filter(|o| o.is_degraded()).count() as u64;
    assert_eq!(
        injected, degraded,
        "each injection must produce exactly one degraded outcome"
    );
    assert!(
        degraded > 0,
        "rate 250 over {} faults must fire",
        faults.len()
    );
    assert!(
        degraded < faults.len() as u64,
        "rate 250 must leave some faults untouched"
    );
    for (o, c) in outcomes.iter().zip(clean.iter()) {
        if !o.is_degraded() {
            assert_eq!(o, c, "faults chaos skipped must grade as in the clean run");
        }
    }
}

/// Detected faults drop in the degraded path too: at rate 0 (armed but
/// never firing) outcomes equal the clean engine results.
#[test]
fn armed_zero_rate_is_the_clean_run() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
    let tests = random_two_pattern(nl.inputs().len(), 150, 4);
    let detected = sim.grade(&faults, &tests).unwrap();

    obd_chaos::arm(7, 0);
    let outcomes = sim.grade_degraded(&faults, &tests);
    assert_eq!(obd_chaos::injected_total(), 0);
    obd_chaos::disarm();
    for (o, &d) in outcomes.iter().zip(detected.iter()) {
        assert_eq!(o.is_detected(), d);
        assert!(!o.is_degraded());
    }
}
