//! Cross-layer consistency: the structural (switch-level) excitation
//! predicate used by the ATPG must agree with the analog diode-resistor
//! model — for every transistor of the NAND and for every two-pattern
//! input sequence.
//!
//! This is the load-bearing check of the whole reproduction: the paper's
//! §4.1 conditions are derived structurally, then validated in SPICE; we
//! do the same with our own simulator.

use obd_suite::cmos::cell::Cell;
use obd_suite::cmos::switch::{excites, CellTransistor, NetworkSide};
use obd_suite::cmos::TechParams;
use obd_suite::obd::characterize::{
    measure_transition, BenchConfig, BenchDefect, TransitionOutcome,
};
use obd_suite::obd::faultmodel::Polarity;
use obd_suite::obd::BreakdownStage;

fn coarse_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 400.0,
        window_ps: 2200.0,
        step_ps: 6.0,
        at_speed_ps: None,
    }
}

/// Delay (or stuck marker) for a given defect and sequence.
fn measured(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
) -> TransitionOutcome {
    measure_transition(tech, defect, v1, v2, &coarse_cfg()).expect("bench must simulate")
}

#[test]
fn switch_level_excitation_matches_analog_for_every_nand_sequence() {
    let tech = TechParams::date05();
    let cell = Cell::nand(2);
    let vectors = [[false, false], [false, true], [true, false], [true, true]];

    // Stages and tolerances per polarity. NMOS is checked at SBD: from
    // MBD2 onward the *static* input-level degradation already corrupts
    // the quiescent state (see `nmos_static_corruption_beyond_mbd2`),
    // which the quasi-static excitation model deliberately does not
    // cover. PMOS is checked at MBD2, the paper's 736 ps row.
    let cases = [
        (
            NetworkSide::Pulldown,
            Polarity::Nmos,
            BreakdownStage::Sbd,
            60.0,
            40.0,
        ),
        (
            NetworkSide::Pullup,
            Polarity::Pmos,
            BreakdownStage::Mbd2,
            60.0,
            90.0,
        ),
    ];
    for (side, polarity, stage, masked_tol_ps, excited_min_ps) in cases {
        for leaf in 0..2 {
            let transistor = CellTransistor { side, leaf };
            let pin = transistor.pin(&cell);
            let params = stage.params(polarity).expect("ladder");
            let defect = BenchDefect {
                pin,
                polarity,
                params,
            };
            for v1 in vectors {
                for v2 in vectors {
                    if v1 == v2 {
                        continue;
                    }
                    // Only compare sequences where the NAND output switches
                    // (otherwise there is no delay to measure), and only in
                    // the direction the defect slows — the quadrant the
                    // paper's §4.1 claims concern. (In the opposite
                    // direction the defect's leak still perturbs timing
                    // slightly — e.g. a PMOS breakdown injects VDD-side
                    // current into a falling output — but no masking claim
                    // is made there.)
                    let out1 = !(v1[0] && v1[1]);
                    let out2 = !(v2[0] && v2[1]);
                    if out1 == out2 {
                        continue;
                    }
                    let relevant_direction = match polarity {
                        Polarity::Nmos => !out2, // falling output
                        Polarity::Pmos => out2,  // rising output
                    };
                    if !relevant_direction {
                        continue;
                    }
                    let predicted = excites(&cell, transistor, &v1, &v2);
                    let base = measured(&tech, None, v1, v2)
                        .delay_ps()
                        .expect("fault-free bench always switches");
                    let with_defect = measured(&tech, Some(defect), v1, v2);
                    match (predicted, with_defect) {
                        (true, TransitionOutcome::Delay(d)) => assert!(
                            d > base + excited_min_ps,
                            "{polarity} pin{pin} {v1:?}->{v2:?}: predicted excited but analog delay {d:.0} vs base {base:.0}"
                        ),
                        (true, TransitionOutcome::Stuck) => {
                            // Stronger-than-delay manifestation: fine.
                        }
                        (false, TransitionOutcome::Delay(d)) => assert!(
                            (d - base).abs() < masked_tol_ps,
                            "{polarity} pin{pin} {v1:?}->{v2:?}: predicted masked but analog delay {d:.0} vs base {base:.0}"
                        ),
                        (false, TransitionOutcome::Stuck) => panic!(
                            "{polarity} pin{pin} {v1:?}->{v2:?}: predicted masked but output stuck"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn nor_duality_holds_in_analog_model_via_switch_predicate() {
    // The §5 NOR result is derived from the same structural predicate the
    // analog test above validates; spot-check the predicate's NOR dual
    // here (full analog NOR characterization lives in the bench crate).
    let cell = Cell::nor(2);
    let pmos_a = CellTransistor {
        side: NetworkSide::Pullup,
        leaf: 0,
    };
    // Series PMOS: any rising-output sequence excites.
    for v1 in [[true, false], [false, true], [true, true]] {
        assert!(excites(&cell, pmos_a, &v1, &[false, false]));
    }
    let nmos_a = CellTransistor {
        side: NetworkSide::Pulldown,
        leaf: 0,
    };
    // Parallel NMOS: only the single-input rise on A.
    assert!(excites(&cell, nmos_a, &[false, false], &[true, false]));
    assert!(!excites(&cell, nmos_a, &[false, false], &[true, true]));
}

/// From MBD2 on, an NMOS defect leaks so much current from its *input*
/// net that the driving gate can no longer hold a clean logic 1 — the
/// defect corrupts static behavior and becomes visible to static tests
/// too. This is the upstream-damage mechanism of the paper's Fig. 2 and
/// the reason Table 1's NB column collapses to `sa-1` before HBD.
#[test]
fn nmos_static_corruption_beyond_mbd2() {
    let tech = TechParams::date05();
    let params = BreakdownStage::Mbd2.params(Polarity::Nmos).expect("ladder");
    let defect = BenchDefect {
        pin: 1,
        polarity: Polarity::Nmos,
        params,
    };
    // (11,10): output should rise when B falls. With the pin-1 NMOS
    // defect, B's static high level is already degraded, so the analog
    // output misbehaves even though the structural model calls the
    // defect "masked" for this sequence.
    let outcome = measured(&tech, Some(defect), [true, true], [true, false]);
    match outcome {
        TransitionOutcome::Stuck => {}
        TransitionOutcome::Delay(d) => {
            let base = measured(&tech, None, [true, true], [true, false])
                .delay_ps()
                .expect("baseline switches");
            assert!(
                (d - base).abs() > 50.0,
                "expected visible static corruption; delay {d:.0} vs base {base:.0}"
            );
        }
    }
}
