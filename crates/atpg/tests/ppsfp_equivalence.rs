//! Randomized scalar-vs-packed equivalence for the PPSFP grading engine.
//!
//! The packed path must be *bit-exact* with the scalar reference
//! (`FaultSimulator::grade_scalar` / `detects`) across every fault model,
//! every block-boundary test count (1, 63, 64, 65, …), X-bearing test
//! sets (which fall back to the scalar path), and the parallel
//! work-stealing grader.

use obd_atpg::bist::run_bist;
use obd_atpg::fault::{
    em_faults, obd_faults, stuck_at_faults, transition_faults, Fault, TwoPatternTest,
};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_atpg::AtpgError;
use obd_core::BreakdownStage;
use obd_logic::circuits::{c17, fig8_sum_circuit, mux_tree, ripple_carry_adder};
use obd_logic::netlist::Netlist;
use obd_logic::value::Lv;

/// Every fault model at once: stuck-at, transition, OBD in the delay
/// regime (MBD2), OBD in the stuck regime (HBD), and EM.
fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults.extend(obd_faults(nl, BreakdownStage::Hbd, false));
    faults.extend(em_faults(nl, false));
    faults
}

fn circuits() -> Vec<(&'static str, Netlist)> {
    vec![
        ("c17", c17()),
        ("fig8", fig8_sum_circuit()),
        ("rca2", ripple_carry_adder(2)),
        ("mux2", mux_tree(2)),
    ]
}

/// The core randomized equivalence sweep, hitting the 1/63/64/65 block
/// boundaries the packing logic must get right.
#[test]
fn packed_grade_matches_scalar_at_block_boundaries() {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        for (seed, count) in [(11u64, 1usize), (12, 63), (13, 64), (14, 65), (15, 130)] {
            let tests = random_two_pattern(nl.inputs().len(), count, seed);
            let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
            assert_eq!(
                engine.num_blocks(),
                count.div_ceil(64 * SUPERLANE_WIDTH),
                "{name}/{count}"
            );
            assert_eq!(engine.scalar_fallback_tests(), 0, "{name}/{count}");
            let scalar = sim.grade_scalar(&faults, &tests).unwrap();
            let packed = sim.grade(&faults, &tests).unwrap();
            assert_eq!(packed, scalar, "{name} with {count} tests");
        }
    }
}

/// Generic width sweep: at every supported super-lane width the packed
/// grader (serial and work-stealing parallel) is bit-exact with the
/// scalar reference, and the block count honors the widened capacity.
fn sweep_width<const N: usize>(counts: &[usize]) {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        for (i, &count) in counts.iter().enumerate() {
            let tests = random_two_pattern(nl.inputs().len(), count, 0x51EE + i as u64);
            let engine = PpsfpEngine::<N>::prepare(&sim, &tests).unwrap();
            assert_eq!(
                engine.num_blocks(),
                count.div_ceil(64 * N),
                "{name}/{count}/N={N}"
            );
            assert_eq!(engine.scalar_fallback_tests(), 0, "{name}/{count}/N={N}");
            let scalar = sim.grade_scalar(&faults, &tests).unwrap();
            assert_eq!(
                engine.grade(&faults).unwrap(),
                scalar,
                "{name}/{count}/N={N}"
            );
            for threads in [2, 3, 7] {
                assert_eq!(
                    engine.grade_parallel(&faults, threads).unwrap(),
                    scalar,
                    "{name}/{count}/N={N} threads={threads}"
                );
            }
        }
    }
}

/// N=1 degenerates to the old single-`u64` engine; its boundaries sit
/// at 63/64/65.
#[test]
fn width_1_matches_scalar_at_its_boundaries() {
    sweep_width::<1>(&[1, 63, 64, 65, 130]);
}

/// N=4 blocks hold 256 patterns; straddle that boundary.
#[test]
fn width_4_matches_scalar_at_its_boundaries() {
    sweep_width::<4>(&[1, 255, 256, 257]);
}

/// N=8 (the default) blocks hold 512 patterns; straddle that boundary.
#[test]
fn width_8_matches_scalar_at_its_boundaries() {
    sweep_width::<8>(&[1, 511, 512, 513]);
}

/// Satellite: `grade`, `grade_scalar` and `grade_parallel` all agree —
/// the loop-order asymmetry (test-major scalar vs fault-major parallel)
/// is gone; everything is fault-major with dropping on the engine.
#[test]
fn loop_order_unified_across_all_graders() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 100, 77);
    let scalar = sim.grade_scalar(&faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
    for threads in [1usize, 2, 3, 7] {
        assert_eq!(
            sim.grade_parallel(&faults, &tests, threads).unwrap(),
            scalar,
            "threads = {threads}"
        );
    }
    assert_eq!(sim.grade_auto(&faults, &tests).unwrap(), scalar);
}

/// Satellite: the adaptive-width grader (narrow warm-up rounds, then
/// super-lanes for the stabilized survivor set) produces detection
/// vectors bit-identical with fixed-width grading — across circuits,
/// test counts straddling the warm-up budget, and thread counts.
#[test]
fn adaptive_grade_matches_fixed_width_detection_vectors() {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        // 40: inside one narrow round; 130: several narrow rounds;
        // 600: past the 256-test warm-up budget, so the wide phase
        // grades a strict superset of the narrow prefix.
        for (seed, count) in [(31u64, 40usize), (32, 130), (33, 600)] {
            let tests = random_two_pattern(nl.inputs().len(), count, seed);
            let scalar = sim.grade_scalar(&faults, &tests).unwrap();
            for threads in [1usize, 4] {
                let adaptive =
                    obd_atpg::ppsfp::grade_adaptive(&sim, &tests, &faults, threads).unwrap();
                assert_eq!(
                    adaptive.detected, scalar,
                    "{name}/{count} threads={threads}"
                );
                assert!(adaptive.narrow_rounds >= 1, "{name}/{count}");
                // When the wide phase runs, every fault either dropped
                // in a narrow round or was handed over as a survivor.
                if adaptive.wide_survivors > 0 {
                    assert_eq!(
                        adaptive.narrow_detections + adaptive.wide_survivors,
                        faults.len(),
                        "{name}/{count} adaptive accounting"
                    );
                }
                assert_eq!(
                    sim.grade_adaptive(&faults, &tests, threads).unwrap(),
                    scalar,
                    "{name}/{count} simulator wrapper"
                );
            }
        }
    }
}

/// A warm-up that covers the whole (fully specified) test set without an
/// early stabilization exit settles every fault narrow-only: survivors
/// are definitively undetected and no wide engine is built.
#[test]
fn adaptive_settles_narrow_when_warmup_covers_all_tests() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    // Stuck-at faults on c17 are drop-heavy: random patterns detect the
    // bulk within the first rounds, keeping the drop rate above the
    // stabilization threshold until the list is exhausted.
    let faults = stuck_at_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 64, 7);
    let adaptive = obd_atpg::ppsfp::grade_adaptive(&sim, &tests, &faults, 2).unwrap();
    assert_eq!(adaptive.narrow_rounds, 1, "single 64-test narrow block");
    assert_eq!(adaptive.wide_survivors, 0, "warm-up covered every test");
    assert_eq!(
        adaptive.detected,
        sim.grade_scalar(&faults, &tests).unwrap()
    );
}

/// X-bearing warm-up tests route through the wide engine's scalar
/// fallback, so adaptive grading stays bit-identical on partially
/// specified test sets too.
#[test]
fn adaptive_grade_handles_x_bearing_tests() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    // Partially specified: X-bearing tests skip the narrow warm-up and
    // grade through the wide engine's scalar fallback (when survivors
    // reach it).
    let mut tests = random_two_pattern(nl.inputs().len(), 90, 17);
    for (i, t) in tests.iter_mut().enumerate() {
        if i % 4 == 0 {
            t.v1[i % 5] = Lv::X;
        }
    }
    let adaptive = obd_atpg::ppsfp::grade_adaptive(&sim, &tests, &faults, 3).unwrap();
    assert_eq!(
        adaptive.detected,
        sim.grade_scalar(&faults, &tests).unwrap()
    );
    // Fully X-bearing: nothing packs, the narrow warm-up has no blocks
    // and every fault reaches the wide engine's scalar fallback.
    for t in tests.iter_mut() {
        t.v1[0] = Lv::X;
    }
    let adaptive = obd_atpg::ppsfp::grade_adaptive(&sim, &tests, &faults, 3).unwrap();
    assert_eq!(adaptive.wide_survivors, faults.len());
    assert_eq!(adaptive.narrow_detections, 0);
    assert_eq!(
        adaptive.detected,
        sim.grade_scalar(&faults, &tests).unwrap()
    );
}

/// Degenerate adaptive inputs keep the grading contract.
#[test]
fn adaptive_degenerate_inputs() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let tests = random_two_pattern(5, 10, 3);
    assert_eq!(
        sim.grade_adaptive(&[], &tests, 2).unwrap(),
        Vec::<bool>::new()
    );
    let no_tests = obd_atpg::ppsfp::grade_adaptive(&sim, &[], &faults, 2).unwrap();
    assert_eq!(no_tests.detected, vec![false; faults.len()]);
    assert_eq!(no_tests.narrow_rounds, 0);
}

/// X-bearing tests cannot be packed two-valued (X packs as 0, which
/// would change detection); they must route through the scalar fallback
/// and still produce identical results.
#[test]
fn x_bearing_tests_fall_back_to_scalar_path() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let mut tests = random_two_pattern(nl.inputs().len(), 70, 99);
    // Poke X bits into a third of the tests, in both frames.
    for (i, t) in tests.iter_mut().enumerate() {
        match i % 3 {
            0 => t.v1[i % 5] = Lv::X,
            1 => t.v2[(i + 2) % 5] = Lv::X,
            _ => {}
        }
    }
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert!(engine.scalar_fallback_tests() > 0, "X tests must not pack");
    assert!(engine.num_blocks() > 0, "specified tests must still pack");
    let scalar = sim.grade_scalar(&faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
    assert_eq!(sim.grade_parallel(&faults, &tests, 4).unwrap(), scalar);
    // The X fallback partition is width-independent: narrow widths agree.
    let narrow = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    assert_eq!(
        narrow.scalar_fallback_tests(),
        engine.scalar_fallback_tests()
    );
    assert_eq!(narrow.grade(&faults).unwrap(), scalar);
    let mid = PpsfpEngine::<4>::prepare(&sim, &tests).unwrap();
    assert_eq!(mid.grade(&faults).unwrap(), scalar);
}

/// An all-X test set leaves the packed path completely empty and still
/// grades correctly.
#[test]
fn all_x_test_set_grades_scalar_only() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let tests = vec![
        TwoPatternTest {
            v1: vec![Lv::X; 5],
            v2: vec![Lv::X; 5],
        };
        3
    ];
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(engine.num_blocks(), 0);
    assert_eq!(engine.scalar_fallback_tests(), 3);
    let scalar = sim.grade_scalar(&faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
}

/// The engine-backed detection matrix equals direct per-pair `detects`.
#[test]
fn detection_matrix_matches_direct_detects() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 70, 5);
    let matrix = sim.detection_matrix(&faults, &tests).unwrap();
    assert_eq!(matrix.len(), tests.len());
    for (t, row) in matrix.iter().enumerate() {
        for (f, &hit) in row.iter().enumerate() {
            assert_eq!(
                hit,
                sim.detects(&faults[f], &tests[t]).unwrap(),
                "matrix[{t}][{f}]"
            );
        }
    }
}

/// A single fault's packed detection row equals per-test `detects`.
#[test]
fn detection_row_matches_per_test_detects() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = random_two_pattern(nl.inputs().len(), 130, 21);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    let mut scratch = PpsfpScratch::default();
    for fault in mixed_faults(&nl).iter().step_by(7) {
        let row = engine.detection_row(fault, &mut scratch).unwrap();
        for (t, &hit) in row.iter().enumerate() {
            assert_eq!(hit, sim.detects(fault, &tests[t]).unwrap(), "test {t}");
        }
    }
}

/// Malformed vectors surface as the same typed error the scalar path
/// produced, and `grade_degraded` degrades every fault on them.
#[test]
fn vector_width_errors_preserved() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let bad = vec![TwoPatternTest::from_bools(&[true, false], &[true, false])];
    assert!(matches!(
        sim.grade(&faults, &bad),
        Err(AtpgError::VectorWidth {
            expected: 5,
            found: 2
        })
    ));
    assert!(matches!(
        sim.grade_parallel(&faults, &bad, 4),
        Err(AtpgError::VectorWidth { .. })
    ));
    let outcomes = sim.grade_degraded(&faults, &bad);
    assert_eq!(outcomes.len(), faults.len());
    assert!(outcomes.iter().all(|o| o.is_degraded()));
}

/// Two faults that cannot be planned (EM on XOR gates, which have no
/// cell model) at fault indices i < j: every thread count reports the
/// lower-indexed one, whichever worker fails first.
#[test]
fn lowest_indexed_planning_error_wins_at_any_thread_count() {
    use obd_core::faultmodel::Polarity;
    use obd_logic::netlist::GateKind;
    let mut nl = Netlist::new();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let n1 = nl.add_gate(GateKind::Nand, "n1", &[a, b]).unwrap();
    let xa = nl.add_gate(GateKind::Xor, "xa", &[n1, c]).unwrap();
    let xb = nl.add_gate(GateKind::Xor, "xb", &[a, c]).unwrap();
    let y = nl.add_gate(GateKind::Nand, "y", &[xa, xb]).unwrap();
    nl.mark_output(y);
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = random_two_pattern(3, 200, 5);
    let em = |name: &str| Fault::Em {
        gate: nl.driver(nl.find_net(name).unwrap()).unwrap(),
        pin: 0,
        polarity: Polarity::Nmos,
    };
    let mut faults = Vec::new();
    for _ in 0..20 {
        faults.extend(stuck_at_faults(&nl));
    }
    let (i, j) = (faults.len() / 2, faults.len() - 1);
    faults.insert(i, em("xa"));
    faults.insert(j, em("xb"));
    for (lo, hi) in [("xa", "xb"), ("xb", "xa")] {
        faults[i] = em(lo);
        faults[j] = em(hi);
        for threads in [1usize, 2, 3, 4, 7, 16] {
            assert_eq!(
                sim.grade_parallel(&faults, &tests, threads),
                Err(AtpgError::UnsupportedGate { gate: lo.into() }),
                "threads = {threads}"
            );
        }
    }
}

/// Empty fault lists and empty test sets keep the scalar contract.
#[test]
fn degenerate_inputs_match_scalar() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let tests = random_two_pattern(5, 10, 3);
    assert_eq!(sim.grade(&[], &tests).unwrap(), Vec::<bool>::new());
    assert_eq!(
        sim.grade(&faults, &[]).unwrap(),
        vec![false; faults.len()],
        "no tests detect nothing"
    );
}

/// Degraded grading without injection equals plain grading outcomes,
/// and a detected fault drops (the engine result, not a test-major
/// sweep, decides this — detected means some test in the set fires).
#[test]
fn degraded_outcomes_match_grade_when_nothing_fails() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 80, 42);
    let detected = sim.grade(&faults, &tests).unwrap();
    let outcomes = sim.grade_degraded(&faults, &tests);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.is_detected(), detected[i], "fault {i}");
        assert!(!o.is_degraded());
    }
}

/// BIST signatures are unchanged by the engine rewiring: a healthy run
/// passes and a run with a detectable fault fails, with per-test failure
/// flags identical to scalar `detects`.
#[test]
fn bist_row_rewiring_keeps_signatures() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = obd_atpg::bist::lfsr_two_pattern_tests(3, 128, 8, 0x33);
    let healthy = run_bist(&nl, None, &tests).unwrap();
    assert!(!healthy.fails());
    let faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
    let f = faults
        .iter()
        .find(|f| {
            let det = sim.grade_scalar(std::slice::from_ref(f), &tests).unwrap();
            det[0]
        })
        .expect("some OBD fault detectable by 128 LFSR patterns");
    let faulty = run_bist(&nl, Some(f), &tests).unwrap();
    assert!(faulty.fails());
}
