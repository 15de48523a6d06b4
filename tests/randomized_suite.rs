//! Randomized property tests over generated combinational circuits.
//!
//! The workspace builds fully offline, so instead of a property-testing
//! crate these tests drive the suite's own seedable xorshift64* generator
//! ([`obd_suite::atpg::rng::XorShift64Star`]): every case is deterministic
//! and reproducible from its printed seed, on every platform.

use obd_suite::atpg::fault::{Fault, TwoPatternTest};
use obd_suite::atpg::faultsim::FaultSimulator;
use obd_suite::atpg::podem::{Podem, PodemOutcome, PodemRequest};
use obd_suite::atpg::rng::XorShift64Star;
use obd_suite::atpg::twoframe::{GenOutcome, TwoFrameAtpg};
use obd_suite::cmos::expand::decompose_for_expansion;
use obd_suite::logic::format::{parse_bench, to_bench};
use obd_suite::logic::netlist::{GateKind, NetId, Netlist};
use obd_suite::logic::sim::simulate;
use obd_suite::logic::soa::SoaNetlist;
use obd_suite::logic::value::{all_vectors, Lv};
use obd_suite::logic::wide::WideBlock;

/// A recipe for one random gate: kind selector plus input pickers.
#[derive(Debug, Clone)]
struct GateRecipe {
    kind_sel: u8,
    in_a: usize,
    in_b: usize,
}

/// Draws between 3 and `max_gates - 1` random gate recipes.
fn random_recipes(rng: &mut XorShift64Star, max_gates: usize) -> Vec<GateRecipe> {
    let n = 3 + rng.gen_range(max_gates - 3);
    (0..n)
        .map(|_| GateRecipe {
            kind_sel: rng.gen_range(6) as u8,
            in_a: rng.gen_range(64),
            in_b: rng.gen_range(64),
        })
        .collect()
}

/// Builds a random combinational netlist from recipes: each gate reads
/// from previously created nets, so the result is a DAG by construction.
fn build_circuit(n_inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| nl.add_input(&format!("i{i}")))
        .collect();
    for (k, r) in recipes.iter().enumerate() {
        let a = nets[r.in_a % nets.len()];
        let b = nets[r.in_b % nets.len()];
        let kind = match r.kind_sel % 6 {
            0 => GateKind::Nand,
            1 => GateKind::Nor,
            2 => GateKind::And,
            3 => GateKind::Or,
            4 => GateKind::Xor,
            _ => GateKind::Inv,
        };
        let out = if kind == GateKind::Inv {
            nl.add_gate(kind, &format!("g{k}"), &[a]).expect("fresh")
        } else {
            nl.add_gate(kind, &format!("g{k}"), &[a, b]).expect("fresh")
        };
        nets.push(out);
    }
    // Mark the last few nets as outputs.
    let n_out = 2.min(nets.len() - n_inputs).max(1);
    for &net in nets.iter().rev().take(n_out) {
        nl.mark_output(net);
    }
    nl
}

/// Runs `cases` deterministic cases of a property, each on a fresh RNG
/// derived from the property's own seed, so failures print a case index
/// that reproduces exactly.
fn for_cases(seed: u64, cases: u64, mut body: impl FnMut(&mut XorShift64Star, u64)) {
    for case in 0..cases {
        let mut rng = XorShift64Star::seed_from_u64(seed ^ (case.wrapping_mul(0x9E37_79B9)));
        body(&mut rng, case);
    }
}

/// 64-way parallel simulation (the SoA core over one-lane blocks)
/// agrees with scalar simulation.
#[test]
fn parallel_matches_scalar() {
    for_cases(0x5ca1ab1e, 48, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 24));
        let vectors: Vec<Vec<Lv>> = all_vectors(4).collect();
        let block = WideBlock::<1>::pack(&vectors).unwrap();
        let mut par = Vec::new();
        SoaNetlist::compile(&nl)
            .unwrap()
            .simulate_wide_into(&block, &mut par)
            .unwrap();
        for (k, v) in vectors.iter().enumerate() {
            let scalar = simulate(&nl, v).unwrap();
            for &po in nl.outputs() {
                assert_eq!(
                    Lv::from_bool(par[po.index()].bit(k)),
                    scalar.value(po),
                    "case {case}: pattern {k} at {}",
                    nl.net_name(po)
                );
            }
        }
    });
}

/// Serial, explicitly-threaded and auto-sized fault grading agree
/// exactly on random circuits, fault lists and two-pattern test sets.
#[test]
fn grade_variants_agree() {
    use obd_suite::atpg::random::random_two_pattern;
    for_cases(0x96ade, 24, |rng, case| {
        let source = build_circuit(4, &random_recipes(rng, 12));
        let nl = decompose_for_expansion(&source).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults =
            obd_suite::atpg::fault::obd_faults(&nl, obd_suite::obd::BreakdownStage::Mbd2, false);
        let n_tests = 1 + rng.gen_range(12);
        let tests = random_two_pattern(4, n_tests, rng.next_u64());
        let serial = sim.grade(&faults, &tests).unwrap();
        let auto = sim.grade_auto(&faults, &tests).unwrap();
        assert_eq!(serial, auto, "case {case}: grade_auto diverges");
        for threads in [2, 3, 7] {
            let parallel = sim.grade_parallel(&faults, &tests, threads).unwrap();
            assert_eq!(
                serial, parallel,
                "case {case}: grade_parallel({threads}) diverges"
            );
        }
    });
}

/// Text-format round-trips preserve the function.
#[test]
fn bench_format_roundtrip() {
    for_cases(0xb36c4, 48, |rng, case| {
        let nl = build_circuit(3, &random_recipes(rng, 20));
        let text = to_bench(&nl);
        let nl2 = parse_bench(&text).unwrap();
        for v in all_vectors(3) {
            let a = simulate(&nl, &v).unwrap().outputs(&nl);
            let b = simulate(&nl2, &v).unwrap().outputs(&nl2);
            assert_eq!(a, b, "case {case}");
        }
    });
}

/// Decomposition to INV/NAND/NOR preserves the function.
#[test]
fn decomposition_preserves_function() {
    for_cases(0xdec0, 48, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 20));
        let dec = decompose_for_expansion(&nl).unwrap();
        for g in dec.gates() {
            assert!(
                matches!(
                    g.kind,
                    GateKind::Inv | GateKind::Buf | GateKind::Nand | GateKind::Nor
                ),
                "case {case}: unexpected kind {:?}",
                g.kind
            );
        }
        for v in all_vectors(4) {
            let a = simulate(&nl, &v).unwrap().outputs(&nl);
            let b = simulate(&dec, &v).unwrap().outputs(&dec);
            assert_eq!(a, b, "case {case}");
        }
    });
}

/// Every PODEM-generated stuck-at test is verified by exhaustive
/// two-machine simulation, and every "untestable" verdict is confirmed
/// by exhaustive enumeration.
#[test]
fn podem_verdicts_are_sound() {
    for_cases(0x90de, 32, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 14));
        let mut podem = Podem::new(&nl).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        for f in obd_suite::atpg::fault::stuck_at_faults(&nl) {
            let (net, value) = match f {
                Fault::StuckAt { net, value } => (net, value),
                _ => unreachable!(),
            };
            match podem.run(&PodemRequest::stuck_at(net, value)) {
                PodemOutcome::Test(pis) => {
                    let full: Vec<Lv> = pis
                        .iter()
                        .map(|&v| if v == Lv::X { Lv::Zero } else { v })
                        .collect();
                    let t = TwoPatternTest {
                        v1: full.clone(),
                        v2: full,
                    };
                    assert!(
                        sim.detects(&f, &t).unwrap(),
                        "case {case}: {} not detected by its own test",
                        f.describe(&nl)
                    );
                }
                PodemOutcome::Untestable => {
                    // Exhaustive confirmation.
                    for v in all_vectors(4) {
                        let t = TwoPatternTest {
                            v1: v.clone(),
                            v2: v,
                        };
                        assert!(
                            !sim.detects(&f, &t).unwrap(),
                            "case {case}: {} claimed untestable but detected",
                            f.describe(&nl)
                        );
                    }
                }
                PodemOutcome::Aborted => panic!("case {case}: abort on tiny circuit"),
            }
        }
    });
}

/// Every OBD test the two-frame ATPG generates is verified by the fault
/// simulator; every untestable verdict is exhaustively confirmed.
#[test]
fn obd_atpg_verdicts_are_sound() {
    for_cases(0x0bd, 24, |rng, case| {
        let source = build_circuit(4, &random_recipes(rng, 12));
        let nl = decompose_for_expansion(&source).unwrap();
        let mut atpg = TwoFrameAtpg::new(&nl).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        let all_tests: Vec<TwoPatternTest> = obd_suite::atpg::random::exhaustive_two_pattern(4);
        for f in
            obd_suite::atpg::fault::obd_faults(&nl, obd_suite::obd::BreakdownStage::Mbd2, false)
        {
            match atpg.generate(&f).unwrap() {
                GenOutcome::Test(t) => {
                    assert!(
                        sim.detects(&f, &t).unwrap(),
                        "case {case}: {} not detected by {}",
                        f.describe(&nl),
                        t.render()
                    );
                }
                GenOutcome::Untestable => {
                    for t in &all_tests {
                        assert!(
                            !sim.detects(&f, t).unwrap(),
                            "case {case}: {} claimed untestable but {} detects it",
                            f.describe(&nl),
                            t.render()
                        );
                    }
                }
                GenOutcome::BelowSlack => panic!("case {case}: ideal slack never gates"),
                GenOutcome::Aborted => panic!("case {case}: abort on tiny circuit"),
            }
        }
    });
}

/// Event-driven timing simulation settles to the same final values as
/// static simulation of the final vector, on random circuits with random
/// per-kind delays.
#[test]
fn timing_sim_settles_to_static_values() {
    use obd_suite::logic::timing::{timing_simulate, DelayModel, InputEvent};
    for_cases(0x71313, 48, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 18));
        let rise = rng.gen_range_f64(5.0, 60.0);
        let fall = rng.gen_range_f64(5.0, 60.0);
        let delays = DelayModel::uniform(rise, fall);
        let initial = vec![Lv::Zero; 4];
        let mut final_vec = initial.clone();
        let n_flips = 1 + rng.gen_range(3);
        let events: Vec<InputEvent> = (0..n_flips)
            .map(|k| {
                let pi = rng.gen_range(4);
                final_vec[pi] = !final_vec[pi];
                InputEvent {
                    net: nl.inputs()[pi],
                    time_ps: 500.0 * (k as f64 + 1.0),
                    value: final_vec[pi],
                }
            })
            .collect();
        let timed = timing_simulate(&nl, &delays, &initial, &events).unwrap();
        let static_final = simulate(&nl, &final_vec).unwrap();
        for net in nl.net_ids() {
            assert_eq!(
                timed.wave(net).final_value(),
                static_final.value(net),
                "case {case}: net {} disagrees",
                nl.net_name(net)
            );
        }
    });
}

/// STA's arrival time is a safe upper bound on the event-driven settle
/// time for a single input event.
#[test]
fn sta_bounds_event_driven_settling() {
    use obd_suite::logic::sta::analyze;
    use obd_suite::logic::timing::{timing_simulate, DelayModel, InputEvent};
    for_cases(0x57a, 48, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 18));
        let d = rng.gen_range_f64(5.0, 50.0);
        let pi = rng.gen_range(4);
        let delays = DelayModel::uniform(d, d);
        let report = analyze(&nl, &delays, 1e6).unwrap();
        let initial = vec![Lv::Zero; 4];
        let events = vec![InputEvent {
            net: nl.inputs()[pi],
            time_ps: 0.0,
            value: Lv::One,
        }];
        let timed = timing_simulate(&nl, &delays, &initial, &events).unwrap();
        for net in nl.net_ids() {
            if let Some(t_last) = timed.wave(net).last_transition() {
                // The event queue quantizes times to femtoseconds.
                assert!(
                    t_last <= report.arrival(net) + 2e-3,
                    "case {case}: net {} settles at {} beyond STA arrival {}",
                    nl.net_name(net),
                    t_last,
                    report.arrival(net)
                );
            }
        }
    });
}

/// SCOAP invariants on random circuits: PIs cost 1, POs observe for
/// free, and every net on a path to a PO has finite measures.
#[test]
fn scoap_invariants() {
    use obd_suite::atpg::scoap::Scoap;
    for_cases(0x5c0a, 48, |rng, case| {
        let nl = build_circuit(4, &random_recipes(rng, 20));
        let s = Scoap::compute(&nl).unwrap();
        for &pi in nl.inputs() {
            assert_eq!(s.cc0(pi), 1, "case {case}");
            assert_eq!(s.cc1(pi), 1, "case {case}");
        }
        for &po in nl.outputs() {
            assert_eq!(s.co(po), 0, "case {case}");
        }
        for net in nl.net_ids() {
            // Controllability is always finite (all nets are driven).
            assert!(s.cc0(net) < 1_000_000, "case {case}");
            assert!(s.cc1(net) < 1_000_000, "case {case}");
        }
    });
}

/// OBD excitation is always a subset of EM excitation (sole path implies
/// some path), on random series-parallel cells.
#[test]
fn obd_subset_of_em_on_random_cells() {
    use obd_suite::cmos::cell::Cell;
    use obd_suite::cmos::topology::SpNet;
    for_cases(0x0b_d5eb, 64, |rng, case| {
        let pins = 2 + rng.gen_range(3);
        let shape = rng.gen_range(4) as u32;
        // Build a small random series-parallel pulldown over `pins` pins.
        let leaves: Vec<SpNet> = (0..pins).map(SpNet::Leaf).collect();
        let net = match shape {
            0 => SpNet::Series(leaves),
            1 => SpNet::Parallel(leaves),
            2 => SpNet::Parallel(vec![
                SpNet::Series(leaves[..pins / 2 + 1].to_vec()),
                SpNet::Series(leaves[pins / 2..].to_vec()),
            ]),
            _ => SpNet::Series(vec![
                SpNet::Parallel(leaves[..pins / 2 + 1].to_vec()),
                SpNet::Parallel(leaves[pins / 2..].to_vec()),
            ]),
        };
        let cell = Cell::from_pulldown("RND", pins, net);
        for t in obd_suite::cmos::switch::all_transistors(&cell) {
            let cmp = obd_suite::obd::em::compare_excitation(&cell, t);
            assert!(cmp.obd_only.is_empty(), "case {case}");
        }
    });
}
