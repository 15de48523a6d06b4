//! Two-pattern fault simulation for all fault models.
//!
//! Detection semantics:
//!
//! * **Stuck-at** — either frame detects classically (faulty machine with
//!   the net forced differs at a PO).
//! * **Transition** — the net must make the slowed transition between the
//!   frames; the fault effect is the frame-1 value persisting at the net
//!   in frame 2, which must reach a PO.
//! * **OBD** — like transition, but (a) excitation additionally requires
//!   the paper's sole-conducting-path condition at the defective gate's
//!   inputs, (b) the stage's extra delay must exceed the detection slack,
//!   and (c) at stuck stages the fault degenerates into an output
//!   stuck-at.
//! * **EM** — like OBD with the weaker on-some-path excitation and no
//!   stage ladder (any excited transition assumed observable).

use obd_cmos::switch::excites;
use obd_core::characterize::DelayTable;
use obd_core::em::em_excites;
use obd_core::faultmodel::{cell_for_kind, ObdFault, Polarity};
use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_logic::sim::simulate_with_order;
use obd_logic::soa::SoaNetlist;
use obd_logic::value::Lv;

use crate::fault::{DetectionCriterion, Fault, SlowTo, TwoPatternTest};
use crate::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use crate::AtpgError;
use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Faults graded (per grading call, counted once per fault).
static FAULTS_GRADED: Counter = Counter::new("atpg.faults_graded");
/// Faults found detected by a grading call.
static FAULTS_DETECTED: Counter = Counter::new("atpg.faults_detected");
/// Faults whose grading failed and was degraded instead of aborting.
static FAULTS_DEGRADED: Counter = Counter::new("atpg.faults_degraded");
/// Injects a per-fault grading failure into [`FaultSimulator::grade_degraded`].
static CHAOS_GRADE: InjectionPoint = InjectionPoint::new("atpg.grade_error");

/// Per-fault outcome of [`FaultSimulator::grade_degraded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradeOutcome {
    /// At least one test detects the fault.
    Detected,
    /// No test in the set detects the fault.
    Undetected,
    /// Grading this fault failed; the error is recorded and the campaign
    /// continues with the remaining faults.
    Degraded(String),
}

impl GradeOutcome {
    /// Whether the fault was detected.
    pub fn is_detected(&self) -> bool {
        matches!(self, GradeOutcome::Detected)
    }

    /// Whether grading this fault failed.
    pub fn is_degraded(&self) -> bool {
        matches!(self, GradeOutcome::Degraded(_))
    }
}

/// A prepared fault simulator for one netlist.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) order: Vec<GateId>,
    /// The netlist compiled once into the flat levelized layout the
    /// packed engines walk.
    pub(crate) soa: SoaNetlist,
    pub(crate) table: DelayTable,
    criterion: DetectionCriterion,
    /// Per-gate at-speed slack (ps) from STA, replacing the global
    /// criterion when present.
    gate_slack: Option<Vec<f64>>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a simulator with the paper's published delay table and an
    /// ideal detection criterion.
    ///
    /// # Errors
    ///
    /// Propagates structural netlist errors.
    pub fn new(nl: &'a Netlist) -> Result<Self, AtpgError> {
        Self::with_criterion(nl, DelayTable::paper(), DetectionCriterion::ideal())
    }

    /// Creates a simulator with explicit delay data and slack.
    ///
    /// # Errors
    ///
    /// Propagates structural netlist errors.
    pub fn with_criterion(
        nl: &'a Netlist,
        table: DelayTable,
        criterion: DetectionCriterion,
    ) -> Result<Self, AtpgError> {
        let order = nl.levelize()?;
        let soa = SoaNetlist::compile(nl)?;
        Ok(FaultSimulator {
            nl,
            order,
            soa,
            table,
            criterion,
            gate_slack: None,
        })
    }

    /// Creates a simulator whose detection slack comes from static timing
    /// analysis at a concrete capture clock: a defect at gate `g` is
    /// detectable at-speed iff its extra delay exceeds `g`'s path slack —
    /// the per-site version of §4.2's slack argument.
    ///
    /// # Errors
    ///
    /// Propagates structural netlist errors.
    pub fn with_clock(
        nl: &'a Netlist,
        table: DelayTable,
        delays: &obd_logic::timing::DelayModel,
        clock_ps: f64,
    ) -> Result<Self, AtpgError> {
        let order = nl.levelize()?;
        let soa = SoaNetlist::compile(nl)?;
        let report = obd_logic::sta::analyze(nl, delays, clock_ps)?;
        let gate_slack = nl
            .gate_ids()
            .map(|g| report.slack(nl.gate(g).output).max(0.0))
            .collect();
        Ok(FaultSimulator {
            nl,
            order,
            soa,
            table,
            criterion: DetectionCriterion::ideal(),
            gate_slack: Some(gate_slack),
        })
    }

    /// The detection slack applied to a defect at this gate.
    pub(crate) fn slack_for(&self, gate: GateId) -> f64 {
        match &self.gate_slack {
            Some(v) => v[gate.index()],
            None => self.criterion.slack_ps,
        }
    }

    /// Simulates one frame with optional forced net values, returning all
    /// net values.
    fn sim_forced(&self, inputs: &[Lv], forced: &[(NetId, Lv)]) -> Result<Vec<Lv>, AtpgError> {
        if inputs.len() != self.nl.inputs().len() {
            return Err(AtpgError::VectorWidth {
                expected: self.nl.inputs().len(),
                found: inputs.len(),
            });
        }
        let mut values = vec![Lv::X; self.nl.num_nets()];
        for (i, &n) in self.nl.inputs().iter().enumerate() {
            values[n.index()] = inputs[i];
        }
        for &(n, v) in forced {
            values[n.index()] = v;
        }
        let mut scratch = Vec::new();
        for &g in &self.order {
            let gate = self.nl.gate(g);
            if forced.iter().any(|&(n, _)| n == gate.output) {
                continue; // forced nets keep their value
            }
            scratch.clear();
            scratch.extend(gate.inputs.iter().map(|n| values[n.index()]));
            values[gate.output.index()] = gate.kind.eval(&scratch);
        }
        Ok(values)
    }

    fn outputs_of(&self, values: &[Lv]) -> Vec<Lv> {
        self.nl
            .outputs()
            .iter()
            .map(|n| values[n.index()])
            .collect()
    }

    fn outputs_differ(a: &[Lv], b: &[Lv]) -> bool {
        a.iter()
            .zip(b.iter())
            .any(|(x, y)| x.is_known() && y.is_known() && x != y)
    }

    /// Whether the test detects the fault.
    ///
    /// # Errors
    ///
    /// [`AtpgError::VectorWidth`] on malformed tests;
    /// [`AtpgError::UnsupportedGate`] for OBD/EM faults on gates without a
    /// cell model.
    pub fn detects(&self, fault: &Fault, test: &TwoPatternTest) -> Result<bool, AtpgError> {
        match fault {
            Fault::StuckAt { net, value } => {
                for frame in [&test.v1, &test.v2] {
                    let good = simulate_with_order(self.nl, &self.order, frame)?;
                    let bad = self.sim_forced(frame, &[(*net, Lv::from_bool(*value))])?;
                    if Self::outputs_differ(&good.outputs(self.nl), &self.outputs_of(&bad)) {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Fault::Transition { net, slow_to } => {
                let g1 = simulate_with_order(self.nl, &self.order, &test.v1)?;
                let g2 = simulate_with_order(self.nl, &self.order, &test.v2)?;
                let (old, new) = (g1.value(*net), g2.value(*net));
                let launched = match slow_to {
                    SlowTo::Rise => (old, new) == (Lv::Zero, Lv::One),
                    SlowTo::Fall => (old, new) == (Lv::One, Lv::Zero),
                };
                if !launched {
                    return Ok(false);
                }
                self.propagates_held_value(test, *net, old)
            }
            Fault::Obd(f) => self.detects_obd(f, test),
            Fault::Em {
                gate,
                pin,
                polarity,
            } => self.detects_em(*gate, *pin, *polarity, test),
        }
    }

    fn gate_input_values(
        &self,
        gate: GateId,
        values: &obd_logic::sim::SimResult,
    ) -> Option<Vec<bool>> {
        self.nl
            .gate(gate)
            .inputs
            .iter()
            .map(|n| values.value(*n).to_bool())
            .collect()
    }

    fn detects_obd(&self, f: &ObdFault, test: &TwoPatternTest) -> Result<bool, AtpgError> {
        let gate = self.nl.gate(f.gate);
        let cell = cell_for_kind(gate.kind, gate.inputs.len()).ok_or_else(|| {
            AtpgError::UnsupportedGate {
                gate: gate.name.clone(),
            }
        })?;
        // Stuck stages degenerate into an output stuck-at.
        if self.table.is_stuck(f.polarity, f.stage) {
            let value = stuck_output_value(gate.kind, f.polarity);
            return self.detects(
                &Fault::StuckAt {
                    net: gate.output,
                    value,
                },
                test,
            );
        }
        // Delay regime: the extra delay must beat the slack at this site.
        match self.table.extra_delay_ps(f.polarity, f.stage) {
            Some(d) if d > self.slack_for(f.gate) => {}
            _ => return Ok(false),
        }
        let g1 = simulate_with_order(self.nl, &self.order, &test.v1)?;
        let g2 = simulate_with_order(self.nl, &self.order, &test.v2)?;
        let (v1g, v2g) = match (
            self.gate_input_values(f.gate, &g1),
            self.gate_input_values(f.gate, &g2),
        ) {
            (Some(a), Some(b)) => (a, b),
            _ => return Ok(false), // unknown inputs: not excited
        };
        // A pin with no leaf in the relevant network (mismatched
        // fault/cell pairing) has no transistor to excite.
        let Some(t) = f.cell_transistor(&cell) else {
            return Ok(false);
        };
        if !excites(&cell, t, &v1g, &v2g) {
            return Ok(false);
        }
        let old = g1.value(gate.output);
        self.propagates_held_value(test, gate.output, old)
    }

    fn detects_em(
        &self,
        gate_id: GateId,
        pin: usize,
        polarity: Polarity,
        test: &TwoPatternTest,
    ) -> Result<bool, AtpgError> {
        let gate = self.nl.gate(gate_id);
        let cell = cell_for_kind(gate.kind, gate.inputs.len()).ok_or_else(|| {
            AtpgError::UnsupportedGate {
                gate: gate.name.clone(),
            }
        })?;
        let g1 = simulate_with_order(self.nl, &self.order, &test.v1)?;
        let g2 = simulate_with_order(self.nl, &self.order, &test.v2)?;
        let (v1g, v2g) = match (
            self.gate_input_values(gate_id, &g1),
            self.gate_input_values(gate_id, &g2),
        ) {
            (Some(a), Some(b)) => (a, b),
            _ => return Ok(false),
        };
        let probe = ObdFault {
            gate: gate_id,
            pin,
            polarity,
            stage: obd_core::BreakdownStage::Mbd1,
        };
        let Some(t) = probe.cell_transistor(&cell) else {
            return Ok(false);
        };
        if !em_excites(&cell, t, &v1g, &v2g) {
            return Ok(false);
        }
        let old = g1.value(gate.output);
        self.propagates_held_value(test, gate.output, old)
    }

    /// Frame-2 propagation of a held (delayed) value: force the faulty
    /// gate's output to its frame-1 value and compare POs.
    fn propagates_held_value(
        &self,
        test: &TwoPatternTest,
        net: NetId,
        old: Lv,
    ) -> Result<bool, AtpgError> {
        let good = simulate_with_order(self.nl, &self.order, &test.v2)?;
        let bad = self.sim_forced(&test.v2, &[(net, old)])?;
        Ok(Self::outputs_differ(
            &good.outputs(self.nl),
            &self.outputs_of(&bad),
        ))
    }

    /// Grades a test set against a fault list; returns per-fault detection
    /// flags. The one-thread case of [`FaultSimulator::grade_parallel`].
    ///
    /// # Errors
    ///
    /// Propagates detection errors.
    pub fn grade(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
    ) -> Result<Vec<bool>, AtpgError> {
        self.grade_parallel(faults, tests, 1)
    }

    /// The scalar reference grader: one three-valued simulation per
    /// (fault, test) pair, fault-major with dropping — the loop the
    /// PPSFP engine replaced, kept un-instrumented as the equivalence
    /// and benchmark baseline.
    ///
    /// # Errors
    ///
    /// Propagates detection errors.
    pub fn grade_scalar(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
    ) -> Result<Vec<bool>, AtpgError> {
        let mut detected = vec![false; faults.len()];
        for (i, f) in faults.iter().enumerate() {
            for t in tests {
                if self.detects(f, t)? {
                    detected[i] = true;
                    break;
                }
            }
        }
        Ok(detected)
    }

    /// [`FaultSimulator::grade`] with graceful degradation: a fault whose
    /// detection errors out is marked [`GradeOutcome::Degraded`] and the
    /// campaign continues instead of aborting — the fault is still fully
    /// accounted for in the returned vector. Detected *and* degraded
    /// faults drop immediately (stop consuming tests).
    pub fn grade_degraded(&self, faults: &[Fault], tests: &[TwoPatternTest]) -> Vec<GradeOutcome> {
        let out = match PpsfpEngine::<SUPERLANE_WIDTH>::prepare(self, tests) {
            Ok(engine) => engine.grade_degraded(faults, &|| CHAOS_GRADE.fire()),
            // Malformed test sets degrade every fault, as each would hit
            // the same error at its first test in the scalar path.
            Err(e) => vec![GradeOutcome::Degraded(e.to_string()); faults.len()],
        };
        FAULTS_DEGRADED.add(out.iter().filter(|o| o.is_degraded()).count() as u64);
        FAULTS_GRADED.add(faults.len() as u64);
        FAULTS_DETECTED.add(out.iter().filter(|o| o.is_detected()).count() as u64);
        out
    }

    /// Grades a test set against a fault list on `threads` pool workers.
    ///
    /// Runs on the bit-parallel [`PpsfpEngine`]: good-machine responses
    /// are computed once per packed block (blocks fanned out over the
    /// workers), then faults are graded fault-major with dropping, one
    /// pool job per fault. The result is bit-exact with
    /// [`FaultSimulator::grade_scalar`] at any thread count.
    ///
    /// # Errors
    ///
    /// The detection error of the lowest-indexed failing fault, whatever
    /// the thread count.
    pub fn grade_parallel(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
        threads: usize,
    ) -> Result<Vec<bool>, AtpgError> {
        if faults.is_empty() {
            return Ok(Vec::new());
        }
        let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare_with_threads(self, tests, threads)?;
        let detected = engine.grade_parallel(faults, threads)?;
        FAULTS_GRADED.add(faults.len() as u64);
        FAULTS_DETECTED.add(detected.iter().filter(|&&d| d).count() as u64);
        Ok(detected)
    }

    /// [`FaultSimulator::grade_parallel`] sized to the machine: one worker
    /// per logical CPU (`std::thread::available_parallelism()`, falling
    /// back to serial grading when the count is unknown).
    ///
    /// # Errors
    ///
    /// Propagates detection errors from any worker.
    pub fn grade_auto(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
    ) -> Result<Vec<bool>, AtpgError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.grade_parallel(faults, tests, threads)
    }

    /// [`FaultSimulator::grade_parallel`] with an adaptive block width:
    /// the leading tests grade at width 1 while faults drop fast, and the
    /// survivors switch to the full super-lane engine once the drop rate
    /// stabilizes ([`crate::ppsfp::grade_adaptive`]). The detection
    /// vector is bit-identical with any fixed-width grader.
    ///
    /// # Errors
    ///
    /// Propagates detection errors from any worker.
    pub fn grade_adaptive(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
        threads: usize,
    ) -> Result<Vec<bool>, AtpgError> {
        if faults.is_empty() {
            return Ok(Vec::new());
        }
        let out = crate::ppsfp::grade_adaptive(self, tests, faults, threads)?;
        FAULTS_GRADED.add(faults.len() as u64);
        FAULTS_DETECTED.add(out.detected.iter().filter(|&&d| d).count() as u64);
        Ok(out.detected)
    }

    /// Builds the full detection matrix `matrix[t][f]` for compaction and
    /// exhaustive analysis, via per-fault packed detection rows.
    ///
    /// # Errors
    ///
    /// Propagates detection errors.
    pub fn detection_matrix(
        &self,
        faults: &[Fault],
        tests: &[TwoPatternTest],
    ) -> Result<Vec<Vec<bool>>, AtpgError> {
        let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(self, tests)?;
        let mut scratch = PpsfpScratch::default();
        let rows: Vec<Vec<bool>> = faults
            .iter()
            .map(|f| engine.detection_row(f, &mut scratch))
            .collect::<Result<_, _>>()?;
        Ok((0..tests.len())
            .map(|t| rows.iter().map(|r| r[t]).collect())
            .collect())
    }

    /// The delay table in use.
    pub fn delay_table(&self) -> &DelayTable {
        &self.table
    }

    /// The detection criterion in use.
    pub fn criterion(&self) -> &DetectionCriterion {
        &self.criterion
    }
}

/// The output value a stuck-stage OBD defect pins a gate to: an NMOS
/// defect kills the pull-down (stuck-at-1 for inverting cells), a PMOS
/// defect kills the pull-up. For AND/OR the internal inverter flips the
/// visible value.
pub fn stuck_output_value(kind: GateKind, polarity: Polarity) -> bool {
    let inverting_stage_value = match polarity {
        Polarity::Nmos => true,
        Polarity::Pmos => false,
    };
    match kind {
        GateKind::And | GateKind::Or => !inverting_stage_value,
        _ => inverting_stage_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_core::BreakdownStage;
    use obd_logic::circuits::fig8_sum_circuit;
    use obd_logic::netlist::Netlist;

    fn nand_net() -> (Netlist, NetId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, "y", &[a, b]).unwrap();
        nl.mark_output(y);
        (nl, y)
    }

    #[test]
    fn stuck_at_detection_on_single_gate() {
        let (nl, y) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::StuckAt {
            net: y,
            value: true,
        };
        // (1,1) produces 0; sa-1 visible.
        let t = TwoPatternTest::from_bools(&[true, true], &[true, true]);
        assert!(sim.detects(&f, &t).unwrap());
        // (0,1) produces 1 == fault value: not visible.
        let t2 = TwoPatternTest::from_bools(&[false, true], &[false, true]);
        assert!(!sim.detects(&f, &t2).unwrap());
    }

    #[test]
    fn obd_pmos_needs_specific_sequence() {
        let (nl, _) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd1,
        });
        // (11,01): A falls alone -> detected.
        let good = TwoPatternTest::from_bools(&[true, true], &[false, true]);
        assert!(sim.detects(&f, &good).unwrap());
        // (11,10): wrong input -> masked.
        let wrong = TwoPatternTest::from_bools(&[true, true], &[true, false]);
        assert!(!sim.detects(&f, &wrong).unwrap());
        // (11,00): both fall -> parallel masking.
        let both = TwoPatternTest::from_bools(&[true, true], &[false, false]);
        assert!(!sim.detects(&f, &both).unwrap());
    }

    #[test]
    fn em_detected_where_obd_masked() {
        let (nl, _) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let em = Fault::Em {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Pmos,
        };
        let both_fall = TwoPatternTest::from_bools(&[true, true], &[false, false]);
        assert!(sim.detects(&em, &both_fall).unwrap());
    }

    #[test]
    fn obd_nmos_any_falling_sequence() {
        let (nl, _) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 1,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd2,
        });
        for v1 in [[false, false], [false, true], [true, false]] {
            let t = TwoPatternTest::from_bools(&v1, &[true, true]);
            assert!(sim.detects(&f, &t).unwrap(), "{v1:?}");
        }
    }

    #[test]
    fn slack_gates_detection() {
        let (nl, _) = nand_net();
        // MBD1 NMOS extra delay is 22 ps in the paper table.
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd1,
        });
        let t = TwoPatternTest::from_bools(&[false, true], &[true, true]);
        let tight = FaultSimulator::with_criterion(
            &nl,
            DelayTable::paper(),
            DetectionCriterion::with_slack(5.0),
        )
        .unwrap();
        assert!(tight.detects(&f, &t).unwrap());
        let loose = FaultSimulator::with_criterion(
            &nl,
            DelayTable::paper(),
            DetectionCriterion::with_slack(100.0),
        )
        .unwrap();
        assert!(!loose.detects(&f, &t).unwrap());
    }

    #[test]
    fn hbd_degenerates_to_stuck_at() {
        let (nl, _) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Hbd,
        });
        // A static (1,1) vector suffices — no transition needed.
        let t = TwoPatternTest::from_bools(&[true, true], &[true, true]);
        assert!(sim.detects(&f, &t).unwrap());
    }

    #[test]
    fn transition_fault_ignores_which_input_switches() {
        let (nl, y) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::Transition {
            net: y,
            slow_to: SlowTo::Rise,
        };
        // Any falling input from (1,1) rises the output: all detected —
        // this is exactly the insensitivity the paper criticizes.
        for v2 in [[false, true], [true, false], [false, false]] {
            let t = TwoPatternTest::from_bools(&[true, true], &v2);
            assert!(sim.detects(&f, &t).unwrap(), "{v2:?}");
        }
    }

    #[test]
    fn fig8_redundant_merge_pmos_faults_untestable_exhaustively() {
        let nl = fig8_sum_circuit();
        let sim = FaultSimulator::new(&nl).unwrap();
        // PMOS faults at the redundant merge gate gm need exactly one of
        // (x1, x2) to fall — impossible since they are logically equal.
        let gm_gate = nl.driver(nl.find_net("gm").unwrap()).unwrap();
        let f = Fault::Obd(ObdFault {
            gate: gm_gate,
            pin: 0,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd2,
        });
        let pairs = obd_core::excitation::all_input_pairs(3);
        for (v1, v2) in pairs {
            let t = TwoPatternTest::from_bools(&v1, &v2);
            assert!(
                !sim.detects(&f, &t).unwrap(),
                "unexpected detection by {}",
                t.render()
            );
        }
    }

    #[test]
    fn parallel_grade_matches_serial() {
        let nl = fig8_sum_circuit();
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = crate::fault::obd_faults(&nl, BreakdownStage::Mbd2, true);
        let tests = crate::random::exhaustive_two_pattern(3);
        let serial = sim.grade(&faults, &tests).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = sim.grade_parallel(&faults, &tests, threads).unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        let auto = sim.grade_auto(&faults, &tests).unwrap();
        assert_eq!(auto, serial, "machine-sized grading diverged");
    }

    #[test]
    fn grade_accumulates_over_tests() {
        let (nl, y) = nand_net();
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = vec![
            Fault::StuckAt {
                net: y,
                value: true,
            },
            Fault::StuckAt {
                net: y,
                value: false,
            },
        ];
        let tests = vec![
            TwoPatternTest::from_bools(&[true, true], &[true, true]),
            TwoPatternTest::from_bools(&[false, true], &[false, true]),
        ];
        let det = sim.grade(&faults, &tests).unwrap();
        assert_eq!(det, vec![true, true]);
    }
}
