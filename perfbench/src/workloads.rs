//! The four in-process workloads. Each drives one paper claim through the
//! layers' public functions and checks the output against an oracle.

use obd_atpg::fault::{
    em_faults, obd_faults, stuck_at_faults, transition_faults, DetectionCriterion, Fault,
    TwoPatternTest,
};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::{generate_obd_tests, TestReport};
use obd_atpg::ppsfp::PpsfpEngine;
use obd_atpg::random::random_two_pattern;
use obd_bench::experiments::fig9::{self, Fig9Row};
use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::monte::{run_monte, MonteConfig, MonteReport};
use obd_core::{BreakdownStage, Polarity};
use obd_logic::circuits::{array_multiplier, carry_select_adder};
use obd_logic::Netlist;

use crate::serve::Serve;
use crate::trace::Tracer;

/// What one checked operation did.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Sub-operations attempted (measurements, rows, faults, jobs).
    pub attempted: u64,
    /// Sub-operations that failed (degraded, aborted, errored, panicked).
    pub failed: u64,
    /// Work items completed, for `items_per_s`.
    pub items: f64,
    /// Share of faults or defects the operation detected.
    pub coverage: f64,
    /// Two-pattern stimuli the operation emitted or applied.
    pub tests: f64,
}

/// One workload: set up from the seed, then repeated operations.
pub trait Workload {
    /// One operation: the calls a user of the layer makes. Timed.
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String>;
    /// Checks the last operation's output against the oracle. Untimed.
    fn check(&mut self) -> Result<OpStats, String>;
    /// A costlier oracle, run once per traced run.
    fn traced_check(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Downcast hook for the serve workload's extra figures.
    fn as_serve(&self) -> Option<&Serve> {
        None
    }
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 5] = ["monte", "fig9", "atpg", "grade", "serve"];

/// Builds the named workload from the workload seed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "monte" => Box::new(Monte::new(seed)),
        "fig9" => Box::new(Fig9::new()),
        "atpg" => Box::new(Atpg::new()),
        "grade" => Box::new(Grade::new(seed)),
        "serve" => Box::new(Serve::new(seed)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {NAMES:?})"
            ))
        }
    })
}

/// Worker threads a workload may use: one per logical CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives an input seed for one purpose from the workload seed
/// (SplitMix64 over the seed and a tag).
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut z = tag
        .bytes()
        .fold(seed ^ 0x0BD0_5EED, |h, b| h.rotate_left(8) ^ u64::from(b))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Table 1 claim: seeded process corners × 6 NAND probes.
struct Monte {
    tech: TechParams,
    cfg: MonteConfig,
    last: Option<MonteReport>,
}

/// Corners per campaign.
const MONTE_CORNERS: usize = 24;

impl Monte {
    fn new(seed: u64) -> Self {
        let mut cfg = MonteConfig::new();
        cfg.samples = MONTE_CORNERS;
        cfg.seed = derive(seed, "monte");
        cfg.threads = nproc();
        Monte {
            tech: TechParams::date05(),
            cfg,
            last: None,
        }
    }
}

impl Workload for Monte {
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let report = tracer
            .time("core.run_monte", || run_monte(&self.tech, &self.cfg))
            .map_err(|e| format!("run_monte: {e}"))?;
        self.last = Some(report);
        Ok(())
    }

    fn check(&mut self) -> Result<OpStats, String> {
        let r = self.last.as_ref().expect("check follows run");
        if r.degraded_total != 0 {
            return Err(format!("monte: {} degraded measurements", r.degraded_total));
        }
        let median_of = |label: &str| {
            r.probes
                .iter()
                .find(|p| p.label == label)
                .and_then(|p| p.p50_ps)
                .ok_or_else(|| format!("monte: no {label} median"))
        };
        let (fall, rise) = (median_of("fault_free_fall")?, median_of("fault_free_rise")?);
        // A defect is visible when its median delay exceeds the
        // fault-free median of the same edge, or it never switches.
        let (mut visible, mut defects) = (0, 0);
        for p in &r.probes {
            if let (Some(a), Some(b), Some(c)) = (p.p05_ps, p.p50_ps, p.p95_ps) {
                if !(a <= b && b <= c) {
                    return Err(format!("monte: {} percentiles out of order", p.label));
                }
            }
            let Some(polarity) = p.polarity else { continue };
            let baseline = if polarity == Polarity::Nmos {
                fall
            } else {
                rise
            };
            defects += 1;
            if p.p50_ps.is_none_or(|d| d > baseline) {
                visible += 1;
            }
        }
        let measurements = (r.samples * r.probes.len()) as u64;
        Ok(OpStats {
            attempted: measurements,
            failed: r.degraded_total as u64,
            items: r.samples as f64,
            coverage: visible as f64 / defects.max(1) as f64,
            tests: measurements as f64,
        })
    }

    fn traced_check(&mut self) -> Result<(), String> {
        let mut serial = self.cfg.clone();
        serial.threads = 1;
        let one = run_monte(&self.tech, &serial).map_err(|e| format!("run_monte: {e}"))?;
        let many = self.last.as_ref().expect("traced check follows run");
        if one.render_json() != many.render_json() {
            return Err(format!(
                "monte: render_json differs between 1 and {} threads",
                self.cfg.threads
            ));
        }
        Ok(())
    }
}

/// Fig. 9 claim: the four MBD2 defects of the `g6` NAND, justified by
/// the two-pattern ATPG and simulated on the 25-gate sum circuit.
struct Fig9 {
    tech: TechParams,
    cfg: BenchConfig,
    last: Option<Vec<Fig9Row>>,
}

/// Reference rows at the default bench resolution: label, justified
/// sequence, fault-free and defective sum delay in ps (`None` = stuck).
const FIG9_REFERENCE: [(&str, &str, f64, Option<f64>); 4] = [
    ("NMOS pin0", "(000,001)", 785.6405, Some(1228.8649)),
    ("NMOS pin1", "(000,001)", 785.6405, Some(2639.6248)),
    ("PMOS pin0", "(001,101)", 799.7067, None),
    ("PMOS pin1", "(001,000)", 821.3211, Some(1813.4478)),
];

/// Largest difference from a reference delay still counted as a match.
const FIG9_TOLERANCE_PS: f64 = 1.0;

impl Fig9 {
    fn new() -> Self {
        Fig9 {
            tech: TechParams::date05(),
            cfg: BenchConfig::new(),
            last: None,
        }
    }
}

impl Workload for Fig9 {
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let rows = tracer
            .time("bench.fig9_run", || {
                fig9::run(&self.tech, BreakdownStage::Mbd2, &self.cfg)
            })
            .map_err(|e| format!("fig9: {e}"))?;
        self.last = Some(rows);
        Ok(())
    }

    fn check(&mut self) -> Result<OpStats, String> {
        let rows = self.last.as_ref().expect("check follows run");
        if rows.len() != FIG9_REFERENCE.len() {
            return Err(format!("fig9: {} rows, expected 4", rows.len()));
        }
        let mut failed = 0;
        let mut visible = 0;
        for (row, &(label, sequence, ff_ref, faulty_ref)) in rows.iter().zip(&FIG9_REFERENCE) {
            let Some(ff) = row.fault_free_ps else {
                failed += 1;
                continue;
            };
            let close = |a: f64, b: f64| (a - b).abs() <= FIG9_TOLERANCE_PS;
            let matches = row.label == label
                && row.sequence == sequence
                && close(ff, ff_ref)
                && match (row.faulty_ps, faulty_ref) {
                    (None, None) => true,
                    (Some(a), Some(b)) => close(a, b),
                    _ => false,
                };
            if !matches {
                return Err(format!(
                    "fig9: row {} {} ff {:?} faulty {:?} does not match the reference",
                    row.label, row.sequence, row.fault_free_ps, row.faulty_ps
                ));
            }
            match row.faulty_ps {
                Some(f) if f <= ff => {
                    return Err(format!("fig9: {} is not slower than fault-free", row.label))
                }
                _ => visible += 1,
            }
        }
        Ok(OpStats {
            attempted: rows.len() as u64,
            failed,
            items: rows.len() as f64,
            coverage: visible as f64 / rows.len() as f64,
            tests: 2.0 * rows.len() as f64,
        })
    }
}

/// §5 claim: OBD test generation on a 300-gate carry-select adder,
/// verified by PPSFP regrading.
struct Atpg {
    nl: Netlist,
    last: Option<(TestReport, usize)>,
}

impl Atpg {
    fn new() -> Self {
        Atpg {
            nl: carry_select_adder(16, 4),
            last: None,
        }
    }
}

impl Workload for Atpg {
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let nl = &self.nl;
        let report = tracer
            .time("atpg.generate", || {
                generate_obd_tests(
                    nl,
                    BreakdownStage::Mbd2,
                    &DetectionCriterion::ideal(),
                    false,
                )
            })
            .map_err(|e| format!("generate_obd_tests: {e}"))?;
        let regraded = tracer
            .time("atpg.grade", || {
                let sim = FaultSimulator::new(nl)?;
                sim.grade(&obd_faults(nl, BreakdownStage::Mbd2, false), &report.tests)
            })
            .map_err(|e| format!("regrade: {e}"))?;
        let detected = regraded.iter().filter(|&&d| d).count();
        self.last = Some((report, detected));
        Ok(())
    }

    fn check(&mut self) -> Result<OpStats, String> {
        let (r, regraded) = self.last.as_ref().expect("check follows run");
        if *regraded < r.detected {
            return Err(format!(
                "atpg: generated set detects {regraded} faults on regrading, report claims {}",
                r.detected
            ));
        }
        Ok(OpStats {
            attempted: r.total_faults as u64,
            failed: r.aborted as u64,
            items: r.total_faults as f64,
            coverage: r.raw_coverage(),
            tests: r.tests.len() as f64,
        })
    }
}

/// Fault-grading claim: the mixed fault universe of a 16-bit array
/// multiplier under seeded random two-pattern tests, threaded PPSFP.
struct Grade {
    nl: Netlist,
    faults: Vec<Fault>,
    tests: Vec<TwoPatternTest>,
    oracle: Option<Vec<bool>>,
    last: Option<Vec<bool>>,
}

/// Random two-pattern tests per grading run.
const GRADE_TESTS: usize = 2048;

impl Grade {
    fn new(seed: u64) -> Self {
        let nl = array_multiplier(16);
        let mut faults = stuck_at_faults(&nl);
        faults.extend(transition_faults(&nl));
        faults.extend(obd_faults(&nl, BreakdownStage::Mbd2, false));
        faults.extend(obd_faults(&nl, BreakdownStage::Hbd, false));
        faults.extend(em_faults(&nl, false));
        let tests = random_two_pattern(nl.inputs().len(), GRADE_TESTS, derive(seed, "grade"));
        Grade {
            nl,
            faults,
            tests,
            oracle: None,
            last: None,
        }
    }
}

impl Workload for Grade {
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let sim = tracer
            .time("logic.compile", || FaultSimulator::new(&self.nl))
            .map_err(|e| format!("FaultSimulator::new: {e}"))?;
        let detected = tracer
            .time("atpg.grade", || sim.grade_auto(&self.faults, &self.tests))
            .map_err(|e| format!("grade_auto: {e}"))?;
        self.last = Some(detected);
        Ok(())
    }

    fn check(&mut self) -> Result<OpStats, String> {
        if self.oracle.is_none() {
            let sim = FaultSimulator::new(&self.nl).map_err(|e| e.to_string())?;
            let oracle = PpsfpEngine::<1>::prepare(&sim, &self.tests)
                .and_then(|engine| engine.grade(&self.faults))
                .map_err(|e| format!("oracle grading: {e}"))?;
            self.oracle = Some(oracle);
        }
        let got = self.last.as_ref().expect("check follows run");
        if Some(got) != self.oracle.as_ref() {
            return Err("grade: detection vector differs from the N=1 PPSFP oracle".into());
        }
        let detected = got.iter().filter(|&&d| d).count();
        Ok(OpStats {
            attempted: self.faults.len() as u64,
            failed: 0,
            items: self.faults.len() as f64,
            coverage: detected as f64 / self.faults.len() as f64,
            tests: self.tests.len() as f64,
        })
    }
}
