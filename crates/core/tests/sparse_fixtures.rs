//! Sparse-backend integration proofs at the characterization level:
//! bit-identical Table 1 cells versus the dense backend, randomized
//! sequence/defect equivalence, and symbolic-factorization reuse on the
//! multi-cell fixtures.
//!
//! Runs as an integration binary so the process-wide metrics registry is
//! not shared with other test suites; the file-local lock serializes the
//! metric-delta assertions within this binary.

use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1, measure_cell_transition_with_options, BenchConfig, BenchDefect,
};
use obd_core::faultmodel::Polarity;
use obd_core::fixtures::{measure_fixture_transition_with_options, mna_unknowns, MultiCellBench};
use obd_core::BreakdownStage;
use obd_logic::netlist::GateKind;
use obd_spice::{SimOptions, SolverKind};

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn fast_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 4.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

#[test]
fn table1_sparse_is_bit_identical_to_dense() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let dense = characterize_table1(
        &tech,
        &cfg,
        &SimOptions::new().with_solver(SolverKind::Dense),
        4,
    )
    .unwrap();
    let sparse = characterize_table1(
        &tech,
        &cfg,
        &SimOptions::new().with_solver(SolverKind::Sparse),
        4,
    )
    .unwrap();
    assert!(
        dense.bit_identical(&sparse),
        "dense:\n{}\nsparse:\n{}",
        dense.render(),
        sparse.render()
    );
}

#[test]
fn randomized_sequences_match_bitwise_across_backends() {
    // A tiny deterministic xorshift drives random two-pattern sequences
    // and defect stages through both backends.
    let mut state: u64 = 0x5EED_CAFE;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let stages = [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
    ];
    let mut compared = 0;
    for _ in 0..8 {
        let r = next();
        let v1 = [r & 1 != 0, r & 2 != 0];
        let v2 = [r & 4 != 0, r & 8 != 0];
        if v1 == v2 {
            continue; // nothing switches; no delay defined
        }
        let stage = stages[(r >> 4) as usize % stages.len()];
        let polarity = if r & 0x100 != 0 {
            Polarity::Nmos
        } else {
            Polarity::Pmos
        };
        let defect = stage.params(polarity).ok().map(|params| BenchDefect {
            pin: (r >> 9) as usize % 2,
            polarity,
            params,
        });
        let mut results = Vec::new();
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let opts = SimOptions::new().with_solver(kind);
            results.push(
                measure_cell_transition_with_options(
                    &tech,
                    GateKind::Nand,
                    defect,
                    v1,
                    v2,
                    &cfg,
                    &opts,
                )
                .unwrap(),
            );
        }
        assert!(
            results[0].bits_eq(results[1]),
            "v1={v1:?} v2={v2:?} {stage}: {:?} vs {:?}",
            results[0],
            results[1]
        );
        compared += 1;
    }
    assert!(compared >= 4, "random draw must exercise several sequences");
}

#[test]
fn full_adder_characterizes_on_sparse_path_with_symbolic_reuse() {
    let _guard = METRICS_LOCK.lock().unwrap();
    obd_metrics::enable();
    obd_metrics::reset_all();

    let fx = MultiCellBench::full_adder().unwrap();
    assert!(fx.num_cells() >= 3);
    let tech = TechParams::date05();
    let cfg = BenchConfig {
        at_speed_ps: None,
        ..fast_cfg()
    };
    // Default options: the auto solver must route this fixture to the
    // sparse backend on its own.
    let outcome = measure_fixture_transition_with_options(
        &tech,
        &fx,
        None,
        &[true, false, false],
        &[true, true, false],
        &cfg,
        &SimOptions::new(),
    )
    .unwrap();
    assert!(outcome.delay_ps().is_some(), "fault-free adder switches");

    let snap = obd_metrics::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        c("spice.solvers_sparse") >= 1,
        "auto mode must pick the sparse backend for the {}-unknown fixture",
        {
            let mut exp = obd_cmos::expand::expand(&fx.netlist, &tech).unwrap();
            for &pi in &fx.pis {
                exp.drive_input(pi, obd_spice::devices::SourceWave::dc(0.0));
            }
            mna_unknowns(&exp.circuit)
        }
    );
    let builds = c("linalg.symbolic_builds");
    let reuse = c("linalg.symbolic_reuse");
    assert!(builds >= 1, "at least one symbolic analysis");
    assert!(
        reuse > 50 * builds,
        "one symbolic factorization must serve the whole transient: \
         builds={builds} reuse={reuse}"
    );
    obd_metrics::disable();
}
