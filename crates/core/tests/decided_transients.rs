//! Decide-and-stop characterization: a delay measurement's transient ends
//! at its verdict, and nothing the measurement reports may move.
//!
//! Two bit-for-bit pins guard the analog outputs — every Table 1 cell and
//! the JSON of a small Monte Carlo campaign with a stuck (`hbd`) probe —
//! and the waveform tests prove the stop is exact: a decided run is a
//! sample-for-sample prefix of the full-window run, and it ends on the
//! very sample that decides the verdict, neither earlier nor later.

use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1, measure_cell_transition, run_cell_bench, BenchConfig, BenchDefect,
    CrossingProbe, TransitionOutcome,
};
use obd_core::monte::{run_monte, MonteConfig};
use obd_core::{BreakdownStage, Polarity};
use obd_logic::netlist::GateKind;
use obd_spice::analysis::tran::transient_until;
use obd_spice::{EdgeKind, SimOptions, Waveform};

/// Table 1 under [`BenchConfig::table1`], one row per stage: the
/// `to_bits()` of each delay in hex, `stuck`, or `n/a` for an empty cell.
/// Columns are the four NMOS slots, then the four PMOS slots.
const TABLE1_BITS: [[&str; 8]; 5] = [
    [
        "405997839dda4886",
        "405997839dda4886",
        "40585a70ce80b471",
        "40585a70ce80b471",
        "40613f9f785e4098",
        "40613f9f785e4098",
        "405ea5c843f9f229",
        "405ea5c843f9f229",
    ],
    [
        "4072fe99aca1d8d5",
        "4078348e6e264524",
        "4072aad978681c36",
        "stuck",
        "40613f9f739b8369",
        "4087cd0408f43721",
        "408223a5c69568d5",
        "405ea5c83b839b5a",
    ],
    [
        "407d1739231fc01f",
        "stuck",
        "407cd065298bb067",
        "stuck",
        "40613f9f739b7ec0",
        "stuck",
        "40868765f6bd560b",
        "405ea5c83b839b2e",
    ],
    [
        "4083cfc3d874a895",
        "stuck",
        "4083bc239bc82def",
        "stuck",
        "40613f9f739b7b7b",
        "stuck",
        "stuck",
        "405ea5c83b839b02",
    ],
    [
        "stuck", "stuck", "stuck", "stuck", "n/a", "n/a", "n/a", "n/a",
    ],
];

/// FNV-1a of [`MonteReport::render_json`] for [`pinned_campaign`], and
/// the report's length in bytes.
///
/// [`MonteReport::render_json`]: obd_core::monte::MonteReport::render_json
const MONTE_DIGEST: (u64, usize) = (0xb1af_507f_ec8f_fefb, 1513);

fn cell_bits(o: Option<TransitionOutcome>) -> String {
    match o {
        None => "n/a".into(),
        Some(TransitionOutcome::Stuck) => "stuck".into(),
        Some(TransitionOutcome::Delay(d)) => format!("{:016x}", d.to_bits()),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn table1_cells_are_pinned_bit_for_bit() {
    let tech = TechParams::date05();
    let t = characterize_table1(&tech, &BenchConfig::table1(), &SimOptions::new(), 2).unwrap();
    assert_eq!(t.rows.len(), TABLE1_BITS.len());
    for (row, want) in t.rows.iter().zip(TABLE1_BITS) {
        let got: Vec<String> = row
            .nmos
            .iter()
            .chain(&row.pmos)
            .map(|&o| cell_bits(o))
            .collect();
        assert_eq!(got, want, "Table 1 row {}", row.stage);
    }
}

/// Three corners at 8 ps steps; the `hbd` NMOS probe never switches, so
/// its transient runs to the end of the window.
fn pinned_campaign() -> MonteConfig {
    MonteConfig {
        samples: 3,
        threads: 2,
        stages: vec![BreakdownStage::Mbd2, BreakdownStage::Hbd],
        bench: BenchConfig {
            step_ps: 8.0,
            ..BenchConfig::new()
        },
        ..MonteConfig::new()
    }
}

#[test]
fn monte_report_is_pinned_bit_for_bit() {
    let report = run_monte(&TechParams::date05(), &pinned_campaign()).unwrap();
    let hbd = report
        .probes
        .iter()
        .find(|p| p.label == "hbd_nmos_fall")
        .expect("campaign probes hbd");
    assert_eq!(hbd.stuck, report.samples, "the hbd probe must stay stuck");
    let json = report.render_json();
    assert_eq!(
        (fnv1a(json.as_bytes()), json.len()),
        MONTE_DIGEST,
        "MONTE report moved:\n{json}"
    );
}

/// One measured sequence on the Fig. 5 bench.
struct Case {
    kind: GateKind,
    defect: Option<(BreakdownStage, Polarity, usize)>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: BenchConfig,
}

/// What a case produced: the decided and full-window waveforms, the
/// probe's verdict and the nodes it watched.
struct Runs {
    decided: Waveform,
    full: Waveform,
    outcome: TransitionOutcome,
    input: obd_spice::NodeId,
    output: obd_spice::NodeId,
    in_edge: EdgeKind,
    out_edge: EdgeKind,
}

fn edge(rises: bool) -> EdgeKind {
    if rises {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    }
}

fn run_case(c: &Case) -> Runs {
    let tech = TechParams::date05();
    let defect = c.defect.map(|(stage, polarity, pin)| BenchDefect {
        pin,
        polarity,
        params: stage.params(polarity).unwrap(),
    });
    let (full, exp, bench) = run_cell_bench(&tech, c.kind, defect, c.v1, c.v2, &c.cfg).unwrap();
    let pin = (0..2).find(|&i| c.v1[i] != c.v2[i]).unwrap();
    let out = |v: [bool; 2]| match c.kind {
        GateKind::Nor => !(v[0] || v[1]),
        _ => !(v[0] && v[1]),
    };
    assert_ne!(out(c.v1), out(c.v2), "case output must switch");
    let (input, output) = (exp.node(bench.nand_inputs[pin]), exp.node(bench.output));
    let mut probe =
        CrossingProbe::new(input, c.v2[pin], output, out(c.v2), tech.half_vdd(), &c.cfg);
    let decided = transient_until(
        &exp.circuit,
        &c.cfg.tran_params(),
        &SimOptions::new(),
        |w| probe.observe(w),
    )
    .unwrap();
    let outcome = probe.outcome().unwrap();
    let measured = measure_cell_transition(&tech, c.kind, defect, c.v1, c.v2, &c.cfg).unwrap();
    assert!(
        outcome.bits_eq(measured),
        "probe {outcome:?} vs measure {measured:?}"
    );

    // Sample-for-sample prefix: the time axis, every node voltage and
    // every source current.
    let n = decided.len();
    assert!(n >= 2 && n <= full.len(), "{n} of {} samples", full.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(decided.time()), bits(&full.time()[..n]), "time axis");
    for idx in 1..exp.circuit.num_nodes() {
        let node = exp.circuit.node_by_index(idx);
        assert_eq!(
            bits(decided.trace(node)),
            bits(&full.trace(node)[..n]),
            "node {}",
            exp.circuit.node_name(node)
        );
    }
    for k in 0..exp.circuit.num_vsources() {
        let d = decided.source_current(k).unwrap();
        assert_eq!(
            bits(d),
            bits(&full.source_current(k).unwrap()[..n]),
            "source {k}"
        );
    }
    Runs {
        decided,
        full,
        outcome,
        input,
        output,
        in_edge: edge(c.v2[pin]),
        out_edge: edge(out(c.v2)),
    }
}

impl Runs {
    /// The batch measurement on a waveform: the input's first crossing
    /// after half the launch time, then the output's first crossing.
    fn crossings(&self, w: &Waveform, cfg: &BenchConfig) -> (Option<f64>, Option<f64>) {
        let level = TechParams::date05().half_vdd();
        let t_in = w.first_crossing(self.input, level, self.in_edge, cfg.launch_ps * 1e-12 * 0.5);
        let t_out = t_in.and_then(|ti| w.first_crossing(self.output, level, self.out_edge, ti));
        (t_in, t_out)
    }

    /// Checks the decided run stopped on the sample that decided it: the
    /// output crossing in its last interval, or the capture limit passed
    /// by its last sample but not by the one before. A run that never
    /// decided covers the whole window.
    fn assert_stops_at_verdict(&self, cfg: &BenchConfig) {
        let (t_in, t_out) = self.crossings(&self.decided, cfg);
        assert_eq!(
            (t_in, t_out),
            self.crossings(&self.full, cfg),
            "the decided run must see the full window's crossings"
        );
        let times = self.decided.time();
        let n = times.len();
        let level = TechParams::date05().half_vdd();
        let guard = 2.0 * cfg.step_ps * 1e-12;
        match (t_in, t_out, cfg.at_speed_ps) {
            (Some(ti), Some(_), _) => assert!(
                self.decided
                    .crossing_in(self.output, n - 1, level, self.out_edge, ti)
                    .is_some(),
                "the output crossing must land in the last recorded interval"
            ),
            (Some(ti), None, Some(limit)) => {
                let decide_at = ti + limit * 1e-12 + guard;
                assert!(times[n - 1] >= decide_at && times[n - 2] < decide_at);
            }
            _ => assert_eq!(n, self.full.len(), "an undecided run covers the window"),
        }
    }
}

#[test]
fn fault_free_fall_stops_at_the_output_crossing() {
    let cfg = BenchConfig::new();
    let runs = run_case(&Case {
        kind: GateKind::Nand,
        defect: None,
        v1: [false, true],
        v2: [true, true],
        cfg: cfg.clone(),
    });
    runs.assert_stops_at_verdict(&cfg);
    assert!(runs.outcome.delay_ps().is_some());
    assert!(
        runs.decided.len() * 10 <= runs.full.len() * 4,
        "fault-free run kept {} of {} samples",
        runs.decided.len(),
        runs.full.len()
    );
}

#[test]
fn mbd2_delay_stops_at_the_output_crossing() {
    let cfg = BenchConfig::new();
    let runs = run_case(&Case {
        kind: GateKind::Nand,
        defect: Some((BreakdownStage::Mbd2, Polarity::Nmos, 1)),
        v1: [false, true],
        v2: [true, true],
        cfg: cfg.clone(),
    });
    runs.assert_stops_at_verdict(&cfg);
    let d = runs
        .outcome
        .delay_ps()
        .expect("MBD2 delays without a limit");
    assert!(d > 500.0, "MBD2 NB fall {d} ps");
    assert!(runs.decided.len() < runs.full.len());
}

/// MBD2 on the switching pin holds the NAND input below 50 %, so no
/// reference crossing exists: the capture-limited cell is `sa-1`, and
/// since no verdict can be reached before a reference crossing, it
/// simulates the full window.
#[test]
fn capture_limited_sa1_without_reference_crossing_runs_the_window() {
    let cfg = BenchConfig::table1();
    let runs = run_case(&Case {
        kind: GateKind::Nand,
        defect: Some((BreakdownStage::Mbd2, Polarity::Nmos, 1)),
        v1: [true, false],
        v2: [true, true],
        cfg: cfg.clone(),
    });
    assert_eq!(runs.crossings(&runs.full, &cfg).0, None);
    runs.assert_stops_at_verdict(&cfg);
    assert_eq!(runs.outcome, TransitionOutcome::Stuck);
}

/// HBD on the non-switching pin: the input crosses, the output never
/// does. Under the capture limit the run stops two steps past
/// `t_in + at_speed`; without one it runs to `launch + window`.
#[test]
fn stuck_probe_stops_at_the_capture_limit_or_runs_the_window() {
    let case = |cfg: BenchConfig| Case {
        kind: GateKind::Nand,
        defect: Some((BreakdownStage::Hbd, Polarity::Nmos, 1)),
        v1: [false, true],
        v2: [true, true],
        cfg,
    };
    let limited = BenchConfig::table1();
    let runs = run_case(&case(limited.clone()));
    runs.assert_stops_at_verdict(&limited);
    assert_eq!(runs.outcome, TransitionOutcome::Stuck);
    assert!(runs.decided.len() < runs.full.len());

    let open = BenchConfig::new();
    let runs = run_case(&case(open.clone()));
    runs.assert_stops_at_verdict(&open);
    assert_eq!(runs.outcome, TransitionOutcome::Stuck);
    let end = (open.launch_ps + open.window_ps) * 1e-12;
    assert_eq!(runs.decided.time().last().copied(), Some(end));
}

#[test]
fn nor_bench_stops_at_the_output_crossing() {
    let cfg = BenchConfig::new();
    let runs = run_case(&Case {
        kind: GateKind::Nor,
        defect: None,
        v1: [false, false],
        v2: [true, false],
        cfg: cfg.clone(),
    });
    runs.assert_stops_at_verdict(&cfg);
    assert!(runs.outcome.delay_ps().is_some());
    assert!(runs.decided.len() < runs.full.len());
}
