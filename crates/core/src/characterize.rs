//! The Fig. 5 characterization bench and the measurements behind Table 1
//! and Figs. 4, 6 and 7.
//!
//! The bench embeds the device under test in real logic, exactly as the
//! paper insists: each NAND input is driven by a two-inverter chain from a
//! PWL source (so the defect's injected current loads a real driver), and
//! the output drives an inverter (so the degraded swing slows real
//! downstream logic).

use obd_cmos::expand::{expand, ExpandedCircuit};
use obd_cmos::TechParams;
use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_spice::analysis::dc::{dc_sweep, DcSweep};
use obd_spice::analysis::tran::{transient_until, transient_with_options, TranParams};
use obd_spice::devices::SourceWave;
use obd_spice::{Circuit, EdgeKind, NodeId, SimOptions, Waveform};

use crate::faultmodel::Polarity;
use crate::injection::inject_obd;
use crate::stage::{BreakdownStage, ObdParams};
use crate::ObdError;
use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Cell transitions measured (one decided transient each).
static TRANSITIONS_MEASURED: Counter = Counter::new("core.transitions_measured");
/// Table 1 cells whose measurement failed and were marked degraded.
static CELLS_DEGRADED: Counter = Counter::new("core.cells_degraded");

/// Chaos: corrupt a completed delay measurement to NaN; the measurement
/// guard must reject it as a typed error rather than tabulating garbage.
static CHAOS_DELAY_CORRUPT: InjectionPoint = InjectionPoint::new("core.delay_corrupt");

/// Outcome of one measured transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitionOutcome {
    /// 50 %-to-50 % propagation delay in picoseconds.
    Delay(f64),
    /// The output never crossed 50 % inside the window — Table 1's
    /// `sa-0` / `sa-1` entries.
    Stuck,
}

impl TransitionOutcome {
    /// The delay, if the transition completed.
    pub fn delay_ps(self) -> Option<f64> {
        match self {
            TransitionOutcome::Delay(d) => Some(d),
            TransitionOutcome::Stuck => None,
        }
    }

    /// Exact equality: both stuck, or delays with identical f64 bits.
    pub fn bits_eq(self, other: Self) -> bool {
        match (self, other) {
            (TransitionOutcome::Stuck, TransitionOutcome::Stuck) => true,
            (TransitionOutcome::Delay(p), TransitionOutcome::Delay(q)) => {
                p.to_bits() == q.to_bits()
            }
            _ => false,
        }
    }

    /// Table-style rendering: `"118ps"` or `"sa-0"`/`"sa-1"` given the
    /// expected final value.
    pub fn render(self, expected_final_high: bool) -> String {
        match self {
            TransitionOutcome::Delay(d) => format!("{:.0}ps", d),
            TransitionOutcome::Stuck => {
                if expected_final_high {
                    "sa-0".to_string() // output should rise, stays low
                } else {
                    "sa-1".to_string() // output should fall, stays high
                }
            }
        }
    }
}

/// Timing parameters for the characterization transients.
///
/// A delay measurement ends its transient at the verdict
/// ([`CrossingProbe`]): once the output has crossed after the input's
/// reference crossing or, with a capture limit, once the window has run
/// past the limit with no output crossing. Only a transition that never
/// completes without a limit simulates all of `launch_ps + window_ps`;
/// [`run_bench`] always returns the full window.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Input edge time at the PWL source (ps).
    pub edge_ps: f64,
    /// Time of the launch edge (ps).
    pub launch_ps: f64,
    /// Observation window after the launch edge (ps).
    pub window_ps: f64,
    /// Transient step (ps).
    pub step_ps: f64,
    /// Optional at-speed capture limit (ps): a transition arriving later
    /// than this counts as stuck, mirroring the paper's early-capture
    /// argument (§4.2). `None` uses the full window.
    pub at_speed_ps: Option<f64>,
}

impl BenchConfig {
    /// Default: 50 ps edges, launch at 1 ns, 4 ns window, 2 ps steps —
    /// fine enough to resolve the ~100 ps fault-free delays and wide
    /// enough to catch the 740 ps MBD2 PMOS row.
    pub fn new() -> Self {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 1000.0,
            window_ps: 4000.0,
            step_ps: 2.0,
            at_speed_ps: None,
        }
    }

    /// The Table 1 regeneration configuration: an 800 ps at-speed capture
    /// limit, under which the paper's `sa-0`/`sa-1` rows appear as stuck
    /// while every true delay row stays measurable.
    pub fn table1() -> Self {
        BenchConfig {
            at_speed_ps: Some(800.0),
            ..BenchConfig::new()
        }
    }

    /// The full observation window, `0..launch_ps + window_ps`, at
    /// `step_ps`.
    pub fn tran_params(&self) -> TranParams {
        let ps = 1e-12;
        TranParams::new(self.step_ps * ps, (self.launch_ps + self.window_ps) * ps)
    }

    /// The drive of a primary input that goes from `from` to `to`: a DC
    /// level, or an `edge_ps` step at the launch edge.
    pub(crate) fn input_wave(&self, tech: &TechParams, from: bool, to: bool) -> SourceWave {
        let ps = 1e-12;
        let lvl = |b: bool| if b { tech.vdd } else { 0.0 };
        if from == to {
            SourceWave::dc(lvl(from))
        } else {
            SourceWave::step(lvl(from), lvl(to), self.launch_ps * ps, self.edge_ps * ps)
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig::new()
    }
}

/// The Fig. 5 bench: a NAND2 with buffered inputs and a loaded output.
#[derive(Debug, Clone)]
pub struct Fig5Bench {
    /// The logic-level netlist of the bench.
    pub netlist: Netlist,
    /// The device under test.
    pub nand: GateId,
    /// Primary inputs (pre-driver).
    pub pis: [NetId; 2],
    /// Nets at the NAND's input pins (post-driver).
    pub nand_inputs: [NetId; 2],
    /// The NAND output net.
    pub output: NetId,
}

impl Fig5Bench {
    /// Builds the bench netlist around a NAND2 device under test.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn new() -> Result<Self, ObdError> {
        Fig5Bench::for_kind(GateKind::Nand)
    }

    /// Builds the bench around a NAND2 or NOR2 device under test — the
    /// NOR variant validates the §5 duality in the analog domain.
    ///
    /// # Errors
    ///
    /// [`ObdError::BadSite`] for kinds other than `Nand` and `Nor`;
    /// propagates netlist construction failures.
    pub fn for_kind(kind: GateKind) -> Result<Self, ObdError> {
        if !matches!(kind, GateKind::Nand | GateKind::Nor) {
            return Err(ObdError::BadSite(
                "bench supports NAND2 and NOR2 devices under test".into(),
            ));
        }
        let mut nl = Netlist::new();
        let a = nl.add_input("A");
        let b = nl.add_input("B");
        let a1 = nl.add_gate(GateKind::Inv, "da1", &[a])?;
        let a2 = nl.add_gate(GateKind::Inv, "da2", &[a1])?;
        let b1 = nl.add_gate(GateKind::Inv, "db1", &[b])?;
        let b2 = nl.add_gate(GateKind::Inv, "db2", &[b1])?;
        let y = nl.add_gate(kind, "dut", &[a2, b2])?;
        let load = nl.add_gate(GateKind::Inv, "load", &[y])?;
        nl.mark_output(load);
        let nand = nl
            .driver(y)
            .ok_or_else(|| ObdError::BadSite("device under test has no driver".into()))?;
        Ok(Fig5Bench {
            netlist: nl,
            nand,
            pis: [a, b],
            nand_inputs: [a2, b2],
            output: y,
        })
    }
}

/// An OBD defect specification for the bench: which NAND pin, which
/// polarity, and the model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchDefect {
    /// NAND input pin (0 = A, 1 = B).
    pub pin: usize,
    /// Transistor polarity.
    pub polarity: Polarity,
    /// Model parameters at the assumed progression point.
    pub params: ObdParams,
}

/// Runs the bench transient for one two-pattern sequence, returning the
/// full waveform plus the expanded circuit for node lookups.
///
/// # Errors
///
/// Propagates expansion, injection and simulation errors.
pub fn run_bench(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> Result<(Waveform, ExpandedCircuit, Fig5Bench), ObdError> {
    run_cell_bench(tech, GateKind::Nand, defect, v1, v2, cfg)
}

/// [`run_bench`] for a chosen device-under-test kind (NAND2 or NOR2).
///
/// # Errors
///
/// Propagates expansion, injection and simulation errors.
pub fn run_cell_bench(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> Result<(Waveform, ExpandedCircuit, Fig5Bench), ObdError> {
    let (exp, bench) = build_cell_bench(tech, kind, defect, v1, v2, cfg)?;
    let wave = transient_with_options(&exp.circuit, &cfg.tran_params(), &SimOptions::new())?;
    Ok((wave, exp, bench))
}

/// The bench circuit for one two-pattern sequence: the expanded Fig. 5
/// netlist with the defect injected and the primary inputs driven.
fn build_cell_bench(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> Result<(ExpandedCircuit, Fig5Bench), ObdError> {
    let bench = Fig5Bench::for_kind(kind)?;
    let mut exp = expand(&bench.netlist, tech)?;
    if let Some(d) = defect {
        let trs = exp.find_transistors(bench.nand, d.pin, d.polarity.mos());
        let tr = trs.first().ok_or_else(|| {
            ObdError::BadSite(format!("no {} transistor at pin {}", d.polarity, d.pin))
        })?;
        inject_obd(&mut exp.circuit, tr.device, d.params, "dut")?;
    }
    for (i, &pi) in bench.pis.iter().enumerate() {
        exp.drive_input(pi, cfg.input_wave(tech, v1[i], v2[i]));
    }
    Ok((exp, bench))
}

/// The delay measurement behind every characterization: the input's first
/// 50 % crossing after half the launch time is the reference edge, and
/// the output's first 50 % crossing at or after it is the measured edge.
///
/// The probe runs incrementally as the transient records samples, so the
/// run can stop at the verdict ([`CrossingProbe::measure`]). It tests each
/// new sample interval with [`Waveform::crossing_in`], the same test a
/// full [`Waveform::crossings`] scan applies, and the transient's steps do
/// not depend on where it stops — so a decided run finds exactly the
/// crossings, and the delay bits, of the full-window run.
#[derive(Debug, Clone)]
pub struct CrossingProbe {
    input: NodeId,
    input_edge: EdgeKind,
    output: NodeId,
    output_edge: EdgeKind,
    level: f64,
    t_start: f64,
    at_speed_ps: Option<f64>,
    guard: f64,
    window: TranParams,
    /// The next sample interval to test.
    next: usize,
    t_in: Option<f64>,
    t_out: Option<f64>,
}

impl CrossingProbe {
    /// A probe for an input edge and the output edge it should cause,
    /// both measured at `level`, under `cfg`'s launch time, capture limit
    /// and window.
    pub fn new(
        input: NodeId,
        input_rises: bool,
        output: NodeId,
        output_rises: bool,
        level: f64,
        cfg: &BenchConfig,
    ) -> Self {
        let edge = |rises| {
            if rises {
                EdgeKind::Rising
            } else {
                EdgeKind::Falling
            }
        };
        CrossingProbe {
            input,
            input_edge: edge(input_rises),
            output,
            output_edge: edge(output_rises),
            level,
            t_start: cfg.launch_ps * 1e-12 * 0.5,
            at_speed_ps: cfg.at_speed_ps,
            guard: 2.0 * cfg.step_ps * 1e-12,
            window: cfg.tran_params(),
            next: 1,
            t_in: None,
            t_out: None,
        }
    }

    /// Tests the sample intervals recorded since the last call and reports
    /// whether the verdict is decided: the output has crossed after the
    /// input's reference crossing, or, under a capture limit, the last
    /// sample lies two steps past `t_in + at_speed_ps` with no output
    /// crossing (any later one is over the limit).
    pub fn observe(&mut self, wave: &Waveform) -> bool {
        while self.t_out.is_none() && self.next < wave.len() {
            let i = self.next;
            self.next += 1;
            match self.t_in {
                None => {
                    self.t_in =
                        wave.crossing_in(self.input, i, self.level, self.input_edge, self.t_start);
                    if let Some(t_in) = self.t_in {
                        // The output search covers every interval ending at
                        // or after the reference crossing, this one included.
                        self.next = wave.time().partition_point(|&t| t < t_in).max(1);
                    }
                }
                Some(t_in) => {
                    self.t_out =
                        wave.crossing_in(self.output, i, self.level, self.output_edge, t_in);
                }
            }
        }
        match (self.t_in, self.t_out, self.at_speed_ps) {
            (_, Some(_), _) => true,
            (Some(t_in), None, Some(limit)) => wave
                .time()
                .last()
                .is_some_and(|&t| t >= t_in + limit * 1e-12 + self.guard),
            _ => false,
        }
    }

    /// Runs `ckt` over the window until the probe decides, then returns
    /// its verdict.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; see [`CrossingProbe::outcome`].
    pub fn measure(
        mut self,
        ckt: &Circuit,
        opts: &SimOptions,
    ) -> Result<TransitionOutcome, ObdError> {
        let window = self.window.clone();
        transient_until(ckt, &window, opts, |w| self.observe(w))?;
        TRANSITIONS_MEASURED.inc();
        self.outcome()
    }

    /// The verdict on the samples observed so far: the delay in ps, or
    /// stuck when the output has not crossed or crossed after the capture
    /// limit.
    ///
    /// # Errors
    ///
    /// [`ObdError::CorruptMeasurement`] for a non-finite or negative delay.
    pub fn outcome(&self) -> Result<TransitionOutcome, ObdError> {
        let (Some(ti), Some(to)) = (self.t_in, self.t_out) else {
            return Ok(TransitionOutcome::Stuck);
        };
        let mut ps = (to - ti) / 1e-12;
        if CHAOS_DELAY_CORRUPT.fire() {
            ps = f64::NAN;
        }
        // Measurement guard: crossings are time-ordered by construction,
        // so a NaN or negative delay means the measurement chain was
        // corrupted — report it instead of tabulating garbage.
        if !ps.is_finite() || ps < 0.0 {
            return Err(ObdError::CorruptMeasurement(format!(
                "non-physical propagation delay {ps} ps"
            )));
        }
        Ok(match self.at_speed_ps {
            Some(limit) if ps > limit => TransitionOutcome::Stuck,
            _ => TransitionOutcome::Delay(ps),
        })
    }
}

/// Measures the NAND propagation delay for one sequence under an optional
/// defect. The reference edge is the switching NAND *input* (post-driver)
/// crossing 50 %; the measured edge is the NAND output crossing 50 % in
/// the logically expected direction.
///
/// # Errors
///
/// Propagates expansion, injection and simulation errors; returns
/// [`ObdError::BadSite`] if neither input switches.
pub fn measure_transition(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> Result<TransitionOutcome, ObdError> {
    measure_cell_transition(tech, GateKind::Nand, defect, v1, v2, cfg)
}

/// [`measure_transition`] for a chosen device-under-test kind.
///
/// # Errors
///
/// Same conditions as [`measure_transition`].
pub fn measure_cell_transition(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> Result<TransitionOutcome, ObdError> {
    measure_cell_transition_with_options(tech, kind, defect, v1, v2, cfg, &SimOptions::new())
}

/// [`measure_cell_transition`] under explicit solver options. The
/// transient stops at the verdict ([`CrossingProbe`]); a sequence whose
/// output does not switch is stuck without simulating.
///
/// # Errors
///
/// Same conditions as [`measure_transition`].
#[allow(clippy::too_many_arguments)]
pub fn measure_cell_transition_with_options(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Result<TransitionOutcome, ObdError> {
    let (exp, bench) = build_cell_bench(tech, kind, defect, v1, v2, cfg)?;
    // Which DUT input switches (first switching pin is the reference)?
    let switching_pin = (0..2)
        .find(|&i| v1[i] != v2[i])
        .ok_or_else(|| ObdError::BadSite("no input switches in the sequence".into()))?;
    let out_fn = |v: [bool; 2]| match kind {
        GateKind::Nor => !(v[0] || v[1]),
        _ => !(v[0] && v[1]),
    };
    let out2 = out_fn(v2);
    if out_fn(v1) == out2 {
        // Output does not switch; delay is undefined for this sequence.
        return Ok(TransitionOutcome::Stuck);
    }
    let probe = CrossingProbe::new(
        exp.node(bench.nand_inputs[switching_pin]),
        v2[switching_pin],
        exp.node(bench.output),
        out2,
        tech.half_vdd(),
        cfg,
    );
    probe.measure(&exp.circuit, opts)
}

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Stage of the row.
    pub stage: BreakdownStage,
    /// Parameters used for the NMOS half (if available).
    pub nmos_params: Option<ObdParams>,
    /// Parameters used for the PMOS half (if available).
    pub pmos_params: Option<ObdParams>,
    /// NMOS outcomes for [(01,11) NA, (01,11) NB, (10,11) NA, (10,11) NB].
    pub nmos: [Option<TransitionOutcome>; 4],
    /// PMOS outcomes for [(11,10) PA, (11,10) PB, (11,01) PA, (11,01) PB].
    pub pmos: [Option<TransitionOutcome>; 4],
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in ladder order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Exact-bit equality of two grids: the same stages, and every cell
    /// empty on both sides or [`TransitionOutcome::bits_eq`].
    pub fn bit_identical(&self, other: &Table1) -> bool {
        let cell_eq =
            |(x, y): (&Option<TransitionOutcome>, &Option<TransitionOutcome>)| match (x, y) {
                (None, None) => true,
                (Some(a), Some(b)) => a.bits_eq(*b),
                _ => false,
            };
        self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.stage == b.stage
                    && a.nmos
                        .iter()
                        .zip(&b.nmos)
                        .chain(a.pmos.iter().zip(&b.pmos))
                        .all(cell_eq)
            })
    }

    /// Renders the table as text in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "stage      | (01,11) NA | (01,11) NB | (10,11) NA | (10,11) NB | (11,10) PA | (11,10) PB | (11,01) PA | (11,01) PB\n",
        );
        for row in &self.rows {
            s.push_str(&format!("{:<10}", row.stage.to_string()));
            for o in row.nmos.iter() {
                let txt = o.map_or("N/A".to_string(), |t| t.render(false));
                s.push_str(&format!(" | {txt:>10}"));
            }
            for o in row.pmos.iter() {
                let txt = o.map_or("N/A".to_string(), |t| t.render(true));
                s.push_str(&format!(" | {txt:>10}"));
            }
            s.push('\n');
        }
        s
    }
}

/// Regenerates Table 1 under solver options `opts`: transition delays of
/// the Fig. 5 NAND for the four single-input sequences under NMOS/PMOS
/// defects on each input, across the progression ladder.
///
/// Every cell of the grid is an independent transient (own circuit
/// expansion, own solver), so the cells fan out over `threads` workers of
/// the work-stealing [`crate::pool`]. Cell costs are wildly uneven —
/// a fault-free cell stops at its output crossing, a cell with no
/// reference crossing runs the full window — and stealing bounds the
/// imbalance by one cell. Each
/// job fills its own `(row, slot)` cell, so the table is identical at any
/// thread count; `threads <= 1` measures serially.
///
/// # Errors
///
/// The measurement error of the first failing cell in grid order.
pub fn characterize_table1(
    tech: &TechParams,
    cfg: &BenchConfig,
    opts: &SimOptions,
    threads: usize,
) -> Result<Table1, ObdError> {
    let (jobs, row_meta, cells) = table1_run(threads, |j| {
        measure_cell_transition_with_options(tech, GateKind::Nand, j.defect, j.v1, j.v2, cfg, opts)
    });
    Ok(table1_from_cells(
        row_meta,
        &jobs,
        cells?.into_iter().map(Some),
    ))
}

/// [`characterize_table1`] routed through a [`DelayCache`]: repeated
/// cells hit memory, and when the cache is persistent the whole grid is
/// served from disk on a warm rerun. Cells are visited serially in grid
/// order, so the assembled table is identical to
/// [`characterize_table1`]'s on a cold cache and the store sees the same
/// access sequence on every run.
///
/// # Errors
///
/// Propagates measurement errors.
///
/// [`DelayCache`]: crate::cache::DelayCache
pub fn characterize_table1_cached(
    tech: &TechParams,
    cfg: &BenchConfig,
    cache: &crate::cache::DelayCache,
) -> Result<Table1, ObdError> {
    let (jobs, row_meta, cells) = table1_run(1, |j| {
        cache.measure_cell(tech, GateKind::Nand, j.defect, j.v1, j.v2, cfg)
    });
    Ok(table1_from_cells(
        row_meta,
        &jobs,
        cells?.into_iter().map(Some),
    ))
}

/// A Table 1 cell whose measurement failed. The campaign records the
/// typed error and keeps going; the cell stays empty in the table.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Row index into [`Table1::rows`].
    pub row: usize,
    /// Slot index (0–3 NMOS, 4–7 PMOS).
    pub slot: usize,
    /// Breakdown stage of the failed row.
    pub stage: BreakdownStage,
    /// Rendered error that degraded the cell.
    pub error: String,
}

/// A Table 1 cell that measured successfully even though fault injection
/// fired during its solve: the escalation ladder absorbed the faults, so
/// the value is valid but may differ in low-order bits from an
/// injection-free run (the recovery path changes the numerical history).
#[derive(Debug, Clone)]
pub struct CellRecovery {
    /// Row index into [`Table1::rows`].
    pub row: usize,
    /// Slot index (0–3 NMOS, 4–7 PMOS).
    pub slot: usize,
    /// How many injections fired during this cell's measurement.
    pub injections: u64,
}

/// A gracefully degraded Table 1: every cell that measured cleanly, plus
/// explicit accounting for every cell that did not. Cells untouched by
/// fault injection are bit-identical to what [`characterize_table1`]
/// would produce; recovered cells are valid but path-dependent.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// The table with failed cells left empty.
    pub table: Table1,
    /// One entry per degraded cell; empty on a clean run.
    pub failures: Vec<CellFailure>,
    /// Cells that succeeded despite injections; empty on a clean run.
    pub recovered: Vec<CellRecovery>,
}

impl Table1Report {
    /// Whether any cell was degraded.
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Renders the table plus a degraded-cell annotation block.
    pub fn render(&self) -> String {
        let mut s = self.table.render();
        if !self.failures.is_empty() {
            s.push_str(&format!("degraded cells: {}\n", self.failures.len()));
            for f in &self.failures {
                s.push_str(&format!(
                    "  {} row {} slot {}: {}\n",
                    f.stage, f.row, f.slot, f.error
                ));
            }
        }
        s
    }

    /// Renders the failure accounting as a JSON array for run artifacts.
    pub fn failures_json(&self) -> String {
        let mut s = String::from("[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"row\": {}, \"slot\": {}, \"stage\": \"{}\", \"error\": \"{}\"}}",
                f.row,
                f.slot,
                f.stage,
                f.error.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        if !self.failures.is_empty() {
            s.push_str("\n  ");
        }
        s.push(']');
        s
    }
}

/// [`characterize_table1`] with graceful degradation: a cell whose
/// measurement fails is marked degraded (with its typed error) and the
/// campaign continues instead of aborting the whole table. Cells the
/// injection layer never touched are bit-identical to the strict
/// driver's; recovered cells (injections absorbed by the escalation
/// ladder) are valid but may differ in low-order bits.
///
/// Cells run serially: the injection counter is process-wide, so its
/// before/after delta belongs to one cell only while no other cell runs.
pub fn characterize_table1_degraded(
    tech: &TechParams,
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Table1Report {
    let (jobs, row_meta, cells) = table1_run(1, |j| {
        let before = obd_chaos::injected_total();
        let measured = measure_cell_transition_with_options(
            tech,
            GateKind::Nand,
            j.defect,
            j.v1,
            j.v2,
            cfg,
            opts,
        );
        Ok((measured, obd_chaos::injected_total().saturating_sub(before)))
    });
    // The jobs never fail, so only a pool failure lands here; it
    // degrades every cell rather than escaping as a panic.
    let cells = cells.unwrap_or_else(|e| vec![(Err(e), 0); jobs.len()]);
    let mut failures = Vec::new();
    let mut recovered = Vec::new();
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (j, (measured, injections)) in jobs.iter().zip(cells) {
        match measured {
            Ok(o) => {
                if injections > 0 {
                    recovered.push(CellRecovery {
                        row: j.row,
                        slot: j.slot,
                        injections,
                    });
                }
                outcomes.push(Some(o));
            }
            Err(e) => {
                CELLS_DEGRADED.inc();
                failures.push(CellFailure {
                    row: j.row,
                    slot: j.slot,
                    stage: row_meta[j.row].0,
                    error: e.to_string(),
                });
                outcomes.push(None);
            }
        }
    }
    Table1Report {
        table: table1_from_cells(row_meta, &jobs, outcomes),
        failures,
        recovered,
    }
}

/// One cell of the Table 1 grid: row/slot coordinates plus the
/// measurement inputs, flattened so independent transients can fan out
/// over worker threads.
struct Table1Job {
    row: usize,
    /// 0–3 = NMOS slots, 4–7 = PMOS slots.
    slot: usize,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
}

/// Per-row metadata: the progression stage plus its NMOS/PMOS model
/// parameters (absent where the stage has no such device variant).
type Table1RowMeta = (BreakdownStage, Option<ObdParams>, Option<ObdParams>);

/// Builds the flat job list for the Table 1 grid, in the same order the
/// serial driver visits it.
fn table1_jobs() -> (Vec<Table1Job>, Vec<Table1RowMeta>) {
    let nmos_seqs = [([false, true], [true, true]), ([true, false], [true, true])];
    let pmos_seqs = [([true, true], [true, false]), ([true, true], [false, true])];
    let mut jobs = Vec::new();
    let mut row_meta = Vec::new();
    for (row, stage) in BreakdownStage::TABLE1.into_iter().enumerate() {
        let nmos_params = stage.params(Polarity::Nmos).ok();
        let pmos_params = stage.params(Polarity::Pmos).ok();
        for (si, &(v1, v2)) in nmos_seqs.iter().enumerate() {
            for pin in 0..2 {
                let defect = match (stage, nmos_params) {
                    (BreakdownStage::FaultFree, _) => None,
                    (_, Some(p)) => Some(BenchDefect {
                        pin,
                        polarity: Polarity::Nmos,
                        params: p,
                    }),
                    _ => continue,
                };
                jobs.push(Table1Job {
                    row,
                    slot: si * 2 + pin,
                    defect,
                    v1,
                    v2,
                });
            }
        }
        for (si, &(v1, v2)) in pmos_seqs.iter().enumerate() {
            for pin in 0..2 {
                let defect = match (stage, pmos_params) {
                    (BreakdownStage::FaultFree, _) => None,
                    (_, Some(p)) => Some(BenchDefect {
                        pin,
                        polarity: Polarity::Pmos,
                        params: p,
                    }),
                    _ => continue,
                };
                jobs.push(Table1Job {
                    row,
                    slot: 4 + si * 2 + pin,
                    defect,
                    v1,
                    v2,
                });
            }
        }
        row_meta.push((stage, nmos_params, pmos_params));
    }
    (jobs, row_meta)
}

/// The one Table 1 job loop: measures every grid cell with `measure` on
/// `threads` pool workers. Returns the grid's jobs and row metadata with
/// the per-cell results in job order.
fn table1_run<T: Send>(
    threads: usize,
    measure: impl Fn(&Table1Job) -> Result<T, ObdError> + Sync,
) -> (Vec<Table1Job>, Vec<Table1RowMeta>, Result<Vec<T>, ObdError>) {
    let (jobs, row_meta) = table1_jobs();
    let cells = crate::pool::run_jobs(&jobs, threads, |_, j| measure(j));
    (jobs, row_meta, cells)
}

/// Assembles per-job cell outcomes (in job order) into [`Table1`] rows;
/// `None` leaves a cell empty.
fn table1_from_cells(
    row_meta: Vec<Table1RowMeta>,
    jobs: &[Table1Job],
    outcomes: impl IntoIterator<Item = Option<TransitionOutcome>>,
) -> Table1 {
    let mut slots = vec![[None; 8]; row_meta.len()];
    for (j, o) in jobs.iter().zip(outcomes) {
        slots[j.row][j.slot] = o;
    }
    let rows = row_meta
        .into_iter()
        .zip(slots)
        .map(|((stage, nmos_params, pmos_params), s)| Table1Row {
            stage,
            nmos_params,
            pmos_params,
            nmos: [s[0], s[1], s[2], s[3]],
            pmos: [s[4], s[5], s[6], s[7]],
        })
        .collect();
    Table1 { rows }
}

/// Fig. 4: the inverter voltage-transfer characteristic under an NMOS (or
/// PMOS) OBD defect at the given stage. Returns `(vin, vout)` pairs.
///
/// # Errors
///
/// Propagates expansion and sweep errors.
pub fn inverter_vtc(
    tech: &TechParams,
    polarity: Polarity,
    stage: BreakdownStage,
    points: usize,
) -> Result<Vec<(f64, f64)>, ObdError> {
    let mut nl = Netlist::new();
    let a = nl.add_input("in");
    let y = nl.add_gate(GateKind::Inv, "inv", &[a])?;
    nl.mark_output(y);
    let mut exp = expand(&nl, tech)?;
    if stage != BreakdownStage::FaultFree {
        let params = stage.params(polarity)?;
        let gate = nl
            .driver(y)
            .ok_or_else(|| ObdError::BadSite("inverter output has no driver".into()))?;
        let trs = exp.find_transistors(gate, 0, polarity.mos());
        let tr = trs
            .first()
            .ok_or_else(|| ObdError::BadSite(format!("no {polarity} transistor in inverter")))?;
        inject_obd(&mut exp.circuit, tr.device, params, "vtc")?;
    }
    exp.drive_input(a, SourceWave::dc(0.0));
    let sweep = DcSweep::new(
        &format!("VPI_{}", exp.node(a).index()),
        0.0,
        tech.vdd,
        points,
    );
    let res = dc_sweep(&exp.circuit, &SimOptions::new(), &sweep)?;
    Ok(res.transfer_curve(exp.node(y)))
}

/// Measures the excited-defect delay versus junction temperature — OBD
/// is heat-driven, and the Fig. 3b junction conduction scales with kT/q,
/// so the *same* defect parameters hurt more at elevated temperature.
/// Returns `(temp_c, outcome)` rows.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn delay_vs_temperature(
    tech: &TechParams,
    defect: BenchDefect,
    v1: [bool; 2],
    v2: [bool; 2],
    temps_c: &[f64],
    cfg: &BenchConfig,
) -> Result<Vec<(f64, TransitionOutcome)>, ObdError> {
    temps_c
        .iter()
        .map(|&t| {
            let opts = SimOptions::new().at_temperature(t);
            let outcome = measure_cell_transition_with_options(
                tech,
                GateKind::Nand,
                Some(defect),
                v1,
                v2,
                cfg,
                &opts,
            )?;
            Ok((t, outcome))
        })
        .collect()
}

/// Quiescent supply current (IDDQ) of the Fig. 5 bench at a static input
/// vector, in amps — the measurement the GOS literature (Segura et al.,
/// cited in §2) proposed for *hard* breakdown screening. With the
/// diode-resistor model, IDDQ grows by orders of magnitude over the
/// progression, so the same model also explains why IDDQ testing works
/// for manufactured shorts but reacts late for operational defects.
///
/// # Errors
///
/// Propagates expansion, injection and solve errors.
pub fn iddq(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    inputs: [bool; 2],
) -> Result<f64, ObdError> {
    iddq_at(tech, defect, inputs, 26.85)
}

/// [`iddq`] at an explicit junction temperature (°C). The breakdown
/// junctions follow the SPICE saturation-current temperature law, so the
/// same defect leaks exponentially more as the die heats — the
/// self-reinforcing thermal loop behind the progression from SBD to HBD
/// (§3.1's "high current density … causes high temperature at the defect
/// location").
///
/// # Errors
///
/// Propagates expansion, injection and solve errors.
pub fn iddq_at(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    inputs: [bool; 2],
    temp_c: f64,
) -> Result<f64, ObdError> {
    let bench = Fig5Bench::new()?;
    let mut exp = expand(&bench.netlist, tech)?;
    if let Some(d) = defect {
        let trs = exp.find_transistors(bench.nand, d.pin, d.polarity.mos());
        let tr = trs.first().ok_or_else(|| {
            ObdError::BadSite(format!("no {} transistor at pin {}", d.polarity, d.pin))
        })?;
        inject_obd(&mut exp.circuit, tr.device, d.params, "iddq")?;
    }
    for (i, &pi) in bench.pis.iter().enumerate() {
        let v = if inputs[i] { tech.vdd } else { 0.0 };
        exp.drive_input(pi, SourceWave::dc(v));
    }
    let opts = SimOptions::new().at_temperature(temp_c);
    let op = obd_spice::analysis::op::operating_point(&exp.circuit, &opts)?;
    // The VDD source is the first voltage source added by the expansion.
    op.supply_current_magnitude(0)
        .ok_or_else(|| ObdError::Spice("no supply source".into()))
}

/// Stage-to-delay lookup used by the gate-level fault model: the extra
/// transition delay (relative to fault-free) an excited OBD defect causes
/// at each stage, per polarity.
#[derive(Debug, Clone)]
pub struct DelayTable {
    /// Fault-free NAND fall delay (ps).
    pub base_fall_ps: f64,
    /// Fault-free NAND rise delay (ps).
    pub base_rise_ps: f64,
    /// `(stage, outcome)` for NMOS defects (excited falling transition).
    pub nmos: Vec<(BreakdownStage, TransitionOutcome)>,
    /// `(stage, outcome)` for PMOS defects (excited rising transition).
    pub pmos: Vec<(BreakdownStage, TransitionOutcome)>,
}

impl DelayTable {
    /// The paper's published Table 1 numbers — lets the gate-level layers
    /// run without analog simulation.
    pub fn paper() -> Self {
        use BreakdownStage::*;
        DelayTable {
            base_fall_ps: 96.0,
            base_rise_ps: 110.0,
            nmos: vec![
                (Sbd, TransitionOutcome::Delay(105.0)),
                (Mbd1, TransitionOutcome::Delay(118.0)),
                (Mbd2, TransitionOutcome::Delay(150.0)),
                (Mbd3, TransitionOutcome::Delay(210.0)),
                (Hbd, TransitionOutcome::Stuck),
            ],
            pmos: vec![
                (Sbd, TransitionOutcome::Delay(180.0)),
                (Mbd1, TransitionOutcome::Delay(360.0)),
                (Mbd2, TransitionOutcome::Delay(738.0)),
                (Mbd3, TransitionOutcome::Stuck),
                (Hbd, TransitionOutcome::Stuck),
            ],
        }
    }

    /// Builds the table by running the Fig. 5 characterization with this
    /// crate's analog model.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    pub fn from_characterization(tech: &TechParams, cfg: &BenchConfig) -> Result<Self, ObdError> {
        Self::build(|defect, v1, v2| measure_transition(tech, defect, v1, v2, cfg))
    }

    /// [`DelayTable::from_characterization`] through a [`DelayCache`]:
    /// measurements already in the cache (e.g. from a Table 1 run or an
    /// earlier annotation pass) are reused instead of re-simulated.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    pub fn from_characterization_cached(
        tech: &TechParams,
        cfg: &BenchConfig,
        cache: &crate::cache::DelayCache,
    ) -> Result<Self, ObdError> {
        Self::build(|defect, v1, v2| cache.measure(tech, defect, v1, v2, cfg))
    }

    fn build(
        mut measure: impl FnMut(
            Option<BenchDefect>,
            [bool; 2],
            [bool; 2],
        ) -> Result<TransitionOutcome, ObdError>,
    ) -> Result<Self, ObdError> {
        let base_fall = measure(None, [false, true], [true, true])?
            .delay_ps()
            .unwrap_or(f64::NAN);
        let base_rise = measure(None, [true, true], [false, true])?
            .delay_ps()
            .unwrap_or(f64::NAN);
        let mut nmos = Vec::new();
        let mut pmos = Vec::new();
        for stage in [
            BreakdownStage::Sbd,
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
            BreakdownStage::Hbd,
        ] {
            if let Ok(p) = stage.params(Polarity::Nmos) {
                let o = measure(
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Nmos,
                        params: p,
                    }),
                    [false, true],
                    [true, true],
                )?;
                nmos.push((stage, o));
            }
            if let Ok(p) = stage.params(Polarity::Pmos) {
                let o = measure(
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Pmos,
                        params: p,
                    }),
                    [true, true],
                    [false, true],
                )?;
                pmos.push((stage, o));
            } else {
                pmos.push((stage, TransitionOutcome::Stuck));
            }
        }
        Ok(DelayTable {
            base_fall_ps: base_fall,
            base_rise_ps: base_rise,
            nmos,
            pmos,
        })
    }

    /// The defect-induced *extra* delay at a stage: `None` means stuck.
    pub fn extra_delay_ps(&self, polarity: Polarity, stage: BreakdownStage) -> Option<f64> {
        if stage == BreakdownStage::FaultFree {
            return Some(0.0);
        }
        let (list, base) = match polarity {
            Polarity::Nmos => (&self.nmos, self.base_fall_ps),
            Polarity::Pmos => (&self.pmos, self.base_rise_ps),
        };
        let outcome = list
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, o)| *o)
            .unwrap_or(TransitionOutcome::Stuck);
        outcome.delay_ps().map(|d| (d - base).max(0.0))
    }

    /// Whether the defect at this stage behaves as a full stuck-at during
    /// at-speed operation.
    pub fn is_stuck(&self, polarity: Polarity, stage: BreakdownStage) -> bool {
        self.extra_delay_ps(polarity, stage).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bit_identity_distinguishes_cells() {
        let row = Table1Row {
            stage: BreakdownStage::Sbd,
            nmos_params: None,
            pmos_params: None,
            nmos: [
                Some(TransitionOutcome::Delay(123.456)),
                Some(TransitionOutcome::Stuck),
                None,
                None,
            ],
            pmos: [None; 4],
        };
        let t = Table1 {
            rows: vec![row.clone()],
        };
        assert!(t.bit_identical(&t));
        let mut flipped = Table1 { rows: vec![row] };
        flipped.rows[0].nmos[0] = Some(TransitionOutcome::Delay(123.456 + 1e-10));
        assert!(!t.bit_identical(&flipped));
        let d = TransitionOutcome::Delay(1.5);
        assert!(d.bits_eq(TransitionOutcome::Delay(1.5)));
        assert!(!d.bits_eq(TransitionOutcome::Stuck));
        assert!(!d.bits_eq(TransitionOutcome::Delay(1.5 + 1e-13)));
    }

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
        }
    }

    #[test]
    fn fault_free_delays_near_calibration_target() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let fall = measure_transition(&tech, None, [false, true], [true, true], &cfg)
            .unwrap()
            .delay_ps()
            .expect("fault-free NAND must switch");
        let rise = measure_transition(&tech, None, [true, true], [false, true], &cfg)
            .unwrap()
            .delay_ps()
            .expect("fault-free NAND must switch");
        // Calibration window: same order as the paper's 96 ps / 110 ps.
        assert!(fall > 30.0 && fall < 300.0, "fall = {fall} ps");
        assert!(rise > 30.0 && rise < 400.0, "rise = {rise} ps");
    }

    #[test]
    fn nmos_defect_slows_falling_transition_monotonically() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let mut last = 0.0;
        for stage in [
            BreakdownStage::FaultFree,
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd3,
        ] {
            let defect = stage.params(Polarity::Nmos).ok().and_then(|p| {
                (stage != BreakdownStage::FaultFree).then_some(BenchDefect {
                    pin: 0,
                    polarity: Polarity::Nmos,
                    params: p,
                })
            });
            let d = measure_transition(&tech, defect, [false, true], [true, true], &cfg).unwrap();
            match d {
                TransitionOutcome::Delay(ps) => {
                    assert!(ps >= last, "{stage}: {ps} >= {last}");
                    last = ps;
                }
                TransitionOutcome::Stuck => panic!("{stage} should not be stuck yet"),
            }
        }
    }

    #[test]
    fn pmos_defect_is_input_specific() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let p = BreakdownStage::Mbd2.params(Polarity::Pmos).unwrap();
        let defect_a = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Pmos,
            params: p,
        });
        // (11,01): input A falls — the defective PMOS-A is the sole
        // charging path: delay appears.
        let excited =
            measure_transition(&tech, defect_a, [true, true], [false, true], &cfg).unwrap();
        // (11,10): input B falls — PMOS-B charges: no extra delay.
        let masked =
            measure_transition(&tech, defect_a, [true, true], [true, false], &cfg).unwrap();
        let base = measure_transition(&tech, None, [true, true], [true, false], &cfg)
            .unwrap()
            .delay_ps()
            .unwrap();
        match (excited, masked) {
            (TransitionOutcome::Delay(de), TransitionOutcome::Delay(dm)) => {
                assert!(de > dm + 20.0, "excited {de} ps must exceed masked {dm} ps");
                assert!(
                    (dm - base).abs() < 0.35 * base + 20.0,
                    "masked {dm} vs base {base}"
                );
            }
            (TransitionOutcome::Stuck, TransitionOutcome::Delay(_)) => {
                // Even stronger manifestation: acceptable.
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn paper_delay_table_lookup() {
        let t = DelayTable::paper();
        assert_eq!(
            t.extra_delay_ps(Polarity::Nmos, BreakdownStage::FaultFree),
            Some(0.0)
        );
        let d = t
            .extra_delay_ps(Polarity::Nmos, BreakdownStage::Mbd1)
            .unwrap();
        assert!((d - 22.0).abs() < 1.0);
        assert!(t.is_stuck(Polarity::Nmos, BreakdownStage::Hbd));
        assert!(t.is_stuck(Polarity::Pmos, BreakdownStage::Mbd3));
        assert!(!t.is_stuck(Polarity::Pmos, BreakdownStage::Mbd2));
    }

    /// §5 analog validation of the NOR dual: the series-PMOS defect is
    /// excited by any rising-output sequence, the parallel-NMOS defect
    /// only by its own single-input rise.
    #[test]
    fn nor_duality_in_analog_model() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let kind = GateKind::Nor;
        // PMOS (series stack in a NOR) defect on pin 0: both (10,00) and
        // (01,00) — different switching inputs — show extra rise delay.
        let p = BreakdownStage::Mbd2.params(Polarity::Pmos).unwrap();
        let d_p = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Pmos,
            params: p,
        });
        let base_rise =
            measure_cell_transition(&tech, kind, None, [true, false], [false, false], &cfg)
                .unwrap()
                .delay_ps()
                .unwrap();
        for v1 in [[true, false], [false, true]] {
            let o = measure_cell_transition(&tech, kind, d_p, v1, [false, false], &cfg).unwrap();
            match o {
                TransitionOutcome::Delay(d) => {
                    assert!(d > base_rise + 40.0, "{v1:?}: {d} vs base {base_rise}")
                }
                TransitionOutcome::Stuck => {}
            }
        }
        // NMOS (parallel in a NOR) defect on pin 0 at SBD: excited by
        // (00,10), masked under (00,01).
        let n = BreakdownStage::Sbd.params(Polarity::Nmos).unwrap();
        let d_n = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: n,
        });
        let base_fall =
            measure_cell_transition(&tech, kind, None, [false, false], [false, true], &cfg)
                .unwrap()
                .delay_ps()
                .unwrap();
        let excited =
            measure_cell_transition(&tech, kind, d_n, [false, false], [true, false], &cfg)
                .unwrap()
                .delay_ps()
                .expect("excited NOR NMOS still switches at SBD");
        let masked = measure_cell_transition(&tech, kind, d_n, [false, false], [false, true], &cfg)
            .unwrap()
            .delay_ps()
            .expect("masked sequence switches");
        assert!(
            excited > masked + 30.0,
            "excited {excited} vs masked {masked}"
        );
        assert!(
            (masked - base_fall).abs() < 40.0,
            "masked {masked} vs base {base_fall}"
        );
    }

    /// Temperature behavior of the OBD ladder's fitted junctions: at
    /// Isat ≈ 1e-28 A the operating drop sits near 1.4 V, where the
    /// vt·ln(I/Isat) term dominates the energy-gap correction, so —
    /// unlike a commodity silicon diode — the leak varies only weakly
    /// (and slightly *downward*) with junction temperature. The ladder's
    /// (Isat, R) pairs are fitted parameters for a percolation path, not
    /// a physical pn junction, so the suite treats progression (not
    /// ambient temperature) as the driver of leakage growth, exactly as
    /// the paper does.
    #[test]
    fn obd_ladder_iddq_weakly_temperature_dependent() {
        let tech = TechParams::date05();
        let defect = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd1.params(Polarity::Nmos).unwrap(),
        });
        let cold = iddq_at(&tech, defect, [true, true], -40.0).unwrap();
        let nominal = iddq_at(&tech, defect, [true, true], 26.85).unwrap();
        let hot = iddq_at(&tech, defect, [true, true], 125.0).unwrap();
        let spread = (cold - hot).abs() / nominal;
        assert!(
            spread < 0.15,
            "OBD-regime leak should vary weakly with T: cold {cold}, hot {hot}"
        );
        // All three dwarf the healthy circuit regardless of temperature.
        let healthy = iddq_at(&tech, None, [true, true], 125.0).unwrap();
        for i in [cold, nominal, hot] {
            assert!(i > 100.0 * healthy.max(1e-12));
        }
    }

    /// The temperature sweep of the delay signature runs and produces
    /// measurable (non-stuck) outcomes over the automotive range; the
    /// *sign* of the delay shift is a competition between stronger
    /// junction conduction (slower) and the lower diode drop reducing the
    /// degraded-level penalty at the driver (faster), so only
    /// measurability is asserted here.
    #[test]
    fn delay_vs_temperature_sweep_is_measurable() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd1.params(Polarity::Nmos).unwrap(),
        };
        let rows = delay_vs_temperature(
            &tech,
            defect,
            [false, true],
            [true, true],
            &[-40.0, 26.85, 125.0],
            &cfg,
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        for (t, o) in &rows {
            assert!(o.delay_ps().is_some(), "stuck at {t}°C");
        }
    }

    /// IDDQ grows by orders of magnitude over the progression — the
    /// static signature the GOS (hard-breakdown) literature screens for.
    #[test]
    fn iddq_grows_monotonically_with_stage() {
        let tech = TechParams::date05();
        let healthy = iddq(&tech, None, [true, true]).unwrap();
        let mut last = healthy;
        for stage in [
            BreakdownStage::Sbd,
            BreakdownStage::Mbd2,
            BreakdownStage::Hbd,
        ] {
            let p = stage.params(Polarity::Nmos).unwrap();
            let i = iddq(
                &tech,
                Some(BenchDefect {
                    pin: 0,
                    polarity: Polarity::Nmos,
                    params: p,
                }),
                [true, true],
            )
            .unwrap();
            assert!(i > last, "{stage}: {i} should exceed {last}");
            last = i;
        }
        assert!(
            last > healthy * 100.0,
            "HBD IDDQ {last} should dwarf healthy {healthy}"
        );
    }

    #[test]
    fn vtc_vol_shifts_up_with_nmos_breakdown() {
        let tech = TechParams::date05();
        // VOL = output at vin = vdd.
        let vol = |stage: BreakdownStage| -> f64 {
            let curve = inverter_vtc(&tech, Polarity::Nmos, stage, 9).unwrap();
            curve.last().expect("sweep nonempty").1
        };
        let v_ff = vol(BreakdownStage::FaultFree);
        let v_mbd = vol(BreakdownStage::Mbd2);
        let v_hbd = vol(BreakdownStage::Hbd);
        assert!(v_ff < 0.1, "fault-free VOL ~ 0, got {v_ff}");
        assert!(v_mbd > v_ff, "MBD must lift VOL: {v_mbd} vs {v_ff}");
        assert!(
            v_hbd > v_mbd,
            "HBD must lift VOL further: {v_hbd} vs {v_mbd}"
        );
    }
}
