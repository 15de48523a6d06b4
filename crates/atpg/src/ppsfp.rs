//! Bit-parallel PPSFP fault grading over `[u64; N]` super-lanes.
//!
//! Parallel-pattern single-fault propagation: up to `64 * N` two-pattern
//! tests are packed into one [`WideBlock`] per frame, the good-machine
//! responses are computed **once per block** (not once per fault × test),
//! and each fault's forced-value (held-output) propagation is evaluated
//! for the whole block in a single packed sweep over the levelized
//! structure-of-arrays netlist ([`obd_logic::soa`]). Detection is then
//! one XOR/OR reduction over the packed primary-output words.
//!
//! The engine is generic over the super-lane width `N`
//! ([`SUPERLANE_WIDTH`] = 8 by default, i.e. 512 patterns per sweep):
//! every word the hot loop touches is a `[u64; N]` whose elementwise
//! AND/OR/XOR/popcount the compiler autovectorizes, amortizing the
//! per-gate walk overhead across eight 64-pattern lanes.
//!
//! Bit-exactness vs the scalar path ([`FaultSimulator::detects`]): the
//! packed simulator is two-valued (X packs as 0), so only *fully
//! specified* tests are packed — every lane of a packed evaluation is
//! then exactly one scalar three-valued evaluation, because all net
//! values are known and the gate functions agree on known values.
//! Tests carrying `X` bits fall back to the scalar path, preserving the
//! scalar semantics for them too.
//!
//! The engine also carries the campaign-level machinery the scalar loops
//! lacked: fault dropping (a detected fault leaves the campaign
//! immediately), a reusable per-worker [`PpsfpScratch`] arena so the
//! inner loop is allocation-free, and parallel grading and good-response
//! cache fills ([`PpsfpEngine::prepare_with_threads`]) as jobs on the
//! shared work-stealing [`obd_core::pool`], so a large test set does not
//! serialize the warm-up.
//!
//! For drop-heavy campaigns [`grade_adaptive`] picks the width
//! dynamically: narrow (width-1) rounds while faults are dying fast,
//! the full super-lane engine once the survivor set stabilizes — same
//! detection vector either way.

use std::sync::atomic::{AtomicBool, Ordering};

use obd_cmos::cell::Cell;
use obd_cmos::switch::{excites, CellTransistor, NetworkSide};
use obd_core::em::em_excites;
use obd_core::faultmodel::Polarity;
use obd_logic::netlist::{GateId, GateKind, NetId};
use obd_logic::value::Lv;
use obd_logic::wide::{LaneWord, WideBlock};
use obd_metrics::{Counter, Gauge};
use obd_store::{Digest, Store};

use crate::fault::{Fault, SlowTo, TwoPatternTest};
use crate::faultsim::{stuck_output_value, FaultSimulator, GradeOutcome};
use crate::AtpgError;

/// Default super-lane width: eight 64-bit lanes, 512 patterns per block.
pub const SUPERLANE_WIDTH: usize = 8;

/// Narrow warm-up budget of [`grade_adaptive`]: at most this many leading
/// tests are graded at width 1 before the engine switches to super-lanes.
pub const ADAPTIVE_WARMUP_TESTS: usize = 256;

/// A narrow round that detects fewer than `1 / ADAPTIVE_STABLE_DIVISOR`
/// of its surviving faults marks the survivor set as stable: the cheap
/// drops are over, switch to the wide engine.
const ADAPTIVE_STABLE_DIVISOR: usize = 16;

/// (fault, block) packed evaluations performed.
static BLOCKS_GRADED: Counter = Counter::new("atpg.blocks_graded");
/// Packed evaluations that reused a block's cached good-machine response
/// (every evaluation after the block's first).
static GOOD_SIM_CACHE_HITS: Counter = Counter::new("atpg.good_sim_cache_hits");
/// Faults detected with grading work still pending — the work the drop
/// skipped.
static FAULTS_DROPPED: Counter = Counter::new("atpg.faults_dropped");
/// Super-lane width (64-bit lanes per packed word) of the most recently
/// prepared engine.
static SUPERLANE_WIDTH_GAUGE: Gauge = Gauge::new("atpg.superlane_width");
/// Good-response blocks served from the persistent store (no simulation).
static GOOD_STORE_HITS: Counter = Counter::new("atpg.good_store_hits");
/// Good-response blocks simulated and written back to the store.
static GOOD_STORE_MISSES: Counter = Counter::new("atpg.good_store_misses");
/// Narrow (width-1) warm-up rounds consumed by adaptive grading.
static ADAPTIVE_NARROW_ROUNDS: Counter = Counter::new("atpg.adaptive_narrow_rounds");
/// Faults detected (and dropped) during the narrow warm-up rounds.
static ADAPTIVE_NARROW_DETECTIONS: Counter = Counter::new("atpg.adaptive_narrow_detections");
/// Faults that survived the warm-up and were handed to the wide engine.
static ADAPTIVE_WIDE_SURVIVORS: Counter = Counter::new("atpg.adaptive_wide_survivors");

/// One packed block of fully-specified tests with its cached
/// good-machine responses for both frames.
struct GoodBlock<const N: usize> {
    /// Packed launch frames.
    frame1: WideBlock<N>,
    /// Packed capture frames.
    frame2: WideBlock<N>,
    /// Good-machine net words under the launch frames.
    g1: Vec<LaneWord<N>>,
    /// Good-machine net words under the capture frames.
    g2: Vec<LaneWord<N>>,
    /// Valid-lane mask.
    mask: LaneWord<N>,
    /// Lane → original test index.
    tests: Vec<usize>,
    /// Whether any fault has been graded against this block yet (first
    /// evaluation pays for the good sims conceptually; the rest are
    /// cache hits).
    touched: AtomicBool,
}

/// Per-worker scratch arena: every buffer the packed inner loop needs,
/// reused across faults and blocks so steady-state grading performs no
/// heap allocation.
#[derive(Debug, Default)]
pub struct PpsfpScratch<const N: usize = SUPERLANE_WIDTH> {
    /// Faulty-machine net words (one per net).
    words: Vec<LaneWord<N>>,
    /// Frame-1 gate-input values of one lane.
    v1: Vec<bool>,
    /// Frame-2 gate-input values of one lane.
    v2: Vec<bool>,
}

/// How a fault is evaluated against a packed block, precomputed once per
/// fault. Everything test-independent about the scalar decision ladder
/// (stuck-stage degeneration, slack gating, cell/transistor resolution)
/// is folded in here.
enum FaultPlan<'c, const N: usize> {
    /// Test-independent reasons make the fault undetectable (slack-gated
    /// delay, pin without a transistor in the relevant network).
    Never,
    /// Forced-value stuck-at on a net: `word` is the packed stuck value.
    StuckAt { net: NetId, word: LaneWord<N> },
    /// Transition fault: launch check at the net, then held-value
    /// propagation.
    Transition { net: NetId, rise: bool },
    /// OBD/EM fault in the delay regime: per-lane excitation on the gate
    /// inputs, then held-value propagation of the output.
    Excited {
        gate: GateId,
        out: NetId,
        cell: &'c Cell,
        transistor: CellTransistor,
        em: bool,
    },
}

/// A prepared bit-parallel grading engine over one simulator and one
/// test set, `N` super-lanes (`64 * N` patterns) per packed block.
pub struct PpsfpEngine<'a, 's, const N: usize = SUPERLANE_WIDTH> {
    sim: &'s FaultSimulator<'a>,
    tests: &'s [TwoPatternTest],
    blocks: Vec<GoodBlock<N>>,
    /// Original indices of X-bearing tests graded via the scalar path.
    scalar_tests: Vec<usize>,
    /// Cells by (kind, arity), with their leaf lists resolved once so
    /// fault planning is allocation-free (`SpNet::leaves` allocates).
    cells: Vec<CellEntry>,
    /// Good-response blocks served from the persistent store at prepare
    /// time (zero when persistence is disarmed).
    store_hits: u64,
    /// Good-response blocks simulated fresh and written back.
    store_misses: u64,
}

/// A cached cell with its transistor leaf lists (pin per leaf, in
/// [`obd_cmos::SpNet::leaves`] order).
struct CellEntry {
    key: (GateKind, usize),
    cell: Cell,
    pulldown_leaves: Vec<usize>,
    pullup_leaves: Vec<usize>,
}

impl CellEntry {
    /// The transistor at (pin, polarity), or `None` when the pin has no
    /// leaf in the relevant network — the allocation-free equivalent of
    /// [`obd_core::faultmodel::ObdFault::cell_transistor`].
    fn transistor(&self, pin: usize, polarity: Polarity) -> Option<CellTransistor> {
        let side = polarity.side();
        let leaves = match side {
            NetworkSide::Pulldown => &self.pulldown_leaves,
            NetworkSide::Pullup => &self.pullup_leaves,
        };
        let leaf = leaves.iter().position(|&p| p == pin)?;
        Some(CellTransistor { side, leaf })
    }
}

impl<'a, 's, const N: usize> PpsfpEngine<'a, 's, N> {
    /// Packs the test set and computes the good-machine responses once
    /// per `64 * N`-test block.
    ///
    /// # Errors
    ///
    /// [`AtpgError::VectorWidth`] on malformed tests.
    pub fn prepare(
        sim: &'s FaultSimulator<'a>,
        tests: &'s [TwoPatternTest],
    ) -> Result<Self, AtpgError> {
        Self::prepare_with_threads(sim, tests, 1)
    }

    /// [`PpsfpEngine::prepare`] with the good-response cache fills
    /// batched across `threads` workers — on a large test set over a
    /// large circuit the good sims dominate preparation, and each block
    /// is independent.
    ///
    /// # Errors
    ///
    /// [`AtpgError::VectorWidth`] on malformed tests.
    pub fn prepare_with_threads(
        sim: &'s FaultSimulator<'a>,
        tests: &'s [TwoPatternTest],
        threads: usize,
    ) -> Result<Self, AtpgError> {
        let width = sim.nl.inputs().len();
        for t in tests {
            for frame in [&t.v1, &t.v2] {
                if frame.len() != width {
                    return Err(AtpgError::VectorWidth {
                        expected: width,
                        found: frame.len(),
                    });
                }
            }
        }
        SUPERLANE_WIDTH_GAUGE.set(N as f64);
        let mut packed_idx = Vec::new();
        let mut scalar_tests = Vec::new();
        for (i, t) in tests.iter().enumerate() {
            if t.v1.iter().chain(t.v2.iter()).all(|v| v.is_known()) {
                packed_idx.push(i);
            } else {
                scalar_tests.push(i);
            }
        }
        let capacity = WideBlock::<N>::CAPACITY;
        let mut blocks = Vec::with_capacity(packed_idx.len().div_ceil(capacity));
        let mut slices: Vec<&[Lv]> = Vec::with_capacity(capacity);
        for chunk in packed_idx.chunks(capacity) {
            slices.clear();
            slices.extend(chunk.iter().map(|&i| tests[i].v1.as_slice()));
            let frame1 = WideBlock::pack_slices(&slices)?;
            slices.clear();
            slices.extend(chunk.iter().map(|&i| tests[i].v2.as_slice()));
            let frame2 = WideBlock::pack_slices(&slices)?;
            blocks.push(GoodBlock {
                mask: frame1.mask(),
                frame1,
                frame2,
                g1: Vec::new(),
                g2: Vec::new(),
                tests: chunk.to_vec(),
                touched: AtomicBool::new(false),
            });
        }
        let store = obd_store::global();
        let (store_hits, store_misses) =
            Self::fill_good_responses(sim, &mut blocks, threads, store.as_deref())?;
        let mut cells: Vec<CellEntry> = Vec::new();
        for g in sim.nl.gate_ids() {
            let gate = sim.nl.gate(g);
            let key = (gate.kind, gate.inputs.len());
            if cells.iter().any(|c| c.key == key) {
                continue;
            }
            if let Some(cell) = obd_core::faultmodel::cell_for_kind(gate.kind, gate.inputs.len()) {
                cells.push(CellEntry {
                    key,
                    pulldown_leaves: cell.pulldown.leaves(),
                    pullup_leaves: cell.pullup.leaves(),
                    cell,
                });
            }
        }
        Ok(PpsfpEngine {
            sim,
            tests,
            blocks,
            scalar_tests,
            cells,
            store_hits,
            store_misses,
        })
    }

    /// Content address of one block's good-machine response: the exact
    /// circuit structure plus the exact packed frames, under a versioned
    /// domain. Any change to the netlist, the lane width, or any test
    /// bit produces a different digest.
    fn block_digest(soa_fingerprint: u64, num_nets: usize, blk: &GoodBlock<N>) -> u64 {
        let mut d = Digest::new("atpg.goodresp.v1")
            .u64(soa_fingerprint)
            .u64(N as u64)
            .u64(num_nets as u64)
            .u64(blk.frame1.num_inputs() as u64)
            .u64(blk.frame1.len() as u64);
        for frame in [&blk.frame1, &blk.frame2] {
            for i in 0..frame.num_inputs() {
                let w = frame.word(i);
                for lane in 0..N {
                    d = d.u64(w.lane(lane));
                }
            }
        }
        d.finish()
    }

    /// Serializes a block's `g1 ++ g2` response words as raw LE `u64`
    /// lanes: `2 * num_nets * N * 8` bytes exactly.
    fn encode_good(g1: &[LaneWord<N>], g2: &[LaneWord<N>]) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * g1.len() * N * 8);
        for words in [g1, g2] {
            for w in words {
                for lane in 0..N {
                    out.extend_from_slice(&w.lane(lane).to_le_bytes());
                }
            }
        }
        out
    }

    /// Strict inverse of [`Self::encode_good`]; `None` (a miss) on any
    /// payload whose length does not match this circuit exactly.
    fn decode_good(bytes: &[u8], num_nets: usize) -> Option<(Vec<LaneWord<N>>, Vec<LaneWord<N>>)> {
        if bytes.len() != 2 * num_nets * N * 8 {
            return None;
        }
        let mut chunks = bytes.chunks_exact(8);
        let mut read_words = |count: usize| -> Vec<LaneWord<N>> {
            (0..count)
                .map(|_| {
                    let mut lanes = [0u64; N];
                    for lane in lanes.iter_mut() {
                        let bits: [u8; 8] = chunks
                            .next()
                            .and_then(|c| c.try_into().ok())
                            .unwrap_or_default();
                        *lane = u64::from_le_bytes(bits);
                    }
                    LaneWord(lanes)
                })
                .collect()
        };
        let g1 = read_words(num_nets);
        let g2 = read_words(num_nets);
        Some((g1, g2))
    }

    /// Simulates the good machine into every block's frame caches, one
    /// pool job per block on `threads` workers. When a persistent `store`
    /// is armed, each block first probes it by content digest (netlist
    /// structure + exact packed frames) — a hit skips both good sims —
    /// and fresh responses are written back. Returns
    /// `(store_hits, store_misses)`.
    fn fill_good_responses(
        sim: &FaultSimulator<'a>,
        blocks: &mut [GoodBlock<N>],
        threads: usize,
        store: Option<&Store>,
    ) -> Result<(u64, u64), AtpgError> {
        let num_nets = sim.soa.num_nets();
        let soa_fp = sim.soa.fingerprint();
        let responses = obd_core::pool::run_jobs(blocks, threads, |_, blk| {
            let digest = store.map(|_| Self::block_digest(soa_fp, num_nets, blk));
            if let (Some(store), Some(digest)) = (store, digest) {
                // Store errors (corruption, I/O) degrade to a miss: the
                // good sims below recompute the exact same response.
                if let Some((g1, g2)) = store
                    .get(digest)
                    .ok()
                    .flatten()
                    .as_deref()
                    .and_then(|b| Self::decode_good(b, num_nets))
                {
                    GOOD_STORE_HITS.inc();
                    return Ok((g1, g2, true));
                }
            }
            let (mut g1, mut g2) = (Vec::new(), Vec::new());
            sim.soa.simulate_wide_into(&blk.frame1, &mut g1)?;
            sim.soa.simulate_wide_into(&blk.frame2, &mut g2)?;
            if let (Some(store), Some(digest)) = (store, digest) {
                GOOD_STORE_MISSES.inc();
                let _ = store.put(digest, &Self::encode_good(&g1, &g2));
            }
            Ok::<_, AtpgError>((g1, g2, false))
        })?;
        let hits = responses.iter().filter(|&&(_, _, hit)| hit).count() as u64;
        let misses = if store.is_some() {
            blocks.len() as u64 - hits
        } else {
            0
        };
        for (blk, (g1, g2, _)) in blocks.iter_mut().zip(responses) {
            blk.g1 = g1;
            blk.g2 = g2;
        }
        Ok((hits, misses))
    }

    /// Number of tests in the set.
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// Number of packed `64 * N`-test blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of X-bearing tests graded via the scalar fallback.
    pub fn scalar_fallback_tests(&self) -> usize {
        self.scalar_tests.len()
    }

    /// Good-response blocks served from the persistent store at prepare
    /// time (zero when persistence is disarmed).
    pub fn store_hits(&self) -> u64 {
        self.store_hits
    }

    /// Good-response blocks simulated fresh (and written back when a
    /// store is armed).
    pub fn store_misses(&self) -> u64 {
        self.store_misses
    }

    fn cell(&self, kind: GateKind, arity: usize) -> Option<&CellEntry> {
        self.cells.iter().find(|c| c.key == (kind, arity))
    }

    /// Folds the test-independent part of the scalar decision ladder
    /// into a per-fault plan.
    fn plan(&self, fault: &Fault) -> Result<FaultPlan<'_, N>, AtpgError> {
        match fault {
            Fault::StuckAt { net, value } => Ok(FaultPlan::StuckAt {
                net: *net,
                word: if *value {
                    LaneWord::ONES
                } else {
                    LaneWord::ZERO
                },
            }),
            Fault::Transition { net, slow_to } => Ok(FaultPlan::Transition {
                net: *net,
                rise: *slow_to == SlowTo::Rise,
            }),
            Fault::Obd(f) => {
                let gate = self.sim.nl.gate(f.gate);
                let entry = self.cell(gate.kind, gate.inputs.len()).ok_or_else(|| {
                    AtpgError::UnsupportedGate {
                        gate: gate.name.clone(),
                    }
                })?;
                // Stuck stages degenerate into an output stuck-at.
                if self.sim.table.is_stuck(f.polarity, f.stage) {
                    let value = stuck_output_value(gate.kind, f.polarity);
                    return Ok(FaultPlan::StuckAt {
                        net: gate.output,
                        word: if value {
                            LaneWord::ONES
                        } else {
                            LaneWord::ZERO
                        },
                    });
                }
                // Delay regime: the extra delay must beat the slack.
                match self.sim.table.extra_delay_ps(f.polarity, f.stage) {
                    Some(d) if d > self.sim.slack_for(f.gate) => {}
                    _ => return Ok(FaultPlan::Never),
                }
                let Some(transistor) = entry.transistor(f.pin, f.polarity) else {
                    return Ok(FaultPlan::Never);
                };
                Ok(FaultPlan::Excited {
                    gate: f.gate,
                    out: gate.output,
                    cell: &entry.cell,
                    transistor,
                    em: false,
                })
            }
            Fault::Em {
                gate,
                pin,
                polarity,
            } => {
                let g = self.sim.nl.gate(*gate);
                let entry = self.cell(g.kind, g.inputs.len()).ok_or_else(|| {
                    AtpgError::UnsupportedGate {
                        gate: g.name.clone(),
                    }
                })?;
                let Some(transistor) = entry.transistor(*pin, *polarity) else {
                    return Ok(FaultPlan::Never);
                };
                Ok(FaultPlan::Excited {
                    gate: *gate,
                    out: g.output,
                    cell: &entry.cell,
                    transistor,
                    em: true,
                })
            }
        }
    }

    /// XOR/OR reduction over the packed primary-output words.
    fn po_diff(&self, good: &[LaneWord<N>], faulty: &[LaneWord<N>]) -> LaneWord<N> {
        let mut d = LaneWord::ZERO;
        for &po in self.sim.soa.outputs() {
            d |= good[po as usize] ^ faulty[po as usize];
        }
        d
    }

    /// Frame-2 propagation of a held value: force `net` to its packed
    /// frame-1 word and diff the POs against the cached good response.
    fn held_value_diff(
        &self,
        blk: &GoodBlock<N>,
        net: NetId,
        held: LaneWord<N>,
        scratch: &mut PpsfpScratch<N>,
    ) -> Result<LaneWord<N>, AtpgError> {
        self.sim
            .soa
            .simulate_wide_forced_into(&blk.frame2, &[(net, held)], &mut scratch.words)?;
        Ok(self.po_diff(&blk.g2, &scratch.words) & blk.mask)
    }

    /// Detection mask of a fault over one block: bit `k` set iff lane
    /// `k`'s test detects the fault.
    fn detect_mask(
        &self,
        plan: &FaultPlan<'_, N>,
        blk: &GoodBlock<N>,
        scratch: &mut PpsfpScratch<N>,
    ) -> Result<LaneWord<N>, AtpgError> {
        match *plan {
            FaultPlan::Never => Ok(LaneWord::ZERO),
            FaultPlan::StuckAt { net, word } => {
                let mut det = LaneWord::ZERO;
                for (frame, good) in [(&blk.frame1, &blk.g1), (&blk.frame2, &blk.g2)] {
                    self.sim.soa.simulate_wide_forced_into(
                        frame,
                        &[(net, word)],
                        &mut scratch.words,
                    )?;
                    det |= self.po_diff(good, &scratch.words);
                }
                Ok(det & blk.mask)
            }
            FaultPlan::Transition { net, rise } => {
                let (w1, w2) = (blk.g1[net.index()], blk.g2[net.index()]);
                let launched = if rise { !w1 & w2 } else { w1 & !w2 } & blk.mask;
                if launched.is_zero() {
                    return Ok(LaneWord::ZERO);
                }
                Ok(self.held_value_diff(blk, net, w1, scratch)? & launched)
            }
            FaultPlan::Excited {
                gate,
                out,
                cell,
                transistor,
                em,
            } => {
                let (w1, w2) = (blk.g1[out.index()], blk.g2[out.index()]);
                // Lanes without an output transition can neither be
                // excited nor corrupt the capture (the held value equals
                // the good value), so they filter out up front.
                let candidate = (w1 ^ w2) & blk.mask;
                if candidate.is_zero() {
                    return Ok(LaneWord::ZERO);
                }
                let pins = &self.sim.nl.gate(gate).inputs;
                let mut excited = LaneWord::ZERO;
                for lane in 0..N {
                    let mut c = candidate.lane(lane);
                    while c != 0 {
                        let k = lane * 64 + c.trailing_zeros() as usize;
                        c &= c - 1;
                        scratch.v1.clear();
                        scratch.v2.clear();
                        for &p in pins {
                            scratch.v1.push(blk.g1[p.index()].bit(k));
                            scratch.v2.push(blk.g2[p.index()].bit(k));
                        }
                        let hit = if em {
                            em_excites(cell, transistor, &scratch.v1, &scratch.v2)
                        } else {
                            excites(cell, transistor, &scratch.v1, &scratch.v2)
                        };
                        if hit {
                            excited.set_bit(k);
                        }
                    }
                }
                if excited.is_zero() {
                    return Ok(LaneWord::ZERO);
                }
                Ok(self.held_value_diff(blk, out, w1, scratch)? & excited)
            }
        }
    }

    /// Counts the block against the grading metrics and reports whether
    /// its good response was already cached by an earlier fault.
    fn touch(blk: &GoodBlock<N>) {
        BLOCKS_GRADED.inc();
        if blk.touched.swap(true, Ordering::Relaxed) {
            GOOD_SIM_CACHE_HITS.inc();
        }
    }

    /// Whether any test detects the fault, dropping the fault at its
    /// first detection (remaining blocks/tests are skipped).
    ///
    /// # Errors
    ///
    /// Propagates planning and scalar-fallback detection errors.
    pub fn grade_one(
        &self,
        fault: &Fault,
        scratch: &mut PpsfpScratch<N>,
    ) -> Result<bool, AtpgError> {
        let total = self.blocks.len() + self.scalar_tests.len();
        if total == 0 {
            return Ok(false);
        }
        let plan = self.plan(fault)?;
        let mut done = 0usize;
        for blk in &self.blocks {
            Self::touch(blk);
            done += 1;
            if self.detect_mask(&plan, blk, scratch)?.any() {
                if done < total {
                    FAULTS_DROPPED.inc();
                }
                return Ok(true);
            }
        }
        for &i in &self.scalar_tests {
            done += 1;
            if self.sim.detects(fault, &self.tests[i])? {
                if done < total {
                    FAULTS_DROPPED.inc();
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Per-test detection flags for one fault (no dropping), in test
    /// order — the engine-side primitive behind detection matrices and
    /// BIST response modeling.
    ///
    /// # Errors
    ///
    /// Propagates planning and scalar-fallback detection errors.
    pub fn detection_row(
        &self,
        fault: &Fault,
        scratch: &mut PpsfpScratch<N>,
    ) -> Result<Vec<bool>, AtpgError> {
        let mut row = vec![false; self.tests.len()];
        if self.tests.is_empty() {
            return Ok(row);
        }
        let plan = self.plan(fault)?;
        for blk in &self.blocks {
            Self::touch(blk);
            let m = self.detect_mask(&plan, blk, scratch)?;
            for k in m.set_bits() {
                row[blk.tests[k]] = true;
            }
        }
        for &i in &self.scalar_tests {
            row[i] = self.sim.detects(fault, &self.tests[i])?;
        }
        Ok(row)
    }

    /// Grades the fault list serially (fault-major, with dropping): the
    /// one-thread case of [`PpsfpEngine::grade_parallel`].
    ///
    /// # Errors
    ///
    /// Propagates detection errors.
    pub fn grade(&self, faults: &[Fault]) -> Result<Vec<bool>, AtpgError> {
        self.grade_parallel(faults, 1)
    }

    /// Grades the fault list on `threads` pool workers, one job per
    /// fault, each worker reusing its own [`PpsfpScratch`]. Stealing
    /// fault indices keeps the workers load-balanced under dropping.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing fault, whatever the
    /// thread count; worker panics surface as [`AtpgError::Internal`].
    pub fn grade_parallel(&self, faults: &[Fault], threads: usize) -> Result<Vec<bool>, AtpgError> {
        obd_core::pool::run_jobs_with(faults, threads, PpsfpScratch::default, |scratch, _, f| {
            self.grade_one(f, scratch)
        })
    }

    /// Gracefully degraded grading with dropping: a fault whose
    /// evaluation errors out (or for which `inject` fires) becomes
    /// [`GradeOutcome::Degraded`] and stops consuming tests; the
    /// campaign continues.
    pub fn grade_degraded(&self, faults: &[Fault], inject: &dyn Fn() -> bool) -> Vec<GradeOutcome> {
        let mut scratch = PpsfpScratch::default();
        faults
            .iter()
            .map(|f| self.grade_one_degraded(f, &mut scratch, inject))
            .collect()
    }

    fn grade_one_degraded(
        &self,
        fault: &Fault,
        scratch: &mut PpsfpScratch<N>,
        inject: &dyn Fn() -> bool,
    ) -> GradeOutcome {
        if self.blocks.is_empty() && self.scalar_tests.is_empty() {
            return GradeOutcome::Undetected;
        }
        let plan = match self.plan(fault) {
            Ok(p) => p,
            Err(e) => return GradeOutcome::Degraded(e.to_string()),
        };
        let chaos = || {
            GradeOutcome::Degraded(
                AtpgError::Internal("injected grading failure (chaos)".into()).to_string(),
            )
        };
        for blk in &self.blocks {
            if inject() {
                return chaos();
            }
            Self::touch(blk);
            match self.detect_mask(&plan, blk, scratch) {
                Ok(m) if m.is_zero() => {}
                Ok(_) => return GradeOutcome::Detected,
                Err(e) => return GradeOutcome::Degraded(e.to_string()),
            }
        }
        for &i in &self.scalar_tests {
            if inject() {
                return chaos();
            }
            match self.sim.detects(fault, &self.tests[i]) {
                Ok(true) => return GradeOutcome::Detected,
                Ok(false) => {}
                Err(e) => return GradeOutcome::Degraded(e.to_string()),
            }
        }
        GradeOutcome::Undetected
    }
}

/// Outcome of one [`grade_adaptive`] campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveGrade {
    /// Per-fault detection flags, in fault order — bit-identical with
    /// [`PpsfpEngine::grade`] at any fixed width.
    pub detected: Vec<bool>,
    /// Narrow (width-1) rounds consumed before the switch.
    pub narrow_rounds: usize,
    /// Faults detected (and dropped) during the narrow rounds.
    pub narrow_detections: usize,
    /// Survivors handed to the wide engine; zero when the warm-up settled
    /// every fault on its own.
    pub wide_survivors: usize,
}

/// Adaptive-width grading for drop-heavy campaigns.
///
/// Early in a grading campaign most faults die on their first block: a
/// random two-pattern set detects the easy bulk of the fault list within
/// a few dozen tests, and evaluating those doomed faults against a full
/// `64 * N`-lane super-block wastes `N`× the packed work their first 64
/// tests would have needed. This grader therefore starts *narrow*: the
/// leading [`ADAPTIVE_WARMUP_TESTS`] tests are packed at width 1 and
/// graded one 64-test round at a time with dropping. After any round
/// that detects fewer than 1/16 of its surviving faults — the survivor
/// set has stabilized and further narrow rounds would just re-prove
/// hard faults undetected 64 lanes at a time — the survivors switch to
/// the full [`SUPERLANE_WIDTH`] engine over the whole test set, graded
/// with the work-stealing parallel driver.
///
/// The survivors' wide pass re-checks the warm-up prefix (it is at most
/// half of one wide block), so the result is a plain union of genuine
/// detections: the returned vector is bit-identical with single-width
/// grading at any width and any thread count. When the warm-up covers
/// the entire test set — every narrow block consumed, no X-bearing
/// scalar fallback — the wide phase is skipped outright.
///
/// # Errors
///
/// Propagates packing, planning and detection errors.
pub fn grade_adaptive(
    sim: &FaultSimulator<'_>,
    tests: &[TwoPatternTest],
    faults: &[Fault],
    threads: usize,
) -> Result<AdaptiveGrade, AtpgError> {
    let mut detected = vec![false; faults.len()];
    if faults.is_empty() || tests.is_empty() {
        return Ok(AdaptiveGrade {
            detected,
            narrow_rounds: 0,
            narrow_detections: 0,
            wide_survivors: 0,
        });
    }
    let warmup = tests.len().min(ADAPTIVE_WARMUP_TESTS);
    let narrow = PpsfpEngine::<1>::prepare(sim, &tests[..warmup])?;
    let mut scratch = PpsfpScratch::<1>::default();
    let mut survivors: Vec<(usize, FaultPlan<'_, 1>)> = faults
        .iter()
        .enumerate()
        .map(|(i, f)| narrow.plan(f).map(|p| (i, p)))
        .collect::<Result<_, _>>()?;
    let mut narrow_rounds = 0usize;
    let mut narrow_detections = 0usize;
    for blk in &narrow.blocks {
        if survivors.is_empty() {
            break;
        }
        let before = survivors.len();
        let mut kept = Vec::with_capacity(before);
        for (i, plan) in survivors.drain(..) {
            PpsfpEngine::touch(blk);
            if narrow.detect_mask(&plan, blk, &mut scratch)?.any() {
                detected[i] = true;
                narrow_detections += 1;
            } else {
                kept.push((i, plan));
            }
        }
        survivors = kept;
        narrow_rounds += 1;
        ADAPTIVE_NARROW_ROUNDS.inc();
        let dropped = before - survivors.len();
        if dropped * ADAPTIVE_STABLE_DIVISOR < before {
            break;
        }
    }
    ADAPTIVE_NARROW_DETECTIONS.add(narrow_detections as u64);
    let settled = survivors.is_empty()
        || (warmup == tests.len()
            && narrow.scalar_tests.is_empty()
            && narrow_rounds == narrow.blocks.len());
    if settled {
        return Ok(AdaptiveGrade {
            detected,
            narrow_rounds,
            narrow_detections,
            wide_survivors: 0,
        });
    }
    let indices: Vec<usize> = survivors.iter().map(|&(i, _)| i).collect();
    drop(survivors);
    let subset: Vec<Fault> = indices.iter().map(|&i| faults[i]).collect();
    ADAPTIVE_WIDE_SURVIVORS.add(subset.len() as u64);
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare_with_threads(sim, tests, threads)?;
    for (&i, hit) in indices.iter().zip(wide.grade_parallel(&subset, threads)?) {
        if hit {
            detected[i] = true;
        }
    }
    Ok(AdaptiveGrade {
        detected,
        narrow_rounds,
        narrow_detections,
        wide_survivors: indices.len(),
    })
}
