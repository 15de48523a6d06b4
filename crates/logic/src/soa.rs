//! Levelized structure-of-arrays netlist for the packed-simulation hot
//! path.
//!
//! [`SoaNetlist::compile`] flattens a [`Netlist`] once into contiguous
//! arrays — gate kinds, a CSR fanin table, and output-net slots — sorted
//! in level order. A packed sweep then walks four flat arrays front to
//! back instead of chasing per-gate `Gate` structs through the pointer-y
//! [`Netlist`] representation: no per-gate `Vec` reads, no per-gate
//! scratch buffer, and fanin indices that are `u32`s sitting next to
//! each other in cache.
//!
//! The simulation entry points are generic over the super-lane width
//! `N` (see [`crate::wide`]): the same compiled structure serves the
//! legacy 64-pattern word (`N = 1`) and the wide `[u64; N]` words the
//! PPSFP engine grades with.

use obd_metrics::{Counter, Gauge};

use crate::netlist::{GateKind, NetId, Netlist};
use crate::wide::{LaneWord, WideBlock};
use crate::LogicError;

/// Logic levels (maximum gate depth) of the most recently compiled SoA
/// netlist.
static LEVELS: Gauge = Gauge::new("logic.levels");
/// Gates evaluated through the SoA levelized walk.
static SOA_GATES_SIMULATED: Counter = Counter::new("logic.soa_gates_simulated");

/// A [`Netlist`] compiled to flat, topologically-ordered arrays.
///
/// Gate `g` (in compiled order) has kind `kinds[g]`, drives net
/// `out_nets[g]`, and reads the fanin nets
/// `fanins[fanin_start[g] .. fanin_start[g + 1]]`. Gates are sorted by
/// logic level, so a single front-to-back walk respects all data
/// dependencies.
#[derive(Debug, Clone)]
pub struct SoaNetlist {
    num_nets: usize,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    kinds: Vec<GateKind>,
    out_nets: Vec<u32>,
    fanin_start: Vec<u32>,
    fanins: Vec<u32>,
    levels: usize,
}

impl SoaNetlist {
    /// Compiles a netlist into the flat levelized layout. Call once per
    /// netlist; the result is immutable and reusable across simulations.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::levelize`] failures (undriven nets,
    /// combinational cycles).
    pub fn compile(nl: &Netlist) -> Result<Self, LogicError> {
        let mut order = nl.levelize()?;
        let depth = nl.depths()?;
        // Kahn order is already topological; the stable re-sort by
        // output-net depth groups each level contiguously, which keeps
        // same-level gates (independent by construction) adjacent in
        // memory.
        order.sort_by_key(|&g| depth[nl.gate(g).output.index()]);

        let mut kinds = Vec::with_capacity(order.len());
        let mut out_nets = Vec::with_capacity(order.len());
        let mut fanin_start = Vec::with_capacity(order.len() + 1);
        let mut fanins = Vec::new();
        fanin_start.push(0u32);
        for &g in &order {
            let gate = nl.gate(g);
            kinds.push(gate.kind);
            out_nets.push(gate.output.index() as u32);
            fanins.extend(gate.inputs.iter().map(|n| n.index() as u32));
            fanin_start.push(fanins.len() as u32);
        }
        let levels = order
            .last()
            .map_or(0, |&g| depth[nl.gate(g).output.index()]);
        LEVELS.set(levels as f64);
        Ok(SoaNetlist {
            num_nets: nl.num_nets(),
            inputs: nl.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: nl.outputs().iter().map(|n| n.index() as u32).collect(),
            kinds,
            out_nets,
            fanin_start,
            fanins,
            levels,
        })
    }

    /// A 64-bit FNV-1a fingerprint of the compiled structure — every
    /// array that determines simulation behavior (net count, PI/PO
    /// bindings, gate kinds, output nets, CSR fanins). Two netlists with
    /// the same fingerprint simulate identically, which makes it the
    /// right content-address component for persisted good-machine
    /// responses.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        fold(self.num_nets as u64);
        fold(self.inputs.len() as u64);
        for &n in &self.inputs {
            fold(u64::from(n));
        }
        fold(self.outputs.len() as u64);
        for &n in &self.outputs {
            fold(u64::from(n));
        }
        fold(self.kinds.len() as u64);
        for &k in &self.kinds {
            fold(k as u64);
        }
        for &n in &self.out_nets {
            fold(u64::from(n));
        }
        for &n in &self.fanin_start {
            fold(u64::from(n));
        }
        for &n in &self.fanins {
            fold(u64::from(n));
        }
        h
    }

    /// Number of nets in the compiled netlist.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates in the compiled netlist.
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of logic levels (maximum gate depth).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Primary-input net indices, in declaration order.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary-output net indices, in declaration order.
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    #[inline]
    fn eval_gate<const N: usize>(&self, g: usize, words: &[LaneWord<N>]) -> LaneWord<N> {
        let s = self.fanin_start[g] as usize;
        let e = self.fanin_start[g + 1] as usize;
        let fi = &self.fanins[s..e];
        let first = words[fi[0] as usize];
        // Two-input gates dominate every stock circuit; give AND-family
        // pairs a branch the optimizer can lower without a fold loop.
        match self.kinds[g] {
            GateKind::Inv => !first,
            GateKind::Buf => first,
            GateKind::And if fi.len() == 2 => first & words[fi[1] as usize],
            GateKind::Nand if fi.len() == 2 => !(first & words[fi[1] as usize]),
            GateKind::Or if fi.len() == 2 => first | words[fi[1] as usize],
            GateKind::Nor if fi.len() == 2 => !(first | words[fi[1] as usize]),
            GateKind::And => fi[1..]
                .iter()
                .fold(first, |acc, &n| acc & words[n as usize]),
            GateKind::Nand => !fi[1..]
                .iter()
                .fold(first, |acc, &n| acc & words[n as usize]),
            GateKind::Or => fi[1..]
                .iter()
                .fold(first, |acc, &n| acc | words[n as usize]),
            GateKind::Nor => !fi[1..]
                .iter()
                .fold(first, |acc, &n| acc | words[n as usize]),
            GateKind::Xor => fi[1..]
                .iter()
                .fold(first, |acc, &n| acc ^ words[n as usize]),
            GateKind::Xnor => !fi[1..]
                .iter()
                .fold(first, |acc, &n| acc ^ words[n as usize]),
        }
    }

    fn load_inputs<const N: usize>(
        &self,
        block: &WideBlock<N>,
        words: &mut Vec<LaneWord<N>>,
    ) -> Result<(), LogicError> {
        if block.num_inputs() != self.inputs.len() {
            return Err(LogicError::InputCountMismatch {
                expected: self.inputs.len(),
                found: block.num_inputs(),
            });
        }
        words.clear();
        words.resize(self.num_nets, LaneWord::ZERO);
        for (i, &n) in self.inputs.iter().enumerate() {
            words[n as usize] = block.word(i);
        }
        Ok(())
    }

    /// Simulates a wide pattern block, writing one packed word per net
    /// into the caller-owned `words` buffer (cleared and resized; reuse
    /// keeps the warm loop allocation-free).
    ///
    /// # Errors
    ///
    /// [`LogicError::InputCountMismatch`] if the block width differs from
    /// the PI count.
    pub fn simulate_wide_into<const N: usize>(
        &self,
        block: &WideBlock<N>,
        words: &mut Vec<LaneWord<N>>,
    ) -> Result<(), LogicError> {
        self.load_inputs(block, words)?;
        SOA_GATES_SIMULATED.add(self.kinds.len() as u64);
        for g in 0..self.kinds.len() {
            let v = self.eval_gate(g, words);
            words[self.out_nets[g] as usize] = v;
        }
        Ok(())
    }

    /// [`SoaNetlist::simulate_wide_into`] with *forced* (held) net
    /// values: every net in `forced` keeps its packed word — primary
    /// inputs are overridden after the block is loaded, and the gate
    /// driving a forced net is skipped. This is the packed analogue of
    /// the scalar fault simulator's forced-value evaluation.
    ///
    /// # Errors
    ///
    /// [`LogicError::InputCountMismatch`] on wrong block width.
    pub fn simulate_wide_forced_into<const N: usize>(
        &self,
        block: &WideBlock<N>,
        forced: &[(NetId, LaneWord<N>)],
        words: &mut Vec<LaneWord<N>>,
    ) -> Result<(), LogicError> {
        self.load_inputs(block, words)?;
        SOA_GATES_SIMULATED.add(self.kinds.len() as u64);
        for &(n, w) in forced {
            words[n.index()] = w;
        }
        for g in 0..self.kinds.len() {
            let out = self.out_nets[g] as usize;
            if forced.iter().any(|&(n, _)| n.index() == out) {
                continue; // forced nets keep their value
            }
            let v = self.eval_gate(g, words);
            words[out] = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits;
    use crate::sim::simulate;
    use crate::value::{all_vectors, Lv};

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let a = SoaNetlist::compile(&circuits::c17()).unwrap();
        let b = SoaNetlist::compile(&circuits::c17()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SoaNetlist::compile(&circuits::ripple_carry_adder(4)).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = SoaNetlist::compile(&circuits::ripple_carry_adder(5)).unwrap();
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    fn vectors_for(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<Lv>> {
        // Small deterministic xorshift so tests need no external RNG.
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..n_inputs)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        Lv::from_bool(state & 1 == 1)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn compile_reports_levels() {
        let nl = circuits::fig8_sum_circuit();
        let soa = SoaNetlist::compile(&nl).unwrap();
        assert_eq!(soa.num_gates(), nl.num_gates());
        assert_eq!(soa.num_nets(), nl.num_nets());
        assert_eq!(soa.levels(), nl.max_depth().unwrap());
        assert_eq!(soa.inputs().len(), nl.inputs().len());
        assert_eq!(soa.outputs().len(), nl.outputs().len());
    }

    #[test]
    fn compiled_order_is_level_sorted() {
        let nl = circuits::ripple_carry_adder(8);
        let soa = SoaNetlist::compile(&nl).unwrap();
        let depth = nl.depths().unwrap();
        let mut prev = 0;
        for g in 0..soa.num_gates() {
            let d = depth[soa.out_nets[g] as usize];
            assert!(d >= prev, "gate {g} at level {d} after level {prev}");
            prev = d;
        }
    }

    /// Every net of a 64-pattern (`N = 1`) sweep equals the three-valued
    /// scalar oracle's value under that pattern.
    #[test]
    fn narrow_wide_sim_matches_scalar_oracle() {
        for nl in [
            circuits::c17(),
            circuits::fig8_sum_circuit(),
            circuits::ripple_carry_adder(4),
            circuits::mux_tree(3),
        ] {
            let soa = SoaNetlist::compile(&nl).unwrap();
            let vectors = vectors_for(nl.inputs().len(), 64, 0x5EED);
            let block = WideBlock::<1>::pack(&vectors).unwrap();
            assert_eq!(block.mask(), LaneWord::ONES);
            let mut words = Vec::new();
            soa.simulate_wide_into(&block, &mut words).unwrap();
            for (k, v) in vectors.iter().enumerate() {
                let scalar = simulate(&nl, v).unwrap();
                for n in nl.net_ids() {
                    assert_eq!(
                        Lv::from_bool(words[n.index()].bit(k)),
                        scalar.value(n),
                        "pattern {k} net {}",
                        nl.net_name(n)
                    );
                }
            }
        }
    }

    #[test]
    fn forced_primary_input_overrides_block() {
        let nl = circuits::c17();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let a = nl.inputs()[0];
        let block = WideBlock::<1>::pack(&all_vectors(5).collect::<Vec<_>>()).unwrap();
        let mut words = Vec::new();
        soa.simulate_wide_forced_into(&block, &[(a, LaneWord::ONES)], &mut words)
            .unwrap();
        assert_eq!(
            words[a.index()],
            LaneWord::ONES,
            "forced PI overrides the block"
        );
    }

    #[test]
    fn wide_sim_matches_scalar_beyond_64_patterns() {
        let nl = circuits::c17();
        let vectors: Vec<_> = all_vectors(5).collect(); // 32 < 256, pad with randoms
        let mut vectors = vectors;
        vectors.extend(vectors_for(5, 200, 0xFACE)); // 232 patterns, 4 lanes
        let block = WideBlock::<4>::pack(&vectors).unwrap();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let mut words = Vec::new();
        soa.simulate_wide_into(&block, &mut words).unwrap();
        for (k, v) in vectors.iter().enumerate() {
            let scalar = simulate(&nl, v).unwrap();
            for &o in soa.outputs() {
                let net = nl.net(o as usize);
                assert_eq!(
                    Lv::from_bool(words[o as usize].bit(k)),
                    scalar.value(net),
                    "pattern {k} output {}",
                    nl.net_name(net)
                );
            }
        }
    }

    #[test]
    fn forced_wide_sim_holds_value_and_skips_driver() {
        let nl = circuits::fig8_sum_circuit();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let vectors = vectors_for(nl.inputs().len(), 256, 0xB00);
        let block = WideBlock::<4>::pack(&vectors).unwrap();
        let target = nl.find_net("n7").unwrap_or_else(|_| nl.net(6));
        let held = LaneWord::<4>([0xDEAD_BEEF, !0, 0, 0xAAAA_AAAA_AAAA_AAAA]);
        let mut words = Vec::new();
        soa.simulate_wide_forced_into(&block, &[(target, held)], &mut words)
            .unwrap();
        assert_eq!(words[target.index()], held, "forced net keeps its word");
        // Cross-check a few lanes against the scalar forced evaluation.
        let order = nl.levelize().unwrap();
        for k in [0usize, 63, 64, 130, 255] {
            let mut vals = vec![Lv::X; nl.num_nets()];
            for (i, &n) in nl.inputs().iter().enumerate() {
                vals[n.index()] = vectors[k][i];
            }
            vals[target.index()] = Lv::from_bool(held.bit(k));
            for &g in &order {
                let gate = nl.gate(g);
                if gate.output == target {
                    continue;
                }
                let ins: Vec<Lv> = gate.inputs.iter().map(|n| vals[n.index()]).collect();
                vals[gate.output.index()] = gate.kind.eval(&ins);
            }
            for &o in soa.outputs() {
                assert_eq!(
                    Lv::from_bool(words[o as usize].bit(k)),
                    vals[o as usize],
                    "pattern {k} output net {o}"
                );
            }
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let nl = circuits::c17();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let block = WideBlock::<1>::pack(&[vec![Lv::One]]).unwrap();
        let mut words = Vec::new();
        assert!(matches!(
            soa.simulate_wide_into(&block, &mut words),
            Err(LogicError::InputCountMismatch {
                expected: 5,
                found: 1
            })
        ));
        assert!(matches!(
            soa.simulate_wide_forced_into(&block, &[], &mut words),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }
}
