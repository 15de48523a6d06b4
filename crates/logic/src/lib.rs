//! Gate-level netlists, logic simulation and timing simulation.
//!
//! This crate provides the digital substrate for the OBD reproduction:
//!
//! * [`value`] — three-valued logic (`0`, `1`, `X`).
//! * [`gate`] — the primitive gate library (INV/BUF/AND/OR/NAND/NOR/XOR/XNOR).
//! * [`netlist`] — combinational netlists with levelization and structural
//!   validation.
//! * [`sim`] — levelized three-valued simulation, including two-pattern
//!   (launch/capture) simulation used everywhere in OBD testing.
//! * [`wide`] — `[u64; N]` super-lane pattern words and wide pattern
//!   blocks (up to `64 * N` patterns per sweep; `N = 1` is the classic
//!   64-way parallel-pattern block).
//! * [`soa`] — the levelized structure-of-arrays netlist that packed
//!   two-valued simulation walks (one-time `compile()`, flat arrays);
//!   fault grading runs on it.
//! * [`sta`] — static timing analysis: arrival/required/slack, the
//!   quantity that gates at-speed OBD detectability (§4.2).
//! * [`timing`] — event-driven timing simulation with per-gate rise/fall
//!   delays and per-gate overrides (used to watch a slow OBD transition
//!   propagate to a primary output, the gate-level analogue of Fig. 9).
//! * [`mod@format`] — a `.bench`-style text format parser/serializer.
//! * [`circuits`] — stock circuits, including the paper's Fig. 8
//!   full-adder sum network (14 NAND2 + 11 INV, depth 9, intentionally
//!   redundant).
//!
//! # Example
//!
//! ```rust
//! use obd_logic::netlist::{Netlist, GateKind};
//! use obd_logic::value::Lv;
//! use obd_logic::sim::simulate;
//!
//! # fn main() -> Result<(), obd_logic::LogicError> {
//! let mut nl = Netlist::new();
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_gate(GateKind::Nand, "g1", &[a, b])?;
//! nl.mark_output(y);
//! let result = simulate(&nl, &[Lv::One, Lv::One])?;
//! assert_eq!(result.value(y), Lv::Zero);
//! # Ok(())
//! # }
//! ```

pub mod circuits;
pub mod error;
pub mod format;
pub mod gate;
pub mod netlist;
pub mod sim;
pub mod soa;
pub mod sta;
pub mod timing;
pub mod value;
pub mod wide;

pub use error::LogicError;
pub use gate::GateKind;
pub use netlist::{GateId, NetId, Netlist};
pub use soa::SoaNetlist;
pub use value::Lv;
pub use wide::{LaneWord, WideBlock};
