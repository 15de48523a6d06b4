use std::error::Error;
use std::fmt;

use obd_logic::LogicError;

/// Errors from test generation and fault simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgError {
    /// The netlist is structurally unusable (cycle, undriven net, …).
    Netlist(String),
    /// A fault refers to a gate kind with no transistor-level cell
    /// (XOR/XNOR/BUF must be decomposed first).
    UnsupportedGate {
        /// The gate's instance name.
        gate: String,
    },
    /// Wrong test vector width.
    VectorWidth {
        /// Expected width (number of PIs).
        expected: usize,
        /// Supplied width.
        found: usize,
    },
    /// An internal invariant failed (worker panic, impossible state) —
    /// reported as an error instead of crossing a thread boundary as a
    /// panic.
    Internal(String),
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::Netlist(s) => write!(f, "netlist error: {s}"),
            AtpgError::UnsupportedGate { gate } => {
                write!(f, "gate '{gate}' has no cell-level model; decompose first")
            }
            AtpgError::VectorWidth { expected, found } => {
                write!(f, "test vector has {found} bits, expected {expected}")
            }
            AtpgError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl Error for AtpgError {}

impl From<obd_core::pool::WorkerPanicked> for AtpgError {
    fn from(e: obd_core::pool::WorkerPanicked) -> Self {
        AtpgError::Internal(e.to_string())
    }
}

impl From<LogicError> for AtpgError {
    fn from(e: LogicError) -> Self {
        AtpgError::Netlist(e.to_string())
    }
}
