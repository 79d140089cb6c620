use std::error::Error;
use std::fmt;

use memlp_linalg::{LinalgError, Matrix};

/// Errors produced by the crossbar simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossbarError {
    /// The requested matrix does not fit the array (or violates the
    /// configured maximum array size, §3.4).
    SizeExceeded {
        /// Rows/columns requested.
        requested: usize,
        /// Physical array side length.
        capacity: usize,
    },
    /// A matrix with negative coefficients was programmed; memristances are
    /// non-negative (§2.3), so the caller must run the §3.2 transform first.
    NegativeCoefficient {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// Operand shapes do not match the programmed array.
    ShapeMismatch {
        /// Description of what was expected.
        expected: String,
        /// Description of what was found.
        found: String,
    },
    /// The underlying linear algebra failed (e.g. the realized matrix went
    /// singular under variation — the §4.3 failure mode).
    Linalg(LinalgError),
    /// No matrix has been programmed yet.
    NotProgrammed,
    /// A fault model failed validation (rate outside `[0, 1]`, non-finite,
    /// or stuck rates summing past 1 — which would bias every draw).
    InvalidFaultModel {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The array cannot model what the configuration asks for (e.g. the
    /// circuit fidelity on a tiled array).
    Unsupported {
        /// Human-readable description of what is not modelled.
        reason: String,
    },
}

impl CrossbarError {
    /// Refuses a matrix with a negative or non-finite coefficient:
    /// memristances are non-negative (§2.3).
    ///
    /// # Errors
    ///
    /// [`CrossbarError::NegativeCoefficient`] at the first such entry,
    /// row-major.
    pub fn check_nonnegative(m: &Matrix) -> Result<(), CrossbarError> {
        for i in 0..m.rows() {
            for (j, &value) in m.row(i).iter().enumerate() {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(CrossbarError::NegativeCoefficient {
                        row: i,
                        col: j,
                        value,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::SizeExceeded { requested, capacity } => {
                write!(f, "matrix of side {requested} exceeds crossbar capacity {capacity}")
            }
            CrossbarError::NegativeCoefficient { row, col, value } => write!(
                f,
                "negative coefficient {value} at ({row}, {col}); memristor conductances are non-negative"
            ),
            CrossbarError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            CrossbarError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CrossbarError::NotProgrammed => write!(f, "no matrix programmed into the crossbar"),
            CrossbarError::InvalidFaultModel { reason } => {
                write!(f, "invalid fault model: {reason}")
            }
            CrossbarError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
        }
    }
}

impl Error for CrossbarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CrossbarError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CrossbarError {
    fn from(e: LinalgError) -> Self {
        CrossbarError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CrossbarError::SizeExceeded {
            requested: 600,
            capacity: 512,
        };
        assert!(e.to_string().contains("600"));
        let e = CrossbarError::NegativeCoefficient {
            row: 1,
            col: 2,
            value: -0.5,
        };
        assert!(e.to_string().contains("-0.5"));
        let e = CrossbarError::NotProgrammed;
        assert!(!e.to_string().is_empty());
        let e = CrossbarError::InvalidFaultModel {
            reason: "rates sum to 1.3".into(),
        };
        assert!(e.to_string().contains("1.3"));
    }

    #[test]
    fn wraps_linalg_errors() {
        let e: CrossbarError = LinalgError::Singular { column: 0 }.into();
        assert!(matches!(e, CrossbarError::Linalg(_)));
        assert!(Error::source(&e).is_some());
    }
}
