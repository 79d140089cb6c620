use std::error::Error;
use std::fmt;

/// Errors produced by the linear algebra substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is (numerically) singular: no usable pivot was found while
    /// factoring column `column`.
    Singular {
        /// Column index at which factorization broke down.
        column: usize,
    },
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was supplied.
        found: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { column } => {
                write!(f, "matrix is singular (zero pivot at column {column})")
            }
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl Error for LinalgError {}

pub(crate) fn dim_mismatch(expected: impl Into<String>, found: impl Into<String>) -> LinalgError {
    LinalgError::DimensionMismatch {
        expected: expected.into(),
        found: found.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { column: 3 };
        assert_eq!(e.to_string(), "matrix is singular (zero pivot at column 3)");
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = dim_mismatch("3x3", "3x4");
        assert!(e.to_string().contains("expected 3x3"));
        assert!(e.to_string().contains("found 3x4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
