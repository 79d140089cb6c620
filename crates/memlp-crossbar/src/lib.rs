#![forbid(unsafe_code)]
//! Memristor crossbar array simulator.
//!
//! A memristor crossbar performs matrix–vector multiplication and solves
//! systems of linear equations in the analog domain in O(1) time (paper
//! §2.3). This crate simulates that hardware at two fidelity levels and
//! accounts for every nanosecond and picojoule the hardware would spend:
//!
//! * [`ArrayBlock`] — the one routine that realizes a written block; every
//!   array and the solvers' hardware context program through it, and a
//!   tiled write returns a [`TiledMatrix`],
//! * [`Crossbar`] — an N×N array, one block: program a matrix, run analog
//!   MVMs ([`Crossbar::mvm`]) and linear solves ([`Crossbar::solve`]),
//!   with the Eqn 5 read-out at [`Fidelity::Circuit`],
//! * [`CrossbarConfig`] / [`Fidelity`] / [`ReadoutMode`] — array geometry,
//!   device parameters, variation, parasitics and read-out calibration,
//! * [`Quantizer`] — the paper's 8-bit voltage I/O (§4.1: "All voltage
//!   inputs and outputs are stored with 8-bit precision"), with per-vector
//!   dynamic-range scaling as a programmable-reference ADC/DAC would do,
//! * [`mapping`] — the logical-value ↔ conductance map of Hu et al. \[8\],
//! * [`CostLedger`] — latency/energy/operation accounting, split into a
//!   *setup* phase (initial O(N²) programming, which the paper excludes
//!   from its latency results) and a *run* phase (the per-iteration O(N)
//!   updates and O(1) analog ops that the paper reports),
//! * [`FaultModel`] / [`FaultPlan`] — validated hard-fault rates (stuck
//!   cells, dead word/bit lines, transient ADC upsets) and their
//!   seed-deterministic realization over an array; honored by the
//!   programming and read paths everywhere. The spare-line table
//!   ([`mapping::LineRemap`]) and the plan's weak-cell repair and line
//!   revival are the state `memlp-core`'s recovery ladder drives.
//!
//! # The simulation contract
//!
//! The analog array is simulated by carrying the **realized** matrix: the
//! matrix that was actually stored after write quantization, process
//! variation (per write, Eqn 18) and faults. Analog operations then
//! apply exact linear algebra to the realized matrix with quantized inputs
//! and outputs — exactly the information the physical array embodies. On
//! hardware the solve is O(1); the simulator pays O(N³), which is invisible
//! to the cost ledger because hardware time is *modelled*, not measured.
//!
//! # Example
//!
//! ```
//! use memlp_crossbar::{Crossbar, CrossbarConfig};
//! use memlp_linalg::Matrix;
//!
//! # fn main() -> Result<(), memlp_crossbar::CrossbarError> {
//! let config = CrossbarConfig::ideal(); // no variation, generous precision
//! let mut xbar = Crossbar::new(4, config)?;
//! let a = Matrix::from_rows(&[
//!     &[4.0, 1.0, 0.0, 0.0],
//!     &[1.0, 3.0, 1.0, 0.0],
//!     &[0.0, 1.0, 2.0, 1.0],
//!     &[0.0, 0.0, 1.0, 2.0],
//! ])?;
//! xbar.program(&a)?;
//! let x = xbar.solve(&[1.0, 2.0, 3.0, 4.0])?;
//! let b = a.matvec(&x);
//! assert!((b[2] - 3.0).abs() < 1e-2); // 16-bit converter resolution

//! # Ok(())
//! # }
//! ```

mod array;
mod block;
mod config;
mod cost;
mod error;
mod fault;
mod occupancy;
mod quantize;

pub mod mapping;

pub use array::Crossbar;
pub use block::{ArrayBlock, TiledMatrix, Writer};
pub use config::{CrossbarConfig, Fidelity, ReadoutMode};
pub use cost::{CostLedger, OpCounts, Phase};
pub use error::CrossbarError;
pub use fault::{CellFault, FaultKind, FaultModel, FaultPlan};
pub use mapping::LineRemap;
pub use occupancy::TileOccupancy;
pub use quantize::{Quantizer, WriteQuantizer};
