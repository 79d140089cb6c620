#![forbid(unsafe_code)]
//! # memlp-serve — the LP solver as a long-running service
//!
//! Turns the one-shot crossbar solvers into a daemon that amortizes
//! hardware setup across requests. The physical intuition: programming a
//! memristor array is the expensive part (write pulses, verify loops);
//! once programmed, repeat solves of the same problem *family* touch only
//! the cells that changed. A service that keeps arrays warm between
//! requests therefore beats a cold per-request solve on both latency and
//! energy — and this crate is that service, plus the robustness armour a
//! long-running process needs.
//!
//! | Module | Role |
//! |---|---|
//! | [`codec`] | Versioned length-prefixed wire protocol (hand-rolled, dependency-free) |
//! | [`queue`] | Bounded admission queue: load-shedding backpressure, per-family fairness |
//! | [`pool`] | Warm [`HwContext`](memlp_core::HwContext) pool keyed by family, fingerprint-gated warm starts |
//! | [`worker`] | Solve loop: budgets, degradation, one run of the solver's recovery ladder per job |
//! | [`server`] | Accept loop, health/readiness, graceful drain |
//! | [`client`] | Synchronous client used by the CLI and benches |
//! | [`loadgen`] | Closed-loop load generator behind `BENCH_serve.json` |
//!
//! Four robustness pillars (DESIGN.md §16):
//!
//! 1. **Deadlines & cooperative cancellation** — per-request
//!    [`Budget`](memlp_core::Budget)s polled once per Newton iteration;
//!    expiry returns the best iterate with a `degraded` marker instead of
//!    hanging the connection.
//! 2. **Bounded admission** — a full queue sheds load *immediately* with
//!    a structured `Overloaded` reply carrying a depth-scaled retry hint.
//! 3. **One retry ladder** — defective or variation-struck hardware is
//!    handled by the solver's own §4.3 recovery ladder on the warm array
//!    (variation redraws, re-programming, remapping, digital fallback);
//!    the worker answers from that ladder's result once.
//! 4. **Graceful degradation & lifecycle** — health/readiness frames, and
//!    a drain that completes every admitted job before acking.
//!
//! Unlike every solver crate, this one is allowed wall-clock time and
//! real concurrency (sockets, threads, locks): determinism here means
//! *replayable solves* — a single-worker server fed sequential requests
//! with iteration-tick deadlines produces bitwise-identical responses —
//! not identical scheduling.

pub mod client;
pub mod codec;
pub mod config;
pub mod loadgen;
pub mod pool;
pub mod queue;
pub mod server;
pub mod worker;

pub use client::{ClientError, ServeClient};
pub use codec::{
    DecodeError, FrameError, HealthInfo, Request, Response, SolutionBody, SolveJob,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use config::{ServeConfig, ServeSolver};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use pool::{occupancy_fingerprint, problem_fingerprint, ContextPool, FamilyKey, PoolEntry};
pub use queue::{JobQueue, PushError, Rejection};
pub use server::{Server, ServerHandle, ServerStats};
pub use worker::QueuedJob;
