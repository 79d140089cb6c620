//! Hand-rolled wire codec for the serve protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! [u32 payload_len LE] [u8 version = 2] [u8 kind] [body ...]
//! ```
//!
//! `payload_len` counts everything after the length word (version byte,
//! kind byte, and body). Frames above [`MAX_FRAME_BYTES`] are rejected
//! before any allocation, so a hostile or corrupt peer cannot make the
//! server reserve gigabytes off a four-byte prefix. All integers are
//! little-endian; floats are IEEE-754 bit patterns (`f64::to_bits`), so
//! encoding is bijective even for NaN payloads and a decode→encode round
//! trip reproduces the original bytes exactly.
//!
//! Decoding never panics: every read is bounds-checked and malformed
//! input surfaces as a [`DecodeError`]. Vector lengths are validated
//! against the bytes actually present *before* allocating.

use std::io::{self, Read, Write};

use memlp_core::BudgetCause;
use memlp_lp::LpStatus;

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling on a frame's payload (version + kind + body), bytes.
/// Large enough for a dense 1024×1024 job (~8 MiB of `A` plus slack),
/// small enough that a corrupt length prefix cannot trigger an
/// out-of-memory allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

// Request kinds.
const KIND_SOLVE: u8 = 1;
const KIND_HEALTH: u8 = 2;
const KIND_DRAIN: u8 = 3;
// Response kinds.
const KIND_SOLUTION: u8 = 16;
const KIND_OVERLOADED: u8 = 17;
const KIND_HEALTH_INFO: u8 = 18;
const KIND_ERROR: u8 = 19;
const KIND_DRAIN_ACK: u8 = 20;

/// A solve request: one LP in the paper's canonical form plus an optional
/// per-request budget. `family` keys the server's warm-context pool —
/// repeat jobs from one family land on the same simulated array and hit
/// its delta-write cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveJob {
    /// Pool key (free-form tag; keep it stable across related jobs).
    pub family: String,
    /// Constraint count `m`.
    pub rows: u32,
    /// Variable count `n`.
    pub cols: u32,
    /// Row-major `m×n` constraint matrix.
    pub a: Vec<f64>,
    /// Right-hand side, length `m`.
    pub b: Vec<f64>,
    /// Objective, length `n`.
    pub c: Vec<f64>,
    /// Newton-iteration cap; `0` = no cap.
    pub max_iters: u32,
    /// Cooperative deadline in iteration ticks; `0` = none. Tick-based
    /// (not wall-clock) so budgeted runs replay bitwise.
    pub deadline_ticks: u32,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one LP (the server replies [`Response::Solution`],
    /// [`Response::Overloaded`], or [`Response::Error`]).
    Solve(SolveJob),
    /// Liveness/readiness probe.
    Health,
    /// Graceful shutdown: stop admitting, finish in-flight work, ack.
    Drain,
}

/// Everything a client learns from one completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionBody {
    /// Termination status.
    pub status: LpStatus,
    /// `Some` when the job's budget expired: the payload is the best
    /// iterate observed, not a converged optimum.
    pub degraded: Option<BudgetCause>,
    /// Objective `cᵀx` at termination.
    pub objective: f64,
    /// Newton iterations spent.
    pub iterations: u64,
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual solution.
    pub y: Vec<f64>,
    /// Hardware re-solve attempts beyond the first.
    pub retries: u32,
    /// Recovery-ladder rungs climbed (reprogram/remap/redraw/digital).
    pub escalations: u32,
    /// Write–verify reported at least one defective cell.
    pub saw_faults: bool,
    /// The solve fell back to the digital reference path.
    pub used_digital: bool,
    /// Cells pulsed for *this request* (delta against the warm context's
    /// ledger, not the context lifetime total).
    pub cells_written: u64,
    /// Write pulses skipped by delta programming for this request.
    pub cells_skipped: u64,
    /// The solve started from a pooled warm iterate.
    pub warm_start: bool,
    /// Server-side wall time for this request, microseconds.
    pub latency_us: u64,
}

/// Snapshot returned by [`Request::Health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Accepting new work.
    pub ready: bool,
    /// Drain in progress: in-flight jobs finish, new ones are refused.
    pub draining: bool,
    /// Jobs currently queued.
    pub queued: u32,
    /// Admission-queue capacity.
    pub capacity: u32,
    /// Worker threads.
    pub workers: u32,
    /// Jobs admitted to the queue since startup. A job counted here but
    /// neither queued nor completed is in a worker's hands.
    pub admitted: u64,
    /// Jobs completed since startup.
    pub completed: u64,
    /// Jobs shed by backpressure since startup.
    pub rejected: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed solve (possibly degraded — check
    /// [`SolutionBody::degraded`]).
    Solution(SolutionBody),
    /// Load shed at admission: the queue was full. Retry no sooner than
    /// the hint; the hint grows with queue depth.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_after_hint_ms: u32,
        /// Queue depth observed at rejection.
        queue_depth: u32,
    },
    /// Health snapshot.
    Health(HealthInfo),
    /// The request was admitted but could not be served (malformed LP,
    /// preflight refusal, draining, ...).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Drain finished: all in-flight work completed.
    DrainAck {
        /// Total jobs completed over the server's lifetime.
        completed: u64,
    },
}

/// Why a frame or body failed to decode. Decoding is total — every
/// malformed input maps here, never to a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the header or a field requires.
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Length the frame claimed.
        declared: u32,
    },
    /// Version byte differs from [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown message kind for the expected direction.
    BadKind(u8),
    /// A field held an out-of-range discriminant or invalid UTF-8.
    BadField(&'static str),
    /// Bytes left over after the body was fully read.
    Trailing(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::Oversized { declared } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds cap of {MAX_FRAME_BYTES}"
                )
            }
            DecodeError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
            DecodeError::BadField(what) => write!(f, "invalid field: {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after body"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Primitive writers/readers.

struct Builder {
    buf: Vec<u8>,
}

impl Builder {
    fn new(kind: u8) -> Self {
        // Length placeholder is patched in `finish`.
        let mut buf = vec![0u8; 4];
        buf.push(PROTOCOL_VERSION);
        buf.push(kind);
        Builder { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn vec_f64(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let payload = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&payload.to_le_bytes());
        self.buf
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadField("utf-8 string"))
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>, DecodeError> {
        let count = self.u32()? as usize;
        // Validate against bytes present before allocating: a forged count
        // must not reserve memory the frame doesn't carry.
        if count.checked_mul(8).is_none_or(|b| b > self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn done(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Status / cause discriminants.

fn status_code(s: LpStatus) -> u8 {
    match s {
        LpStatus::Optimal => 0,
        LpStatus::Infeasible => 1,
        LpStatus::Unbounded => 2,
        LpStatus::IterationLimit => 3,
        LpStatus::NumericalFailure => 4,
    }
}

fn status_from(code: u8) -> Result<LpStatus, DecodeError> {
    Ok(match code {
        0 => LpStatus::Optimal,
        1 => LpStatus::Infeasible,
        2 => LpStatus::Unbounded,
        3 => LpStatus::IterationLimit,
        4 => LpStatus::NumericalFailure,
        _ => return Err(DecodeError::BadField("status")),
    })
}

fn cause_code(c: Option<BudgetCause>) -> u8 {
    match c {
        None => 0,
        Some(BudgetCause::MaxIters) => 1,
        Some(BudgetCause::DeadlineExceeded) => 2,
    }
}

fn cause_from(code: u8) -> Result<Option<BudgetCause>, DecodeError> {
    Ok(match code {
        0 => None,
        1 => Some(BudgetCause::MaxIters),
        2 => Some(BudgetCause::DeadlineExceeded),
        _ => return Err(DecodeError::BadField("degraded cause")),
    })
}

fn bool_from(code: u8) -> Result<bool, DecodeError> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::BadField("bool")),
    }
}

// ---------------------------------------------------------------------------
// Message encode/decode (full frames, including the length prefix).

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Solve(job) => {
            let mut b = Builder::new(KIND_SOLVE);
            b.str(&job.family);
            b.u32(job.rows);
            b.u32(job.cols);
            b.vec_f64(&job.a);
            b.vec_f64(&job.b);
            b.vec_f64(&job.c);
            b.u32(job.max_iters);
            b.u32(job.deadline_ticks);
            b.finish()
        }
        Request::Health => Builder::new(KIND_HEALTH).finish(),
        Request::Drain => Builder::new(KIND_DRAIN).finish(),
    }
}

/// Encodes a response as a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Solution(s) => {
            let mut b = Builder::new(KIND_SOLUTION);
            b.u8(status_code(s.status));
            b.u8(cause_code(s.degraded));
            b.f64(s.objective);
            b.u64(s.iterations);
            b.vec_f64(&s.x);
            b.vec_f64(&s.y);
            b.u32(s.retries);
            b.u32(s.escalations);
            b.u8(s.saw_faults as u8);
            b.u8(s.used_digital as u8);
            b.u64(s.cells_written);
            b.u64(s.cells_skipped);
            b.u8(s.warm_start as u8);
            b.u64(s.latency_us);
            b.finish()
        }
        Response::Overloaded {
            retry_after_hint_ms,
            queue_depth,
        } => {
            let mut b = Builder::new(KIND_OVERLOADED);
            b.u32(*retry_after_hint_ms);
            b.u32(*queue_depth);
            b.finish()
        }
        Response::Health(h) => {
            let mut b = Builder::new(KIND_HEALTH_INFO);
            b.u8(h.ready as u8);
            b.u8(h.draining as u8);
            b.u32(h.queued);
            b.u32(h.capacity);
            b.u32(h.workers);
            b.u64(h.admitted);
            b.u64(h.completed);
            b.u64(h.rejected);
            b.finish()
        }
        Response::Error { message } => {
            let mut b = Builder::new(KIND_ERROR);
            b.str(message);
            b.finish()
        }
        Response::DrainAck { completed } => {
            let mut b = Builder::new(KIND_DRAIN_ACK);
            b.u64(*completed);
            b.finish()
        }
    }
}

/// Splits a frame into `(kind, body)` after validating length, cap, and
/// version. `frame` must contain exactly one frame.
fn split_frame(frame: &[u8]) -> Result<(u8, &[u8]), DecodeError> {
    if frame.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    let declared = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    if declared > MAX_FRAME_BYTES {
        return Err(DecodeError::Oversized { declared });
    }
    if declared < 2 {
        return Err(DecodeError::Truncated);
    }
    let payload = &frame[4..];
    if payload.len() < declared as usize {
        return Err(DecodeError::Truncated);
    }
    if payload.len() > declared as usize {
        return Err(DecodeError::Trailing(payload.len() - declared as usize));
    }
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok((payload[1], &payload[2..]))
}

/// Decodes one complete request frame.
pub fn decode_request(frame: &[u8]) -> Result<Request, DecodeError> {
    let (kind, body) = split_frame(frame)?;
    decode_request_body(kind, body)
}

fn decode_request_body(kind: u8, body: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cursor::new(body);
    let req = match kind {
        KIND_SOLVE => Request::Solve(SolveJob {
            family: c.str()?,
            rows: c.u32()?,
            cols: c.u32()?,
            a: c.vec_f64()?,
            b: c.vec_f64()?,
            c: c.vec_f64()?,
            max_iters: c.u32()?,
            deadline_ticks: c.u32()?,
        }),
        KIND_HEALTH => Request::Health,
        KIND_DRAIN => Request::Drain,
        other => return Err(DecodeError::BadKind(other)),
    };
    c.done()?;
    Ok(req)
}

/// Decodes one complete response frame.
pub fn decode_response(frame: &[u8]) -> Result<Response, DecodeError> {
    let (kind, body) = split_frame(frame)?;
    decode_response_body(kind, body)
}

fn decode_response_body(kind: u8, body: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cursor::new(body);
    let resp = match kind {
        KIND_SOLUTION => Response::Solution(SolutionBody {
            status: status_from(c.u8()?)?,
            degraded: cause_from(c.u8()?)?,
            objective: c.f64()?,
            iterations: c.u64()?,
            x: c.vec_f64()?,
            y: c.vec_f64()?,
            retries: c.u32()?,
            escalations: c.u32()?,
            saw_faults: bool_from(c.u8()?)?,
            used_digital: bool_from(c.u8()?)?,
            cells_written: c.u64()?,
            cells_skipped: c.u64()?,
            warm_start: bool_from(c.u8()?)?,
            latency_us: c.u64()?,
        }),
        KIND_OVERLOADED => Response::Overloaded {
            retry_after_hint_ms: c.u32()?,
            queue_depth: c.u32()?,
        },
        KIND_HEALTH_INFO => Response::Health(HealthInfo {
            ready: bool_from(c.u8()?)?,
            draining: bool_from(c.u8()?)?,
            queued: c.u32()?,
            capacity: c.u32()?,
            workers: c.u32()?,
            admitted: c.u64()?,
            completed: c.u64()?,
            rejected: c.u64()?,
        }),
        KIND_ERROR => Response::Error { message: c.str()? },
        KIND_DRAIN_ACK => Response::DrainAck {
            completed: c.u64()?,
        },
        other => return Err(DecodeError::BadKind(other)),
    };
    c.done()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Stream framing over std::io.

/// What went wrong reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Transport failure (includes mid-frame EOF).
    Io(io::Error),
    /// The bytes arrived but did not parse.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Writes pre-encoded frame bytes to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads exactly one frame's raw bytes (length prefix included) from a
/// stream. Distinguishes a clean close at a frame boundary
/// ([`FrameError::Closed`]) from a mid-frame EOF (an I/O error), and
/// refuses oversized declarations before allocating.
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => r.read_exact(&mut len[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => r.read_exact(&mut len)?,
        Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = u32::from_le_bytes(len);
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::Decode(DecodeError::Oversized { declared }));
    }
    let mut frame = vec![0u8; 4 + declared as usize];
    frame[..4].copy_from_slice(&len);
    r.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// Reads and decodes one request from a stream.
pub fn read_request(r: &mut impl Read) -> Result<Request, FrameError> {
    Ok(decode_request(&read_frame_bytes(r)?)?)
}

/// Reads and decodes one response from a stream.
pub fn read_response(r: &mut impl Read) -> Result<Response, FrameError> {
    Ok(decode_response(&read_frame_bytes(r)?)?)
}
