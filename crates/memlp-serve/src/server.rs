//! The TCP front end: accept loop, per-connection protocol handling, and
//! the graceful-drain lifecycle.
//!
//! Lifecycle: **ready** (accepting and solving) → **draining** (a
//! [`Request::Drain`] closed admission; workers finish every admitted
//! job) → **stopped** (drain acked, accept loop exited). Clients that
//! race a drain get a structured `Error`/`Overloaded` response, never a
//! dropped connection with work silently discarded.
//!
//! The accept loop blocks in `accept`; whatever stops the server (a
//! drain, [`ServerHandle::shutdown`] or dropping the handle) sets the
//! stop flag and then wakes it with one connection to the bound address.
//!
//! Sizing note: one worker serving sequential requests is end-to-end
//! deterministic (iteration-tick deadlines, seeded hardware); more
//! workers trade that for throughput, which is the serve path's analogue
//! of the batch API's thread-count invariance caveat.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use crate::codec::{
    encode_response, read_request, write_frame, FrameError, HealthInfo, Request, Response,
};
use crate::config::ServeConfig;
use crate::queue::{JobQueue, PushError};
use crate::worker::{run_worker, QueuedJob};

/// Pause after a failed `accept` (e.g. out of file descriptors) so the
/// loop does not spin while the condition lasts.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Monotonic service counters, shared by workers and connections.
#[derive(Debug, Default)]
pub struct ServerStats {
    completed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

impl ServerStats {
    /// Tallies one response about to leave the server.
    pub fn record(&self, resp: &Response) {
        match resp {
            Response::Solution(s) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if s.degraded.is_some() {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Response::Overloaded { .. } => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Response::Error { .. } => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Response::Health(_) | Response::DrainAck { .. } => {}
        }
    }

    /// Jobs completed since startup (degraded included).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Completed jobs that returned a budget-degraded iterate.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Jobs shed by admission backpressure.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests answered with a structured error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    queue: JobQueue<QueuedJob>,
    stats: ServerStats,
    draining: AtomicBool,
    stop: AtomicBool,
    workers_done: Mutex<usize>,
    workers_cv: Condvar,
}

impl Shared {
    fn health(&self) -> HealthInfo {
        let draining = self.draining.load(Ordering::Acquire);
        // Read in the order a job moves (admitted, then dequeued, then
        // completed), so a job counted admitted but neither queued nor
        // completed was in a worker's hands when `completed` was read.
        let admitted = self.queue.admitted();
        let queued = self.queue.len() as u32;
        HealthInfo {
            ready: !draining && !self.stop.load(Ordering::Acquire),
            draining,
            queued,
            capacity: self.queue.capacity() as u32,
            workers: self.config.workers as u32,
            admitted,
            completed: self.stats.completed(),
            rejected: self.stats.rejected(),
        }
    }

    /// Stops the accept loop: sets the flag it checks after every
    /// `accept`, then connects once so a blocked `accept` returns.
    fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Release);
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }

    /// Blocks until every worker thread has exited its loop.
    fn wait_workers_drained(&self) {
        // Poison recovery: the counter is a plain usize whose only
        // invariant is monotonicity, so a thread that panicked while
        // holding the lock leaves nothing inconsistent behind.
        let mut done = self
            .workers_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *done < self.config.workers {
            done = self
                .workers_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The serve daemon. [`Server::bind`] starts it; the returned
/// [`ServerHandle`] owns its threads.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// configured workers and the accept loop, and returns immediately.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
        let config = ServeConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr: local,
            queue: JobQueue::new(config.queue_depth),
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            workers_done: Mutex::new(0),
            workers_cv: Condvar::new(),
            config,
        });

        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    run_worker(&shared.queue, &shared.config, &shared.stats);
                    let mut done = shared
                        .workers_done
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    *done += 1;
                    shared.workers_cv.notify_all();
                })
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };

        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owns the running server's threads. Dropping it force-stops the
/// server; [`wait`](Self::wait) instead parks until a protocol-level
/// drain stops it gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health snapshot, sampled in-process.
    pub fn health(&self) -> HealthInfo {
        self.shared.health()
    }

    /// Service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Parks until a [`Request::Drain`] stops the server, then joins
    /// every thread. This is what `memlp serve` blocks on.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.join_workers();
    }

    /// Force-stops: closes admission, finishes queued jobs, joins all
    /// threads. In-flight work still completes (the queue drains before
    /// workers exit); only *new* connections are refused.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.queue.close();
        if let Some(accept) = self.accept.take() {
            self.shared.stop_accepting();
            let _ = accept.join();
        }
        self.join_workers();
    }

    fn join_workers(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: the wake-up connection that
        // follows every stop lands here and is dropped unserved.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                // Connection threads are detached: they exit when the
                // peer closes or the protocol ends, and a drain waits on
                // *workers*, whose replies unblock any connection still
                // waiting on a solve.
                thread::spawn(move || handle_connection(stream, shared));
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    loop {
        let request = match read_request(&mut stream) {
            Ok(req) => req,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Decode(e)) => {
                // After a malformed frame the stream offset is suspect;
                // answer once and hang up rather than misparse forever.
                let resp = Response::Error {
                    message: format!("bad frame: {e}"),
                };
                shared.stats.record(&resp);
                let _ = write_frame(&mut stream, &encode_response(&resp));
                return;
            }
        };
        match request {
            Request::Solve(job) => {
                let resp = admit_and_wait(job, &shared);
                if write_frame(&mut stream, &encode_response(&resp)).is_err() {
                    return;
                }
            }
            Request::Health => {
                let resp = Response::Health(shared.health());
                if write_frame(&mut stream, &encode_response(&resp)).is_err() {
                    return;
                }
            }
            Request::Drain => {
                shared.draining.store(true, Ordering::Release);
                shared.queue.close();
                shared.wait_workers_drained();
                let resp = Response::DrainAck {
                    completed: shared.stats.completed(),
                };
                let _ = write_frame(&mut stream, &encode_response(&resp));
                shared.stop_accepting();
                return;
            }
        }
    }
}

/// Admission: push onto the bounded queue and block this connection (not
/// the worker, not the accept loop) until the response arrives.
fn admit_and_wait(job: crate::codec::SolveJob, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::Acquire) {
        let resp = Response::Error {
            message: "server is draining".into(),
        };
        shared.stats.record(&resp);
        return resp;
    }
    let (reply, rx) = mpsc::channel();
    let family = job.family.clone();
    match shared.queue.push(&family, QueuedJob { job, reply }) {
        Ok(()) => rx.recv().unwrap_or_else(|_| Response::Error {
            message: "worker exited before replying".into(),
        }),
        Err(PushError::Overloaded(r)) => {
            let resp = Response::Overloaded {
                retry_after_hint_ms: r.retry_after_hint_ms.min(u32::MAX as u64) as u32,
                queue_depth: r.queue_depth as u32,
            };
            shared.stats.record(&resp);
            resp
        }
        Err(PushError::Closed) => {
            let resp = Response::Error {
                message: "server is draining".into(),
            };
            shared.stats.record(&resp);
            resp
        }
    }
}
