//! Bounded admission queue with per-family fairness.
//!
//! Admission is the server's backpressure point: when the queue is full,
//! `push` fails *immediately* with a structured rejection (the wire layer
//! turns it into [`Response::Overloaded`](crate::codec::Response)) instead
//! of blocking the connection or growing without bound. The retry hint
//! scales with observed depth, so clients back off harder the deeper the
//! overload.
//!
//! Dequeue order is round-robin across families, FIFO within one: a
//! chatty family can fill the queue, but it cannot starve another
//! family's already-admitted jobs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Structured load-shed decision returned to the rejected client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Queue depth at the moment of rejection.
    pub queue_depth: usize,
    /// Suggested client backoff before retrying, milliseconds. Grows
    /// linearly with depth so a deeper overload spreads retries wider.
    pub retry_after_hint_ms: u64,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity — shed the job, retry later.
    Overloaded(Rejection),
    /// Queue closed (drain in progress) — no retry will help.
    Closed,
}

struct Lane<T> {
    family: String,
    items: VecDeque<T>,
}

struct State<T> {
    lanes: Vec<Lane<T>>,
    /// Next lane index the round-robin scan starts from.
    cursor: usize,
    len: usize,
    /// Jobs admitted since creation.
    admitted: u64,
    closed: bool,
}

/// A blocking multi-producer multi-consumer queue, bounded at `capacity`
/// jobs summed across all families.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// An empty queue admitting at most `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                lanes: Vec::new(),
                cursor: 0,
                len: 0,
                admitted: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the queue state, recovering the guard if a panicking thread
    /// poisoned the lock: every mutation below restores the queue's
    /// invariants before releasing, so the data is still consistent and
    /// one crashed connection must not wedge admission for the rest.
    fn locked(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.locked().len
    }

    /// Jobs admitted since creation (queued, taken or finished).
    pub fn admitted(&self) -> u64 {
        self.locked().admitted
    }

    /// `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a job under `family`, or sheds it if the queue is full or
    /// closed. Never blocks.
    pub fn push(&self, family: &str, item: T) -> Result<(), PushError> {
        let mut s = self.locked();
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.len >= self.capacity {
            return Err(PushError::Overloaded(Rejection {
                queue_depth: s.len,
                retry_after_hint_ms: 10 * (s.len as u64 + 1),
            }));
        }
        match s.lanes.iter_mut().find(|l| l.family == family) {
            Some(lane) => lane.items.push_back(item),
            None => s.lanes.push(Lane {
                family: family.to_string(),
                items: VecDeque::from([item]),
            }),
        }
        s.len += 1;
        s.admitted += 1;
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job, scanning lanes round-robin from the
    /// cursor. Returns `None` only when the queue is closed **and**
    /// drained — a closed queue still hands out every admitted job, which
    /// is what lets drain complete in-flight work instead of dropping it.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.locked();
        loop {
            if s.len > 0 {
                let lanes = s.lanes.len();
                for offset in 0..lanes {
                    let idx = (s.cursor + offset) % lanes;
                    if let Some(item) = s.lanes[idx].items.pop_front() {
                        s.cursor = (idx + 1) % lanes;
                        s.len -= 1;
                        return Some(item);
                    }
                }
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes admission: subsequent pushes fail with
    /// [`PushError::Closed`]; pops continue until the backlog drains.
    pub fn close(&self) {
        self.locked().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_family() {
        let q = JobQueue::new(8);
        for i in 0..4 {
            q.push("a", i).unwrap();
        }
        q.close();
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn round_robin_across_families() {
        let q = JobQueue::new(8);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        q.push("b", 10).unwrap();
        q.push("b", 20).unwrap();
        q.close();
        // a and b alternate even though a enqueued first.
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            vec![1, 10, 2, 20]
        );
    }

    #[test]
    fn overload_sheds_with_growing_hint() {
        let q = JobQueue::new(2);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        let err = q.push("a", 3).unwrap_err();
        assert_eq!(
            err,
            PushError::Overloaded(Rejection {
                queue_depth: 2,
                retry_after_hint_ms: 30,
            })
        );
        // Shedding never disturbs admitted jobs.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_refuses_new_but_drains_backlog() {
        let q = JobQueue::new(4);
        q.push("a", 1).unwrap();
        q.close();
        assert_eq!(q.push("a", 2).unwrap_err(), PushError::Closed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }
}
