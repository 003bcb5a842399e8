//! A bounded FIFO job queue.
//!
//! Connection handlers push; worker threads pop. One `Mutex` guards the
//! jobs and the closed flag, and one `Condvar` wakes parked workers.
//! The queue is *bounded*: when every slot is full, [`JobQueue::push`]
//! refuses immediately so the server can shed load with a 503 instead
//! of buffering unboundedly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Counters exported via `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs accepted by [`JobQueue::push`].
    pub pushed: u64,
    /// Pushes refused because the queue was full or closed.
    pub shed: u64,
    /// Jobs currently enqueued.
    pub depth: usize,
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
    pushed: u64,
    shed: u64,
}

/// The queue. `T` is the job payload (the server uses a boxed job).
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` jobs (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
                pushed: 0,
                shed: 0,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The state, even if a thread panicked while holding the lock: a
    /// push or pop never leaves it half-updated.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueues a job, or hands it back when the queue is full or
    /// closed (the caller sheds the request with a 503).
    ///
    /// # Errors
    ///
    /// Returns the rejected job.
    pub fn push(&self, job: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.jobs.len() >= self.capacity {
            state.shed += 1;
            return Err(job);
        }
        state.jobs.push_back(job);
        state.pushed += 1;
        drop(state);
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue is closed *and*
    /// drained — `None` means the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: further pushes are refused, workers drain the
    /// backlog and then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            pushed: state.pushed,
            shed: state.shed,
            depth: state.jobs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_pushes_shed_at_capacity() {
        let q: JobQueue<u32> = JobQueue::new(3);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert!(q.push(3).is_ok());
        assert_eq!(q.push(4), Err(4));
        assert_eq!(q.stats().shed, 1);
        assert_eq!(q.stats().depth, 3);
        // Draining frees capacity again.
        assert!(q.pop().is_some());
        assert!(q.push(5).is_ok());
    }

    #[test]
    fn close_drains_then_terminates_workers() {
        let q: JobQueue<u32> = JobQueue::new(10);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "closed queue refuses pushes");
        assert_eq!([q.pop(), q.pop(), q.pop()], [Some(1), Some(2), None]);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q: JobQueue<u64> = JobQueue::new(100_000);
        let producers = 8u64;
        let per = 500u64;
        let sum: u64 = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut sum = 0;
                        while let Some(v) = q.pop() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            std::thread::scope(|inner| {
                for p in 0..producers {
                    let q = &q;
                    inner.spawn(move || {
                        for i in 0..per {
                            q.push(p * per + i + 1).unwrap();
                        }
                    });
                }
            });
            q.close();
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        let n = producers * per;
        assert_eq!(sum, n * (n + 1) / 2);
        assert_eq!(q.stats().pushed, n);
        assert_eq!(q.stats().depth, 0);
    }
}
