//! The worker pool: a fixed set of threads draining a bounded job queue.
//!
//! # Backpressure contract
//!
//! The queue is bounded at construction. [`WorkerPool::submit`] never
//! blocks: when the queue is full it returns [`Busy`] immediately and the
//! server answers the client with a `busy <retry_after_ms>` frame instead
//! of accepting work it cannot start — a loaded server degrades by
//! rejecting fast, not by queueing unboundedly. The retry hint scales with
//! the backlog ([`WorkerPool::RETRY_PER_PENDING_MS`] per pending job), so
//! clients back off harder the deeper the queue.
//!
//! Jobs are opaque closures; the serving layer enqueues one job per request
//! and the job streams its own response frames (each chain flushed as it
//! finishes). Chains *within* a request do not shard: the job runs them
//! back to back on its worker (`Session::threads(1)`), since the pool
//! already keeps one worker per core. Parallelism comes from concurrent
//! requests, so one multi-chain request never oversubscribes the cores the
//! other workers are using.
//!
//! # Panic isolation
//!
//! A panicking job must not cost the pool a worker: each job runs under
//! [`std::panic::catch_unwind`], the unwind is swallowed, the
//! `serve.worker_panics` counter increments, and the worker loops back to
//! the queue. The pool therefore keeps its full configured capacity after
//! any number of job panics. Pool-internal locks recover from poisoning
//! (`unwrap_or_else(|e| e.into_inner())`): the guarded state is a plain
//! queue plus a shutdown flag, both of which remain structurally valid at
//! every await-free mutation point, so a panic elsewhere never wedges
//! submitters or workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Rejection returned by [`WorkerPool::submit`] when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Suggested client retry delay in milliseconds.
    pub retry_after_ms: u64,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    jobs_ready: Condvar,
    capacity: usize,
}

/// A fixed-size worker pool over a bounded queue.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Retry hint per job already pending when a submit is rejected.
    pub const RETRY_PER_PENDING_MS: u64 = 25;

    /// Starts `workers` threads (at least one) over a queue bounded at
    /// `capacity` pending jobs (at least one).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            jobs_ready: Condvar::new(),
            capacity: capacity.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Enqueues a job, or rejects it when the queue is at capacity.
    ///
    /// # Errors
    /// [`Busy`] with a backlog-scaled retry hint.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), Busy> {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.queue.len() >= self.inner.capacity {
            let pending = state.queue.len() as u64;
            return Err(Busy {
                retry_after_ms: Self::RETRY_PER_PENDING_MS * (pending + 1),
            });
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.inner.jobs_ready.notify_one();
        Ok(())
    }

    /// Jobs currently queued (not yet started).
    pub fn pending(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Stops accepting work, drains the queue, and joins every worker.
    /// Already-queued jobs still run to completion.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.inner.jobs_ready.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = match inner.jobs_ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        // Panic isolation: a job that unwinds costs the pool nothing but a
        // counter tick — the worker survives and returns to the queue.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            obs::counter("serve.worker_panics").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_shutdown_drains() {
        let pool = WorkerPool::new(2, 8);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let count = count.clone();
            pool.submit(move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn full_queue_rejects_with_scaled_retry_hint() {
        let pool = WorkerPool::new(1, 2);
        // Block the single worker so queued jobs cannot drain.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        // Worker busy; capacity 2 admits two queued jobs, the third bounces.
        pool.submit(|| {}).unwrap();
        pool.submit(|| {}).unwrap();
        let busy = pool.submit(|| {}).unwrap_err();
        assert_eq!(busy.retry_after_ms, WorkerPool::RETRY_PER_PENDING_MS * 3);
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn poisoned_lock_does_not_wedge_submitters() {
        let pool = WorkerPool::new(1, 4);
        // Poison the pool's state mutex by panicking while holding it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = pool.inner.state.lock().unwrap();
            panic!("poison the pool lock");
        }));
        assert!(pool.inner.state.lock().is_err(), "lock must be poisoned");
        // Submit, pending, and shutdown all recover instead of panicking.
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        pool.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let _ = pool.pending();
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicked_job_does_not_cost_a_worker() {
        let before = obs::global().snapshot().counter("serve.worker_panics");
        // Single worker: if the panic killed it, nothing after could run.
        let pool = WorkerPool::new(1, 16);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let count = count.clone();
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("injected job panic");
                }
                count.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 3);
        let after = obs::global().snapshot().counter("serve.worker_panics");
        assert_eq!(
            after.unwrap_or(0) - before.unwrap_or(0),
            3,
            "each panicked job ticks serve.worker_panics exactly once"
        );
    }
}
