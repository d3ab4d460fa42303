//! The fixed worker pool simulations run on.
//!
//! Each worker owns one [`WorkerArena`] for its whole lifetime: jobs adopt
//! it for their circuit, so steady-state traffic performs no per-request
//! arena allocation no matter which cached circuit a request targets.  The
//! queue is a bounded [`sync_channel`]: when it is full,
//! [`Scheduler::try_submit`] reports [`SubmitError::Busy`] *immediately* —
//! overload surfaces to the client as explicit backpressure, never as
//! unbounded queueing.  A job that panics does not take its worker down:
//! the worker counts the panic, replaces the arena the job may have left
//! half-written, and takes the next job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use halotis_sim::WorkerArena;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce(&mut WorkerArena) + Send + 'static>;

/// Why a job was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; the client should retry later.
    Busy,
    /// The pool is draining and accepts no new work.
    ShuttingDown,
}

/// The fixed-size worker pool.
pub struct Scheduler {
    sender: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    executed: Arc<AtomicU64>,
    panics: Arc<AtomicU64>,
}

impl Scheduler {
    /// Spawns `workers` threads sharing a queue of at most `queue_depth`
    /// waiting jobs (both bounded below by 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let (sender, receiver) = sync_channel::<Job>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let executed = Arc::new(AtomicU64::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..workers.max(1))
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                let executed = Arc::clone(&executed);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("halotis-sim-{index}"))
                    .spawn(move || worker_loop(&receiver, &executed, &panics))
                    .expect("spawning a worker thread")
            })
            .collect();
        Scheduler {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(handles),
            executed,
            panics,
        }
    }

    /// Submits a job without blocking.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let guard = self.sender.lock().unwrap_or_else(|err| err.into_inner());
        let Some(sender) = guard.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        sender.try_send(job).map_err(|err| match err {
            TrySendError::Full(_) => SubmitError::Busy,
            TrySendError::Disconnected(_) => SubmitError::ShuttingDown,
        })
    }

    /// Jobs completed since startup.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Jobs that panicked since startup.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Drains the pool: no new jobs are accepted, already-queued jobs still
    /// run, and the call returns once every worker has exited.
    pub fn shutdown(&self) {
        self.sender
            .lock()
            .unwrap_or_else(|err| err.into_inner())
            .take();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|err| err.into_inner())
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, executed: &AtomicU64, panics: &AtomicU64) {
    let mut arena = WorkerArena::default();
    loop {
        // Hold the lock only to dequeue, never while running a job.
        let job = {
            let guard = receiver.lock().unwrap_or_else(|err| err.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => match catch_unwind(AssertUnwindSafe(|| job(&mut arena))) {
                Ok(()) => {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    arena = WorkerArena::default();
                }
            },
            // Sender dropped and the queue is drained: shut down.
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn executes_jobs_and_reports_busy_when_saturated() {
        let scheduler = Scheduler::new(1, 1);
        let (done_tx, done_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Mutex::new(gate_rx);

        // Occupy the single worker until the gate opens.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler
                    .try_submit(Box::new(move |_| {
                        let _ = gate_rx.lock().unwrap().recv();
                    }))
                    .unwrap();
                // Give the worker a moment to pick the blocker up, then fill
                // the queue slot and observe Busy on the next submit.
                loop {
                    match scheduler.try_submit(Box::new(|_| {})) {
                        Ok(()) => break,
                        Err(SubmitError::Busy) => std::thread::yield_now(),
                        Err(err) => panic!("unexpected {err:?}"),
                    }
                }
                let mut saw_busy = false;
                for _ in 0..1000 {
                    match scheduler.try_submit(Box::new(|_| {})) {
                        Err(SubmitError::Busy) => {
                            saw_busy = true;
                            break;
                        }
                        Ok(()) => {}
                        Err(err) => panic!("unexpected {err:?}"),
                    }
                }
                assert!(saw_busy, "a 1-deep queue must reject eventually");
                gate_tx.send(()).unwrap();
                // The queue may still be momentarily full; the assertion
                // below only needs the earlier jobs.
                let _ = scheduler.try_submit(Box::new(move |_| {
                    done_tx.send(42).unwrap();
                }));
            });
        });
        scheduler.shutdown();
        // All accepted jobs ran (drained on shutdown).
        assert!(scheduler.executed() >= 2);
        let _ = done_rx;
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let scheduler = Scheduler::new(1, 4);
        let (done_tx, done_rx) = channel();
        scheduler
            .try_submit(Box::new(|_| panic!("a deliberate job panic")))
            .unwrap();
        scheduler
            .try_submit(Box::new(move |_| done_tx.send(7).unwrap()))
            .unwrap();
        // The single worker survived the panic to run the second job.
        assert_eq!(done_rx.recv().unwrap(), 7);
        scheduler.shutdown();
        assert_eq!(scheduler.panics(), 1);
        assert_eq!(scheduler.executed(), 1);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let scheduler = Scheduler::new(2, 4);
        scheduler.shutdown();
        assert_eq!(
            scheduler.try_submit(Box::new(|_| {})).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }
}
