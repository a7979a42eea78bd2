//! A persistent worker pool for [`crate::BatchEval`]: long-lived OS
//! threads behind a `Mutex`/`Condvar` epoch protocol, std-only and
//! **allocation-free per dispatch** — the job is a type-erased pointer
//! to a caller-stack closure, the rendezvous is two futex-backed
//! condvars, and no channel nodes or boxed tasks are ever heap-allocated
//! in steady state.
//!
//! The calling thread participates as executor `0`; the pool's
//! background threads are executors `1..=n`. [`WorkerPool::run`] blocks
//! until every participating executor has finished, so the erased
//! closure (and everything it borrows) outlives all concurrent use —
//! the same guarantee `std::thread::scope` gives, without the per-call
//! spawn/join cost the ROADMAP flagged for short-horizon MPC loops.
//!
//! Worker panics are caught per-task, carried back as payloads and
//! re-raised on the caller via [`std::panic::resume_unwind`]; the pool
//! itself stays healthy (no mutex is ever poisoned by a task panic,
//! because tasks run outside every lock region) and subsequent `run`
//! calls work normally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Type-erased pointer to the dispatched closure. The pointee lives on
/// the caller's stack for the duration of [`WorkerPool::run`]; the
/// lifetime is erased because worker threads are `'static`.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers between the
// epoch bump and the matching `remaining == 0` rendezvous, both inside
// `WorkerPool::run`, while the caller is blocked and the pointee is
// alive. The pointee is `Sync`, so shared access from several workers
// is fine.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Shared dispatch state, guarded by one mutex.
struct PoolState {
    /// Bumped once per dispatch; workers detect work by epoch change.
    epoch: u64,
    /// The erased task of the current epoch.
    job: Option<Job>,
    /// Executors participating in the current epoch (including the
    /// caller). Background worker `w` runs iff `w < par`.
    par: usize,
    /// Background workers that have not yet finished the current epoch.
    remaining: usize,
    /// First panic payload raised by a worker during the current epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Tells workers to exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The caller waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// Locks ignoring poisoning: tasks never panic while holding the lock,
/// but a defensive caller-side panic between lock regions must not
/// brick the pool.
fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Persistent worker pool; see the module docs for the protocol.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `background` long-lived worker threads (executor ids
    /// `1..=background`).
    pub(crate) fn spawn(background: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                par: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..=background)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    // The allocation-counting tests recognize pool
                    // workers by this name prefix.
                    .name(format!("rbd-batch-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn batch worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Runs `task(w)` for every executor `w < par` — `task(0)` on the
    /// calling thread, the rest on pool workers — and returns once all
    /// of them finished. Requires `2 <= par <= background() + 1`.
    ///
    /// # Panics
    /// Re-raises the first worker panic payload (or the caller-side
    /// one) after all executors have quiesced, so borrowed data is never
    /// unwound out from under a running worker.
    pub(crate) fn run(&mut self, par: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!((2..=self.handles.len() + 1).contains(&par));
        // SAFETY: erases the borrow lifetime only; `run` does not return
        // (or unwind) until every participant reported done, so the
        // pointee outlives all dereferences.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                task as *const _,
            )
        });
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(job);
            st.par = par;
            st.remaining = par - 1;
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.work_cv.notify_all();
        }
        // The caller is executor 0. Catch its panic too, so the
        // rendezvous below always happens before unwinding.
        let caller = catch_unwind(AssertUnwindSafe(|| task(0)));
        let worker_panic = {
            let mut st = lock(&self.shared.state);
            while st.remaining > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = worker_panic {
            std::panic::resume_unwind(p);
        }
        if let Err(p) = caller {
            std::panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker only panics outside `catch_unwind` on internal
            // protocol bugs; surface that as a join error then.
            h.join().expect("batch worker exited cleanly");
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for a fresh epoch (or shutdown), then snapshot the job.
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if w < st.par {
                st.job
            } else {
                // Not participating this epoch; don't touch `remaining`.
                None
            }
        };
        let Some(job) = job else { continue };
        // SAFETY: see `Job` — the caller blocks until we report done.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
        let mut st = lock(&shared.state);
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}
