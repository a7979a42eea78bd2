//! Counting global allocator shared by the zero-allocation proofs
//! (`crates/dynamics/tests/zero_alloc.rs`,
//! `crates/trajopt/tests/zero_alloc.rs`).
//!
//! libtest runs the tests of one binary on parallel threads, and all of
//! them share the global allocator. Two rules keep a test's count free of
//! allocations that are not its own:
//!
//! - **Only the test's threads are counted.** [`alloc_count`] arms the
//!   calling thread (a thread-local flag) and opens a counting window.
//!   While the window is open, an allocation is counted if it comes from
//!   the armed thread or from a `BatchEval` pool worker (threads named
//!   `rbd-batch-*`). The libtest main thread and the other test threads
//!   are never counted, so their start-up and result bookkeeping cannot
//!   leak in.
//! - **One test body at a time.** Every test takes [`serial`] first and
//!   holds it to the end, so the only pool workers alive in a window are
//!   the running test's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pass-through to [`System`] that counts allocation calls (see the
/// module docs for which ones).
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counted allocation calls since process start.
static COUNTED: AtomicU64 = AtomicU64::new(0);
/// Open while [`alloc_count`] runs its closure.
static WINDOW: AtomicBool = AtomicBool::new(false);
/// Held by every test for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Whether a thread is a pool worker, looked up by name at its first
/// allocation inside a window.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Unknown,
    /// The lookup is running; allocations it makes are not counted.
    LookingUp,
    Pool,
    Other,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ROLE: Cell<Role> = const { Cell::new(Role::Unknown) };
}

/// Whether the current allocation counts. Both thread-locals are
/// `const`-initialized and have no destructor, so reading them never
/// allocates and never fails.
fn counts_here() -> bool {
    if !WINDOW.load(Ordering::SeqCst) {
        return false;
    }
    if ARMED.with(Cell::get) {
        return true;
    }
    ROLE.with(|role| match role.get() {
        Role::Pool => true,
        Role::Other | Role::LookingUp => false,
        Role::Unknown => {
            // `LookingUp` first: should `thread::current()` allocate, that
            // allocation comes back here uncounted instead of recursing.
            role.set(Role::LookingUp);
            let pool = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("rbd-batch-"));
            role.set(if pool { Role::Pool } else { Role::Other });
            pool
        }
    })
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counts_here() {
            COUNTED.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counts_here() {
            COUNTED.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counts_here() {
            COUNTED.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The lock every test takes first and holds for its whole body. A test
/// that failed while holding it does not block the others.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns how many allocator calls it made on the calling
/// thread and on pool workers. Call it with the [`serial`] guard held.
pub fn alloc_count(f: impl FnOnce()) -> u64 {
    /// Closes the window even when `f` panics.
    struct Window;
    impl Drop for Window {
        fn drop(&mut self) {
            WINDOW.store(false, Ordering::SeqCst);
            ARMED.with(|a| a.set(false));
        }
    }
    let before = COUNTED.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    WINDOW.store(true, Ordering::SeqCst);
    let window = Window;
    f();
    drop(window);
    COUNTED.load(Ordering::SeqCst) - before
}
