//! Minimal synchronization shims over [`std::sync`].
//!
//! The repository builds with no external dependencies; this module
//! provides the small slice of the `parking_lot` API the workspace uses
//! (`lock()` returning a guard directly, poison-free semantics, and a
//! `Condvar` that takes the guard by `&mut`).
//!
//! Poisoning is deliberately ignored: the model checker intentionally
//! unwinds simulated threads (assertion failures are *outcomes*, not
//! process-fatal errors), so a poisoned lock only means "some simulated
//! thread panicked while holding the step lock" — the executor recovers
//! the state and reports the panic as a [`crate::ModelError`].

use std::fmt;
use std::sync::{self, PoisonError};

/// A mutex whose `lock` never fails: poison is stripped.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, stripping poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A condition variable usable with [`Mutex`], `parking_lot`-style: `wait`
/// takes the guard by `&mut` and reacquires the lock before returning.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Blocks until notified, releasing the lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // Temporarily move the guard out to satisfy std's by-value API.
        replace_with(guard, |g| {
            self.0.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

/// Replaces `*slot` with `f(old)` without a `Default` escape hatch.
///
/// Safety: `f` must not unwind. `Condvar::wait` strips poison and cannot
/// otherwise panic, so the closure used above is non-unwinding in
/// practice; to keep this sound against surprises we abort on unwind.
fn replace_with<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    struct AbortOnDrop;
    impl Drop for AbortOnDrop {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    let bomb = AbortOnDrop;
    unsafe {
        let old = std::ptr::read(slot);
        let new = f(old);
        std::ptr::write(slot, new);
    }
    std::mem::forget(bomb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn lock_survives_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _g = m2.lock();
            panic!("poison it");
        }));
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_handoff() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = shared.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 6);
    }
}
