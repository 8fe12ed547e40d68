//! In-tree stand-in for the `parking_lot` crate.
//!
//! The workspace builds hermetically (no network, no vendored registry),
//! so the handful of external crates the code uses are provided as thin
//! shims over `std`. This one mirrors the `parking_lot` API surface the
//! workspace actually touches: `Mutex`/`RwLock` whose guards come back
//! without a poison `Result`, and a `Condvar` that waits on a `&mut`
//! guard instead of consuming it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock that never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take the inner guard
    // (std's wait consumes and returns it); it is `Some` at all other
    // times.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        present(self.inner.as_deref())
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        present(self.inner.as_deref_mut())
    }
}

/// The content of a [`MutexGuard`]'s slot, which is `Some` at all times
/// outside [`Condvar::wait`].
#[expect(
    clippy::expect_used,
    reason = "the slot is empty only inside Condvar::wait, which refills it before returning"
)]
fn present<G>(slot: Option<G>) -> G {
    slot.expect("guard present outside Condvar::wait")
}

/// A readers-writer lock that never poisons.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;

/// Exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable whose `wait` takes the guard by `&mut`.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and wait for a notification;
    /// the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = present(guard.inner.take());
        guard.inner = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }
}
