//! In-tree stand-in for the `parking_lot` crate.
//!
//! The workspace builds hermetically (no network, no vendored registry),
//! so the handful of external crates the code uses are provided as thin
//! shims over `std`. This one mirrors the `parking_lot` API surface the
//! workspace actually touches: `Mutex`/`RwLock` whose guards come back
//! without a poison `Result`, and a `Condvar` that waits on a `&mut`
//! guard instead of consuming it.
//!
//! # Lock ranks (deadlock detection)
//!
//! On top of the `parking_lot` surface, every `Mutex`/`RwLock` can carry
//! a **rank** ([`Mutex::with_rank`] / [`RwLock::with_rank`]): a small
//! integer encoding the lock's position in its owner's documented lock
//! ladder (lower rank = higher in the ladder, acquired first). Under
//! `cfg(debug_assertions)` a thread-local stack of held ranks asserts
//! that every ranked acquisition is **strictly downward** — the new
//! rank must be greater than every rank the thread already holds. An
//! equal rank is also rejected: re-entering the same `Mutex`/`RwLock`
//! self-deadlocks on `std`'s primitives, and two leaf locks sharing a
//! rank are declared "taken alone, never nested". Violations panic with
//! a `lock ladder` message, so an inverted acquisition order is caught
//! the first time any test executes it, not the first time two threads
//! race it. Unranked locks (rank 0, the default) are exempt; release
//! builds compile the checks out entirely.
//!
//! `sdm-metadb`'s `Database` assigns ranks matching the ladder in its
//! documentation, and `crates/sdm-analyze` enforces the same order
//! statically (rule `ladder`) — this module is the dynamic half of that
//! contract.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::PoisonError;

/// Rank bookkeeping: a per-thread stack of the ranks currently held.
/// Only ranked locks (rank != 0) participate, and only in debug builds.
#[cfg(debug_assertions)]
mod rank {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition, panicking on a ladder violation.
    pub(crate) fn acquire(rank: u32) {
        if rank == 0 {
            return;
        }
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held.iter().max() {
                assert!(
                    rank > worst,
                    "lock ladder violation: acquiring {} while {} is held \
                     (ranked locks must be acquired in strictly increasing rank order; \
                     equal ranks never nest)",
                    sdm_ranks::describe(rank),
                    sdm_ranks::describe(worst),
                );
            }
            held.push(rank);
        });
    }

    /// Record a release (guard drop). Guards may be dropped out of
    /// acquisition order, so the *last occurrence* of the rank is
    /// removed, not necessarily the top of the stack.
    pub(crate) fn release(rank: u32) {
        if rank == 0 {
            return;
        }
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(not(debug_assertions))]
mod rank {
    #[inline(always)]
    pub(crate) fn acquire(_rank: u32) {}
    #[inline(always)]
    pub(crate) fn release(_rank: u32) {}
}

/// A mutual-exclusion lock that never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    rank: AtomicU32,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    rank: u32,
    // `Option` so `Condvar::wait` can temporarily take the inner guard
    // (std's wait consumes and returns it); it is `Some` at all other
    // times. The rank stays on the thread's held stack across a wait:
    // the `MutexGuard` object is alive the whole time and the lock is
    // re-acquired before `wait` returns.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self {
            rank: AtomicU32::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Assign this lock's position in its owner's lock ladder (builder
    /// form). Rank 0 (the default) opts out of checking; see the module
    /// docs for the enforcement rules.
    pub fn with_rank(self, rank: u32) -> Self {
        self.rank.store(rank, Ordering::Relaxed);
        self
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
        let rank = self.rank.load(Ordering::Relaxed);
        rank::acquire(rank);
        MutexGuard {
            rank,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rank::release(self.rank);
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
    rank: AtomicU32,
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    rank: u32,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    rank: u32,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self {
            rank: AtomicU32::new(0),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Assign this lock's position in its owner's lock ladder (builder
    /// form). Rank 0 (the default) opts out of checking. Read and write
    /// acquisitions share the rank: even a read-after-read re-entry on
    /// one thread is rejected, since a writer arriving between the two
    /// reads deadlocks `std`'s `RwLock`.
    pub fn with_rank(self, rank: u32) -> Self {
        self.rank.store(rank, Ordering::Relaxed);
        self
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
        let rank = self.rank.load(Ordering::Relaxed);
        rank::acquire(rank);
        RwLockReadGuard {
            rank,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let rank = self.rank.load(Ordering::Relaxed);
        rank::acquire(rank);
        RwLockWriteGuard {
            rank,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        rank::release(self.rank);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        rank::release(self.rank);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
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

    // ---- lock ranks ----

    #[test]
    fn ranked_downward_acquisition_is_allowed() {
        let top = Mutex::new(()).with_rank(10);
        let mid = RwLock::new(()).with_rank(20);
        let leaf = Mutex::new(()).with_rank(30);
        let _t = top.lock();
        let _m = mid.write();
        let _l = leaf.lock();
    }

    #[test]
    fn ranks_release_on_drop_in_any_order() {
        let top = Mutex::new(()).with_rank(10);
        let mid = RwLock::new(()).with_rank(20);
        let t = top.lock();
        let m = mid.read();
        // Drop the *outer* guard first: the remaining rank-20 entry must
        // not block a later rank-20-exceeding acquisition, and releasing
        // 20 afterwards must find its (non-top) entry.
        drop(t);
        let leaf = Mutex::new(()).with_rank(30);
        let l = leaf.lock();
        drop(m);
        drop(l);
        // Everything released: the top of the ladder is reachable again.
        let _t = top.lock();
    }

    #[test]
    fn unranked_locks_are_exempt() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let ranked = Mutex::new(()).with_rank(30);
        let _r = ranked.lock();
        // Unranked locks nest freely in any order, even below a ranked
        // leaf (they are outside the ladder).
        let _a = a.lock();
        let _b = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock ladder violation")]
    fn upward_acquisition_panics() {
        let top = Mutex::new(()).with_rank(10);
        let leaf = Mutex::new(()).with_rank(30);
        let _l = leaf.lock();
        let _t = top.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock ladder violation")]
    fn same_rank_nesting_panics() {
        // Re-entering the same RwLock on one thread self-deadlocks once a
        // writer queues between the reads, so even read-read is rejected.
        let l = RwLock::new(()).with_rank(20);
        let _outer = l.read();
        let _inner = l.read();
    }

    #[test]
    fn rank_stack_is_per_thread() {
        let leaf = Arc::new(Mutex::new(0).with_rank(30));
        let top = Arc::new(Mutex::new(0).with_rank(10));
        let _l = leaf.lock();
        let (t2, l2) = (Arc::clone(&top), Arc::clone(&leaf));
        // Another thread holds nothing: it may start at the top of the
        // ladder even while this thread sits on a leaf.
        std::thread::spawn(move || {
            let _t = t2.lock();
            drop(l2); // keep the clone alive into the thread
        })
        .join()
        .unwrap();
    }

    #[test]
    fn condvar_wait_keeps_rank_held() {
        let pair = Arc::new((Mutex::new(false).with_rank(10), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
            // After the wait the rank is still held exactly once:
            // descending to a leaf works, re-entering rank 10 would not.
            let leaf = Mutex::new(()).with_rank(30);
            let _l = leaf.lock();
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }
}
