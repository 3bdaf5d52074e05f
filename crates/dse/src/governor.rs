//! Global thread governor for nested campaign parallelism.
//!
//! A campaign fans (method × seed) runs out across job threads, and each
//! run's evaluator can itself fan workload simulations out across worker
//! threads. Without coordination the two layers multiply: 4 jobs × 8
//! evaluator workers oversubscribes a laptop by 4×, while forcing either
//! layer to 1 leaves cores idle whenever the other layer stalls. The
//! [`ThreadGovernor`] bounds the *product*: it holds a fixed pool of
//! thread permits shared by every layer, so campaign jobs plus evaluator
//! workload workers never exceed the configured total, and spare permits
//! flow to whichever layer can use them.
//!
//! Two acquisition modes keep the scheme deadlock-free:
//!
//! * [`ThreadGovernor::acquire`] — **blocking**, used by campaign jobs for
//!   their base permit. A job always eventually gets exactly one permit,
//!   so every run makes progress even when `jobs > total`.
//! * [`ThreadGovernor::try_acquire`] — **non-blocking**, used by
//!   evaluators for *extra* worker threads beyond the caller's own. It
//!   takes whatever is available up to the request (possibly zero) and
//!   never waits, so a holder of a base permit can never deadlock waiting
//!   for permits held by peers.
//!
//! Permits are released through RAII [`Lease`] guards, so a panicking
//! worker returns its permits like any other.

use crate::lock;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A shared pool of thread permits bounding total campaign parallelism.
#[derive(Debug)]
pub struct ThreadGovernor {
    total: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl ThreadGovernor {
    /// A governor with `total` permits (clamped to at least 1).
    pub fn new(total: usize) -> Arc<Self> {
        let total = total.max(1);
        Arc::new(ThreadGovernor {
            total,
            available: Mutex::new(total),
            freed: Condvar::new(),
        })
    }

    /// The configured permit total.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Permits currently unclaimed.
    pub fn available(&self) -> usize {
        *lock(&self.available)
    }

    /// Blocks until one permit is free and takes it. Campaign jobs call
    /// this once per run; because each job holds at most this single
    /// blocking permit, acquisition order cannot deadlock.
    pub fn acquire(self: &Arc<Self>) -> Lease {
        let mut available = lock(&self.available);
        while *available == 0 {
            available = self
                .freed
                .wait(available)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *available -= 1;
        Lease {
            governor: Arc::clone(self),
            held: 1,
        }
    }

    /// Takes up to `want` permits without blocking and returns a lease
    /// over however many were granted (possibly zero). Evaluators use
    /// this for worker threads beyond the one their caller already
    /// represents.
    pub fn try_acquire(self: &Arc<Self>, want: usize) -> Lease {
        let mut available = lock(&self.available);
        let granted = want.min(*available);
        *available -= granted;
        Lease {
            governor: Arc::clone(self),
            held: granted,
        }
    }

    fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut available = lock(&self.available);
        *available += n;
        debug_assert!(*available <= self.total, "permit over-release");
        drop(available);
        self.freed.notify_all();
    }
}

/// RAII holder of governor permits; returns them on drop.
#[derive(Debug)]
pub struct Lease {
    governor: Arc<ThreadGovernor>,
    held: usize,
}

impl Lease {
    /// Permits this lease holds.
    pub fn held(&self) -> usize {
        self.held
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.governor.release(self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn permits_are_bounded_and_returned() {
        let g = ThreadGovernor::new(3);
        assert_eq!(g.total(), 3);
        let a = g.acquire();
        let b = g.try_acquire(5);
        assert_eq!(a.held(), 1);
        assert_eq!(b.held(), 2, "try_acquire grants only what is free");
        assert_eq!(g.available(), 0);
        let c = g.try_acquire(1);
        assert_eq!(c.held(), 0, "exhausted pool grants zero without blocking");
        drop(b);
        assert_eq!(g.available(), 2);
        drop(a);
        drop(c);
        assert_eq!(g.available(), 3);
    }

    #[test]
    fn zero_total_is_clamped_to_one() {
        let g = ThreadGovernor::new(0);
        assert_eq!(g.total(), 1);
        let lease = g.acquire();
        assert_eq!(lease.held(), 1);
    }

    #[test]
    fn blocking_acquire_never_exceeds_total() {
        let g = ThreadGovernor::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _lease = g.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "governor must bound concurrency"
        );
        assert_eq!(g.available(), 2, "all permits returned");
    }
}
