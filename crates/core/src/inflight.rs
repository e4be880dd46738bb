//! Single-flight deduplication of in-progress work.
//!
//! A thundering herd of identical synthesis requests — N clients asking
//! for the same (topology, collective, size, config) key at once — must
//! synthesize **once**: the first caller becomes the *leader* of a
//! flight, everyone else *joins* it and blocks until the leader's result
//! is published, receiving a clone. [`InFlightRegistry`] is that
//! coordination keyed by the same tagged fingerprints
//! [`crate::AlgorithmCache`] uses.
//!
//! The registry is deliberately decoupled from *where* the work runs:
//! [`InFlightRegistry::begin`] hands back a [`Flight`] handle, and
//! whoever executes the work (the leader's thread, a worker pool)
//! publishes through [`InFlightRegistry::complete`], which also retires
//! the key so later requests start a fresh flight (or hit a cache layered
//! in front). Waiters block on [`Flight::wait`] or give up after a
//! deadline with [`Flight::wait_timeout`] — a waiter abandoning a flight
//! does not cancel it.
//!
//! **Poisoning policy:** every lock here guards plain data (an `Option`
//! result, a `HashMap` of handles) whose invariants hold between any two
//! mutations, so a panicking peer cannot leave them torn. Acquisitions
//! therefore recover the guard with
//! `unwrap_or_else(PoisonError::into_inner)` instead of propagating the
//! poison: one crashed worker must not take the whole registry down with
//! it. `tacos lint` (panic rule) enforces this on the serving path.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// The shared state of one in-progress flight.
#[derive(Debug)]
struct FlightState<T> {
    done: Mutex<Option<T>>,
    cv: Condvar,
}

/// A handle onto one in-progress flight; cheap to clone, wait on it with
/// [`Flight::wait`] / [`Flight::wait_timeout`].
#[derive(Debug)]
pub struct Flight<T>(Arc<FlightState<T>>);

impl<T> Clone for Flight<T> {
    fn clone(&self) -> Self {
        Flight(Arc::clone(&self.0))
    }
}

impl<T: Clone> Flight<T> {
    /// Blocks until the flight's result is published, returning a clone.
    pub fn wait(&self) -> T {
        let mut done = self.0.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = done.as_ref() {
                return value.clone();
            }
            done = self.0.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the result is published or `timeout` elapses.
    /// `None` means the deadline expired — the flight itself continues
    /// and its result still lands wherever completion publishes it.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut done = self.0.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = done.as_ref() {
                return Some(value.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .0
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            done = guard;
        }
    }
}

/// The role [`InFlightRegistry::begin`] assigned to a caller.
#[derive(Debug)]
pub enum FlightEntry<T> {
    /// No flight existed for the key: this caller is responsible for
    /// getting the work executed and [`InFlightRegistry::complete`]d.
    Leader(Flight<T>),
    /// An identical request is already in progress: wait on the handle.
    Follower(Flight<T>),
}

impl<T> FlightEntry<T> {
    /// The flight handle, regardless of role.
    pub fn flight(&self) -> &Flight<T> {
        match self {
            FlightEntry::Leader(f) | FlightEntry::Follower(f) => f,
        }
    }

    /// `true` for the caller that must arrange execution.
    pub fn is_leader(&self) -> bool {
        matches!(self, FlightEntry::Leader(_))
    }
}

/// Deduplication registry: at most one in-progress flight per key.
#[derive(Debug, Default)]
pub struct InFlightRegistry<T> {
    inner: Mutex<HashMap<String, Flight<T>>>,
}

impl<T: Clone> InFlightRegistry<T> {
    /// An empty registry.
    pub fn new() -> Self {
        InFlightRegistry {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the in-progress flight for `key`, or starts one: exactly one
    /// concurrent caller per key receives [`FlightEntry::Leader`].
    pub fn begin(&self, key: &str) -> FlightEntry<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(flight) = inner.get(key) {
            return FlightEntry::Follower(flight.clone());
        }
        let flight = Flight(Arc::new(FlightState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }));
        inner.insert(key.to_string(), flight.clone());
        FlightEntry::Leader(flight)
    }

    /// Publishes the result of `key`'s flight, waking every waiter, and
    /// retires the key so the next identical request starts fresh.
    ///
    /// Completing a key with no registered flight is a no-op (the flight
    /// may already have been completed through another path, e.g. a
    /// leader publishing a rejection after its worker handoff failed).
    pub fn complete(&self, key: &str, value: T) {
        let flight = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
        if let Some(flight) = flight {
            *flight.0.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            flight.0.cv.notify_all();
        }
    }

    /// Number of in-progress flights.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_leader_many_followers_one_execution() {
        let registry = Arc::new(InFlightRegistry::<u64>::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let registry = Arc::clone(&registry);
            let executions = Arc::clone(&executions);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                match registry.begin("k") {
                    FlightEntry::Leader(flight) => {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Simulate work, then publish.
                        std::thread::sleep(Duration::from_millis(20));
                        registry.complete("k", 42);
                        flight.wait()
                    }
                    FlightEntry::Follower(flight) => flight.wait(),
                }
            }));
        }
        let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one leader");
        assert!(results.iter().all(|&v| v == 42));
        assert!(registry.is_empty(), "completed flights retire their key");
    }

    #[test]
    fn completed_keys_start_fresh_flights() {
        let registry = InFlightRegistry::<u64>::new();
        let first = registry.begin("k");
        assert!(first.is_leader());
        registry.complete("k", 1);
        assert_eq!(first.flight().wait(), 1);
        // A new request after completion leads again (no stale flight).
        assert!(registry.begin("k").is_leader());
        // Distinct keys are independent flights.
        assert!(registry.begin("other").is_leader());
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn wait_timeout_gives_up_without_cancelling() {
        let registry = InFlightRegistry::<u64>::new();
        let entry = registry.begin("slow");
        let flight = entry.flight().clone();
        assert_eq!(flight.wait_timeout(Duration::from_millis(10)), None);
        // The flight is still live; completion reaches late waiters.
        registry.complete("slow", 7);
        assert_eq!(flight.wait_timeout(Duration::from_millis(10)), Some(7));
    }

    #[test]
    fn completing_an_unknown_key_is_a_no_op() {
        let registry = InFlightRegistry::<u64>::new();
        registry.complete("never-began", 9);
        assert!(registry.is_empty());
    }
}
