//! Server-side precompute pool: input-independent OMPE sender material
//! produced from idle time and consumed by classification sessions.
//!
//! The pool is bound to one `(OT engine, OMPE parameter set)`
//! configuration at construction. [`PrecomputePool::take`] refuses a
//! request under any other configuration with a structured
//! [`OmpeError::ConfigMismatch`], so stale material can never serve a
//! session with different security parameters. Filling is budgeted —
//! one pack per [`PrecomputePool::fill_one`] call — so an idle tick
//! never blocks serving for longer than one pack's precompute, and
//! [`PrecomputePool::clear`] empties the pool when the server drains.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ppcs_math::Algebra;
use ppcs_ompe::{params_fingerprint, OmpeError, OmpeParams, OmpeSenderOffline};
use ppcs_ot::OtSelect;
use ppcs_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::PpcsError;

/// Locks `m` even when a thread that panicked holding it poisoned it:
/// the queue is only ever pushed, popped or cleared whole, and a
/// generator interrupted mid-draw is still a generator, so what a
/// poisoned pool lock guards is consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded queue of precomputed [`OmpeSenderOffline`] packs for one
/// serving configuration.
///
/// Thread-safe by interior mutability: the serving path takes packs
/// while the reactor's idle path fills, without either blocking the
/// other for longer than a queue push/pop. When the pool runs dry a
/// session simply serves monolithically — a miss costs latency, never
/// correctness.
pub struct PrecomputePool<A: Algebra> {
    alg: A,
    sel: OtSelect,
    params: OmpeParams,
    fingerprint: u64,
    capacity: usize,
    masks_per_entry: usize,
    entries: Mutex<VecDeque<OmpeSenderOffline>>,
    /// Fill randomness, under its own lock so a fill in progress (a
    /// modular exponentiation for Naor–Pinkas) never delays a take on
    /// the serving path.
    rng: Mutex<StdRng>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<A: Algebra> PrecomputePool<A> {
    /// Creates an empty pool bound to the given configuration, holding
    /// at most `capacity` packs of `masks_per_entry` masking
    /// polynomials each (clamped to at least one mask — an empty pack
    /// would be a guaranteed inline refresh).
    pub fn new(
        alg: A,
        sel: OtSelect,
        params: OmpeParams,
        capacity: usize,
        masks_per_entry: usize,
        seed: u64,
    ) -> Self {
        Self {
            fingerprint: params_fingerprint(sel, &params),
            alg,
            sel,
            params,
            capacity,
            masks_per_entry: masks_per_entry.max(1),
            entries: Mutex::new(VecDeque::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            metrics: None,
        }
    }

    /// Attaches a metrics registry: fills, hits, misses, and the live
    /// depth show up on the `/metrics` exposition.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The configuration fingerprint every pack in this pool carries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many packs are ready right now.
    pub fn depth(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Produces one pack if the pool has room; returns whether anything
    /// was added. One pack per call keeps the fill budgeted: an idle
    /// reactor tick spends at most one pack's worth of precompute
    /// before checking for traffic again.
    pub fn fill_one(&self) -> bool {
        if self.depth() >= self.capacity {
            return false;
        }
        let entry = {
            let mut rng = lock(&self.rng);
            OmpeSenderOffline::precompute(
                &self.alg,
                self.sel,
                &self.params,
                self.masks_per_entry,
                &mut *rng,
            )
        };
        let depth = {
            let mut entries = lock(&self.entries);
            if entries.len() >= self.capacity {
                // A concurrent fill won the race to the last slot.
                return false;
            }
            entries.push_back(entry);
            entries.len()
        };
        if let Some(reg) = &self.metrics {
            reg.record_pool_filled();
            reg.set_pool_depth(depth as u64);
        }
        true
    }

    /// Pops a pack for a session running under `(sel, params)`.
    /// `Ok(None)` means the pool is dry and the session should serve
    /// monolithically.
    ///
    /// # Errors
    ///
    /// [`OmpeError::ConfigMismatch`] (as [`PpcsError::Ompe`]) when the
    /// requested configuration differs from the one this pool was built
    /// for — precomputed material never crosses configurations.
    pub fn take(
        &self,
        sel: OtSelect,
        params: &OmpeParams,
    ) -> Result<Option<OmpeSenderOffline>, PpcsError> {
        let expected = params_fingerprint(sel, params);
        if expected != self.fingerprint {
            return Err(PpcsError::Ompe(OmpeError::ConfigMismatch {
                expected,
                actual: self.fingerprint,
            }));
        }
        let (entry, depth) = {
            let mut entries = lock(&self.entries);
            let entry = entries.pop_front();
            (entry, entries.len())
        };
        if let Some(reg) = &self.metrics {
            if entry.is_some() {
                reg.record_pool_hit();
                reg.set_pool_depth(depth as u64);
            } else {
                reg.record_pool_miss();
            }
        }
        Ok(entry)
    }

    /// Empties the pool — the drain path calls this so no precomputed
    /// material outlives the serving run that drew it.
    pub fn clear(&self) {
        lock(&self.entries).clear();
        if let Some(reg) = &self.metrics {
            reg.set_pool_depth(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_math::FixedFpAlgebra;
    use ppcs_ot::{ObliviousTransfer, TrustedSimOt};

    fn pool(capacity: usize) -> PrecomputePool<FixedFpAlgebra> {
        PrecomputePool::new(
            FixedFpAlgebra::new(16),
            TrustedSimOt.select(),
            OmpeParams::new(1, 3, 2).unwrap(),
            capacity,
            2,
            7,
        )
    }

    #[test]
    fn a_poisoned_pool_still_fills_and_serves() {
        let p = std::sync::Arc::new(pool(2));
        for which in ["entries", "rng"] {
            let holder = p.clone();
            let poisoner = std::thread::spawn(move || {
                let _entries = (which == "entries").then(|| holder.entries.lock().unwrap());
                let _rng = (which == "rng").then(|| holder.rng.lock().unwrap());
                panic!("poison the pool's {which} lock");
            });
            assert!(poisoner.join().is_err());
        }
        assert!(p.entries.is_poisoned() && p.rng.is_poisoned());

        assert!(p.fill_one());
        assert!(p.fill_one());
        assert!(!p.fill_one(), "a poisoned pool keeps its capacity");
        assert_eq!(p.depth(), 2);
        let sel = TrustedSimOt.select();
        let params = OmpeParams::new(1, 3, 2).unwrap();
        assert!(p.take(sel, &params).unwrap().is_some());
        assert_eq!(p.depth(), 1);
        p.clear();
        assert_eq!(p.depth(), 0);
        assert!(p.take(sel, &params).unwrap().is_none());
    }

    #[test]
    fn fill_respects_capacity_and_take_drains_fifo() {
        let p = pool(2);
        assert!(p.fill_one());
        assert!(p.fill_one());
        assert!(!p.fill_one(), "full pool must refuse a third pack");
        assert_eq!(p.depth(), 2);

        let sel = TrustedSimOt.select();
        let params = OmpeParams::new(1, 3, 2).unwrap();
        assert!(p.take(sel, &params).unwrap().is_some());
        assert!(p.take(sel, &params).unwrap().is_some());
        assert!(
            p.take(sel, &params).unwrap().is_none(),
            "dry pool yields None"
        );
    }

    #[test]
    fn cross_config_take_is_refused() {
        let p = pool(1);
        p.fill_one();
        let other = OmpeParams::new(2, 3, 2).unwrap();
        let err = p.take(TrustedSimOt.select(), &other).unwrap_err();
        assert!(matches!(
            err,
            PpcsError::Ompe(OmpeError::ConfigMismatch { .. })
        ));
        // The refused pack is still there for the right configuration.
        assert_eq!(p.depth(), 1);
    }

    #[test]
    fn clear_empties_the_pool() {
        let p = pool(3);
        p.fill_one();
        p.fill_one();
        p.clear();
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn metrics_see_fills_hits_and_misses() {
        let reg = MetricsRegistry::new(1, "trainer");
        let p = pool(1).with_metrics(reg.clone());
        p.fill_one();
        let sel = TrustedSimOt.select();
        let params = OmpeParams::new(1, 3, 2).unwrap();
        let _ = p.take(sel, &params).unwrap();
        let _ = p.take(sel, &params).unwrap();
        let report = reg.report();
        assert_eq!(report.pool_filled, 1);
        assert_eq!(report.pool_hits, 1);
        assert_eq!(report.pool_misses, 1);
        assert_eq!(report.pool_depth, 0);
    }
}
