//! atomics: every access in this module is `Ordering::Relaxed` on one
//! `AtomicU64` holding `f64` bits. The EMA is a self-contained value —
//! no other memory is published through it — so no acquire/release
//! pairing is needed; the CAS loop in [`CostEma::record`] provides the
//! read-modify-write atomicity (lost-update freedom), which is a
//! property of the CAS itself, not of the memory ordering.
//!
//! Exponentially-weighted cost estimate behind [`crate::ShardRouter`]'s
//! deadline routing ([`crate::RoutePolicy::deadline_us`]).
//!
//! Exact-path latency samples are folded with a compare-exchange loop,
//! not a load-then-store. The racy form is a genuine lost-update bug with
//! an observable effect: two concurrent exact calls — one slow, one
//! fast — can interleave so the fast sample's store *overwrites* (not
//! folds) the slow sample, rolling the estimate back and flipping
//! `should_degrade` from degrade to exact on the next deadline check.
//! Under the CAS fold every sample lands exactly once, in some serial
//! order, which `concurrent_records_form_one_transition_chain` below
//! pins.

use std::sync::atomic::{AtomicU64, Ordering};

/// How much of the previous estimate survives each new sample.
const DECAY: f64 = 0.8;

/// A lock-free exponentially-weighted moving average of observed costs
/// (microseconds), stored as `f64` bits in one atomic word. `0.0` (the
/// initial state) means "no samples yet".
#[derive(Debug, Default)]
pub(crate) struct CostEma {
    bits: AtomicU64,
}

/// One successful fold: the bit patterns consumed and produced. Under
/// concurrency these pairs form a single chain from the initial state —
/// the property the regression tests below pin down.
pub(crate) type Transition = (u64, u64);

/// The pure fold both the atomic path and the tests share: first sample
/// seeds the average, later samples decay into it.
pub(crate) fn fold(prev: f64, us: f64) -> f64 {
    if prev > 0.0 {
        DECAY * prev + (1.0 - DECAY) * us
    } else {
        us
    }
}

impl CostEma {
    pub(crate) const fn new() -> Self {
        Self {
            bits: AtomicU64::new(0),
        }
    }

    /// Fold one latency sample into the average. A CAS loop rather than
    /// load-then-store: concurrent samples each land exactly once, in
    /// some serial order, so no sample can silently erase another.
    /// Returns the transition for the regression tests.
    pub(crate) fn record(&self, us: f64) -> Transition {
        let mut prev_bits = self.bits.load(Ordering::Relaxed);
        loop {
            let next_bits = fold(f64::from_bits(prev_bits), us).to_bits();
            match self.bits.compare_exchange_weak(
                prev_bits,
                next_bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (prev_bits, next_bits),
                Err(actual) => prev_bits = actual,
            }
        }
    }

    /// The current estimate, or `None` before the first sample.
    pub(crate) fn estimate_us(&self) -> Option<f64> {
        let ema = f64::from_bits(self.bits.load(Ordering::Relaxed));
        (ema > 0.0).then_some(ema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn sequential_fold_is_bit_exact() {
        let ema = CostEma::new();
        assert_eq!(ema.estimate_us(), None);
        let samples = [120.0, 80.0, 300.5, 42.25, 99.0];
        let mut expect = 0.0;
        for &s in &samples {
            ema.record(s);
            expect = fold(expect, s);
            assert_eq!(ema.estimate_us(), Some(expect));
        }
    }

    /// The regression test for the lost-update race: every successful
    /// `record` returns its (prev, next) bit transition, and with a CAS
    /// fold those transitions must form one single chain from the
    /// initial state — one walk that consumes every transition exactly
    /// once and ends at the published estimate. The
    /// old load-then-store version forks the chain whenever two threads
    /// read the same `prev` (one branch is a dead end no later fold
    /// consumes), which this test catches deterministically from the
    /// collected transitions (no timing luck needed in the assertion
    /// itself). The transitions are a **multiset**: the EMA may
    /// legitimately revisit a bit pattern, so a repeated `prev` alone
    /// proves nothing — only the walk does.
    #[test]
    fn concurrent_records_form_one_transition_chain() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let ema = Arc::new(CostEma::new());
        let transitions: Vec<Transition> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let ema = Arc::clone(&ema);
                    s.spawn(move || {
                        (0..PER_THREAD)
                            // Disjoint per-thread sample ranges: no two
                            // folds carry the same sample, so a fork can't
                            // hide behind two identical transitions.
                            .map(|i| ema.record(1.0 + (t * PER_THREAD + i) as f64 / 7.0))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        assert_eq!(transitions.len(), THREADS * PER_THREAD);
        // prev -> {next…}; walk it from the seed (Hierholzer: follow unused
        // transitions, emit a node once it has none left), which finds the
        // one walk over all of them whenever such a walk exists.
        let mut unused: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(prev, next) in &transitions {
            unused.entry(prev).or_default().push(next);
        }
        let (mut stack, mut walk) = (vec![0u64], Vec::new());
        while let Some(&at) = stack.last() {
            match unused.get_mut(&at).and_then(Vec::pop) {
                Some(next) => stack.push(next),
                None => walk.extend(stack.pop()),
            }
        }
        walk.reverse();
        // A lost update leaves a dead-end branch: the emitted sequence then
        // steps across a pair that is not a transition (or misses some).
        let mut walked: Vec<Transition> = walk.windows(2).map(|w| (w[0], w[1])).collect();
        let mut recorded = transitions.clone();
        walked.sort_unstable();
        recorded.sort_unstable();
        assert!(
            walked == recorded,
            "no single walk from the seed consumes every fold exactly once: lost update"
        );
        let at = *walk.last().expect("the walk holds at least the seed");
        assert_eq!(Some(f64::from_bits(at)), ema.estimate_us());
    }
}
