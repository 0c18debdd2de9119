//! Contiguous runs of a batch on every core — the one split the served
//! batch (`regq_core::snapshot`) and the training stream's exact chunks
//! (`regq_workload::stream`) share.
//!
//! A batch whose items are independent — an answer a pure function of
//! its item — splits into contiguous runs in input order: the calling
//! thread works the first, `std::thread::scope` workers the others, each
//! run writing its own slice of the output. Nothing is shared between
//! runs and nothing is reordered, so the split changes no answer; it only
//! pays a spawn and a join per extra run, which is why [`run_count`]
//! splits a batch only when every run carries enough work.

use std::sync::OnceLock;

/// The cores this process may use, as `std::thread::available_parallelism`
/// grants them (it honours the affinity mask), at least one. Read once per
/// process: the call reads cgroup files, ≈ 12–13 µs on a 2-vCPU host.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many contiguous runs a batch of `len` items, `cost` units of work
/// each, splits into: as many as `workers()` grants, at most one per item,
/// each of at least `min_run` units. `workers` is called only when the
/// whole batch holds two such runs, so a small batch never asks for the
/// core count. Always at least one.
pub fn run_count(
    len: usize,
    cost: usize,
    min_run: usize,
    workers: impl FnOnce() -> usize,
) -> usize {
    let most = len.saturating_mul(cost) / min_run.max(1);
    if most < 2 {
        return 1;
    }
    most.min(len).min(workers()).max(1)
}

/// Work `out` as at most `runs` contiguous runs in input order:
/// `work(start, run)` gets the run's offset into `out` and its slice, the
/// calling thread works the first run, scoped threads the others, and
/// `fold` receives the runs' results in run order. One run calls `work`
/// once on the calling thread and spawns nothing.
///
/// # Panics
/// Re-raises a run's panic with that run's own payload: the calling
/// thread's first, else the lowest-numbered worker's.
pub fn in_runs<T: Send, R: Send>(
    out: &mut [T],
    runs: usize,
    work: impl Fn(usize, &mut [T]) -> R + Sync,
    mut fold: impl FnMut(R),
) {
    let run = out.len().div_ceil(runs.max(1)).max(1);
    if run >= out.len() {
        fold(work(0, out));
        return;
    }
    let work = &work;
    let (first, rest) = out.split_at_mut(run);
    std::thread::scope(|s| {
        let workers: Vec<_> = rest
            .chunks_mut(run)
            .zip((run..).step_by(run))
            .map(|(slice, start)| s.spawn(move || work(start, slice)))
            .collect();
        fold(work(0, first));
        for worker in workers {
            match worker.join() {
                Ok(result) => fold(result),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_never_read_the_core_count() {
        let unread = || -> usize { panic!("the core count was read") };
        assert_eq!(run_count(0, 1, 1, unread), 1);
        assert_eq!(run_count(1, 1, 1, unread), 1);
        assert_eq!(run_count(3, 1_000, 2_000, unread), 1);
        assert_eq!(run_count(1, usize::MAX, 1 << 16, || 8), 1);
        assert_eq!(run_count(4, 1_000, 2_000, || 8), 2);
        assert_eq!(run_count(4, 1_000, 1_000, || 8), 4);
        assert_eq!(run_count(4, 1_000, 1_000, || 3), 3);
        assert_eq!(run_count(64, 3_579, 1 << 16, || 2), 2);
        assert_eq!(run_count(1_000, 1, 1, || 0), 1);
        assert!(cores() >= 1);
    }

    #[test]
    fn every_split_writes_each_item_once_and_folds_in_run_order() {
        for len in [0usize, 1, 2, 5, 64, 1_000] {
            for runs in [0usize, 1, 2, 3, 7, len + 1] {
                let mut out = vec![usize::MAX; len];
                let mut starts = Vec::new();
                in_runs(
                    &mut out,
                    runs,
                    |start, run| {
                        for (i, slot) in run.iter_mut().enumerate() {
                            *slot = start + i;
                        }
                        (start, run.len())
                    },
                    |run| starts.push(run),
                );
                assert!(out.iter().copied().eq(0..len), "len {len} runs {runs}");
                // Contiguous, in order, covering everything, at most `runs`.
                let mut next = 0;
                for &(start, n) in &starts {
                    assert_eq!(start, next, "len {len} runs {runs}");
                    next += n;
                }
                assert_eq!(next, len);
                assert!(starts.len() <= runs.max(1), "len {len} runs {runs}");
            }
        }
    }

    #[test]
    fn a_workers_panic_is_raised_with_its_own_payload() {
        let mut out = [0u8; 6];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_runs(
                &mut out,
                3,
                |start, _| {
                    if start == 2 {
                        std::panic::panic_any(format!("run at {start}"));
                    }
                },
                drop,
            )
        }));
        let payload = caught.expect_err("the second run panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("run at 2")
        );
    }
}
