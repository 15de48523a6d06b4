//! The deterministic work-stealing job pool: the one fan-out behind
//! Table 1 characterization, Monte Carlo, PPSFP good-response fills and
//! fault grading, and the fleet's device blocks.
//!
//! Every worker *steals* the next job from a shared atomic cursor, so
//! load imbalance is bounded by a single job however uneven job costs
//! are (a fault-free Table 1 cell finishes in a short capture-limited
//! transient while an HBD cell escalates to the full observation window;
//! a fault dropped on its first block costs a fraction of one that
//! survives every block).
//!
//! Determinism: each job writes its result into its own index slot, so
//! the output is identical at any thread count — workers only race for
//! *which* job to run next, never for where a result lands. After the
//! first failure workers stop claiming new jobs; because the cursor is
//! monotonic every job below a failing index has already been claimed
//! and runs to completion, so the reported error is always the one from
//! the lowest-indexed failing job, exactly as a serial run would report.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use obd_metrics::Counter;

/// Jobs executed through the pool (any thread count, including serial).
static POOL_JOBS: Counter = Counter::new("core.pool_jobs");
/// Pool runs that actually spawned workers.
static POOL_PARALLEL_RUNS: Counter = Counter::new("core.pool_parallel_runs");

/// A pool worker panicked. Callers' error types convert from it, so a
/// panic inside a job surfaces as a typed error instead of unwinding
/// across the scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanicked;

impl fmt::Display for WorkerPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("pool worker panicked")
    }
}

/// Runs `f` over every job on up to `threads` work-stealing workers and
/// returns the results in job order.
///
/// `f` receives the job's index and the job itself. `threads <= 1` runs
/// the same loop inline without spawning.
///
/// # Errors
///
/// The lowest-indexed job error, or `WorkerPanicked` converted into `E`
/// if a spawned worker panicked.
pub fn run_jobs<J, R, E, F>(jobs: &[J], threads: usize, f: F) -> Result<Vec<R>, E>
where
    J: Sync,
    R: Send,
    E: Send + From<WorkerPanicked>,
    F: Fn(usize, &J) -> Result<R, E> + Sync,
{
    run_jobs_with(jobs, threads, || (), |(), i, job| f(i, job))
}

/// [`run_jobs`] with per-worker state: every worker builds one `S` with
/// `init` (at most `threads` times in all) and hands it mutably to each
/// job it runs — a reusable scratch arena, for instance.
///
/// # Errors
///
/// As [`run_jobs`].
pub fn run_jobs_with<J, S, R, E, I, F>(
    jobs: &[J],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    J: Sync,
    R: Send,
    E: Send + From<WorkerPanicked>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &J) -> Result<R, E> + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Every critical section below is a single store, so a lock poisoned
    // by a panicking job still guards valid data and is recovered.
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut state = init();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                break;
            };
            POOL_JOBS.inc();
            match f(&mut state, i, job) {
                // The cursor hands out each index once, so no two workers
                // ever contend for a slot.
                Ok(r) => *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r),
                Err(e) => {
                    let mut first = first_error.lock().unwrap_or_else(PoisonError::into_inner);
                    if first.as_ref().is_none_or(|&(k, _)| i < k) {
                        *first = Some((i, e));
                    }
                    failed.store(true, Ordering::Relaxed);
                }
            }
        }
    };

    if threads == 1 {
        worker();
    } else {
        POOL_PARALLEL_RUNS.inc();
        let panicked = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            // Join every handle (no short-circuit): a panicked thread left
            // for the scope to join would re-raise the panic.
            let mut panicked = false;
            for h in handles {
                panicked |= h.join().is_err();
            }
            panicked
        });
        if panicked {
            return Err(WorkerPanicked.into());
        }
    }
    if let Some((_, e)) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|slot| {
            let r = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            r.ok_or_else(|| WorkerPanicked.into())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObdError;
    use std::time::{Duration, Instant};

    #[test]
    fn results_arrive_in_job_order_at_any_thread_count() {
        let jobs: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_jobs(&jobs, threads, |i, &j| {
                assert_eq!(i, j);
                Ok::<_, ObdError>(j * j)
            })
            .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..100).collect();
        let hits: Vec<AtomicUsize> = (0..jobs.len()).map(|_| AtomicUsize::new(0)).collect();
        run_jobs(&jobs, 7, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Ok::<_, ObdError>(())
        })
        .unwrap();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn lowest_indexed_error_wins_regardless_of_scheduling() {
        let jobs: Vec<usize> = (0..64).collect();
        for threads in [1, 4, 16] {
            let err = run_jobs(&jobs, threads, |_, &j| {
                if j == 9 || j == 40 {
                    Err(ObdError::BadSite(format!("job {j}")))
                } else {
                    Ok(j)
                }
            })
            .unwrap_err();
            assert_eq!(err, ObdError::BadSite("job 9".into()), "threads={threads}");
        }
    }

    /// Job 40 fails at once; job 9 fails only after seeing job 40's
    /// failure, so on a parallel run the higher-indexed error always
    /// lands first. Early stop must still report job 9.
    #[test]
    fn early_stop_keeps_the_lowest_indexed_error() {
        let jobs: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 16] {
            let job40_failed = AtomicBool::new(false);
            let saw_job40 = AtomicBool::new(false);
            let ran = AtomicUsize::new(0);
            let err = run_jobs(&jobs, threads, |_, &j| {
                ran.fetch_add(1, Ordering::Relaxed);
                match j {
                    9 if threads > 1 => {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !job40_failed.load(Ordering::Acquire) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        saw_job40.store(job40_failed.load(Ordering::Acquire), Ordering::Relaxed);
                        Err(ObdError::BadSite("job 9".into()))
                    }
                    9 => Err(ObdError::BadSite("job 9".into())),
                    40 => {
                        job40_failed.store(true, Ordering::Release);
                        Err(ObdError::BadSite("job 40".into()))
                    }
                    _ => Ok(j),
                }
            })
            .unwrap_err();
            assert_eq!(err, ObdError::BadSite("job 9".into()), "threads={threads}");
            let ran = ran.load(Ordering::Relaxed);
            if threads == 1 {
                assert_eq!(ran, 10, "serial run stops right after job 9");
            } else {
                assert!(
                    saw_job40.load(Ordering::Relaxed),
                    "threads={threads}: job 9 must fail after job 40"
                );
                assert!(ran < jobs.len(), "threads={threads}: no early stop");
            }
        }
    }

    #[test]
    fn worker_state_is_built_at_most_once_per_thread() {
        for (len, threads) in [(100, 1), (100, 7), (3, 16), (0, 4)] {
            let jobs: Vec<usize> = (0..len).collect();
            let inits = AtomicUsize::new(0);
            let got = run_jobs_with(
                &jobs,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |runs, _, &j| {
                    *runs += 1;
                    Ok::<_, ObdError>(j + 1)
                },
            )
            .unwrap();
            assert_eq!(got, jobs.iter().map(|j| j + 1).collect::<Vec<_>>());
            let inits = inits.load(Ordering::Relaxed);
            assert!(inits >= 1, "len={len} threads={threads}");
            assert!(
                inits <= threads.min(len.max(1)),
                "len={len} threads={threads}: {inits} inits"
            );
        }
    }

    #[test]
    fn worker_panic_is_a_typed_error() {
        let jobs: Vec<usize> = (0..8).collect();
        let err = run_jobs(&jobs, 2, |_, &j| {
            assert_ne!(j, 5, "deliberate job panic");
            Ok::<_, ObdError>(j)
        })
        .unwrap_err();
        assert_eq!(err, ObdError::from(WorkerPanicked));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got = run_jobs(&[] as &[usize], 4, |_, &j| Ok::<_, ObdError>(j)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn oversubscribed_threads_are_clamped() {
        let jobs = [1usize, 2];
        let got = run_jobs(&jobs, 999, |_, &j| Ok::<_, ObdError>(j * 10)).unwrap();
        assert_eq!(got, vec![10, 20]);
    }
}
