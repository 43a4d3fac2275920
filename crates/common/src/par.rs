//! Ordered fan-out of independent jobs over scoped threads.
//!
//! Every threaded pass in the workspace has the same shape: split the
//! work into independent jobs, run them on up to `threads` workers, and
//! fold the results in job order, so that the answer is bit for bit the
//! same at any thread count. That covers the Gram, SVD and SVDD build
//! passes, the batch cell kernel and the aggregate scans. [`ordered`] is
//! that shape, on `std::thread::scope`; it is the workspace's one
//! threading primitive for job fan-out.

use crate::{AtsError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f` over every job on up to `threads` threads and return the
/// results in job order.
///
/// Jobs are dealt round-robin: with `T = min(threads, jobs.len())`
/// workers, worker `w` runs jobs `w, w + T, w + 2T, …` in that order. The
/// calling thread is worker 0, so `T` workers cost `T − 1` spawns. With
/// `threads ≤ 1` or a single job everything runs inline on the caller.
///
/// # Errors
///
/// The first error in job order. A job that panics yields
/// [`AtsError::Internal`] in its slot, at any thread count.
///
/// # Examples
///
/// ```
/// let squares = ats_common::par::ordered(vec![1u64, 2, 3, 4], 2, |x| Ok(x * x)).unwrap();
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn ordered<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Result<Vec<R>>
where
    J: Send,
    R: Send,
    F: Fn(J) -> Result<R> + Sync,
{
    let run = |job: J| -> Result<R> {
        catch_unwind(AssertUnwindSafe(|| f(job)))
            .unwrap_or_else(|_| Err(AtsError::internal("parallel job panicked")))
    };
    let n = jobs.len();
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return jobs.into_iter().map(run).collect();
    }
    let mut buckets: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
    for (idx, job) in jobs.into_iter().enumerate() {
        if let Some(b) = buckets.get_mut(idx % workers) {
            b.push((idx, job));
        }
    }
    let run_bucket = |bucket: Vec<(usize, J)>| -> Vec<(usize, Result<R>)> {
        bucket
            .into_iter()
            .map(|(idx, job)| (idx, run(job)))
            .collect()
    };
    let run_bucket = &run_bucket;
    let done: Vec<Vec<(usize, Result<R>)>> = std::thread::scope(|scope| {
        let mut buckets = buckets.into_iter();
        let mine = buckets.next().unwrap_or_default();
        let handles: Vec<_> = buckets
            .map(|bucket| scope.spawn(move || run_bucket(bucket)))
            .collect();
        let mut done = vec![run_bucket(mine)];
        // `run` catches every job panic, so a join error cannot carry a
        // result; its slots stay empty and surface as errors below.
        done.extend(handles.into_iter().filter_map(|h| h.join().ok()));
        done
    });
    let mut slots: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
    for (idx, r) in done.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(idx) {
            *slot = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err(AtsError::internal("parallel worker lost its jobs"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 3, 8] {
            let jobs: Vec<usize> = (0..17).collect();
            let out = ordered(jobs, threads, |j| Ok(j * 10)).unwrap();
            assert_eq!(out, (0..17).map(|j| j * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_job_list_is_empty() {
        let out: Vec<()> = ordered(Vec::<()>::new(), 4, |()| Ok(())).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn two_threads_use_two_distinct_threads() {
        // Each job waits until both jobs have started, so the test can
        // only finish if they really run at the same time.
        let started = std::sync::atomic::AtomicUsize::new(0);
        let ids: Vec<ThreadId> = ordered(vec![0, 1], 2, |_| {
            started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            while started.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                thread::yield_now();
            }
            Ok(thread::current().id())
        })
        .unwrap();
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn one_thread_runs_inline() {
        let me = thread::current().id();
        let ids = ordered(vec![(); 5], 1, |()| Ok(thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn panicking_job_is_an_internal_error() {
        for threads in [1, 2, 4] {
            let r = ordered(vec![0, 1, 2, 3], threads, |j| {
                if j == 2 {
                    panic!("job {j} fails");
                }
                Ok(j)
            });
            assert!(
                matches!(r, Err(AtsError::Internal(_))),
                "threads={threads}: {r:?}"
            );
        }
    }

    #[test]
    fn first_error_in_job_order_wins() {
        for threads in [1, 2, 3] {
            let r: Result<Vec<usize>> = ordered((0..6).collect(), threads, |j| {
                if j >= 3 {
                    Err(AtsError::InvalidArgument(format!("job {j}")))
                } else {
                    Ok(j)
                }
            });
            match r {
                Err(AtsError::InvalidArgument(msg)) => assert_eq!(msg, "job 3"),
                other => panic!("threads={threads}: {other:?}"),
            }
        }
    }

    #[test]
    fn jobs_may_borrow_disjoint_mutable_bands() {
        let mut out = vec![0usize; 10];
        let bands: Vec<(usize, &mut [usize])> = out
            .chunks_mut(3)
            .enumerate()
            .map(|(b, band)| (b * 3, band))
            .collect();
        ordered(bands, 2, |(start, band)| {
            for (k, v) in band.iter_mut().enumerate() {
                *v = start + k;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
