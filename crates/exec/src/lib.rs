//! The parallel fan-out substrate of the RTLock workspace.
//!
//! The heavy RTLock workloads — locking the design catalog, sharding a
//! fuzzing campaign — are embarrassingly parallel at the task level but
//! must stay *deterministic*: parallel results are required to be
//! byte-identical to sequential ones. Each of them hands over its whole
//! list of coarse tasks up front, and no task spawns another, so every
//! call of this crate is one fan-out over one list:
//!
//! * scoped worker threads take the next item from one shared cursor, so
//!   items start in input order; every worker is joined before the call
//!   returns, so tasks may borrow from the caller's stack and no thread
//!   ever leaks;
//! * per-task **panic capture** — a panicking task is caught with
//!   [`catch_unwind`] (the same isolation the flow governor uses at stage
//!   boundaries) and surfaces as a [`TaskError::Panicked`] value, never
//!   as a torn-down fan-out;
//! * **cancellation/deadline propagation** — every task receives the
//!   caller's [`CancelToken`]; once it fires, items not yet started are
//!   drained as [`TaskError::Cancelled`] without running, and the call
//!   still returns within a bounded wall-clock time as long as running
//!   tasks poll their token cooperatively;
//! * [`Executor::map`] — the deterministic fan-out primitive: results come
//!   back **indexed by input order**, independent of which worker ran what
//!   and in which interleaving. Consumers that merge `map` output in index
//!   order are scheduling-oblivious by construction;
//! * [`Executor::map_supervised_observed`] — `map` with per-item retry
//!   under a [`RetryPolicy`] and a live event observer.
//!
//! Besides std, the crate uses only `rtlock-governor` (the cancel token)
//! and `rtlock-store` (the retry policy), both at the bottom of the
//! workspace graph, so every engine crate can use it.
//!
//! ```
//! use rtlock_exec::Executor;
//! use rtlock_governor::CancelToken;
//!
//! let pool = Executor::new(4);
//! let out = pool.map(&CancelToken::unlimited(), (0..100).collect(), |_, n, _| n * n);
//! let squares: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares[7], 49);
//! ```

#![warn(missing_docs)]

use rtlock_governor::{CancelToken, StopReason};
use rtlock_store::{ErrorClass, RetryPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

/// Why a task produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task body panicked; the executor caught the unwind.
    Panicked(String),
    /// The task was drained without running (or gave up cooperatively)
    /// because its cancel token fired first.
    Cancelled(StopReason),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(m) => write!(f, "task panicked: {m}"),
            TaskError::Cancelled(StopReason::Cancelled) => write!(f, "task cancelled"),
            TaskError::Cancelled(StopReason::DeadlineExpired) => write!(f, "task deadline expired"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Per-task result of a [`Executor::map`] fan-out.
pub type TaskResult<T> = Result<T, TaskError>;

/// The most workers a command-line tool may request. A fan-out spawns
/// one scoped thread per worker (never more than it has items), and
/// spawning a scoped thread panics when the operating system refuses
/// one, so a larger count from user input must be rejected before it
/// reaches [`Executor::new`].
pub const MAX_THREADS: usize = 256;

/// The worker count of a parallel fan-out.
///
/// Each call starts `min(threads, items)` *scoped* threads and joins them
/// before it returns, which keeps the API safe for stack-borrowing tasks
/// and makes leaked workers impossible; the spawn cost is microseconds
/// against task granularities of milliseconds to minutes. Workers take
/// items from one shared cursor, so items start strictly in input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor { threads: threads.max(1) }
    }

    /// An executor sized to the machine (`available_parallelism`, minimum 1).
    pub fn machine_sized() -> Executor {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Executor::new(n)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deterministic parallel map: applies `f` to every item and returns
    /// the results **in input order**, one [`TaskResult`] per item.
    ///
    /// * A panicking `f` yields [`TaskError::Panicked`] for that item only.
    /// * Items whose token has already fired when a worker picks them up
    ///   are drained as [`TaskError::Cancelled`] without calling `f`.
    /// * `f` receives the item index, the item, and a token to poll
    ///   cooperatively.
    ///
    /// The result order never depends on worker count or scheduling, so
    /// merging in index order is deterministic across thread counts.
    pub fn map<I, T, F>(&self, token: &CancelToken, items: Vec<I>, f: F) -> Vec<TaskResult<T>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &CancelToken) -> T + Sync,
    {
        fan_out(self.threads, items, |i, item| attempt(token, || f(i, item, token)))
    }

    /// Supervised deterministic parallel map: like [`Executor::map`], but
    /// each item runs under a [`RetryPolicy`] — a task whose result
    /// `classify` calls [`ErrorClass::Transient`] is re-executed in place
    /// (on the same worker, after the policy's deterministic backoff) up
    /// to `policy.max_attempts` times. Permanent failures and successes
    /// are never retried, and a fired cancel token stops the retry loop
    /// at the next boundary.
    ///
    /// `classify` sees the full per-attempt [`TaskResult`] (so a captured
    /// panic can be classified transient while a structural error value
    /// is permanent) and returns `None` for definitive results. `f`
    /// additionally receives the 1-based attempt number.
    ///
    /// `observe` is invoked from the worker as events happen — once per
    /// failed attempt ([`SupervisedEvent::Attempt`], before the backoff
    /// sleep) and once per item when its result is final
    /// ([`SupervisedEvent::Finished`], before the slot is stored). A
    /// checkpointing caller journals from here so a crash between items
    /// loses at most the in-flight ones; `observe` must therefore do its
    /// own locking (it runs concurrently from every worker). Pass `|_| {}`
    /// to observe nothing. A panic in `classify` or `observe` is not
    /// captured: it reaches the caller once every worker is joined.
    ///
    /// Returns the final per-item results in input order plus every
    /// failed attempt as a [`RetryRecord`], sorted by `(index, attempt)`
    /// — deterministic across thread counts, ready for journaling.
    pub fn map_supervised_observed<I, T, F, C, O>(
        &self,
        token: &CancelToken,
        items: Vec<I>,
        policy: &RetryPolicy,
        classify: C,
        observe: O,
        f: F,
    ) -> (Vec<TaskResult<T>>, Vec<RetryRecord>)
    where
        I: Send,
        T: Send,
        F: Fn(usize, &I, u32, &CancelToken) -> T + Sync,
        C: Fn(&TaskResult<T>) -> Option<(ErrorClass, String)> + Sync,
        O: Fn(SupervisedEvent<'_, T>) + Sync,
    {
        let records: Mutex<Vec<RetryRecord>> = Mutex::new(Vec::new());
        let max_attempts = policy.max_attempts.max(1);
        let results = fan_out(self.threads, items, |i, item| {
            let mut attempt_no = 1u32;
            let out = loop {
                let out = attempt(token, || f(i, &item, attempt_no, token));
                let Some((class, detail)) = classify(&out) else { break out };
                let will_retry = class == ErrorClass::Transient
                    && attempt_no < max_attempts
                    && token.should_stop().is_none();
                // Every earlier attempt was retried, so this is retry
                // number `attempt_no` of the policy's schedule.
                let backoff = will_retry.then(|| policy.backoff(attempt_no));
                let record = RetryRecord { index: i, attempt: attempt_no, class, detail, backoff };
                observe(SupervisedEvent::Attempt(&record));
                records.lock().expect("records lock").push(record);
                match backoff {
                    Some(d) => sleep_cooperative(token, d),
                    None => break out,
                }
                attempt_no += 1;
            };
            observe(SupervisedEvent::Finished { index: i, attempts: attempt_no, result: &out });
            out
        });
        let mut records = records.into_inner().expect("records lock");
        records.sort_by_key(|r| (r.index, r.attempt));
        (results, records)
    }
}

/// Runs `job(index, item)` for every item on `min(threads, items.len())`
/// scoped workers and returns the results in input order. Each worker
/// takes the next `(index, item)` from one shared cursor and stores the
/// result in slot `index`; a panic in `job` reaches the caller once
/// every worker is joined.
fn fan_out<I, T>(threads: usize, items: Vec<I>, job: impl Fn(usize, I) -> T + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.min(items.len());
    let cursor = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some((i, item)) = cursor.lock().expect("cursor lock").next() else { return };
                let out = job(i, item);
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every item ran"))
        .collect()
}

/// One attempt at a task: [`TaskError::Cancelled`] without calling `f`
/// when `token` has already fired, otherwise `f`'s value or its captured
/// panic as [`TaskError::Panicked`].
fn attempt<T>(token: &CancelToken, f: impl FnOnce() -> T) -> TaskResult<T> {
    if let Some(reason) = token.should_stop() {
        return Err(TaskError::Cancelled(reason));
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| TaskError::Panicked(panic_message(&*p)))
}

/// One live event from [`Executor::map_supervised_observed`].
#[derive(Debug)]
pub enum SupervisedEvent<'a, T> {
    /// An attempt failed; the record says whether it will be retried
    /// (`backoff` set) or is final.
    Attempt(&'a RetryRecord),
    /// The item's result is final (success, permanent failure, exhausted
    /// retries, or cancellation).
    Finished {
        /// Input index of the item.
        index: usize,
        /// How many attempts ran (1 = first try stood).
        attempts: u32,
        /// The final result about to be merged.
        result: &'a TaskResult<T>,
    },
}

/// One failed attempt observed by [`Executor::map_supervised_observed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryRecord {
    /// Input index of the item.
    pub index: usize,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// How the failure was classified.
    pub class: ErrorClass,
    /// The classifier's rendering of the failure.
    pub detail: String,
    /// The deterministic backoff slept before the next attempt (`None`
    /// when this failure was final: permanent, exhausted, or cancelled).
    pub backoff: Option<Duration>,
}

/// Sleeps `total` in small slices, polling `token`; returns early once
/// the token fires so a cancelled campaign never sits out a long backoff.
fn sleep_cooperative(token: &CancelToken, total: Duration) {
    let slice = Duration::from_millis(5);
    let mut left = total;
    while !left.is_zero() {
        if token.should_stop().is_some() {
            return;
        }
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
}

/// Best-effort extraction of a panic payload's message. Public so the
/// flow governor and sequential supervisors outside the executor report
/// captured panics with the executor's wording.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_governor::Deadline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&n| n.wrapping_mul(n) ^ 0xA5).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Executor::new(threads);
            let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let out = pool.map(&CancelToken::unlimited(), items.clone(), |i, n, _| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                n.wrapping_mul(n) ^ 0xA5
            });
            let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect, "threads={threads}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "threads={threads}");
        }
    }

    #[test]
    fn work_is_actually_parallel() {
        let pool = Executor::new(4);
        let started = Instant::now();
        let out = pool.map(&CancelToken::unlimited(), vec![(); 16], |_, (), _| {
            std::thread::sleep(Duration::from_millis(50));
        });
        assert!(out.iter().all(|r| r.is_ok()));
        let elapsed = started.elapsed();
        // Sequential would take 800ms; 4 workers take ~200ms.
        assert!(elapsed < Duration::from_millis(600), "no speedup observed: {elapsed:?}");
    }

    #[test]
    fn a_panicking_task_fails_alone() {
        let pool = Executor::new(4);
        let out = pool.map(&CancelToken::unlimited(), (0..32).collect(), |_, n: u32, _| {
            if n == 13 {
                panic!("unlucky {n}");
            }
            n
        });
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                match r {
                    Err(TaskError::Panicked(msg)) => assert!(msg.contains("unlucky 13"), "{msg}"),
                    other => panic!("expected panic capture, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u32));
            }
        }
    }

    #[test]
    fn pre_cancelled_token_drains_everything() {
        let pool = Executor::new(2);
        let token = CancelToken::unlimited();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let out = pool.map(&token, vec![(); 64], |_, (), _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled tasks must not run");
        assert!(out
            .iter()
            .all(|r| matches!(r, Err(TaskError::Cancelled(StopReason::Cancelled)))));
    }

    #[test]
    fn expired_deadline_reports_deadline_reason() {
        let pool = Executor::new(2);
        let token = CancelToken::with_deadline(Deadline::after(Duration::ZERO));
        let out = pool.map(&token, vec![(); 4], |_, (), _| ());
        assert!(out
            .iter()
            .all(|r| matches!(r, Err(TaskError::Cancelled(StopReason::DeadlineExpired)))));
    }

    #[test]
    fn mid_flight_cancel_drains_without_deadlock() {
        let pool = Executor::new(4);
        let token = CancelToken::unlimited();
        let watcher_token = token.clone();
        let watcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            watcher_token.cancel();
        });
        let started = Instant::now();
        // 64 tasks that each cooperatively spin until cancelled: without
        // the cancel drain this would never finish.
        let out = pool.map(&token, vec![(); 64], |_, (), tok| {
            while tok.should_stop().is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        watcher.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "drain exceeded bound");
        let completed = out.iter().filter(|r| r.is_ok()).count();
        let drained = out.len() - completed;
        assert!(drained > 0, "some queued tasks must have been drained");
    }

    #[test]
    fn supervised_map_retries_transient_failures_to_success() {
        let pool = Executor::new(4);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter_seed: 11,
        };
        // Item 5 fails (panics) on attempts 1 and 2, succeeds on 3.
        let (out, records) = pool.map_supervised_observed(
            &CancelToken::unlimited(),
            (0..8u32).collect(),
            &policy,
            |r: &TaskResult<u32>| match r {
                Err(TaskError::Panicked(m)) => Some((ErrorClass::Transient, m.clone())),
                _ => None,
            },
            |_| {},
            |_, &n, attempt, _| {
                if n == 5 && attempt < 3 {
                    panic!("flaky item {n} attempt {attempt}");
                }
                n * 10
            },
        );
        let got: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].index, records[0].attempt), (5, 1));
        assert_eq!((records[1].index, records[1].attempt), (5, 2));
        // The recorded backoff schedule is the policy's, deterministically.
        assert_eq!(records[0].backoff, Some(policy.backoff(1)));
        assert_eq!(records[1].backoff, Some(policy.backoff(2)));
    }

    #[test]
    fn supervised_map_never_retries_permanent_failures() {
        let pool = Executor::new(2);
        let attempts_seen = AtomicUsize::new(0);
        let (out, records) = pool.map_supervised_observed(
            &CancelToken::unlimited(),
            vec![()],
            &RetryPolicy::attempts(5),
            |_: &TaskResult<&str>| Some((ErrorClass::Permanent, "structural".into())),
            |_| {},
            |_, (), _, _| {
                attempts_seen.fetch_add(1, Ordering::Relaxed);
                "value"
            },
        );
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 1, "exactly one attempt");
        assert_eq!(out[0], Ok("value"), "the classified value is still returned");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].class, ErrorClass::Permanent);
        assert_eq!(records[0].backoff, None);
    }

    #[test]
    fn supervised_map_exhausts_attempts_and_reports_schedule() {
        let pool = Executor::new(3);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 3,
        };
        let (out, records) = pool.map_supervised_observed(
            &CancelToken::unlimited(),
            vec![0u8; 2],
            &policy,
            |r: &TaskResult<u8>| match r {
                Err(TaskError::Panicked(m)) => Some((ErrorClass::Transient, m.clone())),
                _ => None,
            },
            |_| {},
            |i, _, attempt, _| panic!("always failing {i} attempt {attempt}"),
        );
        for r in &out {
            assert!(matches!(r, Err(TaskError::Panicked(_))), "got {r:?}");
        }
        // Per item: attempts 1 and 2 retried, attempt 3 final.
        assert_eq!(records.len(), 6);
        for (i, chunk) in records.chunks(3).enumerate() {
            assert!(chunk.iter().all(|r| r.index == i));
            assert_eq!(chunk[0].backoff, Some(policy.backoff(1)));
            assert_eq!(chunk[1].backoff, Some(policy.backoff(2)));
            assert_eq!(chunk[2].backoff, None, "final failure records no backoff");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Executor::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool.map(&CancelToken::unlimited(), vec![1, 2, 3], |_, n, _| n * 2);
        assert_eq!(out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![2, 4, 6]);
    }
}
