//! A dependency-free work-stealing executor for the RTLock workspace.
//!
//! The heavy RTLock workloads — locking the design catalog, sharding a
//! fuzzing campaign — are embarrassingly parallel at the task level but
//! must stay *deterministic*: parallel results are required to be
//! byte-identical to sequential ones. This crate provides the substrate
//! those consumers share:
//!
//! * scoped spawning onto per-worker deques with work stealing; worker
//!   threads are joined before each call returns, so tasks may borrow
//!   from the caller's stack and no thread ever leaks;
//! * per-task **panic capture** — a panicking task is caught with
//!   [`catch_unwind`] (the same isolation the flow governor uses at stage
//!   boundaries) and surfaces as a [`TaskError::Panicked`] value, never
//!   as a torn-down pool;
//! * **cancellation/deadline propagation** — every task receives a
//!   [`CancelToken`](rtlock_governor::CancelToken) derived from the
//!   caller's; a mid-flight cancel drains queued tasks as
//!   [`TaskError::Cancelled`] without running them, and the scope still
//!   joins every worker within a bounded wall-clock time as long as
//!   running tasks poll their token cooperatively;
//! * [`Executor::map`] — the deterministic fan-out primitive: results come
//!   back **indexed by input order**, independent of which worker ran what
//!   and in which interleaving. Consumers that merge `map` output in index
//!   order are scheduling-oblivious by construction;
//! * [`Executor::map_supervised_observed`] — `map` with per-item retry
//!   under a [`RetryPolicy`] and a live event observer.
//!
//! The crate is dependency-free (std only) and sits next to
//! `rtlock-governor` at the bottom of the workspace graph so every engine
//! crate can use it.
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
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a task produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task body panicked; the pool caught the unwind.
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

/// A panic captured from a raw [`Scope::spawn`] task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskPanic {
    /// The panic payload's message, best effort.
    pub message: String,
}

/// The most workers a command-line tool may request. Every fan-out
/// spawns one scoped thread per worker, and `std::thread::Scope::spawn`
/// panics when the operating system refuses a thread, so a larger count
/// from user input must be rejected before it reaches [`Executor::new`].
pub const MAX_THREADS: usize = 256;

/// A work-stealing thread pool configuration.
///
/// Workers are spawned as *scoped* threads per fan-out call (and joined
/// before it returns), which keeps the API safe for stack-borrowing tasks
/// and makes leaked workers impossible; the spawn cost is microseconds
/// against task granularities of milliseconds to minutes. Each worker owns a deque seeded round-robin and steals from
/// its siblings when empty.
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

    /// Runs `f` with a [`Scope`] whose spawned tasks execute on this
    /// executor's workers. Returns `f`'s value plus every panic captured
    /// from a spawned task (an empty vector on a clean run).
    ///
    /// All spawned tasks are executed (or drained by their own
    /// cooperative cancel checks) and all workers are joined before this
    /// returns — including when `f` itself unwinds.
    pub(crate) fn scope<'env, T>(
        &self,
        token: &CancelToken,
        f: impl FnOnce(&Scope<'_, 'env>) -> T,
    ) -> (T, Vec<TaskPanic>) {
        let shared = Shared::new(self.threads, token.clone());
        let out = std::thread::scope(|ts| {
            for worker in 0..self.threads {
                let sh = &shared;
                ts.spawn(move || worker_loop(sh, worker));
            }
            // The guard closes the pool even when `f` unwinds, so the
            // scoped workers always terminate and `thread::scope` can join
            // them instead of deadlocking.
            let guard = CloseGuard { shared: &shared };
            let out = f(&Scope { shared: &shared, _env: PhantomData });
            drop(guard);
            out
        });
        let panics = std::mem::take(&mut *shared.panics.lock().expect("panics lock"));
        (out, panics)
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
        let slots: Vec<Mutex<Option<TaskResult<T>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let fr = &f;
        let slots_ref = &slots;
        self.scope(token, |scope| {
            for (i, item) in items.into_iter().enumerate() {
                scope.spawn(move |tok| {
                    let out = if let Some(reason) = tok.should_stop() {
                        Err(TaskError::Cancelled(reason))
                    } else {
                        match catch_unwind(AssertUnwindSafe(|| fr(i, item, tok))) {
                            Ok(v) => Ok(v),
                            Err(payload) => Err(TaskError::Panicked(panic_message(&*payload))),
                        }
                    };
                    *slots_ref[i].lock().expect("slot lock") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock").expect("every task ran"))
            .collect()
    }
}

impl Executor {
    /// Supervised deterministic parallel map: like [`Executor::map`], but
    /// each item runs under a [`RetryPolicy`] — a task whose result
    /// `classify` calls [`ErrorClass::Transient`] is re-executed in place
    /// (on the same worker slot, after the policy's deterministic
    /// backoff) up to `policy.max_attempts` times. Permanent failures and
    /// successes are never retried, and a fired cancel token stops the
    /// retry loop at the next boundary.
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
    /// to observe nothing.
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
        let slots: Vec<Mutex<Option<TaskResult<T>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let records: Mutex<Vec<RetryRecord>> = Mutex::new(Vec::new());
        let max_attempts = policy.max_attempts.max(1);
        let (fr, cr, ob, slots_ref, records_ref, policy_ref) =
            (&f, &classify, &observe, &slots, &records, policy);
        self.scope(token, |scope| {
            for (i, item) in items.into_iter().enumerate() {
                scope.spawn(move |tok| {
                    let mut retry_no = 0u32;
                    let mut attempt = 1u32;
                    let (out, attempts) = loop {
                        let out = if let Some(reason) = tok.should_stop() {
                            Err(TaskError::Cancelled(reason))
                        } else {
                            match catch_unwind(AssertUnwindSafe(|| fr(i, &item, attempt, tok))) {
                                Ok(v) => Ok(v),
                                Err(p) => Err(TaskError::Panicked(panic_message(&*p))),
                            }
                        };
                        let Some((class, detail)) = cr(&out) else { break (out, attempt) };
                        let will_retry = class == ErrorClass::Transient
                            && attempt < max_attempts
                            && tok.should_stop().is_none();
                        let backoff = if will_retry {
                            retry_no += 1;
                            Some(policy_ref.backoff(retry_no))
                        } else {
                            None
                        };
                        let record =
                            RetryRecord { index: i, attempt, class, detail, backoff };
                        ob(SupervisedEvent::Attempt(&record));
                        records_ref.lock().expect("records lock").push(record);
                        match backoff {
                            Some(d) => sleep_cooperative(tok, d),
                            None => break (out, attempt),
                        }
                        attempt += 1;
                    };
                    ob(SupervisedEvent::Finished { index: i, attempts, result: &out });
                    *slots_ref[i].lock().expect("slot lock") = Some(out);
                });
            }
        });
        let results = slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock").expect("every task ran"))
            .collect();
        let mut records = records.into_inner().expect("records lock");
        records.sort_by_key(|r| (r.index, r.attempt));
        (results, records)
    }
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

impl Default for Executor {
    fn default() -> Self {
        Executor::machine_sized()
    }
}

/// Handle for spawning tasks inside an [`Executor::scope`] call.
pub(crate) struct Scope<'pool, 'env> {
    shared: &'pool Shared<'env>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns a task onto the pool. The task receives the scope's
    /// [`CancelToken`] and should poll it at its own loop boundaries; a
    /// panicking task is captured into the scope's [`TaskPanic`] list.
    pub(crate) fn spawn(&self, job: impl FnOnce(&CancelToken) + Send + 'env) {
        self.shared.spawn(Box::new(job));
    }
}

type Job<'env> = Box<dyn FnOnce(&CancelToken) + Send + 'env>;

/// State shared between the scope owner and its workers.
struct Shared<'env> {
    /// One deque per worker; [`Shared::spawn`] deals round-robin and idle
    /// workers steal from siblings.
    queues: Vec<Mutex<VecDeque<Job<'env>>>>,
    /// Tasks spawned but not yet finished (queued + running).
    pending: AtomicUsize,
    /// Set once the scope closure returned: no further spawns will come,
    /// so `pending == 0` means the pool is drained.
    closed: AtomicBool,
    /// Round-robin spawn cursor.
    cursor: AtomicUsize,
    /// Pairs with `cv` for idle parking and the final drain wait.
    sync: Mutex<()>,
    cv: Condvar,
    panics: Mutex<Vec<TaskPanic>>,
    token: CancelToken,
}

impl<'env> Shared<'env> {
    fn new(threads: usize, token: CancelToken) -> Shared<'env> {
        Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
            sync: Mutex::new(()),
            cv: Condvar::new(),
            panics: Mutex::new(Vec::new()),
            token,
        }
    }

    fn spawn(&self, job: Job<'env>) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let qi = self.cursor.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[qi].lock().expect("queue lock").push_back(job);
        let _g = self.sync.lock().expect("sync lock");
        self.cv.notify_all();
    }

    /// Pops from the worker's own deque (FIFO) or steals from a sibling
    /// (LIFO end, classic stealing order).
    fn grab(&self, me: usize) -> Option<Job<'env>> {
        if let Some(job) = self.queues[me].lock().expect("queue lock").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(job) = self.queues[victim].lock().expect("queue lock").pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn run(&self, job: Job<'env>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(&self.token))) {
            self.panics
                .lock()
                .expect("panics lock")
                .push(TaskPanic { message: panic_message(&*payload) });
        }
        // Decrement under the sync lock so the close-waiter cannot miss
        // the final notify between its predicate check and its wait.
        let _g = self.sync.lock().expect("sync lock");
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.cv.notify_all();
        }
    }

    fn drained(&self) -> bool {
        self.closed.load(Ordering::Acquire) && self.pending.load(Ordering::Acquire) == 0
    }

    fn close_and_wait(&self) {
        self.closed.store(true, Ordering::Release);
        let mut g = self.sync.lock().expect("sync lock");
        self.cv.notify_all();
        while self.pending.load(Ordering::Acquire) != 0 {
            // The timeout is belt-and-braces against a lost wakeup; the
            // common path is one notify when the last task finishes.
            let (guard, _) =
                self.cv.wait_timeout(g, Duration::from_millis(1)).expect("sync lock");
            g = guard;
        }
    }
}

/// Closes the pool when dropped — including during an unwind of the scope
/// closure — so scoped workers always terminate.
struct CloseGuard<'pool, 'env> {
    shared: &'pool Shared<'env>,
}

impl Drop for CloseGuard<'_, '_> {
    fn drop(&mut self) {
        self.shared.close_and_wait();
    }
}

fn worker_loop(shared: &Shared<'_>, me: usize) {
    loop {
        match shared.grab(me) {
            Some(job) => shared.run(job),
            None => {
                if shared.drained() {
                    return;
                }
                let g = shared.sync.lock().expect("sync lock");
                if shared.drained() {
                    return;
                }
                // Park briefly; spawn/finish notifications wake us early.
                drop(shared.cv.wait_timeout(g, Duration::from_millis(1)).expect("sync lock"));
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message. Public so the
/// flow governor and sequential supervisors outside the pool report
/// captured panics with the pool's wording.
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
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    #[test]
    fn map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&n| n.wrapping_mul(n) ^ 0xA5).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Executor::new(threads);
            let out =
                pool.map(&CancelToken::unlimited(), items.clone(), |_, n, _| n.wrapping_mul(n) ^ 0xA5);
            let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect, "threads={threads}");
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
    fn scope_spawn_runs_every_task_and_collects_panics() {
        let pool = Executor::new(3);
        let sum = AtomicU64::new(0);
        let ((), panics) = pool.scope(&CancelToken::unlimited(), |scope| {
            for i in 1..=100u64 {
                let sum = &sum;
                scope.spawn(move |_| {
                    if i == 50 {
                        panic!("task {i} exploded");
                    }
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050 - 50);
        assert_eq!(panics.len(), 1);
        assert!(panics[0].message.contains("task 50 exploded"));
    }

    #[test]
    fn scope_closure_panic_still_joins_workers() {
        let pool = Executor::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(&CancelToken::unlimited(), |scope| {
                let ran = &ran;
                scope.spawn(move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                panic!("scope body bug");
            })
        }));
        assert!(result.is_err(), "the scope closure's panic propagates");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "spawned work still completed");
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
