//! Functional (threaded) execution of the parallel layers.
//!
//! The executors run the shifted-solve pool with results identical to the
//! serial path.
//!
//! The threaded one, [`RayonExecutor`], is a scoped pool that streams
//! (`stream_fold`): the calling thread and `threads − 1` scoped workers
//! take the tasks in input order, worker `k` starting with task `k`, and
//! the calling thread folds each result as soon as every earlier one has
//! been folded.  A result that finishes ahead of an earlier one waits in a
//! small ordered buffer, and no thread starts task `i` until result
//! `i − 2·threads` has been folded, so at most `2·threads` tasks are
//! running, buffered or being folded at once, however many the batch has.

use std::collections::BTreeMap;
use std::iter::Peekable;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Pluggable execution strategy for a batch of independent tasks — the seam
/// between the algorithmic layers (the `N_int x N_rh` shifted solves of the
/// Sakurai-Sugiura method, the right-hand-side fan-out, …) and how they are
/// actually scheduled.
///
/// The contract all implementations must obey: results are folded **in
/// input order** on the calling thread, and `map` is invoked exactly once
/// per task.  Nothing about *when* or *where* each task runs is specified,
/// which is what lets the same engine code run serially, across threads,
/// or (in later stages) across nodes.
pub trait TaskExecutor: Sync {
    /// Apply `map` to every task and fold the results **in input order** on
    /// the calling thread.
    ///
    /// Both executors stream: [`SerialExecutor`] holds one mapped result at
    /// a time, [`RayonExecutor`] at most two per thread.  Memory-sensitive
    /// reductions (the Sakurai-Sugiura moment accumulation over
    /// `N_int x N_rh` solution vectors) go through this entry point, so no
    /// executor holds every node's solutions at once.
    fn execute_fold<T, R, A, F, G>(&self, tasks: Vec<T>, map: F, init: A, fold: G) -> A
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        G: FnMut(A, R) -> A;

    /// Apply `map` to every task, returning results in input order: the
    /// fold into a `Vec`.
    fn execute<T, R, F>(&self, tasks: Vec<T>, map: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let out = Vec::with_capacity(tasks.len());
        self.execute_fold(tasks, map, out, |mut out, r| {
            out.push(r);
            out
        })
    }
}

/// Runs tasks one after another on the calling thread, in input order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl TaskExecutor for SerialExecutor {
    fn execute_fold<T, R, A, F, G>(&self, tasks: Vec<T>, map: F, init: A, mut fold: G) -> A
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        cbs_trace::label_thread("serial");
        // Streaming: one mapped result alive at a time.
        tasks.into_iter().fold(init, |acc, t| fold(acc, map(t)))
    }
}

/// Runs tasks on a scoped pool of `min(available_parallelism, tasks)`
/// threads, the calling thread one of them, and folds each result on the
/// calling thread as soon as every earlier one has been (module docs).  The
/// fold order is the input order, so any engine whose per-task work is
/// deterministic produces results bit-identical to [`SerialExecutor`].
///
/// Each worker labels itself `"rayon"` in the trace thread registry before
/// its first task and runs at least that task; the calling thread keeps its
/// own label.
#[derive(Clone, Copy, Debug, Default)]
pub struct RayonExecutor;

impl TaskExecutor for RayonExecutor {
    fn execute_fold<T, R, A, F, G>(&self, tasks: Vec<T>, map: F, init: A, fold: G) -> A
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        let hw = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        stream_fold(hw, tasks, map, init, fold)
    }
}

/// What a thread of the pool does next.
enum Next<T> {
    Run(usize, T),
    /// The next task is too far ahead of the fold: wait for it.
    Wait,
    /// No task is left to take, or one panicked.
    Stop,
}

/// The pool's state, under its one lock.
struct State<T, R> {
    /// The tasks no thread has taken yet, in input order, with their indices.
    queue: Peekable<std::vec::IntoIter<(usize, T)>>,
    /// Finished results the fold has not taken, by task index.
    done: BTreeMap<usize, R>,
    /// The results folded so far, hence the index of the next to fold.
    folded: usize,
    /// A task panicked: take no more.
    panicked: bool,
}

impl<T, R> State<T, R> {
    /// Take the next task unless it lies `window` or more past the fold.
    fn next(&mut self, window: usize) -> Next<T> {
        match self.queue.peek() {
            _ if self.panicked => Next::Stop,
            None => Next::Stop,
            Some(&(i, _)) if i >= self.folded + window => Next::Wait,
            Some(_) => {
                let (i, t) = self.queue.next().expect("a peeked task is there");
                Next::Run(i, t)
            }
        }
    }
}

struct Pool<T, R> {
    state: Mutex<State<T, R>>,
    /// Signalled when a result lands, the fold advances or a task panics.
    changed: Condvar,
    window: usize,
}

impl<T, R> Pool<T, R> {
    fn lock(&self) -> MutexGuard<'_, State<T, R>> {
        self.state.lock().expect("no task or fold runs under the pool's lock")
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<T, R>>) -> MutexGuard<'a, State<T, R>> {
        self.changed.wait(state).expect("no task or fold runs under the pool's lock")
    }

    /// Block until there is a task to run within the window, or none left.
    fn take(&self, mut state: MutexGuard<'_, State<T, R>>) -> Option<(usize, T)> {
        loop {
            match state.next(self.window) {
                Next::Run(i, t) => return Some((i, t)),
                Next::Wait => state = self.wait(state),
                Next::Stop => return None,
            }
        }
    }
}

/// Marks the pool panicked when the thread holding it unwinds, so that no
/// thread waits for a result that will never land.
struct PanicGuard<'a, T, R>(&'a Pool<T, R>);

impl<T, R> Drop for PanicGuard<'_, T, R> {
    fn drop(&mut self) {
        if thread::panicking() {
            // Setting a flag leaves the state valid whatever a poisoning
            // panic interrupted.
            self.0.state.lock().unwrap_or_else(PoisonError::into_inner).panicked = true;
            self.0.changed.notify_all();
        }
    }
}

/// One worker: its seed task, then tasks from the queue until none is left.
fn work<T, R, F: Fn(T) -> R>(pool: &Pool<T, R>, seed: (usize, T), map: &F) {
    let _guard = PanicGuard(pool);
    cbs_trace::label_thread("rayon");
    let mut task = Some(seed);
    while let Some((i, t)) = task {
        let r = map(t);
        let mut state = pool.lock();
        state.done.insert(i, r);
        pool.changed.notify_all();
        task = pool.take(state);
    }
}

/// [`RayonExecutor`]'s pool on `threads` threads (module docs): clamped to
/// `1 ..= tasks.len()`, the calling thread one of them.  A task's panic is
/// resumed on the calling thread once every worker has been joined.
pub(crate) fn stream_fold<T, R, A, F, G>(
    threads: usize,
    tasks: Vec<T>,
    map: F,
    init: A,
    mut fold: G,
) -> A
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    let (n, threads) = (tasks.len(), threads.min(tasks.len()));
    if threads <= 1 {
        return tasks.into_iter().fold(init, |acc, t| fold(acc, map(t)));
    }
    // Worker `k` starts with task `k`, the calling thread with task 0;
    // the rest queue up.
    let mut queue: Vec<(usize, T)> = tasks.into_iter().enumerate().collect();
    let mut seeds = queue.drain(..threads).collect::<Vec<_>>().into_iter();
    let (_, first) = seeds.next().expect("two or more threads have two or more seeds");
    let pool = Pool {
        state: Mutex::new(State {
            queue: queue.into_iter().peekable(),
            done: BTreeMap::new(),
            folded: 0,
            panicked: false,
        }),
        changed: Condvar::new(),
        window: 2 * threads,
    };
    let (pool, map) = (&pool, &map);
    thread::scope(|scope| {
        let workers: Vec<_> =
            seeds.map(|seed| scope.spawn(move || work(pool, seed, map))).collect();

        let guard = PanicGuard(pool);
        let r = map(first);
        let (mut acc, mut folded) = (init, 0);
        let mut state = pool.lock();
        state.done.insert(0, r);
        loop {
            if let Some(r) = state.done.remove(&folded) {
                drop(state);
                acc = fold(acc, r);
                folded += 1;
                state = pool.lock();
                state.folded = folded;
                pool.changed.notify_all();
            } else if folded == n || state.panicked {
                break;
            } else if let Next::Run(i, t) = state.next(pool.window) {
                drop(state);
                let r = map(t);
                state = pool.lock();
                state.done.insert(i, r);
            } else {
                // Result `folded` is running on a worker.
                state = pool.wait(state);
            }
        }
        drop((state, guard));

        // Joined one by one, not by the scope: a worker's thread-local
        // destructors (its trace buffer's flush) have run once its join
        // returns.
        let mut panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// A shared turn counter: `wait_for(k)` blocks until `k` turns have
    /// passed, `pass()` ends one.  Forces an order of events across threads
    /// without sleeping.
    #[derive(Default)]
    struct Turns {
        count: Mutex<usize>,
        changed: Condvar,
    }

    impl Turns {
        fn wait_for(&self, k: usize) {
            let mut count = self.count.lock().expect("no turn panics");
            while *count < k {
                count = self.changed.wait(count).expect("no turn panics");
            }
        }

        fn pass(&self) {
            *self.count.lock().expect("no turn panics") += 1;
            self.changed.notify_all();
        }
    }

    /// Fold `(task, result)` pairs into a list.
    fn collect<R>(mut out: Vec<R>, r: R) -> Vec<R> {
        out.push(r);
        out
    }

    #[test]
    fn the_fold_runs_in_input_order_when_tasks_finish_out_of_order() {
        // The three seeds run on three threads; task 2 finishes first, then
        // task 1, then task 0 on the calling thread.  The rest queue up.
        let (turns, finished) = (Turns::default(), Mutex::new(Vec::new()));
        let folded = stream_fold(
            3,
            (0..9).collect(),
            |i: usize| {
                if i < 3 {
                    turns.wait_for(2 - i);
                }
                finished.lock().expect("no task panics").push(i);
                if i < 3 {
                    turns.pass();
                }
                i
            },
            Vec::new(),
            collect,
        );
        assert_eq!(folded, (0..9).collect::<Vec<_>>());
        let finished = finished.into_inner().expect("no task panics");
        assert_eq!(finished.into_iter().filter(|&i| i < 3).collect::<Vec<_>>(), [2, 1, 0]);
    }

    #[test]
    fn no_task_starts_two_results_per_thread_past_the_fold() {
        // Task 0, on the calling thread, returns only once tasks 1–5 have
        // finished; until it is folded, task 6 = 0 + 2·3 may not start.
        let (turns, folded) = (Turns::default(), AtomicUsize::new(0));
        let out = stream_fold(
            3,
            (0..30).collect(),
            |i: usize| {
                assert!(i < folded.load(Ordering::SeqCst) + 6, "task {i} ran ahead of the fold");
                match i {
                    0 => turns.wait_for(5),
                    1..=5 => turns.pass(),
                    _ => {}
                }
                i
            },
            Vec::new(),
            |out, i| {
                folded.fetch_add(1, Ordering::SeqCst);
                collect(out, i)
            },
        );
        assert_eq!(out, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn map_runs_exactly_once_per_task() {
        let runs: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let out = stream_fold(
            3,
            (0..50).collect(),
            |i: usize| runs[i].fetch_add(1, Ordering::SeqCst),
            Vec::new(),
            collect,
        );
        assert_eq!(out, vec![0; 50], "no task ran before its map");
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn the_fold_runs_on_the_calling_thread_and_the_seeds_on_three() {
        let caller = thread::current().id();
        let mut folded_on = Vec::new();
        let ran_on: Vec<ThreadId> = stream_fold(
            3,
            (0..12).collect(),
            |_: usize| thread::current().id(),
            Vec::new(),
            |out, id| {
                folded_on.push(thread::current().id());
                collect(out, id)
            },
        );
        assert!(folded_on.iter().all(|&id| id == caller));
        assert_eq!(folded_on.len(), 12);
        // Task 0 runs on the caller, worker `k` starts with task `k`.
        assert_eq!(ran_on[0], caller);
        assert!(ran_on[1] != caller && ran_on[2] != caller && ran_on[1] != ran_on[2]);
    }

    #[test]
    fn no_one_and_fewer_tasks_than_threads() {
        let caller = thread::current().id();
        let none = stream_fold(3, Vec::<usize>::new(), |i| i, Vec::new(), collect);
        assert!(none.is_empty());
        // One task runs on the calling thread; two run on two threads.
        let one = stream_fold(3, vec![7], |i: usize| (i, thread::current().id()), vec![], collect);
        assert_eq!(one, vec![(7, caller)]);
        let two =
            stream_fold(3, vec![4, 5], |i: usize| (i, thread::current().id()), vec![], collect);
        assert_eq!((two[0], two[1].0), ((4, caller), 5));
        assert_ne!(two[1].1, caller);
    }

    /// Sets its flag when dropped: installed in a worker's thread-local
    /// storage, it marks that worker's thread-local destructors as run.
    struct OnExit(Arc<AtomicBool>);

    impl Drop for OnExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_FLAG: RefCell<Option<OnExit>> = const { RefCell::new(None) };
    }

    #[test]
    fn a_task_panic_is_resumed_after_every_worker_is_joined() {
        // Task 1 panics on worker 1; task 2, on worker 2, finishes only
        // after that panic has begun.  The call must panic with task 1's
        // payload, and only after worker 2's thread-local destructors ran.
        let (turns, exited) = (Turns::default(), Arc::new(AtomicBool::new(false)));
        let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_fold(
                3,
                (0..6).collect(),
                |i: usize| match i {
                    1 => {
                        turns.pass();
                        panic!("task 1 fails");
                    }
                    2 => {
                        turns.wait_for(1);
                        let flag = OnExit(Arc::clone(&exited));
                        EXIT_FLAG.with(|f| *f.borrow_mut() = Some(flag));
                        i
                    }
                    _ => i,
                },
                Vec::new(),
                collect,
            )
        }));
        let payload = call.expect_err("a task panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 1 fails"));
        assert!(exited.load(Ordering::SeqCst), "worker 2 was not joined before the panic");
    }

    #[test]
    fn a_panic_on_the_calling_thread_releases_the_workers() {
        let call = std::panic::catch_unwind(|| {
            stream_fold(
                3,
                (0..40).collect(),
                |i: usize| assert!(i != 0, "task 0 fails"),
                (),
                |(), ()| (),
            );
        });
        assert!(call.is_err());
    }
}
