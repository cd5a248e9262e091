//! Functional (threaded) execution of the parallel layers.
//!
//! The executors run the shifted-solve pool with results identical to the
//! serial path.

use rayon::prelude::*;

/// Pluggable execution strategy for a batch of independent tasks — the seam
/// between the algorithmic layers (the `N_int x N_rh` shifted solves of the
/// Sakurai-Sugiura method, the right-hand-side fan-out, …) and how they are
/// actually scheduled.
///
/// The contract all implementations must obey: results come back **in input
/// order**, and `map` is invoked exactly once per task.  Nothing about
/// *when* or *where* each task runs is specified, which is what lets the
/// same engine code run serially, across threads, or (in later stages)
/// across nodes.
pub trait TaskExecutor: Sync {
    /// Apply `map` to every task, returning results in input order.
    fn execute<T, R, F>(&self, tasks: Vec<T>, map: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync;

    /// Apply `map` to every task and fold the results **in input order** on
    /// the calling thread.
    ///
    /// The default materializes the whole mapped batch first (a parallel
    /// executor cannot hand results over in order without buffering), but
    /// implementations that run in input order anyway — [`SerialExecutor`]
    /// — override it to stream with a single live result.  Memory-sensitive
    /// reductions (the Sakurai-Sugiura moment accumulation over
    /// `N_int x N_rh` solution vectors) go through this entry point so the
    /// serial path keeps its O(1)-results footprint.
    fn execute_fold<T, R, A, F, G>(&self, tasks: Vec<T>, map: F, init: A, fold: G) -> A
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.execute(tasks, map).into_iter().fold(init, fold)
    }
}

/// Runs tasks one after another on the calling thread, in input order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl TaskExecutor for SerialExecutor {
    fn execute<T, R, F>(&self, tasks: Vec<T>, map: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        cbs_trace::label_thread("serial");
        tasks.into_iter().map(map).collect()
    }

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

/// Runs tasks on the rayon thread pool.  Collection order equals input
/// order (indexed parallel collect), so any engine whose per-task work is
/// deterministic produces results bit-identical to [`SerialExecutor`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RayonExecutor;

impl TaskExecutor for RayonExecutor {
    fn execute<T, R, F>(&self, tasks: Vec<T>, map: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        // Register each worker in the trace thread registry before it runs
        // its first task; the vendored rayon shim joins its scoped workers
        // before the dispatch returns, so their buffers are flushed (and
        // the labels drained) by the time the caller reads the session.
        tasks
            .into_par_iter()
            .map(|t| {
                cbs_trace::label_thread("rayon");
                map(t)
            })
            .collect()
    }
}
