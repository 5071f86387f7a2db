//! `engine::join` against the global thread budget: the overlap takes one
//! pool helper, and everything nested inside it sees the budget as spent.
//!
//! This is a dedicated one-test binary on purpose: it pins
//! `SPARKXD_THREADS` and reads the process-global dispatch count and
//! busy peak, which a sibling test running a `parallel_map` concurrently
//! would pollute (the same convention as the serve crate's
//! `worker_budget.rs`).

use sparkxd_snn::engine::{
    busy_peak, configured_threads, join, parallel_map, reset_busy_peak, worker_count,
};
use sparkxd_snn::WorkerPool;
use std::thread::ThreadId;

/// Runs a `parallel_map` sized like the engine's evaluators
/// ([`worker_count`]) and reports which threads ran its items.
fn nested_map_threads() -> Vec<ThreadId> {
    let items: Vec<usize> = (0..16).collect();
    parallel_map(&items, worker_count(items.len()), |_, _| {
        std::thread::current().id()
    })
}

#[test]
fn join_takes_one_helper_and_nested_levels_run_inline() {
    // Two configured workers, as on the 2-core reference host. Safe here:
    // this binary holds exactly one test.
    std::env::set_var("SPARKXD_THREADS", "2");
    assert_eq!(configured_threads(), 2);
    let pool = WorkerPool::global();
    reset_busy_peak();

    let caller = std::thread::current().id();
    let before = pool.dispatches();
    let (a_threads, (b_thread, b_nested)) = join(nested_map_threads, || {
        (std::thread::current().id(), nested_map_threads())
    });
    assert_eq!(
        pool.dispatches() - before,
        1,
        "the join is the only pooled dispatch; nested maps run inline"
    );
    assert!(
        a_threads.iter().all(|&t| t == caller),
        "`a` runs inline on the caller"
    );
    assert!(
        b_nested.iter().all(|&t| t == b_thread),
        "`b`'s nested map runs inline on the thread that runs `b`"
    );
    assert!(
        busy_peak() < configured_threads(),
        "busy peak {} exceeds the configured budget",
        busy_peak()
    );

    // Outside the join the full budget is back: the same map fans out.
    let before = pool.dispatches();
    nested_map_threads();
    assert_eq!(pool.dispatches() - before, 1);

    // One configured worker: no helper, both closures on the caller.
    std::env::set_var("SPARKXD_THREADS", "1");
    let before = pool.dispatches();
    let (_, b_thread) = join(|| (), || std::thread::current().id());
    assert_eq!(b_thread, caller);
    assert_eq!(
        pool.dispatches(),
        before,
        "serial fallback dispatches nothing"
    );
    std::env::remove_var("SPARKXD_THREADS");
}
