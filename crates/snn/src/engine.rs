//! Parallel batch-execution engine.
//!
//! Every sample presentation at inference is independent: the thresholds
//! are frozen and membrane state is reset per sample (see
//! [`NetworkParams::run_sample`], the reference path). The engine exploits
//! that three times over:
//!
//! * a dataset is sharded across workers of the persistent
//!   [`WorkerPool`] (long-lived, condvar-parked threads — no per-call
//!   spawn tax), each shard owning one reusable scratch,
//! * within a worker, samples are presented in chunks of B through
//!   [`NetworkParams::run_batch`], which streams each effective-weight row
//!   once per chunk instead of once per sample — the one inference path,
//!   for every B including 1, and
//! * within a chunk, the per-timestep tile sweep can be split into
//!   range-jobs across the pool (`SPARKXD_INTRA` /
//!   [`BatchEvaluator::with_intra`]), each owning disjoint neuron lanes,
//!   with a barrier before the global-per-sample firing/inhibition pass.
//!
//! The spike-train RNG for sample `i` is derived from `(seed, i)`, so the
//! result is bit-identical to `run_sample` for **any** worker count,
//! batch size, tile width, job count and kernel.
//!
//! Beyond data parallelism, [`join`] runs two independent closures at
//! once — the caller takes one, a pool helper the other. Fault-aware
//! training uses it to evaluate one BER step while the next step trains.
//!
//! Worker counts come from `std::thread::available_parallelism()`, with
//! the `SPARKXD_THREADS` environment variable as an override (`1` forces
//! serial execution; higher values pin the exact thread count). The batch
//! size defaults to [`DEFAULT_BATCH`], with `SPARKXD_BATCH` as an
//! override, and the neuron-tile width defaults to [`DEFAULT_TILE`], with
//! `SPARKXD_TILE` as an override (any value ≥ `n_neurons` is one tile).
//! The intra-chunk sweep mode defaults to [`IntraChoice::Auto`], with
//! `SPARKXD_INTRA` as an override (`off` keeps one job, `<k>` pins `k`
//! jobs); every level draws from the one global thread budget (see
//! [`WorkerReservation`]), so nesting never oversubscribes the machine to
//! workers². Every knob is read through
//! [`sparkxd_telemetry::env_knob`], which warns once on an unparsable
//! value and falls back to the default.
//!
//! # Kernel dispatch
//!
//! The hot inner loops (drive accumulation, LIF lane integration, the
//! inhibition sweep) run through the runtime-dispatched kernels of
//! [`crate::kernels`]:
//!
//! | `SPARKXD_KERNEL` | meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `auto` (default) | widest kernel the host supports (AVX2 if detected) |
//! | `scalar`         | portable unrolled-scalar kernel                    |
//! | `avx2`           | x86_64 AVX2 kernel; warns + falls back off-AVX2    |
//!
//! [`BatchEvaluator::with_kernel`] pins the choice programmatically.
//! The kernel never changes results, only wall time: the AVX2 lanes
//! compute the exact scalar IEEE operation sequence (lanewise ops in
//! unchanged per-element order, no FMA, no reassociated reductions), so
//! every `{kernel × batch × thread × tile}` combination is bit-identical
//! — see the [`crate::kernels`] module docs for the full argument and
//! the `tests/*_invariance.rs` suites for the proof battery.

use crate::eval::NeuronLabeler;
use crate::kernels::{Kernel, KernelChoice};
use crate::network::{BatchState, NetworkParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkxd_data::Dataset;
use sparkxd_telemetry::env_knob;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the engine's worker count.
pub const THREADS_ENV: &str = "SPARKXD_THREADS";

/// Environment variable overriding the engine's per-worker batch size.
pub const BATCH_ENV: &str = "SPARKXD_BATCH";

/// Environment variable overriding the batched drive matrix's neuron-tile
/// width (see [`DEFAULT_TILE`]).
pub const TILE_ENV: &str = "SPARKXD_TILE";

/// Environment variable selecting the hot-loop kernel
/// (`auto` | `scalar` | `avx2`; see [`kernel_choice`]).
pub const KERNEL_ENV: &str = "SPARKXD_KERNEL";

/// Environment variable selecting the intra-chunk tile-parallel mode of
/// the batched drive sweep (`auto` | `off` | `<k>`; see [`intra_choice`]).
pub const INTRA_ENV: &str = "SPARKXD_INTRA";

/// Samples presented together per [`NetworkParams::run_batch`] call when
/// neither [`BatchEvaluator::with_batch`] nor `SPARKXD_BATCH` says
/// otherwise. Large enough to amortise weight-row streaming and the
/// per-presentation spike-plan build — measured fastest in the 2–8 band
/// at N400, degrading beyond it.
///
/// The batch size no longer has to keep the whole `[B × n_neurons]`
/// drive slab cache-resident: beyond ~N1600 that slab outgrows L1 at any
/// useful B, so [`NetworkParams::run_batch`] sweeps it in neuron tiles of
/// [`DEFAULT_TILE`] lanes (`SPARKXD_TILE` overrides; see
/// [`tile_width`]) and only the `[B × tile]` working set must stay hot.
pub const DEFAULT_BATCH: usize = 4;

/// Neuron-tile width of the batched drive matrix when neither
/// [`BatchState::with_tile`](crate::network::BatchState::with_tile) nor
/// `SPARKXD_TILE` says otherwise.
///
/// Drive accumulation touches the `[B × tile]` drive tile once per
/// distinct active row, so the tile — not the full `[B × n_neurons]`
/// slab — is the read path's resident working set. At the default
/// `B = 4`, a 512-lane tile is 8 KiB of drive plus a 2 KiB row slice:
/// comfortably L1 even with the membrane slabs of the lane being
/// integrated. Networks with `n_neurons ≤ tile` (the paper's N400 at
/// this default) run as a single tile, which is exactly the untiled
/// path; the tile width never changes results, only wall time.
pub const DEFAULT_TILE: usize = 512;

/// Workers the engine currently has busy on *outer* parallel levels, so a
/// nested fan-out (a device sweep whose pipelines evaluate in parallel, a
/// report section training networks) sizes itself to the leftover budget
/// instead of oversubscribing the machine by workers².
static BUSY_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`BUSY_WORKERS`] — a diagnostic for the
/// budget-accounting tests (a serve pool plus nested intra-parallel
/// sweeps must never oversubscribe to workers²; see
/// `crates/serve/tests/worker_budget.rs`).
static BUSY_PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_busy_peak() {
    let busy = BUSY_WORKERS.load(Ordering::Relaxed);
    BUSY_PEAK.fetch_max(busy, Ordering::Relaxed);
    // Mirror the high-water mark into a telemetry gauge so pool
    // occupancy is visible outside the process (snapshot JSON, job
    // summaries), not only through `busy_peak()`.
    sparkxd_telemetry::gauge_max!("pool.busy_peak", busy);
}

/// Extra workers the engine currently has registered busy across every
/// level (serve pools, `parallel_map` calls, intra-parallel sweeps). The
/// calling thread is never counted, so total live compute threads are at
/// most `busy_workers() + 1`.
pub fn busy_workers() -> usize {
    BUSY_WORKERS.load(Ordering::Relaxed)
}

/// High-water mark of [`busy_workers`] since process start (or the last
/// [`reset_busy_peak`]). Diagnostic for worker-budget accounting tests.
pub fn busy_peak() -> usize {
    BUSY_PEAK.load(Ordering::Relaxed)
}

/// Resets the [`busy_peak`] high-water mark (test diagnostic; racy
/// against concurrent reservations, so use from a quiesced process).
pub fn reset_busy_peak() {
    BUSY_PEAK.store(BUSY_WORKERS.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// RAII registration of `extra` busy workers against the engine's global
/// thread budget; released on drop. [`parallel_map`] takes one per call —
/// reach for it directly only when hand-rolling a worker pool (see
/// `sparkxd-bench`'s streaming report runner).
#[derive(Debug)]
pub struct WorkerReservation {
    extra: usize,
}

impl WorkerReservation {
    /// Registers `threads - 1` busy workers (the calling thread is not
    /// *extra* — it was already accounted for by any outer level).
    pub fn for_pool(threads: usize) -> Self {
        let extra = threads.saturating_sub(1);
        BUSY_WORKERS.fetch_add(extra, Ordering::Relaxed);
        note_busy_peak();
        Self { extra }
    }

    /// Atomically claims up to `max_extra` additional workers from the
    /// *leftover* budget of `configured` total workers, returning how many
    /// were granted alongside the reservation (0 when the budget is
    /// exhausted — the caller then runs serial).
    ///
    /// Unlike [`for_pool`](Self::for_pool) (an unconditional pin), the
    /// claim is bounded by what is actually free: the compare-exchange
    /// loop guarantees the *sum* of concurrent claims never pushes the
    /// registered extras past `configured - 1`, so a serve pool whose
    /// workers all start intra-parallel sweeps at once cannot
    /// oversubscribe the machine to workers².
    pub fn claim_leftover(configured: usize, max_extra: usize) -> (usize, Self) {
        let cap = configured.saturating_sub(1);
        loop {
            let busy = BUSY_WORKERS.load(Ordering::Relaxed);
            let granted = cap.saturating_sub(busy).min(max_extra);
            if granted == 0 {
                return (0, Self { extra: 0 });
            }
            if BUSY_WORKERS
                .compare_exchange(busy, busy + granted, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                note_busy_peak();
                return (granted, Self { extra: granted });
            }
        }
    }
}

impl Drop for WorkerReservation {
    fn drop(&mut self) {
        BUSY_WORKERS.fetch_sub(self.extra, Ordering::Relaxed);
    }
}

/// Reads a count knob (`SPARKXD_THREADS`, `SPARKXD_BATCH`,
/// `SPARKXD_TILE`, …) through [`env_knob`]: a non-negative integer, with
/// `0` clamped to `1` (every count knob means "serial", never "off").
pub fn env_usize_override(var: &str) -> Option<usize> {
    env_knob::<Count>(var).map(|Count(n)| n)
}

/// A count knob's value (see [`env_usize_override`]).
struct Count(usize);

impl FromStr for Count {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        raw.parse::<usize>()
            .map(|n| Count(n.max(1)))
            .map_err(|_| "expected a non-negative integer")
    }
}

/// The requested hot-loop kernel: the `SPARKXD_KERNEL` override if set
/// and parsable (read through [`env_knob`]), else [`KernelChoice::Auto`].
pub fn kernel_choice() -> KernelChoice {
    env_knob(KERNEL_ENV).unwrap_or_default()
}

/// The resolved hot-loop kernel for this host: [`kernel_choice`] passed
/// through [`KernelChoice::resolve`] (runtime feature detection). The
/// kernel only ever changes wall time, never results.
pub fn kernel() -> Kernel {
    kernel_choice().resolve()
}

/// The requested intra-chunk tile-parallel mode of
/// [`NetworkParams::run_batch`]'s drive sweep.
///
/// Like every other engine knob, the mode only ever changes wall time,
/// never results: range-jobs write disjoint neuron lanes of the
/// `[B × n]` slabs on identical tile boundaries and the per-sample
/// firing/inhibition pass runs after a barrier, so any split is
/// bit-identical to one job by construction (see
/// `tests/intra_invariance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraChoice {
    /// Size the sweep to the leftover global thread budget via
    /// [`WorkerReservation::claim_leftover`] — serial when outer levels
    /// (a `parallel_map` shard, a serve pool) already keep the machine
    /// busy. The default.
    #[default]
    Auto,
    /// Always one sweep job, on the caller.
    Off,
    /// Pin exactly `k` sweep workers, ignoring the leftover budget (an
    /// explicit oversubscription request, like `SPARKXD_THREADS` pinning
    /// more threads than cores). Still clamped to the tile count and
    /// still registered against the global budget.
    Workers(usize),
}

/// Parses a `SPARKXD_INTRA` value: `auto`, `off` (both
/// case-insensitive) or a worker count (`0` clamps to 1, i.e. one job).
impl FromStr for IntraChoice {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        if raw.eq_ignore_ascii_case("auto") {
            return Ok(IntraChoice::Auto);
        }
        if raw.eq_ignore_ascii_case("off") {
            return Ok(IntraChoice::Off);
        }
        raw.parse::<usize>()
            .map(|k| IntraChoice::Workers(k.max(1)))
            .map_err(|_| "expected auto|off|<worker count>")
    }
}

/// The requested intra-chunk tile-parallel mode: the `SPARKXD_INTRA`
/// override if set and parsable (read through [`env_knob`]), else
/// [`IntraChoice::Auto`].
pub fn intra_choice() -> IntraChoice {
    env_knob(INTRA_ENV).unwrap_or_default()
}

/// Resolves an [`IntraChoice`] for a sweep of `n_tiles` tiles into the
/// worker count to use, together with the budget reservation those
/// workers hold for the duration of the sweep.
///
/// Fewer than two tiles, [`IntraChoice::Off`], or an exhausted budget
/// under [`IntraChoice::Auto`] all fall back to `(1, None)` — the serial
/// sweep. The count is always clamped to `n_tiles` (contiguous tile
/// ranges per worker; an idle worker would be pure dispatch overhead).
pub fn intra_workers_for(
    choice: IntraChoice,
    n_tiles: usize,
) -> (usize, Option<WorkerReservation>) {
    if n_tiles < 2 {
        return (1, None);
    }
    match choice {
        IntraChoice::Off => (1, None),
        IntraChoice::Workers(k) => {
            let workers = k.max(1).min(n_tiles);
            if workers <= 1 {
                (1, None)
            } else {
                (workers, Some(WorkerReservation::for_pool(workers)))
            }
        }
        IntraChoice::Auto => {
            let (extra, reservation) =
                WorkerReservation::claim_leftover(configured_threads(), n_tiles - 1);
            if extra == 0 {
                (1, None)
            } else {
                (extra + 1, Some(reservation))
            }
        }
    }
}

/// Number of workers to use for `jobs` independent work items: the
/// `SPARKXD_THREADS` override if set (via [`env_usize_override`]), else
/// the machine's available parallelism — minus the workers outer parallel
/// levels already keep busy, and never more than `jobs`.
///
/// The worker count only ever changes wall time, not results: every
/// engine aggregate is bit-identical for any count by construction.
pub fn worker_count(jobs: usize) -> usize {
    configured_threads()
        .saturating_sub(BUSY_WORKERS.load(Ordering::Relaxed))
        .max(1)
        .min(jobs.max(1))
}

/// The engine's configured total worker budget: the `SPARKXD_THREADS`
/// override if set, else the machine's available parallelism. This is the
/// cap every budget claim ([`WorkerReservation::claim_leftover`]) and
/// leftover computation ([`worker_count`]) measures against.
pub fn configured_threads() -> usize {
    env_usize_override(THREADS_ENV).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The engine's batch size: the `SPARKXD_BATCH` override if set (via
/// [`env_usize_override`]), else [`DEFAULT_BATCH`]. Like the worker
/// count, the batch size only ever changes wall time.
pub fn batch_size() -> usize {
    env_usize_override(BATCH_ENV).unwrap_or(DEFAULT_BATCH)
}

/// The drive matrix's neuron-tile width: the `SPARKXD_TILE` override if
/// set (via [`env_usize_override`]), else [`DEFAULT_TILE`].
/// [`NetworkParams::run_batch`] clamps the width into `[1, n_neurons]`,
/// so any large value (e.g. `usize::MAX`) selects the untiled path. Like
/// the batch size, the tile width only ever changes wall time.
pub fn tile_width() -> usize {
    env_usize_override(TILE_ENV).unwrap_or(DEFAULT_TILE)
}

/// The spike-train RNG of logical sample `sample_index` under `seed`.
///
/// Deriving per-sample streams (instead of threading one RNG through the
/// dataset) is what makes batch results independent of evaluation order,
/// batch size and worker count.
pub fn sample_rng(seed: u64, sample_index: u64) -> StdRng {
    StdRng::seed_from_u64_stream(seed, sample_index)
}

/// Backstop on threads a [`WorkerPool`] will ever spawn — far above any
/// sane `SPARKXD_THREADS` pin; explicit oversubscription requests beyond
/// it degrade gracefully (the caller still completes every job itself).
const MAX_POOL_THREADS: usize = 256;

/// A lifetime-erased pointer to one dispatch's job closure. The erasure
/// is what lets long-lived pool threads run closures that borrow the
/// caller's stack: [`WorkerPool::run`] guarantees (via the helper latch)
/// that no helper touches the pointer after `run` returns.
struct ErasedJob(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `WorkerPool::run` bounds its lifetime around every helper's access.
unsafe impl Send for ErasedJob {}
unsafe impl Sync for ErasedJob {}

/// One in-flight pool dispatch: the erased job, an atomic cursor handing
/// out job indices, a helper latch (how many pool threads are inside the
/// task) and a slot for the first captured panic.
struct TaskCore {
    job: ErasedJob,
    jobs: usize,
    cursor: AtomicUsize,
    /// Helpers currently inside the task. Incremented under the pool's
    /// state lock (so retiring the task cannot miss a joiner) and
    /// decremented when a helper leaves; `run` waits for 0.
    helpers: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl TaskCore {
    /// Drains the cursor, running jobs until none remain; returns the
    /// payload if the closure panicked (the remaining jobs of a panicked
    /// participant are left unrun — the caller unwinds anyway).
    fn run_jobs(&self) -> Option<Box<dyn Any + Send>> {
        // SAFETY: `WorkerPool::run` keeps the closure alive until every
        // participant has left the task (helpers join under the pool
        // state lock; `run` retires the task under that same lock and
        // then waits the latch down to zero before returning).
        let job = unsafe { &*self.job.0 };
        catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                break;
            }
            job(i);
        }))
        .err()
    }

    /// Records the first panic payload (later ones are dropped — one
    /// resume is all the caller can do).
    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("pool panic slot");
        slot.get_or_insert(payload);
    }
}

/// A queued dispatch with `slots` helper seats still unclaimed.
struct PendingTask {
    task: Arc<TaskCore>,
    slots: usize,
}

/// Pool state behind the mutex: the dispatch queue, parked/spawned
/// counters and the join handles for shutdown.
struct PoolState {
    tasks: VecDeque<PendingTask>,
    /// Threads parked on `work_cv` right now.
    idle: usize,
    /// Threads ever spawned (== `handles.len()` while running).
    spawned: usize,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Parked helpers wait here; signalled on every enqueue and on
    /// shutdown.
    work_cv: Condvar,
}

/// A persistent worker pool: long-lived helper threads, condvar-parked
/// between dispatches, shared by every engine fan-out level.
///
/// ## Why a pool
///
/// [`parallel_map`] used to spawn scoped threads per call — a tax the
/// serve layer paid once per dispatched batch, and one the intra-chunk
/// tile sweep (dispatching once per *timestep*) could never afford.
/// Helpers here are spawned once, lazily, and parked on a condvar when
/// idle, so a dispatch is a queue push + wakeup instead of `clone(2)`.
///
/// ## Parking and dispatch
///
/// [`run`](Self::run) enqueues a task with `extra` helper seats and wakes
/// the pool; parked helpers claim seats (at most `extra` of them join)
/// and pull job indices from the task's shared atomic cursor. **The
/// caller always participates**: it drains the same cursor, so a dispatch
/// with no free helper still completes — and `extra == 0` or a single
/// job short-circuits to a plain inline loop with zero pool hops.
///
/// ## Budget
///
/// The pool itself does **no** budget accounting — that stays with the
/// callers ([`parallel_map`] reserves via [`WorkerReservation::for_pool`],
/// the intra-chunk sweep claims leftover budget via
/// [`WorkerReservation::claim_leftover`]), so one global invariant holds
/// at every nesting level and helpers are never double-counted.
///
/// ## Shutdown ordering
///
/// Dropping a pool flags `shutdown` under the state lock, wakes every
/// parked helper and joins all handles. Helpers re-check the flag only
/// when the queue is empty, so queued seats are consumed first; `run`
/// borrows `&self`, so no dispatch can be in flight while `drop` runs.
/// The [`global`](Self::global) pool lives for the process and is never
/// dropped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Dispatches that actually went through the queue (inline fast-path
    /// calls do not count) — the regression hook for the zero-pool-hop
    /// guarantees.
    dispatches: AtomicU64,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; helper threads are spawned lazily on demand.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    tasks: VecDeque::new(),
                    idle: 0,
                    spawned: 0,
                    shutdown: false,
                    handles: Vec::new(),
                }),
                work_cv: Condvar::new(),
            }),
            dispatches: AtomicU64::new(0),
        }
    }

    /// The process-wide pool every engine fan-out shares.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Dispatches that actually enqueued onto the pool (the inline fast
    /// path — one job, or no helper seats — never counts).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `job(0..jobs)` with up to `extra` pool helpers assisting the
    /// calling thread; returns when every job has finished. Panics in
    /// `job` propagate to the caller (first payload wins).
    ///
    /// Job indices are handed out through one shared cursor, so the
    /// assignment of jobs to threads is dynamic — callers needing a
    /// deterministic *reduction* must give each job its own output slot
    /// (as [`parallel_map`] and the intra-chunk sweep both do), never
    /// reduce per-thread.
    pub fn run(&self, jobs: usize, extra: usize, job: &(dyn Fn(usize) + Sync)) {
        if jobs == 0 {
            return;
        }
        let extra = extra.min(jobs - 1);
        if extra == 0 {
            // Inline fast path: single job or no helper seats — zero
            // pool hops, no queue, no wakeups.
            for i in 0..jobs {
                job(i);
            }
            return;
        }
        self.dispatch(jobs, extra, job, || {});
    }

    /// Queues `job(0..jobs)` with `extra` helper seats, runs `own` on the
    /// calling thread, then drains whatever jobs no helper has claimed.
    /// Returns once every participant has left the task; the first panic
    /// (from `own` or any job) is resumed on the caller.
    fn dispatch(
        &self,
        jobs: usize,
        extra: usize,
        job: &(dyn Fn(usize) + Sync),
        own: impl FnOnce(),
    ) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // Observation only: the span times the whole pooled dispatch
        // (queue push through last-helper exit); the counter mirrors the
        // in-process `dispatches` total so snapshots can see it.
        sparkxd_telemetry::counter_add!("pool.dispatches", 1);
        let _span = sparkxd_telemetry::span!("pool.run");
        // SAFETY: pure lifetime erasure — the latch protocol below keeps
        // the closure alive until every helper has left the task.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let task = Arc::new(TaskCore {
            job: ErasedJob(erased),
            jobs,
            cursor: AtomicUsize::new(0),
            helpers: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.enqueue(Arc::clone(&task), extra);
        // A panicking `own` skips the drain: unclaimed jobs stay unrun
        // (the caller unwinds anyway), claimed ones finish below.
        let caller_panic = catch_unwind(AssertUnwindSafe(own))
            .err()
            .or_else(|| task.run_jobs());
        // Retire the task (no further helper can join), then wait for
        // the ones that did to leave — only then may the job closure and
        // anything it borrows go out of scope.
        self.retire(&task);
        let mut helpers = task.helpers.lock().expect("pool task latch");
        while *helpers > 0 {
            helpers = task.done_cv.wait(helpers).expect("pool task latch");
        }
        drop(helpers);
        if let Some(payload) =
            caller_panic.or_else(|| task.panic.lock().expect("pool panic slot").take())
        {
            resume_unwind(payload);
        }
    }

    /// Queues the task with `extra` helper seats, topping up the thread
    /// supply first (parked helpers are reused; the deficit is spawned,
    /// up to [`MAX_POOL_THREADS`]). Spawn failure is benign: the caller
    /// completes every job itself.
    fn enqueue(&self, task: Arc<TaskCore>, extra: usize) {
        let mut state = self.shared.state.lock().expect("pool state lock");
        let deficit = extra.saturating_sub(state.idle);
        for _ in 0..deficit {
            if state.spawned >= MAX_POOL_THREADS {
                break;
            }
            let shared = Arc::clone(&self.shared);
            let name = format!("sparkxd-pool-{}", state.spawned);
            let Ok(handle) = std::thread::Builder::new()
                .name(name)
                .spawn(move || helper_loop(&shared))
            else {
                break;
            };
            state.spawned += 1;
            state.handles.push(handle);
        }
        state.tasks.push_back(PendingTask { task, slots: extra });
        drop(state);
        self.shared.work_cv.notify_all();
    }

    /// Removes the task's remaining helper seats from the queue, so no
    /// new helper can join after the caller has finished its share.
    fn retire(&self, task: &Arc<TaskCore>) {
        let mut state = self.shared.state.lock().expect("pool state lock");
        state
            .tasks
            .retain(|pending| !Arc::ptr_eq(&pending.task, task));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.shared.work_cv.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A pool helper's life: park until a task has a free seat, claim it
/// (joining the task's latch *under the pool state lock*, so retirement
/// cannot race past a joiner), drain the cursor, leave, repeat. Exits
/// when shutdown is flagged and the queue is empty.
fn helper_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(pending) = state.tasks.front_mut() {
                    let task = Arc::clone(&pending.task);
                    pending.slots -= 1;
                    if pending.slots == 0 {
                        state.tasks.pop_front();
                    }
                    *task.helpers.lock().expect("pool task latch") += 1;
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state.idle += 1;
                sparkxd_telemetry::counter_add!("pool.parks", 1);
                state = shared.work_cv.wait(state).expect("pool state lock");
                state.idle -= 1;
                sparkxd_telemetry::counter_add!("pool.wakes", 1);
            }
        };
        if let Some(payload) = task.run_jobs() {
            task.store_panic(payload);
        }
        let mut helpers = task.helpers.lock().expect("pool task latch");
        *helpers -= 1;
        if *helpers == 0 {
            task.done_cv.notify_all();
        }
    }
}

/// Maps `f` over `items` on up to `threads` workers of the persistent
/// [`WorkerPool`] (dynamic job hand-out via an atomic cursor), returning
/// results in input order.
///
/// Output is identical for every `threads` value as long as `f` is a pure
/// function of `(index, item)`. Panics in `f` propagate. A single item or
/// `threads == 1` runs inline on the caller — zero pool hops, so the
/// single-chunk serve dispatch path never pays a round-trip.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let _reservation = WorkerReservation::for_pool(threads);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    WorkerPool::global().run(items.len(), threads - 1, &|i| {
        let value = f(i, &items[i]);
        let filled = slots[i].set(value).is_ok();
        debug_assert!(filled, "cursor hands out each index once");
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// Runs `a` on the calling thread and `b` on one parked helper of the
/// persistent [`WorkerPool`], returning both results.
///
/// The helper is claimed from the global thread budget for the duration
/// of the call ([`WorkerReservation::claim_leftover`]), so parallel calls
/// nested inside `a` or `b` size themselves to what is left: on two
/// workers a `label_neurons`/`evaluate` inside `b` runs inline and the
/// intra-chunk sweep stays serial. With no budget left (`SPARKXD_THREADS=1`,
/// or outer levels already busy) this is simply `a()` then `b()`; if no
/// helper picks `b` up before `a` finishes, the caller runs it too. A
/// panic in either closure propagates to the caller once both sides have
/// stopped.
///
/// The split only ever changes wall time: each closure runs exactly once,
/// so `join` is as deterministic as the closures are.
pub fn join<RA, RB>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RB: Send,
{
    let (granted, _helper) = WorkerReservation::claim_leftover(configured_threads(), 1);
    if granted == 0 {
        let ra = a();
        return (ra, b());
    }
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    let mut ra = None;
    WorkerPool::global().dispatch(
        1,
        1,
        &|_| {
            let b = b.lock().expect("join closure").take().expect("b runs once");
            let out = b();
            *rb.lock().expect("join result") = Some(out);
        },
        || ra = Some(a()),
    );
    let rb = rb.into_inner().expect("join result").expect("b ran");
    (ra.expect("a ran"), rb)
}

/// Splits `0..n` into `parts` contiguous, near-equal ranges (the longer
/// ones first); empty ranges are omitted. Shared by the dataset sharder
/// and the intra-chunk tile sweep (contiguous tile ranges per range-job).
pub(crate) fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let remainder = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < remainder);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Shards whole-dataset inference across worker threads and presents each
/// worker's samples in batched chunks.
///
/// Each worker owns one scratch and walks a contiguous slice of the
/// dataset in groups of B through [`NetworkParams::run_batch`], for every
/// B including 1; per-sample RNG streams ([`sample_rng`]) make the
/// aggregate bit-identical regardless of sharding, batch size or worker
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchEvaluator {
    /// Pinned worker count; `None` resolves from `SPARKXD_THREADS` /
    /// available parallelism at call time.
    threads: Option<usize>,
    /// Pinned batch size; `None` resolves from `SPARKXD_BATCH` /
    /// [`DEFAULT_BATCH`] at call time.
    batch: Option<usize>,
    /// Pinned neuron-tile width; `None` resolves from `SPARKXD_TILE` /
    /// [`DEFAULT_TILE`] at call time (inside `run_batch`).
    tile: Option<usize>,
    /// Pinned kernel request; `None` resolves from `SPARKXD_KERNEL` /
    /// auto-detection at call time.
    kernel: Option<KernelChoice>,
    /// Pinned intra-chunk tile-parallel mode; `None` resolves from
    /// `SPARKXD_INTRA` / [`IntraChoice::Auto`] at call time (inside
    /// `run_batch`).
    intra: Option<IntraChoice>,
}

/// One resolved `(batch, tile, kernel, intra)` execution point, handed
/// intact to every shard of a parallel run.
#[derive(Debug, Clone, Copy)]
struct ExecPlan {
    batch: usize,
    tile: Option<usize>,
    kernel: Option<KernelChoice>,
    intra: Option<IntraChoice>,
}

impl BatchEvaluator {
    /// An evaluator that resolves its worker count, batch size, tile
    /// width, kernel and intra mode from the environment on every call
    /// (the default).
    pub fn from_env() -> Self {
        Self {
            threads: None,
            batch: None,
            tile: None,
            kernel: None,
            intra: None,
        }
    }

    /// An evaluator pinned to exactly `threads` workers (ignores
    /// `SPARKXD_THREADS`); `1` is fully serial.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            batch: None,
            tile: None,
            kernel: None,
            intra: None,
        }
    }

    /// Pins the batch size (ignores `SPARKXD_BATCH`). Builder style;
    /// never changes results, only wall time.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch.max(1));
        self
    }

    /// Pins the drive matrix's neuron-tile width (ignores `SPARKXD_TILE`);
    /// any value ≥ `n_neurons` (e.g. `usize::MAX`) forces the untiled
    /// single-sweep path. Builder style.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = Some(tile.max(1));
        self
    }

    /// Pins the hot-loop kernel request (ignores `SPARKXD_KERNEL`); the
    /// request still resolves through runtime feature detection, so
    /// [`KernelChoice::Avx2`] on a host without AVX2 degrades to the
    /// portable kernel instead of faulting. Builder style; never changes
    /// results, only wall time.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Pins the intra-chunk tile-parallel mode of the drive sweep
    /// (ignores `SPARKXD_INTRA`): [`IntraChoice::Off`] is the serial
    /// sweep, [`IntraChoice::Workers`]`(k)` pins `k` sweep workers,
    /// [`IntraChoice::Auto`] sizes to the leftover thread budget. Builder
    /// style; never changes results, only wall time.
    pub fn with_intra(mut self, intra: IntraChoice) -> Self {
        self.intra = Some(intra);
        self
    }

    fn threads_for(&self, jobs: usize) -> usize {
        match self.threads {
            Some(t) => t.min(jobs.max(1)),
            None => worker_count(jobs),
        }
    }

    fn batch_for(&self) -> usize {
        self.batch.unwrap_or_else(batch_size)
    }

    /// The resolved per-run execution knobs, bundled so every shard of a
    /// parallel run receives one coherent `(batch, tile, kernel, intra)`
    /// point.
    fn exec_plan(&self) -> ExecPlan {
        ExecPlan {
            batch: self.batch_for(),
            tile: self.tile,
            kernel: self.kernel,
            intra: self.intra,
        }
    }

    /// Presents every sample of `range` (batched in groups of
    /// `plan.batch`) and hands each `(dataset index, spike counts)` to
    /// `sink` in ascending index order.
    fn run_range(
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
        range: Range<usize>,
        plan: ExecPlan,
        mut sink: impl FnMut(usize, Vec<u32>),
    ) {
        let ExecPlan {
            batch,
            tile,
            kernel,
            intra,
        } = plan;
        let mut state = BatchState::for_params(params, batch);
        if let Some(tile) = tile {
            state = state.with_tile(tile);
        }
        if let Some(kernel) = kernel {
            state = state.with_kernel(kernel);
        }
        if let Some(intra) = intra {
            state = state.with_intra(intra);
        }
        let mut start = range.start;
        while start < range.end {
            let end = (start + batch).min(range.end);
            let pixels: Vec<&[f32]> = (start..end).map(|i| dataset.get(i).0.pixels()).collect();
            let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
            let counts = params
                .run_batch(&mut state, &pixels, &mut rngs)
                .expect("dataset image matches configured input size");
            for (offset, sample_counts) in counts.into_iter().enumerate() {
                sink(start + offset, sample_counts);
            }
            start = end;
        }
    }

    /// Per-neuron spike counts for every sample of `dataset` (inference
    /// only), in dataset order.
    pub fn spike_counts(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let plan = self.exec_plan();
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut out = Vec::with_capacity(range.len());
            Self::run_range(params, dataset, seed, range.clone(), plan, |_, counts| {
                out.push(counts)
            });
            out
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Classification accuracy of `params` on `dataset` under `labeler`'s
    /// neuron assignments.
    pub fn evaluate(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        labeler: &NeuronLabeler,
        seed: u64,
    ) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let plan = self.exec_plan();
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let correct_per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut correct = 0usize;
            Self::run_range(params, dataset, seed, range.clone(), plan, |idx, counts| {
                let (_, label) = dataset.get(idx);
                if labeler.predict(&counts) == Some(label) {
                    correct += 1;
                }
            });
            correct
        });
        correct_per_chunk.iter().sum::<usize>() as f64 / dataset.len() as f64
    }

    /// Assigns a class to each neuron from its responses on `dataset`
    /// (inference only). Response counts are summed per chunk and merged,
    /// which is order-independent.
    pub fn label_neurons(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
    ) -> NeuronLabeler {
        let n_neurons = params.config().n_neurons;
        let plan = self.exec_plan();
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut response = vec![[0u64; 10]; n_neurons];
            Self::run_range(params, dataset, seed, range.clone(), plan, |idx, counts| {
                let (_, label) = dataset.get(idx);
                for (j, &c) in counts.iter().enumerate() {
                    response[j][label as usize] += c as u64;
                }
            });
            response
        });
        let mut merged = vec![[0u64; 10]; n_neurons];
        for response in per_chunk {
            for (total, part) in merged.iter_mut().zip(response) {
                for (t, p) in total.iter_mut().zip(part) {
                    *t += p;
                }
            }
        }
        NeuronLabeler::from_responses(&merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DiehlCookNetwork, RunState, SnnConfig};
    use sparkxd_data::{SynthDigits, SyntheticSource};
    use sparkxd_telemetry::{parse_knob, warn_once};

    fn trained_params() -> NetworkParams {
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(25));
        let train = SynthDigits.generate(15, 1);
        net.train_epoch(&train, 2);
        net.into_params()
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 7, 16] {
            for parts in [1usize, 2, 3, 8, 20] {
                let ranges = chunk_ranges(n, parts);
                let mut covered = Vec::new();
                for r in &ranges {
                    assert!(!r.is_empty());
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_results() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |i, &x| i * 1000 + x * x);
        for threads in [2, 3, 8] {
            assert_eq!(
                parallel_map(&items, threads, |i, &x| i * 1000 + x * x),
                serial
            );
        }
    }

    /// The reference path: one `run_sample` per image on
    /// `sample_rng(seed, i)`, never the evaluator itself.
    fn run_sample_counts(params: &NetworkParams, data: &Dataset, seed: u64) -> Vec<Vec<u32>> {
        let mut state = RunState::for_params(params);
        (0..data.len())
            .map(|i| {
                let mut rng = sample_rng(seed, i as u64);
                params
                    .run_sample(&mut state, data.get(i).0.pixels(), &mut rng)
                    .unwrap()
            })
            .collect()
    }

    /// Neuron labels built from the reference counts.
    fn reference_labeler(params: &NetworkParams, data: &Dataset, seed: u64) -> NeuronLabeler {
        let mut responses = vec![[0u64; 10]; params.config().n_neurons];
        for (i, counts) in run_sample_counts(params, data, seed).iter().enumerate() {
            let label = usize::from(data.get(i).1);
            for (response, &c) in responses.iter_mut().zip(counts) {
                response[label] += u64::from(c);
            }
        }
        NeuronLabeler::from_responses(&responses)
    }

    /// Accuracy under `labeler` scored from the reference counts.
    fn reference_accuracy(
        params: &NetworkParams,
        data: &Dataset,
        labeler: &NeuronLabeler,
        seed: u64,
    ) -> f64 {
        let counts = run_sample_counts(params, data, seed);
        let correct = (0..data.len())
            .filter(|&i| labeler.predict(&counts[i]) == Some(data.get(i).1))
            .count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn evaluate_is_worker_count_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = reference_labeler(&params, &data, 4);
        let want = reference_accuracy(&params, &data, &labeler, 5);
        for threads in [1, 2, 3, 7] {
            let got = BatchEvaluator::with_threads(threads).evaluate(&params, &data, &labeler, 5);
            assert_eq!(got.to_bits(), want.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn evaluate_is_batch_size_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = reference_labeler(&params, &data, 4);
        let want = reference_accuracy(&params, &data, &labeler, 5);
        for batch in [1, 2, 3, 8, 17] {
            for threads in [1, 3] {
                let got = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "batch={batch} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn label_neurons_is_worker_and_batch_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let want = reference_labeler(&params, &data, 4);
        for (threads, batch) in [(1, 1), (2, 1), (1, 4), (5, 3), (2, 17)] {
            let got = BatchEvaluator::with_threads(threads)
                .with_batch(batch)
                .label_neurons(&params, &data, 4);
            assert_eq!(
                got.assignments(),
                want.assignments(),
                "threads={threads} batch={batch}"
            );
        }
    }

    #[test]
    fn spike_counts_match_direct_run_sample() {
        let params = trained_params();
        let data = SynthDigits.generate(6, 3);
        let direct = run_sample_counts(&params, &data, 9);
        for (threads, batch) in [(2, 1), (2, 4), (1, 8)] {
            let batched = BatchEvaluator::with_threads(threads)
                .with_batch(batch)
                .spike_counts(&params, &data, 9);
            assert_eq!(batched, direct, "threads={threads} batch={batch}");
        }
    }

    #[test]
    fn empty_dataset_evaluates_to_zero() {
        let params = trained_params();
        let empty = SynthDigits.generate(0, 1);
        let labeler = NeuronLabeler::from_assignments(vec![None; 20]);
        assert_eq!(
            BatchEvaluator::from_env().evaluate(&params, &empty, &labeler, 1),
            0.0
        );
    }

    #[test]
    fn usize_override_parses_and_clamps_zero_to_one() {
        let count = |raw: &str| raw.parse::<Count>().ok().map(|Count(n)| n);
        assert_eq!(count("0"), Some(1));
        assert_eq!(count("1"), Some(1));
        assert_eq!(count("7"), Some(7));
        assert_eq!(count("fourteen"), None);
        assert_eq!(count("-2"), None);
        assert_eq!(count(""), None);
    }

    #[test]
    fn unparsable_override_falls_back_and_warns_once() {
        // Unparsable values behave as unset (the caller's default applies)…
        let count = |raw: &str| parse_knob::<Count>("T_BAD_A", raw).map(|Count(n)| n);
        assert_eq!(count("fourteen"), None);
        assert_eq!(count("-2"), None);
        assert_eq!(count(""), None);
        // …and the first of them used up the variable's one warning.
        assert!(!warn_once("T_BAD_A"));
        assert!(warn_once("T_ONCE_OTHER"), "distinct vars warn separately");
    }

    #[test]
    fn env_override_reads_unset_variable_as_none() {
        assert_eq!(env_usize_override("SPARKXD_TEST_NEVER_SET_VAR"), None);
    }

    #[test]
    fn kernel_override_parses_the_three_spellings() {
        // Read the way SPARKXD_KERNEL is: trimmed, any letter case.
        assert_eq!(parse_knob("K_OK", "auto"), Some(KernelChoice::Auto));
        assert_eq!(parse_knob("K_OK", " Scalar "), Some(KernelChoice::Scalar));
        assert_eq!(parse_knob("K_OK", "AVX2"), Some(KernelChoice::Avx2));
    }

    #[test]
    fn unparsable_kernel_override_falls_back_and_warns_once() {
        // Unknown spellings behave as unset (the `auto` default applies)…
        assert_eq!(parse_knob::<KernelChoice>("K_BAD_A", "avx512"), None);
        assert_eq!(parse_knob::<KernelChoice>("K_BAD_A", "fast"), None);
        assert_eq!(parse_knob::<KernelChoice>("K_BAD_A", ""), None);
        // …and the first of them used up the variable's one warning.
        assert!(!warn_once("K_BAD_A"));
    }

    #[test]
    fn kernel_choice_defaults_to_auto_without_env() {
        // Without an env override the default applies; the CI leg that
        // pins SPARKXD_KERNEL must see its pin instead. Either way the
        // choice resolves to a kernel this host can execute.
        let pinned = std::env::var(KERNEL_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse().ok());
        assert_eq!(kernel_choice(), pinned.unwrap_or(KernelChoice::Auto));
        let resolved = kernel();
        assert!(crate::kernels::Kernel::available().contains(&resolved));
    }

    #[test]
    fn evaluate_is_kernel_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = reference_labeler(&params, &data, 4);
        let want = reference_accuracy(&params, &data, &labeler, 5);
        for choice in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Avx2] {
            for (threads, batch) in [(1, 1), (1, 4), (2, 8)] {
                let got = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .with_kernel(choice)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "kernel={choice:?} threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn worker_count_respects_job_bound() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(64) >= 1);
    }

    #[test]
    fn batch_size_floors_at_one() {
        // No env override in the test process: the default applies.
        assert!(batch_size() >= 1);
        assert_eq!(BatchEvaluator::from_env().with_batch(0).batch_for(), 1);
        assert_eq!(BatchEvaluator::from_env().with_batch(5).batch_for(), 5);
    }

    #[test]
    fn tile_width_defaults_and_floors_at_one() {
        // No env override in the test process: the default applies.
        assert_eq!(tile_width(), DEFAULT_TILE);
        assert_eq!(BatchEvaluator::from_env().with_tile(0).tile, Some(1));
        assert_eq!(BatchEvaluator::from_env().with_tile(7).tile, Some(7));
    }

    #[test]
    fn evaluate_is_tile_width_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = reference_labeler(&params, &data, 4);
        let want = reference_accuracy(&params, &data, &labeler, 5);
        for tile in [1usize, 3, 19, 20, 64, usize::MAX] {
            for (threads, batch) in [(1, 4), (2, 8)] {
                let got = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .with_tile(tile)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "tile={tile} threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn nested_levels_share_the_thread_budget() {
        // A huge outer reservation must drive nested pools serial (never
        // below 1). Sibling tests can only reserve *more*, so the equality
        // is race-free; the release check stays a lower bound.
        {
            let _outer = WorkerReservation::for_pool(100_000);
            assert_eq!(worker_count(64), 1);
        }
        assert!(worker_count(64) >= 1, "budget released on drop");
    }

    #[test]
    fn intra_override_parses_the_three_spellings() {
        assert_eq!("auto".parse(), Ok(IntraChoice::Auto));
        assert_eq!("OFF".parse(), Ok(IntraChoice::Off));
        assert_eq!("4".parse(), Ok(IntraChoice::Workers(4)));
        assert_eq!(
            "0".parse(),
            Ok(IntraChoice::Workers(1)),
            "0 clamps to one job, like every count knob"
        );
        assert!("fast".parse::<IntraChoice>().is_err());
        assert!("-3".parse::<IntraChoice>().is_err());
    }

    #[test]
    fn unparsable_intra_override_falls_back_and_warns_once() {
        assert_eq!(parse_knob::<IntraChoice>("I_BAD_A", "fast"), None);
        assert_eq!(parse_knob::<IntraChoice>("I_BAD_A", "-3"), None);
        assert_eq!(parse_knob::<IntraChoice>("I_BAD_A", ""), None);
        assert!(!warn_once("I_BAD_A"));
    }

    #[test]
    fn intra_choice_defaults_to_auto_without_env() {
        // The CI leg that pins SPARKXD_INTRA must see its pin instead.
        let pinned = std::env::var(INTRA_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse().ok());
        assert_eq!(intra_choice(), pinned.unwrap_or(IntraChoice::Auto));
    }

    #[test]
    fn intra_workers_fall_back_serial_when_not_worth_it() {
        // Fewer than two tiles: nothing to split, for every mode.
        for choice in [IntraChoice::Auto, IntraChoice::Off, IntraChoice::Workers(8)] {
            assert_eq!(intra_workers_for(choice, 0).0, 1, "{choice:?}");
            assert_eq!(intra_workers_for(choice, 1).0, 1, "{choice:?}");
        }
        // Off is always serial; explicit pins clamp to the tile count.
        assert_eq!(intra_workers_for(IntraChoice::Off, 64).0, 1);
        let (workers, reservation) = intra_workers_for(IntraChoice::Workers(8), 3);
        assert_eq!(workers, 3, "pins clamp to n_tiles");
        assert!(
            reservation.is_some(),
            "pinned sweeps register their workers"
        );
    }

    #[test]
    fn intra_auto_respects_an_exhausted_budget() {
        // A huge outer reservation leaves no leftover budget: auto must
        // resolve to the serial sweep (sibling tests only reserve more,
        // so the equality is race-free).
        let _outer = WorkerReservation::for_pool(100_000);
        let (workers, reservation) = intra_workers_for(IntraChoice::Auto, 64);
        assert_eq!(workers, 1);
        assert!(reservation.is_none());
    }

    #[test]
    fn claim_leftover_grants_sum_below_the_cap() {
        // Hammer the claim from many threads against a cap of 8 total
        // workers (7 extras): at any instant the *sum* of grants held by
        // these threads must stay ≤ 7, however the claims interleave.
        // Sibling tests can only shrink the leftover, never inflate our
        // grants, so the bound is race-free.
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let (granted, reservation) = WorkerReservation::claim_leftover(8, 99);
                        let now = held.fetch_add(granted, Ordering::SeqCst) + granted;
                        peak.fetch_max(now, Ordering::SeqCst);
                        held.fetch_sub(granted, Ordering::SeqCst);
                        drop(reservation);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 7,
            "claims oversubscribed: peak {} > 7",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = WorkerPool::new();
        for (jobs, extra) in [(1usize, 0usize), (3, 2), (64, 7), (5, 50)] {
            let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(jobs, extra, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "jobs={jobs} extra={extra}"
            );
        }
    }

    #[test]
    fn pool_single_job_and_no_seats_take_zero_pool_hops() {
        // The latency satellite: a single job (the single-chunk serve
        // dispatch) or a request with no helper seats must run inline on
        // the caller — no queue, no wakeup, no dispatch counted.
        let pool = WorkerPool::new();
        pool.run(1, 8, &|_| {});
        pool.run(7, 0, &|_| {});
        assert_eq!(pool.dispatches(), 0);
        pool.run(4, 2, &|_| {});
        assert_eq!(pool.dispatches(), 1, "multi-job dispatches do count");
    }

    #[test]
    fn single_item_parallel_map_runs_inline_on_the_caller() {
        // Even with a large thread request, one item means the caller
        // thread does the work itself — the zero-pool-hop regression for
        // the single-chunk serve path.
        let caller = std::thread::current().id();
        let out = parallel_map(&[41], 8, |_, &x| {
            assert_eq!(std::thread::current().id(), caller, "no pool round-trip");
            x + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn pool_reuses_parked_helpers_across_dispatches() {
        // Back-to-back dispatches must not leak state: every job of every
        // dispatch still runs exactly once, on long-lived threads.
        let pool = WorkerPool::new();
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            pool.run(9, 3, &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45, "round {round}");
        }
        assert_eq!(pool.dispatches(), 20);
    }

    #[test]
    fn pool_propagates_job_panics() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 3, &|i| {
                if i == 5 {
                    panic!("job five failed");
                }
            });
        }));
        assert!(result.is_err(), "a job panic must reach the caller");
        // The pool must stay usable after a panicked dispatch.
        let sum = AtomicUsize::new(0);
        pool.run(4, 2, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn parallel_map_panics_propagate_through_the_pool() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&[0usize; 16], 4, |i, _| {
                if i == 11 {
                    panic!("shard eleven failed");
                }
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn join_returns_both_results() {
        let left = [1u64, 2, 3];
        let (a, b) = join(
            || left.iter().sum::<u64>(),
            || (0..10u64).map(|x| x * x).sum::<u64>(),
        );
        assert_eq!((a, b), (6, 285));
        // Results of different types, and a `b` that borrows mutably.
        let mut log = Vec::new();
        let (a, ()) = join(|| "left", || log.push(7));
        assert_eq!(a, "left");
        assert_eq!(log, vec![7]);
    }

    #[test]
    fn join_propagates_a_panic_from_either_closure() {
        let left = catch_unwind(AssertUnwindSafe(|| {
            join(|| panic!("a failed"), || 1);
        }));
        assert!(left.is_err(), "a panic in `a` must reach the caller");
        let right = catch_unwind(AssertUnwindSafe(|| {
            join(|| 1, || panic!("b failed"));
        }));
        assert!(right.is_err(), "a panic in `b` must reach the caller");
        // The pool and the budget stay usable afterwards.
        assert_eq!(join(|| 2, || 3), (2, 3));
        assert_eq!(parallel_map(&[1, 2, 3], 2, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn join_runs_serially_on_the_caller_without_budget() {
        // A huge outer reservation leaves no helper to claim: `b` must run
        // on the calling thread, after `a` (sibling tests only reserve
        // more, so this is race-free).
        let _outer = WorkerReservation::for_pool(100_000);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        join(
            || order.lock().unwrap().push("a"),
            || {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push("b");
            },
        );
        assert_eq!(*order.lock().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn evaluate_is_intra_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = reference_labeler(&params, &data, 4);
        let want = reference_accuracy(&params, &data, &labeler, 5);
        for intra in [
            IntraChoice::Off,
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
            IntraChoice::Workers(7),
        ] {
            let got = BatchEvaluator::with_threads(1)
                .with_batch(4)
                .with_tile(4)
                .with_intra(intra)
                .evaluate(&params, &data, &labeler, 5);
            assert_eq!(got.to_bits(), want.to_bits(), "intra={intra:?}");
        }
    }
}
