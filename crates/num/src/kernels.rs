//! Multi-backend compute kernels: backend selection, the persistent
//! fork-join worker pool, nnz-balanced row partitioning and level
//! scheduling for the hot sparse kernels.
//!
//! Every solve in the workspace bottoms out in three kernels — the CSR
//! matrix–vector product, the SSOR/IC(0) triangular sweeps and the
//! dot/axpy chains of the Krylov loops. This module provides the
//! *execution policy* layer those kernels dispatch through:
//!
//! * [`Backend`] names an execution strategy: `Scalar` (the reference
//!   row loop), `Blocked` (4-way unrolled, bounds-check-free inner
//!   kernel; bitwise-identical accumulation order) and `Threaded`
//!   (row blocks sharded across the persistent [`KernelPool`], balanced
//!   by **nnz** rather than row count).
//! * [`KernelSpec`] is the declarative selector carried by
//!   [`crate::solvers::IterOptions`] (and so by every
//!   [`crate::session::SolverSession`]): `Auto` picks `Blocked` for
//!   all but the smallest systems and `Scalar` below (never `Threaded`:
//!   on the hosts measured, the threaded backend is slower than
//!   `Blocked` at every size this workspace solves); `Fixed` pins a
//!   backend.
//!   The `BRIGHT_KERNEL_BACKEND` environment variable
//!   (`scalar`/`blocked`/`threaded`/`auto`) overrides both.
//! * [`KernelPool`] keeps its workers parked on a condvar between
//!   kernel launches, so a threaded matvec pays a few microseconds of
//!   wake-up latency instead of a thread spawn; within one launch,
//!   level-scheduled sweeps synchronize with a sense-reversing spin
//!   barrier (no syscalls between levels).
//! * [`LevelSchedule`] computes dependency levels of a triangular
//!   pattern once per sparsity pattern; rows within a level are
//!   independent, so forward/backward substitution parallelizes level
//!   by level (see [`crate::precond`]).
//!
//! Thread count policy: `BRIGHT_KERNEL_THREADS` when set, otherwise
//! the machine's available parallelism (with a floor of two workers so
//! the threaded backend is genuinely exercised even on single-core
//! test hosts when explicitly requested).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// An execution strategy for the hot sparse kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Reference single-threaded row loop.
    #[default]
    Scalar,
    /// Single-threaded, 4-way unrolled inner kernel over bounds-check
    /// free slices. Accumulation order is identical to `Scalar`, so
    /// results are bitwise equal.
    Blocked,
    /// Row blocks sharded across the persistent [`KernelPool`],
    /// balanced by nnz. Each row still uses the `Blocked` inner
    /// kernel, so matvec results remain bitwise equal to `Scalar`.
    Threaded,
}

impl Backend {
    /// Short lowercase name (`"scalar"`, `"blocked"`, `"threaded"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Blocked => "blocked",
            Self::Threaded => "threaded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative kernel-backend choice, carried by
/// [`crate::solvers::IterOptions`] and resolved per solve.
///
/// The `BRIGHT_KERNEL_BACKEND` environment variable (read once per
/// process; `scalar`, `blocked`, `threaded` or `auto`) overrides the
/// spec wherever it is resolved, which is how the CI backend matrix
/// drives the whole test suite down each code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSpec {
    /// Size-aware choice: `Blocked` at or above
    /// [`AUTO_BLOCKED_MIN_NNZ`] stored entries, `Scalar` below. `Auto`
    /// never picks `Threaded`; request it with `Fixed`.
    #[default]
    Auto,
    /// Always use the given backend.
    Fixed(Backend),
}

/// `Auto` resolves to `Blocked` at or above this nnz.
pub const AUTO_BLOCKED_MIN_NNZ: usize = 1_024;

impl KernelSpec {
    /// Parses a spec name (`scalar`/`blocked`/`threaded`/`auto`),
    /// as accepted by `BRIGHT_KERNEL_BACKEND`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(Self::Auto),
            "scalar" => Some(Self::Fixed(Backend::Scalar)),
            "blocked" => Some(Self::Fixed(Backend::Blocked)),
            "threaded" => Some(Self::Fixed(Backend::Threaded)),
            _ => None,
        }
    }

    /// The spec after applying the `BRIGHT_KERNEL_BACKEND` override.
    #[must_use]
    pub fn effective(self) -> Self {
        env_override().unwrap_or(self)
    }

    /// Resolves the backend for an operator with `nnz` stored entries,
    /// applying the environment override first.
    #[must_use]
    pub fn resolve(self, nnz: usize) -> Backend {
        match self.effective() {
            Self::Fixed(b) => b,
            Self::Auto => {
                if nnz >= AUTO_BLOCKED_MIN_NNZ {
                    Backend::Blocked
                } else {
                    Backend::Scalar
                }
            }
        }
    }
}

fn env_override() -> Option<KernelSpec> {
    static OVERRIDE: OnceLock<Option<KernelSpec>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("BRIGHT_KERNEL_BACKEND")
            .ok()
            .and_then(|v| KernelSpec::parse(&v))
    })
}

/// The machine's available parallelism (cached).
#[must_use]
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Worker count of the (lazily created) global kernel pool:
/// `BRIGHT_KERNEL_THREADS` when set, otherwise
/// `max(2, available_parallelism)`. The floor of two keeps the
/// threaded code paths honest on single-core hosts when a threaded
/// backend is explicitly requested; `Auto` never picks `Threaded`, so
/// the floor costs nothing in production.
#[must_use]
pub fn kernel_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("BRIGHT_KERNEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or_else(|| hardware_threads().max(2), |n| n.max(1))
    })
}

/// The process-wide kernel pool, created on first threaded kernel
/// launch with [`kernel_threads`] workers.
pub fn global_pool() -> &'static KernelPool {
    static POOL: OnceLock<KernelPool> = OnceLock::new();
    POOL.get_or_init(|| KernelPool::new(kernel_threads()))
}

// ---------------------------------------------------------------------
// Persistent fork-join pool
// ---------------------------------------------------------------------

/// A raw pointer to the caller's borrowed job closure. Sound to send
/// across threads because [`KernelPool::run`] blocks until every
/// worker has finished executing it (the borrow strictly outlives all
/// uses), and the pointee is `Sync`.
struct Job(*const (dyn Fn(usize, usize) + Sync + 'static));
// SAFETY: see `Job`'s doc comment — the pool protocol guarantees the
// pointee outlives every dereference, and `dyn Fn + Sync` is safe to
// call from several threads at once.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotonic launch counter; workers run each generation once.
    generation: u64,
    /// The current job, present from launch until the last worker
    /// retires it.
    job: Option<Job>,
    /// Workers still running the current generation.
    remaining: usize,
    /// Last fully retired generation.
    finished: u64,
    /// Generations whose jobs panicked — a set (not a single slot) so
    /// concurrent callers each see exactly their own launch's panic,
    /// even when several panic back to back. Entries are removed by
    /// the matching caller, so the set stays bounded by the number of
    /// in-flight launches.
    panicked_generations: std::collections::HashSet<u64>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// Callers wait here for retirement (and for the slot to free).
    done: Condvar,
}

/// A persistent fork-join pool: `threads` workers parked on a condvar
/// between launches. [`KernelPool::run`] executes one SPMD closure on
/// every worker and returns when all have finished; consecutive
/// launches reuse the same threads, so per-launch overhead is a
/// wake-up, not a spawn.
#[derive(Debug)]
pub struct KernelPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared").finish_non_exhaustive()
    }
}

impl KernelPool {
    /// Creates a pool with `threads` workers (0 is clamped to 1; a
    /// one-worker pool runs jobs inline on the caller's thread).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                remaining: 0,
                finished: 0,
                panicked_generations: std::collections::HashSet::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::new();
        if threads > 1 {
            for idx in 0..threads {
                let shared = Arc::clone(&shared);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("bright-kernel-{idx}"))
                        .spawn(move || Self::worker_loop(&shared, idx, threads))
                        .expect("spawn kernel pool worker"),
                );
            }
        }
        Self { shared, handles }
    }

    /// Number of workers that execute each launched job (1 for an
    /// inline pool).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len().max(1)
    }

    /// Runs `job(worker_index, worker_total)` on every worker and
    /// returns once all have finished. Workers see `worker_index` in
    /// `0..worker_total`; partitioning the work among them is the
    /// job's responsibility. Concurrent callers are serialized.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while executing the job.
    pub fn run(&self, job: &(dyn Fn(usize, usize) + Sync)) {
        if self.handles.is_empty() {
            job(0, 1);
            return;
        }
        // SAFETY: the transmute only erases the borrow's lifetime; this
        // function does not return until `finished` reaches our
        // generation, i.e. until no worker can touch the pointer again.
        let ptr: &'static (dyn Fn(usize, usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync + 'static),
            >(job)
        };
        let mut st = self.shared.state.lock().expect("kernel pool poisoned");
        while st.job.is_some() {
            st = self.shared.done.wait(st).expect("kernel pool poisoned");
        }
        st.generation += 1;
        let gen = st.generation;
        st.job = Some(Job(ptr));
        st.remaining = self.handles.len();
        self.shared.work.notify_all();
        while st.finished < gen {
            st = self.shared.done.wait(st).expect("kernel pool poisoned");
        }
        let panicked = st.panicked_generations.remove(&gen);
        drop(st);
        assert!(!panicked, "kernel pool worker panicked");
    }

    fn worker_loop(shared: &PoolShared, idx: usize, total: usize) {
        let mut seen = 0u64;
        loop {
            let (ptr, gen) = {
                let mut st = shared.state.lock().expect("kernel pool poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen {
                        if let Some(Job(ptr)) = st.job {
                            break (ptr, st.generation);
                        }
                    }
                    st = shared.work.wait(st).expect("kernel pool poisoned");
                }
            };
            seen = gen;
            // SAFETY: the launching caller blocks until this generation
            // retires, so the pointee is alive for the whole call.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*ptr)(idx, total);
            }));
            let mut st = shared.state.lock().expect("kernel pool poisoned");
            if outcome.is_err() {
                st.panicked_generations.insert(gen);
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                st.job = None;
                st.finished = gen;
                shared.done.notify_all();
            }
        }
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("kernel pool poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Intra-launch synchronization and shared output slices
// ---------------------------------------------------------------------

/// A sense-reversing spin barrier for synchronizing pool workers
/// *within* one [`KernelPool::run`] launch (between sweep levels),
/// where a condvar round-trip per level would dominate. Spins briefly,
/// then yields, so oversubscribed hosts still make progress.
pub(crate) struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    /// A participant panicked and will never arrive; waiters unwind
    /// instead of spinning forever.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the barrier dead because a participant is unwinding.
    /// Current and future waiters panic out of [`SpinBarrier::wait`],
    /// so every pool worker retires and the launch's panic propagates
    /// instead of deadlocking the pool.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Blocks until all `parties` workers arrive. Each worker passes
    /// its own `local_sense`, initialized to `false` before the first
    /// wait of the launch.
    ///
    /// # Panics
    ///
    /// Panics if the barrier was [`SpinBarrier::poison`]ed.
    pub(crate) fn wait(&self, local_sense: &mut bool) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "kernel sweep barrier poisoned by a panicking worker"
        );
        let next = !*local_sense;
        *local_sense = next;
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(next, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != next {
                assert!(
                    !self.poisoned.load(Ordering::Acquire),
                    "kernel sweep barrier poisoned by a panicking worker"
                );
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Runs `body` and poisons the barrier if it unwinds — the wrapper
    /// every barrier-synchronized pool job uses so one worker's panic
    /// cannot strand its siblings mid-level.
    pub(crate) fn guard<F: FnOnce() + std::panic::UnwindSafe>(&self, body: F) {
        if let Err(payload) = std::panic::catch_unwind(body) {
            self.poison();
            std::panic::resume_unwind(payload);
        }
    }
}

/// A shared mutable view of a `f64` slice for disjoint-index writes
/// from several pool workers.
///
/// # Safety contract
///
/// Callers must guarantee that (a) no index is written by more than
/// one worker between two synchronization points, and (b) reads of an
/// index happen only after the write to it has been ordered before
/// the reader (same worker, or across a [`SpinBarrier`] /
/// [`KernelPool::run`] boundary).
pub(crate) struct SharedSliceMut {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: all accesses go through the unsafe `get`/`set` methods whose
// contract (above) forbids data races.
unsafe impl Send for SharedSliceMut {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedSliceMut {}

impl SharedSliceMut {
    pub(crate) fn new(slice: &mut [f64]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Reads index `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and the write of `i` must be ordered before this
    /// read (see the type-level contract).
    #[inline]
    pub(crate) unsafe fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }

    /// Writes index `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and no other worker may access `i` concurrently
    /// (see the type-level contract).
    #[inline]
    pub(crate) unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }
}

// ---------------------------------------------------------------------
// Partitioning helpers
// ---------------------------------------------------------------------

/// Splits `0..rows` into `parts` contiguous blocks balanced by nnz,
/// using the CSR `row_ptr` (cumulative nnz) directly. Returns
/// `parts + 1` monotone boundaries starting at 0 and ending at `rows`.
#[must_use]
pub fn nnz_partition(row_ptr: &[usize], parts: usize) -> Vec<usize> {
    let rows = row_ptr.len().saturating_sub(1);
    let parts = parts.max(1);
    let total = row_ptr.last().copied().unwrap_or(0);
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for k in 1..parts {
        let target = total * k / parts;
        // First row whose cumulative nnz passes the target.
        let b = row_ptr.partition_point(|&v| v < target).min(rows);
        bounds.push(b.max(bounds[k - 1]));
    }
    bounds.push(rows);
    bounds
}

/// The contiguous chunk of `0..len` assigned to worker `w` of `total`
/// (plain even split; used for per-level row lists, whose rows have
/// near-uniform nnz).
#[inline]
#[must_use]
pub(crate) fn chunk_range(len: usize, w: usize, total: usize) -> std::ops::Range<usize> {
    let total = total.max(1);
    let lo = len * w / total;
    let hi = len * (w + 1) / total;
    lo..hi
}

// ---------------------------------------------------------------------
// Matvec inner kernels
// ---------------------------------------------------------------------

/// Reference in-order row dot: `Σ vals[k] · x[cols[k]]`.
#[inline]
pub(crate) fn row_dot_scalar(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (c, v) in cols.iter().zip(vals) {
        acc += v * x[*c];
    }
    acc
}

/// 4-way unrolled row dot over bounds-check-free slices. The single
/// accumulator is updated strictly in element order, so the result is
/// bitwise identical to [`row_dot_scalar`].
#[inline]
pub(crate) fn row_dot_unrolled(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut c4 = cols.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (c, v) in (&mut c4).zip(&mut v4) {
        acc += v[0] * x[c[0]];
        acc += v[1] * x[c[1]];
        acc += v[2] * x[c[2]];
        acc += v[3] * x[c[3]];
    }
    for (c, v) in c4.remainder().iter().zip(v4.remainder()) {
        acc += v * x[*c];
    }
    acc
}

/// Threaded CSR matvec: `parts` nnz-balanced row blocks, one per pool
/// worker, each row computed with the unrolled in-order kernel (so the
/// result is bitwise identical to the scalar backend). Falls back to
/// the blocked path inline when the pool has a single worker.
pub(crate) fn matvec_threaded(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let pool = global_pool();
    let parts = pool.threads();
    if parts <= 1 || y.len() < parts {
        for (i, yi) in y.iter_mut().enumerate() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            *yi = row_dot_unrolled(&col_idx[lo..hi], &values[lo..hi], x);
        }
        return;
    }
    let bounds = nnz_partition(row_ptr, parts);
    let out = SharedSliceMut::new(y);
    pool.run(&|w, _| {
        for i in bounds[w]..bounds[w + 1] {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let acc = row_dot_unrolled(&col_idx[lo..hi], &values[lo..hi], x);
            // SAFETY: blocks are disjoint row ranges; each index is
            // written by exactly one worker and read by none.
            unsafe { out.set(i, acc) };
        }
    });
}

/// Fused CSR matvec + dot epilogue: computes `y = A·x` and returns
/// `w·y` in the same pass over the rows, using the in-order scalar
/// row kernel. The dot accumulates over the same 64-element pairwise
/// chunk tree as [`crate::vec_ops::dot`], with each leaf filling its
/// rows of `y` before reducing them, so the result is **bitwise
/// identical** to a matvec followed by `dot(w, y)` — the rows of `y`
/// are still hot in cache when the epilogue reads them, which is the
/// whole point: BiCGSTAB's `A·p̂` / `(r̂, A·p̂)` pair becomes one
/// traversal instead of two.
pub(crate) fn matvec_dot_scalar(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
    w: &[f64],
) -> f64 {
    crate::vec_ops::reduce_chunks(y.len(), |lo, hi| {
        for i in lo..hi {
            let (a, b) = (row_ptr[i], row_ptr[i + 1]);
            y[i] = row_dot_scalar(&col_idx[a..b], &values[a..b], x);
        }
        crate::vec_ops::chunk_dot(&w[lo..hi], &y[lo..hi])
    })
}

/// [`matvec_dot_scalar`] with the 4-way unrolled row kernel (the
/// blocked backend). Same chunk tree, same in-order accumulators:
/// bitwise identical to the scalar variant.
pub(crate) fn matvec_dot_unrolled(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
    w: &[f64],
) -> f64 {
    crate::vec_ops::reduce_chunks(y.len(), |lo, hi| {
        for i in lo..hi {
            let (a, b) = (row_ptr[i], row_ptr[i + 1]);
            y[i] = row_dot_unrolled(&col_idx[a..b], &values[a..b], x);
        }
        crate::vec_ops::chunk_dot(&w[lo..hi], &y[lo..hi])
    })
}

// ---------------------------------------------------------------------
// Level scheduling
// ---------------------------------------------------------------------

/// Dependency levels of a triangular sparsity pattern, in execution
/// order: every row in level `k` depends only on rows in levels
/// `< k`, so rows within a level can be processed in parallel.
///
/// Built once per pattern (the schedule depends only on the cached
/// symbolic structure, not on values) by [`LevelSchedule::from_lower`]
/// (forward substitution: dependencies `j < i`) or
/// [`LevelSchedule::from_upper`] (backward substitution: dependencies
/// `j > i`, levels already ordered for reverse execution).
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    level_ptr: Vec<usize>,
    rows: Vec<u32>,
}

impl LevelSchedule {
    /// Number of levels (the dependency depth of the sweep).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// The rows of level `lev`, ascending.
    #[must_use]
    pub fn level_rows(&self, lev: usize) -> &[u32] {
        &self.rows[self.level_ptr[lev]..self.level_ptr[lev + 1]]
    }

    /// Mean rows per level — the available parallelism of the sweep.
    #[must_use]
    pub fn mean_width(&self) -> f64 {
        let n = self.rows.len();
        if n == 0 {
            return 0.0;
        }
        n as f64 / self.levels().max(1) as f64
    }

    /// Builds the forward-substitution schedule of a pattern whose row
    /// `i` lists its dependencies among `col[row_ptr[i]..row_ptr[i+1]]`
    /// (entries with `col >= i` — e.g. a stored diagonal — are
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if the pattern has more than `u32::MAX` rows.
    #[must_use]
    pub fn from_lower(row_ptr: &[usize], col: &[usize]) -> Self {
        let n = row_ptr.len().saturating_sub(1);
        assert!(u32::try_from(n).is_ok(), "level schedule: pattern too large");
        let mut depth = vec![0u32; n];
        for i in 0..n {
            let mut d = 0u32;
            for &j in &col[row_ptr[i]..row_ptr[i + 1]] {
                if j < i {
                    d = d.max(depth[j] + 1);
                }
            }
            depth[i] = d;
        }
        Self::bucket(&depth)
    }

    /// Builds the backward-substitution schedule of a pattern whose
    /// row `i` lists its dependencies among
    /// `col[row_ptr[i]..row_ptr[i+1]]` (entries with `col <= i` are
    /// ignored). Levels come back in execution order: level 0 holds
    /// the dependency-free (highest-index) rows.
    ///
    /// # Panics
    ///
    /// Panics if the pattern has more than `u32::MAX` rows.
    #[must_use]
    pub fn from_upper(row_ptr: &[usize], col: &[usize]) -> Self {
        let n = row_ptr.len().saturating_sub(1);
        assert!(u32::try_from(n).is_ok(), "level schedule: pattern too large");
        let mut depth = vec![0u32; n];
        for i in (0..n).rev() {
            let mut d = 0u32;
            for &j in &col[row_ptr[i]..row_ptr[i + 1]] {
                if j > i {
                    d = d.max(depth[j] + 1);
                }
            }
            depth[i] = d;
        }
        Self::bucket(&depth)
    }

    fn bucket(depth: &[u32]) -> Self {
        let n = depth.len();
        let nlev = depth.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut counts = vec![0usize; nlev];
        for &d in depth {
            counts[d as usize] += 1;
        }
        let mut level_ptr = Vec::with_capacity(nlev + 1);
        level_ptr.push(0usize);
        for c in &counts {
            level_ptr.push(level_ptr.last().copied().unwrap_or(0) + c);
        }
        let mut cursor = level_ptr.clone();
        let mut rows = vec![0u32; n];
        for (i, &d) in depth.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)] // asserted above
            {
                rows[cursor[d as usize]] = i as u32;
            }
            cursor[d as usize] += 1;
        }
        Self { level_ptr, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_names() {
        assert_eq!(KernelSpec::parse("auto"), Some(KernelSpec::Auto));
        assert_eq!(
            KernelSpec::parse(" Scalar "),
            Some(KernelSpec::Fixed(Backend::Scalar))
        );
        assert_eq!(
            KernelSpec::parse("BLOCKED"),
            Some(KernelSpec::Fixed(Backend::Blocked))
        );
        assert_eq!(
            KernelSpec::parse("threaded"),
            Some(KernelSpec::Fixed(Backend::Threaded))
        );
        assert_eq!(KernelSpec::parse("simd"), None);
        assert_eq!(Backend::Blocked.name(), "blocked");
        assert_eq!(format!("{}", Backend::Threaded), "threaded");
    }

    #[test]
    fn auto_policy_scales_with_size() {
        // Fixed specs resolve to themselves regardless of size (unless
        // the process-wide env override says otherwise; tests and CI
        // set it before the process starts, so `effective` is stable).
        if env_override().is_some() {
            return;
        }
        assert_eq!(
            KernelSpec::Fixed(Backend::Threaded).resolve(16),
            Backend::Threaded
        );
        assert_eq!(KernelSpec::Auto.resolve(16), Backend::Scalar);
        assert_eq!(
            KernelSpec::Auto.resolve(AUTO_BLOCKED_MIN_NNZ),
            Backend::Blocked
        );
        // Large systems stay on `Blocked` on any host: the threaded
        // backend is only ever an explicit request.
        assert_eq!(KernelSpec::Auto.resolve(100_000), Backend::Blocked);
        assert_eq!(KernelSpec::Auto.resolve(10_000_000), Backend::Blocked);
    }

    #[test]
    fn pool_runs_jobs_on_all_workers_and_is_reusable() {
        let pool = KernelPool::new(3);
        assert_eq!(pool.threads(), 3);
        for _ in 0..50 {
            let hits = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];
            pool.run(&|w, total| {
                assert_eq!(total, 3);
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = KernelPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        let inline = AtomicBool::new(false);
        pool.run(&|w, total| {
            assert_eq!((w, total), (0, 1));
            inline.store(std::thread::current().id() == caller, Ordering::SeqCst);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(inline.load(Ordering::SeqCst), "must run on the caller's thread");
    }

    #[test]
    fn spin_barrier_orders_phases() {
        let pool = KernelPool::new(4);
        let barrier = SpinBarrier::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicBool::new(true);
        pool.run(&|_, _| {
            let mut sense = false;
            phase1.fetch_add(1, Ordering::SeqCst);
            barrier.wait(&mut sense);
            // After the barrier every worker must observe all arrivals.
            if phase1.load(Ordering::SeqCst) != 4 {
                ok.store(false, Ordering::SeqCst);
            }
            barrier.wait(&mut sense);
        });
        assert!(ok.load(Ordering::SeqCst));
    }

    #[test]
    fn worker_panic_poisons_barrier_and_pool_survives() {
        let pool = KernelPool::new(3);
        let barrier = SpinBarrier::new(3);
        // Worker 1 panics before its first barrier arrival; the guard
        // poisons the barrier so workers 0 and 2 unwind instead of
        // spinning forever, and the pool reports the panic.
        let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w, _| {
                barrier.guard(|| {
                    let mut sense = false;
                    assert_ne!(w, 1, "worker 1 dies mid-level");
                    barrier.wait(&mut sense);
                });
            });
        }));
        assert!(launch.is_err(), "pool.run must propagate the panic");
        // The pool is still serviceable for later launches.
        let hits = AtomicUsize::new(0);
        pool.run(&|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nnz_partition_balances_and_covers() {
        // 8 rows, heavily skewed nnz.
        let row_ptr = [0usize, 100, 101, 102, 103, 104, 105, 106, 200];
        let bounds = nnz_partition(&row_ptr, 4);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&8));
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        // Empty matrix.
        assert_eq!(nnz_partition(&[0], 4), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 100] {
            for total in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for w in 0..total {
                    let r = chunk_range(len, w, total);
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn unrolled_row_dot_is_bitwise_scalar() {
        let cols: Vec<usize> = (0..23).map(|i| (i * 7) % 31).collect();
        let vals: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let x: Vec<f64> = (0..31).map(|i| (i as f64 * 0.11).cos()).collect();
        let a = row_dot_scalar(&cols, &vals, &x);
        let b = row_dot_unrolled(&cols, &vals, &x);
        assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn level_schedule_respects_dependencies() {
        // Lower pattern of a 1-D chain: row i depends on i-1 → n levels.
        let n = 6;
        let mut row_ptr = vec![0usize];
        let mut col = Vec::new();
        for i in 0..n {
            if i > 0 {
                col.push(i - 1);
            }
            row_ptr.push(col.len());
        }
        let chain = LevelSchedule::from_lower(&row_ptr, &col);
        assert_eq!(chain.levels(), n);
        assert!((chain.mean_width() - 1.0).abs() < 1e-12);

        // Diagonal pattern (no deps): one level with every row.
        let row_ptr: Vec<usize> = (0..=n).map(|_| 0).collect();
        let diag = LevelSchedule::from_lower(&row_ptr, &[]);
        assert_eq!(diag.levels(), 1);
        assert_eq!(diag.level_rows(0).len(), n);

        // Upper chain: row i depends on i+1; execution order starts at
        // the last row.
        let mut row_ptr = vec![0usize];
        let mut col = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                col.push(i + 1);
            }
            row_ptr.push(col.len());
        }
        let up = LevelSchedule::from_upper(&row_ptr, &col);
        assert_eq!(up.levels(), n);
        assert_eq!(up.level_rows(0), &[(n - 1) as u32]);
        assert_eq!(up.level_rows(n - 1), &[0u32]);
    }

    /// Verifies that every level's rows only depend on earlier levels.
    #[test]
    fn level_schedule_on_grid_pattern_is_consistent() {
        // 2-D 4x5 grid lower pattern (west + south neighbours).
        let (nx, ny) = (4usize, 5usize);
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut row_ptr = vec![0usize];
        let mut col = Vec::new();
        for i in 0..ny {
            for j in 0..nx {
                if j > 0 {
                    col.push(idx(i, j - 1));
                }
                if i > 0 {
                    col.push(idx(i - 1, j));
                }
                row_ptr.push(col.len());
            }
        }
        let sched = LevelSchedule::from_lower(&row_ptr, &col);
        // Anti-diagonal wavefronts: nx + ny - 1 levels.
        assert_eq!(sched.levels(), nx + ny - 1);
        let mut level_of = vec![usize::MAX; n];
        for lev in 0..sched.levels() {
            for &r in sched.level_rows(lev) {
                level_of[r as usize] = lev;
            }
        }
        for i in 0..n {
            for &j in &col[row_ptr[i]..row_ptr[i + 1]] {
                assert!(level_of[j] < level_of[i], "row {i} dep {j}");
            }
        }
    }
}
