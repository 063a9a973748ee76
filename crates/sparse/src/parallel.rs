//! In-rank data parallelism: a workspace-shared worker pool and the
//! **nested-parallelism budget** that keeps `ranks × threads ≤ cores`.
//!
//! The workspace runs distributed algorithms as `P` rank threads inside a
//! `parapre-mpisim` universe. A data-parallel kernel such as
//! [`Csr::spmv_par`](crate::Csr::spmv_par) that sized itself from
//! `available_parallelism()` *per call* would oversubscribe the machine
//! `P`-fold (every rank thread spawning a full complement of workers).
//! Earlier revisions solved this with a binary "serial region" flag that
//! forced rank threads fully serial; this module replaces that flag with a
//! thread-local **budget**: the number of threads (including the calling
//! thread) a kernel may occupy. The mpisim launcher hands each rank
//! `max(1, cores / P)` by default, so ranks still fan out a bounded number
//! of workers instead of falling back to scalar loops.
//!
//! * [`current_budget`] / [`enter_budget`] — read / scope the budget;
//!   [`can_fan_out`] — whether the pool can actually run parts at once.
//! * [`rank_budget`] — the budget a universe launcher assigns to each rank:
//!   `PARAPRE_THREADS` (or an explicit config override) wins, otherwise
//!   `⌊outer/P⌋`, always ≥ 1 and never above the launcher's own budget (so
//!   nested universes cannot escape the outer limit).
//! * [`run_parts`] / [`for_each_chunk_mut`] — execute disjoint parts on the
//!   shared pool (behind the `parallel` cargo feature; without it both run
//!   serially with identical chunking, so results are bitwise identical).
//!
//! Workers are long-lived threads parked on a channel; a kernel invocation
//! borrows up to `budget − 1` idle workers from a global free list, the
//! caller participates in the part loop itself, and the workers are
//! returned when the last part completes. Pool workers run with a budget
//! of 1, so nested kernels inside a fanned-out part never fan out again.

use std::cell::Cell;

/// Environment variable overriding the default per-rank thread budget
/// (`threads_per_rank = max(1, cores / P)`) at universe launch.
pub const THREADS_ENV: &str = "PARAPRE_THREADS";

thread_local! {
    /// Budget pinned on this thread by [`enter_budget`]; `None` means the
    /// thread is unconstrained (whole machine).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of hardware threads the machine reports (≥ 1).
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The calling thread's fan-out budget: how many threads (including
/// itself) a data-parallel kernel may occupy. Threads outside any universe
/// default to the whole machine.
pub fn current_budget() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(machine_parallelism)
}

/// Whether a kernel on the calling thread can run parts concurrently:
/// the `parallel` feature is on and the budget allows more than one
/// thread. Without the feature [`run_parts`] and [`for_each_chunk_mut`]
/// run their parts one after another, so a kernel whose parallel form
/// does extra work (a different visiting order, a scatter copy) should
/// take its plain serial path whenever this is `false`.
pub fn can_fan_out() -> bool {
    cfg!(feature = "parallel") && current_budget() > 1
}

/// RAII guard returned by [`enter_budget`]; dropping it restores the
/// thread's previous budget. Deliberately `!Send`: the budget is
/// thread-local state and the guard must drop on the thread that made it.
#[derive(Debug)]
pub struct BudgetGuard {
    prev: Option<usize>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.prev));
    }
}

/// Pins the calling thread's budget to `threads` (clamped to ≥ 1) until
/// the returned guard drops. Used by mpisim rank threads at universe
/// launch and by tests that pin kernels to a given fan-out.
pub fn enter_budget(threads: usize) -> BudgetGuard {
    let prev = BUDGET.with(|b| b.replace(Some(threads.max(1))));
    BudgetGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Reads the [`THREADS_ENV`] override: a positive integer number of
/// threads per rank, or `None` when unset/unparsable.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

/// Pure budget math: the per-rank budget for a `n_ranks`-rank universe
/// launched from a thread whose own budget is `outer`.
///
/// The default share is `⌊outer / P⌋` (min 1); an explicit override wins
/// over the share but is still clamped to `[1, outer]`, so a nested
/// universe (e.g. a degraded-mode re-launch from inside a rank) can never
/// exceed the budget of the thread that launched it.
pub fn rank_budget_from(outer: usize, n_ranks: usize, override_threads: Option<usize>) -> usize {
    let outer = outer.max(1);
    let share = (outer / n_ranks.max(1)).max(1);
    override_threads.unwrap_or(share).clamp(1, outer)
}

/// Per-rank budget for a universe launched from the current thread.
/// Precedence: `explicit` (config knob) > [`THREADS_ENV`] > `⌊outer/P⌋`.
pub fn rank_budget(n_ranks: usize, explicit: Option<usize>) -> usize {
    rank_budget_from(current_budget(), n_ranks, explicit.or_else(env_threads))
}

/// Runs `f(part)` for every `part` in `0..n_parts`, on the shared worker
/// pool when the `parallel` feature is enabled (and idle workers exist),
/// serially otherwise. Parts must be independent: `f` is called exactly
/// once per part, in unspecified order, possibly concurrently.
///
/// The calling thread always participates, so the call never deadlocks
/// even when every pool worker is busy. Panics inside `f` are forwarded
/// to the caller after all parts finish.
pub fn run_parts<F>(n_parts: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if n_parts <= 1 {
        if n_parts == 1 {
            f(0);
        }
        return;
    }
    #[cfg(feature = "parallel")]
    {
        pool::run(n_parts, &f);
    }
    #[cfg(not(feature = "parallel"))]
    {
        for p in 0..n_parts {
            f(p);
        }
    }
}

/// Splits `out` into at most `n_parts` near-equal contiguous chunks and
/// runs `f(part, start_index, chunk)` for each — the workhorse behind the
/// parallel BLAS-1 kernels and the row-chunked SpMV.
///
/// The chunk boundaries depend only on `out.len()` and `n_parts`, and the
/// serial and pooled paths use identical boundaries, so any kernel whose
/// per-element result does not depend on the chunking produces bitwise
/// identical output at every worker count.
pub fn for_each_chunk_mut<F>(out: &mut [f64], n_parts: usize, f: F)
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let n = out.len();
    let parts = n_parts.clamp(1, n.max(1));
    if parts <= 1 {
        f(0, 0, out);
        return;
    }
    let chunk = n.div_ceil(parts);
    let parts = n.div_ceil(chunk);
    #[cfg(feature = "parallel")]
    {
        let base = pool::SyncPtr(out.as_mut_ptr());
        pool::run(parts, &|p| {
            let lo = p * chunk;
            let hi = (lo + chunk).min(n);
            let part = pool::shard(base, lo, hi);
            f(p, lo, part);
        });
    }
    #[cfg(not(feature = "parallel"))]
    {
        for (p, s) in out.chunks_mut(chunk).enumerate() {
            f(p, p * chunk, s);
        }
        let _ = parts;
    }
}

/// Pool workers currently executing a kernel (0 without the `parallel`
/// feature) — the live value behind the `parapre_pool_busy` gauge.
pub fn busy_workers() -> usize {
    #[cfg(feature = "parallel")]
    {
        pool::busy_workers()
    }
    #[cfg(not(feature = "parallel"))]
    {
        0
    }
}

/// The shared long-lived worker pool. This is the only module in the
/// workspace that needs `unsafe`: the lifetime-erased job pointer handed
/// to the workers, and the disjoint sub-slice shards of
/// [`for_each_chunk_mut`]. Both are sound because [`pool::run`] does not
/// return until every part has finished (completion latch), so the
/// borrows the workers see never outlive the caller's frame.
#[cfg(feature = "parallel")]
#[allow(unsafe_code)]
mod pool {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// Raw base pointer of a caller-owned `&mut [f64]`, sendable to pool
    /// workers so they can carve out their disjoint shard.
    #[derive(Clone, Copy)]
    pub(super) struct SyncPtr(pub *mut f64);
    // SAFETY: the pointer is only dereferenced through `shard`, whose
    // ranges are disjoint per part, while the owning slice is mutably
    // borrowed by the (blocked) caller of `run`.
    unsafe impl Send for SyncPtr {}
    unsafe impl Sync for SyncPtr {}

    /// Reborrows `base[lo..hi]` as a mutable shard. Caller contract:
    /// shards of concurrently running parts are disjoint and in-bounds.
    pub(super) fn shard<'a>(base: SyncPtr, lo: usize, hi: usize) -> &'a mut [f64] {
        // SAFETY: see `SyncPtr` — disjoint in-bounds ranges, caller blocked.
        unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) }
    }

    /// One fan-out invocation: the part counter the participants drain and
    /// the completion latch the caller waits on.
    struct JobState {
        /// Lifetime-erased borrow of the caller's closure; never touched
        /// after `pending` reaches zero, which `run` waits for.
        func: &'static (dyn Fn(usize) + Sync),
        next: AtomicUsize,
        n_parts: usize,
        pending: AtomicUsize,
        done: Mutex<bool>,
        cv: Condvar,
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }

    struct Pool {
        senders: Vec<Sender<Arc<JobState>>>,
        idle: Mutex<Vec<usize>>,
        busy: AtomicUsize,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            // Enough workers to saturate the machine. The small floor keeps
            // the pooled code paths genuinely multi-threaded (and the
            // bitwise-determinism tests meaningful) even on tiny boxes,
            // where the budget already bounds how many run at once.
            let n = super::machine_parallelism().saturating_sub(1).clamp(3, 63);
            let mut senders = Vec::with_capacity(n);
            for w in 0..n {
                let (tx, rx) = channel::<Arc<JobState>>();
                senders.push(tx);
                std::thread::Builder::new()
                    .name(format!("parapre-pool-{w}"))
                    .spawn(move || {
                        // Leaf workers never fan out further.
                        let _leaf = super::enter_budget(1);
                        while let Ok(job) = rx.recv() {
                            work(&job);
                        }
                    })
                    .expect("spawn parapre pool worker");
            }
            Pool {
                senders,
                idle: Mutex::new((0..n).collect()),
                busy: AtomicUsize::new(0),
            }
        })
    }

    /// Drains parts from the job's shared counter until none remain, then
    /// counts down the latch (worker side).
    fn work(job: &JobState) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drain(job))) {
            let mut slot = job.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = job.done.lock().unwrap();
            *done = true;
            job.cv.notify_all();
        }
    }

    fn drain(job: &JobState) {
        loop {
            let p = job.next.fetch_add(1, Ordering::Relaxed);
            if p >= job.n_parts {
                break;
            }
            (job.func)(p);
        }
    }

    pub(super) fn busy_workers() -> usize {
        POOL.get().map_or(0, |p| p.busy.load(Ordering::Relaxed))
    }

    fn set_busy_gauge(pool: &Pool) {
        if parapre_metrics::enabled() {
            parapre_metrics::gauge_set(
                parapre_metrics::names::POOL_BUSY,
                pool.busy.load(Ordering::Relaxed) as f64,
            );
        }
    }

    pub(super) fn run(n_parts: usize, f: &(dyn Fn(usize) + Sync)) {
        let budget = super::current_budget();
        let want = n_parts.min(budget).saturating_sub(1);
        if want == 0 {
            for p in 0..n_parts {
                f(p);
            }
            return;
        }
        let pool = pool();
        let workers: Vec<usize> = {
            let mut idle = pool.idle.lock().unwrap();
            let take = want.min(idle.len());
            let cut = idle.len() - take;
            idle.split_off(cut)
        };
        if workers.is_empty() {
            // Every worker is busy with some other rank's kernel; the
            // budget invariant means this is transient — just run inline.
            for p in 0..n_parts {
                f(p);
            }
            return;
        }
        // SAFETY: the 'static lifetime is a lie the completion latch makes
        // true — `run` does not return until `pending == 0`, after which no
        // worker dereferences `func` again.
        let func: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let job = Arc::new(JobState {
            func,
            next: AtomicUsize::new(0),
            n_parts,
            pending: AtomicUsize::new(workers.len()),
            done: Mutex::new(false),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        pool.busy.fetch_add(workers.len(), Ordering::Relaxed);
        set_busy_gauge(pool);
        for &w in &workers {
            pool.senders[w]
                .send(job.clone())
                .expect("pool worker outlives the process");
        }
        // The caller participates, pulling parts from the same counter.
        let caller = catch_unwind(AssertUnwindSafe(|| drain(&job)));
        // Wait out the workers even if the caller's share panicked: they
        // must not touch `func` (or the shards) after this frame unwinds.
        {
            let mut done = job.done.lock().unwrap();
            while !*done {
                done = job.cv.wait(done).unwrap();
            }
        }
        pool.busy.fetch_sub(workers.len(), Ordering::Relaxed);
        set_busy_gauge(pool);
        pool.idle.lock().unwrap().extend(workers);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        let worker_panic = job.panic.lock().unwrap().take();
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn budget_is_scoped_and_nests() {
        let outer = current_budget();
        assert!(outer >= 1);
        {
            let _g = enter_budget(4);
            assert_eq!(current_budget(), 4);
            {
                let _g2 = enter_budget(2);
                assert_eq!(current_budget(), 2);
            }
            assert_eq!(current_budget(), 4);
        }
        assert_eq!(current_budget(), outer);
    }

    #[test]
    fn budget_is_per_thread_and_clamped() {
        let _g = enter_budget(0); // clamps to 1
        assert_eq!(current_budget(), 1);
        let other = std::thread::spawn(current_budget).join().unwrap();
        assert_eq!(
            other,
            machine_parallelism(),
            "budget must not leak across threads"
        );
    }

    #[test]
    fn rank_budget_math() {
        // ⌊C/P⌋ with a floor of 1.
        assert_eq!(rank_budget_from(8, 2, None), 4);
        assert_eq!(rank_budget_from(8, 3, None), 2);
        assert_eq!(rank_budget_from(8, 16, None), 1);
        assert_eq!(rank_budget_from(1, 4, None), 1);
        // An explicit override wins over the share…
        assert_eq!(rank_budget_from(8, 8, Some(4)), 4);
        // …but never exceeds the outer budget (nested universes), and
        // never drops below 1.
        assert_eq!(rank_budget_from(4, 2, Some(16)), 4);
        assert_eq!(rank_budget_from(4, 2, Some(0)), 1);
        // Degenerate launcher budgets are treated as 1.
        assert_eq!(rank_budget_from(0, 1, Some(3)), 1);
    }

    #[test]
    fn run_parts_covers_each_part_once() {
        for budget in [1usize, 2, 4, 8] {
            let _g = enter_budget(budget);
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            run_parts(hits.len(), |p| {
                hits[p].fetch_add(1, Ordering::Relaxed);
            });
            for (p, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "part {p} at budget {budget}");
            }
        }
    }

    #[test]
    fn chunked_fill_is_disjoint_and_complete() {
        for budget in [1usize, 2, 3, 8] {
            let _g = enter_budget(budget);
            let mut out = vec![0.0f64; 1000];
            for_each_chunk_mut(&mut out, budget, |_, start, chunk| {
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o += (start + k) as f64;
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as f64, "budget {budget}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_slices_are_fine() {
        let mut empty: Vec<f64> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, |_, _, c| assert!(c.is_empty()));
        let mut one = vec![1.0];
        for_each_chunk_mut(&mut one, 4, |_, start, c| {
            assert_eq!((start, c.len()), (0, 1));
            c[0] = 2.0;
        });
        assert_eq!(one, vec![2.0]);
        run_parts(0, |_| panic!("no parts to run"));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn pool_forwards_panics() {
        let _g = enter_budget(4);
        let caught = std::panic::catch_unwind(|| {
            run_parts(8, |p| {
                if p == 5 {
                    panic!("boom in part 5");
                }
            });
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool stays usable afterwards.
        let hits = AtomicUsize::new(0);
        run_parts(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }
}
