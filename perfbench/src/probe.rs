//! Layer legs of the traced run. Each one times calls into one module's
//! public functions from outside the program: no span is added inside it.
//!
//! The central leg, [`solve_leg`], replays a session build and solve step
//! by step (distribute, factor, scatter, `DistGmres::solve`, true
//! residual, gather) with timing adapters around the operator and preconditioner,
//! so the FGMRES time splits into SpMV, preconditioner apply and the
//! orthogonalization left over.

use crate::check;
use crate::util::median;
use parapre_core::{build_dist_precond_with_fallback, PrecondParams};
use parapre_dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, DistOp, DistPrecond};
use parapre_engine::SessionConfig;
use parapre_krylov::Ilut;
use parapre_mpisim::{Comm, CommStats, MachineModel, Universe};
use parapre_sparse::Csr;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Message tag of the probes' own collectives (their universes run
/// nothing else).
const PROBE_TAG: u64 = 0x7e57_0000;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One (matrix, configuration) pair the legs replay: the matrix exactly
/// as the session factors it, its owner map and a right-hand side.
pub struct LayerCase<'a> {
    pub a: &'a Csr,
    pub owner: &'a [u32],
    pub b: &'a [f64],
    pub cfg: &'a SessionConfig,
}

/// What one replayed solve spent where (seconds; the slowest rank).
#[derive(Debug, Clone, Default)]
pub struct SolveLeg {
    pub iterations: usize,
    pub converged: bool,
    pub build_s: f64,
    pub fallbacks: usize,
    pub scatter_gather_s: f64,
    pub gmres_s: f64,
    pub spmv_s: f64,
    pub spmv_calls: u64,
    pub apply_s: f64,
    pub apply_calls: u64,
    pub residual_s: f64,
    /// Messages and bytes sent by all ranks during the solve.
    pub msgs: u64,
    pub bytes: u64,
    pub wait_s: f64,
    pub modeled_comm_s: f64,
    /// Whether the gathered solution passed the residual check.
    pub answer_ok: bool,
}

impl SolveLeg {
    /// FGMRES self time: what is left after SpMV and preconditioner apply
    /// (orthogonalization, Givens updates, the allreduces).
    pub fn orth_s(&self) -> f64 {
        self.gmres_s - self.spmv_s - self.apply_s
    }
}

struct TimedOp<'a> {
    inner: &'a DistMatrix,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl DistOp for TimedOp<'_> {
    fn n_owned(&self) -> usize {
        DistOp::n_owned(self.inner)
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        DistOp::apply(self.inner, comm, x, y);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

struct TimedPrecond<'a> {
    inner: &'a dyn DistPrecond,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl DistPrecond for TimedPrecond<'_> {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(comm, r, z);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replays one session build and `reps` solves of `case` inside one
/// universe. Each field is the slowest rank's figure of a solve, then the
/// median over the solves; counts come from the first solve.
pub fn solve_leg(case: &LayerCase<'_>, reps: usize) -> SolveLeg {
    let p = case.cfg.n_ranks;
    let n = case.a.n_rows();
    let machine = MachineModel::linux_cluster();
    let outs = Universe::try_run_with_threads(
        p,
        TIMEOUT,
        None,
        case.cfg.threads_per_rank,
        |comm| {
            let dm = DistMatrix::from_global(case.a, case.owner, comm.rank(), p);
            let t = Instant::now();
            let built = build_dist_precond_with_fallback(
                case.cfg.precond,
                &dm,
                comm,
                case.a,
                &case.cfg.params,
            );
            let build_s = secs(t);
            let mut legs = Vec::with_capacity(reps);
            let mut x_global = None;
            for _ in 0..reps.max(1) {
                let mut leg = SolveLeg {
                    build_s,
                    fallbacks: built.fallbacks,
                    ..SolveLeg::default()
                };
                comm.barrier(PROBE_TAG);
                let before = comm.stats();

                let t = Instant::now();
                let b_loc = scatter_vector(&dm.layout, case.b);
                let mut x = vec![0.0; dm.layout.n_owned()];
                leg.scatter_gather_s = secs(t);

                let op = TimedOp {
                    inner: &dm,
                    ns: Cell::new(0),
                    calls: Cell::new(0),
                };
                let pc = TimedPrecond {
                    inner: built.precond.as_ref(),
                    ns: AtomicU64::new(0),
                    calls: AtomicU64::new(0),
                };
                let t = Instant::now();
                let rep = DistGmres::new(case.cfg.gmres).solve(comm, &op, &pc, &b_loc, &mut x);
                leg.gmres_s = secs(t);
                leg.iterations = rep.iterations;
                leg.converged = rep.converged;
                leg.spmv_s = op.ns.get() as f64 * 1e-9;
                leg.spmv_calls = op.calls.get();
                leg.apply_s = pc.ns.load(Ordering::Relaxed) as f64 * 1e-9;
                leg.apply_calls = pc.calls.load(Ordering::Relaxed);

                let t = Instant::now();
                let mut ax = vec![0.0; x.len()];
                DistOp::apply(&dm, comm, &x, &mut ax);
                let r: Vec<f64> = b_loc.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
                let _rnorm = dm.layout.norm2(comm, &r);
                let _bnorm = dm.layout.norm2(comm, &b_loc);
                leg.residual_s = secs(t);

                let t = Instant::now();
                x_global = gather_vector(comm, &dm.layout, &x, n);
                leg.scatter_gather_s += secs(t);

                let stats = CommStats::delta(&comm.stats(), &before);
                leg.msgs = stats.msgs_sent;
                leg.bytes = stats.bytes_sent;
                leg.wait_s = stats.wait_us as f64 * 1e-6;
                leg.modeled_comm_s = stats.modeled_comm_seconds(&machine);
                legs.push(leg);
            }
            (legs, x_global)
        },
    );
    let mut per_rank = Vec::with_capacity(p);
    let mut x = None;
    for out in outs {
        let (legs, xg) = out.unwrap_or_else(|f| panic!("layer leg rank failed: {f}"));
        x = x.or(xg);
        per_rank.push(legs);
    }
    let root = &per_rank[0][0];
    let slowest = |f: fn(&SolveLeg) -> f64| -> f64 {
        let per_solve: Vec<f64> = (0..per_rank[0].len())
            .map(|i| per_rank.iter().map(|legs| f(&legs[i])).fold(0.0, f64::max))
            .collect();
        median(&per_solve)
    };
    let x = x.expect("rank 0 gathers");
    SolveLeg {
        iterations: root.iterations,
        converged: root.converged,
        build_s: slowest(|l| l.build_s),
        fallbacks: root.fallbacks,
        scatter_gather_s: slowest(|l| l.scatter_gather_s),
        gmres_s: slowest(|l| l.gmres_s),
        spmv_s: slowest(|l| l.spmv_s),
        spmv_calls: root.spmv_calls,
        apply_s: slowest(|l| l.apply_s),
        apply_calls: root.apply_calls,
        residual_s: slowest(|l| l.residual_s),
        msgs: per_rank.iter().map(|legs| legs[0].msgs).sum(),
        bytes: per_rank.iter().map(|legs| legs[0].bytes).sum(),
        wait_s: slowest(|l| l.wait_s),
        modeled_comm_s: slowest(|l| l.modeled_comm_s),
        answer_ok: check::check_solution(case.a, case.b, &x, root.converged).is_ok(),
    }
}

/// Median wall time of an empty `P`-rank universe that only barriers:
/// the fixed cost every session solve pays to launch its ranks.
pub fn launch_us(p: usize, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let outs = Universe::try_run_with_threads(p, TIMEOUT, None, None, |comm| {
                comm.barrier(PROBE_TAG)
            });
            assert!(outs.iter().all(Result::is_ok), "empty universe failed");
            secs(t) * 1e6
        })
        .collect();
    median(&samples)
}

/// Mean time of one scalar `allreduce_sum` across `p` ranks.
pub fn allreduce_us(p: usize, reps: usize) -> f64 {
    let outs = Universe::try_run_with_threads(p, TIMEOUT, None, None, |comm| {
        comm.barrier(PROBE_TAG);
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..reps {
            acc += comm.allreduce_sum(i as f64, PROBE_TAG + 1);
        }
        (secs(t) * 1e6 / reps as f64, acc)
    });
    outs.into_iter()
        .map(|o| o.expect("allreduce probe").0)
        .fold(0.0, f64::max)
}

/// Rank 0's ILUT(1e-3, 30) factor of its owned block and the median time
/// of one forward/backward sweep with it.
pub fn ilu_sweep(case: &LayerCase<'_>, params: &PrecondParams, reps: usize) -> (f64, usize) {
    let dm = DistMatrix::from_global(case.a, case.owner, 0, case.cfg.n_ranks);
    let block = dm.owned_block();
    let lu = Ilut::factor_shifted(&block, &params.ilut).expect("ILUT of the owned block");
    let rhs: Vec<f64> = (0..lu.dim()).map(|i| 1.0 + (i % 7) as f64).collect();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut x = rhs.clone();
            let t = Instant::now();
            lu.solve_in_place(&mut x);
            secs(t) * 1e6
        })
        .collect();
    (median(&samples), lu.nnz())
}

/// Sequential SpMV: median time and the bytes one product moves (values,
/// column indices, row pointers, `x` and `y`, each touched once).
pub fn spmv(a: &Csr, reps: usize) -> (f64, f64) {
    let x = vec![1.0; a.n_cols()];
    let mut y = vec![0.0; a.n_rows()];
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            a.spmv(&x, &mut y);
            secs(t) * 1e6
        })
        .collect();
    let bytes = a.nnz() * (8 + 8) + (a.n_rows() + 1) * 8 + (a.n_rows() + a.n_cols()) * 8;
    (median(&samples), bytes as f64)
}

/// Median time of `Csr::fingerprint`, which every served job recomputes.
pub fn fingerprint_us(a: &Csr, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(a.fingerprint());
            secs(t) * 1e6
        })
        .collect();
    median(&samples)
}

/// Median time to parse a `put` body with `read_matrix_market`.
pub fn mtx_parse_ms(text: &str, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let a = parapre_sparse::io::read_matrix_market(text.as_bytes()).expect("parse");
            std::hint::black_box(a.nnz());
            secs(t) * 1e3
        })
        .collect();
    median(&samples)
}

/// Time of one `partition_graph` call on `adj`.
pub fn partition_s(adj: &parapre_grid::Adjacency, p: usize, seed: u64) -> f64 {
    let t = Instant::now();
    let part = parapre_partition::partition_graph(adj, p, seed);
    std::hint::black_box(part.owner.len());
    secs(t)
}
