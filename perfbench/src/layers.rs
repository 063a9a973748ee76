//! Per-key layer measurements of the traced run and their roll-up into
//! the `per_layer` figures every workload reports.

use crate::probe::{self, LayerCase, SolveLeg};
use crate::util::{median, Figures};
use parapre_engine::SolverSession;
use parapre_grid::Adjacency;
use std::time::Instant;

/// Everything the library legs measured for one (matrix, config) key.
pub struct KeyLayers {
    pub leg: SolveLeg,
    /// Median wall time of a library `SolverSession::solve` of the key.
    pub session_solve_s: f64,
    pub launch_us: f64,
    pub sweep_us: f64,
    pub factor_nnz: usize,
    pub spmv_us: f64,
    pub spmv_bytes: f64,
    pub fingerprint_us: f64,
    pub mtx_parse_ms: f64,
    pub partition_s: f64,
}

impl KeyLayers {
    /// The session solve's time that no finer span covers (scatter/gather
    /// plumbing, result assembly, everything `solve` does besides
    /// launching ranks and iterating).
    pub fn session_self_s(&self) -> f64 {
        self.session_solve_s - self.launch_us * 1e-6 - self.leg.gmres_s
    }

    /// Time of one session solve covered by a layer span of its own.
    pub fn covered_solve_s(&self) -> f64 {
        self.launch_us * 1e-6
            + self.leg.scatter_gather_s
            + self.leg.spmv_s
            + self.leg.apply_s
            + self.leg.orth_s()
            + self.leg.residual_s
    }
}

/// How many repetitions the cheap probes take.
pub struct Reps {
    pub solves: usize,
    pub kernels: usize,
    pub parses: usize,
}

/// Runs every library leg for one key. `session` is a built session of
/// the same key; `adj` is the graph its partition came from.
pub fn measure_key(
    case: &LayerCase<'_>,
    session: &SolverSession,
    adj: &Adjacency,
    launch_us: f64,
    reps: &Reps,
) -> KeyLayers {
    let leg = probe::solve_leg(case, reps.solves);
    let solves: Vec<f64> = (0..reps.solves)
        .map(|_| {
            let t = Instant::now();
            let rep = session.solve(case.b).expect("library solve");
            std::hint::black_box(rep.iterations);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let (sweep_us, factor_nnz) = probe::ilu_sweep(case, &case.cfg.params, reps.kernels);
    let (spmv_us, spmv_bytes) = probe::spmv(case.a, reps.kernels);
    let text = crate::inputs::to_mtx(case.a);
    KeyLayers {
        leg,
        session_solve_s: median(&solves),
        launch_us,
        sweep_us,
        factor_nnz,
        spmv_us,
        spmv_bytes,
        fingerprint_us: probe::fingerprint_us(case.a, reps.kernels),
        mtx_parse_ms: probe::mtx_parse_ms(&text, reps.parses),
        partition_s: probe::partition_s(adj, case.cfg.n_ranks, case.cfg.partition_seed),
    }
}

/// Sums the keys' library legs into the per-layer figures (sums over the
/// workload's keys; per-iteration traffic is total traffic over total
/// iterations). Returns how many legs failed their own checks: an
/// iteration count different from `expected_iters` or a wrong answer.
pub fn roll_up(keys: &[KeyLayers], expected_iters: &[usize], fig: &mut Figures) -> u64 {
    let sum = |f: &dyn Fn(&KeyLayers) -> f64| keys.iter().map(f).sum::<f64>();
    let iters = keys.iter().map(|k| k.leg.iterations).sum::<usize>().max(1) as f64;
    fig.set("dist.gmres_s", sum(&|k| k.leg.gmres_s));
    fig.set("dist.spmv_s", sum(&|k| k.leg.spmv_s));
    fig.set("dist.spmv_calls", sum(&|k| k.leg.spmv_calls as f64));
    fig.set("dist.orth_s", sum(&|k| k.leg.orth_s()));
    fig.set("dist.scatter_gather_s", sum(&|k| k.leg.scatter_gather_s));
    fig.set("dist.residual_s", sum(&|k| k.leg.residual_s));
    fig.set("core.precond_apply_s", sum(&|k| k.leg.apply_s));
    fig.set("core.precond_apply_calls", sum(&|k| k.leg.apply_calls as f64));
    fig.set("core.precond_build_s", sum(&|k| k.leg.build_s));
    fig.set("core.fallbacks", sum(&|k| k.leg.fallbacks as f64));
    fig.set("mpisim.msgs_per_iter", sum(&|k| k.leg.msgs as f64) / iters);
    fig.set("mpisim.bytes_per_iter", sum(&|k| k.leg.bytes as f64) / iters);
    fig.set("mpisim.wait_s", sum(&|k| k.leg.wait_s));
    fig.set("mpisim.modeled_comm_s", sum(&|k| k.leg.modeled_comm_s));
    fig.set("krylov.sweep_us", sum(&|k| k.sweep_us));
    fig.set("krylov.factor_nnz", sum(&|k| k.factor_nnz as f64));
    fig.set("sparse.spmv_us", sum(&|k| k.spmv_us));
    fig.set("sparse.spmv_bytes", sum(&|k| k.spmv_bytes));
    fig.set(
        "sparse.spmv_gbs",
        sum(&|k| k.spmv_bytes) / (sum(&|k| k.spmv_us) * 1e-6) / 1e9,
    );
    fig.set("sparse.fingerprint_us", sum(&|k| k.fingerprint_us));
    fig.set("sparse.mtx_parse_ms", sum(&|k| k.mtx_parse_ms));
    fig.set("partition.s", sum(&|k| k.partition_s));
    fig.set("engine.session_self_ms", sum(&|k| k.session_self_s()) * 1e3);
    keys.iter()
        .zip(expected_iters)
        .filter(|(k, &want)| k.leg.iterations != want || !k.leg.answer_ok)
        .count() as u64
}

/// `100 · (e2e − covered) / e2e`: the share of end-to-end time that no
/// layer's own span accounts for.
pub fn unattributed_pct(e2e: f64, covered: f64) -> f64 {
    100.0 * (e2e - covered) / e2e
}

/// Paired overhead in percent: `run(false)` and `run(true)` (the variant
/// with the instrument on) are timed alternately, and the result is the
/// median of the per-pair ratios, minus one.
pub fn paired_overhead_pct(pairs: usize, mut run: impl FnMut(bool) -> f64) -> f64 {
    let ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = run(false);
                (off, run(true))
            } else {
                let on = run(true);
                (run(false), on)
            };
            on / off
        })
        .collect();
    100.0 * (median(&ratios) - 1.0)
}

/// [`paired_overhead_pct`] of the `parapre_metrics` registry: `unit` runs
/// with recording off, then on.
pub fn metrics_overhead_pct(pairs: usize, mut unit: impl FnMut() -> f64) -> f64 {
    paired_overhead_pct(pairs, |on| {
        parapre_metrics::set_enabled(on);
        let dt = unit();
        parapre_metrics::set_enabled(true);
        dt
    })
}
