//! Seeded input generators. The program only ever sees what these make:
//! matrices (D·A·D value scalings and extra couplings of the paper's
//! cases), right-hand sides, the request mix and the arrival times.

use crate::util::Rng;
use parapre_core::{build_case_sized, CaseId};
use parapre_sparse::{Coo, Csr};

/// Per-purpose generator streams (see [`Rng::new`]).
pub mod stream {
    pub const SCALE: u64 = 1;
    pub const RHS: u64 = 2;
    pub const MIX: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const WRITER: u64 = 5;
    pub const CLOSED: u64 = 6;
    pub const WRITER_SCHEDULE: u64 = 16;
}

/// `D·A·D` with `d_i` drawn uniformly from `[lo, hi)`: new values on the
/// same sparsity pattern (and a new fingerprint).
pub fn scale_dad(a: &Csr, rng: &mut Rng, lo: f64, hi: f64) -> Csr {
    let d: Vec<f64> = (0..a.n_rows()).map(|_| rng.range(lo, hi)).collect();
    let row_ptr = a.row_ptr().to_vec();
    let col_idx = a.col_idx().to_vec();
    let mut vals = a.vals().to_vec();
    for i in 0..a.n_rows() {
        for k in row_ptr[i]..row_ptr[i + 1] {
            vals[k] *= d[i] * d[col_idx[k]];
        }
    }
    Csr::from_parts(a.n_rows(), a.n_cols(), row_ptr, col_idx, vals).expect("same pattern")
}

/// `a` plus `k` seeded symmetric couplings between unconnected unknowns,
/// each balanced by the same amount on both diagonals so the matrix
/// stays as diagonally dominant as it was: a new sparsity pattern.
pub fn add_couplings(a: &Csr, rng: &mut Rng, k: usize) -> Csr {
    let n = a.n_rows();
    let mut coo = Coo::with_capacity(n, n, a.nnz() + 4 * k);
    for (i, j, v) in a.iter() {
        coo.push(i, j, v);
    }
    let mut added: Vec<(usize, usize)> = Vec::with_capacity(k);
    while added.len() < k {
        let (i, j) = (rng.below(n), rng.below(n));
        let (lo, hi) = (i.min(j), i.max(j));
        if i == j || a.get(i, j) != 0.0 || added.contains(&(lo, hi)) {
            continue;
        }
        let w = 0.1 * a.get(i, i).abs().min(a.get(j, j).abs());
        coo.push(i, j, -w);
        coo.push(j, i, -w);
        coo.push(i, i, w);
        coo.push(j, j, w);
        added.push((lo, hi));
    }
    coo.to_csr()
}

/// A right-hand side `b = A x*` with `x*` uniform in `[0.5, 1.5)`.
pub fn rhs_variant(a: &Csr, rng: &mut Rng) -> Vec<f64> {
    let x: Vec<f64> = (0..a.n_cols()).map(|_| rng.range(0.5, 1.5)).collect();
    a.mul_vec(&x)
}

/// Row sums: what the server computes for `"rhs":"rowsum"`.
pub fn rowsum(a: &Csr) -> Vec<f64> {
    a.mul_vec(&vec![1.0; a.n_cols()])
}

/// Matrix Market text of `a`, as a client uploads it.
pub fn to_mtx(a: &Csr) -> String {
    let mut buf = Vec::new();
    parapre_sparse::io::write_matrix_market(a, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("ASCII Matrix Market")
}

/// How many base grids [`writer_bases`] makes.
pub const WRITER_BASES: usize = 6;

/// The base grids of the serve-churn writer: TC1 (structured Poisson) at
/// 2025, 2916 and 3969 unknowns and TC3 (unstructured Poisson) at about
/// 2000, 3000 and 4000. The seed varies what is built on them.
pub fn writer_bases(tiny: bool) -> Vec<Csr> {
    let tc1: &[usize] = if tiny { &[12, 14, 16] } else { &[45, 54, 63] };
    let tc3: &[usize] = if tiny { &[150, 200, 250] } else { &[2000, 3000, 4000] };
    tc1.iter()
        .map(|&e| build_case_sized(CaseId::Tc1, e).sys.a)
        .chain(tc3.iter().map(|&n| build_case_sized(CaseId::Tc3, n).sys.a))
        .collect()
}

/// One writer `put`: either a fresh pattern (a base plus seeded
/// couplings) or the pattern of an earlier put with new values.
pub struct WriterMatrix {
    pub a: Csr,
    pub reused: bool,
}

/// Generates the writer's `put`-th matrix. Puts take the bases in turn,
/// so every run draws the same mix of sizes. `patterns[b]` holds every
/// pattern (unscaled) made so far on base `b`; a fresh one is appended to
/// it, a reused one is drawn from it.
pub fn writer_matrix(
    rng: &mut Rng,
    bases: &[Csr],
    patterns: &mut Vec<Vec<Csr>>,
    put: usize,
    reuse_share: f64,
) -> WriterMatrix {
    patterns.resize(bases.len(), Vec::new());
    let base = put % bases.len();
    let made = &mut patterns[base];
    let reused = !made.is_empty() && rng.unit() < reuse_share;
    let pattern = if reused {
        rng.below(made.len())
    } else {
        made.push(add_couplings(&bases[base], rng, 8));
        made.len() - 1
    };
    let a = scale_dad(&made[pattern], rng, 0.8, 1.25);
    WriterMatrix { a, reused }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_keeps_pattern_and_couplings_change_it() {
        let a = build_case_sized(CaseId::Tc1, 6).sys.a;
        let s = scale_dad(&a, &mut Rng::new(1, 1), 0.8, 1.25);
        assert_eq!(s.col_idx(), a.col_idx());
        assert_ne!(s.fingerprint(), a.fingerprint());
        let c = add_couplings(&a, &mut Rng::new(1, 2), 3);
        assert_eq!(c.nnz(), a.nnz() + 6);
    }

    #[test]
    fn generators_repeat_under_a_seed() {
        let a = build_case_sized(CaseId::Tc1, 6).sys.a;
        let b1 = rhs_variant(&a, &mut Rng::new(9, stream::RHS));
        let b2 = rhs_variant(&a, &mut Rng::new(9, stream::RHS));
        assert_eq!(b1, b2);
    }
}
