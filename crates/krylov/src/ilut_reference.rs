//! Test oracle: the original ILUT elimination, kept verbatim as a
//! reference for [`crate::ilu::Ilut::factor`].
//!
//! Pending lower columns live in a `BTreeSet` and the L and U parts are
//! stored apart and merged at the end. The production kernel must
//! reproduce this merged factor and its pivot-fix count bit for bit. The
//! file only depends on `parapre_sparse`, so integration tests outside
//! this crate include it by path.

use parapre_sparse::Csr;

/// ILUT(`drop_tol`, `fill`) of `a` by the reference elimination: the
/// merged factor (strict lower `L`, then the pivot, then strict upper `U`
/// in every row) and the number of replaced pivots.
pub fn ilut_reference(a: &Csr, drop_tol: f64, fill: usize) -> (Csr, usize) {
    let n = a.n_rows();
    assert_eq!(n, a.n_cols(), "ILUT reference needs a square matrix");
    // U rows built so far (strict upper part), flat storage.
    let mut u_row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    let mut u_cols: Vec<usize> = Vec::new();
    let mut u_vals: Vec<f64> = Vec::new();
    let mut u_diag: Vec<f64> = Vec::with_capacity(n);
    u_row_ptr.push(0);
    // L rows (strict lower part).
    let mut l_row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    let mut l_cols: Vec<usize> = Vec::new();
    let mut l_vals: Vec<f64> = Vec::new();
    l_row_ptr.push(0);

    let mut w = vec![0.0f64; n]; // dense accumulator
    let mut in_w = vec![false; n];
    let mut upper_list: Vec<usize> = Vec::new();
    let mut pending = std::collections::BTreeSet::new(); // lower indices to eliminate
    let mut pivot_fixes = 0usize;

    for i in 0..n {
        let (cols, vals) = a.row(i);
        let rownorm = {
            let s: f64 = vals.iter().map(|v| v * v).sum();
            (s / cols.len().max(1) as f64).sqrt()
        };
        let tau_i = drop_tol * rownorm;
        upper_list.clear();
        pending.clear();
        let mut have_diag = false;
        for (&j, &v) in cols.iter().zip(vals) {
            w[j] = v;
            in_w[j] = true;
            match j.cmp(&i) {
                std::cmp::Ordering::Less => {
                    pending.insert(j);
                }
                std::cmp::Ordering::Equal => have_diag = true,
                std::cmp::Ordering::Greater => upper_list.push(j),
            }
        }
        if !have_diag {
            w[i] = 0.0;
            in_w[i] = true;
        }
        let mut lower_kept: Vec<(usize, f64)> = Vec::new();
        while let Some(k) = pending.pop_first() {
            let lik = w[k] / u_diag[k];
            w[k] = 0.0;
            in_w[k] = false;
            if lik.abs() < tau_i {
                continue; // drop the multiplier, skip the update
            }
            // w -= lik * U_row(k)   (strict upper part of row k)
            for idx in u_row_ptr[k]..u_row_ptr[k + 1] {
                let j = u_cols[idx];
                let upd = lik * u_vals[idx];
                if in_w[j] {
                    w[j] -= upd;
                } else {
                    w[j] = -upd;
                    in_w[j] = true;
                    match j.cmp(&i) {
                        std::cmp::Ordering::Less => {
                            pending.insert(j);
                        }
                        std::cmp::Ordering::Equal => {}
                        std::cmp::Ordering::Greater => upper_list.push(j),
                    }
                }
            }
            lower_kept.push((k, lik));
        }
        // Select the p largest lower entries (multipliers).
        if lower_kept.len() > fill {
            lower_kept.sort_unstable_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
            lower_kept.truncate(fill);
        }
        lower_kept.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &lower_kept {
            l_cols.push(j);
            l_vals.push(v);
        }
        l_row_ptr.push(l_cols.len());

        // Diagonal with zero-pivot protection.
        let mut dii = w[i];
        w[i] = 0.0;
        in_w[i] = false;
        if dii.abs() < f64::MIN_POSITIVE * 1e4 {
            let fallback = if tau_i > 0.0 { tau_i } else { 1e-8 };
            dii = if dii < 0.0 { -fallback } else { fallback };
            pivot_fixes += 1;
        }
        u_diag.push(dii);

        // Select the p largest upper entries above the drop threshold.
        let mut upper_kept: Vec<(usize, f64)> = upper_list
            .iter()
            .filter_map(|&j| {
                let v = w[j];
                w[j] = 0.0;
                in_w[j] = false;
                (v.abs() >= tau_i).then_some((j, v))
            })
            .collect();
        if upper_kept.len() > fill {
            upper_kept.sort_unstable_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
            upper_kept.truncate(fill);
        }
        upper_kept.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &upper_kept {
            u_cols.push(j);
            u_vals.push(v);
        }
        u_row_ptr.push(u_cols.len());
    }

    // Merge L, diag, U into a single CSR factor.
    let nnz = l_cols.len() + n + u_cols.len();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for i in 0..n {
        for idx in l_row_ptr[i]..l_row_ptr[i + 1] {
            col_idx.push(l_cols[idx]);
            vals.push(l_vals[idx]);
        }
        col_idx.push(i);
        vals.push(u_diag[i]);
        for idx in u_row_ptr[i]..u_row_ptr[i + 1] {
            col_idx.push(u_cols[idx]);
            vals.push(u_vals[idx]);
        }
        row_ptr.push(col_idx.len());
    }
    (
        Csr::from_parts_unchecked(n, n, row_ptr, col_idx, vals),
        pivot_fixes,
    )
}

/// Compares a merged factor and its pivot-fix count with the reference
/// pair: `None` when they match bit for bit (row pointers, columns, value
/// bits, pivot fixes), otherwise the first difference.
pub fn factor_mismatch(got: (&Csr, usize), want: (&Csr, usize)) -> Option<String> {
    let ((g, g_fixes), (r, r_fixes)) = (got, want);
    if g.row_ptr() != r.row_ptr() {
        return Some("row pointers differ".into());
    }
    if g.col_idx() != r.col_idx() {
        return Some("columns differ".into());
    }
    if let Some(k) = (0..g.nnz()).find(|&k| g.vals()[k].to_bits() != r.vals()[k].to_bits()) {
        return Some(format!(
            "value {k} differs: {:e} vs {:e}",
            g.vals()[k],
            r.vals()[k]
        ));
    }
    (g_fixes != r_fixes).then(|| format!("pivot fixes differ: {g_fixes} vs {r_fixes}"))
}
