//! Answer checks. Every solve the benchmark times is checked here; a
//! check that fails counts the operation in `failed`.

use parapre_sparse::Csr;
use parapre_trace::flatjson::{parse_flat_object, JsonValue};

/// The paper's residual-reduction target (`SessionConfig::paper`).
pub const TOL: f64 = 1e-6;

/// Largest accepted true relative residual ‖b−Ax‖/‖b‖. FGMRES stops on
/// its recursive estimate ≤ [`TOL`]; the recomputed residual may differ
/// from it by rounding, which stays far below one order of magnitude.
pub const RESIDUAL_BOUND: f64 = 10.0 * TOL;

/// ‖b − A x‖ / ‖b‖ recomputed with the sequential `Csr::spmv`.
pub fn true_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.n_rows()];
    a.spmv(x, &mut ax);
    let r2: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    (r2 / b2).sqrt()
}

/// Checks a library solve's returned `x` against the system it solved.
pub fn check_solution(a: &Csr, b: &[f64], x: &[f64], converged: bool) -> Result<(), String> {
    if !converged {
        return Err("solve did not converge".into());
    }
    if x.len() != a.n_rows() {
        return Err(format!("x has {} entries for {} unknowns", x.len(), a.n_rows()));
    }
    let rr = true_relres(a, b, x);
    if rr.is_finite() && rr <= RESIDUAL_BOUND {
        Ok(())
    } else {
        Err(format!("true relative residual {rr:e} above {RESIDUAL_BOUND:e}"))
    }
}

/// The fields of one `parapre-netd` job reply the benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub id: String,
    pub ok: bool,
    pub converged: bool,
    pub iterations: usize,
    pub true_relres: f64,
    pub queue_ms: f64,
    pub build_ms: f64,
    pub solve_ms: f64,
    pub error_kind: String,
}

/// Parses a job reply line; fields the server left out read as failures.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let f = parse_flat_object(line).map_err(|e| format!("unparsable reply {line:?}: {e}"))?;
    let num = |k: &str| f.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    let flag = |k: &str| f.get(k).and_then(JsonValue::as_bool).unwrap_or(false);
    let iterations = match f.get("iterations") {
        Some(JsonValue::Arr(v)) => v.first().and_then(JsonValue::as_f64).unwrap_or(-1.0),
        _ => -1.0,
    };
    Ok(Reply {
        id: f
            .get("id")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        ok: flag("ok"),
        converged: flag("converged"),
        iterations: if iterations >= 0.0 { iterations as usize } else { usize::MAX },
        true_relres: num("true_relres"),
        queue_ms: num("queue_ms"),
        build_ms: num("build_ms"),
        solve_ms: num("solve_ms"),
        error_kind: f
            .get("error_kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}

/// Checks a served answer: `ok`, `converged`, a true residual within
/// [`RESIDUAL_BOUND`], and the iteration count a library solve of the
/// same matrix and configuration took.
pub fn check_reply(r: &Reply, expected_iters: usize) -> Result<(), String> {
    if !r.ok {
        return Err(format!("reply {} not ok ({})", r.id, r.error_kind));
    }
    if !r.converged {
        return Err(format!("reply {} did not converge", r.id));
    }
    if !(r.true_relres.is_finite() && r.true_relres <= RESIDUAL_BOUND) {
        return Err(format!("reply {} true_relres {:e}", r.id, r.true_relres));
    }
    if r.iterations != expected_iters {
        return Err(format!(
            "reply {} took {} iterations, the library solve {expected_iters}",
            r.id, r.iterations
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> Csr {
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 4.0;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
        }
        Csr::from_dense_rows(&rows)
    }

    #[test]
    fn exact_solution_passes_and_a_wrong_one_trips() {
        let a = tridiag(8);
        let x = vec![1.0; 8];
        let mut b = vec![0.0; 8];
        a.spmv(&x, &mut b);
        assert!(check_solution(&a, &b, &x, true).is_ok());
        let mut wrong = x.clone();
        wrong[3] += 1e-3;
        assert!(check_solution(&a, &b, &wrong, true).is_err());
        assert!(check_solution(&a, &b, &x, false).is_err());
    }

    #[test]
    fn served_reply_checks_trip_on_each_defect() {
        let good = "{\"id\":\"h1\",\"ok\":true,\"converged\":true,\"iterations\":[12],\
                    \"final_relres\":8e-7,\"true_relres\":9e-7,\"cache_hit\":true,\
                    \"queue_ms\":0.01,\"build_ms\":0,\"solve_ms\":0.4}";
        let r = parse_reply(good).unwrap();
        assert!(check_reply(&r, 12).is_ok());
        assert!(check_reply(&r, 13).is_err(), "iteration mismatch must trip");
        let wrong = good.replace("\"true_relres\":9e-7", "\"true_relres\":3e-2");
        assert!(check_reply(&parse_reply(&wrong).unwrap(), 12).is_err());
        let failed = good.replace("\"ok\":true", "\"ok\":false");
        assert!(check_reply(&parse_reply(&failed).unwrap(), 12).is_err());
        let stalled = good.replace("\"converged\":true", "\"converged\":false");
        assert!(check_reply(&parse_reply(&stalled).unwrap(), 12).is_err());
        let bare = "{\"id\":\"h2\",\"ok\":true}";
        assert!(check_reply(&parse_reply(bare).unwrap(), 12).is_err());
    }
}
