//! Error metrics: everything the paper's experiment section reports.
//!
//! - [`error_report`] computes, in one pass over the original data, the
//!   **RMSPE** of Def. 5.1 (root sum of squared errors normalized by the
//!   root sum of squared deviations from the dataset mean), the
//!   **worst-case absolute** cell error and its **normalized** form
//!   `|err|_max / σ` used in Tables 3–4 and Fig. 7, and the median /
//!   mean absolute error (the Fig. 8 discussion);
//! - [`error_spectrum`] returns the top-`n` absolute cell errors in
//!   descending order — the rank-ordered curve of Fig. 8;
//! - [`QueryError::q_err`] is Eq. 14:
//!   `|f(X) − f(X̂)| / |f(X)|` for an aggregate query.

use ats_common::{AtsError, OnlineStats, Result, TopK};
use ats_compress::CompressedMatrix;
use ats_storage::RowSource;

/// Reconstruction-error summary of one compressed representation against
/// the original data.
#[derive(Debug, Clone, Copy)]
pub struct ErrorReport {
    /// Def. 5.1: `sqrt(ΣΣ(x̂−x)²) / sqrt(ΣΣ(x−x̄)²)`.
    pub rmspe: f64,
    /// Largest absolute single-cell error.
    pub max_abs_error: f64,
    /// `max_abs_error / σ(X)` — the "normalized" worst case of Table 3.
    pub max_normalized_error: f64,
    /// Mean absolute cell error.
    pub mean_abs_error: f64,
    /// Standard deviation of the original data (the normalizer).
    pub data_std_dev: f64,
    /// Total squared error (numerator of RMSPE, squared).
    pub sse: f64,
    /// Number of cells compared.
    pub cells: u64,
}

/// Compare `compressed` against the original `source` in one streaming
/// pass. Errors if dimensions disagree.
pub fn error_report(
    source: &dyn RowSource,
    compressed: &dyn CompressedMatrix,
) -> Result<ErrorReport> {
    let (n, m) = (source.rows(), source.cols());
    if (n, m) != (compressed.rows(), compressed.cols()) {
        // The doc contract is "errors if dimensions disagree" — both
        // arguments arrive from outside (a data file and a store
        // directory), so a mismatch is the caller's input, not a bug.
        return Err(AtsError::dims(
            "error_report",
            (compressed.rows(), compressed.cols()),
            (n, m),
        ));
    }
    let mut data_stats = OnlineStats::new();
    let mut abs_err = OnlineStats::new();
    let mut sse = 0.0f64;
    let mut recon = vec![0.0f64; m];
    source.for_each_row(&mut |i, row| {
        compressed.row_into(i, &mut recon)?;
        for (&x, &r) in row.iter().zip(recon.iter()) {
            data_stats.push(x);
            let e = r - x;
            abs_err.push(e.abs());
            sse += e * e;
        }
        Ok(())
    })?;
    let denom = data_stats.sum_squared_deviations();
    let sd = data_stats.population_std_dev();
    Ok(ErrorReport {
        rmspe: if denom > 0.0 {
            (sse / denom).sqrt()
        } else {
            0.0
        },
        max_abs_error: if abs_err.count() == 0 {
            0.0
        } else {
            abs_err.max()
        },
        max_normalized_error: if sd > 0.0 && abs_err.count() > 0 {
            abs_err.max() / sd
        } else {
            0.0
        },
        mean_abs_error: abs_err.mean(),
        data_std_dev: sd,
        sse,
        cells: data_stats.count(),
    })
}

/// The `n` largest absolute cell errors, descending — Fig. 8's
/// rank-ordered error curve (the paper plots the first 50 000).
pub fn error_spectrum(
    source: &dyn RowSource,
    compressed: &dyn CompressedMatrix,
    n: usize,
) -> Result<Vec<f64>> {
    let m = source.cols();
    let mut top: TopK<()> = TopK::new(n);
    let mut recon = vec![0.0f64; m];
    source.for_each_row(&mut |i, row| {
        compressed.row_into(i, &mut recon)?;
        for (&x, &r) in row.iter().zip(recon.iter()) {
            top.offer((r - x).abs(), ());
        }
        Ok(())
    })?;
    Ok(top.into_sorted_vec().into_iter().map(|(e, ())| e).collect())
}

/// Aggregate-query error bookkeeping (Eq. 14).
#[derive(Debug, Clone, Copy)]
pub struct QueryError;

impl QueryError {
    /// Eq. 14: `|f(X) − f(X̂)| / |f(X)|`. Returns the absolute error when
    /// the exact answer is ~0 (the relative form would blow up).
    pub fn q_err(exact: f64, approx: f64) -> f64 {
        let diff = (exact - approx).abs();
        if exact.abs() > 1e-12 {
            diff / exact.abs()
        } else {
            diff
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactMatrix;
    use ats_compress::{CompressedMatrix, SpaceBudget, SvdCompressed};
    use ats_linalg::Matrix;

    fn data() -> Matrix {
        Matrix::from_fn(40, 8, |i, j| ((i * 7 + j * 3) % 11) as f64 + 1.0)
    }

    #[test]
    fn exact_reconstruction_zero_error() {
        let x = data();
        let e = ExactMatrix(x.clone());
        let r = error_report(&x, &e).unwrap();
        assert_eq!(r.rmspe, 0.0);
        assert_eq!(r.max_abs_error, 0.0);
        assert_eq!(r.max_normalized_error, 0.0);
        assert_eq!(r.cells, 320);
        assert!(r.data_std_dev > 0.0);
    }

    #[test]
    fn rmspe_matches_definition() {
        let x = data();
        let c = SvdCompressed::compress(&x, 2, 1).unwrap();
        let r = error_report(&x, &c).unwrap();
        // recompute by hand
        let mean = x.mean();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let xhat = c.cell(i, j).unwrap();
                num += (xhat - x[(i, j)]).powi(2);
                den += (x[(i, j)] - mean).powi(2);
            }
        }
        assert!((r.rmspe - (num / den).sqrt()).abs() < 1e-12);
        assert!(r.rmspe > 0.0);
    }

    #[test]
    fn max_normalized_is_max_over_sd() {
        let x = data();
        let c = SvdCompressed::compress(&x, 1, 1).unwrap();
        let r = error_report(&x, &c).unwrap();
        assert!((r.max_normalized_error - r.max_abs_error / r.data_std_dev).abs() < 1e-12);
    }

    #[test]
    fn spectrum_sorted_and_bounded() {
        let x = data();
        let c = SvdCompressed::compress(&x, 1, 1).unwrap();
        let spec = error_spectrum(&x, &c, 50).unwrap();
        assert_eq!(spec.len(), 50);
        for w in spec.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let r = error_report(&x, &c).unwrap();
        assert!((spec[0] - r.max_abs_error).abs() < 1e-12);
    }

    #[test]
    fn spectrum_larger_than_cells_returns_all() {
        let x = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let c = ExactMatrix(x.clone());
        let spec = error_spectrum(&x, &c, 100).unwrap();
        assert_eq!(spec.len(), 9);
        assert!(spec.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        // Regression: this used to be an `assert_eq!` that aborted the
        // process, contradicting the documented "errors if dimensions
        // disagree" contract.
        let x = data(); // 40 x 8
        let smaller = ExactMatrix(Matrix::from_fn(40, 7, |_, _| 0.0));
        let err = error_report(&x, &smaller).unwrap_err();
        assert!(
            matches!(err, ats_common::AtsError::DimensionMismatch { .. }),
            "{err}"
        );
        let fewer_rows = ExactMatrix(Matrix::from_fn(39, 8, |_, _| 0.0));
        assert!(error_report(&x, &fewer_rows).is_err());
    }

    #[test]
    fn q_err_relative_and_absolute() {
        assert!((QueryError::q_err(100.0, 99.0) - 0.01).abs() < 1e-12);
        assert!((QueryError::q_err(-50.0, -55.0) - 0.1).abs() < 1e-12);
        // near-zero exact: absolute error
        assert!((QueryError::q_err(0.0, 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(QueryError::q_err(7.0, 7.0), 0.0);
    }

    #[test]
    fn svdd_report_better_than_svd() {
        use ats_compress::{SvddCompressed, SvddOptions};
        // spiky data at equal budget: SVDD's worst case must win
        let mut x = data();
        x[(5, 3)] += 200.0;
        x[(20, 1)] += 150.0;
        let b = SpaceBudget::from_percent(30.0);
        let svd = SvdCompressed::compress_budget(&x, b, 1).unwrap();
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(b)).unwrap();
        let r_svd = error_report(&x, &svd).unwrap();
        let r_svdd = error_report(&x, &svdd).unwrap();
        assert!(r_svdd.max_abs_error <= r_svd.max_abs_error);
        assert!(r_svdd.rmspe <= r_svd.rmspe * 1.0001);
    }
}
