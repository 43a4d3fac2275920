//! The [`RowSource`] abstraction: "something you can make passes over".
//!
//! Every compression algorithm in the paper is expressed as a small,
//! fixed number of sequential passes over the rows of `X` (Figs. 2, 3, 5).
//! `RowSource` captures exactly that access pattern — sequential scans of
//! row ranges — so the algorithms in `ats-compress` run unchanged against
//! an on-disk [`crate::MatrixFile`] (the realistic setting) or an
//! in-memory [`MemSource`]/[`ats_linalg::Matrix`] (tests, small data).
//!
//! `RowSource: Sync` so that one source can serve several threads scanning
//! disjoint ranges — the parallel pass-1 Gram accumulation.

use crate::file::MatrixFile;
use ats_common::{AtsError, Result};
use ats_linalg::Matrix;

/// A matrix that supports sequential row scans.
pub trait RowSource: Sync {
    /// Number of rows (`N`).
    fn rows(&self) -> usize;
    /// Number of columns (`M`).
    fn cols(&self) -> usize;

    /// Scan rows `[start, end)` in order, calling `f(i, row)` for each.
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()>;

    /// One full pass: scan every row in order.
    fn for_each_row(&self, f: &mut dyn FnMut(usize, &[f64]) -> Result<()>) -> Result<()> {
        self.scan_range(0, self.rows(), f)
    }

    /// Materialize the source as an in-memory [`Matrix`] (test helper; do
    /// not call on datasets that motivated this paper).
    fn to_matrix(&self) -> Result<Matrix> {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        self.for_each_row(&mut |i, row| {
            m.row_mut(i).copy_from_slice(row);
            Ok(())
        })?;
        Ok(m)
    }
}

impl RowSource for MatrixFile {
    fn rows(&self) -> usize {
        MatrixFile::rows(self)
    }
    fn cols(&self) -> usize {
        MatrixFile::cols(self)
    }
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        MatrixFile::scan_range(self, start, end, f)
    }
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        if start > end || end > Matrix::rows(self) {
            return Err(AtsError::InvalidArgument(format!(
                "scan_range [{start}, {end}) out of 0..{}",
                Matrix::rows(self)
            )));
        }
        for i in start..end {
            f(i, self.row(i))?;
        }
        Ok(())
    }
}

/// An owned flat in-memory row source (useful when a `Matrix` would be an
/// unnecessary dependency for the caller).
#[derive(Debug, Clone)]
pub struct MemSource {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl MemSource {
    /// Build from flat row-major data. Errors if the length is not
    /// `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(AtsError::dims(
                "MemSource::new",
                (data.len(), 1),
                (rows * cols, 1),
            ));
        }
        Ok(MemSource { data, rows, cols })
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl From<Matrix> for MemSource {
    fn from(m: Matrix) -> Self {
        let (rows, cols) = m.shape();
        MemSource {
            data: m.into_vec(),
            rows,
            cols,
        }
    }
}

impl RowSource for MemSource {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        if start > end || end > self.rows {
            return Err(AtsError::InvalidArgument(format!(
                "scan_range [{start}, {end}) out of 0..{}",
                self.rows
            )));
        }
        for i in start..end {
            f(i, self.row(i))?;
        }
        Ok(())
    }
}

/// A column-range view over another [`RowSource`]: rows pass through
/// unchanged, but each callback sees only columns `[start, end)`.
///
/// This is the plane the time-blocked (v4) builder runs on: the same
/// streaming passes that compress a whole matrix compress one time
/// block by scanning the underlying source once per pass and slicing
/// each row down to the block's columns. The slice is borrowed from the
/// scan buffer — no per-row copies.
pub struct ColumnSlice<'a, S: RowSource + ?Sized> {
    inner: &'a S,
    start: usize,
    end: usize,
}

impl<'a, S: RowSource + ?Sized> ColumnSlice<'a, S> {
    /// View columns `[start, end)` of `inner`. The range must be
    /// non-empty and within the source's width.
    pub fn new(inner: &'a S, start: usize, end: usize) -> Result<Self> {
        if start >= end || end > inner.cols() {
            return Err(AtsError::InvalidArgument(format!(
                "column slice [{start}, {end}) invalid for a source with {} columns",
                inner.cols()
            )));
        }
        Ok(ColumnSlice { inner, start, end })
    }
}

impl<S: RowSource + ?Sized> RowSource for ColumnSlice<'_, S> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.end - self.start
    }
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        let (c0, c1) = (self.start, self.end);
        self.inner.scan_range(start, end, &mut |i, row| {
            let cells = row.get(c0..c1).ok_or_else(|| {
                AtsError::Corrupt(format!(
                    "source row {i} has {} cells, expected at least {c1}",
                    row.len()
                ))
            })?;
            f(i, cells)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_matrix;

    fn sample(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| (i * 10 + j) as f64)
    }

    #[test]
    fn matrix_is_a_row_source() {
        let m = sample(5, 3);
        let mut count = 0;
        RowSource::for_each_row(&m, &mut |i, row| {
            assert_eq!(row[0], (i * 10) as f64);
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn mem_source_roundtrip() {
        let m = sample(4, 2);
        let s: MemSource = m.clone().into();
        assert_eq!(s.rows(), 4);
        assert_eq!(s.cols(), 2);
        let back = s.to_matrix().unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn mem_source_length_check() {
        assert!(MemSource::new(2, 3, vec![0.0; 5]).is_err());
        assert!(MemSource::new(2, 3, vec![0.0; 6]).is_ok());
    }

    #[test]
    fn file_and_memory_sources_agree() {
        let dir = ats_common::TestDir::new("ats-src");
        let path = dir.file("agree.atsm");
        let m = sample(30, 4);
        write_matrix(&path, &m).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let from_file = RowSource::to_matrix(&f).unwrap();
        assert!(from_file.approx_eq(&m, 0.0));
    }

    #[test]
    fn scan_range_bounds_checked() {
        let m = sample(3, 2);
        assert!(RowSource::scan_range(&m, 2, 1, &mut |_, _| Ok(())).is_err());
        assert!(RowSource::scan_range(&m, 0, 4, &mut |_, _| Ok(())).is_err());
        let s: MemSource = m.into();
        assert!(s.scan_range(0, 4, &mut |_, _| Ok(())).is_err());
    }

    #[test]
    fn column_slice_views_block_of_source() {
        let m = sample(6, 10);
        let s = ColumnSlice::new(&m, 3, 7).unwrap();
        assert_eq!(s.rows(), 6);
        assert_eq!(s.cols(), 4);
        let sliced = s.to_matrix().unwrap();
        let expect = Matrix::from_fn(6, 4, |i, j| (i * 10 + j + 3) as f64);
        assert!(sliced.approx_eq(&expect, 0.0));
        // Partial row range passes through to the inner source.
        let mut seen = Vec::new();
        s.scan_range(2, 4, &mut |i, row| {
            seen.push((i, row[0]));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![(2, 23.0), (3, 33.0)]);
    }

    #[test]
    fn column_slice_rejects_bad_ranges() {
        let m = sample(3, 5);
        assert!(ColumnSlice::new(&m, 2, 2).is_err(), "empty");
        assert!(ColumnSlice::new(&m, 4, 3).is_err(), "backwards");
        assert!(ColumnSlice::new(&m, 0, 6).is_err(), "past the end");
    }

    #[test]
    fn disjoint_parallel_scans() {
        // RowSource: Sync — two threads scanning halves of one source.
        let m = sample(100, 3);
        let halves = ats_common::par::ordered(vec![(0, 50), (50, 100)], 2, |(lo, hi)| {
            let mut acc = 0.0;
            m.scan_range(lo, hi, &mut |_, row| {
                acc += row[0];
                Ok(())
            })?;
            Ok(acc)
        })
        .unwrap();
        let total: f64 = halves.iter().sum();
        let expect: f64 = (0..100).map(|i| (i * 10) as f64).sum();
        assert!((total - expect).abs() < 1e-9);
    }
}
