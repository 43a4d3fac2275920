//! The query engine: cell and aggregate queries over a compressed matrix.
//!
//! §1 names the two query classes this system must serve:
//!
//! - "queries on specific cells of the data matrix" — answered by one
//!   `O(k)` reconstruction (plus, for SVDD, one delta probe);
//! - "aggregate queries on selected rows and columns" — an aggregate
//!   function `f()` (`sum()`, `avg()`, `stddev()`, …, §5.2) folded over
//!   every reconstructed cell of a [`Selection`].
//!
//! The engine reconstructs whole rows where it can (one `U`-row fetch
//! amortized over all selected columns) rather than per-cell.
//!
//! Every aggregate — one function, all of them at once, or a `where`
//! filter — runs the same scan in three parts. The **planner** is the
//! only reader of the matrix's layout hooks: it groups the selected
//! columns by time block and, inside each block, the selected rows by
//! owning shard (or into thread chunks when the block is unsharded). The
//! **executor** runs those units through [`par::ordered`] and merges the
//! partials in shard or chunk order within a block, then block partials
//! in ascending block order. One **leaf kernel** folds a unit, testing
//! each value against the predicate when there is one; a plain aggregate
//! is the `where` scan with no predicate.

use crate::predicate::{Predicate, TileTruth};
use crate::selection::Selection;
use ats_common::{par, AtsError, OnlineStats, Result};
use ats_compress::CompressedMatrix;
use ats_linalg::Matrix;
use ats_storage::ShardSynopsis;
use std::sync::Arc;

/// Aggregate functions supported by [`QueryEngine::aggregate`] (the
/// paper's `f()`, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFn {
    /// Sum of the selected cells.
    Sum,
    /// Arithmetic mean of the selected cells.
    Avg,
    /// Number of selected cells.
    Count,
    /// Minimum cell value.
    Min,
    /// Maximum cell value.
    Max,
    /// Population standard deviation of the selected cells.
    StdDev,
}

impl AggregateFn {
    /// All supported functions (handy for exhaustive experiment sweeps).
    pub const ALL: [AggregateFn; 6] = [
        AggregateFn::Sum,
        AggregateFn::Avg,
        AggregateFn::Count,
        AggregateFn::Min,
        AggregateFn::Max,
        AggregateFn::StdDev,
    ];

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFn::Sum => "sum",
            AggregateFn::Avg => "avg",
            AggregateFn::Count => "count",
            AggregateFn::Min => "min",
            AggregateFn::Max => "max",
            AggregateFn::StdDev => "stddev",
        }
    }

    fn finish(&self, stats: &OnlineStats) -> Result<f64> {
        // Every aggregate of zero cells is rejected, not defaulted: Min/Max
        // have no identity, and a silent 0.0 from Sum/Avg/StdDev is
        // indistinguishable from real data.
        if stats.count() == 0 {
            return Err(empty_selection());
        }
        Ok(match self {
            AggregateFn::Sum => stats.sum(),
            AggregateFn::Avg => stats.mean(),
            AggregateFn::Count => stats.count() as f64,
            AggregateFn::Min => stats.min(),
            AggregateFn::Max => stats.max(),
            AggregateFn::StdDev => stats.population_std_dev(),
        })
    }
}

/// The error every aggregate over an empty selection returns:
/// `min()`/`max()` of nothing has no value, and returning a default `0.0`
/// (the old behavior) silently fabricated data for every function.
fn empty_selection() -> AtsError {
    AtsError::InvalidArgument("aggregate over an empty selection (0 cells) is undefined".into())
}

/// How a [`QueryEngine`] holds its matrix: borrowed for the classic
/// one-shot CLI/experiment path, or behind an `Arc` so the engine itself
/// is `'static`, `Clone`, and shareable across server threads.
///
/// Reconstruction is read-only ([`CompressedMatrix`] is `Send + Sync` by
/// trait bound; the paged store keeps its interior mutability behind the
/// buffer-pool mutex and atomic I/O counters), so both shapes execute the
/// same code with the same determinism guarantees.
#[derive(Clone)]
pub(crate) enum MatrixHandle<'a> {
    /// Borrow — the engine lives no longer than the matrix.
    Borrowed(&'a dyn CompressedMatrix),
    /// Shared ownership — the engine can outlive the creating scope and
    /// hop across threads (the `ats serve` daemon path).
    Shared(Arc<dyn CompressedMatrix>),
}

/// A query engine over any compressed matrix.
#[derive(Clone)]
pub struct QueryEngine<'a> {
    pub(crate) handle: MatrixHandle<'a>,
    pub(crate) threads: usize,
    /// Whether `where` scans consult the store's zone-map synopses to
    /// prune tiles. Defaults on (`ATS_TEST_SYNOPSIS=off` flips the
    /// default for CI's exact-scan leg); [`QueryEngine::with_synopsis`]
    /// overrides per engine. Pruning never changes results — only which
    /// tiles are reconstructed — so this knob exists for fallback
    /// pinning and benchmarks, not correctness.
    pub(crate) synopsis: bool,
}

/// Default for the synopsis-pruning knob: on, unless the environment
/// pins the exact-scan fallback (`ATS_TEST_SYNOPSIS=off`).
fn synopsis_default() -> bool {
    std::env::var("ATS_TEST_SYNOPSIS").map_or(true, |v| v != "off")
}

/// Rows fetched per [`CompressedMatrix::rows_into`] call by the dense
/// aggregate scan — two kernel blocks ([`ats_linalg::kernels::BLOCK_ROWS`])
/// per fetch so sharded stores amortize routing without growing the scratch
/// buffer past a few KiB.
pub(crate) const AGG_BLOCK_ROWS: usize = 8;

impl<'a> QueryEngine<'a> {
    /// Wrap a compressed matrix (single-threaded scans).
    pub fn new(matrix: &'a dyn CompressedMatrix) -> Self {
        QueryEngine {
            handle: MatrixHandle::Borrowed(matrix),
            threads: 1,
            synopsis: synopsis_default(),
        }
    }

    /// Wrap a shared compressed matrix. The returned engine is
    /// `'static`, `Send + Sync`, and `Clone` — every connection thread
    /// of a long-lived server can hold its own cheap handle to the same
    /// store and page pool.
    pub fn shared(matrix: Arc<dyn CompressedMatrix>) -> QueryEngine<'static> {
        QueryEngine {
            handle: MatrixHandle::Shared(matrix),
            threads: 1,
            synopsis: synopsis_default(),
        }
    }

    /// The underlying matrix, whichever way it is held.
    pub(crate) fn matrix(&self) -> &dyn CompressedMatrix {
        match &self.handle {
            MatrixHandle::Borrowed(m) => *m,
            MatrixHandle::Shared(m) => m.as_ref(),
        }
    }

    /// Use up to `threads` workers for aggregate scans. Selected rows are
    /// split into contiguous chunks, each folded into a private
    /// [`OnlineStats`] (reconstruction is read-only — `CompressedMatrix`
    /// is `Sync`), and the partials are merged in chunk order, so results
    /// are deterministic for a given thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable zone-map pruning for `where` scans (see the
    /// [`QueryEngine::aggregate_where`] docs). Off forces the exact
    /// tile-by-tile scan even when the store carries synopses — the
    /// fallback legacy stores always take. Results are bitwise
    /// identical either way.
    pub fn with_synopsis(mut self, on: bool) -> Self {
        self.synopsis = on;
        self
    }

    /// Number of rows of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.matrix().rows()
    }

    /// Number of columns of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.matrix().cols()
    }

    /// Cell query: the reconstructed value at `(i, j)`.
    pub fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.matrix().cell(i, j)
    }

    /// Aggregate query over a selection.
    ///
    /// Reconstructs each selected row once and folds the selected columns
    /// into a single-pass accumulator (or one per worker — see
    /// [`QueryEngine::with_threads`]). This is the scan of
    /// [`QueryEngine::aggregate_where`] with no predicate: the same plan,
    /// the same merge tree.
    pub fn aggregate(&self, sel: &Selection, f: AggregateFn) -> Result<f64> {
        f.finish(&self.scan(sel, None, false)?.stats)
    }

    /// Evaluate every aggregate function at once over one selection scan.
    /// Errors on an empty selection, like [`QueryEngine::aggregate`].
    pub fn aggregate_all(&self, sel: &Selection) -> Result<AggregateRow> {
        let stats = self.scan(sel, None, false)?.stats;
        Ok(AggregateRow {
            sum: stats.sum(),
            avg: stats.mean(),
            count: stats.count(),
            min: stats.min(),
            max: stats.max(),
            stddev: stats.population_std_dev(),
        })
    }

    /// Predicate-filtered aggregate: fold `f` over the selected cells
    /// whose reconstructed value satisfies `pred`.
    ///
    /// When the store carries zone-map synopses (and pruning is on —
    /// [`QueryEngine::with_synopsis`]), each row's column tiles are
    /// classified three-valued against the predicate before any
    /// reconstruction: tiles proved `False` are skipped without touching
    /// `U` (a row all of whose selected tiles are `False` costs zero
    /// I/O), tiles proved `True` feed `count` straight from the number
    /// of selected cells, and only `Maybe` tiles — plus `True` tiles of
    /// value-carrying aggregates, which need the actual values — are
    /// reconstructed and tested cell by cell.
    ///
    /// Pruned and exact scans traverse matching cells in the identical
    /// order (rows in selection order, columns ascending within each
    /// row, partials merged in time-block → shard → chunk order), so
    /// the result is **bitwise equal** with pruning on, off, or absent,
    /// at any shards × time-blocks × threads combination. `Sum`, `Avg`,
    /// `Min`, `Max`, and `StdDev` deliberately never substitute a
    /// tile's stored `(sum, count)` even when the tile is all-`True`:
    /// the tile sum was accumulated in tile order, not scan order, and
    /// would re-associate the floats.
    ///
    /// Zero matching cells is an error for every aggregate except
    /// `Count`, which answers `0` — an empty *match set* is an answer,
    /// unlike an empty selection, which is rejected up front.
    pub fn aggregate_where(
        &self,
        sel: &Selection,
        f: AggregateFn,
        pred: &Predicate,
    ) -> Result<f64> {
        let ws = self.scan(sel, Some(pred), matches!(f, AggregateFn::Count))?;
        match f {
            AggregateFn::Count => {
                let total = ws
                    .stats
                    .count()
                    .checked_add(ws.proved)
                    .ok_or_else(|| AtsError::internal("where-count overflows u64"))?;
                Ok(total as f64)
            }
            _ => {
                if ws.stats.count() == 0 {
                    return Err(AtsError::InvalidArgument(format!(
                        "no selected cell satisfies `{pred}`; {}() over an empty match set \
                         is undefined (count is defined, and 0)",
                        f.name()
                    )));
                }
                f.finish(&ws.stats)
            }
        }
    }

    /// The one scan behind every aggregate front end: validate `sel`
    /// once, reject an empty selection, plan it ([`QueryEngine::plan`])
    /// and execute the plan ([`QueryEngine::execute`]). `pred` filters
    /// the reconstructed values (`None` keeps every cell); `count_only`
    /// lets all-`True` tiles be counted without reconstruction.
    fn scan(
        &self,
        sel: &Selection,
        pred: Option<&Predicate>,
        count_only: bool,
    ) -> Result<WhereStats> {
        let (n, m) = (self.matrix().rows(), self.matrix().cols());
        sel.validate(n, m)?;
        let rows: Vec<usize> = sel.rows.iter(n).collect();
        let cols: Vec<usize> = sel.cols.to_vec(m);
        if rows.is_empty() || cols.is_empty() {
            return Err(empty_selection());
        }
        let plan = self.plan(&rows, &cols, pred.is_some() && self.synopsis)?;
        self.execute(&plan, pred, count_only)
    }

    /// The planner, and the only reader of the matrix's layout hooks.
    ///
    /// The selected columns are grouped by owning time block
    /// ([`CompressedMatrix::time_block_starts`]; a single-decomposition
    /// matrix is one block) and rebased to block-local indices. Blocks
    /// the selection does not overlap get no plan entry, so their
    /// `U`/delta pages see zero I/O. Inside each block the selected rows
    /// are grouped by owning shard ([`CompressedMatrix::shard_starts`]),
    /// each group carrying that shard's zone map when `prune` is set; an
    /// unsharded block is split by [`thread_chunks`] instead. The shard
    /// partition, not the thread count, fixes a sharded block's merge
    /// tree.
    fn plan(&self, rows: &[usize], cols: &[usize], prune: bool) -> Result<Vec<BlockPlan<'_>>> {
        let matrix = self.matrix();
        let tstarts = matrix.time_block_starts();
        let blocked = tstarts.len() > 1;
        let starts: &[usize] = if blocked { &tstarts } else { &[0] };
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); starts.len()];
        for &j in cols {
            let b = owner(starts, j);
            if let (Some(g), Some(&start)) = (groups.get_mut(b), starts.get(b)) {
                g.push(j - start);
            }
        }
        let mut plan = Vec::new();
        for (b, local) in groups.into_iter().enumerate() {
            if local.is_empty() {
                continue;
            }
            let block = if blocked {
                matrix.time_block(b).ok_or_else(|| {
                    AtsError::internal(format!("time block {b} advertised but not served"))
                })?
            } else {
                matrix
            };
            let width = starts
                .get(b + 1)
                .copied()
                .unwrap_or(matrix.cols())
                .saturating_sub(starts.get(b).copied().unwrap_or(0));
            let synopsis = |shard: usize, first_row: usize| {
                let s = block.shard_synopsis(shard).filter(|_| prune);
                s.map(|s| (s, first_row))
            };
            let sstarts = block.shard_starts();
            let units = if sstarts.len() > 1 {
                let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); sstarts.len()];
                for &i in rows {
                    if let Some(g) = by_shard.get_mut(owner(&sstarts, i)) {
                        g.push(i);
                    }
                }
                by_shard
                    .into_iter()
                    .zip(&sstarts)
                    .enumerate()
                    .filter(|(_, (g, _))| !g.is_empty())
                    .map(|(s, (rows, &first))| ScanUnit {
                        rows,
                        synopsis: synopsis(s, first),
                    })
                    .collect()
            } else {
                thread_chunks(rows, self.threads)
                    .map(|c| ScanUnit {
                        rows: c.to_vec(),
                        synopsis: synopsis(0, 0),
                    })
                    .collect()
            };
            plan.push(BlockPlan {
                matrix: block,
                // The dense-row rule, against the block's own width: a
                // range covering most of one block reconstructs whole
                // block rows even when it is a sliver of the full matrix.
                dense: local.len() * 3 >= width,
                cols: local,
                units,
            });
        }
        Ok(plan)
    }

    /// The executor: run every unit of `plan` through [`par::ordered`],
    /// then merge along a fixed tree — units in shard or chunk order
    /// into a per-block partial, block partials in ascending block order.
    /// [`OnlineStats::merge`] is not associative bit for bit, so this
    /// tree, not a flat fold over all units, is what keeps answers
    /// deterministic for a given layout and thread count.
    fn execute(
        &self,
        plan: &[BlockPlan<'_>],
        pred: Option<&Predicate>,
        count_only: bool,
    ) -> Result<WhereStats> {
        let jobs: Vec<(&BlockPlan<'_>, &ScanUnit<'_>)> = plan
            .iter()
            .flat_map(|b| b.units.iter().map(move |u| (b, u)))
            .collect();
        let mut partials = par::ordered(jobs, self.threads, |(b, u)| {
            scan_unit(b, u, pred, count_only)
        })?
        .into_iter();
        let mut total = WhereStats::new();
        for b in plan {
            let mut block = WhereStats::new();
            for p in partials.by_ref().take(b.units.len()) {
                block.merge(&p);
            }
            total.merge(&block);
        }
        Ok(total)
    }
}

/// One time block of a scan plan: the decomposition to read, the
/// selected columns rebased to it, whether they are dense enough to
/// reconstruct whole rows, and the units covering the selected rows, in
/// merge order.
struct BlockPlan<'m> {
    matrix: &'m dyn CompressedMatrix,
    cols: Vec<usize>,
    dense: bool,
    units: Vec<ScanUnit<'m>>,
}

/// One leaf job: the selected rows of one shard (or one thread chunk of
/// an unsharded block), plus the zone map that may prune them and the
/// absolute row its shard starts at.
struct ScanUnit<'m> {
    rows: Vec<usize>,
    synopsis: Option<(&'m ShardSynopsis, usize)>,
}

/// Index of the range owning `x` in an ascending start table whose first
/// entry is 0: the last start at or below `x`.
fn owner(starts: &[usize], x: usize) -> usize {
    starts.partition_point(|&s| s <= x).saturating_sub(1)
}

/// The split every threaded scan shares: one chunk when `threads <= 1`
/// or `items.len() < 2·threads` (too little to fan out), otherwise
/// contiguous `ceil(len/threads)`-item chunks. Callers merge in chunk
/// order, so results depend on the thread count, never on scheduling.
pub(crate) fn thread_chunks<T>(items: &[T], threads: usize) -> std::slice::Chunks<'_, T> {
    let size = if threads <= 1 || items.len() < 2 * threads {
        items.len()
    } else {
        items.len().div_ceil(threads)
    };
    items.chunks(size.max(1))
}

/// The leaf kernel: fold the block's selected columns of `unit`'s rows
/// into one accumulator. Each caller (worker) brings its own scratch.
///
/// Without a predicate, a dense block fetches [`AGG_BLOCK_ROWS`] rows per
/// [`CompressedMatrix::rows_into`] call, so implementations with a
/// blocked multi-row kernel reconstruct several rows per sweep over `V`;
/// a sparse one fetches only the selected cells, one
/// [`CompressedMatrix::cells_in_row`] call (one `U`-row fetch) per row.
/// Either way values are pushed row by row in ascending selected-column
/// order, and the two entry points agree bit for bit.
///
/// With a predicate every row goes through `cells_in_row`. Given a
/// synopsis, each row's tile band (`local row / ROW_BLOCK`) is classified
/// once and reused for the band's rows: selected columns in `False` tiles
/// are dropped before reconstruction — a row left with nothing to fetch
/// does **zero** I/O — and, when `count_only`, columns in `True` tiles
/// are tallied in `proved` without reconstruction. Fetched values are
/// always tested through [`Predicate::eval`] (for a `True` tile the
/// bounds guarantee the test passes), so the pushed value sequence is
/// identical to the no-synopsis scan and results stay bitwise equal.
///
/// Defensive: rows outside the synopsis grid (a hand-rolled
/// [`CompressedMatrix`] lying about its geometry — disk stores
/// cross-check at open) classify `Maybe`, degrading to the exact scan,
/// never to a wrong answer.
fn scan_unit(
    block: &BlockPlan<'_>,
    unit: &ScanUnit<'_>,
    pred: Option<&Predicate>,
    count_only: bool,
) -> Result<WhereStats> {
    let (matrix, cols) = (block.matrix, block.cols.as_slice());
    let mut ws = WhereStats::new();
    if pred.is_none() && block.dense {
        let m = matrix.cols();
        let mut buf = vec![0.0f64; AGG_BLOCK_ROWS * m];
        for rchunk in unit.rows.chunks(AGG_BLOCK_ROWS) {
            let out = &mut buf[..rchunk.len() * m];
            matrix.rows_into(rchunk, out)?;
            for row in out.chunks(m) {
                for &j in cols {
                    ws.stats.push(row[j]);
                }
            }
        }
        return Ok(ws);
    }
    let mut fetch: Vec<usize> = Vec::with_capacity(cols.len());
    let mut vals = vec![0.0f64; cols.len()];
    // The classification of the current row band, reused while
    // consecutive rows stay in the same band.
    let mut band: Option<(usize, Vec<TileTruth>)> = None;
    for &i in &unit.rows {
        let wanted: &[usize] = match (pred, unit.synopsis) {
            (Some(pred), Some((s, start))) => {
                fetch.clear();
                let tr = i.checked_sub(start).map(|lr| lr / s.row_block());
                let classes: Option<&[TileTruth]> = match tr {
                    Some(tr) if tr < s.tile_rows() => {
                        if band.as_ref().is_none_or(|&(b, _)| b != tr) {
                            let row_classes = (0..s.tile_cols())
                                .map(|tc| {
                                    s.tile(tr, tc)
                                        .map_or(TileTruth::Maybe, |t| pred.classify(t.min, t.max))
                                })
                                .collect();
                            band = Some((tr, row_classes));
                        }
                        band.as_ref().map(|(_, c)| c.as_slice())
                    }
                    _ => None,
                };
                for &j in cols {
                    let truth = classes
                        .and_then(|c| c.get(j / s.col_block()))
                        .copied()
                        .unwrap_or(TileTruth::Maybe);
                    match truth {
                        TileTruth::False => {}
                        TileTruth::True if count_only => ws.proved += 1,
                        _ => fetch.push(j),
                    }
                }
                &fetch
            }
            _ => cols,
        };
        if wanted.is_empty() {
            continue; // every selected tile proved: zero I/O for this row
        }
        let out = vals
            .get_mut(..wanted.len())
            .ok_or_else(|| AtsError::internal("scan scratch undersized"))?;
        matrix.cells_in_row(i, wanted, out)?;
        for &v in out.iter() {
            if pred.is_none_or(|p| p.eval(v)) {
                ws.stats.push(v);
            }
        }
    }
    Ok(ws)
}

/// Accumulator of every scan: the Welford fold over reconstructed
/// matching cells, plus the cells *proved* matching by all-`True` tiles
/// that a `count`-only `where` scan never reconstructed (always 0
/// without a predicate).
#[derive(Debug, Clone)]
struct WhereStats {
    stats: OnlineStats,
    proved: u64,
}

impl WhereStats {
    fn new() -> Self {
        WhereStats {
            stats: OnlineStats::new(),
            proved: 0,
        }
    }

    fn merge(&mut self, other: &WhereStats) {
        self.stats.merge(&other.stats);
        self.proved += other.proved;
    }
}

/// All aggregates of one selection, computed in a single scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateRow {
    /// Sum of selected cells.
    pub sum: f64,
    /// Mean of selected cells.
    pub avg: f64,
    /// Number of selected cells.
    pub count: u64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

/// Ground truth: evaluate an aggregate directly on an uncompressed
/// matrix (used by the experiments to compute `Q_err`). Rejects empty
/// selections exactly like [`QueryEngine::aggregate`], so engine-vs-exact
/// comparisons agree on the error case too.
pub fn aggregate_exact(x: &Matrix, sel: &Selection, f: AggregateFn) -> Result<f64> {
    let (n, m) = x.shape();
    sel.validate(n, m)?;
    let cols: Vec<usize> = sel.cols.to_vec(m);
    let mut stats = OnlineStats::new();
    for i in sel.rows.iter(n) {
        let row = x.row(i);
        for &j in &cols {
            stats.push(row[j]);
        }
    }
    f.finish(&stats)
}

/// An exact (lossless, in-memory) [`CompressedMatrix`] — the identity
/// "compression". Useful as a ground-truth adapter and in tests.
#[derive(Debug, Clone)]
pub struct ExactMatrix(pub Matrix);

impl CompressedMatrix for ExactMatrix {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.0.get(i, j)
    }
    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.0.rows() {
            return Err(AtsError::oob("row", i, self.0.rows()));
        }
        if out.len() != self.0.cols() {
            return Err(AtsError::dims(
                "ExactMatrix::row_into",
                (1, out.len()),
                (1, self.0.cols()),
            ));
        }
        out.copy_from_slice(self.0.row(i));
        Ok(())
    }
    fn storage_bytes(&self) -> usize {
        self.0.rows() * self.0.cols() * crate::engine::BYTES_PER_NUMBER_LOCAL
    }
    fn method_name(&self) -> &'static str {
        "exact"
    }
}

pub(crate) const BYTES_PER_NUMBER_LOCAL: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Axis;

    fn x() -> Matrix {
        Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn cell_query() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        assert_eq!(q.cell(1, 2).unwrap(), 6.0);
        assert!(q.cell(3, 0).is_err());
    }

    #[test]
    fn aggregates_over_all() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection::all();
        assert_eq!(q.aggregate(&sel, AggregateFn::Sum).unwrap(), 45.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Avg).unwrap(), 5.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Count).unwrap(), 9.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Min).unwrap(), 1.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Max).unwrap(), 9.0);
        let sd = q.aggregate(&sel, AggregateFn::StdDev).unwrap();
        assert!((sd - (60.0f64 / 9.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn aggregates_over_subrectangle() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(1, 3),
            cols: Axis::set(vec![0, 2]),
        };
        // cells: 4, 6, 7, 9
        assert_eq!(q.aggregate(&sel, AggregateFn::Sum).unwrap(), 26.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Avg).unwrap(), 6.5);
        assert_eq!(q.aggregate(&sel, AggregateFn::Min).unwrap(), 4.0);
    }

    #[test]
    fn sparse_column_path_matches_dense() {
        // One selected column of a wide matrix exercises the per-cell path.
        let wide = Matrix::from_fn(5, 30, |i, j| (i * 30 + j) as f64);
        let e = ExactMatrix(wide.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection::col(7);
        let got = q.aggregate(&sel, AggregateFn::Sum).unwrap();
        let expect: f64 = (0..5).map(|i| (i * 30 + 7) as f64).sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_selection_errors_for_every_aggregate() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        // Empty in the row axis, and empty in the column axis.
        let empties = [
            Selection {
                rows: Axis::Range(1, 1),
                cols: Axis::All,
            },
            Selection {
                rows: Axis::All,
                cols: Axis::set(vec![]),
            },
        ];
        for sel in &empties {
            for f in AggregateFn::ALL {
                let err = q.aggregate(sel, f).unwrap_err();
                assert!(
                    matches!(err, AtsError::InvalidArgument(_)),
                    "{}: {err}",
                    f.name()
                );
            }
            assert!(q.aggregate_all(sel).is_err());
            for f in AggregateFn::ALL {
                assert!(aggregate_exact(&x(), sel, f).is_err(), "{}", f.name());
            }
        }
    }

    #[test]
    fn empty_selection_errors_on_threaded_and_sharded_paths() {
        // The guard must fire after the merge on every execution shape,
        // not just the serial monolithic scan.
        let m = bumpy(97, 17);
        let empty = Selection {
            rows: Axis::Range(50, 50),
            cols: Axis::All,
        };
        for threads in [1, 3, 8] {
            let e = ExactMatrix(m.clone());
            let q = QueryEngine::new(&e).with_threads(threads);
            assert!(q.aggregate(&empty, AggregateFn::Min).is_err());
            assert!(q.aggregate_all(&empty).is_err());
            let sharded = ShardedExact(m.clone(), vec![0, 32, 64]);
            let qs = QueryEngine::new(&sharded).with_threads(threads);
            assert!(qs.aggregate(&empty, AggregateFn::Max).is_err());
            assert!(qs.aggregate_all(&empty).is_err());
        }
    }

    #[test]
    fn invalid_selection_rejected() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Set(vec![5]),
            cols: Axis::All,
        };
        assert!(q.aggregate(&sel, AggregateFn::Sum).is_err());
    }

    #[test]
    fn aggregate_all_consistent_with_individual() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(0, 2),
            cols: Axis::Range(1, 3),
        };
        let all = q.aggregate_all(&sel).unwrap();
        assert_eq!(all.sum, q.aggregate(&sel, AggregateFn::Sum).unwrap());
        assert_eq!(all.avg, q.aggregate(&sel, AggregateFn::Avg).unwrap());
        assert_eq!(
            all.count as f64,
            q.aggregate(&sel, AggregateFn::Count).unwrap()
        );
        assert_eq!(all.min, q.aggregate(&sel, AggregateFn::Min).unwrap());
        assert_eq!(all.max, q.aggregate(&sel, AggregateFn::Max).unwrap());
        assert_eq!(all.stddev, q.aggregate(&sel, AggregateFn::StdDev).unwrap());
    }

    #[test]
    fn exact_aggregate_matches_engine_on_exact_matrix() {
        let m = x();
        let e = ExactMatrix(m.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::set(vec![0, 2]),
            cols: Axis::Range(0, 2),
        };
        for f in AggregateFn::ALL {
            assert_eq!(
                q.aggregate(&sel, f).unwrap(),
                aggregate_exact(&m, &sel, f).unwrap(),
                "{}",
                f.name()
            );
        }
    }

    #[test]
    fn shared_engine_is_send_sync_clone_and_answers_identically() {
        // The serve daemon hands one engine to many threads: the shared
        // handle must be 'static + Send + Sync + Clone, and answer the
        // same bits as the borrowed engine over the same matrix.
        fn assert_shareable<T: Send + Sync + Clone + 'static>() {}
        assert_shareable::<QueryEngine<'static>>();
        let m = Arc::new(ExactMatrix(x()));
        let shared = QueryEngine::shared(m.clone());
        let borrowed = QueryEngine::new(m.as_ref());
        let sel = Selection::all();
        assert_eq!(
            shared.cell(1, 2).unwrap().to_bits(),
            borrowed.cell(1, 2).unwrap().to_bits()
        );
        for f in AggregateFn::ALL {
            assert_eq!(
                shared.aggregate(&sel, f).unwrap().to_bits(),
                borrowed.aggregate(&sel, f).unwrap().to_bits(),
                "{}",
                f.name()
            );
        }
        // Clones observe the same underlying store.
        let clone = shared.clone().with_threads(3);
        assert_eq!(clone.rows(), 3);
        let handle = std::thread::spawn(move || clone.cell(0, 0).unwrap());
        assert_eq!(handle.join().unwrap(), 1.0);
    }

    #[test]
    fn names() {
        assert_eq!(AggregateFn::Sum.name(), "sum");
        assert_eq!(AggregateFn::StdDev.name(), "stddev");
        assert_eq!(AggregateFn::ALL.len(), 6);
    }

    /// A matrix with enough irregularity that every aggregate is
    /// non-trivial, plus negative values and repeated extremes.
    fn bumpy(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 7) % 23) as f64 - 11.0)
    }

    fn selections() -> Vec<Selection> {
        vec![
            Selection::all(),
            Selection {
                rows: Axis::Range(3, 90),
                cols: Axis::set(vec![0, 5, 16]),
            },
            Selection {
                rows: Axis::set(vec![0, 7, 13, 14, 15, 40, 96]),
                cols: Axis::Range(2, 17),
            },
            Selection::col(7),
        ]
    }

    #[test]
    fn threaded_aggregates_match_serial() {
        let e = ExactMatrix(bumpy(97, 17));
        let serial = QueryEngine::new(&e);
        for sel in selections() {
            for threads in [2, 3, 8, 64] {
                let par = QueryEngine::new(&e).with_threads(threads);
                for f in AggregateFn::ALL {
                    let a = serial.aggregate(&sel, f).unwrap();
                    let b = par.aggregate(&sel, f).unwrap();
                    match f {
                        // Order-independent folds must agree exactly.
                        AggregateFn::Count | AggregateFn::Min | AggregateFn::Max => {
                            assert_eq!(a, b, "{} threads={threads}", f.name())
                        }
                        // Welford merges reassociate floating point.
                        _ => assert!(
                            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                            "{} threads={threads}: {a} vs {b}",
                            f.name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_aggregate_all_matches_serial() {
        let e = ExactMatrix(bumpy(97, 17));
        let serial = QueryEngine::new(&e);
        for sel in selections() {
            let a = serial.aggregate_all(&sel).unwrap();
            for threads in [2, 5] {
                let b = QueryEngine::new(&e)
                    .with_threads(threads)
                    .aggregate_all(&sel)
                    .unwrap();
                assert_eq!(a.count, b.count);
                assert_eq!(a.min, b.min);
                assert_eq!(a.max, b.max);
                for (x, y) in [(a.sum, b.sum), (a.avg, b.avg), (a.stddev, b.stddev)] {
                    assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn threaded_aggregate_equals_shard_merge_exactly() {
        // The parallel path must implement precisely "split the selected
        // rows into contiguous chunks, fold each into its own
        // OnlineStats, merge in chunk order" — reproduce that by hand
        // and demand bit-for-bit equality.
        let m = bumpy(67, 9);
        let e = ExactMatrix(m.clone());
        let sel = Selection {
            rows: Axis::Range(1, 60),
            cols: Axis::Range(0, 9),
        };
        let threads = 4;
        let rows: Vec<usize> = (1..60).collect();
        let chunk = rows.len().div_ceil(threads);
        let mut expect = OnlineStats::new();
        for shard_rows in rows.chunks(chunk) {
            let mut shard = OnlineStats::new();
            for &i in shard_rows {
                for j in 0..9 {
                    shard.push(m[(i, j)]);
                }
            }
            expect.merge(&shard);
        }
        let got = QueryEngine::new(&e)
            .with_threads(threads)
            .aggregate_all(&sel)
            .unwrap();
        assert_eq!(got.sum, expect.sum());
        assert_eq!(got.avg, expect.mean());
        assert_eq!(got.count, expect.count());
        assert_eq!(got.min, expect.min());
        assert_eq!(got.max, expect.max());
        assert_eq!(got.stddev, expect.population_std_dev());
    }

    /// The exact adapter wearing a shard layout: same cells, but
    /// `shard_starts` advertises row-range shards so the engine takes
    /// the fan-out path.
    struct ShardedExact(Matrix, Vec<usize>);

    impl CompressedMatrix for ShardedExact {
        fn rows(&self) -> usize {
            self.0.rows()
        }
        fn cols(&self) -> usize {
            self.0.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.0.get(i, j)
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "sharded-exact"
        }
        fn shard_starts(&self) -> Vec<usize> {
            self.1.clone()
        }
    }

    #[test]
    fn sharded_aggregate_merges_in_shard_order_exactly() {
        // The fan-out path must implement precisely "group selected rows
        // by owning shard, fold each group, merge in shard order" —
        // reproduce that by hand and demand bit-for-bit equality, at
        // every thread count (the shard partition, not the thread count,
        // determines the merge tree).
        let m = bumpy(97, 17);
        let starts = vec![0usize, 32, 64];
        let e = ShardedExact(m.clone(), starts.clone());
        for sel in selections() {
            let rows: Vec<usize> = sel.rows.iter(97).collect();
            let cols: Vec<usize> = sel.cols.to_vec(17);
            let mut expect = OnlineStats::new();
            for (gi, &start) in starts.iter().enumerate() {
                let end = starts.get(gi + 1).copied().unwrap_or(97);
                let mut shard = OnlineStats::new();
                for &i in rows.iter().filter(|&&i| i >= start && i < end) {
                    for &j in &cols {
                        shard.push(m[(i, j)]);
                    }
                }
                expect.merge(&shard);
            }
            for threads in [1, 2, 3, 8] {
                let got = QueryEngine::new(&e)
                    .with_threads(threads)
                    .aggregate_all(&sel)
                    .unwrap();
                assert_eq!(got.sum, expect.sum(), "threads={threads}");
                assert_eq!(got.avg, expect.mean(), "threads={threads}");
                assert_eq!(got.count, expect.count(), "threads={threads}");
                assert_eq!(got.stddev, expect.population_std_dev(), "threads={threads}");
            }
        }
    }

    /// One time block of the exact adapter: an owned column slice that
    /// counts every reconstruction call, so tests can prove pruning.
    struct CountingBlock {
        data: Matrix,
        calls: std::sync::atomic::AtomicU64,
    }

    impl CountingBlock {
        fn touch(&self) {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn calls(&self) -> u64 {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl CompressedMatrix for CountingBlock {
        fn rows(&self) -> usize {
            self.data.rows()
        }
        fn cols(&self) -> usize {
            self.data.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.touch();
            self.data.get(i, j)
        }
        fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
            self.touch();
            if out.len() != self.data.cols() {
                return Err(AtsError::dims(
                    "CountingBlock::row_into",
                    (1, out.len()),
                    (1, self.data.cols()),
                ));
            }
            out.copy_from_slice(self.data.row(i));
            Ok(())
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "counting-block"
        }
    }

    /// The exact adapter wearing a time-block layout: same cells as the
    /// source matrix, but partitioned into per-block column slices that
    /// the engine must route to (and prune) itself.
    struct TimeBlockedExact {
        blocks: Vec<CountingBlock>,
        starts: Vec<usize>,
        cols: usize,
    }

    impl TimeBlockedExact {
        fn split(m: &Matrix, starts: Vec<usize>) -> Self {
            let cols = m.cols();
            let blocks = starts
                .iter()
                .enumerate()
                .map(|(b, &s)| {
                    let e = starts.get(b + 1).copied().unwrap_or(cols);
                    CountingBlock {
                        data: Matrix::from_fn(m.rows(), e - s, |i, j| m[(i, s + j)]),
                        calls: std::sync::atomic::AtomicU64::new(0),
                    }
                })
                .collect();
            TimeBlockedExact {
                blocks,
                starts,
                cols,
            }
        }

        fn route(&self, j: usize) -> (usize, usize) {
            let idx = match self.starts.binary_search(&j) {
                Ok(p) => p,
                Err(p) => p - 1,
            };
            (idx, self.starts[idx])
        }
    }

    impl CompressedMatrix for TimeBlockedExact {
        fn rows(&self) -> usize {
            self.blocks[0].rows()
        }
        fn cols(&self) -> usize {
            self.cols
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            if j >= self.cols {
                return Err(AtsError::oob("column", j, self.cols));
            }
            let (b, s) = self.route(j);
            self.blocks[b].cell(i, j - s)
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "timeblocked-exact"
        }
        fn time_block_starts(&self) -> Vec<usize> {
            self.starts.clone()
        }
        fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
            self.blocks.get(b).map(|blk| blk as &dyn CompressedMatrix)
        }
    }

    #[test]
    fn timeblocked_aggregate_merges_in_block_order_exactly() {
        // The time-block path must implement precisely "group selected
        // columns by owning block, fold each block, merge in block
        // order" — reproduce that by hand and demand bit-for-bit
        // equality at every thread count.
        let m = bumpy(60, 24);
        let starts = vec![0usize, 7, 16];
        let e = TimeBlockedExact::split(&m, starts.clone());
        for sel in [
            Selection::all(),
            Selection::time_range(Axis::Range(5, 50), 3, 20),
            Selection {
                rows: Axis::set(vec![0, 9, 17, 58]),
                cols: Axis::set(vec![2, 6, 7, 15, 16, 23]),
            },
            Selection::time_range(Axis::All, 7, 16), // exactly block 1
        ] {
            let rows: Vec<usize> = sel.rows.iter(60).collect();
            let cols: Vec<usize> = sel.cols.to_vec(24);
            let mut expect = OnlineStats::new();
            for (b, &s) in starts.iter().enumerate() {
                let end = starts.get(b + 1).copied().unwrap_or(24);
                let block_cols: Vec<usize> = cols
                    .iter()
                    .copied()
                    .filter(|&j| j >= s && j < end)
                    .collect();
                if block_cols.is_empty() {
                    continue;
                }
                let mut part = OnlineStats::new();
                for &i in &rows {
                    for &j in &block_cols {
                        part.push(m[(i, j)]);
                    }
                }
                expect.merge(&part);
            }
            // Single-threaded the engine's within-block fold matches
            // the hand reduction exactly, so block-order merge must be
            // bit-for-bit; threaded runs re-associate within a block
            // and get a float tolerance instead.
            let got = QueryEngine::new(&e)
                .with_threads(1)
                .aggregate_all(&sel)
                .unwrap();
            assert_eq!(got.sum, expect.sum());
            assert_eq!(got.count, expect.count());
            assert_eq!(got.min, expect.min());
            assert_eq!(got.max, expect.max());
            assert_eq!(got.stddev, expect.population_std_dev());
            let got3 = QueryEngine::new(&e)
                .with_threads(3)
                .aggregate_all(&sel)
                .unwrap();
            assert_eq!(got3.count, expect.count());
            assert_eq!(got3.min, expect.min());
            assert_eq!(got3.max, expect.max());
            let tol = 1e-9 * expect.sum().abs().max(1.0);
            assert!((got3.sum - expect.sum()).abs() <= tol, "threads=3 sum");
        }
    }

    #[test]
    fn timeblocked_aggregate_prunes_untouched_blocks() {
        // A range confined to block 1 must leave blocks 0 and 2 with
        // zero reconstruction calls — the engine-level pruning that the
        // store-level IoStats tests pin against real disk I/O.
        let m = bumpy(40, 30);
        let e = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let sel = Selection::time_range(Axis::All, 12, 18);
        let got = QueryEngine::new(&e)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        let expect: f64 = {
            let mut s = OnlineStats::new();
            for i in 0..40 {
                for j in 12..18 {
                    s.push(m[(i, j)]);
                }
            }
            s.sum()
        };
        assert_eq!(got, expect);
        assert_eq!(e.blocks[0].calls(), 0, "block 0 must stay cold");
        assert!(e.blocks[1].calls() > 0);
        assert_eq!(e.blocks[2].calls(), 0, "block 2 must stay cold");
        // A block-edge-spanning range touches exactly the two overlapped
        // blocks.
        let e2 = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let edge = Selection::time_range(Axis::All, 8, 12);
        QueryEngine::new(&e2)
            .aggregate(&edge, AggregateFn::Avg)
            .unwrap();
        assert!(e2.blocks[0].calls() > 0);
        assert!(e2.blocks[1].calls() > 0);
        assert_eq!(e2.blocks[2].calls(), 0);
    }

    #[test]
    fn timeblocked_empty_and_boundary_ranges() {
        let m = bumpy(20, 12);
        let e = TimeBlockedExact::split(&m, vec![0, 4, 8]);
        let q = QueryEngine::new(&e);
        // Empty time range: InvalidArgument, never a panic.
        let empty = Selection::time_range(Axis::All, 5, 5);
        for f in AggregateFn::ALL {
            assert!(matches!(
                q.aggregate(&empty, f),
                Err(AtsError::InvalidArgument(_))
            ));
        }
        // Single-column range.
        let one = Selection::time_range(Axis::All, 7, 8);
        let got = q.aggregate(&one, AggregateFn::Sum).unwrap();
        let expect: f64 = (0..20).map(|i| m[(i, 7)]).sum::<f64>();
        assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        // Range ending exactly on a block edge.
        let edge = Selection::time_range(Axis::All, 2, 4);
        q.aggregate(&edge, AggregateFn::Max).unwrap();
        // Range past the end: refused.
        let over = Selection::time_range(Axis::All, 8, 13);
        assert!(q.aggregate(&over, AggregateFn::Sum).is_err());
    }

    use crate::predicate::CmpOp;

    /// Brute-force `where` baseline: per-cell reconstruction and
    /// evaluation in rows-then-ascending-columns order — the order the
    /// engine documents — over an uncompressed matrix.
    fn where_exact(m: &Matrix, sel: &Selection, f: AggregateFn, pred: &Predicate) -> Result<f64> {
        let (n, mm) = m.shape();
        sel.validate(n, mm)?;
        let mut stats = OnlineStats::new();
        for i in sel.rows.iter(n) {
            for j in sel.cols.to_vec(mm) {
                let v = m[(i, j)];
                if pred.eval(v) {
                    stats.push(v);
                }
            }
        }
        if let AggregateFn::Count = f {
            return Ok(stats.count() as f64);
        }
        f.finish(&stats)
    }

    /// The exact adapter wearing a zone-map synopsis: same cells, plus
    /// a [`ShardSynopsis`] built from the data and a counter of
    /// `cells_in_row` fetches (the unit of `U` I/O the pruning saves).
    struct SynopticExact {
        data: Matrix,
        syn: ShardSynopsis,
        fetches: std::sync::atomic::AtomicU64,
    }

    impl SynopticExact {
        fn build(data: Matrix) -> Self {
            let mut b = ats_storage::SynopsisBuilder::new(data.rows(), data.cols()).unwrap();
            for i in 0..data.rows() {
                b.push_row(data.row(i)).unwrap();
            }
            let syn = b.finish().unwrap();
            SynopticExact {
                data,
                syn,
                fetches: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn fetches(&self) -> u64 {
            self.fetches.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl CompressedMatrix for SynopticExact {
        fn rows(&self) -> usize {
            self.data.rows()
        }
        fn cols(&self) -> usize {
            self.data.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.data.get(i, j)
        }
        fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
            self.fetches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for (&j, o) in cols.iter().zip(out.iter_mut()) {
                *o = self.data.get(i, j)?;
            }
            Ok(())
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "synoptic-exact"
        }
        fn shard_synopsis(&self, shard: usize) -> Option<&ShardSynopsis> {
            (shard == 0).then_some(&self.syn)
        }
    }

    /// Rows carry their index as value, so each 8-row tile band has
    /// bounds [8t, 8t+7]: a threshold mid-band makes some bands prove
    /// False, some True, one straddle — all three classifications live.
    fn banded(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| i as f64 + (j % 4) as f64 * 0.01)
    }

    #[test]
    fn where_matches_brute_force_on_plain_matrix() {
        // No synopsis anywhere: the pure fallback path, every operator
        // and aggregate, bitwise against the hand scan.
        let m = bumpy(50, 13);
        let e = ExactMatrix(m.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(3, 47),
            cols: Axis::Range(1, 12),
        };
        for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq] {
            let pred = Predicate::new(op, 2.0).unwrap();
            for f in AggregateFn::ALL {
                match (
                    q.aggregate_where(&sel, f, &pred),
                    where_exact(&m, &sel, f, &pred),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{:?} {}", op, f.name())
                    }
                    (a, b) => assert!(
                        a.is_err() && b.is_err(),
                        "{:?} {}: engine {a:?} vs exact {b:?}",
                        op,
                        f.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn where_pruned_equals_fallback_bitwise_and_skips_fetches() {
        let e = SynopticExact::build(banded(48, 20));
        let sel = Selection::all();
        let pred = Predicate::new(CmpOp::Gt, 30.0).unwrap();
        // Bands [0..8) … [24..32) hold values ≤ 31.03: bands 0-2 prove
        // False, band 3 (rows 24..32, max 31.03) straddles, bands 4-5
        // prove True.
        let baseline: Vec<f64> = AggregateFn::ALL
            .iter()
            .map(|&f| {
                QueryEngine::new(&e)
                    .with_synopsis(false)
                    .aggregate_where(&sel, f, &pred)
                    .unwrap()
            })
            .collect();
        let unpruned = e.fetches(); // 48 rows × 6 aggregates
        assert_eq!(unpruned, 48 * 6);
        for (&f, &want) in AggregateFn::ALL.iter().zip(&baseline) {
            let before = e.fetches();
            let got = QueryEngine::new(&e)
                .with_synopsis(true)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{}", f.name());
            let spent = e.fetches() - before;
            match f {
                // count needs only the straddling band reconstructed.
                AggregateFn::Count => assert_eq!(spent, 8, "count fetches"),
                // value aggregates reconstruct True bands too, but the
                // three False bands (24 rows) still cost nothing.
                _ => assert_eq!(spent, 48 - 24, "{} fetches", f.name()),
            }
        }
        // Sanity on the actual value: count of cells > 30.
        let expect = where_exact(&e.data, &sel, AggregateFn::Count, &pred).unwrap();
        assert_eq!(baseline[2], expect);
    }

    #[test]
    fn where_zero_matches_counts_zero_and_errors_elsewhere() {
        let e = SynopticExact::build(banded(16, 8));
        let pred = Predicate::new(CmpOp::Gt, 1e6).unwrap(); // nothing matches
        let sel = Selection::all();
        for on in [true, false] {
            let q = QueryEngine::new(&e).with_synopsis(on);
            assert_eq!(
                q.aggregate_where(&sel, AggregateFn::Count, &pred).unwrap(),
                0.0
            );
            for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::StdDev] {
                let err = q.aggregate_where(&sel, f, &pred).unwrap_err();
                assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains("count is defined"), "{err}");
            }
        }
        // With pruning on, the all-False store does zero fetches.
        let before = e.fetches();
        QueryEngine::new(&e)
            .with_synopsis(true)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        assert_eq!(e.fetches(), before, "all-False scan must not reconstruct");
        // An empty *selection* is still rejected, count included.
        let empty = Selection {
            rows: Axis::Range(3, 3),
            cols: Axis::All,
        };
        assert!(QueryEngine::new(&e)
            .aggregate_where(&empty, AggregateFn::Count, &pred)
            .is_err());
    }

    #[test]
    fn where_handles_nan_cells_identically_with_and_without_pruning() {
        let mut m = banded(24, 10);
        m[(20, 3)] = f64::NAN; // poisons tile (2, 0): True band degrades to Maybe
        let e = SynopticExact::build(m.clone());
        let sel = Selection::all();
        let pred = Predicate::new(CmpOp::Gt, 10.0).unwrap();
        for f in [AggregateFn::Count, AggregateFn::Sum, AggregateFn::Max] {
            let pruned = QueryEngine::new(&e)
                .with_synopsis(true)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            let fallback = QueryEngine::new(&e)
                .with_synopsis(false)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            assert_eq!(pruned.to_bits(), fallback.to_bits(), "{}", f.name());
            assert!(pruned.is_finite(), "NaN must be excluded, not aggregated");
        }
        // The NaN cell itself is never a match.
        let count = QueryEngine::new(&e)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        let expect = where_exact(&m, &sel, AggregateFn::Count, &pred).unwrap();
        assert_eq!(count, expect);
    }

    #[test]
    fn where_threaded_and_sharded_paths_agree_with_serial() {
        // Thread chunking and shard fan-out must answer what the serial
        // scan answers (bitwise for order-independent aggregates, to
        // tolerance for Welford merges), synopsis on or off.
        let m = bumpy(97, 17);
        let pred = Predicate::new(CmpOp::Ge, 0.0).unwrap();
        let plain = ExactMatrix(m.clone());
        let sharded = ShardedExact(m.clone(), vec![0, 32, 64]);
        let sel = Selection::all();
        let serial = QueryEngine::new(&plain)
            .aggregate_where(&sel, AggregateFn::Sum, &pred)
            .unwrap();
        let count = QueryEngine::new(&plain)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        for threads in [1, 3, 8] {
            for on in [true, false] {
                let qp = QueryEngine::new(&plain)
                    .with_threads(threads)
                    .with_synopsis(on);
                let qs = QueryEngine::new(&sharded)
                    .with_threads(threads)
                    .with_synopsis(on);
                for q in [&qp, &qs] {
                    let s = q.aggregate_where(&sel, AggregateFn::Sum, &pred).unwrap();
                    assert!((s - serial).abs() <= 1e-9 * serial.abs().max(1.0));
                    let c = q.aggregate_where(&sel, AggregateFn::Count, &pred).unwrap();
                    assert_eq!(c, count, "threads={threads} synopsis={on}");
                }
            }
        }
    }

    #[test]
    fn where_routes_time_blocks_and_prunes_untouched_ones() {
        let m = bumpy(40, 30);
        let e = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let sel = Selection::time_range(Axis::All, 12, 18);
        let pred = Predicate::new(CmpOp::Lt, 100.0).unwrap(); // everything matches
        let got = QueryEngine::new(&e)
            .aggregate_where(&sel, AggregateFn::Sum, &pred)
            .unwrap();
        let expect: f64 = {
            let mut s = OnlineStats::new();
            for i in 0..40 {
                for j in 12..18 {
                    s.push(m[(i, j)]);
                }
            }
            s.sum()
        };
        assert_eq!(got.to_bits(), expect.to_bits());
        assert_eq!(e.blocks[0].calls(), 0, "block 0 must stay cold");
        assert_eq!(e.blocks[2].calls(), 0, "block 2 must stay cold");
    }

    #[test]
    fn single_shard_matrix_keeps_monolithic_path() {
        // shard_starts = [0] means "one shard": the result must equal
        // the monolithic engine bit-for-bit at one thread.
        let m = bumpy(60, 8);
        let sharded = ShardedExact(m.clone(), vec![0]);
        let plain = ExactMatrix(m);
        let sel = Selection::all();
        let a = QueryEngine::new(&sharded).aggregate_all(&sel).unwrap();
        let b = QueryEngine::new(&plain).aggregate_all(&sel).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn store_level_threading_on_compressed_matrix() {
        // The threaded path also runs over a real compressed matrix
        // (Sync reconstruction), not just the exact adapter.
        let x = bumpy(120, 10);
        let c = ats_compress::SvdCompressed::compress(&x, 4, 1).unwrap();
        let sel = Selection {
            rows: Axis::Range(0, 120),
            cols: Axis::Range(0, 10),
        };
        let serial = QueryEngine::new(&c)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        let par = QueryEngine::new(&c)
            .with_threads(4)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        assert!((serial - par).abs() <= 1e-9 * serial.abs().max(1.0));
    }
}
