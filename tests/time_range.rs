//! Integration tests for ad hoc time-range queries over time-blocked
//! (v4) stores: `[t1..t2)` aggregates must read only the blocks that
//! overlap the range (per-block IoStats-asserted), answer exactly the
//! block-order merge of per-block baselines, degrade to clean errors on
//! empty/out-of-range inputs, and — when confined to one block — match a
//! standalone store over that column slice bitwise.

use adhoc_ts::compress::method::block_budget;
use adhoc_ts::compress::SpaceBudget;
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::{time_block_ranges, TimeBlockedStore};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::selection::{Axis, Selection};
use adhoc_ts::storage::ColumnSlice;
use ats_common::{AtsError, OnlineStats, TestDir};
use proptest::prelude::*;

/// Structured but not perfectly low-rank data, seeded so every case is
/// deterministic.
fn wavy(n: usize, m: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        let s = seed as usize % 7 + 1;
        ((i % 5) + 1) as f64 * if (j + s) % 7 < 5 { 2.0 } else { 0.3 }
            + ((i * 7 + j * 13 + s) % 11) as f64 * 0.05
    })
}

#[test]
fn range_aggregates_and_batches_prune_cold_blocks() {
    // 4 blocks of 9 columns; a range and a cell batch confined to block
    // 2 must leave blocks 0, 1, 3 with zero I/O — the paper's O(k) cell
    // cost argument extended to the time axis.
    let x = wavy(120, 36, 3);
    let tmp = TestDir::new("ats-trange");
    let dir = tmp.file("store");
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(2)
        .time_blocks(4)
        .build(&x)
        .unwrap()
        .save(&dir)
        .unwrap();

    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store);
    let sel = Selection::time_range(Axis::All, 19, 26); // inside 18..27
    let v = engine.aggregate(&sel, AggregateFn::Avg).unwrap();
    assert!(v.is_finite());
    let per_block = store.block_io_snapshots();
    assert_eq!(per_block.len(), 4);
    assert!(per_block[2].physical_reads > 0);
    for (b, snap) in per_block.iter().enumerate() {
        if b != 2 {
            assert_eq!(snap.physical_reads, 0, "block {b} cold after aggregate");
            assert_eq!(snap.logical_reads, 0, "block {b} cold after aggregate");
        }
    }
    let dense_reads = per_block[2].logical_reads;

    // A 2-column range inside block 2 is sparse (2·3 < 9 columns), so it
    // fetches only the selected cells — but still one U row per selected
    // row, exactly what the dense whole-row scan above paid.
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store);
    let sparse = Selection::time_range(Axis::All, 21, 23);
    assert!(engine
        .aggregate(&sparse, AggregateFn::Sum)
        .unwrap()
        .is_finite());
    let per_block = store.block_io_snapshots();
    assert_eq!(
        per_block[2].logical_reads, dense_reads,
        "sparse range reads one U row per selected row"
    );
    for (b, snap) in per_block.iter().enumerate() {
        if b != 2 {
            assert_eq!(snap.logical_reads, 0, "block {b} cold after sparse range");
        }
    }

    // batch_cells through a fresh store: same confinement.
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store);
    let req = adhoc_ts::query::BatchRequest::new(vec![(5, 20), (80, 25), (5, 22), (117, 18)]);
    let res = engine.batch_cells(&req).unwrap();
    assert_eq!(res.values().len(), 4);
    let per_block = store.block_io_snapshots();
    assert!(per_block[2].physical_reads > 0);
    for (b, snap) in per_block.iter().enumerate() {
        if b != 2 {
            assert_eq!(snap.physical_reads, 0, "block {b} cold after batch");
        }
    }

    // A block-edge-spanning range touches exactly the two overlapped
    // blocks.
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store);
    engine
        .aggregate(&Selection::time_range(Axis::All, 8, 12), AggregateFn::Sum)
        .unwrap();
    let per_block = store.block_io_snapshots();
    assert!(per_block[0].physical_reads > 0);
    assert!(per_block[1].physical_reads > 0);
    assert_eq!(per_block[2].physical_reads, 0);
    assert_eq!(per_block[3].physical_reads, 0);
}

#[test]
fn block_local_range_aggregates_bitwise_match_standalone_slice_store() {
    // The tentpole invariant at the query layer: an aggregate confined
    // to one block answers bit-for-bit what a standalone store built
    // over that column slice (same per-block budget) answers.
    let x = wavy(100, 24, 9);
    let pct = SpaceBudget::from_percent(15.0);
    let blocked = SequenceStore::builder()
        .budget(pct)
        .time_blocks(3)
        .build(&x)
        .unwrap();
    let (c0, c1) = (8usize, 16usize); // block 1 of [0..8, 8..16, 16..24]
    let slice = ColumnSlice::new(&x, c0, c1).unwrap();
    // Pinned to one block: this store IS the single-block baseline.
    let standalone = SequenceStore::builder()
        .budget(block_budget(pct, 100, c1 - c0))
        .time_blocks(1)
        .build(&slice)
        .unwrap();
    for rows in [Axis::All, Axis::Range(10, 60), Axis::set(vec![0, 7, 99])] {
        let a = blocked
            .aggregate_all(&Selection::time_range(rows.clone(), c0, c1))
            .unwrap();
        let b = standalone
            .aggregate_all(&Selection::time_range(rows, 0, c1 - c0))
            .unwrap();
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.count, b.count);
        assert_eq!(a.min.to_bits(), b.min.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
        assert_eq!(a.avg.to_bits(), b.avg.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
    }
}

#[test]
fn boundary_ranges_error_cleanly_or_answer_exactly() {
    let x = wavy(40, 18, 5);
    let store = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .time_blocks(3)
        .build(&x)
        .unwrap();
    // Empty range: InvalidArgument from every aggregate, never a panic.
    for f in AggregateFn::ALL {
        let err = store
            .aggregate(&Selection::time_range(Axis::All, 7, 7), f)
            .unwrap_err();
        assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
    }
    // Backwards and past-the-end ranges are refused.
    assert!(store
        .aggregate(&Selection::time_range(Axis::All, 9, 4), AggregateFn::Sum)
        .is_err());
    assert!(store
        .aggregate(&Selection::time_range(Axis::All, 10, 19), AggregateFn::Sum)
        .is_err());
    // A single-column range answers the column exactly (count) and the
    // min/max of reconstructed cells bitwise.
    let sel = Selection::time_range(Axis::All, 11, 12);
    assert_eq!(store.aggregate(&sel, AggregateFn::Count).unwrap(), 40.0);
    let mut stats = OnlineStats::new();
    for i in 0..40 {
        stats.push(store.cell(i, 11).unwrap());
    }
    assert_eq!(
        store.aggregate(&sel, AggregateFn::Min).unwrap().to_bits(),
        stats.min().to_bits()
    );
    assert_eq!(
        store.aggregate(&sel, AggregateFn::Max).unwrap().to_bits(),
        stats.max().to_bits()
    );
    // A range ending exactly on a block edge (cols 0..6 of blocks
    // [0..6, 6..12, 12..18]) answers and equals the per-cell fold.
    let sel = Selection::time_range(Axis::All, 0, 6);
    let got = store.aggregate(&sel, AggregateFn::Sum).unwrap();
    let mut expect = OnlineStats::new();
    for i in 0..40 {
        for j in 0..6 {
            expect.push(store.cell(i, j).unwrap());
        }
    }
    assert!((got - expect.sum()).abs() <= 1e-9 * expect.sum().abs().max(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// An arbitrary `[t1..t2)` range aggregate over arbitrary
    /// (rows, cols, B, shards, threads) equals the block-order merge of
    /// per-block exact baselines — each baseline folded from the
    /// store's own reconstructed cells, restricted to the block's slice
    /// of the range, merged in ascending block order.
    #[test]
    fn range_aggregates_equal_block_order_merge(
        rows in 8usize..28,
        cols in 4usize..22,
        braw in 1usize..6,
        shards in 1usize..4,
        threads in 1usize..4,
        seed in 0u64..1000,
        t in 0usize..1000,
        w in 1usize..1000,
        r in 0usize..1000,
    ) {
        let t1 = t % cols;
        let t2 = t1 + 1 + w % (cols - t1);
        // Blocks at least 4 columns wide so every block's share of the
        // budget holds at least one principal component.
        let b = 1 + braw % (cols / 4).max(1);
        let x = wavy(rows, cols, seed);
        let store = SequenceStore::builder()
            .budget(SpaceBudget::from_percent(60.0))
            .time_blocks(b)
            .shards(shards)
            .threads(threads)
            .build(&x)
            .unwrap();
        // A row restriction rides along: either everything or a range.
        let r1 = r % rows;
        let row_axis = if r % 2 == 0 { Axis::All } else { Axis::Range(r1, rows) };
        let row_list: Vec<usize> = row_axis.to_vec(rows);

        let mut expect = OnlineStats::new();
        for (s, e) in time_block_ranges(cols, b) {
            let (lo, hi) = (t1.max(s), t2.min(e));
            if lo >= hi {
                continue; // block outside the range: contributes nothing
            }
            let mut part = OnlineStats::new();
            for &i in &row_list {
                for j in lo..hi {
                    part.push(store.cell(i, j).unwrap());
                }
            }
            expect.merge(&part);
        }

        let got = store
            .aggregate_all(&Selection::time_range(row_axis, t1, t2))
            .unwrap();
        prop_assert_eq!(got.count, expect.count());
        prop_assert_eq!(got.min.to_bits(), expect.min().to_bits());
        prop_assert_eq!(got.max.to_bits(), expect.max().to_bits());
        let tol = |a: f64| 1e-9 * a.abs().max(1.0);
        prop_assert!((got.sum - expect.sum()).abs() <= tol(expect.sum()),
            "sum {} vs {}", got.sum, expect.sum());
        prop_assert!((got.avg - expect.mean()).abs() <= tol(expect.mean()),
            "avg {} vs {}", got.avg, expect.mean());
        prop_assert!(
            (got.stddev - expect.population_std_dev()).abs()
                <= tol(expect.population_std_dev()),
            "stddev {} vs {}", got.stddev, expect.population_std_dev());
    }
}
