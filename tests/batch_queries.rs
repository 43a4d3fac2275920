//! Cross-crate tests for the batched query execution path: batched cell
//! queries must be bitwise identical to the per-cell loop on every method,
//! shard layout, and thread count; the blocked multi-row kernels must be
//! bitwise identical to the scalar reconstruction on cells, rows, and all
//! aggregates; and a batch over a paged store must perform exactly one
//! `U`-row fetch per distinct requested row per shard.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget};
use adhoc_ts::core::shard::ShardedStore;
use adhoc_ts::core::store::{method_by_name, SequenceStore};
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::selection::{Axis, Selection};
use adhoc_ts::query::BatchRequest;
use ats_common::{Result, TestDir};
use proptest::prelude::*;

/// A wrapper that forwards only the *required* trait methods (plus the
/// shard and time-block layout, so the engine takes the same fan-out
/// path), leaving every batch entry point on its default per-cell
/// implementation. Time blocks are wrapped too, so the scan inside each
/// block is scalar as well. This is the scalar baseline the vectorized
/// kernels must match bit for bit.
struct ScalarOnly<'a> {
    inner: &'a dyn CompressedMatrix,
    blocks: Vec<ScalarOnly<'a>>,
}

impl<'a> ScalarOnly<'a> {
    fn new(inner: &'a dyn CompressedMatrix) -> Self {
        let starts = inner.time_block_starts();
        let blocks = (0..starts.len())
            .filter(|_| starts.len() > 1)
            .map(|b| ScalarOnly::new(inner.time_block(b).unwrap()))
            .collect();
        ScalarOnly { inner, blocks }
    }
}

impl CompressedMatrix for ScalarOnly<'_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.inner.cell(i, j)
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }
    fn shard_starts(&self) -> Vec<usize> {
        self.inner.shard_starts()
    }
    fn time_block_starts(&self) -> Vec<usize> {
        match self.blocks.len() {
            0 => Vec::new(),
            _ => self.inner.time_block_starts(),
        }
    }
    fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
        self.blocks.get(b).map(|s| s as &dyn CompressedMatrix)
    }
}

/// Save a 4-time-block × 2-shard store of `x` under `dir` and reopen it
/// paged, so the fetch-path tests also cross time-block routing.
fn reopened_blocked(x: &Matrix, dir: &TestDir) -> TimeBlockedStore {
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(25.0))
        .shards(2)
        .time_blocks(4)
        .build(x)
        .unwrap()
        .save(dir.file("blocked"))
        .unwrap();
    TimeBlockedStore::open(dir.file("blocked"), 128).unwrap()
}

fn phone(rows: usize, cols: usize, seed: u64) -> Matrix {
    generate_phone(&PhoneConfig {
        customers: rows,
        days: cols,
        seed,
        ..PhoneConfig::default()
    })
    .matrix()
    .clone()
}

/// Unsorted, duplicated cell requests crossing every shard of a 90-row
/// matrix split into up to 4 shards.
fn scattered_cells() -> Vec<(usize, usize)> {
    vec![
        (89, 23),
        (0, 0),
        (45, 11),
        (45, 11),
        (2, 23),
        (88, 0),
        (30, 5),
        (0, 1),
        (45, 0),
        (89, 23),
        (61, 7),
    ]
}

#[test]
fn batch_matches_per_cell_loop_bitwise_across_methods_shards_threads() {
    let x = phone(90, 24, 11);
    let req = BatchRequest::new(scattered_cells());
    for method in ["svd", "svdd"] {
        for shards in [1usize, 2, 4] {
            let store = SequenceStore::builder()
                .method(method_by_name(method).unwrap())
                .budget(SpaceBudget::from_percent(20.0))
                .shards(shards)
                .build(&x)
                .unwrap();
            for threads in [1usize, 3] {
                let engine = QueryEngine::new(store.compressed()).with_threads(threads);
                let res = engine.batch_cells(&req).unwrap();
                assert_eq!(res.distinct_rows(), 7, "{method} shards={shards}");
                for (&(i, j), &got) in req.cells().iter().zip(res.values()) {
                    assert_eq!(
                        got.to_bits(),
                        engine.cell(i, j).unwrap().to_bits(),
                        "{method} shards={shards} threads={threads} cell ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn store_level_batch_matches_cells() {
    let x = phone(60, 20, 3);
    let store = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .shards(2)
        .build(&x)
        .unwrap();
    let cells = vec![(59, 0), (0, 19), (31, 4), (31, 4), (12, 12)];
    let got = store.batch_cells(&cells).unwrap();
    for (&(i, j), &v) in cells.iter().zip(&got) {
        assert_eq!(v.to_bits(), store.cell(i, j).unwrap().to_bits());
    }
}

#[test]
fn saved_store_batch_fetches_each_distinct_row_once_per_shard() {
    let dir = TestDir::new("ats-batch");
    let x = phone(120, 24, 5);
    // Pinned to one time block: this test opens the v3 sharded layout
    // directly to count per-shard fetches.
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(3)
        .time_blocks(1)
        .build(&x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    let store = ShardedStore::open(dir.file("store"), 256).unwrap();

    // Distinct rows {3, 7, 50, 119} spread over shards 0, 1, 2 (rows
    // 0..40, 40..80, 80..120), with heavy duplication within each row.
    let req = BatchRequest::new(vec![
        (119, 0),
        (3, 5),
        (50, 1),
        (3, 20),
        (7, 7),
        (3, 5),
        (119, 23),
        (50, 1),
        (7, 0),
        (119, 11),
    ]);
    let engine = QueryEngine::new(&store);
    let res = engine.batch_cells(&req).unwrap();
    assert_eq!(res.distinct_rows(), 4);

    // The acceptance bound: one U-row fetch per distinct requested row
    // per shard — cold, so logical and physical reads agree.
    let snaps = store.shard_io_snapshots();
    let expect = [2u64, 1, 1]; // rows {3,7} | {50} | {119}
    assert_eq!(snaps.len(), 3);
    for (idx, (snap, &want)) in snaps.iter().zip(&expect).enumerate() {
        assert_eq!(snap.logical_reads, want, "shard {idx} logical");
        assert_eq!(snap.physical_reads, want, "shard {idx} physical");
    }

    // Re-running the same batch fetches the same rows logically but hits
    // the buffer pool: no new physical reads.
    engine.batch_cells(&req).unwrap();
    let again = store.shard_io_snapshots();
    for (idx, (snap, &want)) in again.iter().zip(&expect).enumerate() {
        assert_eq!(snap.logical_reads, 2 * want, "shard {idx} logical (warm)");
        assert_eq!(snap.physical_reads, want, "shard {idx} physical (warm)");
        assert_eq!(snap.cache_hits, want, "shard {idx} cache hits");
    }

    // And the values still equal the per-cell loop bit for bit.
    for (&(i, j), &got) in req.cells().iter().zip(res.values()) {
        assert_eq!(got.to_bits(), engine.cell(i, j).unwrap().to_bits());
    }
}

#[test]
fn out_of_range_batch_does_no_io() {
    let dir = TestDir::new("ats-batch");
    let x = phone(50, 16, 9);
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .shards(2)
        .time_blocks(1)
        .build(&x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    let store = ShardedStore::open(dir.file("store"), 64).unwrap();
    let engine = QueryEngine::new(&store);

    // One bad row (and, separately, one bad column) poisons the whole
    // batch up front: no shard is touched, no partial work happens.
    for bad in [vec![(0, 0), (50, 0)], vec![(0, 16), (49, 0)]] {
        assert!(engine.batch_cells(&BatchRequest::new(bad)).is_err());
    }
    for (idx, snap) in store.shard_io_snapshots().iter().enumerate() {
        assert_eq!(snap.logical_reads, 0, "shard {idx}");
        assert_eq!(snap.physical_reads, 0, "shard {idx}");
    }
}

#[test]
fn blocked_kernels_match_scalar_baseline_bitwise() {
    // In-memory SVD and SVDD stores plus a disk-paged sharded store: the
    // overridden batch entry points must be bitwise identical to the
    // default per-cell implementations on rows, selected cells, and
    // multi-row blocks (including duplicated, unsorted indices).
    let dir = TestDir::new("ats-batch");
    let x = phone(70, 18, 21);
    let svd = SequenceStore::builder()
        .method(method_by_name("svd").unwrap())
        .budget(SpaceBudget::from_percent(25.0))
        .build(&x)
        .unwrap();
    let svdd = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(25.0))
        .time_blocks(1)
        .build(&x)
        .unwrap();
    svdd.save(dir.file("store")).unwrap();
    let sharded = ShardedStore::open(dir.file("store"), 128).unwrap();
    let blocked = reopened_blocked(&x, &dir);

    let mats: [(&str, &dyn CompressedMatrix); 4] = [
        ("svd", svd.compressed()),
        ("svdd", svdd.compressed()),
        ("sharded", &sharded),
        ("blocked", &blocked),
    ];
    let rows = [4usize, 69, 0, 4, 33, 17, 18, 19, 20, 21];
    let cols = [17usize, 0, 9, 9, 3];
    for (name, m) in mats {
        let scalar = ScalarOnly::new(m);
        let width = m.cols();

        let mut a = vec![0.0; width];
        let mut b = vec![0.0; width];
        for i in [0, 33, 69] {
            m.row_into(i, &mut a).unwrap();
            scalar.row_into(i, &mut b).unwrap();
            assert_bits_eq(&a, &b, &format!("{name} row {i}"));
        }

        let mut a = vec![0.0; cols.len()];
        let mut b = vec![0.0; cols.len()];
        m.cells_in_row(33, &cols, &mut a).unwrap();
        scalar.cells_in_row(33, &cols, &mut b).unwrap();
        assert_bits_eq(&a, &b, &format!("{name} cells_in_row"));

        let mut a = vec![0.0; rows.len() * width];
        let mut b = vec![0.0; rows.len() * width];
        m.rows_into(&rows, &mut a).unwrap();
        scalar.rows_into(&rows, &mut b).unwrap();
        assert_bits_eq(&a, &b, &format!("{name} rows_into"));
    }
}

#[test]
fn blocked_aggregates_match_scalar_baseline_bitwise() {
    // Same engine, same shard layout, same thread count — the only
    // difference is blocked kernels versus the default per-cell scan, so
    // every aggregate must agree bit for bit.
    let dir = TestDir::new("ats-batch");
    let x = phone(97, 17, 13);
    let store = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .shards(3)
        .time_blocks(1)
        .build(&x)
        .unwrap();
    store.save(dir.file("store")).unwrap();
    let sharded = ShardedStore::open(dir.file("store"), 256).unwrap();
    let blocked = reopened_blocked(&x, &dir);

    let selections = [
        Selection::all(),
        Selection {
            rows: Axis::Range(3, 90),
            cols: Axis::Range(0, 17),
        },
        Selection {
            rows: Axis::set(vec![0, 7, 13, 14, 15, 40, 96]),
            cols: Axis::set(vec![0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16]),
        },
    ];
    let mats: [(&str, &dyn CompressedMatrix); 3] = [
        ("in-memory", store.compressed()),
        ("sharded", &sharded),
        ("blocked", &blocked),
    ];
    for (name, m) in mats {
        let scalar = ScalarOnly::new(m);
        for threads in [1usize, 3] {
            let fast = QueryEngine::new(m).with_threads(threads);
            let base = QueryEngine::new(&scalar).with_threads(threads);
            for sel in &selections {
                for f in AggregateFn::ALL {
                    let a = fast.aggregate(sel, f).unwrap();
                    let b = base.aggregate(sel, f).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name} threads={threads} {}: {a} vs {b}",
                        f.name()
                    );
                }
            }
        }
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (t, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} [{t}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_batches_match_per_cell_loop(
        seed in 0u64..1000,
        raw in proptest::collection::vec((0usize..48, 0usize..14), 1..40),
        shards in 1usize..4,
        threads in 1usize..4,
    ) {
        let x = phone(48, 14, seed);
        let store = SequenceStore::builder()
            .budget(SpaceBudget::from_percent(25.0))
            .shards(shards)
            .build(&x)
            .unwrap();
        let engine = QueryEngine::new(store.compressed()).with_threads(threads);
        let req = BatchRequest::new(raw.clone());
        let res = engine.batch_cells(&req).unwrap();
        let mut distinct: Vec<usize> = raw.iter().map(|&(i, _)| i).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(res.distinct_rows(), distinct.len());
        for (&(i, j), &got) in raw.iter().zip(res.values()) {
            prop_assert_eq!(got.to_bits(), engine.cell(i, j).unwrap().to_bits());
        }
    }
}
