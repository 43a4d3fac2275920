//! The threaded build's race detector: an SVDD store built and saved at
//! threads {1, 2, 4} must be the same bytes on disk, for one shard and for
//! two.
//!
//! Every threaded pass of the build (the Gram fold, pass 2's private
//! queues and their merge, the `U` emission) runs on real scoped threads,
//! so a data race or an order-dependent merge shows up here as a byte
//! difference. The matrix is "spiky" and its errors grow down the rows:
//! later cells keep clearing each queue's floor, so every candidate queue
//! compacts many times (γ runs from a few hundred to about 13 000 against
//! 288 000 offers per queue) and the merge sees buffers caught between
//! compactions.

use adhoc_ts::common::TestDir;
use adhoc_ts::compress::SpaceBudget;
use adhoc_ts::core::store::{Method, SequenceStore};
use adhoc_ts::linalg::Matrix;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ROWS: usize = 3_000;
const COLS: usize = 96;

/// Low-rank seasonal rows, noise and 2% spikes whose sizes grow with the
/// row index.
fn spiky_matrix() -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_ba5e);
    let level: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(0.5..20.0)).collect();
    let mut x = Matrix::zeros(ROWS, COLS);
    for (i, &lv) in level.iter().enumerate() {
        let growth = 1.0 + 3.0 * i as f64 / ROWS as f64;
        for j in 0..COLS {
            let season = 1.0 + 0.5 * ((j % 7) as f64 / 7.0 * std::f64::consts::TAU).sin();
            let mut v = lv * season + growth * rng.gen_range(-0.5..0.5);
            if rng.gen_bool(0.02) {
                v += growth * rng.gen_range(5.0..50.0);
            }
            x[(i, j)] = v;
        }
    }
    x
}

/// Every file under `dir`, by relative path.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn threaded_svdd_builds_save_byte_identical_stores() {
    let x = spiky_matrix();
    let tmp = TestDir::new("build-race");
    for shards in [1usize, 2] {
        let mut reference: Option<(usize, BTreeMap<PathBuf, Vec<u8>>)> = None;
        for threads in [1usize, 2, 4] {
            let store = SequenceStore::builder()
                .method(Method::Svdd)
                .budget(SpaceBudget::from_percent(10.0))
                .threads(threads)
                .shards(shards)
                .time_blocks(1)
                .bloom(true)
                .build(&x)
                .unwrap();
            let dir = tmp.file(format!("s{shards}-t{threads}"));
            store.save(&dir).unwrap();
            let files = tree(&dir);
            assert!(!files.is_empty());
            match &reference {
                None => reference = Some((threads, files)),
                Some((t0, want)) => {
                    assert_eq!(
                        want.keys().collect::<Vec<_>>(),
                        files.keys().collect::<Vec<_>>(),
                        "shards={shards}: file sets differ between threads {t0} and {threads}"
                    );
                    for (path, bytes) in &files {
                        assert!(
                            want.get(path) == Some(bytes),
                            "shards={shards}: {} differs between threads {t0} and {threads}",
                            path.display()
                        );
                    }
                }
            }
        }
    }
}
