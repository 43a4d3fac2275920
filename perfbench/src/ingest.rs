//! The `ingest` workload: build a phone10000×366 SVDD store at a 10%
//! budget and commit it to disk, the paper's 3-pass algorithm plus the
//! staged fsync+rename save. The traced run adds timed probes of the
//! build's layers (Gram pass, eigensolve, SVDD, plain SVD at `k_opt`).

use crate::gen::Rng;
use crate::report::{dir_bytes, json_str, num, peak_rss_mib, Metrics};
use crate::stats::{median, Summary};
use crate::trace::{totals, Tracer};
use crate::{Outcome, Run};
use ats_common::Result;
use ats_compress::{gram, SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions};
use ats_core::store::{Method, SequenceStore};
use ats_core::TimeBlockedStore;
use ats_data::{generate_phone, PhoneConfig};
use ats_linalg::Matrix;
use ats_query::{QueryEngine, Selection};
use std::path::Path;
use std::time::Instant;

const ROWS: usize = 10_000;
const COLS: usize = 366;
const BUDGET_PCT: f64 = 10.0;
const THREADS: usize = 2;
/// Cells of the reopened store checked against the in-memory store.
const GATE_CELLS: usize = 2_000;
/// Data generations timed for `setup_s` (median reported).
const SETUP_REPS: usize = 7;

/// Seed of the customer population every run draws from.
const POPULATION_SEED: u64 = 42;

/// The input matrix of a run: one fixed phone population of `rows`
/// customers × 366 days, in a row order drawn from `seed`. The seed
/// therefore places every customer (its shard, synopsis tile and pages)
/// and, through the query lines, everything asked about it. The values
/// themselves are not redrawn per seed: with Zipf(1) volumes the largest
/// customer alone carries most of the data's sum of squares, so a fresh
/// population per seed moves `rmspe_pct` and the build's work by tens of
/// percent and would hide any regression smaller than that.
pub fn dataset(seed: u64, rows: usize) -> Matrix {
    let population = generate_phone(&PhoneConfig {
        customers: rows,
        days: COLS,
        seed: POPULATION_SEED,
        ..PhoneConfig::default()
    });
    let mut order: Vec<usize> = (0..rows).collect();
    Rng::new(seed, "row-order").shuffle(&mut order);
    let src = population.matrix();
    let mut x = Matrix::zeros(rows, COLS);
    for (i, &from) in order.iter().enumerate() {
        x.row_mut(i).copy_from_slice(src.row(from));
    }
    x
}

/// The measured operation, every knob pinned.
fn builder() -> ats_core::store::StoreBuilder {
    SequenceStore::builder()
        .method(Method::Svdd)
        .budget(SpaceBudget::from_percent(BUDGET_PCT))
        .threads(THREADS)
        .shards(1)
        .time_blocks(1)
        .bloom(true)
}

/// One build + save, spanned as `ingest.op` → `core.build`, `storage.save`.
fn ingest_op(x: &Matrix, dir: &Path, t: &mut Tracer, req: u64) -> Result<(SequenceStore, f64)> {
    let t0 = Instant::now();
    let op = t.begin("ingest.op", None, req);
    let store = t.span("core.build", op, req, || builder().build(x))?;
    t.span("storage.save", op, req, || store.save(dir))?;
    t.end(op);
    Ok((store, t0.elapsed().as_secs_f64()))
}

/// What the correctness gate found.
struct Gate {
    checked: u64,
    mismatches: u64,
    k_opt: usize,
    deltas: usize,
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Reopen the saved store and compare a seeded sample of cells and all
/// six aggregates (over everything and over a seeded rectangle) bitwise
/// with the in-memory store.
fn gate(seed: u64, store: &SequenceStore, dir: &Path, t: &mut Tracer, req: u64) -> Result<Gate> {
    let reopened = t.span("storage.open", None, req, || {
        TimeBlockedStore::open(dir, 4096)
    })?;
    let mem = store.engine().with_threads(THREADS).with_synopsis(true);
    let disk = QueryEngine::new(&reopened)
        .with_threads(THREADS)
        .with_synopsis(true);
    let mut rng = Rng::new(seed, "ingest-gate");
    let (n, m) = (store.rows(), store.cols());
    let mut g = Gate {
        checked: 0,
        mismatches: 0,
        k_opt: reopened.nested_manifests().iter().map(|b| b.k).sum(),
        deltas: reopened.num_deltas(),
    };
    for _ in 0..GATE_CELLS {
        let (i, j) = (rng.below(n), rng.below(m));
        let want = mem.cell(i, j)?;
        let got = t.span("query.cell", None, req, || disk.cell(i, j))?;
        g.checked += 1;
        if !same(want, got) {
            g.mismatches += 1;
            eprintln!("perfbench: ingest gate: cell {i} {j}: reopened {got}, built {want}");
        }
    }
    let (r0, c0) = (rng.below(n / 2), rng.below(m / 2));
    let rect = Selection {
        rows: ats_query::selection::Axis::Range(r0, r0 + 1 + rng.below(n - r0 - 1)),
        cols: ats_query::selection::Axis::Range(c0, c0 + 1 + rng.below(m - c0 - 1)),
    };
    for sel in [Selection::all(), rect] {
        let want = mem.aggregate_all(&sel)?;
        let got = t.span("scan.full", None, req, || disk.aggregate_all(&sel))?;
        let pairs = [
            (want.sum, got.sum),
            (want.avg, got.avg),
            (want.count as f64, got.count as f64),
            (want.min, got.min),
            (want.max, got.max),
            (want.stddev, got.stddev),
        ];
        for (w, o) in pairs {
            g.checked += 1;
            if !same(w, o) {
                g.mismatches += 1;
                eprintln!(
                    "perfbench: ingest gate: aggregate over {sel:?}: reopened {o}, built {w}"
                );
            }
        }
    }
    Ok(g)
}

pub fn run(r: &Run) -> Result<Outcome> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut x = Matrix::zeros(0, 0);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        x = dataset(r.seed, ROWS);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let input_bytes = (ROWS * COLS * 8) as f64;
    let dir = |k: usize| r.work.join(format!("ingest-{k}"));
    if r.trace {
        return traced(r, &x, input_bytes, &dir(0));
    }

    let mut off = Tracer::new(false);
    let mut times = Vec::new();
    let started = Instant::now();
    let mut built = None;
    while times.is_empty() || started.elapsed().as_secs_f64() < r.seconds {
        let k = times.len();
        if k > 0 {
            std::fs::remove_dir_all(dir(k - 1))?;
        }
        let (store, secs) = ingest_op(&x, &dir(k), &mut off, k as u64)?;
        times.push(secs);
        built = Some(store);
    }
    let wall = started.elapsed().as_secs_f64();
    let store = built.expect("at least one ingest op ran");
    let path = dir(times.len() - 1);
    let g = gate(r.seed, &store, &path, &mut off, 0)?;
    let bytes = dir_bytes(&path)? as f64;
    let rmspe = store.error_report(&x)?.rmspe;
    let lat: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    let s = Summary::new(&lat, 0.9);

    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", peak_rss_mib(), "MiB");
    m.push("space_ratio", bytes / input_bytes, "ratio");
    m.push("rmspe_pct", rmspe * 100.0, "%");
    m.push("p50_ms", s.p50, "ms");
    m.push("tail_ms", s.tail, "ms");
    m.push("ops_per_s", times.len() as f64 / wall, "1/s");
    let detail = format!(
        "{{\"rows\": {ROWS}, \"cols\": {COLS}, \"budget_pct\": {BUDGET_PCT}, \"threads\": {THREADS}, \
         \"shards\": 1, \"time_blocks\": 1, \"bloom\": true, \"ops\": {}, \"op_s\": [{}], \
         \"tail\": {}, \"k_opt\": {}, \"deltas\": {}, \"store_bytes\": {bytes}, \
         \"gate_checked\": {}, \"gate_mismatches\": {}}}",
        times.len(),
        times.iter().map(|t| num(*t)).collect::<Vec<_>>().join(", "),
        json_str(&s.tail_label()),
        g.k_opt,
        g.deltas,
        g.checked,
        g.mismatches,
    );
    Ok(Outcome {
        attempted: times.len() as u64 + g.checked,
        failed: g.mismatches,
        metrics: m,
        detail,
        tracer: None,
    })
}

/// The traced run: one untraced op, one traced op (the tracing
/// overhead is their difference), then timed probes of each build layer.
fn traced(r: &Run, x: &Matrix, input_bytes: f64, dir: &Path) -> Result<Outcome> {
    let (_, untraced_s) = ingest_op(x, dir, &mut Tracer::new(false), 0)?;
    std::fs::remove_dir_all(dir)?;
    let mut t = Tracer::new(true);
    let (store, traced_s) = ingest_op(x, dir, &mut t, 1)?;
    let g = gate(r.seed, &store, dir, &mut t, 2)?;
    let bytes = dir_bytes(dir)? as f64;

    let g_mat = t.span("linalg.gram", None, 3, || {
        gram::compute_gram_parallel(x, THREADS)
    })?;
    t.span("linalg.eigen", None, 3, || ats_linalg::sym_eigen(&g_mat))?;
    let mut opts = SvddOptions::new(SpaceBudget::from_percent(BUDGET_PCT));
    opts.threads = THREADS;
    opts.with_bloom = true;
    let svdd = t.span("compress.svdd", None, 4, || {
        SvddCompressed::compress(x, &opts)
    })?;
    let svd = t.span("compress.svd", None, 5, || {
        SvdCompressed::compress(x, svdd.k_opt(), THREADS)
    })?;
    let probe_ok =
        svd.k() == svdd.k_opt() && svdd.k_opt() == g.k_opt && svdd.num_deltas() == g.deltas;
    if !probe_ok {
        eprintln!(
            "perfbench: ingest probe disagrees with the build: k_opt {} vs {}, deltas {} vs {}",
            svdd.k_opt(),
            g.k_opt,
            svdd.num_deltas(),
            g.deltas
        );
    }

    let tot = totals(t.spans());
    let secs = |name: &str| tot.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e9);
    let per = |name: &str, scale: f64| {
        tot.get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / scale)
    };
    let (build_s, save_s, svdd_s, svd_s) = (
        secs("core.build"),
        secs("storage.save"),
        secs("compress.svdd"),
        secs("compress.svd"),
    );
    let op_s = secs("ingest.op");
    let mut m = crate::zero_layers();
    let mut set = |name: &str, v: f64| crate::set_layer(&mut m, name, v);
    set("linalg.gram_s", secs("linalg.gram"));
    set("linalg.eigen_s", secs("linalg.eigen"));
    set("compress.svdd_s", svdd_s);
    set("compress.svd_s", svd_s);
    set("compress.pass2_s", svdd_s - svd_s);
    set("compress.k_opt", svdd.k_opt() as f64);
    set("compress.candidates", svdd.candidates().len() as f64);
    set("compress.deltas", svdd.num_deltas() as f64);
    set("core.build_s", build_s);
    set("core.build_extra_s", build_s - svdd_s);
    set("storage.save_s", save_s);
    set("storage.bytes_written", bytes);
    set("storage.open_s", secs("storage.open"));
    set("query.cell_us", per("query.cell", 1e3));
    set("scan.full_ms", per("scan.full", 1e6));
    set("trace.gap_frac", (op_s - build_s - save_s) / op_s);
    set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    let detail = format!(
        "{{\"rows\": {ROWS}, \"cols\": {COLS}, \"untraced_op_s\": {}, \"traced_op_s\": {}, \
         \"space_ratio\": {}, \"probe_agrees\": {probe_ok}, \"gate_checked\": {}, \
         \"gate_mismatches\": {}}}",
        num(untraced_s),
        num(traced_s),
        num(bytes / input_bytes),
        g.checked,
        g.mismatches,
    );
    Ok(Outcome {
        attempted: 1 + g.checked,
        failed: g.mismatches + u64::from(!probe_ok),
        metrics: m,
        detail,
        tracer: Some(t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_a_seeded_row_order_of_one_population() {
        let rows = |x: &Matrix| (0..x.rows()).map(|i| x.row(i).to_vec()).collect::<Vec<_>>();
        let a = rows(&dataset(1, 60));
        assert_eq!(a, rows(&dataset(1, 60)));
        let b = rows(&dataset(2, 60));
        assert_ne!(a, b);
        let sorted = |mut v: Vec<Vec<f64>>| {
            v.sort_by(|p, q| p.partial_cmp(q).expect("finite cells"));
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }
}
