//! The two query workloads, `point_lookup` and `analytic_scan`: one
//! phone20000×366 SVDD store (10% budget, 4 time blocks × 2 shards, with
//! synopses) saved, reopened with `TimeBlockedStore::open` and served by
//! an in-process `serve()` daemon to two closed-loop socket clients.
//!
//! `point_lookup` opens the store with a pool holding every `U` row and
//! warms it, then sends Zipf-skewed `cell i j` lines. `analytic_scan`
//! opens it with the `ats serve` default of 1024 pool pages and sends a
//! seeded mix of range, row-band and `where` aggregates plus a dashboard
//! query both clients repeat. The traced run replays the lines the
//! clients sent in process, against the same store and pool, with a span
//! and an `IoSnapshot` delta around each parse and engine call.

use crate::gen::{self, AggSchedule, Kind, Line};
use crate::ingest::dataset;
use crate::report::{dir_bytes, num, peak_rss_mib, Metrics};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use ats_common::Result;
use ats_compress::{CompressedMatrix, SpaceBudget};
use ats_core::store::{Method, SequenceStore};
use ats_core::{time_block_ranges, TimeBlockedStore};
use ats_query::serve::{client, serve, ServeConfig};
use ats_query::{parse_query, BatchRequest, MetricsSnapshot, Query, QueryEngine};
use ats_storage::IoSnapshot;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::Instant;

const ROWS: usize = 20_000;
const COLS: usize = 366;
const BLOCKS: usize = 4;
const SHARDS: usize = 2;
const THREADS: usize = 2;
const BUDGET_PCT: f64 = 10.0;
const CLIENTS: usize = 2;
/// Pool pages for `analytic_scan`: the `ats serve` default.
const SCAN_POOL_PAGES: usize = 1024;
/// Distinct cell lines the `point_lookup` clients walk through.
const CELL_LINES: usize = 1 << 15;
/// Distinct non-dashboard lines in the `analytic_scan` mix.
const AGG_LINES: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    PointLookup,
    AnalyticScan,
}

impl Mode {
    fn pool_pages(self) -> usize {
        match self {
            // One page per U row per time block: the whole working set.
            Mode::PointLookup => ROWS * BLOCKS,
            Mode::AnalyticScan => SCAN_POOL_PAGES,
        }
    }

    /// Requests each client sends before the timed window opens.
    fn warmup(self) -> usize {
        match self {
            Mode::PointLookup => 200,
            Mode::AnalyticScan => 4,
        }
    }
}

/// The tail quantile `tail_ms` reports (ten samples beyond it are
/// required). p90, not p99, for cells too: on a shared 2-vCPU machine the
/// cell p95 and p99 moved between runs by up to 2× with the scheduler
/// stalls of other tenants; p90 moved far less. The
/// record line keeps every higher percentile the sample supports.
const TAIL_Q: f64 = 0.90;

/// The engine every query goes through, knobs pinned: the daemon's and
/// the in-process expectation and replay all use this one shape.
fn engine(store: &Arc<TimeBlockedStore>) -> QueryEngine<'static> {
    QueryEngine::shared(Arc::clone(store) as Arc<dyn CompressedMatrix>)
        .with_threads(THREADS)
        .with_synopsis(true)
}

/// Everything set up before the clients start.
struct Prepared {
    store: Arc<TimeBlockedStore>,
    lines: Vec<Line>,
    expected: Vec<f64>,
    build_s: f64,
    save_s: f64,
    open_s: f64,
    store_bytes: u64,
    rmspe: f64,
    warm_physical: u64,
}

fn prepare(r: &Run, mode: Mode, t: &mut Tracer) -> Result<Prepared> {
    let x = dataset(r.seed, ROWS);
    let t0 = Instant::now();
    let built = t.span("core.build", None, 0, || {
        SequenceStore::builder()
            .method(Method::Svdd)
            .budget(SpaceBudget::from_percent(BUDGET_PCT))
            .threads(THREADS)
            .shards(SHARDS)
            .time_blocks(BLOCKS)
            .bloom(true)
            .build(&x)
    })?;
    let build_s = t0.elapsed().as_secs_f64();
    let dir = r.work.join("query-store");
    let t0 = Instant::now();
    t.span("storage.save", None, 0, || built.save(&dir))?;
    let save_s = t0.elapsed().as_secs_f64();
    let store_bytes = dir_bytes(&dir)?;
    let rmspe = built.error_report(&x)?.rmspe;
    drop(x);

    let block_ranges = time_block_ranges(COLS, BLOCKS);
    let lines = match mode {
        Mode::PointLookup => gen::cell_lines(r.seed, ROWS, COLS, CELL_LINES),
        Mode::AnalyticScan => {
            // `where` thresholds at quantiles of the served values, so each
            // selects a fixed share of the cells (about 1% and 10%).
            let mut vals = vec![0.0; ROWS * COLS];
            for (i, row) in vals.chunks_exact_mut(COLS).enumerate() {
                built.compressed().row_into(i, row)?;
            }
            let thresholds = [
                gen::quantile_in_place(&mut vals, 0.99),
                gen::quantile_in_place(&mut vals, 0.90),
            ];
            let shape = gen::AggShape {
                rows: ROWS,
                cols: COLS,
                block_ranges: &block_ranges,
                thresholds,
            };
            let mut lines = gen::agg_lines(r.seed, &shape, AGG_LINES);
            lines.push(gen::full_line(&shape));
            lines
        }
    };
    drop(built);

    let t0 = Instant::now();
    let store = t.span("storage.open", None, 0, || {
        TimeBlockedStore::open(&dir, mode.pool_pages())
    })?;
    let open_s = t0.elapsed().as_secs_f64();
    let store = Arc::new(store);
    let mut warm_physical = 0;
    if mode == Mode::PointLookup {
        let mut row = vec![0.0; COLS];
        for i in 0..ROWS {
            store.row_into(i, &mut row)?;
        }
        warm_physical = store.io_snapshot().physical_reads;
    }

    // Expected answers, in process, through the same engine shape.
    let e = engine(&store);
    let expected = match mode {
        Mode::PointLookup => {
            let cells = lines
                .iter()
                .map(|l| match parse_query(&l.text)? {
                    Query::Cell(i, j) => Ok((i, j)),
                    q => Err(ats_common::AtsError::internal(format!("not a cell: {q:?}"))),
                })
                .collect::<Result<Vec<_>>>()?;
            e.batch_cells(&BatchRequest::new(cells))?.into_values()
        }
        Mode::AnalyticScan => lines
            .iter()
            .map(|l| ats_query::run_query(&e, &l.text))
            .collect::<Result<Vec<_>>>()?,
    };
    Ok(Prepared {
        store,
        lines,
        expected,
        build_s,
        save_s,
        open_s,
        store_bytes,
        rmspe,
        warm_physical,
    })
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    line: usize,
    start_ns: u64,
    rtt_ns: u64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Completion time of the last timed request, from the window start.
    last_ns: u64,
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Which line client `c` sends next.
fn schedule(mode: Mode, seed: u64, c: usize, lines: usize) -> Box<dyn FnMut() -> usize + Send> {
    match mode {
        Mode::PointLookup => {
            let mut next = c * lines / CLIENTS;
            Box::new(move || {
                let i = next;
                next = (next + 1) % lines;
                i
            })
        }
        Mode::AnalyticScan => {
            let full = lines - 1;
            let mut s = AggSchedule::new(seed, c, full);
            Box::new(move || s.next().unwrap_or(full))
        }
    }
}

/// Where the clients meet before each dashboard request, so that both
/// send it into the same admission window (two users' dashboards
/// refreshing on one tick) and the daemon's coalescing always has the
/// same work. A client leaving the window closes it, releasing the
/// other instead of leaving it waiting.
#[derive(Default)]
struct Rendezvous {
    /// (generation, clients arrived in it, closed)
    state: Mutex<(u64, usize, bool)>,
    cv: Condvar,
}

impl Rendezvous {
    /// Wait until every client has arrived. False once closed.
    fn meet(&self) -> bool {
        let mut st = self.state.lock().expect("rendezvous holder panicked");
        if st.2 {
            return false;
        }
        st.1 += 1;
        if st.1 == CLIENTS {
            st.0 += 1;
            st.1 = 0;
            self.cv.notify_all();
            return true;
        }
        let gen = st.0;
        while st.0 == gen && !st.2 {
            st = self.cv.wait(st).expect("rendezvous holder panicked");
        }
        st.0 != gen
    }

    fn close(&self) {
        self.state.lock().expect("rendezvous holder panicked").2 = true;
        self.cv.notify_all();
    }
}

/// The two points every client passes: the start barrier after warm-up
/// and the dashboard rendezvous.
struct Sync {
    start: Barrier,
    dashboard: Rendezvous,
    epoch: OnceLock<Instant>,
}

/// Drive one closed-loop client: warm-up requests, the start barrier,
/// then requests until the window closes. Every reply is checked
/// bitwise. Time spent at the dashboard rendezvous is not latency.
fn client_loop(
    addr: SocketAddr,
    lines: &[Line],
    expected: &[f64],
    mut next: Box<dyn FnMut() -> usize + Send>,
    warmup: usize,
    sync: &Sync,
    window_s: f64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: connect: {e}");
            log.attempted = 1;
            log.failed = 1;
            sync.start.wait();
            sync.dashboard.close();
            return log;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut ask = |log: &mut ClientLog, i: usize| -> bool {
        log.attempted += 1;
        let ok = match client::round_trip(&mut stream, &lines[i].text) {
            Ok(resp) => match resp.strip_prefix("OK ").map(str::parse::<f64>) {
                Some(Ok(v)) if same(v, expected[i]) => true,
                _ => {
                    eprintln!(
                        "perfbench: {:?} answered {resp:?}, expected {}",
                        lines[i].text, expected[i]
                    );
                    false
                }
            },
            Err(e) => {
                eprintln!("perfbench: {:?}: {e}", lines[i].text);
                false
            }
        };
        log.failed += u64::from(!ok);
        ok
    };
    let mut healthy = true;
    for _ in 0..warmup {
        healthy &= ask(&mut log, next());
    }
    sync.start.wait();
    let start = *sync.epoch.get_or_init(Instant::now);
    let window_ns = (window_s * 1e9) as u64;
    let ns = |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    while healthy {
        let i = next();
        if lines[i].kind == Kind::Full && !sync.dashboard.meet() {
            break;
        }
        let begin = Instant::now();
        if ns(begin) >= window_ns {
            break;
        }
        healthy = ask(&mut log, i);
        let end = Instant::now();
        log.samples.push(Sample {
            line: i,
            start_ns: ns(begin),
            rtt_ns: u64::try_from(end.duration_since(begin).as_nanos()).unwrap_or(u64::MAX),
        });
        log.last_ns = ns(end);
    }
    sync.dashboard.close();
    log
}

/// The served load: daemon up, clients run for the window, daemon down.
struct Load {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    server: MetricsSnapshot,
    io: IoSnapshot,
}

fn serve_load(r: &Run, mode: Mode, p: &Prepared) -> Result<Load> {
    let cfg = ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    };
    let io_before = p.store.io_snapshot();
    let handle = serve(engine(&p.store), cfg, None)?;
    let addr = handle.addr();
    let sync = Sync {
        start: Barrier::new(CLIENTS),
        dashboard: Rendezvous::default(),
        epoch: OnceLock::new(),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = schedule(mode, r.seed, c, p.lines.len());
                let sync = &sync;
                s.spawn(move || {
                    client_loop(
                        addr,
                        &p.lines,
                        &p.expected,
                        next,
                        mode.warmup(),
                        sync,
                        r.seconds,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let server = handle.join()?;
    let io_after = p.store.io_snapshot();
    let mut samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    samples.sort_by_key(|s| s.start_ns);
    let last_ns = logs.iter().map(|l| l.last_ns).max().unwrap_or(0);
    Ok(Load {
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        samples,
        wall_s: last_ns as f64 / 1e9,
        server,
        io: IoSnapshot {
            physical_reads: io_after.physical_reads - io_before.physical_reads,
            logical_reads: io_after.logical_reads - io_before.logical_reads,
            bytes_read: io_after.bytes_read - io_before.bytes_read,
            cache_hits: io_after.cache_hits - io_before.cache_hits,
        },
    })
}

pub fn run(r: &Run, mode: Mode) -> Result<Outcome> {
    let setup_t0 = Instant::now();
    let mut t = Tracer::new(r.trace);
    let p = prepare(r, mode, &mut t)?;
    let setup_s = setup_t0.elapsed().as_secs_f64();
    let load = serve_load(r, mode, &p)?;
    if load.samples.is_empty() {
        return Err(ats_common::AtsError::internal("no request completed"));
    }
    let input_bytes = (ROWS * COLS * 8) as f64;
    let lat: Vec<f64> = load.samples.iter().map(|s| s.rtt_ns as f64 / 1e6).collect();
    let s = Summary::new(&lat, TAIL_Q);
    let common_detail = format!(
        "\"rows\": {ROWS}, \"cols\": {COLS}, \"time_blocks\": {BLOCKS}, \"shards\": {SHARDS}, \
         \"engine_threads\": {THREADS}, \"synopsis\": true, \"pool_pages\": {}, \
         \"u_row_pages\": {}, \"warm_physical_reads\": {}, \"clients\": {CLIENTS}, \
         \"loop\": \"closed\", \"distinct_lines\": {}, \"samples\": {}, \"tail\": \"{}\", \
         \"latency_ms\": {{{}}}, \
         \"served\": {{\"queries\": {}, \"errors\": {}, \"batches\": {}, \"coalesced_cells\": {}, \
         \"agg_scans\": {}, \"coalesced_aggs\": {}, \"busy\": {}, \"latency_usec\": {}}}, \
         \"served_io\": {{\"physical\": {}, \"logical\": {}, \"hits\": {}}}",
        mode.pool_pages(),
        ROWS * BLOCKS,
        p.warm_physical,
        p.lines.len(),
        s.n,
        s.tail_label(),
        stats::ladder(&lat)
            .iter()
            .map(|(l, v)| format!("\"{l}\": {}", num(*v)))
            .collect::<Vec<_>>()
            .join(", "),
        load.server.queries,
        load.server.errors,
        load.server.batches,
        load.server.coalesced_cells,
        load.server.agg_scans,
        load.server.coalesced_aggs,
        load.server.busy,
        load.server.latency_usec,
        load.io.physical_reads,
        load.io.logical_reads,
        load.io.cache_hits,
    );

    if !r.trace {
        let mut m = Metrics::default();
        m.push("setup_s", setup_s, "s");
        m.push("peak_rss_mb", peak_rss_mib(), "MiB");
        m.push("space_ratio", p.store_bytes as f64 / input_bytes, "ratio");
        m.push("rmspe_pct", p.rmspe * 100.0, "%");
        m.push("p50_ms", s.p50, "ms");
        m.push("tail_ms", s.tail, "ms");
        m.push("ops_per_s", s.n as f64 / load.wall_s, "1/s");
        return Ok(Outcome {
            attempted: load.attempted,
            failed: load.failed,
            metrics: m,
            detail: format!("{{{common_detail}}}"),
            tracer: None,
        });
    }

    let replay = replay(r, &p, &load, &mut t)?;
    let mut m = crate::zero_layers();
    let mut set = |name: &str, v: f64| crate::set_layer(&mut m, name, v);
    set("core.build_s", p.build_s);
    set("storage.save_s", p.save_s);
    set("storage.bytes_written", p.store_bytes as f64);
    set("storage.open_s", p.open_s);
    let all = replay.total();
    set("query.parse_us", all.parse_ns / all.n / 1e3);
    if let Some(c) = replay.kinds.get(&Kind::Cell) {
        set("query.cell_us", c.engine_ns / c.n / 1e3);
        set("storage.logical_per_cell", c.io.logical_reads as f64 / c.n);
    }
    // Client round trip by kind, over the timed window.
    let mut rtt: BTreeMap<Kind, (f64, f64)> = BTreeMap::new();
    for smp in &load.samples {
        let e = rtt.entry(p.lines[smp.line].kind).or_default();
        e.0 += 1.0;
        e.1 += smp.rtt_ns as f64;
    }
    let (mut adm_sum, mut adm_n) = (0.0, 0.0);
    for (kind, &(n, rtt_ns)) in &rtt {
        if let Some(k) = replay.kinds.get(kind) {
            let adm_ms = (rtt_ns / n - (k.parse_ns + k.engine_ns) / k.n) / 1e6;
            set(&format!("serve.admission_ms.{}", kind.name()), adm_ms);
            adm_sum += adm_ms * n;
            adm_n += n;
        }
    }
    set("serve.admission_ms", adm_sum / adm_n.max(1.0));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    set(
        "serve.cells_per_batch",
        ratio(load.server.coalesced_cells, load.server.batches),
    );
    set(
        "serve.aggs_per_scan",
        ratio(load.server.coalesced_aggs, load.server.agg_scans),
    );
    set("serve.busy", load.server.busy as f64);
    set(
        "storage.pool_hit_ratio",
        ratio(all.io.cache_hits, all.io.logical_reads),
    );
    set(
        "storage.physical_per_query",
        all.io.physical_reads as f64 / all.n,
    );
    for kind in [Kind::Range, Kind::RowBand, Kind::Where, Kind::Full] {
        if let Some(k) = replay.kinds.get(&kind) {
            set(&format!("scan.{}_ms", kind.name()), k.engine_ns / k.n / 1e6);
        }
    }
    if let Some(k) = replay.kinds.get(&Kind::Range) {
        set(
            "storage.logical_per_row.range",
            k.io.logical_reads as f64 / k.rows,
        );
    }
    if let Some(k) = replay.kinds.get(&Kind::Where) {
        set(
            "synopsis.pages_read_frac",
            k.io.logical_reads as f64 / k.row_blocks,
        );
    }
    // Layer accounting: the part of the client round trip that the
    // daemon's own latency counter does not see (framing, socket, client).
    let rtt_mean = lat.iter().sum::<f64>() / lat.len() as f64;
    let server_ms = load.server.latency_usec as f64
        / (load.server.queries + load.server.errors).max(1) as f64
        / 1e3;
    set("serve.server_ms", server_ms);
    set("trace.gap_frac", 1.0 - server_ms / rtt_mean);
    set(
        "trace.overhead_frac",
        (replay.traced_s - replay.untraced_s) / replay.untraced_s,
    );
    let detail = format!(
        "{{{common_detail}, \"replayed\": {}, \"untraced_replay_s\": {}, \"traced_replay_s\": {}}}",
        replay.count,
        num(replay.untraced_s),
        num(replay.traced_s)
    );
    Ok(Outcome {
        attempted: load.attempted + replay.count as u64,
        failed: load.failed + replay.mismatches,
        metrics: m,
        detail,
        tracer: Some(t),
    })
}

/// Per-kind sums over the traced replay.
#[derive(Default, Clone)]
struct KindAcc {
    n: f64,
    parse_ns: f64,
    engine_ns: f64,
    rows: f64,
    row_blocks: f64,
    io: IoSnapshot,
}

struct Replay {
    kinds: BTreeMap<Kind, KindAcc>,
    count: usize,
    mismatches: u64,
    untraced_s: f64,
    traced_s: f64,
}

impl Replay {
    fn total(&self) -> KindAcc {
        let mut all = KindAcc::default();
        for k in self.kinds.values() {
            all.n += k.n;
            all.parse_ns += k.parse_ns;
            all.engine_ns += k.engine_ns;
            all.io.merge(&k.io);
        }
        all
    }
}

fn exec(e: &QueryEngine<'_>, q: &Query) -> Result<f64> {
    match q {
        Query::Cell(i, j) => e.cell(*i, *j),
        Query::Aggregate(f, sel) => e.aggregate(sel, *f),
        Query::AggregateWhere(f, sel, pred) => e.aggregate_where(sel, *f, pred),
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Cell => "query.cell",
        Kind::Range => "scan.range",
        Kind::RowBand => "scan.rowband",
        Kind::Where => "scan.where",
        Kind::Full => "scan.full",
    }
}

/// Replay the lines the clients sent, in send order, in process: first
/// untraced for at most half the window, then the same prefix traced.
fn replay(r: &Run, p: &Prepared, load: &Load, t: &mut Tracer) -> Result<Replay> {
    let e = engine(&p.store);
    let budget = r.seconds / 2.0;
    let t0 = Instant::now();
    let mut count = 0;
    for smp in &load.samples {
        if t0.elapsed().as_secs_f64() >= budget {
            break;
        }
        let q = parse_query(&p.lines[smp.line].text)?;
        std::hint::black_box(exec(&e, &q)?);
        count += 1;
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut kinds: BTreeMap<Kind, KindAcc> = BTreeMap::new();
    let mut mismatches = 0;
    let t0 = Instant::now();
    for (req, smp) in load.samples.iter().take(count).enumerate() {
        let line = &p.lines[smp.line];
        let req = req as u64 + 1;
        let root = t.begin("replay.request", None, req);
        let q = t.span("query.parse", root, req, || parse_query(&line.text))?;
        let before = p.store.io_snapshot();
        let v = t.span(span_name(line.kind), root, req, || exec(&e, &q))?;
        let after = p.store.io_snapshot();
        t.end(root);
        mismatches += u64::from(!same(v, p.expected[smp.line]));
        let spans = t.spans();
        let dur = |back: usize| spans[spans.len() - back].duration_ns() as f64;
        let acc = kinds.entry(line.kind).or_default();
        acc.n += 1.0;
        acc.parse_ns += dur(2);
        acc.engine_ns += dur(1);
        acc.rows += line.rows as f64;
        acc.row_blocks += (line.rows * line.blocks) as f64;
        acc.io.physical_reads += after.physical_reads - before.physical_reads;
        acc.io.logical_reads += after.logical_reads - before.logical_reads;
        acc.io.bytes_read += after.bytes_read - before.bytes_read;
        acc.io.cache_hits += after.cache_hits - before.cache_hits;
    }
    let traced_s = t0.elapsed().as_secs_f64();
    Ok(Replay {
        kinds,
        count,
        mismatches,
        untraced_s,
        traced_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_releases_both_and_close_releases_a_waiter() {
        let r = Rendezvous::default();
        std::thread::scope(|s| {
            let a = s.spawn(|| r.meet());
            assert!(r.meet());
            assert!(a.join().expect("client thread"));
            // Whether `b` is already waiting or arrives after the close,
            // it is released with `false`.
            let b = s.spawn(|| r.meet());
            r.close();
            assert!(!b.join().expect("client thread"));
        });
        assert!(!r.meet());
    }
}
