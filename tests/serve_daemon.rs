//! End-to-end tests for the `ats serve` daemon over a real TCP socket:
//! concurrent clients must get bitwise-identical answers to a serial
//! per-query loop at every shard × thread count; concurrently arriving
//! cell queries for the same row must coalesce into one `U`-row fetch
//! per shard (IoStats-asserted); a client killed mid-conversation must
//! not disturb the server; and `SHUTDOWN` must drain, not tear.

use adhoc_ts::compress::SpaceBudget;
use adhoc_ts::core::shard::ShardedStore;
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::QueryEngine;
use adhoc_ts::query::parse::run_query;
use adhoc_ts::query::serve::{client, serve, ServeConfig, ServerHandle};
use ats_common::TestDir;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Build, save, and reopen a paged store with the given shard count.
fn saved_store(dir: &TestDir, x: &Matrix, shards: usize) -> Arc<ShardedStore> {
    // Pinned to one time block: the daemon fixture opens the v3 sharded
    // layout directly (time-blocked serving is covered separately below).
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(shards)
        .time_blocks(1)
        .build(x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    Arc::new(ShardedStore::open(dir.file("store"), 256).unwrap())
}

/// Start a daemon over `store` with the given knobs; port 0 picks a free
/// port so parallel tests never collide.
fn start(store: &Arc<ShardedStore>, threads: usize, cfg: ServeConfig) -> ServerHandle {
    let io = Arc::clone(store);
    serve(
        QueryEngine::shared(store.clone()).with_threads(threads),
        cfg,
        Some(Box::new(move || io.shard_io_snapshots())),
    )
    .unwrap()
}

/// The serial baseline: the same shared engine the daemon wraps, asked
/// directly, one query at a time.
fn baseline(store: &Arc<ShardedStore>) -> QueryEngine<'static> {
    QueryEngine::shared(store.clone())
}

fn connect(handle: &ServerHandle) -> TcpStream {
    TcpStream::connect(handle.addr()).unwrap()
}

/// Block until the acceptor has counted `k` connections. A window closes
/// once every *counted* connection has a request queued, so a test that
/// wants all its clients in one window waits for this before any client
/// sends.
fn wait_for_connections(handle: &ServerHandle, k: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().connections < k {
        assert!(Instant::now() < deadline, "only {:?}", handle.metrics());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Parse an `OK <f64>` response back to bits. f64's `Display` is the
/// shortest round-trip form, so this is lossless.
fn ok_value(resp: &str) -> f64 {
    resp.strip_prefix("OK ")
        .unwrap_or_else(|| panic!("expected OK, got {resp:?}"))
        .parse()
        .unwrap()
}

/// All six aggregate queries over one rectangle, as wire text.
fn aggregate_queries() -> Vec<String> {
    ["sum", "avg", "count", "min", "max", "stddev"]
        .iter()
        .map(|f| format!("{f} rows 10..38 cols 3..14"))
        .collect()
}

#[test]
fn concurrent_clients_match_serial_loop_bitwise_across_shards_and_threads() {
    let x = phone(90, 24, 31);
    for shards in [1usize, 3] {
        let dir = TestDir::new("ats-serve");
        let store = saved_store(&dir, &x, shards);
        for threads in [1usize, 4] {
            let handle = start(&store, threads, ServeConfig::default());

            let engine = baseline(&store);
            let cells: Vec<(usize, usize)> =
                vec![(0, 0), (89, 23), (45, 11), (30, 5), (61, 7), (2, 19)];
            let mut questions: Vec<String> = cells
                .iter()
                .map(|&(i, j)| format!("cell {i} {j}"))
                .collect();
            questions.extend(aggregate_queries());
            let expect: Vec<u64> = questions
                .iter()
                .map(|q| run_query(&engine, q).unwrap().to_bits())
                .collect();

            // Six concurrent clients each run the full question list.
            let workers: Vec<_> = (0..6)
                .map(|_| {
                    let addr = handle.addr();
                    let questions = questions.clone();
                    std::thread::spawn(move || {
                        let mut s = TcpStream::connect(addr).unwrap();
                        questions
                            .iter()
                            .map(|q| ok_value(&client::round_trip(&mut s, q).unwrap()).to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for w in workers {
                let got = w.join().unwrap();
                assert_eq!(got, expect, "shards={shards} threads={threads}");
            }
            handle.join().unwrap();
        }
    }
}

#[test]
fn coalesced_same_row_queries_do_one_u_fetch_per_shard() {
    const K: usize = 5;
    let dir = TestDir::new("ats-serve");
    let x = phone(120, 24, 7);
    let store = saved_store(&dir, &x, 3);
    // A huge window with batch_max = K: the batcher must wait for all K
    // cells and fire exactly once — deterministically, not racily.
    let handle = start(
        &store,
        1,
        ServeConfig {
            window: Duration::from_secs(30),
            batch_max: K,
            ..ServeConfig::default()
        },
    );

    // The store was never queried, so every I/O counter starts at 0.
    for snap in store.shard_io_snapshots() {
        assert_eq!(snap.logical_reads, 0);
    }

    // K clients ask for K different columns of the SAME row (row 50 →
    // shard 1 of rows 0..40 | 40..80 | 80..120).
    let row = 50usize;
    let streams: Vec<TcpStream> = (0..K).map(|_| connect(&handle)).collect();
    wait_for_connections(&handle, K as u64);
    let workers: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(col, mut s)| {
            std::thread::spawn(move || {
                ok_value(&client::round_trip(&mut s, &format!("cell {row} {col}")).unwrap())
            })
        })
        .collect();
    let answers: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // The acceptance bound: K concurrent clients on one row = one batch,
    // one U-row fetch, in exactly the owning shard.
    let m = handle.metrics();
    assert_eq!(m.batches, 1, "{m:?}");
    assert_eq!(m.coalesced_cells, K as u64, "{m:?}");
    let per_shard: Vec<u64> = store
        .shard_io_snapshots()
        .iter()
        .map(|s| s.logical_reads)
        .collect();
    assert_eq!(per_shard, vec![0, 1, 0]);

    // And each client's answer equals the serial loop bit for bit.
    let engine = baseline(&store);
    for (col, got) in answers.into_iter().enumerate() {
        assert_eq!(got.to_bits(), engine.cell(row, col).unwrap().to_bits());
    }
    handle.join().unwrap();
}

#[test]
fn killed_client_mid_conversation_leaves_server_healthy() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 3);
    let store = saved_store(&dir, &x, 2);
    let handle = start(&store, 1, ServeConfig::default());

    // Client A sends a request and vanishes without reading the answer;
    // client B abandons a half-written frame (header only) mid-stream.
    {
        let mut a = connect(&handle);
        client::send(&mut a, "cell 1 1").unwrap();
        drop(a);
        let mut b = connect(&handle);
        use std::io::Write as _;
        b.write_all(&[0, 0]).unwrap();
        drop(b);
    }

    // The server must still answer new clients correctly.
    let engine = baseline(&store);
    let mut c = connect(&handle);
    let got = ok_value(&client::round_trip(&mut c, "cell 7 3").unwrap());
    assert_eq!(got.to_bits(), engine.cell(7, 3).unwrap().to_bits());
    let pong = client::round_trip(&mut c, "PING").unwrap();
    assert_eq!(pong, "OK pong");
    drop(c);
    handle.join().unwrap();
}

#[test]
fn stats_verb_reports_server_connection_and_io_counters() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 13);
    let store = saved_store(&dir, &x, 2);
    let handle = start(&store, 1, ServeConfig::default());

    let mut s = connect(&handle);
    client::round_trip(&mut s, "cell 3 2").unwrap();
    client::round_trip(&mut s, "sum rows all cols all").unwrap();
    let err = client::round_trip(&mut s, "cell 99 0").unwrap();
    assert!(err.starts_with("ERR "), "{err}");
    let resp = client::round_trip(&mut s, "STATS").unwrap();
    let stats = resp.strip_prefix("OK ").unwrap();
    assert!(stats.starts_with("stats\n"), "{stats}");
    assert!(stats.contains("server connections=1"), "{stats}");
    assert!(stats.contains("cells=1 aggregates=1 errors=1"), "{stats}");
    assert!(stats.contains("conn queries=2 errors=1"), "{stats}");
    // The IoStats hook is wired: per-shard lines plus the merged total.
    assert!(stats.contains("io shard=0 "), "{stats}");
    assert!(stats.contains("io shard=1 "), "{stats}");
    assert!(stats.contains("io total "), "{stats}");
    drop(s);
    handle.join().unwrap();
}

/// Process peak RSS in bytes (`VmHWM`); the daemon runs in-process, so
/// this high-water mark covers the server's buffers too.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn flooding_client_gets_err_busy_and_cannot_grow_server_rss() {
    const FLOOD: usize = 3_000;
    const PENDING_MAX: usize = 8;
    let dir = TestDir::new("ats-serve");
    let x = phone(120, 24, 41);
    let store = saved_store(&dir, &x, 2);
    // A deliberately slow drain — admitted cells sit in the batcher for
    // the full 10 ms window — so a flooder saturates its `pending_max`
    // in-flight slots almost immediately and cells past them come back
    // `ERR busy` instead of queueing. (Past 2×`pending_max` queued
    // replies the server stops reading the flooder's frames entirely, so
    // the steady state is ~half admitted, ~half bounced per window.)
    let handle = start(
        &store,
        1,
        ServeConfig {
            window: Duration::from_millis(10),
            batch_max: 1 << 20,
            pending_max: PENDING_MAX,
            ..ServeConfig::default()
        },
    );

    let hwm_before = peak_rss_bytes();

    // The flooder pipelines FLOOD cell frames from one thread while a
    // second thread drains the replies (so TCP backpressure never stalls
    // the writes), tallying OK vs busy.
    let flood_addr = handle.addr();
    let flooder = std::thread::spawn(move || {
        let mut wr = TcpStream::connect(flood_addr).unwrap();
        let mut rd = wr.try_clone().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut ok, mut busy) = (0usize, 0usize);
            for _ in 0..FLOOD {
                let resp = client::recv(&mut rd).unwrap();
                if resp.starts_with("OK ") {
                    ok += 1;
                } else {
                    assert!(resp.starts_with("ERR busy"), "{resp}");
                    busy += 1;
                }
            }
            (ok, busy)
        });
        for _ in 0..FLOOD {
            client::send(&mut wr, "cell 1 1").unwrap();
        }
        reader.join().unwrap()
    });

    // While the flood runs, a well-behaved connection keeps getting
    // correct answers: verbs, aggregates, and batched cells alike.
    let engine = baseline(&store);
    let mut healthy = connect(&handle);
    for _ in 0..10 {
        assert_eq!(client::round_trip(&mut healthy, "PING").unwrap(), "OK pong");
        let agg = ok_value(&client::round_trip(&mut healthy, "sum rows 0..20 cols all").unwrap());
        assert_eq!(
            agg.to_bits(),
            run_query(&engine, "sum rows 0..20 cols all")
                .unwrap()
                .to_bits()
        );
        let got = ok_value(&client::round_trip(&mut healthy, "cell 7 3").unwrap());
        assert_eq!(got.to_bits(), engine.cell(7, 3).unwrap().to_bits());
    }

    let (ok, busy) = flooder.join().unwrap();
    assert_eq!(ok + busy, FLOOD);
    assert!(ok > 0, "some flooded cells must still be answered");
    assert!(
        busy > FLOOD / 4,
        "a flood outpacing the window must largely bounce: ok={ok} busy={busy}"
    );

    // Refusal is bounded memory: FLOOD pipelined frames moved through the
    // server without its queues (or this process) growing materially.
    if let (Some(before), Some(after)) = (hwm_before, peak_rss_bytes()) {
        assert!(
            after - before < 32 * 1024 * 1024,
            "flood grew peak RSS by {} bytes",
            after - before
        );
    }

    let m = handle.metrics();
    assert_eq!(m.busy, busy as u64, "{m:?}");
    drop(healthy);
    handle.join().unwrap();
}

#[test]
fn shutdown_verb_acknowledges_then_drains() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 23);
    let store = saved_store(&dir, &x, 1);
    let handle = start(&store, 1, ServeConfig::default());

    let mut s = connect(&handle);
    let engine = baseline(&store);
    let got = ok_value(&client::round_trip(&mut s, "cell 5 5").unwrap());
    assert_eq!(got.to_bits(), engine.cell(5, 5).unwrap().to_bits());
    let ack = client::round_trip(&mut s, "SHUTDOWN").unwrap();
    assert_eq!(ack, "OK shutting down");
    drop(s);
    let m = handle.join().unwrap();
    assert_eq!(m.queries, 1);
}

#[test]
fn coalesced_range_aggregates_share_one_block_scan() {
    use adhoc_ts::core::timeblock::TimeBlockedStore;

    // A time-blocked (v4) store: 4 blocks of 8 columns each.
    let x = phone(80, 32, 77);
    let dir = TestDir::new("ats-serve");
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(2)
        .time_blocks(4)
        .build(&x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    let store = Arc::new(TimeBlockedStore::open(dir.file("store"), 256).unwrap());
    assert_eq!(store.block_count(), 4);

    // A long window with batch_max = 5: the five concurrent requests
    // below land in one admission window and fire it by count.
    let io = Arc::clone(&store);
    let handle = serve(
        QueryEngine::shared(store.clone()).with_threads(1),
        ServeConfig {
            window: Duration::from_millis(5_000),
            batch_max: 5,
            ..ServeConfig::default()
        },
        Some(Box::new(move || io.shard_io_snapshots())),
    )
    .unwrap();

    // Five clients ask the identical range aggregate confined to block 1
    // (columns 10..14 of blocks [0..8, 8..16, 16..24, 24..32]).
    let q = "avg rows all in time [10..14]";
    let mut clients: Vec<TcpStream> = (0..5).map(|_| connect(&handle)).collect();
    wait_for_connections(&handle, 5);
    for c in &mut clients {
        client::send(c, q).unwrap();
    }
    let replies: Vec<f64> = clients
        .iter_mut()
        .map(|c| ok_value(&client::recv(c).unwrap()))
        .collect();
    for w in replies.windows(2) {
        assert_eq!(w[0].to_bits(), w[1].to_bits());
    }

    // IoStats: the five requests shared ONE scan, and that scan touched
    // only the overlapping block — every other block stayed cold.
    let per_block = store.block_io_snapshots();
    assert_eq!(per_block.len(), 4);
    assert!(per_block[1].physical_reads > 0, "block 1 must have served");
    for (b, snap) in per_block.iter().enumerate() {
        if b != 1 {
            assert_eq!(snap.physical_reads, 0, "block {b} must stay cold");
            assert_eq!(snap.logical_reads, 0, "block {b} must stay cold");
        }
    }
    let scan_reads = per_block[1].physical_reads;

    handle.begin_shutdown();
    let m = handle.join().unwrap();
    assert_eq!(m.aggregates, 5);
    assert_eq!(m.coalesced_aggs, 5);
    assert_eq!(m.agg_scans, 1, "five identical aggregates, one scan");

    // The answer matches a direct engine ask bitwise, and a second,
    // uncoalesced run of the same scan on a fresh store does the same
    // physical I/O — so sharing saved 4 of the 5 scans' worth.
    let fresh = Arc::new(TimeBlockedStore::open(dir.file("store"), 256).unwrap());
    let engine = QueryEngine::shared(fresh.clone());
    let want = run_query(&engine, q).unwrap();
    assert_eq!(want.to_bits(), replies[0].to_bits());
    assert_eq!(fresh.block_io_snapshots()[1].physical_reads, scan_reads);
}
