//! Seeded input generation: the dataset seed, Zipf-skewed row picks and
//! the query lines each workload sends. Everything here is a pure
//! function of `--seed`, so two runs with one seed send the same lines.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run seed, so adding a
    /// stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Which layer path a query line takes through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `cell i j`
    Cell,
    /// `sum rows all in time [t..t+w]`
    Range,
    /// `avg rows a..b cols all`
    RowBand,
    /// `count|sum rows all where value > x [in time [..]]`
    Where,
    /// The dashboard query `avg rows all cols all`.
    Full,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Range => "range",
            Kind::RowBand => "rowband",
            Kind::Where => "where",
            Kind::Full => "full",
        }
    }
}

/// One query line and the path it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub kind: Kind,
    pub text: String,
    /// Rows the line selects (for per-row counters).
    pub rows: usize,
    /// Time blocks the line's columns overlap (for the synopsis ratio).
    pub blocks: usize,
}

/// `count` cell lines over an `n × m` store: rows Zipf(1)-skewed over a
/// seeded shuffle (so the hot rows are scattered across shards and
/// pages), days uniform.
pub fn cell_lines(seed: u64, n: usize, m: usize, count: usize) -> Vec<Line> {
    let mut rng = Rng::new(seed, "cell-lines");
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let zipf = Zipf::new(n, 1.0);
    (0..count)
        .map(|_| {
            let row = perm[zipf.sample(&mut rng)];
            let col = rng.below(m);
            Line {
                kind: Kind::Cell,
                text: format!("cell {row} {col}"),
                rows: 1,
                blocks: 1,
            }
        })
        .collect()
}

/// Shape of the analytic mix, fixed by the benchmark.
pub struct AggShape<'a> {
    pub rows: usize,
    pub cols: usize,
    /// Half-open column ranges of the store's time blocks.
    pub block_ranges: &'a [(usize, usize)],
    /// `where value > x` thresholds: the 0.99 and 0.90 quantiles of the
    /// served values (about 1% and 10% selectivity).
    pub thresholds: [f64; 2],
}

impl AggShape<'_> {
    fn blocks_overlapping(&self, t1: usize, t2: usize) -> usize {
        self.block_ranges
            .iter()
            .filter(|&&(c0, c1)| c0 < t2 && t1 < c1)
            .count()
    }
}

/// The dashboard line both clients send every eighth request.
pub fn full_line(shape: &AggShape<'_>) -> Line {
    Line {
        kind: Kind::Full,
        text: "avg rows all cols all".to_string(),
        rows: shape.rows,
        blocks: shape.block_ranges.len(),
    }
}

/// `lo + j·(hi − lo)/(n − 1)`: the `j`-th of `n` evenly spread values.
fn spread(j: usize, n: usize, lo: usize, hi: usize) -> usize {
    lo + j * (hi - lo) / (n - 1).max(1)
}

/// `count` distinct non-dashboard aggregate lines, a third each of the
/// range, row-band and `where` kinds, interleaved. The sizes are spread
/// evenly over their ranges (range widths 7–60 days, bands of 100–2000
/// rows; `where` lines cycle through count/sum × 1%/10% selectivity ×
/// with/without a time range), half the time windows straddle a block
/// boundary, and only the positions are drawn from the seed, so every
/// seed sends the same mix of work.
pub fn agg_lines(seed: u64, shape: &AggShape<'_>, count: usize) -> Vec<Line> {
    let mut rng = Rng::new(seed, "agg-lines");
    let per_kind = count.div_ceil(3);
    // Width from the stratum; every other window of a kind straddles a
    // block boundary (two blocks scanned), the rest sit inside one block.
    let window = |rng: &mut Rng, j: usize| {
        let w = spread(j, per_kind, 7, 60).min(shape.cols);
        let blocks = shape.block_ranges;
        if j % 2 == 1 && blocks.len() > 1 && w > 1 {
            // t in [edge − w + 1, edge − 1]: the window holds `edge`.
            let edge = blocks[rng.below(blocks.len() - 1)].1;
            let t = ((edge + 1).saturating_sub(w) + rng.below(w - 1)).min(shape.cols - w);
            (t, t + w)
        } else {
            let (c0, c1) = blocks[rng.below(blocks.len())];
            let t = if c1 - c0 >= w {
                c0 + rng.below(c1 - c0 - w + 1)
            } else {
                rng.below(shape.cols - w + 1)
            };
            (t, t + w)
        }
    };
    (0..count)
        .map(|i| {
            let j = i / 3;
            match i % 3 {
                0 => {
                    let (t1, t2) = window(&mut rng, j);
                    Line {
                        kind: Kind::Range,
                        text: format!("sum rows all in time [{t1}..{t2}]"),
                        rows: shape.rows,
                        blocks: shape.blocks_overlapping(t1, t2),
                    }
                }
                1 => {
                    let len = spread(j, per_kind, 100, 2000).min(shape.rows);
                    let a = rng.below(shape.rows - len + 1);
                    Line {
                        kind: Kind::RowBand,
                        text: format!("avg rows {a}..{} cols all", a + len),
                        rows: len,
                        blocks: shape.block_ranges.len(),
                    }
                }
                _ => {
                    let f = ["count", "sum"][j % 2];
                    let x = shape.thresholds[(j / 2) % 2];
                    let text = format!("{f} rows all where value > {x}");
                    if (j / 4) % 2 == 0 {
                        Line {
                            kind: Kind::Where,
                            text,
                            rows: shape.rows,
                            blocks: shape.block_ranges.len(),
                        }
                    } else {
                        let (t1, t2) = window(&mut rng, j);
                        Line {
                            kind: Kind::Where,
                            text: format!("{text} in time [{t1}..{t2}]"),
                            rows: shape.rows,
                            blocks: shape.blocks_overlapping(t1, t2),
                        }
                    }
                }
            }
        })
        .collect()
}

/// The order in which one client walks a pool of `pool` lines: every
/// eighth request is the dashboard line (`None`); the others walk the
/// pool in a seeded shuffled order, reshuffled after each pass, so each
/// line is sent about equally often.
pub struct AggSchedule {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
    sent: u64,
}

impl AggSchedule {
    pub fn new(seed: u64, client: usize, pool: usize) -> AggSchedule {
        AggSchedule {
            rng: Rng::new(seed, &format!("agg-client-{client}")),
            order: (0..pool).collect(),
            pos: pool,
            sent: 0,
        }
    }

    pub fn next(&mut self) -> Option<usize> {
        self.sent += 1;
        if self.sent.is_multiple_of(8) {
            return None;
        }
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.order[self.pos - 1])
    }
}

/// The value at quantile `q` of `values` (nearest rank), reordering
/// `values` in place.
pub fn quantile_in_place(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    *values.select_nth_unstable_by(idx, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_determined_by_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
    }

    #[test]
    fn query_lines_are_determined_by_seed() {
        assert_eq!(cell_lines(3, 500, 40, 200), cell_lines(3, 500, 40, 200));
        assert_ne!(cell_lines(3, 500, 40, 200), cell_lines(4, 500, 40, 200));
        let blocks = [(0, 10), (10, 20), (20, 30), (30, 40)];
        let shape = AggShape {
            rows: 3000,
            cols: 40,
            block_ranges: &blocks,
            thresholds: [5.0, 1.5],
        };
        let a = agg_lines(9, &shape, 60);
        assert_eq!(a, agg_lines(9, &shape, 60));
        assert_ne!(a, agg_lines(10, &shape, 60));
        for l in &a {
            assert!(ats_query::parse_query(&l.text).is_ok(), "{}", l.text);
            assert!((1..=4).contains(&l.blocks), "{l:?}");
        }
        // The mix is fixed; only positions move with the seed.
        let kinds = |v: &[Line]| v.iter().map(|l| l.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&agg_lines(10, &shape, 60)));
        let shape = AggShape {
            rows: 3000,
            cols: 366,
            block_ranges: &[(0, 92), (92, 184), (184, 275), (275, 366)],
            thresholds: [5.0, 1.5],
        };
        let ranges: Vec<Line> = agg_lines(5, &shape, 96)
            .into_iter()
            .filter(|l| l.kind == Kind::Range)
            .collect();
        assert_eq!(ranges.len(), 32);
        assert_eq!(ranges.iter().filter(|l| l.blocks == 2).count(), 16);
        assert!(ranges.iter().all(|l| l.blocks <= 2));
        assert_eq!(spread(0, 20, 7, 60), 7);
        assert_eq!(spread(19, 20, 7, 60), 60);
        let walk = |seed, n| {
            let mut s = AggSchedule::new(seed, 0, 60);
            (0..n).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(walk(1, 64), walk(1, 64));
        assert_ne!(walk(1, 64), walk(2, 64));
        assert_eq!(walk(1, 64).iter().filter(|x| x.is_none()).count(), 8);
        // One pass over the pool sends every line exactly once.
        let mut first: Vec<usize> = walk(1, 80).into_iter().flatten().take(60).collect();
        first.sort_unstable();
        assert_eq!(first, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1, "zipf");
        let mut hits = [0usize; 2];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            hits[usize::from(r >= 10)] += 1;
        }
        // The top 10 of 1000 ranks carry H(10)/H(1000) ≈ 39% of the mass.
        let top = hits[0] as f64 / 20_000.0;
        assert!((0.35..0.43).contains(&top), "{top}");
    }

    #[test]
    fn quantile_picks_nearest_rank() {
        let mut v: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(quantile_in_place(&mut v, 0.9), 90.0);
        assert_eq!(quantile_in_place(&mut v, 0.0), 0.0);
        assert_eq!(quantile_in_place(&mut v, 1.0), 100.0);
    }
}
