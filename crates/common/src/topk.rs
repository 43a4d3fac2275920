//! Bounded "keep the γ largest" tracker.
//!
//! The 3-pass SVDD algorithm (Fig. 5 of the paper) maintains, during its
//! second pass, **one priority queue per candidate cutoff `k`**, each
//! holding the `γ_k` cells with the largest reconstruction error seen so
//! far. [`TopK`] is that queue.
//!
//! It is not a heap. Accepted items go into an unordered append buffer
//! behind a *floor*: the standing of the lowest item kept at the last
//! compaction. An offer at or below the floor is rejected with one
//! comparison. When the buffer reaches `γ + γ/4 + 1` entries it is
//! compacted back to the γ best with a linear-time selection
//! (`select_nth_unstable_by`), which raises the floor. An offer therefore
//! costs `O(1)` amortised plus `O(γ)` per compaction, and compactions only
//! happen after `γ/4` more offers clear the floor, so a full pass over
//! `N·M` cells costs `O(N·M)` plus selection work proportional to the
//! accepted offers, all of it sequential over the buffer.
//!
//! Nothing observable depends on when compactions happen: the retained
//! set, [`TopK::merge`], the order of [`TopK::into_sorted_vec`] and the
//! bits of [`TopK::priority_sum`] are all functions of the offers alone.

use std::cmp::Ordering;

/// A bounded tracker that retains the `capacity` items with the largest
/// `f64` priority.
///
/// Each entry may carry a `u64` *rank* that breaks priority ties: among
/// equal priorities the item with the **smaller** rank wins. Feeding
/// globally unique ranks (e.g. the cell ordinal of a matrix scan) makes
/// the retained set a function of the offered set alone — independent of
/// arrival order, and therefore of how a scan is partitioned across
/// shards or threads ([`TopK::merge`] relies on this). The rankless
/// [`TopK::offer`] uses the lowest possible rank standing (`u64::MAX`),
/// which preserves the historical "ties at the boundary are rejected"
/// behavior. Items are any `T`; the priority is carried alongside. NaN
/// priorities are rejected by [`TopK::offer`] (returns `false`) so the
/// `(priority, rank)` order is always total.
///
/// [`TopK::threshold`], [`TopK::would_accept`] and
/// [`TopK::would_accept_ranked`] are exact but select over the buffer
/// (`O(len)`), so hot loops should call [`TopK::offer_ranked`] directly:
/// the floor check inside it is the cheap pre-check.
///
/// # Examples
///
/// ```
/// use ats_common::TopK;
/// let mut t = TopK::new(2);
/// t.offer(1.0, "a");
/// t.offer(3.0, "b");
/// t.offer(2.0, "c");
/// let mut kept: Vec<_> = t.into_sorted_vec().into_iter().map(|(_, v)| v).collect();
/// kept.sort();
/// assert_eq!(kept, vec!["b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<T> {
    /// Accepted `(priority, rank, item)` entries in arrival order (and
    /// selection order after a compaction). The retained set is the
    /// `capacity` best of them; there are fewer than `limit` at rest.
    buf: Vec<(f64, u64, T)>,
    capacity: usize,
    /// Buffer length that triggers a compaction: `γ + γ/4 + 1`.
    limit: usize,
    /// Standing of the lowest item kept at the last compaction. Every
    /// offer at or below it is rejected; `None` before the first
    /// compaction.
    floor: Option<(f64, u64)>,
}

/// Whether standing `a = (priority, rank)` is strictly below standing `b`:
/// smaller priority, or equal priority with the larger rank.
fn below(a: (f64, u64), b: (f64, u64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// Best-first order on standings: descending priority, ascending rank
/// among equal priorities.
fn best_first(a: &(f64, u64), b: &(f64, u64)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

fn standing<T>(e: &(f64, u64, T)) -> (f64, u64) {
    (e.0, e.1)
}

impl<T> TopK<T> {
    /// Create a tracker keeping at most `capacity` items.
    /// A zero capacity is legal and retains nothing.
    pub fn new(capacity: usize) -> Self {
        let limit = capacity.saturating_add(capacity / 4).saturating_add(1);
        TopK {
            buf: Vec::with_capacity(limit.min(1 << 20)),
            capacity,
            limit,
            floor: None,
        }
    }

    /// Offer an item with the given priority and no tie-break rank
    /// (equivalent to [`TopK::offer_ranked`] with rank `u64::MAX`, so
    /// boundary ties are rejected as they always were). Returns whether
    /// the item passed the floor; see [`TopK::offer_ranked`].
    pub fn offer(&mut self, priority: f64, item: T) -> bool {
        self.offer_ranked(priority, u64::MAX, item)
    }

    /// Offer an item with a priority and a tie-break rank (smaller rank
    /// beats equal priority).
    ///
    /// Returns `true` if the item passed the floor and was buffered. That
    /// is not a promise it is retained: a buffered item may already rank
    /// below the γ best and is dropped at the next compaction. `false`
    /// means it can never be retained (zero capacity, NaN, or at or below
    /// the floor).
    pub fn offer_ranked(&mut self, priority: f64, rank: u64, item: T) -> bool {
        if self.capacity == 0 || priority.is_nan() {
            return false;
        }
        if let Some(floor) = self.floor {
            if !below(floor, (priority, rank)) {
                return false;
            }
        }
        self.buf.push((priority, rank, item));
        if self.buf.len() >= self.limit {
            self.compact();
        }
        true
    }

    /// Cut the buffer back to the `capacity` best entries and raise the
    /// floor to the lowest of them. `O(len)`.
    fn compact(&mut self) {
        if self.buf.len() <= self.capacity {
            return;
        }
        let Some(last) = self.capacity.checked_sub(1) else {
            self.buf.clear();
            return;
        };
        self.buf
            .select_nth_unstable_by(last, |a, b| best_first(&standing(a), &standing(b)));
        self.buf.truncate(self.capacity);
        self.floor = self.buf.get(last).map(standing);
    }

    /// Standing of the lowest retained item, or `None` if empty. Exact;
    /// `O(len)`.
    fn lowest_retained(&self) -> Option<(f64, u64)> {
        match self.capacity.checked_sub(1) {
            Some(last) if self.buf.len() > self.capacity => {
                let mut keys: Vec<(f64, u64)> = self.buf.iter().map(standing).collect();
                let (_, kth, _) = keys.select_nth_unstable_by(last, best_first);
                Some(*kth)
            }
            _ => self.buf.iter().map(standing).max_by(best_first),
        }
    }

    /// The smallest priority currently retained, or `None` if empty.
    /// `O(len)`: not for hot loops.
    pub fn threshold(&self) -> Option<f64> {
        self.lowest_retained().map(|(p, _)| p)
    }

    /// Whether an unranked offer with this priority would be retained if
    /// the scan ended now. `O(len)`: not for hot loops.
    pub fn would_accept(&self, priority: f64) -> bool {
        self.would_accept_ranked(priority, u64::MAX)
    }

    /// Whether an offer with this priority and rank would be retained if
    /// the scan ended now. `O(len)`: not for hot loops.
    pub fn would_accept_ranked(&self, priority: f64, rank: u64) -> bool {
        if self.capacity == 0 || priority.is_nan() {
            return false;
        }
        if self.buf.len() < self.capacity {
            return true;
        }
        self.lowest_retained()
            .is_some_and(|low| below(low, (priority, rank)))
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.buf.len().min(self.capacity)
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Consume, returning items sorted by *descending* priority
    /// (ascending rank among ties, so the order — like the retained set —
    /// is a function of what was offered, not of arrival order).
    pub fn into_sorted_vec(self) -> Vec<(f64, T)> {
        self.into_sorted_ranked_vec()
            .into_iter()
            .map(|(p, _, item)| (p, item))
            .collect()
    }

    /// [`TopK::into_sorted_vec`] keeping each item's rank: `(priority,
    /// rank, item)` in descending priority, ascending rank among ties.
    pub fn into_sorted_ranked_vec(mut self) -> Vec<(f64, u64, T)> {
        self.compact();
        self.buf
            .sort_unstable_by(|a, b| best_first(&standing(a), &standing(b)));
        self.buf
    }

    /// Sum of all retained priorities (used to compute how much error mass
    /// the retained outliers account for). Summed in descending
    /// `(priority, rank)` order, so the result is bit-deterministic for a
    /// given retained set no matter how the buffer happens to be laid out
    /// — a sharded merge and a single scan agree exactly.
    pub fn priority_sum(&self) -> f64 {
        let mut keys: Vec<(f64, u64)> = self.buf.iter().map(standing).collect();
        if let Some(last) = self
            .capacity
            .checked_sub(1)
            .filter(|_| keys.len() > self.capacity)
        {
            keys.select_nth_unstable_by(last, best_first);
            keys.truncate(self.capacity);
        }
        keys.sort_unstable_by(best_first);
        keys.iter().map(|&(p, _)| p).sum()
    }

    /// Absorb another tracker: after the call, `self` retains the
    /// `self.capacity` largest items of the union of both trackers.
    ///
    /// This is the reduction step for sharded scans: feeding disjoint row
    /// ranges into per-worker queues and merging the shards retains the
    /// same item set as one queue fed every row, because any item in the
    /// global top-γ is necessarily in the local top-γ of its shard. With
    /// globally unique ranks the guarantee is exact even under priority
    /// ties (the `(priority, rank)` order is total); rankless entries
    /// fall back to arbitrary tie-breaks, as with `offer`.
    pub fn merge(&mut self, mut other: TopK<T>) {
        other.compact();
        for (p, rank, item) in other.buf {
            self.offer_ranked(p, rank, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_largest() {
        let mut t = TopK::new(3);
        for (p, v) in [(5.0, 5), (1.0, 1), (9.0, 9), (3.0, 3), (7.0, 7)] {
            t.offer(p, v);
        }
        let kept: Vec<i32> = t.into_sorted_vec().into_iter().map(|(_, v)| v).collect();
        assert_eq!(kept, vec![9, 7, 5]);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut t = TopK::new(0);
        assert!(!t.offer(100.0, ()));
        assert!(t.is_empty());
        assert_eq!(t.threshold(), None);
    }

    #[test]
    fn rejects_nan() {
        let mut t = TopK::new(2);
        assert!(!t.offer(f64::NAN, 1));
        assert!(t.is_empty());
        assert!(!t.would_accept(f64::NAN));
        assert!(!t.would_accept_ranked(f64::NAN, 0));
    }

    #[test]
    fn threshold_is_min_retained() {
        let mut t = TopK::new(2);
        t.offer(4.0, ());
        t.offer(8.0, ());
        assert_eq!(t.threshold(), Some(4.0));
        t.offer(6.0, ());
        assert_eq!(t.threshold(), Some(6.0));
    }

    #[test]
    fn would_accept_consistent_with_offer() {
        let mut t = TopK::new(2);
        t.offer(4.0, ());
        t.offer(8.0, ());
        assert!(t.would_accept(5.0));
        assert!(!t.would_accept(4.0)); // strict: equal priority not accepted
        assert!(!t.would_accept(3.0));
    }

    #[test]
    fn ranked_ties_prefer_smaller_rank() {
        let mut t = TopK::new(2);
        assert!(t.offer_ranked(1.0, 10, "r10"));
        assert!(t.offer_ranked(1.0, 30, "r30"));
        // Equal priority, smaller rank: evicts the rank-30 entry.
        assert!(t.would_accept_ranked(1.0, 20));
        assert!(t.offer_ranked(1.0, 20, "r20"));
        // Equal priority, larger rank than anything retained: rejected.
        assert!(!t.would_accept_ranked(1.0, 40));
        assert!(!t.offer_ranked(1.0, 40, "r40"));
        let kept: Vec<&str> = t.into_sorted_vec().into_iter().map(|(_, v)| v).collect();
        assert_eq!(kept, vec!["r10", "r20"]);
    }

    #[test]
    fn ranked_retained_set_is_arrival_order_independent() {
        // Many tied priorities: any arrival order and any sharding of the
        // offers must retain exactly the same (priority, rank) set.
        let items: Vec<(f64, u64)> = (0..40u64)
            .map(|r| (f64::from(u32::from(r % 4 == 0)), r))
            .collect();
        let canonical = |offers: &[(f64, u64)]| -> Vec<(f64, u64)> {
            let mut t: TopK<u64> = TopK::new(7);
            for &(p, r) in offers {
                t.offer_ranked(p, r, r);
            }
            let mut kept: Vec<(f64, u64)> = t.into_sorted_vec().into_iter().collect();
            kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
            kept
        };
        let forward = canonical(&items);
        let mut reversed = items.clone();
        reversed.reverse();
        assert_eq!(canonical(&reversed), forward);
        // Shard + merge agrees too.
        let mut merged: TopK<u64> = TopK::new(7);
        for chunk in items.chunks(9) {
            let mut local: TopK<u64> = TopK::new(7);
            for &(p, r) in chunk {
                local.offer_ranked(p, r, r);
            }
            merged.merge(local);
        }
        let mut kept: Vec<(f64, u64)> = merged.into_sorted_vec().into_iter().collect();
        kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(kept, forward);
    }

    #[test]
    fn sorted_output_descending() {
        let mut t = TopK::new(100);
        for i in 0..100 {
            t.offer(f64::from((i * 37) % 100), i);
        }
        let v = t.into_sorted_vec();
        for w in v.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
    }

    #[test]
    fn priority_sum_tracks_retained() {
        let mut t = TopK::new(3);
        for p in [1.0, 2.0, 3.0, 4.0] {
            t.offer(p, ());
        }
        // retains {2, 3, 4}
        assert!((t.priority_sum() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn priority_sum_is_layout_independent() {
        // The same retained set reached via different arrival orders must
        // sum to the same bits (the sum is taken in canonical order, not
        // heap order).
        let ps = [1.0e16, 1.0, -1.0e16, 3.5, 2.25, 7.75, 0.125];
        let mut a: TopK<u64> = TopK::new(4);
        let mut b: TopK<u64> = TopK::new(4);
        for (r, &p) in ps.iter().enumerate() {
            a.offer_ranked(p, r as u64, r as u64);
        }
        for (r, &p) in ps.iter().enumerate().rev() {
            b.offer_ranked(p, r as u64, r as u64);
        }
        assert_eq!(a.priority_sum().to_bits(), b.priority_sum().to_bits());
    }

    #[test]
    fn merge_of_shards_equals_single_queue() {
        let priorities: Vec<f64> = (0..200).map(|i| f64::from((i * 131) % 997)).collect();
        let mut single = TopK::new(17);
        for (i, &p) in priorities.iter().enumerate() {
            single.offer(p, i);
        }
        let mut merged = TopK::new(17);
        for chunk in priorities.chunks(23) {
            let mut shard = TopK::new(17);
            for (i, &p) in chunk.iter().enumerate() {
                shard.offer(p, i);
            }
            merged.merge(shard);
        }
        let a: Vec<f64> = single
            .into_sorted_vec()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let b: Vec<f64> = merged
            .into_sorted_vec()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_with_empty_and_into_empty() {
        let mut a = TopK::new(3);
        a.offer(1.0, "x");
        a.merge(TopK::new(3));
        assert_eq!(a.len(), 1);

        let mut b: TopK<&str> = TopK::new(3);
        let mut c = TopK::new(3);
        c.offer(2.0, "y");
        b.merge(c);
        assert_eq!(b.len(), 1);
        assert_eq!(b.threshold(), Some(2.0));
    }

    #[test]
    fn merge_respects_receiver_capacity() {
        let mut small = TopK::new(2);
        let mut big = TopK::new(10);
        for i in 0..10 {
            big.offer(f64::from(i), i);
        }
        small.merge(big);
        assert_eq!(small.len(), 2);
        let kept: Vec<i32> = small
            .into_sorted_vec()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(kept, vec![9, 8]);
    }

    #[test]
    fn merge_from_smaller_capacity_takes_only_its_retained_items() {
        // Ten offers to a capacity-8 queue stay buffered (no compaction
        // until 11), but only its 8 best are retained and merged.
        let mut small = TopK::new(8);
        for i in 0..10u64 {
            small.offer_ranked(f64::from(i as u32), i, i);
        }
        assert_eq!(small.len(), 8);
        let mut big = TopK::new(20);
        big.merge(small);
        assert_eq!(big.len(), 8);
        let kept: Vec<u64> = big.into_sorted_vec().into_iter().map(|(_, v)| v).collect();
        assert_eq!(kept, (2..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn merge_into_zero_capacity_retains_nothing() {
        let mut z: TopK<i32> = TopK::new(0);
        let mut other = TopK::new(3);
        other.offer(5.0, 5);
        z.merge(other);
        assert!(z.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn merge_is_order_insensitive(
            ps in proptest::collection::vec(0.0f64..1000.0, 1..120),
            cap in 1usize..20,
        ) {
            let mut fwd = TopK::new(cap);
            let mut rev = TopK::new(cap);
            for (i, &p) in ps.iter().enumerate() {
                fwd.offer_ranked(p, i as u64, i);
            }
            for (i, &p) in ps.iter().enumerate().rev() {
                rev.offer_ranked(p, i as u64, i);
            }
            let a: Vec<(f64, usize)> = fwd.into_sorted_vec();
            let b: Vec<(f64, usize)> = rev.into_sorted_vec();
            proptest::prop_assert_eq!(a, b);
        }
    }

    /// One reference-model step: an offer or an interleaved query.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Ranked(f64),
        Rankless(f64),
        Threshold,
        WouldAccept(f64),
    }

    /// Tie-heavy priorities: six values, plus NaN now and then.
    fn step(kind: u8, p: u8) -> Step {
        let priority = if p == 6 { f64::NAN } else { f64::from(p) - 2.0 };
        match kind {
            0..=5 => Step::Ranked(priority),
            6 => Step::Rankless(priority),
            7 => Step::Threshold,
            _ => Step::WouldAccept(priority),
        }
    }

    /// Distinct ranks in scrambled order (multiplication by an odd
    /// constant is a bijection on `u64`).
    fn scrambled(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The model: sort every (non-NaN) offer best-first, keep `cap`.
    fn reference(offers: &[(f64, u64, usize)], cap: usize) -> Vec<(f64, u64, usize)> {
        let mut all = offers.to_vec();
        all.sort_by(|a, b| best_first(&standing(a), &standing(b)));
        all.truncate(cap);
        all
    }

    /// Compare a queue's output with the model's retained list: the
    /// standings in order, every ranked item, and the bits of the sum.
    fn check_against(t: TopK<usize>, want: &[(f64, u64, usize)]) {
        let want_sum: f64 = want.iter().map(|&(p, _, _)| p).sum();
        assert_eq!(t.len(), want.len());
        assert_eq!(t.priority_sum().to_bits(), want_sum.to_bits());
        let plain = t.clone().into_sorted_vec();
        let got = t.into_sorted_ranked_vec();
        assert_eq!(got.len(), want.len());
        for (((gp, gr, gi), (wp, wr, wi)), (pp, pi)) in got.iter().zip(want).zip(&plain) {
            assert_eq!((gp.to_bits(), gr), (wp.to_bits(), wr));
            assert_eq!((pp.to_bits(), pi), (gp.to_bits(), gi));
            // Rankless ties are interchangeable; ranked items are not.
            if *gr != u64::MAX {
                assert_eq!(gi, wi);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn matches_sort_and_truncate_reference(
            raw in proptest::collection::vec((0u8..9, 0u8..7), 0..400),
            cap_kind in 0u8..3,
            small in 0usize..4,
            mid in 4usize..48,
            cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..6),
        ) {
            // Capacities 0-3, mid-sized ones that compact over and over,
            // and ones larger than the number of offers.
            let cap = match cap_kind {
                0 => small,
                1 => mid,
                _ => raw.len() + mid,
            };
            let steps: Vec<Step> = raw.iter().map(|&(k, p)| step(k, p)).collect();
            let mut t: TopK<usize> = TopK::new(cap);
            let mut offered: Vec<(f64, u64, usize)> = Vec::new();
            for (i, &s) in steps.iter().enumerate() {
                let kept = reference(&offered, cap);
                match s {
                    Step::Ranked(p) | Step::Rankless(p) => {
                        let rank = match s {
                            Step::Ranked(_) => scrambled(i),
                            _ => u64::MAX,
                        };
                        let passed = t.offer_ranked(p, rank, i);
                        if !p.is_nan() {
                            offered.push((p, rank, i));
                        }
                        // A rejected offer is never retained by the model.
                        if !passed {
                            let now = reference(&offered, cap);
                            proptest::prop_assert!(!now.iter().any(|&(_, _, item)| item == i));
                        }
                    }
                    Step::Threshold => {
                        let want = kept.last().map(|&(p, _, _)| p.to_bits());
                        proptest::prop_assert_eq!(t.threshold().map(f64::to_bits), want);
                        proptest::prop_assert_eq!(t.len(), kept.len());
                        proptest::prop_assert_eq!(t.is_empty(), kept.is_empty());
                    }
                    Step::WouldAccept(p) => {
                        let rank = scrambled(i);
                        let want = cap > 0
                            && !p.is_nan()
                            && (kept.len() < cap
                                || kept.last().is_some_and(|&(lp, lr, _)| below((lp, lr), (p, rank))));
                        proptest::prop_assert_eq!(t.would_accept_ranked(p, rank), want);
                    }
                }
            }
            let want = reference(&offered, cap);
            check_against(t, &want);

            // The same offers split at arbitrary points into per-shard
            // queues and merged must retain exactly the same.
            let offers: Vec<(usize, Step)> = steps
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, s)| matches!(s, Step::Ranked(_) | Step::Rankless(_)))
                .collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (offers.len() + 1)).collect();
            bounds.push(0);
            bounds.push(offers.len());
            bounds.sort_unstable();
            let mut merged: TopK<usize> = TopK::new(cap);
            for w in bounds.windows(2) {
                let mut shard: TopK<usize> = TopK::new(cap);
                for &(i, s) in &offers[w[0]..w[1]] {
                    match s {
                        Step::Ranked(p) => shard.offer_ranked(p, scrambled(i), i),
                        Step::Rankless(p) => shard.offer(p, i),
                        _ => false,
                    };
                }
                merged.merge(shard);
            }
            check_against(merged, &want);
        }
    }
}
